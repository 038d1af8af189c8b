//! Benchmark of the stack-on-demand simulator: one workload per run,
//! end-to-end metrics from untraced `Scenario::run` calls (`--trace 0`),
//! per-layer metrics from a traced run that times calls into each layer
//! from outside the program (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compute_offload --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod calib;
mod report;
mod traced;
mod workloads;

use std::panic;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sod::runtime::ClusterReport;
use sod::vm::interp::Vm;
use sod::vm::value::Value;
use sod::vm::wire;
use sod::CodeShipping;

use calib::HostSpeed;
use report::{median, Metrics, Outcome, Program, Programs};
use workloads::Spec;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {:?})",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    known_failures(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let result = if args.trace {
        traced_mode(&args, budget)
    } else {
        untraced_mode(&args, budget)
    };
    result.print();
    ExitCode::SUCCESS
}

/// The engine defect this benchmark reports instead of hiding: under every
/// code-shipping policy but `BundleReachable`, a remotely walked object
/// whose class never travelled makes `Scenario::run` panic with
/// `ClassNotFound("Cell")`. Each policy is probed on a small `object_fetch`
/// and reported on its own named line.
fn known_failures(seed: u64) {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    for (label, policy) in [
        ("bundle_top", CodeShipping::BundleTop),
        ("never", CodeShipping::Never),
        ("bundle_always", CodeShipping::BundleAlways),
    ] {
        let (mut spec, _) = workloads::build("object_fetch", seed, Some(policy));
        for f in &mut spec.fleets {
            f.count = 1;
        }
        let outcome = panic::catch_unwind(panic::AssertUnwindSafe(|| spec.scenario().run()));
        let status = match outcome {
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".into());
                format!("FAILS: Scenario::run panicked: {msg}")
            }
            Ok(Err(e)) => format!("FAILS: Scenario::run returned an error: {e}"),
            Ok(Ok(_)) => "no longer reproduces: Scenario::run completed".into(),
        };
        println!("known_failure object_fetch.{label}: {status}");
    }
    panic::set_hook(hook);
}

/// Check one run's outputs: every request's result against the Rust
/// reference, the migration shape each request must have, and byte
/// conservation (`sent = accounted + lost`) for every category.
fn check(spec: &Spec, programs: &[Program], cl: &ClusterReport) -> Vec<String> {
    let mut errs = Vec::new();
    if programs.len() != spec.requests() {
        errs.push(format!(
            "{} reports for {} requests",
            programs.len(),
            spec.requests()
        ));
    }
    for (i, ((r, err), f)) in programs.iter().zip(spec.per_request()).enumerate() {
        if let Some(e) = err {
            errs.push(format!("request {i} failed: {e}"));
        } else if r.result != Some(f.expected) {
            errs.push(format!(
                "request {i} returned {:?}, expected {}",
                r.result, f.expected
            ));
        }
        if let Some(n) = f.migrations {
            if r.migrations.len() != n {
                errs.push(format!(
                    "request {i} shipped {} segments, expected {n}",
                    r.migrations.len()
                ));
            }
        } else if r.migrations.is_empty() {
            errs.push(format!("request {i} never migrated"));
        }
        if r.object_faults < f.min_faults {
            errs.push(format!(
                "request {i} took {} object faults, expected at least {}",
                r.object_faults, f.min_faults
            ));
        }
    }
    if cl.completed != spec.requests() as u64 || cl.failed != 0 {
        errs.push(format!(
            "{} of {} requests completed, {} failed",
            cl.completed,
            spec.requests(),
            cl.failed
        ));
    }
    let (sent, lost) = (cl.total_sent(), cl.total_lost());
    let state: u64 = programs
        .iter()
        .flat_map(|(r, _)| r.migrations.iter())
        .map(|m| m.state_bytes)
        .sum();
    let class: u64 = programs.iter().map(|(r, _)| r.class_bytes).sum();
    let object: u64 = programs.iter().map(|(r, _)| r.object_bytes).sum();
    for (cat, s, a, l) in [
        ("state", sent.state, state, lost.state),
        ("class", sent.class, class, lost.class),
        ("object", sent.object, object, lost.object),
    ] {
        if s != a + l {
            errs.push(format!("{cat} bytes: sent {s} != accounted {a} + lost {l}"));
        }
    }
    errs
}

fn scenario_programs(r: &sod::ScenarioReport) -> Programs {
    r.programs()
        .iter()
        .map(|p| (p.report.clone(), p.error.clone()))
        .collect()
}

/// Book-keeping shared by both modes: the first run's outputs are the
/// reference every later run must reproduce exactly.
struct Checker {
    reference: Option<(ClusterReport, Programs)>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new() -> Self {
        Checker {
            reference: None,
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn observe(&mut self, what: &str, spec: &Spec, cl: &ClusterReport, programs: Programs) {
        self.attempted += spec.requests() as u64;
        self.failed += programs
            .iter()
            .zip(spec.per_request())
            .filter(|((r, e), f)| e.is_some() || r.result != Some(f.expected))
            .count() as u64;
        for e in check(spec, &programs, cl) {
            self.error(format!("{what}: {e}"));
        }
        match &self.reference {
            None => self.reference = Some((cl.clone(), programs)),
            Some((rc, rp)) => {
                if rc != cl || *rp != programs {
                    self.error(format!("{what}: report differs from the first run"));
                }
            }
        }
    }

    fn error(&mut self, e: String) {
        // Keep the output readable when one defect hits every request.
        if self.errors.len() < 20 {
            println!("check failed: {e}");
        }
        self.errors.push(e);
    }

    fn outcome(&self) -> Outcome {
        let (cl, programs) = self.reference.as_ref().expect("at least one run");
        Outcome::of(cl, programs)
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A timed repetition lasts at least this long, so that the reference
/// samples on either side of it (about 75 ms each) are short next to it.
/// `object_fetch` runs take about 0.15 s, so a repetition there is several
/// back-to-back runs.
const MIN_REP_S: f64 = 0.4;

/// Host seconds of set-up — guest classes built and preprocessed, the
/// scenario described — as medians over back-to-back repetitions, each
/// scaled to the nominal host: `(total, preprocess, describe)`.
fn setup_times(args: &Args, budget: Duration) -> (f64, f64, f64) {
    let (mut total, mut pre, mut desc) = (vec![], vec![], vec![]);
    let mut speed = HostSpeed::default();
    let start = Instant::now();
    speed.sample();
    for chunk in 0.. {
        if chunk >= 3 && start.elapsed() >= budget {
            break;
        }
        let mut raw = vec![];
        let chunk_start = Instant::now();
        while chunk_start.elapsed().as_secs_f64() < MIN_REP_S / 2.0 {
            let t0 = Instant::now();
            let (spec, preprocess_s) = workloads::build(&args.workload, args.seed, None);
            std::hint::black_box(spec.scenario());
            raw.push((t0.elapsed().as_secs_f64(), preprocess_s));
        }
        speed.sample();
        let k = speed.scale(chunk);
        for (s, p) in raw {
            total.push(s * k);
            pre.push(p * k);
            desc.push((s - p) * k);
        }
    }
    (median(&total), median(&pre), median(&desc))
}

/// `--trace 0`: repeat `Scenario::run` on fresh set-ups until the budget
/// is spent, timing the reference computation between repetitions. Host
/// metrics are medians over the repetitions, each scaled to the nominal
/// host.
fn untraced_mode(args: &Args, budget: Duration) -> report::RunResult {
    let (setup_s, _, _) = setup_times(args, budget / 10);
    let start = Instant::now();
    let mut checker = Checker::new();
    let mut speed = HostSpeed::default();
    // Per repetition: raw wall seconds per run, guest instructions and
    // events per run (the same in every run of a seed).
    let mut reps: Vec<(f64, u64, u64)> = vec![];
    let mut runs_per_rep = 1;
    speed.sample();
    'reps: while reps.len() < 3 || start.elapsed() < budget {
        let (specs, scenarios): (Vec<Spec>, Vec<_>) = (0..runs_per_rep)
            .map(|_| {
                let (spec, _) = workloads::build(&args.workload, args.seed, None);
                let scenario = spec.scenario();
                (spec, scenario)
            })
            .unzip();
        let t0 = Instant::now();
        let results: Vec<_> = scenarios.into_iter().map(|s| s.run()).collect();
        let run_s = t0.elapsed().as_secs_f64() / runs_per_rep as f64;
        speed.sample();
        let mut counts = (1, 1);
        for (spec, r) in specs.iter().zip(results) {
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    checker.error(format!("Scenario::run failed: {e}"));
                    break 'reps;
                }
            };
            let programs = scenario_programs(&r);
            let o = Outcome::of(&r.cluster, &programs);
            checker.observe("untraced run", spec, &r.cluster, programs);
            counts = (o.instructions.max(1), o.events.max(1));
        }
        reps.push((run_s, counts.0, counts.1));
        if reps.len() == 1 {
            runs_per_rep = (MIN_REP_S / run_s).ceil().max(1.0) as usize;
        }
    }
    let mut m = Metrics::default();
    if checker.reference.is_some() {
        let o = checker.outcome();
        let run: Vec<f64> = reps
            .iter()
            .enumerate()
            .map(|(i, r)| r.0 * speed.scale(i))
            .collect();
        let per_instr: Vec<f64> = run
            .iter()
            .zip(&reps)
            .map(|(s, r)| s * 1e9 / r.1 as f64)
            .collect();
        let per_event: Vec<f64> = run
            .iter()
            .zip(&reps)
            .map(|(s, r)| s * 1e6 / r.2 as f64)
            .collect();
        let raw: Vec<f64> = reps.iter().map(|r| r.0).collect();
        println!(
            "reps {} runs/rep {runs_per_rep} requests/run {} tail percentile p{} ({} requests beyond it)",
            reps.len(),
            o.completed,
            o.tail_pct,
            o.completed - o.tail_rank
        );
        println!(
            "failed_frac {} ({} of {} requests failed or returned a wrong result)",
            checker.failed as f64 / checker.attempted.max(1) as f64,
            checker.failed,
            checker.attempted
        );
        println!(
            "raw run_s {} (unscaled wall seconds); reference computation {} ms",
            median(&raw),
            speed.reference_median_s() * 1e3
        );
        m.put("setup_s", setup_s, "s", "lower");
        m.put("run_s", median(&run), "s", "lower");
        m.put("host_ns_per_sim_instr", median(&per_instr), "ns", "lower");
        m.put("host_us_per_event", median(&per_event), "us", "lower");
        m.put("peak_rss_mb", peak_rss_mb(), "MB", "lower");
        m.put("p50_latency_ms", o.p50_ms, "ms", "lower");
        m.put("tail_latency_ms", o.tail_ms, "ms", "lower");
        m.put("wire_kb_per_request", o.wire_kb_per_request, "KiB", "lower");
        m.put("node_s", o.node_s, "s", "lower");
    }
    report::RunResult {
        correct: checker.errors.is_empty() && checker.reference.is_some(),
        attempted: checker.attempted.max(1),
        failed: checker.failed,
        metrics: m,
    }
}

/// `--trace 1`: alternate traced and untraced runs of the same inputs,
/// assert the reports are bit-identical, and turn the traced timings into
/// per-layer metrics. Then time the interpreter bare and the wire codec
/// on the frames the traced run shipped.
fn traced_mode(args: &Args, budget: Duration) -> report::RunResult {
    let (_, preprocess_s, describe_s) = setup_times(args, budget / 10);
    let start = Instant::now();
    let mut checker = Checker::new();
    let mut speed = HostSpeed::default();
    let (mut untraced_s, mut traced_s) = (vec![], vec![]);
    let mut prof = traced::Profile::default();
    let mut frames = None;
    let mut traced_runs = 0u64;
    let runs_until = budget.mul_f64(0.7);
    while traced_runs < 2 || start.elapsed() < runs_until {
        let (spec, _) = workloads::build(&args.workload, args.seed, None);
        let scenario = spec.scenario();
        speed.sample();
        let t0 = Instant::now();
        let r = match scenario.run() {
            Ok(r) => r,
            Err(e) => {
                checker.error(format!("Scenario::run failed: {e}"));
                break;
            }
        };
        untraced_s.push(t0.elapsed().as_secs_f64());
        checker.observe("untraced run", &spec, &r.cluster, scenario_programs(&r));
        let tr = traced::run(&spec);
        traced_s.push(tr.run_s);
        checker.observe("traced run", &spec, &tr.cluster, tr.programs);
        prof.add(&tr.prof);
        traced_runs += 1;
        frames.get_or_insert((tr.state_frames, tr.object_frames));
    }
    let mut m = Metrics::default();
    let Some((state_frames, object_frames)) = frames else {
        return report::RunResult {
            correct: false,
            attempted: checker.attempted.max(1),
            failed: checker.failed,
            metrics: m,
        };
    };
    let o = checker.outcome();
    let (spec, _) = workloads::build(&args.workload, args.seed, None);
    let vm_ns = bare_vm_ns_per_instr(&spec, budget.mul_f64(0.1), &mut checker);
    let wire = wire_timings(
        &state_frames,
        &object_frames,
        budget.mul_f64(0.1),
        &mut checker,
    );
    speed.sample();
    // Host times below are scaled to the nominal host like the end-to-end
    // ones; shares, counts and virtual times are not host times.
    let k = speed.overall_scale();
    let overhead_s = (median(&traced_s) - median(&untraced_s)) * k;
    println!("traced reps {traced_runs}; tracing overhead {overhead_s:.6} s per run");
    m.put(
        "host.reference_ms",
        speed.reference_median_s() * 1e3,
        "ms",
        "lower",
    );
    m.put("host.untraced_run_s", median(&untraced_s) * k, "s", "lower");
    m.put("vm.ns_per_instr", vm_ns * k, "ns", "lower");
    let handler = prof.handler_ns();
    for (i, name) in traced::KINDS.iter().enumerate() {
        let calls = prof.calls[i];
        m.put(
            &format!("engine.{name}.calls"),
            calls as f64 / traced_runs as f64,
            "count",
            "lower",
        );
        m.put(
            &format!("engine.{name}.ns_per_call"),
            ratio(prof.ns[i] as f64, calls as f64) * k,
            "ns",
            "lower",
        );
        m.put(
            &format!("engine.{name}.share"),
            ratio(prof.ns[i] as f64, prof.loop_ns as f64),
            "fraction",
            "lower",
        );
    }
    m.put(
        "engine.run_slice.instr_per_call",
        ratio(prof.slice_instr as f64, prof.calls[0] as f64),
        "count",
        "higher",
    );
    m.put(
        "engine.run_slice.ns_per_instr",
        ratio(prof.ns[0] as f64, prof.slice_instr as f64) * k,
        "ns",
        "lower",
    );
    let self_ns = prof.loop_ns.saturating_sub(handler) as f64;
    m.put(
        "sim.events",
        prof.events as f64 / traced_runs as f64,
        "count",
        "lower",
    );
    m.put(
        "sim.self_ns_per_event",
        ratio(self_ns, prof.events as f64) * k,
        "ns",
        "lower",
    );
    m.put(
        "sim.self_share",
        ratio(self_ns, prof.loop_ns as f64),
        "fraction",
        "lower",
    );
    m.put(
        "wire.state_frames",
        state_frames.len() as f64,
        "count",
        "lower",
    );
    m.put("wire.state_kb", wire.state_kib, "KiB", "lower");
    m.put(
        "wire.encode_state_ns_per_kb",
        wire.encode_ns_per_kib * k,
        "ns/KiB",
        "lower",
    );
    m.put(
        "wire.decode_state_ns_per_kb",
        wire.decode_ns_per_kib * k,
        "ns/KiB",
        "lower",
    );
    m.put(
        "wire.object_frames",
        object_frames.len() as f64,
        "count",
        "lower",
    );
    m.put(
        "wire.decode_object_ns_per_kb",
        wire.object_ns_per_kib * k,
        "ns/KiB",
        "lower",
    );
    m.put("engine.migrations", o.migrations as f64, "count", "lower");
    m.put(
        "engine.object_faults",
        o.object_faults as f64,
        "count",
        "lower",
    );
    m.put(
        "engine.classes_shipped",
        o.classes_shipped as f64,
        "count",
        "lower",
    );
    m.put("mig.capture_us_p50", o.capture_us_p50, "us", "lower");
    m.put(
        "mig.transfer_state_us_p50",
        o.transfer_state_us_p50,
        "us",
        "lower",
    );
    m.put(
        "mig.transfer_class_us_p50",
        o.transfer_class_us_p50,
        "us",
        "lower",
    );
    m.put("mig.restore_us_p50", o.restore_us_p50, "us", "lower");
    m.put("pool.spawns", o.pool_spawns as f64, "count", "lower");
    m.put("pool.drains", o.pool_drains as f64, "count", "lower");
    m.put("pool.peak", o.pool_peak as f64, "count", "lower");
    m.put(
        "chaos.dropped_msgs",
        o.dropped_msgs as f64,
        "count",
        "lower",
    );
    m.put("chaos.timeouts", o.timeouts as f64, "count", "lower");
    m.put("chaos.retries", o.retries as f64, "count", "lower");
    m.put("ledger.lost_kb", o.lost_kib, "KiB", "lower");
    m.put("setup.preprocess_s", preprocess_s, "s", "lower");
    m.put("setup.describe_s", describe_s, "s", "lower");
    m.put("trace.overhead_s", overhead_s, "s", "lower");
    report::RunResult {
        correct: checker.errors.is_empty(),
        attempted: checker.attempted.max(1),
        failed: checker.failed,
        metrics: m,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One request's guest program run to completion on a bare interpreter
/// (no engine, no simulator): host ns per guest instruction.
fn bare_vm_ns_per_instr(spec: &Spec, budget: Duration, checker: &mut Checker) -> f64 {
    let f = &spec.fleets[0];
    let args: Vec<Value> = f.args.iter().map(|&a| Value::Int(a)).collect();
    let (mut ns, mut instr) = (0u128, 0u64);
    let start = Instant::now();
    let mut runs = 0;
    while runs < 3 || start.elapsed() < budget {
        let mut vm = Vm::new();
        for c in &spec.classes {
            vm.load_class(c).expect("benchmark classes load");
        }
        let t0 = Instant::now();
        let out = vm.run_to_completion(f.class, "main", std::hint::black_box(&args));
        ns += t0.elapsed().as_nanos();
        instr += vm.instr_count;
        runs += 1;
        if out != Ok(Some(Value::Int(f.expected))) {
            checker.error(format!("bare VM returned {out:?}, expected {}", f.expected));
            break;
        }
    }
    ns as f64 / instr.max(1) as f64
}

struct WireTimings {
    state_kib: f64,
    encode_ns_per_kib: f64,
    decode_ns_per_kib: f64,
    object_ns_per_kib: f64,
}

/// Decode and re-encode every state frame, and decode every object frame,
/// that one traced run shipped. A re-encoded state must equal its frame.
fn wire_timings(
    states: &[bytes::Bytes],
    objects: &[bytes::Bytes],
    budget: Duration,
    checker: &mut Checker,
) -> WireTimings {
    let kib = |fs: &[bytes::Bytes]| fs.iter().map(|f| f.len()).sum::<usize>() as f64 / 1024.0;
    let (state_kib, object_kib) = (kib(states), kib(objects));
    let (mut enc, mut dec, mut obj) = (0u128, 0u128, 0u128);
    let mut passes = 0u32;
    let start = Instant::now();
    while passes < 1 || start.elapsed() < budget {
        for f in states {
            let t0 = Instant::now();
            let state = wire::decode_state(f.clone());
            let t1 = Instant::now();
            let again = state.as_ref().map(wire::encode_state);
            enc += t1.elapsed().as_nanos();
            dec += (t1 - t0).as_nanos();
            match again {
                Ok(Ok(b)) if b == *f => {}
                other => {
                    checker.error(format!("state frame does not round-trip: {other:?}"));
                    return WireTimings {
                        state_kib,
                        encode_ns_per_kib: 0.0,
                        decode_ns_per_kib: 0.0,
                        object_ns_per_kib: 0.0,
                    };
                }
            }
        }
        for f in objects {
            let t0 = Instant::now();
            let o = wire::decode_object(f.clone());
            obj += t0.elapsed().as_nanos();
            if let Err(e) = o {
                checker.error(format!("object frame does not decode: {e:?}"));
            }
        }
        passes += 1;
    }
    let per = |ns: u128, kib: f64| ratio(ns as f64, kib * passes as f64);
    WireTimings {
        state_kib,
        encode_ns_per_kib: per(enc, state_kib),
        decode_ns_per_kib: per(dec, state_kib),
        object_ns_per_kib: per(obj, object_kib),
    }
}
