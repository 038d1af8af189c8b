//! Differential suite for the encode-once wire path.
//!
//! The codec (single-shot encoding, `Bytes` frames, batched object
//! delivery) must be *observationally invisible*: every byte metric,
//! latency percentile, and makespan of a deterministic fleet run has to
//! match the values the arithmetic size formulas the codec replaced
//! produced. The constants below were captured from the
//! pre-codec engine (seed 42, chaos seed 5) and pin that equivalence
//! bit-for-bit — state bytes now come from `frame.len()`, class bytes
//! from the memoized size cache, and object bytes from
//! `FrameBatch::payload_bytes()`, so any drift in the encoders or the
//! framing shows up here as a hard failure.

use sod::net::MS;
use sod::preprocess::preprocess_sod;
use sod::runtime::{FetchPolicy, NodeConfig};
use sod::scenario::{Chaos, Fleet, Plan, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, CodeShipping, ScenarioReport};

fn fleet(seed: u64, programs: usize, shipping: CodeShipping, chaos: bool) -> ScenarioReport {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    let mut sc = Scenario::new()
        .slice_ns(10_000)
        .code_shipping(shipping)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class)
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(16)])
                .programs(programs)
                .across(&["edge0", "edge1"])
                .arrivals(ArrivalSchedule::bursty(40, 20 * MS).with_jitter(MS), seed)
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)),
        );
    if chaos {
        sc = sc.chaos(Chaos::new().seed(5).loss(80));
    }
    sc.run().expect("fleet runs")
}

fn micro_class() -> sod::vm::class::ClassDef {
    use sod::asm::builder::ClassBuilder;
    use sod::vm::instr::Cmp;
    use sod::vm::value::TypeOf;
    ClassBuilder::new("Micro")
        .field("f", TypeOf::Int)
        .method("main", &["iters"], |m| {
            m.line();
            m.new_obj("Micro").store("o");
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("iters").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("o").load("i").putfield("f");
            m.line();
            m.load("o").getfield("f").store("t");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("t").retv();
        })
        .build()
        .unwrap()
}

fn object_fleet(seed: u64, programs: usize, policy: FetchPolicy, chaos: bool) -> ScenarioReport {
    let class = preprocess_sod(&micro_class()).expect("preprocess micro");
    let mut sc = Scenario::new()
        .slice_ns(2_000)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Micro", "main", vec![Value::Int(2_000)])
                .programs(programs)
                .across(&["edge0"])
                .arrivals(ArrivalSchedule::uniform(2 * MS).with_jitter(MS), seed)
                .fetch_policy(policy)
                .migrate(When::OnCpuSliceBudget(2), Plan::top_to("cloud", 1)),
        );
    if chaos {
        sc = sc.chaos(Chaos::new().seed(5).loss(80));
    }
    sc.run().expect("object fleet runs")
}

/// The full observable surface of a deterministic run, as one comparable
/// value: per-category cluster sent/lost bytes, per-program accounted
/// bytes (state from migration timings, class and object from the program
/// reports), object faults, latency percentiles, and makespan.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    sent: (u64, u64, u64),
    lost: (u64, u64, u64),
    acc_state: u64,
    acc_class: u64,
    acc_object: u64,
    faults: u64,
    p50: u64,
    p99: u64,
    makespan: u64,
}

fn observe(r: &ScenarioReport) -> Observed {
    let sent = r.cluster.total_sent();
    let lost = r.cluster.total_lost();
    Observed {
        sent: (sent.state, sent.class, sent.object),
        lost: (lost.state, lost.class, lost.object),
        acc_state: r
            .programs()
            .iter()
            .flat_map(|p| p.report.migrations.iter())
            .map(|m| m.state_bytes)
            .sum(),
        acc_class: r.programs().iter().map(|p| p.report.class_bytes).sum(),
        acc_object: r.programs().iter().map(|p| p.report.object_bytes).sum(),
        faults: r.programs().iter().map(|p| p.report.object_faults).sum(),
        p50: r.cluster.p50_latency_ns,
        p99: r.cluster.p99_latency_ns,
        makespan: r.cluster.makespan_ns,
    }
}

/// Fib fleet across every code-shipping mode, clean and lossy: all byte
/// metrics and timings pinned to the pre-codec (arithmetic accounting)
/// engine. `sent == accounted + lost` per category in every row.
#[test]
fn fib_fleet_metrics_match_precodec_engine() {
    let cases: [(&str, CodeShipping, bool, Observed); 5] = [
        (
            "clean_top",
            CodeShipping::BundleTop,
            false,
            Observed {
                sent: (2100, 1214, 0),
                lost: (0, 0, 0),
                acc_state: 2100,
                acc_class: 1214,
                acc_object: 0,
                faults: 0,
                p50: 7_549_510,
                p99: 8_454_973,
                makespan: 8_531_362,
            },
        ),
        (
            "clean_always",
            CodeShipping::BundleAlways,
            false,
            Observed {
                sent: (2100, 18210, 0),
                lost: (0, 0, 0),
                acc_state: 2100,
                acc_class: 18210,
                acc_object: 0,
                faults: 0,
                p50: 7_554_366,
                p99: 8_454_973,
                makespan: 8_531_362,
            },
        ),
        (
            "clean_reach",
            CodeShipping::BundleReachable,
            false,
            Observed {
                sent: (2100, 1214, 0),
                lost: (0, 0, 0),
                acc_state: 2100,
                acc_class: 1214,
                acc_object: 0,
                faults: 0,
                p50: 7_549_510,
                p99: 8_454_973,
                makespan: 8_531_362,
            },
        ),
        (
            "clean_never",
            CodeShipping::Never,
            false,
            Observed {
                sent: (2100, 17603, 0),
                lost: (0, 0, 0),
                acc_state: 2100,
                acc_class: 17603,
                acc_object: 0,
                faults: 0,
                p50: 8_741_641,
                p99: 9_284_233,
                makespan: 9_526_945,
            },
        ),
        (
            "lossy_top",
            CodeShipping::BundleTop,
            true,
            Observed {
                sent: (2100, 1214, 0),
                lost: (70, 0, 0),
                acc_state: 2030,
                acc_class: 1214,
                acc_object: 0,
                faults: 0,
                p50: 7_549_510,
                p99: 50_464_602,
                makespan: 51_262_046,
            },
        ),
    ];
    for (name, shipping, chaos, expected) in cases {
        let r = fleet(42, 30, shipping, chaos);
        let got = observe(&r);
        assert_eq!(got, expected, "codec drift in fib fleet case {name}");
        // Byte conservation: every shipped state byte is either accounted
        // by a restored migration or credited as lost.
        assert_eq!(
            got.sent.0,
            got.acc_state + got.lost.0,
            "state bytes unbalanced in {name}"
        );
    }
}

/// Object-heavy fleet (faults + flushes) across fetch policies, clean and
/// lossy: object-reply batches and flush batches must account exactly the
/// bytes the per-object arithmetic produced.
#[test]
fn object_fleet_metrics_match_precodec_engine() {
    let clean = Observed {
        sent: (984, 509, 775),
        lost: (0, 0, 0),
        acc_state: 984,
        acc_class: 509,
        acc_object: 775,
        faults: 12,
        p50: 10_117_978,
        p99: 10_847_026,
        makespan: 30_560_570,
    };
    let lossy = Observed {
        sent: (984, 509, 651),
        lost: (82, 0, 0),
        acc_state: 902,
        acc_class: 509,
        acc_object: 651,
        faults: 10,
        p50: 10_140_014,
        p99: 50_442_071,
        makespan: 70_864_620,
    };
    let cases: [(&str, FetchPolicy, bool, &Observed); 3] = [
        ("obj_shallow", FetchPolicy::Shallow, false, &clean),
        // This workload's closure is a single object, so deep prefetch
        // batches exactly the shallow set: byte-identical by design.
        ("obj_deep", FetchPolicy::Deep, false, &clean),
        ("obj_lossy", FetchPolicy::Shallow, true, &lossy),
    ];
    for (name, policy, chaos, expected) in cases {
        let r = object_fleet(42, 12, policy, chaos);
        let got = observe(&r);
        assert_eq!(&got, expected, "codec drift in object fleet case {name}");
    }
}

/// Same scenario, run twice in one process: nothing a first run leaves
/// behind in the process (allocator state, warmed caches) may leak into
/// observable state, so the two runs are identical.
#[test]
fn pooled_runs_are_reproducible() {
    let a = observe(&fleet(42, 10, CodeShipping::BundleTop, false));
    let b = observe(&fleet(42, 10, CodeShipping::BundleTop, false));
    assert_eq!(a, b, "a repeated run diverged");
    let oa = observe(&object_fleet(7, 6, FetchPolicy::Deep, false));
    let ob = observe(&object_fleet(7, 6, FetchPolicy::Deep, false));
    assert_eq!(oa, ob, "a repeated object run diverged");
}
