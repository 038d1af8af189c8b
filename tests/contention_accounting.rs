//! CPU-contention accounting under every protocol that changes who
//! competes for a node's CPU. With `cpu_contention(true)` a slice's
//! scheduling delay is multiplied by the node's count of threads that are
//! runnable *and* owned by live work. The engine keeps that count
//! incrementally (one `touch` per state change); debug builds — which is
//! how `cargo test` runs this suite — assert it equal to a full thread
//! scan on every slice, so each scenario below is also a check that no
//! state change misses its `touch`.
//!
//! The scenarios combine contention with what moves threads in and out of
//! the count: chaos crashes with seeded loss under both recovery
//! policies, chained segments (handler-protocol restores stacked with
//! direct restores waiting for a chained return), roaming across WAN file
//! servers, `OnOom` offload (fault, rollback, re-freeze), and elastic
//! pools draining stacks off retiring members. Every scenario runs twice
//! and the two reports must be bit-identical.

use sod::asm::builder::ClassBuilder;
use sod::net::{LinkSpec, MS};
use sod::preprocess::preprocess_sod;
use sod::runtime::{NodeConfig, RetryPolicy};
use sod::scenario::{Chaos, Fleet, Plan, Pool, Preset, Scenario, ScenarioReport, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::TypeOf;
use sod::vm::value::Value;
use sod::workloads::apps::search_class;
use sod::workloads::programs::{fib_class, handler_fleet_classes, handler_fleet_expected};
use sod::{ArrivalSchedule, ScalePolicy};

const FLEET: usize = 40;

fn fib() -> ClassDef {
    preprocess_sod(&fib_class()).expect("preprocess fib")
}

/// Run the scenario twice and require the full reports to compare `==`.
fn assert_replays(label: &str, build: impl Fn() -> Scenario) -> ScenarioReport {
    let run = || {
        build()
            .run()
            .unwrap_or_else(|e| panic!("{label}: run failed: {e}"))
    };
    let first = run();
    assert_eq!(first, run(), "{label}: replay diverges");
    first
}

/// Every program ends in a result or a typed error.
fn assert_terminated(label: &str, r: &ScenarioReport) {
    let cl = &r.cluster;
    assert_eq!(
        cl.completed + cl.failed,
        cl.launched,
        "{label}: every program must complete or fail typed"
    );
}

/// Two edges offloading Fib(14) over a two-segment chain onto two cloud
/// nodes: the top frame restores by the handler protocol on `cloud0`
/// while the frame below waits for its return on `cloud1`.
fn chain_fleet() -> Scenario {
    Scenario::new()
        .slice_ns(10_000)
        .cpu_contention(true)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&fib())
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&fib())
        .node("cloud0", NodeConfig::cloud("cloud0"))
        .node("cloud1", NodeConfig::cloud("cloud1"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(14)])
                .programs(FLEET)
                .across(&["edge0", "edge1"])
                .arrivals(ArrivalSchedule::bursty(10, 5 * MS).with_jitter(MS), 42)
                .migrate(
                    When::OnCpuSliceBudget(3),
                    Plan::chain(&[("cloud0", 1), ("cloud1", 2)]),
                ),
        )
}

/// The chain fleet under seeded loss, a partition window, and crashes of
/// a worker and an edge, recovered by `policy`. The edge crashes while
/// its burst still runs (failing runnable threads out of the count) and
/// restarts in time to serve the last burst.
fn chaos_chain_fleet(policy: RetryPolicy) -> Scenario {
    chain_fleet().chaos(
        Chaos::new()
            .seed(7)
            .loss(40)
            .partition_at(3 * MS, "edge0", "cloud1")
            .heal_at(9 * MS, "edge0", "cloud1")
            .crash_at(6 * MS, "cloud0")
            .restart_at(14 * MS, "cloud0")
            .crash_at(7 * MS, "edge1")
            .restart_at(12 * MS, "edge1")
            .retry(policy),
    )
}

#[test]
fn contention_changes_latency_in_the_chain_fleet() {
    // The suite is only meaningful if the contention count feeds the
    // schedule: the same fleet without contention must time differently.
    let on = assert_replays("chain fleet", chain_fleet);
    let off = chain_fleet().cpu_contention(false).run().expect("runs");
    assert_terminated("chain fleet", &on);
    assert_eq!(on.cluster.completed, FLEET as u64);
    assert_eq!(off.cluster.completed, FLEET as u64);
    assert!(
        on.programs()
            .iter()
            .all(|p| !p.report.migrations.is_empty()),
        "every request must migrate"
    );
    assert_ne!(
        on.cluster.p99_latency_ns, off.cluster.p99_latency_ns,
        "contention must stretch the schedule"
    );
}

#[test]
fn chaos_with_retry_keeps_the_count() {
    let r = assert_replays("chaos + retry", || {
        chaos_chain_fleet(RetryPolicy::Retry { max_attempts: 3 })
    });
    assert_terminated("chaos + retry", &r);
    assert!(r.cluster.chaos.crashes >= 2, "both crashes must fire");
    assert!(r.cluster.chaos.dropped_msgs > 0, "seeded loss must drop");
    assert!(r.cluster.chaos.retries > 0, "a deadline must re-ship");
    assert!(r.cluster.failed > 0, "the edge crash fails its programs");
}

#[test]
fn chaos_with_fallback_keeps_the_count() {
    let r = assert_replays("chaos + fallback", || {
        chaos_chain_fleet(RetryPolicy::FallbackToHome)
    });
    assert_terminated("chaos + fallback", &r);
    assert!(r.cluster.chaos.crashes >= 2, "both crashes must fire");
    assert!(r.cluster.chaos.fallbacks > 0, "a deadline must fall back");
}

/// A home crash while its programs are mid-slice: the crash fails them
/// typed, taking their still-runnable threads out of the count, and the
/// restarted node then serves later arrivals under contention.
#[test]
fn home_crash_fails_runnable_threads_out_of_the_count() {
    let r = assert_replays("home crash", || {
        Scenario::new()
            .slice_ns(10_000)
            .cpu_contention(true)
            .node("edge0", NodeConfig::cluster("edge0"))
            .deploys(&fib())
            .node("edge1", NodeConfig::cluster("edge1"))
            .deploys(&fib())
            .fleet(
                Fleet::new("Fib", "main", vec![Value::Int(17)])
                    .programs(FLEET)
                    .across(&["edge0", "edge1"])
                    .arrivals(ArrivalSchedule::uniform(60_000).with_jitter(30_000), 11),
            )
            .chaos(
                Chaos::new()
                    .crash_at(MS, "edge1")
                    .restart_at(1_300_000, "edge1"),
            )
    });
    assert_terminated("home crash", &r);
    assert!(r.cluster.failed > 0, "the crash must fail running programs");
    let late_on_edge1 = r
        .programs()
        .iter()
        .filter(|p| p.report.started_at_ns > 1_300_000 && p.report.result.is_some())
        .count();
    assert!(
        late_on_edge1 > 0,
        "programs must complete after the restart"
    );
}

/// Three one-frame segments per request, each on a different worker, so
/// every worker hosts handler restores and waiting chain links at once.
#[test]
fn three_segment_chains_keep_the_count() {
    let r = assert_replays("3-segment chains", || {
        Scenario::new()
            .slice_ns(2_000)
            .cpu_contention(true)
            .node("home0", NodeConfig::cluster("home0"))
            .deploys(&fib())
            .node("home1", NodeConfig::cluster("home1"))
            .deploys(&fib())
            .node("w0", NodeConfig::cluster("w0"))
            .node("w1", NodeConfig::cluster("w1"))
            .node("w2", NodeConfig::cluster("w2"))
            .fleet(
                Fleet::new("Fib", "main", vec![Value::Int(13)])
                    .programs(FLEET)
                    .across(&["home0", "home1"])
                    .arrivals(ArrivalSchedule::uniform(20_000).with_jitter(20_000), 5)
                    .migrate(
                        When::OnCpuSliceBudget(2),
                        Plan::chain(&[("w0", 1), ("w1", 1), ("w2", 1)]),
                    ),
            )
    });
    assert_eq!(r.cluster.completed, FLEET as u64);
    assert!(r
        .programs()
        .iter()
        .all(|p| p.report.result == Some(233) && p.report.migrations.len() == 3));
}

/// A search task hopping across WAN file servers (`sod_move` roams):
/// each hop retires the old worker thread and restores a new one.
#[test]
fn roaming_keeps_the_count() {
    let nfiles = 3usize;
    let r = assert_replays("roaming", || {
        let class = preprocess_sod(&search_class()).expect("preprocess search");
        let mut scenario = Scenario::new()
            .topology(Preset::WanGrid)
            .cpu_contention(true)
            .node("client", NodeConfig::cluster("client"))
            .deploys(&class);
        for i in 0..nfiles {
            scenario = scenario
                .node(format!("srv{i}"), NodeConfig::cluster(format!("srv{i}")))
                .file(format!("/srv/{i}/doc.txt"), 1 << 20, Some(9));
        }
        for i in 0..nfiles {
            let prefix = format!("/srv/{i}/");
            let server = format!("srv{i}");
            scenario = scenario.mount_on("client", &prefix, &server);
            for j in 0..nfiles {
                if j != i {
                    scenario = scenario.mount_on(format!("srv{j}"), &prefix, &server);
                }
            }
        }
        for _ in 0..4 {
            scenario = scenario
                .program(
                    "Search",
                    "main",
                    vec![Value::Int(nfiles as i64), Value::Int(1), Value::Int(1)],
                )
                .on("client");
        }
        scenario
    });
    assert_eq!(r.cluster.completed, 4);
    assert!(
        r.programs().iter().all(|p| p.report.migrations.len() > 1),
        "every task must roam"
    );
}

/// Exception-driven offload: each allocation overflows a small device
/// heap, the faulted thread rolls back, and `OnOom` ships the whole
/// stack to the cloud while its siblings keep allocating.
#[test]
fn on_oom_offload_keeps_the_count() {
    let r = assert_replays("OnOom offload", || {
        let class = ClassBuilder::new("Big")
            .method("alloc", &["n"], |m| {
                m.line();
                m.load("n").newarr().store("a");
                m.line();
                m.load("a").arrlen().retv();
            })
            .method("main", &["n"], |m| {
                m.line();
                m.load("n").invoke("Big", "alloc", 1).store("r");
                m.line();
                m.load("r").retv();
            })
            .build()
            .expect("valid class");
        let class = preprocess_sod(&class).expect("preprocess");
        let mut phone = NodeConfig::device("phone");
        phone.mem_limit = Some(4 << 20);
        let mut scenario = Scenario::new()
            .cpu_contention(true)
            .node("phone", phone)
            .deploys(&class)
            .node("cloud", NodeConfig::cloud("cloud"))
            .link("phone", "cloud", LinkSpec::wifi_kbps(764));
        for _ in 0..4 {
            scenario = scenario
                .program("Big", "main", vec![Value::Int(1_000_000)])
                .on("phone")
                .migrate(When::OnOom, Plan::whole_stack_to("cloud"));
        }
        scenario
    });
    assert_eq!(r.cluster.completed, 4);
    assert!(r
        .programs()
        .iter()
        .all(|p| p.report.result == Some(1_000_000)));
    assert!(
        r.programs().iter().any(|p| !p.report.migrations.is_empty()),
        "at least one allocation must be rescued by offload"
    );
}

/// An autoscaled pool under seeded loss: bursts scale it out, cool-down
/// drains members by roaming their stacks away, and retries re-ship
/// what the loss dropped.
#[test]
fn elastic_drains_under_loss_keep_the_count() {
    let r = assert_replays("elastic + loss", || {
        Scenario::new()
            .slice_ns(5_000)
            .cpu_contention(true)
            .node("edge0", NodeConfig::cluster("edge0"))
            .deploys(&fib())
            .node("edge1", NodeConfig::cluster("edge1"))
            .deploys(&fib())
            .pool(
                Pool::new("workers")
                    .base(1)
                    .max(6)
                    .scale_policy(ScalePolicy::QueueDepth { high: 2, low: 1 })
                    .cold_start(2 * MS),
            )
            .fleet(
                Fleet::new("Fib", "main", vec![Value::Int(14)])
                    .programs(FLEET)
                    .across(&["edge0", "edge1"])
                    .arrivals(ArrivalSchedule::bursty(10, 15 * MS).with_jitter(MS), 42)
                    .migrate(When::OnCpuSliceBudget(2), Plan::whole_stack_to("workers")),
            )
            .chaos(
                Chaos::new()
                    .seed(3)
                    .loss(20)
                    .retry(RetryPolicy::Retry { max_attempts: 8 }),
            )
    });
    assert_terminated("elastic + loss", &r);
    let pool = &r.cluster.pools[0];
    assert!(pool.spawns > 0, "the bursts must scale the pool out");
    assert!(pool.drains > 0, "cool-down must drain members");
    assert_eq!(pool.final_size, 1, "the pool must drain back to base");
}

/// A migrated frame that writes and reads a home object: every resume
/// after an object fault puts the worker thread back in the count.
#[test]
fn object_faults_keep_the_count() {
    let class = ClassBuilder::new("Micro")
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
        .expect("valid class");
    let class = preprocess_sod(&class).expect("preprocess");
    let r = assert_replays("object faults", || {
        Scenario::new()
            .slice_ns(2_000)
            .cpu_contention(true)
            .node("edge0", NodeConfig::cluster("edge0"))
            .deploys(&class)
            .node("cloud", NodeConfig::cloud("cloud"))
            .fleet(
                Fleet::new("Micro", "main", vec![Value::Int(2_000)])
                    .programs(12)
                    .across(&["edge0"])
                    .arrivals(ArrivalSchedule::uniform(MS / 2).with_jitter(MS / 2), 9)
                    .migrate(When::OnCpuSliceBudget(2), Plan::top_to("cloud", 1)),
            )
    });
    assert_eq!(r.cluster.completed, 12);
    assert!(r
        .programs()
        .iter()
        .all(|p| p.report.result == Some(1_999) && p.report.object_faults > 0));
}

/// Class misses on both sides: the home only stages `Kernel` and `Mix`,
/// so each root thread parks on a lazy local load, and the worker gets
/// `Kernel` bundled but fetches `Mix` on demand mid-execution.
#[test]
fn class_misses_keep_the_count() {
    let classes: Vec<ClassDef> = handler_fleet_classes()
        .iter()
        .map(|c| preprocess_sod(c).expect("preprocess"))
        .collect();
    let r = assert_replays("class misses", || {
        let mut home = Scenario::new()
            .slice_ns(5_000)
            .cpu_contention(true)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&classes[0]);
        for c in &classes[1..] {
            home = home.stages(c);
        }
        home.node("worker", NodeConfig::cluster("worker")).fleet(
            Fleet::new("Gateway", "main", vec![Value::Int(400)])
                .programs(16)
                .across(&["home"])
                .arrivals(ArrivalSchedule::uniform(50_000).with_jitter(50_000), 3)
                .migrate(When::OnCpuSliceBudget(2), Plan::top_to("worker", 1)),
        )
    });
    assert_eq!(r.cluster.completed, 16);
    let expected = handler_fleet_expected(400);
    assert!(r
        .programs()
        .iter()
        .all(|p| p.report.result == Some(expected) && !p.report.migrations.is_empty()));
    assert!(
        r.programs().iter().any(|p| p.report.classes_shipped > 0),
        "the worker must fetch `Mix` on demand"
    );
}
