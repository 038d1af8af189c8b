//! The four benchmark workloads, each described once as a [`Spec`] that
//! both run paths use: [`Spec::scenario`] builds the `Scenario` the
//! untraced run hands to `Scenario::run`, and `traced::run` wires the very
//! same cluster by hand so it can time every delivery.

use sod::asm::builder::ClassBuilder;
use sod::net::{MS, US};
use sod::preprocess::preprocess_sod;
use sod::runtime::msg::MigrationPlan;
use sod::runtime::{NodeConfig, RetryPolicy, ScalePolicy};
use sod::scenario::{Chaos, Fleet, Plan, Pool, Scenario, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::{TypeOf, Value};
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, CodeShipping};

pub const NAMES: [&str; 4] = [
    "compute_offload",
    "roam_wide",
    "object_fetch",
    "elastic_lossy",
];

/// One declared node: name, profile, and whether the guest classes are
/// deployed on it (homes) or reach it only by migration (workers).
pub struct NodeSpec {
    pub name: String,
    pub cfg: NodeConfig,
    pub deploys: bool,
}

pub struct PoolCfg {
    pub name: String,
    pub base: usize,
    pub max: usize,
    pub policy: ScalePolicy,
    pub cold_start_ns: u64,
}

pub struct ChaosCfg {
    pub seed: u64,
    pub loss_permille: u32,
    pub retry: RetryPolicy,
}

/// A fleet of identical requests, each offloading per `plan` once it has
/// used `budget` execution slices.
pub struct FleetCfg {
    pub class: &'static str,
    pub args: Vec<i64>,
    pub count: usize,
    pub across: Vec<String>,
    pub schedule: ArrivalSchedule,
    pub seed: u64,
    pub budget: u64,
    /// `(node or pool, frames)` segments, topmost first.
    pub plan: Vec<(String, usize)>,
    /// The value every request must return, computed in Rust.
    pub expected: i64,
    /// Migration records each request must carry (segments shipped), or
    /// `None` when retries and drains make the count vary.
    pub migrations: Option<usize>,
    /// Remote object faults each request must at least take.
    pub min_faults: u64,
}

pub struct Spec {
    pub classes: Vec<ClassDef>,
    pub nodes: Vec<NodeSpec>,
    pub pool: Option<PoolCfg>,
    pub fleets: Vec<FleetCfg>,
    pub chaos: Option<ChaosCfg>,
    pub slice_ns: u64,
    pub cpu_contention: bool,
    pub shipping: CodeShipping,
}

impl Spec {
    pub fn requests(&self) -> usize {
        self.fleets.iter().map(|f| f.count).sum()
    }

    /// Each request's fleet (and so its expected outcome), in report-slot
    /// order.
    pub fn per_request(&self) -> impl Iterator<Item = &FleetCfg> {
        self.fleets
            .iter()
            .flat_map(|f| std::iter::repeat_n(f, f.count))
    }

    /// The scenario the untraced run executes.
    pub fn scenario(&self) -> Scenario {
        let mut sc = Scenario::new()
            .slice_ns(self.slice_ns)
            .code_shipping(self.shipping)
            .cpu_contention(self.cpu_contention);
        for n in &self.nodes {
            sc = sc.node(n.name.clone(), n.cfg.clone());
            if n.deploys {
                for c in &self.classes {
                    sc = sc.deploys(c);
                }
            }
        }
        if let Some(p) = &self.pool {
            sc = sc.pool(
                Pool::new(p.name.clone())
                    .base(p.base)
                    .max(p.max)
                    .scale_policy(p.policy)
                    .cold_start(p.cold_start_ns),
            );
        }
        for f in &self.fleets {
            let across: Vec<&str> = f.across.iter().map(String::as_str).collect();
            let plan: Vec<(&str, usize)> = f.plan.iter().map(|(n, k)| (n.as_str(), *k)).collect();
            sc = sc.fleet(
                Fleet::new(
                    f.class,
                    "main",
                    f.args.iter().map(|&a| Value::Int(a)).collect(),
                )
                .programs(f.count)
                .across(&across)
                .arrivals(f.schedule, f.seed)
                .migrate(When::OnCpuSliceBudget(f.budget), Plan::chain(&plan)),
            );
        }
        if let Some(c) = &self.chaos {
            sc = sc.chaos(
                Chaos::new()
                    .seed(c.seed)
                    .loss(c.loss_permille)
                    .retry(c.retry),
            );
        }
        sc
    }
}

/// Resolve a named plan against the node table: declared nodes by index,
/// the pool by the engine's pool-destination sentinel.
pub fn resolve_plan(spec: &Spec, plan: &[(String, usize)]) -> MigrationPlan {
    let segs: Vec<(usize, usize)> = plan
        .iter()
        .map(|(name, frames)| (node_index(spec, name), *frames))
        .collect();
    MigrationPlan::chain(&segs)
}

pub fn node_index(spec: &Spec, name: &str) -> usize {
    if spec.pool.as_ref().is_some_and(|p| p.name == name) {
        return sod::runtime::POOL_DEST_BASE;
    }
    spec.nodes
        .iter()
        .position(|n| n.name == name)
        .unwrap_or_else(|| panic!("workload names undeclared node {name:?}"))
}

/// Build the named workload's spec for `seed`; also returns the host
/// seconds spent building and preprocessing the guest classes. `shipping`
/// overrides the code-shipping policy (the known-failure probe runs
/// `object_fetch` under the engine default).
pub fn build(name: &str, seed: u64, shipping: Option<CodeShipping>) -> (Spec, f64) {
    let t0 = std::time::Instant::now();
    let classes: Vec<ClassDef> = match name {
        "compute_offload" | "elastic_lossy" => vec![fib_class()],
        "roam_wide" => vec![deep_class()],
        "object_fetch" => vec![cell_class(), walk_class()],
        other => panic!("unknown workload {other:?}"),
    }
    .iter()
    .map(|c| preprocess_sod(c).expect("benchmark classes preprocess"))
    .collect();
    let preprocess_s = t0.elapsed().as_secs_f64();
    let mut spec = match name {
        "compute_offload" => compute_offload(classes, seed),
        "roam_wide" => roam_wide(classes, seed),
        "object_fetch" => object_fetch(classes, seed),
        _ => elastic_lossy(classes, seed),
    };
    if let Some(s) = shipping {
        spec.shipping = s;
    }
    (spec, preprocess_s)
}

/// Arrival seeds differ per fleet but follow from the workload seed.
fn fleet_seed(seed: u64, fleet: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(fleet as u64 + 1)
}

fn node(name: &str, cfg: NodeConfig, deploys: bool) -> NodeSpec {
    NodeSpec {
        name: name.to_owned(),
        cfg,
        deploys,
    }
}

// -- compute_offload -----------------------------------------------------

const OFFLOAD_REQUESTS: usize = 1000;
const OFFLOAD_FIB: i64 = 15;

/// Two edges offload the top frame of each Fib request to a cloud node:
/// interpreter-bound, with a few live threads per node.
fn compute_offload(classes: Vec<ClassDef>, seed: u64) -> Spec {
    Spec {
        classes,
        nodes: vec![
            node("edge0", NodeConfig::cluster("edge0"), true),
            node("edge1", NodeConfig::cluster("edge1"), true),
            node("cloud", NodeConfig::cloud("cloud"), false),
        ],
        pool: None,
        fleets: vec![FleetCfg {
            class: "Fib",
            args: vec![OFFLOAD_FIB],
            count: OFFLOAD_REQUESTS,
            across: vec!["edge0".into(), "edge1".into()],
            schedule: ArrivalSchedule::uniform(30 * US).with_jitter(30 * US),
            seed: fleet_seed(seed, 0),
            budget: 3,
            plan: vec![("cloud".into(), 1)],
            expected: fib(OFFLOAD_FIB),
            migrations: Some(1),
            min_faults: 0,
        }],
        chaos: None,
        slice_ns: 10_000,
        cpu_contention: true,
        shipping: CodeShipping::default(),
    }
}

// -- roam_wide -------------------------------------------------------------

const ROAM_HOMES: usize = 4;
const ROAM_WORKERS: usize = 12;
const ROAM_PER_FLEET: usize = 100;
const ROAM_DEPTH: i64 = 6;
const ROAM_WORK: i64 = 600;
const ROAM_SEGMENTS: usize = 3;

/// Sixteen nodes, a quarter of them homes. Each request recurses a few
/// frames deep, then ships a three-segment chain across the workers; the
/// segments return to each other, and the last one returns home.
fn roam_wide(classes: Vec<ClassDef>, seed: u64) -> Spec {
    let mut nodes = Vec::new();
    for h in 0..ROAM_HOMES {
        let n = format!("home{h}");
        nodes.push(node(&n, NodeConfig::cluster(&n), true));
    }
    for w in 0..ROAM_WORKERS {
        let n = format!("worker{w}");
        nodes.push(node(&n, NodeConfig::cluster(&n), false));
    }
    let fleets = (0..ROAM_WORKERS)
        .map(|k| FleetCfg {
            class: "Deep",
            args: vec![ROAM_DEPTH, ROAM_WORK],
            count: ROAM_PER_FLEET,
            across: vec![format!("home{}", k % ROAM_HOMES)],
            schedule: ArrivalSchedule::uniform(60 * US).with_jitter(50 * US),
            seed: fleet_seed(seed, k),
            // Two 1 µs slices land inside `work`, with the whole recursion
            // on the stack, so each of the three segments holds a frame.
            budget: 2,
            plan: (0..ROAM_SEGMENTS)
                .map(|s| (format!("worker{}", (k + 5 * s) % ROAM_WORKERS), 1))
                .collect(),
            expected: deep(ROAM_DEPTH, ROAM_WORK),
            migrations: Some(ROAM_SEGMENTS),
            min_faults: 0,
        })
        .collect();
    Spec {
        classes,
        nodes,
        pool: None,
        fleets,
        chaos: None,
        slice_ns: 1_000,
        cpu_contention: true,
        shipping: CodeShipping::default(),
    }
}

// -- object_fetch ------------------------------------------------------------

const FETCH_HOMES: usize = 4;
const FETCH_REQUESTS: usize = 256;
const FETCH_CELLS: i64 = 24;
const FETCH_SPIN: i64 = 1000;

/// Four homes and four workers. Each request builds a list at home, then
/// a migrated frame walks it remotely — one fault per cell under the
/// default shallow fetch policy — and writes every cell back; home
/// re-reads the list after the write-back.
///
/// Runs under `BundleReachable` because every other shipping policy hits
/// the engine's `ClassNotFound("Cell")` panic (see `known_failures`).
fn object_fetch(classes: Vec<ClassDef>, seed: u64) -> Spec {
    let mut nodes = Vec::new();
    for h in 0..FETCH_HOMES {
        let n = format!("home{h}");
        nodes.push(node(&n, NodeConfig::cluster(&n), true));
    }
    for w in 0..FETCH_HOMES {
        let n = format!("worker{w}");
        nodes.push(node(&n, NodeConfig::cluster(&n), false));
    }
    let per = FETCH_REQUESTS / FETCH_HOMES;
    let fleets = (0..FETCH_HOMES)
        .map(|k| FleetCfg {
            class: "Walk",
            args: vec![FETCH_CELLS, FETCH_SPIN],
            count: per,
            across: vec![format!("home{k}")],
            schedule: ArrivalSchedule::uniform(200 * US).with_jitter(150 * US),
            seed: fleet_seed(seed, k),
            // Five 1 µs slices land in `visit`'s spin, after `build` has
            // returned, so the walking frame is the one that migrates.
            budget: 5,
            plan: vec![(format!("worker{k}"), 1)],
            expected: walk(FETCH_CELLS),
            migrations: Some(1),
            min_faults: FETCH_CELLS as u64,
        })
        .collect();
    Spec {
        classes,
        nodes,
        pool: None,
        fleets,
        chaos: None,
        slice_ns: 1_000,
        cpu_contention: false,
        shipping: CodeShipping::BundleReachable,
    }
}

// -- elastic_lossy -------------------------------------------------------------

const ELASTIC_REQUESTS: usize = 1000;
/// Request sizes: one fleet per Fib argument, arrivals interleaved.
const ELASTIC_FIB: [i64; 4] = [13, 14, 15, 16];

/// Two edges offload whole Fib stacks to an autoscaled pool with cold
/// starts, over lossy links with retry.
fn elastic_lossy(classes: Vec<ClassDef>, seed: u64) -> Spec {
    Spec {
        classes,
        nodes: vec![
            node("edge0", NodeConfig::cluster("edge0"), true),
            node("edge1", NodeConfig::cluster("edge1"), true),
        ],
        pool: Some(PoolCfg {
            name: "workers".into(),
            base: 1,
            max: 8,
            policy: ScalePolicy::QueueDepth { high: 2, low: 1 },
            cold_start_ns: 2 * MS,
        }),
        fleets: ELASTIC_FIB
            .iter()
            .enumerate()
            .map(|(k, &n)| FleetCfg {
                class: "Fib",
                args: vec![n],
                count: ELASTIC_REQUESTS / ELASTIC_FIB.len(),
                across: vec!["edge0".into(), "edge1".into()],
                schedule: ArrivalSchedule::bursty(5, 15 * MS).with_jitter(MS),
                seed: fleet_seed(seed, k),
                budget: 2,
                plan: vec![
                    ("workers".into(), 1),
                    ("workers".into(), MigrationPlan::WHOLE_STACK_FRAMES),
                ],
                expected: fib(n),
                migrations: None,
                min_faults: 0,
            })
            .collect(),
        chaos: Some(ChaosCfg {
            seed,
            loss_permille: 20,
            retry: RetryPolicy::Retry { max_attempts: 8 },
        }),
        slice_ns: 5_000,
        cpu_contention: true,
        shipping: CodeShipping::default(),
    }
}

// -- guest programs and their Rust reference values ----------------------------

pub fn fib(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// `Deep.main(d, n)`: `d` nested `down` frames over a `work(n)` loop;
/// each `down` frame adds its depth to the result.
pub fn deep(d: i64, n: i64) -> i64 {
    n * (n - 1) / 2 + d * (d + 1) / 2
}

/// `Walk.main(n, spin)`: the remote walk sums the cells and increments
/// each one; home then sums the written-back list.
pub fn walk(n: i64) -> i64 {
    let s = n * (n - 1) / 2;
    s + (s + n)
}

fn deep_class() -> ClassDef {
    ClassBuilder::new("Deep")
        .method("work", &["n"], |m| {
            m.line();
            m.pushi(0).store("acc");
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("acc").load("i").add().store("acc");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("acc").retv();
        })
        .method("down", &["d", "n"], |m| {
            m.line();
            m.load("d").pushi(0).if_cmp(Cmp::Gt, "rec");
            m.line();
            m.load("n").invoke("Deep", "work", 1).store("r");
            m.line();
            m.load("r").retv();
            m.line();
            m.label("rec");
            m.load("d")
                .pushi(1)
                .sub()
                .load("n")
                .invoke("Deep", "down", 2)
                .store("r");
            m.line();
            m.load("r").load("d").add().retv();
        })
        .method("main", &["d", "n"], |m| {
            m.line();
            m.load("d").load("n").invoke("Deep", "down", 2).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .expect("Deep verifies")
}

fn cell_class() -> ClassDef {
    ClassBuilder::new("Cell")
        .field("val", TypeOf::Int)
        .field("next", TypeOf::Ref)
        .build()
        .expect("Cell verifies")
}

fn walk_class() -> ClassDef {
    ClassBuilder::new("Walk")
        .method("build", &["n"], |m| {
            m.line();
            m.pushnull().store("head");
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.new_obj("Cell").store("c");
            m.line();
            m.load("c").load("i").putfield("val");
            m.line();
            m.load("c").load("head").putfield("next");
            m.line();
            m.load("c").store("head");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("head").retv();
        })
        .method("visit", &["head", "spin"], |m| {
            // Spin first so the slice budget fires inside this frame.
            m.line();
            m.pushi(0).store("j");
            m.line();
            m.label("spin");
            m.load("j").load("spin").if_cmp(Cmp::Ge, "walk");
            m.line();
            m.load("j").pushi(1).add().store("j").goto("spin");
            m.line();
            m.label("walk");
            m.pushi(0).store("acc");
            m.line();
            m.label("loop");
            m.load("head").ifnull("done");
            m.line();
            m.load("acc")
                .load("head")
                .getfield("val")
                .add()
                .store("acc");
            m.line();
            m.load("head")
                .load("head")
                .getfield("val")
                .pushi(1)
                .add()
                .putfield("val");
            m.line();
            m.load("head").getfield("next").store("head");
            m.goto("loop");
            m.line();
            m.label("done");
            m.load("acc").retv();
        })
        .method("sum", &["head"], |m| {
            m.line();
            m.pushi(0).store("acc");
            m.line();
            m.label("loop");
            m.load("head").ifnull("done");
            m.line();
            m.load("acc")
                .load("head")
                .getfield("val")
                .add()
                .store("acc");
            m.line();
            m.load("head").getfield("next").store("head");
            m.goto("loop");
            m.line();
            m.label("done");
            m.load("acc").retv();
        })
        .method("main", &["n", "spin"], |m| {
            m.line();
            m.load("n").invoke("Walk", "build", 1).store("h");
            m.line();
            m.load("h")
                .load("spin")
                .invoke("Walk", "visit", 2)
                .store("s");
            m.line();
            m.load("h").invoke("Walk", "sum", 1).store("t");
            m.line();
            m.load("s").load("t").add().store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .expect("Walk verifies")
}
