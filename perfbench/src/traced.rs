//! The traced run: the workload's cluster wired by hand from its [`Spec`]
//! exactly as `Scenario::run` wires it, wrapped in a [`World`] that times
//! every call into the engine from outside, and driven by a plain
//! `sod_net::Sim` on the default scheduler.

use std::time::Instant;

use sod::net::{ChaosAction, ChaosPlan, DropReason, Scheduler, Sim, SimCtx, Topology, World};
use sod::runtime::trigger::{ArmedTrigger, Trigger};
use sod::runtime::{Cluster, ClusterReport, Msg, Node, PoolSpec, DEFAULT_POOL_TICK_NS};
use sod::vm::value::Value;

use crate::report::Programs;
use crate::workloads::{node_index, resolve_plan, Spec};

/// Message groups the engine handles, as the per-layer report names them.
pub const KINDS: [&str; 11] = [
    "run_slice",
    "capture",
    "state_in",
    "restore",
    "class_fetch",
    "object_fetch",
    "flush",
    "segment_return",
    "pool",
    "timeout",
    "control",
];
const RUN_SLICE: usize = 0;
const CONTROL: usize = 10;

fn kind_of(msg: &Msg) -> usize {
    match msg {
        Msg::RunSlice { .. } => RUN_SLICE,
        Msg::CaptureDone { .. } => 1,
        Msg::State { .. } => 2,
        Msg::BeginRestore { .. } => 3,
        Msg::ClassRequest { .. } | Msg::ClassReply { .. } => 4,
        Msg::ObjectRequest { .. } | Msg::ObjectReply { .. } => 5,
        Msg::Flush { .. } | Msg::FlushAck { .. } => 6,
        Msg::SegmentReturn { .. } => 7,
        Msg::PoolTick { .. } | Msg::PoolReady { .. } => 8,
        Msg::MigrationTimeout { .. } => 9,
        Msg::StartProgram { .. }
        | Msg::MigrateNow { .. }
        | Msg::HostDone { .. }
        | Msg::FsRead { .. }
        | Msg::FsData { .. }
        | Msg::ClientRequest { .. } => CONTROL,
    }
}

/// Host time and call counts per message group, summed over traced runs.
#[derive(Clone, Default)]
pub struct Profile {
    pub calls: [u64; KINDS.len()],
    pub ns: [u64; KINDS.len()],
    /// Guest instructions retired inside `run_slice` calls.
    pub slice_instr: u64,
    /// Host ns inside `Sim::run_to_idle`, handlers included.
    pub loop_ns: u64,
    /// Events the simulator popped (deliveries plus drops).
    pub events: u64,
}

impl Profile {
    pub fn add(&mut self, o: &Profile) {
        for k in 0..KINDS.len() {
            self.calls[k] += o.calls[k];
            self.ns[k] += o.ns[k];
        }
        self.slice_instr += o.slice_instr;
        self.loop_ns += o.loop_ns;
        self.events += o.events;
    }

    pub fn handler_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// The timing wrapper: forwards every hook to the cluster unchanged.
struct Timed {
    cluster: Cluster,
    prof: Profile,
    state_frames: Vec<bytes::Bytes>,
    object_frames: Vec<bytes::Bytes>,
}

impl Timed {
    fn charge(&mut self, kind: usize, t0: Instant) {
        self.prof.calls[kind] += 1;
        self.prof.ns[kind] += t0.elapsed().as_nanos() as u64;
    }
}

impl World for Timed {
    type Msg = Msg;

    fn on_message(&mut self, dst: usize, msg: Msg, ctx: &mut SimCtx<'_, Msg>) {
        let kind = kind_of(&msg);
        // Keep refcounted copies of the frames actually shipped; the wire
        // layer is timed on them after the run.
        match &msg {
            Msg::State { state, .. } => self.state_frames.push(state.clone()),
            Msg::ObjectReply { batch, .. } | Msg::Flush { batch, .. } => {
                self.object_frames.extend(batch.frames().iter().cloned())
            }
            _ => {}
        }
        let instr = if kind == RUN_SLICE {
            self.cluster.nodes[dst].vm.instr_count
        } else {
            0
        };
        let t0 = Instant::now();
        self.cluster.on_message(dst, msg, ctx);
        self.charge(kind, t0);
        if kind == RUN_SLICE {
            self.prof.slice_instr += self.cluster.nodes[dst].vm.instr_count - instr;
        }
    }

    fn on_chaos(&mut self, action: &ChaosAction, now: u64) {
        let t0 = Instant::now();
        self.cluster.on_chaos(action, now);
        self.charge(CONTROL, t0);
    }

    fn on_dropped(&mut self, src: usize, dst: usize, msg: Msg, reason: DropReason, now: u64) {
        let t0 = Instant::now();
        self.cluster.on_dropped(src, dst, msg, reason, now);
        self.charge(CONTROL, t0);
    }
}

pub struct TracedRun {
    pub cluster: ClusterReport,
    pub programs: Programs,
    pub run_s: f64,
    pub prof: Profile,
    pub state_frames: Vec<bytes::Bytes>,
    pub object_frames: Vec<bytes::Bytes>,
}

/// Wire and run `spec` under the timing wrapper. The wiring mirrors
/// `Scenario::run` step for step, so the report must come out identical.
/// (Fleet placement skips homes that chaos has crashed; no workload
/// crashes a node, so placement is plain round-robin here.)
pub fn run(spec: &Spec) -> TracedRun {
    let base = spec.pool.as_ref().map_or(0, |p| p.base);
    let topo = Topology::gigabit_cluster(spec.nodes.len() + base);
    let nodes = spec
        .nodes
        .iter()
        .map(|n| {
            let mut node = Node::new(n.cfg.clone());
            if n.deploys {
                for c in &spec.classes {
                    node.deploy(c).expect("benchmark classes deploy");
                }
            }
            node
        })
        .collect();
    let mut cluster = Cluster::new(nodes);
    cluster.slice_ns = spec.slice_ns;
    cluster.code_shipping = spec.shipping;
    cluster.cpu_contention = spec.cpu_contention;
    let mut starts = Vec::new();
    for f in &spec.fleets {
        let plan = resolve_plan(spec, &f.plan);
        let to = plan.segments[0].dest;
        let args: Vec<Value> = f.args.iter().map(|&a| Value::Int(a)).collect();
        for (i, at) in f
            .schedule
            .arrival_times(f.count, f.seed)
            .into_iter()
            .enumerate()
        {
            let home = node_index(spec, &f.across[i % f.across.len()]);
            let pid = cluster.add_program(home, f.class, "main", args.clone());
            cluster.arm_trigger(
                pid,
                ArmedTrigger::with_plan(
                    Trigger::OnCpuSliceBudget {
                        slices: f.budget,
                        to,
                    },
                    plan.clone(),
                ),
            );
            starts.push((at, home, pid));
        }
    }
    if let Some(p) = &spec.pool {
        cluster.add_pool(PoolSpec {
            name: p.name.clone(),
            template: sod::runtime::NodeConfig::cluster(&p.name),
            base: p.base,
            max: p.max,
            policy: p.policy,
            cold_start_ns: p.cold_start_ns,
            tick_ns: DEFAULT_POOL_TICK_NS,
        });
    }
    let timed = Timed {
        cluster,
        prof: Profile::default(),
        state_frames: Vec::new(),
        object_frames: Vec::new(),
    };
    let mut sim = Sim::with_scheduler(timed, topo, Scheduler::default());
    if let Some(c) = &spec.chaos {
        let plan = ChaosPlan::new().seed(c.seed).loss_permille(c.loss_permille);
        if !plan.is_empty() {
            sim.world.cluster.chaos_enabled = true;
        }
        sim.set_chaos(&plan);
        sim.world.cluster.retry_policy = c.retry;
    }
    if spec.pool.is_some() {
        sim.inject(DEFAULT_POOL_TICK_NS, 0, Msg::PoolTick { pool: 0 });
    }
    for (at, home, program) in starts {
        sim.inject(at, home, Msg::StartProgram { program });
    }
    let t0 = Instant::now();
    sim.run_to_idle(500_000_000);
    let loop_ns = t0.elapsed().as_nanos() as u64;
    let events = sim.delivered() + sim.dropped();
    let mut timed = sim.world;
    timed.prof.loop_ns = loop_ns;
    timed.prof.events = events;
    let programs = timed
        .cluster
        .programs
        .iter()
        .map(|p| (p.report.clone(), p.error.clone()))
        .collect();
    TracedRun {
        cluster: timed.cluster.cluster_report(),
        programs,
        run_s: loop_ns as f64 / 1e9,
        prof: timed.prof,
        state_frames: timed.state_frames,
        object_frames: timed.object_frames,
    }
}
