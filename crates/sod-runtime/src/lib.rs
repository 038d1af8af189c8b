//! # sod-runtime — SODEE, the Stack-On-Demand Execution Engine
//!
//! This crate is the reproduction of the paper's contribution: a
//! distributed runtime in which a stack-machine thread's execution state
//! migrates *partially* — the top segment of its call stack — between
//! nodes, with code and heap objects following on demand.
//!
//! Architecture (paper Fig. 2):
//!
//! * **class preprocessor** — `sod-preprocess` (offline; run before
//!   deploying classes to a [`node::Node`]);
//! * **migration manager** — [`engine::Cluster`]'s capture/ship/restore
//!   paths: suspension at migration-safe points, JVMTI-cost capture,
//!   breakpoint + `InvalidStateException` restoration, `ForceEarlyReturn`
//!   on segment completion;
//! * **object manager** — the object-fault protocol: null-carried home
//!   identities, fetch-by-home-id, dirty write-back flushes with temp-id
//!   assignment.
//!
//! The runtime runs inside `sod-net`'s deterministic discrete-event
//! simulator; all times are virtual nanoseconds. See `DESIGN.md` at the
//! workspace root for the substitution map (what the paper ran on real
//! hardware vs. what is simulated here, and why the shapes carry over).
//!
//! ## Migration policies
//!
//! Migrations are requested two ways: a driver-injected `MigrateNow`
//! event ([`SodSim::migrate_at`], the paper's scripted experiments), or a
//! policy [`Trigger`] armed on the program
//! ([`Cluster::arm_trigger`]/[`SodSim::arm_trigger`]) — time reached,
//! `OutOfMemoryError` raised, object-fault threshold crossed, or CPU
//! slice budget exhausted. Either way the request only *takes effect at a
//! migration-safe point*: the thread switches to stop-at-MSP execution
//! and capture happens at the next safe point, so policy-driven runs are
//! exactly as deterministic as scripted ones. The [`trigger`] module
//! documents the precise evaluation rules (slice-boundary checks, the
//! frozen-stack window, one-shot firing). Most callers should express
//! policies through the `sod` facade's `scenario` builder instead of
//! arming triggers by hand.
//!
//! ## Example: offload a computation and get it back
//!
//! ```
//! use sod_asm::builder::ClassBuilder;
//! use sod_preprocess::preprocess_sod;
//! use sod_runtime::engine::{Cluster, SodSim};
//! use sod_runtime::msg::MigrationPlan;
//! use sod_runtime::node::{Node, NodeConfig};
//! use sod_net::Topology;
//! use sod_vm::value::Value;
//!
//! let class = ClassBuilder::new("App")
//!     .method("work", &["n"], |m| {
//!         m.line();
//!         m.pushi(0).store("acc");
//!         m.pushi(0).store("i");
//!         m.line();
//!         m.label("loop");
//!         m.load("i").load("n").if_cmp(sod_vm::instr::Cmp::Ge, "done");
//!         m.line();
//!         m.load("acc").load("i").add().store("acc");
//!         m.line();
//!         m.load("i").pushi(1).add().store("i").goto("loop");
//!         m.line();
//!         m.label("done");
//!         m.load("acc").retv();
//!     })
//!     .method("main", &["n"], |m| {
//!         m.line();
//!         m.load("n").invoke("App", "work", 1).store("r");
//!         m.line();
//!         m.load("r").retv();
//!     })
//!     .build()
//!     .unwrap();
//! let class = preprocess_sod(&class).unwrap();
//!
//! let mut home = Node::new(NodeConfig::cluster("home"));
//! home.deploy(&class).unwrap();
//! let worker = Node::new(NodeConfig::cluster("worker"));
//!
//! let mut cluster = Cluster::new(vec![home, worker]);
//! let pid = cluster.add_program(0, "App", "main", vec![Value::Int(500_000)]);
//! let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
//! sim.start_program(0, pid);
//! // Push the top frame (work) to node 1 shortly after start. The
//! // policy-driven equivalent would be, e.g.:
//! //   sim.arm_trigger(pid, ArmedTrigger::new(
//! //       Trigger::OnCpuSliceBudget { slices: 20, to: 1 }));
//! sim.migrate_at(sod_net::MS, pid, MigrationPlan::top_to(1, 1));
//! sim.run();
//! let report = sim.report(pid);
//! assert_eq!(report.result, Some((0..500_000i64).sum()));
//! assert_eq!(report.migrations.len(), 1);
//! ```

pub mod costs;
pub mod engine;
pub mod fs;
pub mod metrics;
pub mod msg;
pub mod node;
pub mod trigger;

pub use engine::{
    Cluster, CodeShipping, FetchPolicy, PoolSpec, RetryPolicy, ScalePolicy, SodSim,
    DEFAULT_POOL_TICK_NS, POOL_DEST_BASE,
};
pub use metrics::{
    percentile_nearest_rank, ChaosCounters, ClusterReport, MigrationTimings, NetBytes,
    NodeUtilization, PoolReport, RunReport,
};
pub use msg::{MigrationPlan, Msg, ProgramId, SegmentSpec, SessionId};
pub use node::{Node, NodeConfig};
pub use sod_net::{ChaosAction, ChaosPlan, DropReason};
pub use trigger::{ArmedTrigger, Trigger};
