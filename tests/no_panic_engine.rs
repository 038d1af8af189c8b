//! Guest runs that once panicked `Scenario::run` now finish with a result
//! or a typed program failure.
//!
//! * A worker touching a fetched object whose class never shipped parks
//!   on a class miss, fetches the class on demand and resumes, under
//!   every code-shipping policy that does not bundle the object's class
//!   with the state.
//! * A guest whose `Vm::run` returns a `VmError` fails alone, with that
//!   error; the rest of the fleet completes and the byte ledger closes.

use sod::asm::builder::ClassBuilder;
use sod::net::{MS, US};
use sod::preprocess::preprocess_sod;
use sod::runtime::{NetBytes, NodeConfig};
use sod::scenario::{Fleet, Plan, Scenario, ScenarioReport, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::{TypeOf, Value};
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, CodeShipping};

const CELLS: i64 = 8;
const SPIN: i64 = 1000;
const WALKS: usize = 6;

fn cell_class() -> ClassDef {
    ClassBuilder::new("Cell")
        .field("val", TypeOf::Int)
        .field("next", TypeOf::Ref)
        .build()
        .expect("Cell verifies")
}

/// `main(n, spin)` builds an `n`-cell list at home, then spins (the slice
/// budget fires here and the frame migrates), then walks the now-remote
/// list, incrementing each cell and summing the new values. Cells hold
/// `0..n`, so the result is `n * (n + 1) / 2`.
fn walk_class() -> ClassDef {
    ClassBuilder::new("Walk")
        .method("main", &["n", "spin"], |m| {
            m.line();
            m.pushnull().store("head");
            m.pushi(0).store("i");
            m.line();
            m.label("build");
            m.load("i").load("n").if_cmp(Cmp::Ge, "spin");
            m.line();
            m.new_obj("Cell").store("c");
            m.line();
            m.load("c").load("i").putfield("val");
            m.line();
            m.load("c").load("head").putfield("next");
            m.line();
            m.load("c").store("head");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("build");
            m.line();
            m.label("spin");
            m.load("spin").pushi(1).sub().store("spin");
            m.line();
            m.load("spin").ifz(Cmp::Gt, "spin");
            m.line();
            m.pushi(0).store("acc");
            m.line();
            m.label("walk");
            m.load("head").ifnull("done");
            m.line();
            m.load("head")
                .load("head")
                .getfield("val")
                .pushi(1)
                .add()
                .putfield("val");
            m.line();
            m.load("acc")
                .load("head")
                .getfield("val")
                .add()
                .store("acc");
            m.line();
            m.load("head").getfield("next").store("head");
            m.goto("walk");
            m.line();
            m.label("done");
            m.load("acc").retv();
        })
        .build()
        .expect("Walk verifies")
}

/// `main(spin)` spins, then adds an integer to `null`: the interpreter
/// rejects the operands with `VmError::TypeMismatch`, an engine-level
/// error rather than a guest exception.
fn faulty_class() -> ClassDef {
    ClassBuilder::new("Faulty")
        .method("main", &["spin"], |m| {
            m.line();
            m.pushi(0).store("j");
            m.line();
            m.label("spin");
            m.load("j").load("spin").if_cmp(Cmp::Ge, "bad");
            m.line();
            m.load("j").pushi(1).add().store("j").goto("spin");
            m.line();
            m.label("bad");
            m.pushnull().store("x");
            m.line();
            m.pushi(1).load("x").add().retv();
        })
        .build_unverified()
}

/// `sent = accounted + lost`, per byte category.
fn assert_ledger_closes(label: &str, r: &ScenarioReport) {
    let state: u64 = r
        .programs()
        .iter()
        .flat_map(|p| p.report.migrations.iter())
        .map(|m| m.state_bytes)
        .sum();
    let class: u64 = r.programs().iter().map(|p| p.report.class_bytes).sum();
    let object: u64 = r.programs().iter().map(|p| p.report.object_bytes).sum();
    let lost = r.cluster.total_lost();
    assert_eq!(
        r.cluster.total_sent(),
        NetBytes {
            state: state + lost.state,
            class: class + lost.class,
            object: object + lost.object,
        },
        "{label}: byte ledger"
    );
}

#[test]
fn fetched_objects_of_unshipped_classes_fetch_their_class_on_demand() {
    let classes = [
        preprocess_sod(&cell_class()).expect("preprocess Cell"),
        preprocess_sod(&walk_class()).expect("preprocess Walk"),
    ];
    for shipping in [
        CodeShipping::BundleTop,
        CodeShipping::Never,
        CodeShipping::BundleAlways,
    ] {
        let mut sc = Scenario::new()
            .slice_ns(1_000)
            .code_shipping(shipping)
            .node("home", NodeConfig::cluster("home"));
        for c in &classes {
            sc = sc.deploys(c);
        }
        let r = sc
            .node("worker", NodeConfig::cluster("worker"))
            .fleet(
                Fleet::new("Walk", "main", vec![Value::Int(CELLS), Value::Int(SPIN)])
                    .programs(WALKS)
                    .across(&["home"])
                    .arrivals(ArrivalSchedule::uniform(200 * US), 1)
                    .migrate(When::OnCpuSliceBudget(5), Plan::top_to("worker", 1)),
            )
            .run()
            .unwrap_or_else(|e| panic!("{shipping:?}: {e}"));
        assert_eq!(r.programs().len(), WALKS);
        for p in r.programs() {
            assert_eq!(p.error, None, "{shipping:?}");
            assert_eq!(
                p.report.result,
                Some(CELLS * (CELLS + 1) / 2),
                "{shipping:?}"
            );
            assert_eq!(p.report.migrations.len(), 1, "{shipping:?}");
            assert!(p.report.object_faults >= CELLS as u64, "{shipping:?}");
        }
        let on_demand: u64 = r.programs().iter().map(|p| p.report.classes_shipped).sum();
        assert!(on_demand >= 1, "{shipping:?}: `Cell` must ship on demand");
        assert_ledger_closes(&format!("{shipping:?}"), &r);
    }
}

/// Fib requests plus one `Faulty` request sharing the same nodes; with
/// `offload`, every request's top frame migrates to `cloud` first, so
/// `Faulty` fails on a worker session instead of its home thread.
fn mixed_fleet(offload: bool) -> ScenarioReport {
    let fib = preprocess_sod(&fib_class()).expect("preprocess fib");
    let faulty = preprocess_sod(&faulty_class()).expect("preprocess Faulty");
    let with_plan = |f: Fleet| {
        if offload {
            f.migrate(When::OnCpuSliceBudget(2), Plan::top_to("cloud", 1))
        } else {
            f
        }
    };
    Scenario::new()
        .slice_ns(10_000)
        .node("edge", NodeConfig::cluster("edge"))
        .deploys(&fib)
        .deploys(&faulty)
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(with_plan(
            Fleet::new("Fib", "main", vec![Value::Int(12)])
                .programs(8)
                .across(&["edge"])
                .arrivals(ArrivalSchedule::uniform(MS), 3),
        ))
        .fleet(with_plan(
            Fleet::new("Faulty", "main", vec![Value::Int(2_000)])
                .programs(1)
                .across(&["edge"])
                .arrivals(ArrivalSchedule::uniform(MS), 4),
        ))
        .run()
        .expect("fleet members record failures instead of aborting the run")
}

#[test]
fn a_vm_error_fails_one_guest_not_the_fleet() {
    for offload in [false, true] {
        let r = mixed_fleet(offload);
        let (bad, good): (Vec<_>, Vec<_>) = r
            .programs()
            .iter()
            .partition(|p| p.name.starts_with("Faulty"));
        assert_eq!(bad.len(), 1);
        let error = bad[0].error.as_deref().expect("Faulty must fail");
        assert!(
            error.contains("vm run failed") && error.contains("type mismatch"),
            "offload={offload}: got {error:?}"
        );
        assert_eq!(good.len(), 8);
        for p in &good {
            assert_eq!(p.error, None, "offload={offload}");
            assert_eq!(p.report.result, Some(144), "offload={offload}");
        }
        if offload {
            assert_eq!(bad[0].report.migrations.len(), 1, "failed on the worker");
        }
        assert_eq!(r.cluster.failed, 1);
        assert_eq!(r.cluster.completed, 8);
        assert_ledger_closes(&format!("offload={offload}"), &r);
    }
}
