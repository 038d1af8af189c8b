//! Segment completion: write-back flush, return-value routing to the next
//! workflow segment or back home, and `ForceEarlyReturn` resumption.

use sod_net::SimCtx;
use sod_vm::capture::{CapturedState, CapturedValue};
use sod_vm::tooling::jvmti;
use sod_vm::value::Value;

use crate::costs;
use crate::msg::{Msg, ProgramId, ReturnTarget, SessionId};

use super::objects::{collect_flush, export_with_temps};
use super::session::{HomeSide, WorkerPhase};
use super::{Cluster, CONTROL_MSG_BYTES, TEMP_ID_BASE};

impl Cluster {
    // ------------------------------------------------------------------
    // Segment completion: flush + return routing
    // ------------------------------------------------------------------

    pub(super) fn segment_completed(
        &mut self,
        node: usize,
        sid: SessionId,
        retval: Option<Value>,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let (program, home) = {
            let w = &self.sessions[&sid];
            (w.program, w.home)
        };
        let batch = match collect_flush(&mut self.nodes[node].vm, retval, &self.buf_pool) {
            Ok(b) => b,
            Err(e) => {
                self.fail_session(
                    sid,
                    format!("completion flush encode failed: {e}"),
                    ctx.now(),
                );
                return;
            }
        };
        let flush_bytes = batch.payload_bytes();
        let retval_cap = retval.map(|v| export_with_temps(&self.nodes[node].vm, v));
        let needs_ack = matches!(retval_cap, Some(CapturedValue::HomeRef(h)) if h >= TEMP_ID_BASE);
        let ser = costs::serialize_ns(flush_bytes.max(1));
        let cost = elapsed + self.nodes[node].cfg.scale(ser);

        self.programs[program as usize].report.object_bytes += flush_bytes;
        self.nodes[node].net_sent.object += flush_bytes;

        if needs_ack {
            self.sessions.get_mut(&sid).unwrap().phase =
                WorkerPhase::AwaitCompleteAck { retval: retval_cap };
            ctx.send_after(
                cost,
                node,
                home,
                flush_bytes + CONTROL_MSG_BYTES,
                Msg::Flush {
                    program,
                    batch,
                    ack_to: Some((node, sid)),
                },
            );
        } else {
            if !batch.is_empty() {
                ctx.send_after(
                    cost,
                    node,
                    home,
                    flush_bytes + CONTROL_MSG_BYTES,
                    Msg::Flush {
                        program,
                        batch,
                        ack_to: None,
                    },
                );
            }
            self.send_segment_return(sid, retval_cap, cost, ctx);
        }
    }

    pub(super) fn send_segment_return(
        &mut self,
        sid: SessionId,
        retval: Option<CapturedValue>,
        delay: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let Some(w) = self.sessions.get_mut(&sid) else {
            return;
        };
        w.phase = WorkerPhase::Done;
        // The segment completed: its captured frames are never read again.
        w.state = CapturedState::default();
        let (program, node, target, pop) = (w.program, w.node, w.return_to, w.home_pop_frames);
        self.touch_session(sid);
        let dest = match target {
            ReturnTarget::Home { node } => node,
            ReturnTarget::Session { node, .. } => node,
        };
        ctx.send_after(
            delay,
            node,
            dest,
            CONTROL_MSG_BYTES,
            Msg::SegmentReturn {
                program,
                session: sid,
                target,
                retval,
                pop_frames: pop,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn segment_return(
        &mut self,
        node: usize,
        program: ProgramId,
        session: SessionId,
        target: ReturnTarget,
        retval: Option<CapturedValue>,
        pop_frames: usize,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        match target {
            ReturnTarget::Home { node: home } => {
                debug_assert_eq!(node, home);
                if self.chaos_enabled {
                    let p = &self.programs[program as usize];
                    if p.done || !p.valid_sessions.contains(&session) {
                        // Stale return: the program failed (home crash) or
                        // the episode was superseded by a deadline-driven
                        // retry/fallback before this value arrived. The
                        // home stack no longer expects it — drop it.
                        return;
                    }
                }
                {
                    let p = &mut self.programs[program as usize];
                    p.side = HomeSide::Idle;
                    p.valid_sessions.clear();
                    p.shipped.clear();
                }
                let tid = self.programs[program as usize].home_tid;
                let val = retval.map(|cv| match cv {
                    CapturedValue::Int(i) => Value::Int(i),
                    CapturedValue::Num(n) => Value::Num(n),
                    CapturedValue::Null => Value::Null,
                    CapturedValue::HomeRef(h) => Value::Ref(h),
                });
                {
                    let vm = &mut self.nodes[home].vm;
                    let t = vm.thread_mut(tid).expect("home thread");
                    let keep = t.frames.len().saturating_sub(pop_frames.saturating_sub(1));
                    t.frames.truncate(keep);
                    vm.force_early_return(tid, val).expect("force early return");
                }
                self.touch(home, tid);
                let finished = self.nodes[home].vm.thread(tid).unwrap().is_finished();
                if finished {
                    let v = match &self.nodes[home].vm.thread(tid).unwrap().state {
                        sod_vm::interp::ThreadState::Finished(v) => *v,
                        _ => None,
                    };
                    self.finish_program(program, v, ctx.now());
                } else {
                    ctx.schedule(
                        self.nodes[home].cfg.scale(jvmti::FORCE_EARLY_RETURN_NS),
                        home,
                        Msg::RunSlice { tid },
                    );
                }
            }
            ReturnTarget::Session { session, .. } => {
                // A chain whose lower segment failed (typed program
                // failure: arrival rejected, or its class request came up
                // empty) has nowhere to deliver: the session was retired
                // or never created, the program already carries the
                // error, and the stranded value is dropped.
                let Some(w) = self.sessions.get_mut(&session) else {
                    return;
                };
                if !matches!(w.phase, WorkerPhase::Waiting) {
                    return;
                }
                let tid = w.tid;
                w.phase = WorkerPhase::Running;
                let val = retval.map(|cv| match cv {
                    CapturedValue::Int(i) => Value::Int(i),
                    CapturedValue::Num(n) => Value::Num(n),
                    CapturedValue::Null => Value::Null,
                    CapturedValue::HomeRef(h) => match self.nodes[node].vm.heap.find_cached(h) {
                        Some(local) => Value::Ref(local),
                        None => Value::NulledRef(h),
                    },
                });
                deliver_return(&mut self.nodes[node].vm, tid, val);
                self.touch(node, tid);
                ctx.schedule(1_000, node, Msg::RunSlice { tid });
            }
        }
    }
}

/// Deliver a return value to a thread whose top frame is parked at the
/// invoke of a remotely executed method (workflow restore-ahead).
fn deliver_return(vm: &mut sod_vm::interp::Vm, tid: usize, val: Option<Value>) {
    let t = vm.thread_mut(tid).expect("waiting thread");
    let f = t.frames.last_mut().expect("waiting frame");
    f.pc += 1;
    if let Some(v) = val {
        f.ostack.push(v);
    }
    t.state = sod_vm::interp::ThreadState::Runnable;
}
