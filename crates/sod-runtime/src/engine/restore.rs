//! The migration protocol, destination side: segment arrival, bundled and
//! on-demand class loading, and both frame re-establishment protocols —
//! the breakpoint + `InvalidStateException` handler path (JVMTI nodes) and
//! the exact direct restore (workflow restore-ahead, no-JVMTI devices).

use std::collections::HashSet;
use std::sync::Arc;

use bytes::Bytes;
use sod_net::SimCtx;
use sod_vm::capture::{begin_handler_restore, restore_segment_direct};
use sod_vm::class::{ClassDef, ExKind};
use sod_vm::tooling::jvmti;
use sod_vm::wire::decode_state;

use crate::costs;
use crate::metrics::MigrationTimings;
use crate::msg::{Msg, SegmentInfo, SessionId};

use super::migrate::split_transfer_window;
use super::session::{Owner, WorkerPhase, WorkerSession};
use super::{Cluster, CONTROL_MSG_BYTES};

impl Cluster {
    // ------------------------------------------------------------------
    // Segment arrival & restore
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(super) fn state_arrived(
        &mut self,
        node: usize,
        info: SegmentInfo,
        state: Bytes,
        bundled: Vec<Arc<ClassDef>>,
        class_bytes: u64,
        capture_ns: u64,
        sent_at: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let arrived = ctx.now();
        // The state arrives as its wire frame, encoded once at capture:
        // the frame length is the state byte metric.
        let state_bytes = state.len() as u64;
        if self.chaos_enabled {
            let p = &self.programs[info.program as usize];
            if p.done || !p.valid_sessions.contains(&info.session) {
                // Superseded in flight (the home already failed, retried,
                // or fell back): this state will never restore. Credit it
                // where it landed so conservation closes.
                self.nodes[node].net_lost.state += state_bytes;
                return;
            }
        }
        let state = match decode_state(state.clone()) {
            Ok(decoded) => {
                // The frame's sole owner now: hand the buffer back to the
                // pool for the next capture.
                self.buf_pool.recycle(state);
                decoded
            }
            Err(e) => {
                // Malformed frame: typed rejection, never a panic. The
                // shipped bytes die here, like a stale arrival.
                self.fail_program(info.program, format!("state decode failed: {e}"), arrived);
                self.nodes[node].net_lost.state += state_bytes;
                return;
            }
        };
        let window = arrived.saturating_sub(sent_at);
        let (transfer_state_ns, transfer_class_ns) =
            split_transfer_window(window, state_bytes, class_bytes);
        let timings = MigrationTimings {
            capture_ns,
            transfer_state_ns,
            transfer_class_ns,
            restore_ns: 0,
            state_bytes,
            class_bytes,
        };

        // Bundled classes load immediately (charged into the prep time).
        // Each load links a fresh pre-resolved operand form (empty inline
        // caches, fusion tables) on the destination: migrated stacks always
        // start cold and rewarm by executing — cache state is deliberately
        // never part of the wire image.
        let mut prep = self.nodes[node]
            .cfg
            .scale(costs::deserialize_ns(state_bytes));
        for c in &bundled {
            if !self.nodes[node].vm.has_class(&c.name) {
                let cb = self.class_size(c);
                prep += self.nodes[node].cfg.scale(costs::class_load_ns(cb));
                if let Err(e) = self.nodes[node].vm.load_class(c) {
                    self.fail_program(
                        info.program,
                        format!("bundled class {:?} failed to load: {e:?}", c.name),
                        arrived,
                    );
                    // No session was created: the shipped state dies here.
                    self.nodes[node].net_lost.state += state_bytes;
                    return;
                }
            }
            self.nodes[node].repo.insert(c.name.clone(), c.clone());
        }

        // Remaining classes referenced by the segment ship on demand.
        let mut missing: HashSet<String> = HashSet::new();
        for f in &state.frames {
            if !self.nodes[node].vm.has_class(&f.class) {
                missing.insert(f.class.clone());
            }
        }
        for s in &state.statics {
            if !self.nodes[node].vm.has_class(&s.class) {
                missing.insert(s.class.clone());
            }
        }

        let sid = info.session;
        let session = WorkerSession {
            program: info.program,
            node,
            home: info.home,
            tid: usize::MAX,
            return_to: info.return_to,
            nframes: info.nframes,
            home_pop_frames: info.home_pop_frames,
            wait_for_return: info.wait_for_return,
            state,
            phase: WorkerPhase::AwaitClasses {
                missing: missing.clone(),
            },
            timings,
            arrived_at: arrived,
            class_wait_ns: 0,
            pending_roam: None,
            recorded: false,
        };
        self.sessions.insert(sid, session);
        // The shipped stack arrived: it is no longer in flight toward this
        // node (saturating — restores can land here via paths that never
        // counted, e.g. an explicit plan naming a member directly).
        self.nodes[node].inbound_sessions = self.nodes[node].inbound_sessions.saturating_sub(1);

        if missing.is_empty() {
            ctx.schedule(prep, node, Msg::BeginRestore { session: sid });
        } else {
            let home = info.home;
            // Request in sorted order: `HashSet` iteration order varies
            // between set instances, and request order decides event
            // sequence numbers — the determinism the fleet suite pins.
            let mut missing: Vec<String> = missing.into_iter().collect();
            missing.sort_unstable();
            for name in missing {
                self.programs[info.program as usize].report.classes_shipped += 1;
                ctx.send_after(
                    prep,
                    node,
                    home,
                    CONTROL_MSG_BYTES,
                    Msg::ClassRequest {
                        session: sid,
                        requester: node,
                        name,
                        program: info.program,
                    },
                );
            }
        }
    }

    /// A requested class file arrived: load it, publish it in the local
    /// repository, and either count down the restore wait or resume the
    /// running thread that missed it.
    pub(super) fn class_reply(
        &mut self,
        dst: usize,
        session: SessionId,
        class: Arc<ClassDef>,
        bytes: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let load = self.nodes[dst].cfg.scale(costs::class_load_ns(bytes));
        if !self.nodes[dst].vm.has_class(&class.name) {
            if let Err(e) = self.nodes[dst].vm.load_class(&class) {
                self.fail_session(
                    session,
                    format!("class {:?} failed to load: {e:?}", class.name),
                    ctx.now(),
                );
                return;
            }
        }
        self.nodes[dst]
            .repo
            .insert(class.name.clone(), class.clone());
        let Some(w) = self.sessions.get_mut(&session) else {
            return; // session already retired (e.g. its program failed)
        };
        if matches!(w.phase, WorkerPhase::Done) {
            return; // stale reply for a failed/finished session
        }
        match &mut w.phase {
            WorkerPhase::AwaitClasses { missing } => {
                missing.remove(&class.name);
                if missing.is_empty() {
                    let wait = ctx.now().saturating_sub(w.arrived_at);
                    w.timings.transfer_class_ns += wait;
                    w.class_wait_ns += wait;
                    ctx.schedule(load, dst, Msg::BeginRestore { session });
                }
            }
            _ => {
                // On-demand class during execution.
                let tid = w.tid;
                if let Err(e) = self.nodes[dst].vm.resume_class_loaded(tid) {
                    self.fail_session(
                        session,
                        format!("class-load resume failed: {e:?}"),
                        ctx.now(),
                    );
                    return;
                }
                self.touch(dst, tid);
                ctx.schedule(load, dst, Msg::RunSlice { tid });
            }
        }
    }

    pub(super) fn begin_restore(&mut self, sid: SessionId, ctx: &mut SimCtx<'_, Msg>) {
        let (node, wait, nframes, has_jvmti) = {
            let Some(w) = self.sessions.get(&sid) else {
                return; // retired before restore began (program failed)
            };
            (
                w.node,
                w.wait_for_return,
                w.nframes,
                self.nodes[w.node].cfg.has_jvmti,
            )
        };
        if matches!(self.sessions[&sid].phase, WorkerPhase::Done) {
            return;
        }
        let use_handlers = has_jvmti && !wait;
        if use_handlers {
            // The paper's portable protocol: JNI-invoke the bottom method,
            // arm a breakpoint, and let InvalidStateException handlers
            // rebuild the frames (costs accrue through interpreted-mode
            // execution plus per-frame tooling charges).
            // Disjoint field borrows: the captured state stays in the
            // session map, never cloned per restore.
            let tid = begin_handler_restore(&mut self.nodes[node].vm, &self.sessions[&sid].state)
                .expect("handler restore begins");
            self.nodes[node].vm.threads[tid].interp_mode = true;
            self.thread_owner.insert((node, tid), Owner::Worker(sid));
            let w = self.sessions.get_mut(&sid).unwrap();
            w.tid = tid;
            w.phase = WorkerPhase::Restoring { restored: 0 };
            self.touch(node, tid);
            let fixed = self.nodes[node]
                .cfg
                .scale(costs::RESTORE_FIXED_NS + jvmti::JNI_INVOKE_NS);
            ctx.schedule(fixed, node, Msg::RunSlice { tid });
        } else {
            // Exact direct restore: restore-ahead workflow segments (must
            // not re-execute invokes) and no-JVMTI devices (Java-level
            // reflective restore).
            let tid = restore_segment_direct(&mut self.nodes[node].vm, &self.sessions[&sid].state)
                .expect("direct restore");
            self.thread_owner.insert((node, tid), Owner::Worker(sid));
            let base = if has_jvmti {
                costs::RESTORE_FIXED_NS + nframes as u64 * costs::RESTORE_PER_FRAME_NS
            } else {
                costs::PORTABLE_RESTORE_FIXED_NS
                    + nframes as u64 * costs::RESTORE_PER_FRAME_NS
                    + costs::deserialize_ns(self.sessions[&sid].timings.state_bytes)
            };
            let cost = self.nodes[node].cfg.scale(base);
            let arrived = self.sessions[&sid].arrived_at;
            let class_wait = self.sessions[&sid].class_wait_ns;
            let w = self.sessions.get_mut(&sid).unwrap();
            w.tid = tid;
            w.timings.restore_ns = (ctx.now() + cost)
                .saturating_sub(arrived)
                .saturating_sub(class_wait);
            w.recorded = true;
            let timings = w.timings;
            let program = w.program;
            if wait {
                w.phase = WorkerPhase::Waiting;
            } else {
                w.phase = WorkerPhase::Running;
                ctx.schedule(cost, node, Msg::RunSlice { tid });
            }
            self.touch(node, tid);
            self.programs[program as usize]
                .report
                .migrations
                .push(timings);
        }
    }

    pub(super) fn restore_breakpoint(
        &mut self,
        node: usize,
        tid: usize,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let sid = self.worker_of(node, tid);
        let (restored, nframes) = {
            let w = &self.sessions[&sid];
            match &w.phase {
                WorkerPhase::Restoring { restored, .. } => (*restored, w.nframes),
                _ => panic!("breakpoint outside restore"),
            }
        };
        // cbBreakpoint (paper Fig. 4b): set the next frame's breakpoint,
        // point the restore cursor at this frame, throw the restoration
        // exception, resume.
        self.nodes[node].vm.threads[tid]
            .restore_session
            .as_mut()
            .expect("restore session")
            .cursor = restored;
        if restored + 1 < nframes {
            let next = self.sessions[&sid].state.frames[restored + 1].clone();
            let vm = &mut self.nodes[node].vm;
            let ci = vm.class_idx(&next.class).expect("restored class");
            let mi = vm.classes[ci].method_idx(&next.method).expect("method");
            vm.set_breakpoint(tid, ci, mi, 0);
        }
        if let WorkerPhase::Restoring { restored: r, .. } =
            &mut self.sessions.get_mut(&sid).unwrap().phase
        {
            *r += 1;
        }
        self.nodes[node]
            .vm
            .throw_into(tid, ExKind::InvalidState, "restore", false)
            .expect("throw InvalidState");
        self.touch(node, tid);
        let charge = self.nodes[node]
            .cfg
            .scale(jvmti::SET_BREAKPOINT_NS + jvmti::THROW_INTO_NS + costs::RESTORE_PER_FRAME_NS);
        ctx.schedule(elapsed + charge, node, Msg::RunSlice { tid });
    }

    /// Handler-protocol restore finishes when every frame has been
    /// re-established and the thread executes a normal slice.
    pub(super) fn maybe_finish_restore(
        &mut self,
        node: usize,
        tid: usize,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let Some(Owner::Worker(sid)) = self.thread_owner.get(&(node, tid)) else {
            return;
        };
        let sid = *sid;
        let done = matches!(
            &self.sessions[&sid].phase,
            WorkerPhase::Restoring { restored, .. } if *restored >= self.sessions[&sid].nframes
        );
        if !done {
            return;
        }
        self.nodes[node].vm.threads[tid].interp_mode = false;
        let arrived = self.sessions[&sid].arrived_at;
        let class_wait = self.sessions[&sid].class_wait_ns;
        let w = self.sessions.get_mut(&sid).unwrap();
        w.timings.restore_ns = (ctx.now() + elapsed)
            .saturating_sub(arrived)
            .saturating_sub(class_wait);
        w.phase = WorkerPhase::Running;
        w.recorded = true;
        let timings = w.timings;
        let program = w.program;
        self.programs[program as usize]
            .report
            .migrations
            .push(timings);
    }
}
