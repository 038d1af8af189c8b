//! Protocol messages exchanged between nodes (and node-local timers).
//!
//! The message set mirrors the paper's middleware: migration managers
//! exchange state and class files; object managers exchange object
//! requests/replies and dirty-object flushes; a handful of self-scheduled
//! timers drive execution slices and cost accounting.

use std::sync::Arc;

use bytes::Bytes;
use sod_vm::capture::CapturedValue;
use sod_vm::class::ClassDef;
use sod_vm::value::ObjId;
use sod_vm::wire::FrameBatch;

/// Program identity (one root thread somewhere in the cluster).
pub type ProgramId = u32;
/// Migration session identity (one migrated segment instance).
///
/// Ids are *striped per allocating node* — the high half names the node,
/// the low half counts its allocations (see `Cluster::alloc_session`).
/// The scheme is kept because the id order is observable: an elastic
/// scale-in drain roams a retiring member's hosted sessions away in
/// ascending id order, so renumbering sessions would reorder those roams
/// and move the elastic workloads' virtual metrics.
pub type SessionId = u64;

/// One segment of a migration plan: `nframes` counted from the top of the
/// remaining stack, shipped to `dest`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentSpec {
    pub dest: usize,
    pub nframes: usize,
}

/// A migration plan: how to split the current stack. `segments[0]` is the
/// topmost segment (executes first). Fig. 1 of the paper:
/// (a) one proper-prefix segment → returns home;
/// (b) all frames in one or two segments to the same node → total
///     migration;
/// (c) several segments to different nodes → multi-domain workflow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationPlan {
    pub segments: Vec<SegmentSpec>,
}

impl MigrationPlan {
    /// The common case: top `nframes` to `dest`, control returns home.
    pub fn top_to(dest: usize, nframes: usize) -> Self {
        MigrationPlan {
            segments: vec![SegmentSpec { dest, nframes }],
        }
    }

    /// A multi-segment plan from `(dest, nframes)` pairs, topmost segment
    /// first. One pair is Fig. 1a; several pairs to one node are Fig. 1b
    /// (total migration); several pairs to different nodes are Fig. 1c
    /// (multi-domain workflow).
    pub fn chain(segments: &[(usize, usize)]) -> Self {
        MigrationPlan {
            segments: segments
                .iter()
                .map(|&(dest, nframes)| SegmentSpec { dest, nframes })
                .collect(),
        }
    }

    /// Sentinel frame count meaning "however many frames remain": the
    /// engine clamps every segment to the live stack height, so a segment
    /// requesting this many frames always absorbs the residual stack.
    pub const WHOLE_STACK_FRAMES: usize = usize::MAX / 2;

    /// Total migration (Fig. 1b): the top frame plus the whole residual
    /// stack both go to `dest`, so execution continues there.
    pub fn whole_stack_to(dest: usize) -> Self {
        MigrationPlan::chain(&[(dest, 1), (dest, Self::WHOLE_STACK_FRAMES)])
    }

    /// Total frames requested (may exceed the stack height, which clamps).
    pub fn total_frames(&self) -> usize {
        self.segments.iter().map(|s| s.nframes).sum()
    }
}

/// Where a completed segment delivers its return value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReturnTarget {
    /// Pop the stale frames on the home node and resume the residual stack.
    Home { node: usize },
    /// Deliver to a chained session holding the frames below (workflow).
    Session { node: usize, session: SessionId },
}

/// Metadata travelling with a shipped segment.
#[derive(Clone, Debug)]
pub struct SegmentInfo {
    pub program: ProgramId,
    pub session: SessionId,
    /// The node serving object faults and receiving flushes (the home).
    pub home: usize,
    pub return_to: ReturnTarget,
    /// Frames in this segment (restore establishes exactly this many).
    pub nframes: usize,
    /// Stale frames the home node discards when this segment's chain
    /// delivers its value home: the *whole* originally-captured stack
    /// (all of the plan's segments), since every frame above this one
    /// returned remotely into the chain. Identical to `nframes` for a
    /// single-segment plan; preserved across roaming hops.
    pub home_pop_frames: usize,
    /// Workflow segments below the top wait for a return value before
    /// executing.
    pub wait_for_return: bool,
}

/// Host intrinsic results (node-local, so no VM references).
#[derive(Clone, Debug, PartialEq)]
pub enum HostReply {
    Int(i64),
    Str(String),
    List(Vec<String>),
}

/// All cluster messages. `Timer`-ish variants are node-local.
#[derive(Clone, Debug)]
pub enum Msg {
    // -- driver-injected ---------------------------------------------------
    /// Begin executing the registered program.
    StartProgram { program: ProgramId },
    /// Trigger a migration of the program's thread per `plan` at the next
    /// migration-safe point.
    MigrateNow {
        program: ProgramId,
        plan: MigrationPlan,
    },

    // -- execution timers ----------------------------------------------------
    /// Continue running VM thread `tid` on this node.
    RunSlice { tid: usize },
    /// A host intrinsic completed; resume `tid` with the reply.
    HostDone { tid: usize, reply: HostReply },
    /// Capture finished (freeze time elapsed); ship the segments.
    CaptureDone { program: ProgramId },
    /// All classes for a shipped segment are present; re-establish frames.
    BeginRestore { session: SessionId },
    /// Home-side end-to-end deadline for an outstanding migration episode
    /// (armed only under fault injection). `attempt` matches the program's
    /// shipping attempt so timers from superseded episodes are ignored.
    MigrationTimeout { program: ProgramId, attempt: u32 },
    /// Periodic elastic-pool controller tick: evaluate the pool's scale
    /// policy on the controller node, then reschedule (see
    /// `engine/elastic.rs`).
    PoolTick { pool: usize },
    /// A spawned pool node finished provisioning (cold start elapsed) and
    /// may now accept placements. Delivered to the new node itself.
    PoolReady { pool: usize, node: usize },

    // -- migration protocol -----------------------------------------------------
    /// A captured segment arriving at its destination. The state travels
    /// as its encoded frame, serialized exactly once at capture time; the
    /// frame length *is* the state byte metric, and cloning the message
    /// (chaos resends, retry retention) copies a refcount, not the state.
    State {
        info: SegmentInfo,
        state: Bytes,
        /// Classes travelling with the state (the paper ships "the current
        /// class of the top frame" eagerly; the `CodeShipping` policy and
        /// the peer class cache decide the exact set). Shared [`Arc`]s:
        /// shipping never deep-clones method bodies.
        bundled: Vec<Arc<ClassDef>>,
        /// Serialized size of the bundled classes (for metrics; the state
        /// size is `state.len()`).
        class_bytes: u64,
        /// Capture (freeze) time spent at the source, for the timings
        /// breakdown.
        capture_ns: u64,
        /// Virtual time the state left the source node (metrics).
        sent_at: u64,
    },
    /// Worker requests a class it misses (the class-file-load-hook path).
    /// Carries the owning program so the serving node can account the
    /// class bytes without looking the session up.
    ClassRequest {
        session: SessionId,
        requester: usize,
        name: String,
        program: ProgramId,
    },
    ClassReply {
        session: SessionId,
        class: Arc<ClassDef>,
        bytes: u64,
    },

    // -- object manager -------------------------------------------------------
    /// Worker faulted on home object `home_id`. Carries the owning
    /// program so the home's object manager reads the fetch policy off
    /// its own program record instead of the requester's session.
    ObjectRequest {
        session: SessionId,
        requester: usize,
        home_id: ObjId,
        program: ProgramId,
    },
    /// The root object (first frame) plus any prefetched objects
    /// (fetch-policy ablations), each encoded once on the home side and
    /// batched into a single length-prefixed delivery frame; the batch's
    /// payload length is the object byte metric at both ends.
    ObjectReply {
        session: SessionId,
        batch: FrameBatch,
    },

    // -- completion & write-back ---------------------------------------------
    /// Dirty/new objects flushed to the home heap, encoded once at the
    /// worker and batched into one delivery frame per window. If `ack_to`
    /// is set, the home responds with `FlushAck` carrying temp-id
    /// assignments (used before worker-to-worker roaming hops).
    Flush {
        program: ProgramId,
        batch: FrameBatch,
        ack_to: Option<(usize, SessionId)>,
    },
    /// Home's reply to a flush that requested id assignments.
    FlushAck {
        session: SessionId,
        /// temp id → assigned home id.
        assigned: Vec<(ObjId, ObjId)>,
    },
    /// A migrated segment finished: deliver the return value.
    SegmentReturn {
        program: ProgramId,
        session: SessionId,
        target: ReturnTarget,
        retval: Option<CapturedValue>,
        /// Frames the receiver must pop (home) before delivering.
        pop_frames: usize,
    },

    // -- simulated NFS ----------------------------------------------------------
    /// Read (stream) a whole file from this node's disk to `requester`.
    FsRead {
        requester: usize,
        tid: usize,
        path: String,
        /// What the requester will do with the bytes (search needle pos or
        /// plain read).
        op: FsOp,
    },
    /// The file content arriving back at the requester.
    FsData {
        tid: usize,
        bytes: u64,
        op: FsOp,
        result: HostReply,
    },

    // -- photo-share application ---------------------------------------------
    /// A client request hitting the photo server's accept loop.
    ClientRequest { payload: String },
}

/// What an NFS read is for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsOp {
    /// `fs_search`: scan for a needle; result is the match offset or -1.
    Search,
    /// `fs_read`: bulk read; result is the byte count.
    Read,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_helpers() {
        let p = MigrationPlan::top_to(3, 2);
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.total_frames(), 2);
        let w = MigrationPlan::chain(&[(1, 1), (2, 2)]);
        assert_eq!(w.total_frames(), 3);
    }

    #[test]
    fn chain_matches_literal_segments() {
        assert_eq!(
            MigrationPlan::chain(&[(1, 1), (2, 2)]),
            MigrationPlan {
                segments: vec![
                    SegmentSpec {
                        dest: 1,
                        nframes: 1,
                    },
                    SegmentSpec {
                        dest: 2,
                        nframes: 2,
                    },
                ],
            }
        );
        // One pair degenerates to `top_to`.
        assert_eq!(MigrationPlan::chain(&[(4, 7)]), MigrationPlan::top_to(4, 7));
        assert!(MigrationPlan::chain(&[]).segments.is_empty());
    }

    #[test]
    fn whole_stack_covers_any_height() {
        let p = MigrationPlan::whole_stack_to(1);
        assert_eq!(p.segments.len(), 2);
        assert!(p.segments.iter().all(|s| s.dest == 1));
        // The residual segment's frame count clamps to the stack height,
        // so it must exceed any realistic stack.
        assert!(p.segments[1].nframes > 1 << 20);
    }
}
