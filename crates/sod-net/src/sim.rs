//! The discrete-event scheduler.
//!
//! A [`Sim`] owns a [`World`] (the cluster state), a [`Topology`], and an
//! event queue. Each event is the delivery of one message to one node at a
//! virtual time; handling a message may send further messages (through
//! links, charging transfer time) or schedule timers. Events with equal
//! timestamps are delivered in submission order (a monotonically increasing
//! sequence number breaks ties, then the destination node), making runs
//! fully deterministic.
//!
//! ## The event queue
//!
//! The queue is one binary heap over every pending event, ordered by
//! `(time, seq, dst)`. It is the only queue because the alternatives
//! measured on the 16-node message-heavy benchmark fleet did not pay: a
//! per-node sharded queue ran no faster, and draining it on two threads
//! ran about 3× slower (see the README's "Event queue" section).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::chaos::{ChaosAction, ChaosPlan, ChaosState, DropReason};
use crate::topology::Topology;

/// The world the simulator drives: your cluster state.
pub trait World {
    /// Message type delivered to nodes (including self-scheduled timers).
    type Msg;

    /// Handle `msg` arriving at node `dst` at virtual time `ctx.now()`.
    fn on_message(&mut self, dst: usize, msg: Self::Msg, ctx: &mut SimCtx<'_, Self::Msg>);

    /// A chaos action fired at virtual time `now`, before any delivery at
    /// that instant. The default ignores it; worlds override to fail
    /// affected work and count the fault. Must not send messages — the
    /// action is a pure state event.
    fn on_chaos(&mut self, _action: &ChaosAction, _now: u64) {}

    /// A message from `src` to `dst` was dropped at its delivery time
    /// instead of being handled. The default discards it silently; worlds
    /// override to account lost bytes and arm recovery state.
    fn on_dropped(
        &mut self,
        _src: usize,
        _dst: usize,
        _msg: Self::Msg,
        _reason: DropReason,
        _now: u64,
    ) {
    }
}

/// Which event queue a [`Sim`] runs on. There is only one; the type stays
/// so that callers which name a scheduler through [`Sim::with_scheduler`]
/// keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scheduler {
    /// One global binary heap over all pending events.
    #[default]
    GlobalHeap,
}

/// Handler-side context: send messages, schedule timers, read the clock.
pub struct SimCtx<'a, M> {
    now: u64,
    topo: &'a mut Topology,
    // (arrival time, src, dst, msg); drained into the queue after the
    // handler. `src` == `dst` for timers.
    outbox: Vec<(u64, usize, usize, M)>,
}

impl<M> SimCtx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Send `msg` of `bytes` payload from `from` to `to` over the topology;
    /// delivery is charged transfer time and queues FIFO on the link.
    pub fn send(&mut self, from: usize, to: usize, bytes: u64, msg: M) {
        let at = self.topo.transfer(self.now, from, to, bytes);
        self.outbox.push((at, from, to, msg));
    }

    /// As [`SimCtx::send`], but the transfer begins only after `delay` ns of
    /// local work (e.g. serialization) has elapsed.
    pub fn send_after(&mut self, delay: u64, from: usize, to: usize, bytes: u64, msg: M) {
        let at = self.topo.transfer(self.now + delay, from, to, bytes);
        self.outbox.push((at, from, to, msg));
    }

    /// Deliver `msg` to `dst` after `delay` ns without touching any link
    /// (timers, local work completion).
    pub fn schedule(&mut self, delay: u64, dst: usize, msg: M) {
        self.outbox.push((self.now + delay, dst, dst, msg));
    }

    /// Access the topology (e.g. to inspect link state in tests).
    pub fn topology(&mut self) -> &mut Topology {
        self.topo
    }
}

/// One pending message delivery. `src` records the sending node (equal
/// to `dst` for timers and injected events); it is carried for the chaos
/// layer's partition/loss checks and takes no part in the ordering.
struct Event<M> {
    at: u64,
    seq: u64,
    src: usize,
    dst: usize,
    msg: M,
}

impl<M> Event<M> {
    /// The total delivery order: virtual time, then global submission
    /// sequence (unique per simulation), then destination node.
    fn key(&self) -> (u64, u64, usize) {
        (self.at, self.seq, self.dst)
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The simulator.
pub struct Sim<W: World> {
    pub world: W,
    topo: Topology,
    queue: BinaryHeap<Reverse<Event<W::Msg>>>,
    now: u64,
    seq: u64,
    delivered: u64,
    /// Deliveries per destination node (the runaway guard names the
    /// hottest node from these).
    delivered_by: Vec<u64>,
    /// Fault injection, if armed (see [`crate::chaos`]). `None` keeps the
    /// hot path chaos-free: non-chaos runs are event-for-event identical
    /// to a build without this field.
    chaos: Option<ChaosState>,
    dropped: u64,
}

impl<W: World> Sim<W> {
    /// A simulator over `world` on `topo`.
    pub fn new(world: W, topo: Topology) -> Self {
        Sim {
            world,
            queue: BinaryHeap::new(),
            delivered_by: vec![0; topo.len()],
            topo,
            now: 0,
            seq: 0,
            delivered: 0,
            chaos: None,
            dropped: 0,
        }
    }

    /// As [`Sim::new`]; the [`Scheduler`] has a single variant.
    pub fn with_scheduler(world: W, topo: Topology, _scheduler: Scheduler) -> Self {
        Sim::new(world, topo)
    }

    /// Arm fault injection: compile `plan` against this topology. An
    /// empty plan is not armed at all, so it cannot perturb the run.
    pub fn set_chaos(&mut self, plan: &ChaosPlan) {
        if !plan.is_empty() {
            self.chaos = Some(plan.build(self.topo.len()));
        }
    }

    /// Is fault injection armed on this simulator?
    pub fn chaos_enabled(&self) -> bool {
        self.chaos.is_some()
    }

    /// Messages suppressed by the chaos layer so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Current virtual time (time of the last delivered event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Events delivered to node `dst` so far.
    pub fn delivered_to(&self, dst: usize) -> u64 {
        self.delivered_by.get(dst).copied().unwrap_or(0)
    }

    fn submit(&mut self, at: u64, src: usize, dst: usize, msg: W::Msg) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq,
            src,
            dst,
            msg,
        }));
    }

    /// Inject a message at absolute time `at` (≥ now). Injected events are
    /// local to their destination (src == dst): loss never eats them, but
    /// a crashed destination does.
    pub fn inject(&mut self, at: u64, dst: usize, msg: W::Msg) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.submit(at, dst, dst, msg);
    }

    /// Deliver the next event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        if let Some(chaos) = &mut self.chaos {
            // Apply every fault due by now, in schedule order, before the
            // delivery at this instant.
            while let Some(action) = chaos.pop_due(self.now) {
                match action {
                    ChaosAction::Partition { a, b } => self.topo.partition(a, b),
                    ChaosAction::Heal { a, b } => self.topo.heal(a, b),
                    ChaosAction::Crash { .. } | ChaosAction::Restart { .. } => {}
                }
                self.world.on_chaos(&action, self.now);
            }
            let cut = ev.src != ev.dst && self.topo.is_cut(ev.src, ev.dst);
            if let Some(reason) = chaos.drop_reason(ev.src, ev.dst, cut) {
                self.dropped += 1;
                self.world
                    .on_dropped(ev.src, ev.dst, ev.msg, reason, self.now);
                return true;
            }
        }
        self.delivered += 1;
        if ev.dst >= self.delivered_by.len() {
            self.delivered_by.resize(ev.dst + 1, 0);
        }
        self.delivered_by[ev.dst] += 1;
        let mut ctx = SimCtx {
            now: self.now,
            topo: &mut self.topo,
            outbox: Vec::new(),
        };
        self.world.on_message(ev.dst, ev.msg, &mut ctx);
        let outbox = ctx.outbox;
        for (at, src, dst, msg) in outbox {
            self.submit(at, src, dst, msg);
        }
        true
    }

    /// Run until the event queue drains; returns the final virtual time.
    /// `max_events` bounds runaway simulations; when the budget trips, the
    /// panic names the hottest node (the one that absorbed the most
    /// deliveries) so a livelocked fleet member is identifiable.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        let mut budget = max_events;
        while budget > 0 {
            if !self.step() {
                break;
            }
            budget -= 1;
        }
        if !self.queue.is_empty() {
            let (hot, count) =
                self.delivered_by
                    .iter()
                    .enumerate()
                    .fold(
                        (0usize, 0u64),
                        |(hi, hc), (i, &c)| {
                            if c > hc {
                                (i, c)
                            } else {
                                (hi, hc)
                            }
                        },
                    );
            panic!(
                "simulation exceeded {max_events} events without draining \
                 ({} still queued at t={} ns; hottest node {hot} absorbed \
                 {count} of the {} deliveries)",
                self.queue.len(),
                self.now,
                self.delivered,
            );
        }
        self.now
    }

    /// Access the topology (bandwidth accounting etc.).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    /// A world that records deliveries and can relay.
    struct Recorder {
        log: Vec<(u64, usize, u32)>,
        relay: bool,
    }

    impl World for Recorder {
        type Msg = u32;

        fn on_message(&mut self, dst: usize, msg: u32, ctx: &mut SimCtx<'_, u32>) {
            self.log.push((ctx.now(), dst, msg));
            if self.relay && msg < 3 {
                // Each node forwards msg+1 to the next node with 100 B.
                ctx.send(dst, (dst + 1) % 3, 100, msg + 1);
            }
        }
    }

    fn topo3() -> Topology {
        Topology::uniform(3, LinkSpec::new(1000, 8_000_000_000))
    }

    fn sim(relay: bool) -> Sim<Recorder> {
        Sim::new(
            Recorder {
                log: Vec::new(),
                relay,
            },
            topo3(),
        )
    }

    /// A reference scheduler for differential tests: the delivery rules of
    /// [`Sim::step`] over an unsorted `Vec`, each step scanning every
    /// pending event for the least `(time, seq)` key. Slow, but with no
    /// heap and no ordering impl to get wrong; the heap must agree with it
    /// delivery for delivery. Returns the world, the final virtual time
    /// and the number of dropped messages.
    fn reference_run<W: World>(
        mut world: W,
        mut topo: Topology,
        plan: &ChaosPlan,
        injected: Vec<(u64, usize, W::Msg)>,
    ) -> (W, u64, u64) {
        let mut chaos = (!plan.is_empty()).then(|| plan.build(topo.len()));
        // (at, seq, src, dst, msg)
        let mut pending: Vec<(u64, u64, usize, usize, W::Msg)> = Vec::new();
        let mut seq = 0;
        for (at, dst, msg) in injected {
            pending.push((at, seq, dst, dst, msg));
            seq += 1;
        }
        let (mut now, mut dropped) = (0, 0);
        while let Some(next) = (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1)) {
            let (at, _, src, dst, msg) = pending.swap_remove(next);
            now = at;
            if let Some(chaos) = &mut chaos {
                while let Some(action) = chaos.pop_due(now) {
                    match action {
                        ChaosAction::Partition { a, b } => topo.partition(a, b),
                        ChaosAction::Heal { a, b } => topo.heal(a, b),
                        ChaosAction::Crash { .. } | ChaosAction::Restart { .. } => {}
                    }
                    world.on_chaos(&action, now);
                }
                let cut = src != dst && topo.is_cut(src, dst);
                if let Some(reason) = chaos.drop_reason(src, dst, cut) {
                    dropped += 1;
                    world.on_dropped(src, dst, msg, reason, now);
                    continue;
                }
            }
            let mut ctx = SimCtx {
                now,
                topo: &mut topo,
                outbox: Vec::new(),
            };
            world.on_message(dst, msg, &mut ctx);
            for (at, src, dst, msg) in ctx.outbox {
                pending.push((at, seq, src, dst, msg));
                seq += 1;
            }
        }
        (world, now, dropped)
    }

    #[test]
    fn delivery_order_is_time_then_fifo() {
        let mut s = sim(false);
        s.inject(50, 1, 10);
        s.inject(10, 0, 11);
        s.inject(50, 2, 12); // same time as the first: FIFO by injection
        s.run_to_idle(100);
        let order: Vec<u32> = s.world.log.iter().map(|(_, _, m)| *m).collect();
        assert_eq!(order, vec![11, 10, 12]);
    }

    #[test]
    fn relayed_messages_chain_through_links() {
        let mut s = sim(true);
        s.inject(0, 0, 0);
        s.run_to_idle(100);
        // 0@0, then each hop costs 100B/1B-per-ns + 1000 latency = 1100 ns.
        assert_eq!(s.world.log.len(), 4);
        assert_eq!(s.world.log[1], (1100, 1, 1));
        assert_eq!(s.world.log[2], (2200, 2, 2));
        assert_eq!(s.world.log[3], (3300, 0, 3));
    }

    #[test]
    fn clock_is_monotonic() {
        let mut s = sim(true);
        s.inject(5, 0, 0);
        s.inject(5, 1, 0);
        s.inject(7, 2, 0);
        s.run_to_idle(1000);
        let times: Vec<u64> = s.world.log.iter().map(|(t, _, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(s.delivered(), s.world.log.len() as u64);
    }

    #[test]
    fn replays_produce_identical_timelines() {
        let run = || {
            let mut s = sim(true);
            s.inject(5, 0, 0);
            s.inject(5, 1, 0);
            s.inject(7, 2, 1);
            s.inject(7, 0, 2);
            let t = s.run_to_idle(1000);
            (t, s.delivered(), s.world.log)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn schedulers_produce_identical_timelines() {
        // The heap against the reference scheduler: relays chained through
        // FIFO links, with equal-time ties on different nodes.
        let injected = vec![(5, 0, 0), (5, 1, 0), (7, 2, 1), (7, 0, 2), (7, 1, 0)];
        let mut s = sim(true);
        for &(at, dst, msg) in &injected {
            s.inject(at, dst, msg);
        }
        let t = s.run_to_idle(1000);
        let recorder = Recorder {
            log: Vec::new(),
            relay: true,
        };
        let (reference, ref_t, dropped) =
            reference_run(recorder, topo3(), &ChaosPlan::new(), injected);
        assert_eq!(s.world.log, reference.log);
        assert_eq!(t, ref_t);
        assert_eq!(dropped, 0);
        assert_eq!(s.delivered(), reference.log.len() as u64);
    }

    #[test]
    fn per_node_delivery_counts_partition_the_total() {
        let mut s = sim(true);
        s.inject(0, 0, 0);
        s.inject(0, 1, 2);
        s.run_to_idle(100);
        let per_node: u64 = (0..3).map(|n| s.delivered_to(n)).sum();
        assert_eq!(per_node, s.delivered());
        assert_eq!(s.delivered_to(0), 2); // 0@0 and the wrap 3@0
        assert_eq!(s.delivered_to(99), 0);
    }

    /// A node that reschedules itself forever once it sees msg 1.
    struct Loopy;
    impl World for Loopy {
        type Msg = u8;
        fn on_message(&mut self, dst: usize, m: u8, ctx: &mut SimCtx<'_, u8>) {
            if m == 1 {
                ctx.schedule(1, dst, 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn runaway_guard() {
        let mut s = Sim::new(Loopy, Topology::gigabit_cluster(1));
        s.inject(0, 0, 1);
        s.run_to_idle(50);
    }

    #[test]
    #[should_panic(expected = "hottest node 1")]
    fn runaway_guard_names_the_hottest_node() {
        let mut s = Sim::new(Loopy, Topology::gigabit_cluster(3));
        // Node 1 livelocks; nodes 0 and 2 each take one quiet event.
        s.inject(0, 0, 0);
        s.inject(0, 2, 0);
        s.inject(0, 1, 1);
        s.run_to_idle(50);
    }

    #[test]
    fn exact_budget_fit_is_not_a_runaway() {
        // A run that needs exactly `max_events` deliveries drains fine;
        // only leftover queued events trip the guard.
        let mut s = sim(false);
        s.inject(1, 0, 0);
        s.inject(2, 1, 1);
        assert_eq!(s.run_to_idle(2), 2);
    }

    /// A world that logs deliveries, drops, and chaos actions — the
    /// sim-level harness for the fault-injection contract.
    struct ChaosLog {
        delivered: Vec<(u64, usize, u32)>,
        dropped: Vec<(usize, usize, u32, DropReason)>,
        actions: Vec<(u64, ChaosAction)>,
        relay: bool,
    }

    impl World for ChaosLog {
        type Msg = u32;

        fn on_message(&mut self, dst: usize, msg: u32, ctx: &mut SimCtx<'_, u32>) {
            self.delivered.push((ctx.now(), dst, msg));
            if self.relay && msg < 6 {
                ctx.send(dst, (dst + 1) % 3, 100, msg + 1);
            }
        }

        fn on_chaos(&mut self, action: &ChaosAction, now: u64) {
            self.actions.push((now, *action));
        }

        fn on_dropped(&mut self, src: usize, dst: usize, msg: u32, reason: DropReason, _now: u64) {
            self.dropped.push((src, dst, msg, reason));
        }
    }

    fn chaos_log(relay: bool) -> ChaosLog {
        ChaosLog {
            delivered: Vec::new(),
            dropped: Vec::new(),
            actions: Vec::new(),
            relay,
        }
    }

    fn chaos_sim(plan: &ChaosPlan, relay: bool) -> Sim<ChaosLog> {
        let mut s = Sim::new(chaos_log(relay), topo3());
        s.set_chaos(plan);
        s
    }

    /// Everything a chaos run records: deliveries, drops, fired actions,
    /// the final time and the drop count.
    type ChaosOutcome = (
        Vec<(u64, usize, u32)>,
        Vec<(usize, usize, u32, DropReason)>,
        Vec<(u64, ChaosAction)>,
        u64,
        u64,
    );

    /// Run `plan` over the relaying [`ChaosLog`] on the heap and on the
    /// reference scheduler.
    fn chaos_on_both(plan: &ChaosPlan, injected: &[(u64, usize, u32)]) -> [ChaosOutcome; 2] {
        let mut s = chaos_sim(plan, true);
        for &(at, dst, msg) in injected {
            s.inject(at, dst, msg);
        }
        let t = s.run_to_idle(1000);
        let dropped = s.dropped();
        let heap = (
            s.world.delivered,
            s.world.dropped,
            s.world.actions,
            t,
            dropped,
        );
        let (w, t, dropped) = reference_run(chaos_log(true), topo3(), plan, injected.to_vec());
        [heap, (w.delivered, w.dropped, w.actions, t, dropped)]
    }

    #[test]
    fn crashed_node_swallows_deliveries_until_restart() {
        let plan = ChaosPlan::new().crash_at(100, 1).restart_at(300, 1);
        let mut s = chaos_sim(&plan, false);
        s.inject(50, 1, 1); // before the crash: lands
        s.inject(150, 1, 2); // while down: dropped
        s.inject(150, 0, 3); // other nodes unaffected
        s.inject(400, 1, 4); // after restart: lands
        s.run_to_idle(100);
        let msgs: Vec<u32> = s.world.delivered.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(msgs, vec![1, 3, 4]);
        assert_eq!(s.world.dropped, vec![(1, 1, 2, DropReason::NodeDown)]);
        assert_eq!(s.dropped(), 1);
        assert_eq!(
            s.world.actions,
            vec![
                (150, ChaosAction::Crash { node: 1 }),
                (400, ChaosAction::Restart { node: 1 }),
            ],
            "actions fire when time first reaches them"
        );
    }

    #[test]
    fn partition_cuts_the_relay_chain_until_heal() {
        // The relay 0→1→2→0 starts at t=0; the 0↔1 cut at t=0 kills
        // the first hop, so nothing past msg 0 is ever delivered.
        let plan = ChaosPlan::new().partition_at(0, 0, 1);
        let mut s = chaos_sim(&plan, true);
        s.inject(0, 0, 0);
        s.run_to_idle(100);
        assert_eq!(s.world.delivered.len(), 1);
        assert_eq!(s.world.dropped.len(), 1);
        assert_eq!(s.world.dropped[0].3, DropReason::Partitioned);

        // Healed before the hop arrives: the full chain completes.
        let plan = ChaosPlan::new().partition_at(0, 0, 1).heal_at(1, 0, 1);
        let mut s = chaos_sim(&plan, true);
        s.inject(2, 0, 0);
        s.run_to_idle(100);
        assert_eq!(s.world.delivered.len(), 7, "0..=6 relayed");
        assert!(s.world.dropped.is_empty());
    }

    #[test]
    fn seeded_loss_is_scheduler_equivalent_and_seed_sensitive() {
        let injected: Vec<(u64, usize, u32)> =
            (0..10).map(|i| (i * 10, (i % 3) as usize, 0)).collect();
        let run = |seed| {
            let plan = ChaosPlan::new().seed(seed).loss_permille(400);
            let [heap, reference] = chaos_on_both(&plan, &injected);
            assert_eq!(
                heap, reference,
                "loss draws must not depend on the scheduler"
            );
            heap
        };
        let first = run(9);
        assert_eq!(first, run(9), "same seed replays");
        assert_ne!(first, run(10), "different seed diverges");
        assert!(
            first.4 > 0,
            "40% loss over a relay fleet must drop something"
        );
    }

    #[test]
    fn chaos_forces_the_sequential_path_and_stays_equivalent() {
        // Chaos state (down flags, cut links, the loss stream) is read and
        // mutated in delivery order, so a faulty run is only as
        // deterministic as its one sequential queue. Crashes, partitions
        // and loss together must match the reference scheduler exactly.
        let plan = ChaosPlan::new()
            .seed(3)
            .loss_permille(150)
            .crash_at(2_500, 2)
            .restart_at(6_000, 2)
            .partition_at(1_000, 0, 1)
            .heal_at(4_000, 0, 1);
        let injected: Vec<(u64, usize, u32)> = (0..12)
            .map(|i| (i * 700, (i % 3) as usize, (i % 4) as u32))
            .collect();
        let [heap, reference] = chaos_on_both(&plan, &injected);
        assert_eq!(heap, reference);
        assert_eq!(heap.2.len(), 4, "every scheduled action fires");
        assert!(
            heap.1.iter().any(|d| d.3 == DropReason::NodeDown)
                && heap.1.iter().any(|d| d.3 == DropReason::Partitioned),
            "the plan must exercise both crash and partition drops: {:?}",
            heap.1
        );
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let mut with = chaos_sim(&ChaosPlan::new(), true);
        assert!(!with.chaos_enabled(), "an empty plan must not arm chaos");
        // `sim`'s Recorder relays msg < 3: same topology, so timelines
        // must agree event for event on the shared prefix.
        let mut without = sim(true);
        with.inject(0, 0, 0);
        without.inject(0, 0, 0);
        with.run_to_idle(100);
        without.run_to_idle(100);
        assert_eq!(&with.world.delivered[..4], &without.world.log[..]);
        assert_eq!(with.dropped(), 0);
        assert!(with.world.dropped.is_empty());
    }

    #[test]
    fn timers_do_not_touch_links() {
        struct T;
        impl World for T {
            type Msg = u8;
            fn on_message(&mut self, _d: usize, m: u8, ctx: &mut SimCtx<'_, u8>) {
                if m == 0 {
                    ctx.schedule(500, 1, 1);
                }
            }
        }
        let mut s = Sim::new(T, Topology::gigabit_cluster(2));
        s.inject(0, 0, 0);
        s.run_to_idle(10);
        assert_eq!(s.topology().total_bytes_carried(), 0);
        assert_eq!(s.now(), 500);
    }
}
