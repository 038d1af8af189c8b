//! Property tests for the discrete-event simulator: delivery ordering,
//! exactly-once semantics, byte conservation, FIFO links, and agreement
//! with a plain reference scheduler.

use proptest::prelude::*;
use sod_net::{LinkSpec, Sim, SimCtx, Topology, World};

/// What a [`Hops`] node does with a message carrying `hop` remaining hops.
enum Next {
    /// Send `hop` over the link to `to` with a `bytes` payload.
    Send { to: usize, bytes: u64, hop: u32 },
    /// A zero-delay timer delivering `hop` on node `to`.
    Timer { to: usize, hop: u32 },
}

/// The hop rule, shared by the [`Hops`] world and [`reference_hops`]:
/// hop 0 stops; with `timers`, an odd hop becomes a zero-delay timer two
/// nodes on; every other hop is sent to the next node, with a payload
/// that grows with the hop count so links queue unevenly.
fn next_hop(nodes: usize, dst: usize, hop: u32, timers: bool) -> Option<Next> {
    match hop {
        0 => None,
        _ if timers && !hop.is_multiple_of(2) => Some(Next::Timer {
            to: (dst + 2) % nodes,
            hop: hop - 1,
        }),
        _ => Some(Next::Send {
            to: (dst + 1) % nodes,
            bytes: 256 << hop,
            hop: hop - 1,
        }),
    }
}

/// A world that logs every delivery and follows [`next_hop`].
struct Hops {
    nodes: usize,
    timers: bool,
    log: Vec<(u64, usize, u32)>,
}

impl World for Hops {
    type Msg = u32;
    fn on_message(&mut self, dst: usize, hop: u32, ctx: &mut SimCtx<'_, u32>) {
        self.log.push((ctx.now(), dst, hop));
        match next_hop(self.nodes, dst, hop, self.timers) {
            Some(Next::Send { to, bytes, hop }) => ctx.send(dst, to, bytes, hop),
            Some(Next::Timer { to, hop }) => ctx.schedule(0, to, hop),
            None => {}
        }
    }
}

/// Run `injected` `(at, dst, hops)` events through the simulator.
/// Returns the final time, the bytes carried and the delivery log.
fn simulate_hops(
    topo: Topology,
    timers: bool,
    injected: &[(u64, usize, u32)],
) -> (u64, u64, Vec<(u64, usize, u32)>) {
    let world = Hops {
        nodes: topo.len(),
        timers,
        log: Vec::new(),
    };
    let mut sim = Sim::new(world, topo);
    for &(at, dst, hop) in injected {
        sim.inject(at, dst, hop);
    }
    let t = sim.run_to_idle(100_000);
    for n in 0..sim.topology().len() {
        let logged = sim.world.log.iter().filter(|e| e.1 == n).count() as u64;
        assert_eq!(sim.delivered_to(n), logged, "per-node count of node {n}");
    }
    (t, sim.topology().total_bytes_carried(), sim.world.log)
}

/// A reference scheduler for [`Hops`]: pending deliveries sit in an
/// unsorted `Vec` and each step scans it for the least (time, submission)
/// key, charging sends on its own copy of the topology. Slow and plain,
/// so the simulator's heap must agree with it delivery for delivery.
fn reference_hops(
    mut topo: Topology,
    timers: bool,
    injected: &[(u64, usize, u32)],
) -> (u64, u64, Vec<(u64, usize, u32)>) {
    // (at, seq, dst, hop)
    let mut pending: Vec<(u64, u64, usize, u32)> = injected
        .iter()
        .enumerate()
        .map(|(i, &(at, dst, hop))| (at, i as u64, dst, hop))
        .collect();
    let mut seq = pending.len() as u64;
    let (mut now, mut log) = (0, Vec::new());
    while let Some(i) = (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1)) {
        let (at, _, dst, hop) = pending.swap_remove(i);
        now = at;
        log.push((at, dst, hop));
        let next = match next_hop(topo.len(), dst, hop, timers) {
            Some(Next::Send { to, bytes, hop }) => (topo.transfer(now, dst, to, bytes), to, hop),
            Some(Next::Timer { to, hop }) => (now, to, hop),
            None => continue,
        };
        pending.push((next.0, seq, next.1, next.2));
        seq += 1;
    }
    (now, topo.total_bytes_carried(), log)
}

#[derive(Default)]
struct Recorder {
    log: Vec<(u64, usize, u64)>,
}

impl World for Recorder {
    type Msg = u64;
    fn on_message(&mut self, dst: usize, msg: u64, ctx: &mut SimCtx<'_, u64>) {
        self.log.push((ctx.now(), dst, msg));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_injected_message_delivered_once_in_time_order(
        events in proptest::collection::vec((0u64..10_000, 0usize..4, 0u64..1000), 1..40)
    ) {
        let mut sim = Sim::new(Recorder::default(), Topology::gigabit_cluster(4));
        for (at, dst, tag) in &events {
            sim.inject(*at, *dst, *tag);
        }
        sim.run_to_idle(10_000);
        prop_assert_eq!(sim.world.log.len(), events.len());
        let times: Vec<u64> = sim.world.log.iter().map(|(t, _, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(times, sorted);
        // Same multiset of tags.
        let mut sent: Vec<u64> = events.iter().map(|(_, _, t)| *t).collect();
        let mut got: Vec<u64> = sim.world.log.iter().map(|(_, _, t)| *t).collect();
        sent.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(sent, got);
    }

    #[test]
    fn link_conserves_bytes_and_orders_fifo(
        sizes in proptest::collection::vec(1u64..1_000_000, 1..20)
    ) {
        let mut link = sod_net::Link::new(LinkSpec::gigabit());
        let mut last_arrival = 0;
        let mut total = 0;
        for s in &sizes {
            let a = link.transfer(0, *s);
            prop_assert!(a >= last_arrival, "FIFO links never reorder");
            last_arrival = a;
            total += s;
        }
        prop_assert_eq!(link.bytes_carried, total);
        // Total occupancy at least the sum of transmission times.
        let min_busy: u64 = sizes.iter().map(|s| LinkSpec::gigabit().tx_time_ns(*s)).sum();
        prop_assert!(link.busy_until() >= min_busy);
    }

    #[test]
    fn relayed_chains_stay_deterministic(
        seed_events in proptest::collection::vec((0u64..1_000, 0usize..3), 1..10)
    ) {
        struct Relay {
            log: Vec<(u64, usize)>,
        }
        impl World for Relay {
            type Msg = u32;
            fn on_message(&mut self, dst: usize, hop: u32, ctx: &mut SimCtx<'_, u32>) {
                self.log.push((ctx.now(), dst));
                if hop > 0 {
                    ctx.send(dst, (dst + 1) % 3, 256, hop - 1);
                }
            }
        }
        let run = |events: &[(u64, usize)]| -> Vec<(u64, usize)> {
            let mut sim = Sim::new(Relay { log: Vec::new() }, Topology::gigabit_cluster(3));
            for (at, dst) in events {
                sim.inject(*at, *dst, 3);
            }
            sim.run_to_idle(100_000);
            sim.world.log
        };
        prop_assert_eq!(run(&seed_events), run(&seed_events));
    }

    /// The simulator's heap against the reference scheduler: random
    /// injections with equal-time ties across eight nodes, some relayed
    /// over links whose FIFO queues the growing payloads back up, are
    /// delivered in the identical order at the identical times.
    #[test]
    fn schedulers_deliver_identically(
        events in proptest::collection::vec((0u64..10_000, 0usize..8, 0u32..4), 1..60)
    ) {
        let mut topo = Topology::gigabit_cluster(8);
        topo.set_link(2, 3, LinkSpec::wifi_kbps(512));
        topo.set_link(5, 6, LinkSpec::wan());
        let heap = simulate_hops(topo.clone(), false, &events);
        prop_assert_eq!(heap.2.len(), events.iter().map(|e| e.2 as usize + 1).sum::<usize>());
        prop_assert_eq!(heap, reference_hops(topo, false, &events));
    }

    /// Same, with zero-delay cross-node timers mixed into the relays: a
    /// timer lands at the current instant on another node, behind every
    /// event already queued for that instant.
    #[test]
    fn schedulers_agree_under_relays_and_timers(
        seed_events in proptest::collection::vec((0u64..50, 0usize..5), 1..12)
    ) {
        // Injection times on a 100 ns grid over 0..5 µs, so equal-time
        // injections (and the timers they trigger) are common.
        let injected: Vec<(u64, usize, u32)> =
            seed_events.iter().map(|&(at, dst)| (at * 100, dst, 4)).collect();
        let topo = Topology::gigabit_cluster(5);
        let heap = simulate_hops(topo.clone(), true, &injected);
        prop_assert_eq!(heap, reference_hops(topo, true, &injected));
    }

    /// The delivery contract on injected events, including equal-time
    /// ties across nodes: delivery times never decrease, events due at
    /// the same instant arrive in injection order, and the per-node
    /// delivery counts partition the total.
    #[test]
    fn deliveries_follow_time_then_injection_order(
        events in proptest::collection::vec((0u64..2_000, 0usize..8), 1..60)
    ) {
        let mut sim = Sim::new(Recorder::default(), Topology::gigabit_cluster(8));
        // The tag is the injection index, so ties must come out ascending.
        for (i, (at, dst)) in events.iter().enumerate() {
            sim.inject(*at, *dst, i as u64);
        }
        sim.run_to_idle(10_000);
        let mut expected: Vec<(u64, usize, u64)> = events
            .iter()
            .enumerate()
            .map(|(i, (at, dst))| (*at, *dst, i as u64))
            .collect();
        expected.sort_by_key(|&(at, _, i)| (at, i));
        prop_assert_eq!(&sim.world.log, &expected);
        let per_node: u64 = (0..8).map(|n| sim.delivered_to(n)).sum();
        prop_assert_eq!(per_node, sim.delivered());
        prop_assert_eq!(sim.delivered(), events.len() as u64);
    }

    /// Relaying worlds: handler-generated sends (which mutate FIFO link
    /// state, so any reordering would corrupt arrival times) and
    /// zero-delay cross-node timers keep time monotone, keep the per-node
    /// counts summing to the total, and replay identically.
    #[test]
    fn relays_and_cross_node_timers_replay_identically(
        seed_events in proptest::collection::vec((0u64..5_000, 0usize..5), 1..12)
    ) {
        struct Mixed {
            log: Vec<(u64, usize, u32)>,
        }
        impl World for Mixed {
            type Msg = u32;
            fn on_message(&mut self, dst: usize, hop: u32, ctx: &mut SimCtx<'_, u32>) {
                self.log.push((ctx.now(), dst, hop));
                if hop > 0 {
                    // Alternate: a link send to the next node, and a
                    // zero-delay timer on another node.
                    if hop.is_multiple_of(2) {
                        ctx.send(dst, (dst + 1) % 5, 512, hop - 1);
                    } else {
                        ctx.schedule(0, (dst + 2) % 5, hop - 1);
                    }
                }
            }
        }
        let run = || {
            let mut sim = Sim::new(Mixed { log: Vec::new() }, Topology::gigabit_cluster(5));
            for (at, dst) in &seed_events {
                sim.inject(*at, *dst, 4);
            }
            let t = sim.run_to_idle(100_000);
            let per_node: u64 = (0..5).map(|n| sim.delivered_to(n)).sum();
            assert_eq!(per_node, sim.delivered());
            (t, sim.topology().total_bytes_carried(), sim.world.log)
        };
        let first = run();
        prop_assert!(first.2.windows(2).all(|w| w[0].0 <= w[1].0), "time went backwards");
        prop_assert_eq!(first.2.len(), seed_events.len() * 5);
        prop_assert_eq!(first, run());
    }
}
