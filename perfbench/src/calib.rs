//! Host-speed calibration. The benchmark's host often runs 20–40 % slower
//! for stretches of a second to minutes (other tenants on the same
//! machine), which moves raw wall times between runs by more than any
//! useful bound. A fixed reference computation — the benchmark's own code,
//! untouched by changes to the repository — is timed before and after
//! every repetition, and each repetition's wall time is reported scaled to
//! a host on which that computation takes [`REFERENCE_S`]:
//! `scaled = raw × REFERENCE_S / mean(reference before, reference after)`.

use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Host seconds the reference computation takes on the nominal host the
/// scaled metrics are expressed for (about its quiet-host time on a 2-core
/// x86-64 VM).
pub const REFERENCE_S: f64 = 0.075;

/// Reference-computation timings, taken between the repetitions of one
/// phase of a run: sample `i` precedes repetition `i`, and one more sample
/// follows the last repetition.
#[derive(Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Time the reference computation once more.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        reference();
        self.0.push(t0.elapsed().as_secs_f64());
    }

    /// Median host seconds of the reference computation.
    pub fn reference_median_s(&self) -> f64 {
        crate::report::median(&self.0)
    }

    /// Factor that turns repetition `i`'s raw host seconds into
    /// nominal-host seconds, from the samples on either side of it.
    pub fn scale(&self, i: usize) -> f64 {
        2.0 * REFERENCE_S / (self.0[i] + self.0[i + 1])
    }

    /// One factor for a whole phase, from the median sample.
    pub fn overall_scale(&self) -> f64 {
        REFERENCE_S / self.reference_median_s()
    }
}

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Mul,
    JumpIfLess(usize, usize),
    Halt,
}

/// A small stack-machine interpreter loop plus event-queue and hash-map
/// churn — the same kinds of work the simulator does, about 75 ms of it.
fn reference() {
    // acc = 0; i = 0; loop { acc = acc * 3 + i; i += 1; if i < N goto loop }
    let prog = [
        Op::Push(0),
        Op::Store(0),
        Op::Push(0),
        Op::Store(1),
        Op::Load(0),
        Op::Push(3),
        Op::Mul,
        Op::Load(1),
        Op::Add,
        Op::Store(0),
        Op::Load(1),
        Op::Push(1),
        Op::Add,
        Op::Store(1),
        Op::JumpIfLess(1, 4),
        Op::Halt,
    ];
    let n = std::hint::black_box(900_000i64);
    let mut locals = [0i64; 4];
    let mut stack: Vec<i64> = Vec::with_capacity(16);
    let mut pc = 0;
    loop {
        match prog[pc] {
            Op::Push(v) => stack.push(v),
            Op::Load(s) => stack.push(locals[s]),
            Op::Store(s) => locals[s] = stack.pop().unwrap_or(0),
            Op::Add => {
                let (b, a) = (stack.pop().unwrap_or(0), stack.pop().unwrap_or(0));
                stack.push(a.wrapping_add(b));
            }
            Op::Mul => {
                let (b, a) = (stack.pop().unwrap_or(0), stack.pop().unwrap_or(0));
                stack.push(a.wrapping_mul(b));
            }
            Op::JumpIfLess(s, target) => {
                if locals[s] < n {
                    pc = target;
                    continue;
                }
            }
            Op::Halt => break,
        }
        pc += 1;
    }
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut x = locals[0] as u64 | 1;
    for i in 0..600_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse((x % 100_000, i)));
        *map.entry(x % 4096).or_insert(0) += 1;
        if heap.len() > 256 {
            heap.pop();
        }
    }
    std::hint::black_box((heap.len(), map.len()));
}
