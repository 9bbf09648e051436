//! The machine-speed yardstick.
//!
//! The benchmark shares its machine with other tenants, and how fast the
//! simulated stack runs swings by ±30% over tens of seconds. The stack is
//! bound by memory: its disks and caches are scattered 4 KiB blocks in
//! about a gigabyte of heap. So the yardstick is a fixed kernel of the same
//! kind that owes nothing to the program under test — copies of random
//! 4 KiB blocks within a 64 MiB arena (of the sizes tried, 64, 128 and
//! 256 MiB, the one whose times tracked the program's best) — timed
//! before and after every round, outside every timed interval. The kernel
//! times either side of an interval say how fast the machine ran during it;
//! the interval's timings are scaled by them to a reference speed.

use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// The kernel's time on the reference machine (a 2-core x86-64 sandbox,
/// release build), in nanoseconds. Scaled timings read as if measured
/// there.
pub const REFERENCE_NS: f64 = 4.0e6;

/// Size of the arena, MiB. It stays resident from the first sample to the
/// end of the process, so peak-memory figures leave it out.
pub const ARENA_MIB: usize = 64;

const ARENA: usize = ARENA_MIB << 20;
const BLOCK: usize = 4096;
const STEPS: usize = 4096;
const WARMUP: usize = 2048;

/// One arena per process, however many yardsticks sample it.
static ARENA_MEM: Mutex<Vec<u8>> = Mutex::new(Vec::new());

/// Times the kernel and keeps the samples.
pub struct Yardstick {
    cursor: u64,
    samples_ns: Vec<f64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            cursor: 1,
            samples_ns: Vec::new(),
        }
    }
}

impl Yardstick {
    /// Runs the kernel once, records its time and returns it, ns.
    pub fn sample(&mut self) -> f64 {
        let mut arena = ARENA_MEM.lock().unwrap_or_else(PoisonError::into_inner);
        if arena.is_empty() {
            *arena = vec![1u8; ARENA];
        }
        let mut buf = [0u8; BLOCK];
        // An untimed first pass evicts what the program left in the caches,
        // so that the timed pass does not depend on it.
        let mut t0 = Instant::now();
        for step in 0..WARMUP + STEPS {
            if step == WARMUP {
                t0 = Instant::now();
            }
            // A fixed pseudo-random walk over the arena's blocks.
            self.cursor = self
                .cursor
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let src = (self.cursor >> 33) as usize % (ARENA / BLOCK) * BLOCK;
            let dst = (src + ARENA / 2) % ARENA;
            buf.copy_from_slice(&arena[src..src + BLOCK]);
            buf[step % BLOCK] ^= 1;
            arena[dst..dst + BLOCK].copy_from_slice(&buf);
        }
        black_box(&buf);
        let ns = t0.elapsed().as_secs_f64() * 1e9;
        self.samples_ns.push(ns);
        ns
    }

    /// Adds the samples of `o`, taken on another world of the same run.
    pub fn absorb(&mut self, o: Yardstick) {
        self.samples_ns.extend(o.samples_ns);
    }

    /// Mean kernel time so far, ns.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        self.samples_ns.iter().sum::<f64>() / self.samples_ns.len().max(1) as f64
    }

    /// [`scale`] over all samples so far.
    #[must_use]
    pub fn scale(&self) -> f64 {
        REFERENCE_NS / self.mean_ns()
    }
}

/// The reference kernel time over the mean of the kernel times `before_ns`
/// and `after_ns` taken either side of an interval: below 1 when the
/// machine ran slower than the reference. A time multiplied by it, or a
/// rate divided by it, reads as if measured at reference speed.
#[must_use]
pub fn scale(before_ns: f64, after_ns: f64) -> f64 {
    2.0 * REFERENCE_NS / (before_ns + after_ns)
}
