//! Host-speed calibration: a fixed reference workload, timed between the
//! cells of the untraced passes, so host times can be reported at a
//! reference speed.
//!
//! The reference work never changes and uses no code of the engine: random
//! read-modify-writes and a sequential sweep over a 128 MiB table (larger
//! than the last-level cache, so main memory serves them, as it serves the
//! engine's edge streams), an edge scatter over random vertex ids, and a
//! binary-heap event loop. Its inputs are built once, before the engine
//! runs, so their layout in memory does not depend on what the engine
//! left behind. A shared host that runs slower for minutes (another
//! tenant's cache and memory traffic) slows the reference work too, so
//! engine time scaled by the reference work's speed holds still while
//! either alone drifts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// Host seconds of one reference sample on the reference host (2-vCPU VM
/// reporting an Intel Xeon at 2.0 GHz) while it ran at its usual speed.
/// Scaled host times are measured × this ÷ the run's median sample, so on
/// that host, undisturbed, they read as plain seconds.
pub const REFERENCE_SAMPLE_S: f64 = 0.16;

/// Engine host seconds between two reference samples.
const INTERVAL_S: f64 = 1.0;

const TABLE: usize = 1 << 25;
const TABLE_OPS: usize = 1 << 21;
const VERTICES: usize = 1 << 21;
const EDGES: usize = 1 << 21;
const HEAP_SIZE: usize = 1 << 17;
const HEAP_OPS: usize = 1 << 18;

/// The reference workload's inputs and the samples of one invocation.
#[derive(Debug)]
pub struct Calibrator {
    since_sample_s: f64,
    samples: Vec<f64>,
    table: Vec<u32>,
    src: Vec<u32>,
    dst: Vec<u32>,
    vals: Vec<f32>,
    acc: Vec<f32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Builds the inputs (fixed; about 170 MiB, all of it touched and kept
    /// until the calibrator is dropped) and takes no sample yet.
    pub fn new() -> Self {
        let mut x = SEED;
        let mut id = || (next(&mut x) % VERTICES as u64) as u32;
        let src = (0..EDGES).map(|_| id()).collect();
        let dst = (0..EDGES).map(|_| id()).collect();
        Self {
            since_sample_s: 0.0,
            samples: Vec::new(),
            table: (0..TABLE as u32).collect(),
            src,
            dst,
            vals: (0..VERTICES).map(|i| (i % 97) as f32).collect(),
            // Written, not zero-allocated, so every page is resident now.
            acc: vec![1.0; VERTICES],
            heap: (0..HEAP_SIZE as u32).map(|i| Reverse((1, i))).collect(),
        }
    }

    /// Counts `engine_s` host seconds of engine work; once a further
    /// [`INTERVAL_S`] has accrued, times the reference work once.
    pub fn tick(&mut self, engine_s: f64) {
        self.since_sample_s += engine_s;
        if self.since_sample_s >= INTERVAL_S {
            self.since_sample_s = 0.0;
            self.sample();
        }
    }

    /// The factor that scales this invocation's host seconds to the
    /// reference speed: [`REFERENCE_SAMPLE_S`] ÷ the median sample (one
    /// sample is taken first if none was).
    pub fn factor(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.sample();
        }
        REFERENCE_SAMPLE_S / self.median_sample_s()
    }

    /// The median reference sample so far, host seconds (0 with none).
    pub fn median_sample_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Times the reference work once.
    fn sample(&mut self) {
        let mut x = SEED;
        let t = Instant::now();
        for _ in 0..TABLE_OPS {
            let i = (next(&mut x) % TABLE as u64) as usize;
            self.table[i] = self.table[i].wrapping_add(1);
        }
        let sweep: u64 = self.table.iter().map(|&v| u64::from(v)).sum();
        black_box(sweep);

        self.acc.fill(0.0);
        for (&s, &d) in self.src.iter().zip(&self.dst) {
            self.acc[d as usize] += self.vals[s as usize];
        }
        black_box(&self.acc);

        self.heap.clear();
        self.heap
            .extend((0..HEAP_SIZE as u32).map(|i| Reverse((next(&mut x) >> 32, i))));
        for _ in 0..HEAP_OPS {
            let Reverse((at, i)) = self.heap.pop().expect("never empty");
            self.heap.push(Reverse((at + (next(&mut x) >> 48), i)));
        }
        black_box(self.heap.peek());
        self.samples.push(t.elapsed().as_secs_f64());
    }
}

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// xorshift64*: fixed, dependency-free pseudo-random numbers.
fn next(x: &mut u64) -> u64 {
    *x ^= *x >> 12;
    *x ^= *x << 25;
    *x ^= *x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
