//! Host-speed calibration: a fixed kernel in the benchmark's own code,
//! timed between operations.
//!
//! The machines this benchmark runs on share their cores with other
//! tenants, and their speed drifts by up to ~1.6× in spells of seconds to
//! minutes, so a wall-clock median moves with the spell a run lands in.
//! The kernel slows by about the same factor as a solve does (within
//! ~10 %). Dividing each operation's wall time by the kernel time measured
//! around it gives its cost in kernel units (`cal`), which stays nearly
//! put while the host's speed moves. The kernel never calls the program, so a change to the program
//! moves the normalised cost just as it moves wall time.

use crate::report::median;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Side of the dense complex matrix the kernel factors.
const DIM: usize = 24;
/// Keys the kernel sorts and hashes.
const KEYS: usize = 1024;
/// Netlist-like lines the kernel writes and parses back.
const LINES: usize = 64;
/// Operation wall time per kernel sample taken after it: at ~0.1 ms a
/// run, the kernel adds about 2 % to the work a run does.
const OP_MS_PER_SAMPLE: f64 = 4.0;
/// Most kernel samples taken after one operation.
const MAX_SAMPLES_PER_OP: usize = 16;
/// An operation is divided by the median of the kernel samples taken
/// from this long before it started to this long after it ended.
const WINDOW_S: f64 = 0.1;

/// The calibration kernel: fixed inputs and the buffers it works in.
///
/// One run does, in roughly equal parts, the three kinds of work a solve
/// does: dense complex arithmetic (an LU factorization), integer sorting
/// and hashing, and text formatting and parsing with their allocations.
/// A kernel of one kind alone slows by a different factor than a solve
/// when a neighbour contends for that kind of resource.
struct Calibration {
    matrix: Vec<(f64, f64)>,
    lu: Vec<(f64, f64)>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
}

impl Calibration {
    /// Inputs from a fixed LCG; the matrix is diagonally dominant, so it
    /// factors without pivoting.
    fn new() -> Calibration {
        let mut x: u64 = 0x5eed;
        let mut next = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        };
        let unit = (1u64 << 53) as f64;
        let mut matrix: Vec<(f64, f64)> =
            (0..DIM * DIM).map(|_| (next() as f64 / unit, next() as f64 / unit)).collect();
        for i in 0..DIM {
            matrix[i * DIM + i].0 += DIM as f64;
        }
        let keys: Vec<u64> = (0..KEYS).map(|_| next()).collect();
        Calibration { lu: matrix.clone(), matrix, sorted: keys.clone(), keys }
    }

    /// One run of the kernel; the result keeps every part live.
    fn kernel(&mut self) -> f64 {
        let a = &mut self.lu;
        a.copy_from_slice(black_box(&self.matrix));
        for k in 0..DIM {
            let (pr, pi) = a[k * DIM + k];
            let d = pr * pr + pi * pi;
            let inv = (pr / d, -pi / d);
            for i in k + 1..DIM {
                let (mr, mi) = a[i * DIM + k];
                let f = (mr * inv.0 - mi * inv.1, mr * inv.1 + mi * inv.0);
                for j in k + 1..DIM {
                    let (ur, ui) = a[k * DIM + j];
                    let v = &mut a[i * DIM + j];
                    v.0 -= f.0 * ur - f.1 * ui;
                    v.1 -= f.0 * ui + f.1 * ur;
                }
            }
        }

        self.sorted.copy_from_slice(black_box(&self.keys));
        self.sorted.sort_unstable();
        let mut buckets: HashMap<u64, usize> = HashMap::new();
        for (rank, key) in self.sorted.iter().enumerate() {
            *buckets.entry(key % 128).or_default() += rank;
        }

        let mut text = String::new();
        for i in 0..LINES {
            let value = black_box(1.0e3) + i as f64 * 0.37;
            writeln!(text, "R{i} n{} n{} {value:e}", i % 37, (i * 7) % 41)
                .expect("writing to a String cannot fail");
        }
        let parsed: f64 = text
            .lines()
            .filter_map(|line| line.split_whitespace().nth(3)?.parse::<f64>().ok())
            .sum();

        a[DIM * DIM - 1].0 + buckets[&(self.sorted[0] % 128)] as f64 + parsed
    }

    /// Times one kernel run, in ms.
    fn sample(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.kernel());
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Operation spans and the kernel samples taken between them, on one
/// clock, from which each operation's cost in kernel units follows.
///
/// An operation that runs on several threads is set against the kernel
/// run on as many threads at once: the shared host slows its cores one at
/// a time, and a kernel on the sampling thread alone sees only one of
/// them.
pub struct Normaliser {
    /// One kernel per thread the operations run on.
    kernels: Vec<Calibration>,
    origin: Instant,
    /// Start (s), end (s) and wall time (ms) of each operation.
    ops: Vec<(f64, f64, f64)>,
    /// Time (s) and duration (ms) of each kernel sample.
    samples: Vec<(f64, f64)>,
}

impl Normaliser {
    /// Takes the samples that precede the first operation of a workload
    /// running on `threads` threads.
    pub fn new(threads: usize) -> Normaliser {
        let mut n = Normaliser {
            kernels: (0..threads.max(1)).map(|_| Calibration::new()).collect(),
            origin: Instant::now(),
            ops: Vec::new(),
            samples: Vec::new(),
        };
        n.take_samples(MAX_SAMPLES_PER_OP);
        n
    }

    /// Takes `count` samples. With several threads, each runs the kernel
    /// `count` times at once, and a sample is the harmonic mean of the
    /// threads' times: the time per run when the threads' speeds add up.
    fn take_samples(&mut self, count: usize) {
        let at = self.origin.elapsed().as_secs_f64();
        let (own, helpers) = self.kernels.split_first_mut().expect("at least one kernel");
        let run = |kernel: &mut Calibration| -> Vec<f64> {
            (0..count).map(|_| kernel.sample()).collect()
        };
        let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                helpers.iter_mut().map(|kernel| scope.spawn(move || run(kernel))).collect();
            let mut all = vec![run(own)];
            all.extend(handles.into_iter().map(|h| h.join().expect("kernel threads do not panic")));
            all
        });
        let threads = per_thread.len() as f64;
        for k in 0..count {
            let speed: f64 = per_thread.iter().map(|times| 1.0 / times[k]).sum();
            self.samples.push((at, threads / speed));
        }
    }

    /// Records an operation that started at `start` and took `op_ms`,
    /// then takes the kernel samples that follow it: one per 4 ms of
    /// operation, at most 16.
    pub fn record(&mut self, start: Instant, op_ms: f64) {
        let begin = start.duration_since(self.origin).as_secs_f64();
        self.ops.push((begin, begin + op_ms * 1e-3, op_ms));
        let count = ((op_ms / OP_MS_PER_SAMPLE).ceil() as usize).clamp(1, MAX_SAMPLES_PER_OP);
        self.take_samples(count);
    }

    /// Each operation's wall time divided by the median kernel time of the
    /// samples within 0.1 s of it. Every operation has samples right after
    /// it, so none goes without.
    pub fn costs(&self) -> Vec<f64> {
        let mut lo = 0;
        let mut window = Vec::new();
        self.ops
            .iter()
            .map(|&(begin, end, ms)| {
                while self.samples[lo].0 < begin - WINDOW_S {
                    lo += 1;
                }
                window.clear();
                window.extend(
                    self.samples[lo..].iter().take_while(|s| s.0 <= end + WINDOW_S).map(|s| s.1),
                );
                ms / median(&window)
            })
            .collect()
    }

    /// Every kernel sample's duration, in ms.
    pub fn kernel_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operation_gets_a_finite_cost() {
        let mut normaliser = Normaliser::new(2);
        for op_ms in [0.5, 3.0, 80.0] {
            let start = Instant::now();
            std::thread::sleep(std::time::Duration::from_secs_f64(op_ms * 1e-3));
            normaliser.record(start, op_ms);
        }
        let costs = normaliser.costs();
        assert_eq!(costs.len(), 3);
        assert!(costs.iter().all(|c| c.is_finite() && *c > 0.0), "{costs:?}");
        // 16 samples before the first operation, then 1, 1 and 16.
        assert_eq!(normaliser.kernel_ms().len(), 34);
    }
}
