//! Host-speed calibration.
//!
//! On a shared host a core switches every few seconds between a fast and
//! a slow state, and the share of time it spends fast changes from minute
//! to minute, so every timing moves with the machine. The benchmark
//! therefore times a fixed kernel of its own — dense Cholesky
//! factorisations and `exp` calls, the arithmetic the GP layers spend
//! their time in — before every measured run, and reports timings in
//! *reference seconds*: mean wall seconds divided by the mean slowdown of
//! the kernel against its reference time over the whole benchmark run.
//! The kernel depends on no repository code, so a change to the program
//! cannot move it.

use crate::report::mean;
use std::hint::black_box;
use trace::Stopwatch;

/// Order of the factorised matrix.
const N: usize = 40;
/// Factorisations per probe.
const PASSES: usize = 12_000;
/// A probe's typical wall seconds on the 2-vCPU Xeon VM the benchmark was
/// built on, one kernel per thread: index 0 for one thread, 1 for two.
const REFERENCE_S: [f64; 2] = [0.085, 0.1];

/// Index into [`REFERENCE_S`] for a run at `threads` (0 = all cores).
fn kind(threads: usize) -> usize {
    usize::from(threads != 1)
}

/// The host's slowdown probed through a benchmark run, at one thread and
/// at all cores.
#[derive(Default)]
pub struct HostSpeed {
    probes: [Vec<f64>; 2],
}

impl HostSpeed {
    /// Probes the host once at one thread and once at all cores.
    pub fn probe(&mut self) {
        for threads in [1, 0] {
            self.probes[kind(threads)].push(probe(threads));
        }
    }

    /// The mean slowdown for runs at `threads` (0 = all cores): mean
    /// timings divided by it read in reference seconds.
    pub fn slowdown(&self, threads: usize) -> f64 {
        mean(&self.probes[kind(threads)])
    }

    /// The probes' wall seconds, for the budget.
    pub fn probe_seconds() -> f64 {
        REFERENCE_S.iter().sum()
    }

    /// The probes taken at `threads`.
    pub fn probes(&self, threads: usize) -> &[f64] {
        &self.probes[kind(threads)]
    }
}

/// The fixed symmetric positive-definite matrix, row-major.
fn matrix() -> Vec<f64> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut b = vec![0.0; N * N];
    for v in &mut b {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    let mut a = vec![0.0; N * N];
    for i in 0..N {
        for j in 0..N {
            let dot: f64 = (0..N).map(|k| b[i * N + k] * b[j * N + k]).sum();
            a[i * N + j] = dot + if i == j { N as f64 } else { 0.0 };
        }
    }
    a
}

/// One kernel: `PASSES` in-place Cholesky factorisations of a copy of
/// `a`, each followed by an `exp` of its log-determinant share. Returns a
/// checksum so the work cannot be optimised away.
fn kernel(a: &[f64]) -> f64 {
    let mut l = vec![0.0; N * N];
    let mut sum = 0.0;
    for pass in 0..PASSES {
        l.copy_from_slice(black_box(a));
        l[0] += pass as f64 * 1e-9;
        for j in 0..N {
            let mut d = l[j * N + j];
            for k in 0..j {
                d -= l[j * N + k] * l[j * N + k];
            }
            let d = d.sqrt();
            l[j * N + j] = d;
            for i in j + 1..N {
                let mut s = l[i * N + j];
                for k in 0..j {
                    s -= l[i * N + k] * l[j * N + k];
                }
                l[i * N + j] = s / d;
            }
        }
        let log_det: f64 = (0..N).map(|i| l[i * N + i].ln()).sum();
        sum += (-log_det / N as f64).exp();
    }
    sum
}

/// One probe for runs at `threads` (0 = all cores, timed with two kernels
/// at once): its wall time over its reference.
fn probe(threads: usize) -> f64 {
    let a = matrix();
    let sw = Stopwatch::start();
    if threads == 1 {
        black_box(kernel(&a));
    } else {
        std::thread::scope(|s| {
            s.spawn(|| black_box(kernel(&a)));
            black_box(kernel(&a));
        });
    }
    sw.seconds() / REFERENCE_S[kind(threads)]
}
