//! The speed probe: how fast this host is running *right now*.
//!
//! The guest shares its physical cores and its last-level cache with other
//! tenants. When they are busy, the solver runs 1.3 to 1.9 times slower —
//! for milliseconds, for seconds or for minutes on end — and a timed
//! repetition of anything reads that much longer. Two fixed kernels of the
//! harness's own, timed right before and right after a repetition, slow
//! down with it, so a repetition's time is reported at the host's
//! undisturbed speed: divided by the larger of the two kernels' slow-down
//! factors (their time beside the repetition over their quiet time), and
//! never scaled up. The kernels are the harness's own code and no change to
//! the program can move them, so a slower program reads slower by exactly
//! as much as it is.
//!
//! Two kernels, because the host has been seen slow in two ways. Mostly a
//! busy hyperthread sibling halves the arithmetic units: the *arithmetic*
//! kernel (multiply-add chains in registers), the *sweep* kernel and a cold
//! completion then all read 1.5 to 1.6 times their quiet time. But in one
//! phase completions took 1.7 times as long while the arithmetic kernel
//! read 1.03 to 1.08: a neighbour in the shared cache, which arithmetic in
//! registers does not feel. The sweep kernel is shaped like the solver's
//! sweeps (gather two factor rows, multiply, add into a third, over an
//! entry stream that leaves L2) and is there for that kind. Over the
//! recorded sets either kernel alone would have done about as well on
//! average as the larger of the two factors (see the README's *Noise*).

use crate::gen::SplitMix;
use std::hint::black_box;
use std::time::Instant;

/// Samples of each kernel per burst; a burst is taken before and after
/// every repetition.
const SAMPLES: usize = 3;
const ENTRIES: usize = 200_000;
const DIMS: [usize; 3] = [180, 160, 130];
const RANK: usize = 16;
const LANES: usize = 64;
const STEPS: usize = 100_000;

/// Seconds per pass of each kernel: `[sweep, arithmetic]`.
pub type Reading = [f64; 2];

/// The sweep kernel's data (6.4 MB of entries, three small factor
/// matrices) and every sample taken in a run.
pub struct Probe {
    idx: Vec<[usize; 3]>,
    vals: Vec<f64>,
    out: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    /// Every sample of the run, per kernel.
    pub samples: [Vec<f64>; 2],
}

impl Probe {
    pub fn new() -> Probe {
        let mut rng = SplitMix(0x0073_7065_6564);
        let idx = (0..ENTRIES).map(|_| DIMS.map(|d| rng.below(d))).collect();
        let vals = (0..ENTRIES).map(|_| rng.unit()).collect();
        let mut factor = |rows: usize| (0..rows * RANK).map(|_| rng.unit()).collect();
        Probe {
            idx,
            vals,
            out: vec![0.0; DIMS[0] * RANK],
            b: factor(DIMS[1]),
            c: factor(DIMS[2]),
            samples: [Vec::new(), Vec::new()],
        }
    }

    /// Seconds one pass over the entries takes now (about 2 ms).
    fn sweep(&mut self) -> f64 {
        let t0 = Instant::now();
        for (ix, &v) in self.idx.iter().zip(&self.vals) {
            let out = &mut self.out[ix[0] * RANK..][..RANK];
            let b = &self.b[ix[1] * RANK..][..RANK];
            let c = &self.c[ix[2] * RANK..][..RANK];
            for k in 0..RANK {
                out[k] += v * b[k] * c[k];
            }
        }
        black_box(&mut self.out).fill(0.0);
        t0.elapsed().as_secs_f64()
    }

    /// Take a burst of samples now; the mean per kernel. (The mean, not
    /// the median: when the host flips between its two speeds every few
    /// milliseconds, a repetition is slowed by the share of the time spent
    /// in the slow one, which the mean of the samples estimates and their
    /// median does not.)
    pub fn burst(&mut self) -> Reading {
        let mut sum = [0.0; 2];
        for _ in 0..SAMPLES {
            for (k, s) in [self.sweep(), arithmetic()].into_iter().enumerate() {
                self.samples[k].push(s);
                sum[k] += s;
            }
        }
        sum.map(|s| s / SAMPLES as f64)
    }

    /// Each kernel's time when the host is left alone: the fastest of the
    /// run's samples (hundreds, spread over the whole run). Disturbance
    /// only ever adds time, and even a slow phase that lasts minutes
    /// leaves gaps of a few milliseconds: over 40 s windows of recorded
    /// series the minimum moved 2 to 5%, the 5th percentile 2 to 10%.
    pub fn quiet(&self) -> Reading {
        [0, 1].map(|k| {
            self.samples[k]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
    }

    pub fn median(&self) -> Reading {
        [0, 1].map(|k| crate::stats::median(&self.samples[k]))
    }
}

/// Seconds one pass of the arithmetic kernel takes now (about 1 ms):
/// `LANES` independent multiply-add chains, `STEPS` long, in registers and
/// L1. Throughput-bound, so it slows down with a busy hyperthread sibling
/// (a latency-bound chain would not).
fn arithmetic() -> f64 {
    let t0 = Instant::now();
    let mut a = [1.0f64; LANES];
    for k in 0..STEPS {
        let c = k as f64 * 1e-9;
        for x in a.iter_mut() {
            *x = *x * 0.999_999 + c;
        }
    }
    black_box(a);
    t0.elapsed().as_secs_f64()
}

/// The kernels' times next to a repetition: the mean of the bursts before
/// and after it.
pub fn beside(before: Reading, after: Reading) -> Reading {
    [0, 1].map(|k| 0.5 * (before[k] + after[k]))
}

/// How much slower than undisturbed the host ran next to a repetition:
/// the larger of the two kernels' factors, never under 1.
pub fn slowdown(beside: Reading, quiet: Reading) -> f64 {
    beside
        .iter()
        .zip(quiet)
        .filter(|(_, q)| *q > 0.0 && q.is_finite())
        .map(|(b, q)| b / q)
        .fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_larger_factor_and_never_under_one() {
        // Sweep 1.5 times its quiet time, arithmetic undisturbed.
        assert_eq!(slowdown([0.003, 0.001], [0.002, 0.001]), 1.5);
        // Arithmetic twice as slow, sweep 1.5 times.
        assert_eq!(slowdown([0.003, 0.002], [0.002, 0.001]), 2.0);
        // Both faster than the quiet level: left alone.
        assert_eq!(slowdown([0.001, 0.0009], [0.002, 0.001]), 1.0);
        assert_eq!(slowdown([0.001, 0.001], [0.0, 0.0]), 1.0);
        assert_eq!(beside([1.0, 5.0], [3.0, 6.0]), [2.0, 5.5]);
    }

    #[test]
    fn probe_collects_bursts_and_finds_the_quiet_level() {
        let mut p = Probe::new();
        let b = p.burst();
        assert_eq!(p.samples.each_ref().map(Vec::len), [SAMPLES; 2]);
        assert!(b.iter().all(|&s| s > 0.0));
        p.samples = [(1..=100).map(f64::from).collect(), vec![3.0, 2.0, 7.0]];
        assert_eq!(p.quiet(), [1.0, 2.0]);
        assert_eq!(p.median(), [50.5, 3.0]);
    }
}
