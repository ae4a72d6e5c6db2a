//! The benchmark's one wall clock and the order statistics every metric
//! is reduced with.
//!
//! Everything the benchmark reports is *host time*: what the simulator
//! takes to run on this machine, never simulated time. All of it is
//! read through [`Stamp`], so there is exactly one clock read in the
//! whole program. Compute-bound timings are then scaled to nominal host
//! speed by [`Speed`].

use std::collections::VecDeque;
use std::time::Duration;

use crate::report::Metrics;

/// A point in host time.
#[derive(Clone, Copy, Debug)]
pub struct Stamp(
    // ena:allow(no-wallclock): the benchmark's one clock type, since host time is what it measures
    std::time::Instant,
);

impl Stamp {
    /// The current host time.
    pub fn now() -> Self {
        // ena:allow(no-wallclock): the benchmark measures host time, and this is its only clock read
        Self(std::time::Instant::now())
    }

    /// Seconds elapsed since this stamp.
    pub fn secs(&self) -> f64 {
        Self::now().secs_since(*self)
    }

    /// Seconds from `earlier` to this stamp (zero if `earlier` is later).
    pub fn secs_since(&self, earlier: Stamp) -> f64 {
        self.0.saturating_duration_since(earlier.0).as_secs_f64()
    }

    /// Sleeps until `offset_s` seconds after this stamp (no-op when that
    /// moment has passed).
    pub fn sleep_until(&self, offset_s: f64) {
        let remaining = offset_s - self.secs();
        if remaining > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(remaining));
        }
    }
}

/// Reference-kernel samples the speed estimate is the median of.
const SPEED_WINDOW: usize = 15;

/// Seconds the reference kernel takes at nominal host speed: about the
/// median of its samples on the 2-core host the benchmark was tuned on,
/// which read 1.6 to 2.2 ms from run to run.
const NOMINAL_REFERENCE_S: f64 = 2.0e-3;

/// Host-speed reference for compute-bound timings.
///
/// The benchmark runs on a few cores of a shared host, whose speed moves
/// by tens of percent over minutes as other tenants load it; every
/// timing of compute-bound work moves with it. `Speed` runs a fixed
/// reference kernel (none of it ENA code) right before each timed
/// operation, and scales the operation's seconds by the nominal kernel
/// time over the median of the last [`SPEED_WINDOW`] kernel samples. A
/// scaled timing reads in seconds at nominal host speed: a change to
/// the simulator moves it in full, a change of host speed mostly not.
#[derive(Debug)]
pub struct Speed {
    recent: VecDeque<f64>,
    /// Every sample of the run, for the report.
    all: Vec<f64>,
    /// The kernel's buffers, allocated once so that its time does not
    /// depend on the state the workload leaves the allocator in.
    grid: Vec<f64>,
    table: Vec<u64>,
}

/// Side of the kernel's stencil grid (72 KiB of `f64`).
const GRID: usize = 96;

/// Slots of the kernel's hash table (32 KiB of `u64`).
const TABLE: usize = 4096;

impl Speed {
    /// A speed reference warmed up with three windows of samples (the
    /// first samples of a process run slow).
    pub fn new() -> Self {
        let mut speed = Self {
            recent: VecDeque::with_capacity(SPEED_WINDOW),
            all: Vec::new(),
            grid: vec![0.0; GRID * GRID],
            table: vec![0; TABLE],
        };
        for _ in 0..3 * SPEED_WINDOW {
            speed.sample();
        }
        speed.all.clear();
        speed
    }

    /// Runs the reference kernel once and records its time.
    pub fn sample(&mut self) {
        let start = Stamp::now();
        self.kernel();
        let secs = start.secs();
        if self.recent.len() == SPEED_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(secs);
        self.all.push(secs);
    }

    /// The fixed reference work: 40 relaxation sweeps of a stencil on a
    /// cache-resident grid (floating point, streaming loads), then
    /// 60 000 xorshift-keyed updates of a linear-probing hash table
    /// (integer, data-dependent branches and loads).
    fn kernel(&mut self) {
        const N: usize = GRID;
        let grid = &mut self.grid;
        grid.fill(0.0);
        grid[..N].fill(1.0);
        for _ in 0..40 {
            for y in 1..N - 1 {
                for x in 1..N - 1 {
                    let i = y * N + x;
                    grid[i] = 0.25 * (grid[i - 1] + grid[i + 1] + grid[i - N] + grid[i + N]);
                }
            }
        }
        let table = &mut self.table;
        table.fill(0);
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..60_000 {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            let key = (h % 3000) | 1;
            let mut slot = (key.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 52) as usize;
            while table[slot] != 0 && table[slot] != key {
                slot = (slot + 1) % TABLE;
            }
            table[slot] = key;
        }
        std::hint::black_box((&self.grid, &self.table));
    }

    /// The current estimate: median seconds of the recent kernel samples.
    pub fn reference_s(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        median(&recent)
    }

    /// Prints the run's median kernel time beside the workload's headline
    /// numbers.
    pub fn report(&self, headline: &mut Metrics) {
        headline.timing(
            "speed.reference_ms",
            median(&self.all) * 1e3,
            "ms",
            self.all.len(),
        );
    }

    /// `secs` scaled to nominal host speed by the current estimate.
    pub fn scale(&self, secs: f64) -> f64 {
        secs * NOMINAL_REFERENCE_S / self.reference_s()
    }

    /// Takes one reference sample, then times `f`; returns its result
    /// and its scaled seconds.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        self.sample();
        let (out, secs) = timed(f);
        (out, self.scale(secs))
    }
}

/// Times `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Stamp::now();
    let out = f();
    (out, start.secs())
}

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// for an empty slice, which the report layer refuses to print.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile by nearest rank, or — when fewer than `min_beyond`
/// samples would lie above it — the highest rank that keeps `min_beyond`
/// samples beyond it. Returns the value and the quantile actually used.
/// `None` when there are not enough samples for any such rank.
pub fn tail(values: &[f64], q: f64, min_beyond: usize) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= min_beyond {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let nearest = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = nearest.min(n - 1 - min_beyond);
    Some((v[idx], (idx + 1) as f64 / n as f64))
}

/// `n=.. min q1 median q3 max` of `values`, for the readable report.
pub fn summary(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    if v.is_empty() {
        return "n=0".into();
    }
    format!(
        "n={} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        v.len(),
        at(0.0),
        at(0.25),
        median(&v),
        at(0.75),
        at(1.0)
    )
}

/// Runs `f` `reps` times and returns the median seconds per call, each
/// call timed on its own.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn speed_scales_in_proportion() {
        let mut speed = Speed::new();
        let one = speed.scale(1.0);
        assert!(one.is_finite() && one > 0.0);
        assert!((speed.scale(3.0) - 3.0 * one).abs() < 1e-12 * one);
        let ((), secs) = speed.timed(|| ());
        assert!(secs.is_finite() && secs >= 0.0);
    }

    #[test]
    fn tail_keeps_enough_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one beyond it; 10 are required.
        let (value, q) = tail(&v, 0.99, 10).unwrap();
        assert_eq!(value, 90.0);
        assert!((q - 0.90).abs() < 1e-12);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big, 0.99, 10).unwrap().0, 1980.0);
        assert!(tail(&v[..10], 0.99, 10).is_none());
    }
}
