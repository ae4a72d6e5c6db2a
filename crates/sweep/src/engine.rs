//! The sweep engine: memoized, parallel, resumable design-space
//! exploration that is byte-identical to the sequential oracle.
//!
//! [`Memo::run`] is the one campaign driver: it opens the campaign's
//! disk cache, keys the points, evaluates the fresh ones on the
//! supervised pool, checkpoints each chunk as it lands, and merges the
//! records in grid order. [`SweepEngine`] is its node-level caller; the
//! fabric sweeps in `ena-fabric` are the others. Each caller supplies its
//! points, campaign digest, key function and kernel, then reduces.
//!
//! Determinism argument, in three parts:
//!
//! 1. **Same kernel.** Every point is evaluated by
//!    [`Explorer::evaluate_point`] — the exact function the sequential
//!    [`Explorer::explore`] calls — and the simulator underneath is
//!    deterministic, so a point's record does not depend on *when*,
//!    *where*, or *how often* it is computed.
//! 2. **Order-independent merge.** Workers return chunks tagged with
//!    their index; the driver reassembles records in grid order before
//!    the caller reduces. Scheduling order never reaches the reduction.
//! 3. **Bit-exact memoization.** Cached records store `f64`s by bit
//!    pattern (in memory and on disk), so a cache hit replays the very
//!    bits a fresh evaluation would produce.
//!
//! Hence `reduce(merge(...))` sees the same bytes whatever the thread
//! count, cache temperature, or interruption history.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ena_core::dse::{DesignSpace, DseError, DseResult, PointRecord};
use ena_core::Explorer;
use ena_model::hash::{StableHash, StableHasher, MODEL_VERSION};
use ena_model::kernel::KernelProfile;
use ena_testkit::chaos::{RealFs, Vfs};

use crate::cache::{CacheError, CacheRecord, DiskCache, SyncPolicy};
use crate::pareto::{pareto_frontier, FrontierPoint};
use crate::pool::{map_chunks_supervised, PoolError, RetryPolicy, WorkerStats};

#[cfg(feature = "timing")]
mod clock {
    /// Wall-clock run timer, available only under the `timing` feature:
    /// everything outside telemetry stays wall-clock-free so results are
    /// a pure function of inputs.
    #[derive(Clone, Copy, Debug)]
    pub struct RunClock(std::time::Instant);

    impl RunClock {
        pub fn start() -> Self {
            Self(std::time::Instant::now())
        }

        pub fn elapsed(&self) -> std::time::Duration {
            self.0.elapsed()
        }
    }
}

#[cfg(not(feature = "timing"))]
mod clock {
    /// Deterministic stand-in: without the `timing` feature every run
    /// reports zero elapsed time, keeping the default build free of
    /// wall-clock reads.
    #[derive(Clone, Copy, Debug)]
    pub struct RunClock;

    impl RunClock {
        pub fn start() -> Self {
            Self
        }

        pub fn elapsed(&self) -> std::time::Duration {
            std::time::Duration::ZERO
        }
    }
}

/// Where memoized evaluations live between runs.
#[derive(Clone, Debug)]
pub enum CacheMode {
    /// In-process only: hits across runs of the same engine instance.
    Memory,
    /// Persistent under the given directory: hits across processes, and
    /// checkpoint/resume of interrupted campaigns.
    Disk(PathBuf),
}

/// One sweep request.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The design space to sweep.
    pub space: DesignSpace,
    /// Application profiles to evaluate at every point.
    pub profiles: Vec<KernelProfile>,
    /// Worker thread count (clamped to at least 1).
    pub jobs: usize,
    /// Points per work-stealing chunk.
    pub chunk_points: usize,
    /// Memoization layer.
    pub cache: CacheMode,
    /// Evaluate at most this many *fresh* (uncached) points, then stop
    /// with [`SweepError::Interrupted`] — everything evaluated so far is
    /// already checkpointed. `None` runs to completion. Exists to make
    /// interruption deterministic and testable.
    pub fresh_limit: Option<usize>,
    /// Filesystem the disk cache talks through: [`RealFs`] in
    /// production, a seeded `ChaosFs` in chaos campaigns.
    pub fs: Arc<dyn Vfs>,
    /// Durability policy for cache appends (checkpoints).
    pub sync: SyncPolicy,
    /// Retry budget for panicking chunks before they are quarantined.
    pub retry: RetryPolicy,
}

impl SweepSpec {
    /// A sequential, memory-cached spec over `space` and `profiles`,
    /// on the real filesystem with default durability and retry policy.
    pub fn new(space: DesignSpace, profiles: Vec<KernelProfile>) -> Self {
        Self {
            space,
            profiles,
            jobs: 1,
            chunk_points: 16,
            cache: CacheMode::Memory,
            fresh_limit: None,
            fs: Arc::new(RealFs),
            sync: SyncPolicy::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Sweep progress/efficiency telemetry.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// Points in the swept space.
    pub total_points: usize,
    /// Points answered from the memoization cache.
    pub cache_hits: usize,
    /// Points evaluated fresh this run.
    pub fresh_evals: usize,
    /// Chunks handed to the pool.
    pub chunks: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Per-worker execution counters (utilization).
    pub workers: Vec<WorkerStats>,
}

impl Telemetry {
    /// Fraction of points served by the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.total_points == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.total_points as f64
        }
    }

    /// Overall points per second (cached and fresh), or `None` when no
    /// time was measured (every build without the `timing` feature).
    pub fn points_per_sec(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        (secs > 0.0).then(|| self.total_points as f64 / secs)
    }
}

/// One chunk the supervisor pulled out of the sweep, with the point
/// keys it was carrying.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineEntry {
    /// Index of the chunk in submission order.
    pub chunk_index: usize,
    /// Memoization keys of the points in the chunk.
    pub keys: Vec<u64>,
    /// Attempts made before quarantine (1 + retries).
    pub attempts: u32,
    /// Panic message of the final attempt.
    pub message: String,
    /// Modeled retry backoff consumed (µs).
    pub backoff_us: f64,
}

/// Deterministic account of everything quarantined during a sweep,
/// ordered by chunk index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuarantineReport {
    /// Quarantined chunks in chunk-index order.
    pub entries: Vec<QuarantineEntry>,
}

impl QuarantineReport {
    /// True when nothing was quarantined (the run is byte-identical to
    /// the sequential oracle).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total points pulled out of the sweep.
    pub fn points(&self) -> usize {
        self.entries.iter().map(|e| e.keys.len()).sum()
    }

    /// Renders the report as stable text (no wall-clock, no addresses).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // fmt::Write to a String is infallible; discard the Ok values.
        let _ = writeln!(
            out,
            "quarantine: {} chunk(s), {} point(s)",
            self.entries.len(),
            self.points()
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "  chunk {} ({} points, {} attempts, backoff {:.1} us): {}",
                e.chunk_index,
                e.keys.len(),
                e.attempts,
                e.backoff_us,
                e.message
            );
        }
        out
    }
}

/// Everything a completed sweep produced.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The oracle reductions (best-mean, Table II per-app bests).
    pub result: DseResult,
    /// Pareto frontier over (mean perf, peak power, peak temperature).
    pub frontier: Vec<FrontierPoint>,
    /// Every evaluated record, in design-space point order. Quarantined
    /// points are absent (and listed in `quarantine`).
    pub records: Vec<PointRecord>,
    /// Chunks the supervisor quarantined after exhausting retries.
    /// Empty on a healthy run — and an empty report guarantees the
    /// outcome is byte-identical to the sequential oracle.
    pub quarantine: QuarantineReport,
    /// Run telemetry.
    pub telemetry: Telemetry,
}

/// Sweep failure modes, shared by every campaign kind. `E` is the
/// kind's per-point evaluation error; the node sweep's kernel cannot
/// fail, so its default is [`Infallible`].
#[derive(Debug)]
pub enum SweepError<E = Infallible> {
    /// The design space has no points.
    EmptySpace,
    /// No application profiles were supplied.
    EmptyProfiles,
    /// The run hit its `fresh_limit`; progress is checkpointed.
    Interrupted {
        /// Fresh points evaluated (and checkpointed) before stopping.
        completed: usize,
        /// Fresh points the full campaign still needs.
        remaining: usize,
    },
    /// The first point, in grid order, that failed to evaluate.
    Eval(E),
    /// The persistent cache failed.
    Cache(CacheError),
    /// The worker pool lost chunks before completing the sweep.
    Pool(PoolError),
    /// The reduction over the merged records failed.
    Dse(DseError),
    /// A point's record vanished between evaluation and merge — an
    /// engine-internal invariant violation, reported rather than assumed.
    MissingRecord {
        /// The memoization key with no record.
        key: u64,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for SweepError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptySpace => write!(f, "empty design space"),
            Self::EmptyProfiles => write!(f, "no profiles to evaluate"),
            Self::Interrupted {
                completed,
                remaining,
            } => write!(
                f,
                "sweep interrupted after {completed} fresh evaluations ({remaining} remaining, checkpointed)"
            ),
            Self::Eval(e) => write!(f, "sweep point: {e}"),
            Self::Cache(e) => write!(f, "sweep cache: {e}"),
            Self::Pool(e) => write!(f, "sweep pool: {e}"),
            Self::Dse(e) => write!(f, "sweep reduction: {e}"),
            Self::MissingRecord { key } => {
                write!(f, "no record for point key {key:#018x} at merge time")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for SweepError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Eval(e) => Some(e),
            Self::Cache(e) => Some(e),
            Self::Pool(e) => Some(e),
            Self::Dse(e) => Some(e),
            _ => None,
        }
    }
}

impl<E> From<CacheError> for SweepError<E> {
    fn from(e: CacheError) -> Self {
        Self::Cache(e)
    }
}

impl<E> From<PoolError> for SweepError<E> {
    fn from(e: PoolError) -> Self {
        Self::Pool(e)
    }
}

impl<E> From<DseError> for SweepError<E> {
    fn from(e: DseError) -> Self {
        Self::Dse(e)
    }
}

/// A hook invoked with each point's memoization key just before the
/// point is evaluated. May panic — that is its purpose: chaos campaigns
/// inject deterministic worker kills through it, and the supervised pool
/// catches them. Production sweeps leave it unset.
pub type Failpoint = Arc<dyn Fn(u64) + Send + Sync>;

/// Digest of everything besides the point coordinates that determines an
/// evaluation: budget, evaluation options, and the profile set. The
/// model version is deliberately *not* folded in — it lives in the
/// cache-file header so a bump is detected and evicted rather than
/// silently shunted to a fresh file next to the stale one.
///
/// Public so other memoization layers (e.g. `ena-serve`'s shard store)
/// address the *same* cache files the sweep engine writes.
pub fn campaign_digest(explorer: &Explorer, profiles: &[KernelProfile]) -> u64 {
    let mut h = StableHasher::new();
    h.write_f64(explorer.budget.value());
    // EvalOptions has no stable-hash impl of its own; its Debug form
    // covers every field (miss fraction + optimization list).
    h.write_str(&format!("{:?}", explorer.options));
    profiles.stable_hash(&mut h);
    h.finish()
}

/// Content address of one design point within a campaign — the
/// memoization key used in memory and on disk. Shared with `ena-serve`
/// so a serving cache and a sweep cache are interchangeable.
pub fn point_key(campaign: u64, point: &ena_core::dse::ConfigPoint) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(campaign);
    h.write_u32(point.cus);
    h.write_f64(point.clock.value());
    h.write_f64(point.bandwidth.value());
    h.finish()
}

/// Evaluates one batch of keyed points as a single engine chunk:
/// sequentially, in the order given, through the same pure
/// [`Explorer::evaluate_point`] kernel the sweep pool uses. Results are
/// therefore byte-identical to any other evaluation of the same points.
pub fn evaluate_batch(
    explorer: &Explorer,
    batch: &[(u64, ena_core::dse::ConfigPoint)],
    profiles: &[KernelProfile],
) -> Vec<(u64, PointRecord)> {
    batch
        .iter()
        .map(|(key, point)| (*key, explorer.evaluate_point(*point, profiles)))
        .collect()
}

/// How one memoized run executes: the knobs every campaign spec
/// carries, borrowed from it.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec<'a> {
    /// Worker thread count (clamped to at least 1).
    pub jobs: usize,
    /// Points per work-stealing chunk (clamped to at least 1).
    pub chunk_points: usize,
    /// Memoization layer.
    pub cache: &'a CacheMode,
    /// Evaluate at most this many fresh points, then stop with
    /// [`SweepError::Interrupted`]; `None` runs to completion.
    pub fresh_limit: Option<usize>,
    /// Filesystem the disk cache talks through.
    pub fs: &'a Arc<dyn Vfs>,
    /// Durability policy for cache appends.
    pub sync: SyncPolicy,
    /// Retry budget for panicking chunks before they are quarantined.
    pub retry: RetryPolicy,
}

/// What one memoized run produced, before the campaign's own reduction.
#[derive(Clone, Debug)]
pub struct MemoRun<R> {
    /// Every record, in grid order. Quarantined points are absent (and
    /// listed in `quarantine`).
    pub records: Vec<R>,
    /// Chunks the supervisor quarantined after exhausting retries.
    pub quarantine: QuarantineReport,
    /// Points answered from the memoization cache.
    pub cache_hits: usize,
    /// Points evaluated fresh this run.
    pub fresh_evals: usize,
    /// Chunks handed to the pool.
    pub chunks: usize,
    /// Per-worker execution counters.
    pub workers: Vec<WorkerStats>,
}

/// The memoized campaign driver every sweep kind runs through: the
/// records evaluated or loaded so far, keyed by content address, plus
/// the model-version stamp its cache files are checked against and an
/// optional [`Failpoint`].
pub struct Memo<R> {
    version: String,
    records: BTreeMap<u64, R>,
    failpoint: Option<Failpoint>,
}

impl<R> Default for Memo<R> {
    /// An empty memo stamped with the current [`MODEL_VERSION`].
    fn default() -> Self {
        Self {
            version: MODEL_VERSION.to_string(),
            records: BTreeMap::new(),
            failpoint: None,
        }
    }
}

impl<R> std::fmt::Debug for Memo<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("version", &self.version)
            .field("entries", &self.records.len())
            .field("failpoint", &self.failpoint.is_some())
            .finish()
    }
}

impl<R: CacheRecord + Send> Memo<R> {
    /// Installs a [`Failpoint`] invoked before every fresh evaluation
    /// (chaos/test hook; production engines leave it unset).
    pub fn with_failpoint(mut self, failpoint: Failpoint) -> Self {
        self.failpoint = Some(failpoint);
        self
    }

    /// Overrides the model-version stamp (test hook for the eviction
    /// path; production code keeps the default).
    pub fn with_version(mut self, version: impl Into<String>) -> Self {
        self.version = version.into();
        self.records.clear();
        self
    }

    /// Runs one memoized campaign over `points`: loads the disk cache of
    /// `campaign`, keys every point with `key`, evaluates the points not
    /// yet memoized on the supervised work-stealing pool (checkpointing
    /// each chunk as it lands), and merges the records in grid order.
    ///
    /// # Errors
    ///
    /// [`SweepError::EmptySpace`] for no points,
    /// [`SweepError::Interrupted`] when `fresh_limit` stops the run early
    /// (already-evaluated points are checkpointed), [`SweepError::Eval`]
    /// for the first point that failed to evaluate, and
    /// [`SweepError::Cache`] / [`SweepError::Pool`] /
    /// [`SweepError::MissingRecord`] on infrastructure failures.
    pub fn run<P, E>(
        &mut self,
        spec: &RunSpec<'_>,
        campaign: u64,
        points: &[P],
        key: impl Fn(u64, &P) -> u64,
        evaluate: impl Fn(&P) -> Result<R, E> + Sync,
    ) -> Result<MemoRun<R>, SweepError<E>>
    where
        P: Clone + Send,
        E: Send,
    {
        if points.is_empty() {
            return Err(SweepError::EmptySpace);
        }
        let mut disk = match spec.cache {
            CacheMode::Memory => None,
            CacheMode::Disk(dir) => {
                let (cache, entries) =
                    DiskCache::open_with(spec.fs.clone(), spec.sync, dir, campaign, &self.version)?;
                self.records.extend(entries);
                Some(cache)
            }
        };

        let keys: Vec<u64> = points.iter().map(|p| key(campaign, p)).collect();
        let fresh: Vec<(u64, P)> = keys
            .iter()
            .zip(points)
            .filter(|(key, _)| !self.records.contains_key(*key))
            .map(|(key, point)| (*key, point.clone()))
            .collect();
        let scheduled = &fresh[..fresh.len().min(spec.fresh_limit.unwrap_or(fresh.len()))];
        let chunk_points = spec.chunk_points.max(1);
        let chunks: Vec<Vec<(u64, P)>> = scheduled
            .chunks(chunk_points)
            .map(<[(u64, P)]>::to_vec)
            .collect();
        let n_chunks = chunks.len();

        let failpoint = &self.failpoint;
        let mut io_error: Option<CacheError> = None;
        let (verdicts, workers) = map_chunks_supervised(
            spec.jobs,
            chunks,
            &spec.retry,
            |(key, point)| {
                if let Some(fp) = failpoint {
                    fp(*key);
                }
                (*key, evaluate(point))
            },
            |_, results: &[(u64, Result<R, E>)]| {
                // Checkpoint every fresh record as it lands; an error here
                // aborts the run after the pool drains.
                if let (Some(cache), None) = (disk.as_mut(), &io_error) {
                    for (key, record) in results {
                        let Ok(record) = record else { continue };
                        if let Err(e) = cache.append(*key, record) {
                            io_error = Some(e);
                            break;
                        }
                    }
                }
            },
        )?;
        if let Some(e) = io_error {
            return Err(SweepError::Cache(e));
        }

        // Verdicts come back in chunk order, which is grid order over
        // the fresh points; so is the first evaluation error kept here.
        let mut quarantine = QuarantineReport::default();
        let mut eval_error = None;
        for (verdict, chunk) in verdicts.into_iter().zip(scheduled.chunks(chunk_points)) {
            match verdict {
                Ok(results) => {
                    for (key, result) in results {
                        match result {
                            Ok(record) => {
                                self.records.insert(key, record);
                            }
                            Err(e) => {
                                eval_error.get_or_insert(e);
                            }
                        }
                    }
                }
                Err(q) => quarantine.entries.push(QuarantineEntry {
                    chunk_index: q.index,
                    keys: chunk.iter().map(|(key, _)| *key).collect(),
                    attempts: q.attempts,
                    message: q.message,
                    backoff_us: q.backoff_us,
                }),
            }
        }
        if let Some(e) = eval_error {
            return Err(SweepError::Eval(e));
        }
        if scheduled.len() < fresh.len() {
            return Err(SweepError::Interrupted {
                completed: scheduled.len(),
                remaining: fresh.len() - scheduled.len(),
            });
        }

        // Merge in grid order: the only order a reduction ever sees.
        // Quarantined points are excluded (and accounted for in the
        // report); any *other* missing record is an invariant violation.
        let quarantined: BTreeSet<u64> = quarantine
            .entries
            .iter()
            .flat_map(|e| e.keys.iter().copied())
            .collect();
        let mut records = Vec::with_capacity(keys.len());
        for key in keys {
            match self.records.get(&key) {
                Some(record) => records.push(record.clone()),
                None if quarantined.contains(&key) => {}
                None => return Err(SweepError::MissingRecord { key }),
            }
        }
        Ok(MemoRun {
            records,
            cache_hits: points.len() - fresh.len(),
            fresh_evals: scheduled.len() - quarantine.points(),
            quarantine,
            chunks: n_chunks,
            workers,
        })
    }
}

/// The memoizing sweep engine.
#[derive(Debug)]
pub struct SweepEngine {
    explorer: Explorer,
    memo: Memo<PointRecord>,
}

impl SweepEngine {
    /// An engine evaluating through `explorer`, stamped with the current
    /// [`MODEL_VERSION`].
    pub fn new(explorer: Explorer) -> Self {
        Self {
            explorer,
            memo: Memo::default(),
        }
    }

    /// Installs a [`Failpoint`] invoked before every fresh evaluation
    /// (chaos/test hook; production engines leave it unset).
    pub fn with_failpoint(mut self, failpoint: Failpoint) -> Self {
        self.memo = self.memo.with_failpoint(failpoint);
        self
    }

    /// Overrides the model-version stamp (test hook for the eviction
    /// path; production code keeps the default).
    pub fn with_version(mut self, version: impl Into<String>) -> Self {
        self.memo = self.memo.with_version(version);
        self
    }

    /// The explorer this engine evaluates through.
    pub fn explorer(&self) -> &Explorer {
        &self.explorer
    }

    /// This engine's campaign digest over `profiles`; see the free
    /// function [`campaign_digest`].
    pub fn campaign_digest(&self, profiles: &[KernelProfile]) -> u64 {
        campaign_digest(&self.explorer, profiles)
    }

    /// Runs one sweep through the [`Memo`] driver, then reduces the
    /// merged records (oracle bests and Pareto frontier).
    ///
    /// # Errors
    ///
    /// The driver's errors (see [`Memo::run`]),
    /// [`SweepError::EmptyProfiles`], and [`SweepError::Dse`] when the
    /// reduction fails (e.g. no feasible point under the budget).
    pub fn run(&mut self, spec: &SweepSpec) -> Result<SweepOutcome, SweepError> {
        let started = clock::RunClock::start();
        if spec.space.is_empty() {
            return Err(SweepError::EmptySpace);
        }
        if spec.profiles.is_empty() {
            return Err(SweepError::EmptyProfiles);
        }
        let run = RunSpec {
            jobs: spec.jobs,
            chunk_points: spec.chunk_points,
            cache: &spec.cache,
            fresh_limit: spec.fresh_limit,
            fs: &spec.fs,
            sync: spec.sync,
            retry: spec.retry,
        };
        let explorer = &self.explorer;
        let points = spec.space.points();
        let memo = self.memo.run(
            &run,
            campaign_digest(explorer, &spec.profiles),
            &points,
            point_key,
            |point| Ok::<_, Infallible>(explorer.evaluate_point(*point, &spec.profiles)),
        )?;

        let result = explorer.reduce(&memo.records, &spec.profiles)?;
        let frontier = pareto_frontier(explorer, &memo.records, spec.profiles.len());
        let telemetry = Telemetry {
            total_points: points.len(),
            cache_hits: memo.cache_hits,
            fresh_evals: memo.fresh_evals,
            chunks: memo.chunks,
            jobs: spec.jobs.max(1),
            elapsed: started.elapsed(),
            workers: memo.workers,
        };
        Ok(SweepOutcome {
            result,
            frontier,
            records: memo.records,
            quarantine: memo.quarantine,
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_are_rejected() {
        let mut engine = SweepEngine::new(Explorer::default());
        let empty_space = DesignSpace {
            cu_counts: vec![],
            clocks: vec![],
            bandwidths: vec![],
        };
        assert!(matches!(
            engine.run(&SweepSpec::new(empty_space, vec![])),
            Err(SweepError::EmptySpace)
        ));
        assert!(matches!(
            engine.run(&SweepSpec::new(DesignSpace::coarse(), vec![])),
            Err(SweepError::EmptyProfiles)
        ));
    }

    #[test]
    fn telemetry_rates_are_sane() {
        let t = Telemetry {
            total_points: 100,
            cache_hits: 90,
            fresh_evals: 10,
            chunks: 2,
            jobs: 2,
            elapsed: Duration::from_millis(500),
            workers: vec![],
        };
        assert!((t.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(t.points_per_sec(), Some(200.0));
        let unmeasured = Telemetry {
            elapsed: Duration::ZERO,
            ..t
        };
        assert_eq!(unmeasured.points_per_sec(), None);
    }
}
