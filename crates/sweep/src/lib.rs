//! Deterministic parallel design-space exploration for the ENA toolkit.
//!
//! The paper's central artifact (Sections V-VI) is a sweep: over a
//! thousand EHP configurations evaluated under a 160 W budget to find the
//! best-mean design and the Table II per-app oracles. This crate turns
//! that sweep from a loop into a subsystem:
//!
//! - [`pool`] — a std-only work-stealing thread pool with an
//!   order-independent, index-keyed merge and per-chunk supervision
//!   (caught panics, bounded retries, deterministic quarantine).
//! - [`cache`] — content-addressed memoization with a crash-consistent
//!   on-disk layer (bit-exact round-trip, per-line CRC32, explicit
//!   flush+fsync policy, atomic temp-and-rename repair, generation
//!   header) enabling checkpoint/resume, all behind the injectable
//!   [`Vfs`](ena_testkit::chaos::Vfs) filesystem trait.
//! - [`pareto`] — frontier extraction over (mean perf, peak power, peak
//!   DRAM temperature).
//! - [`engine`] — the [`Memo`] campaign driver tying them together
//!   (cache open, point keys, fresh filter, supervised pool, per-chunk
//!   checkpoint, grid-order merge) for every sweep kind, and the
//!   node-level [`SweepEngine`] on top of it, with [`Telemetry`] (cache
//!   hit rate, per-worker utilization, points/sec under `timing`). The
//!   fabric sweeps in `ena-fabric` are the driver's other callers.
//! - [`chaos`] — seeded chaos campaigns that drive the whole stack
//!   through injected I/O faults and worker kills and assert the
//!   serving invariants (parseable caches, no lost acknowledged
//!   records, fault-free frontier).
//!
//! The headline property: a [`SweepEngine`] run is **byte-identical** to
//! the sequential [`Explorer`](ena_core::Explorer) oracle for any thread
//! count, cache state, or interruption history — parallelism and
//! memoization are pure go-faster knobs, never sources of drift.
//!
//! # Example
//!
//! ```
//! use ena_core::dse::DesignSpace;
//! use ena_core::Explorer;
//! use ena_sweep::{SweepEngine, SweepSpec};
//! use ena_workloads::paper_profiles;
//!
//! let mut engine = SweepEngine::new(Explorer::default());
//! let spec = SweepSpec {
//!     jobs: 2,
//!     ..SweepSpec::new(DesignSpace::coarse(), paper_profiles())
//! };
//! let outcome = engine.run(&spec).expect("sweep completes");
//! assert_eq!(
//!     outcome.result,
//!     Explorer::default().explore(&spec.space, &spec.profiles).unwrap(),
//! );
//! // The frontier contains the best-mean point.
//! assert!(outcome
//!     .frontier
//!     .iter()
//!     .any(|f| f.point == outcome.result.best_mean));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod engine;
pub mod pareto;
pub mod pool;

pub use cache::{
    crc32, hex_field, read_file_info, verify_file, CacheError, CacheFileInfo, CacheRecord,
    DiskCache, SyncPolicy, VerifyError, VerifyReport,
};
pub use chaos::{run_chaos_campaign, ChaosError, ChaosReport, ChaosSpec};
pub use engine::{
    campaign_digest, evaluate_batch, point_key, CacheMode, Failpoint, Memo, MemoRun,
    QuarantineEntry, QuarantineReport, RunSpec, SweepEngine, SweepError, SweepOutcome, SweepSpec,
    Telemetry,
};
pub use pareto::{frontier_indices, pareto_frontier, FrontierPoint};
pub use pool::{map_chunks_supervised, QuarantinedChunk, RetryPolicy, WorkerStats};

pub use ena_testkit::chaos::{ChaosConfig, ChaosFs, RealFs, Vfs};
