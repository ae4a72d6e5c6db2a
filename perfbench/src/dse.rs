//! `dse-campaign`: the persistent campaign lifecycle on fresh cache
//! directories, pass after pass.
//!
//! 1. A `SweepEngine` run over the fine grid (`DesignSpace::paper()`,
//!    1813 points × 8 apps) with a disk cache and one worker
//!    ([`JOBS`]), interrupted through `fresh_limit` at a seeded point
//!    that changes every pass.
//! 2. A new engine resumes it to completion.
//! 3. A third engine runs it again warm: every point is a disk hit.
//! 4. `MultiNodeSweep` (cabinet) and `RecoverySweep` (standard) run
//!    cold, then warm.
//!
//! An analytic point costs about a microsecond, so the time goes to the
//! engine, the pool, key hashing and cache append (cold) and cache open
//! with CRC parsing (warm). The caches live on an in-memory filesystem
//! (see `memfs`), so the disk itself is left to the per-layer probes.
//! Every phase is checked against the in-memory `jobs = 1` oracle built
//! during set-up.

use std::path::Path;
use std::sync::Arc;

use ena_core::dse::{DesignSpace, Explorer, PointRecord};
use ena_fabric::{
    MultiNodeRecord, MultiNodeSpace, MultiNodeSweep, MultiNodeSweepSpec, RecoveryModel,
    RecoveryRecord, RecoverySpace, RecoverySweep, RecoverySweepSpec, ScaleOutSpec,
};
use ena_model::hash::MODEL_VERSION;
use ena_model::kernel::KernelProfile;
use ena_sweep::{
    campaign_digest, map_chunks_supervised, point_key, CacheMode, DiskCache, FrontierPoint, RealFs,
    RetryPolicy, SweepEngine, SweepError, SweepSpec, SyncPolicy, Vfs,
};
use ena_testkit::rng::Xoshiro256pp;
use ena_workloads::paper_profiles;

use crate::clock::{median, median_secs, timed, Speed, Stamp};
use crate::memfs::MemFs;
use crate::report::Checks;
use crate::trace::Tracer;
use crate::{Ctx, Measured};

/// Set-up repetitions (each computes the three oracles).
const SETUPS: usize = 21;

/// Worker threads of every timed sweep. One worker, not one per core:
/// on the shared 2-core host, how much a second worker helped a
/// few-millisecond sweep depended on how soon the host ran the second
/// core, and read differently from run to run (the recovery sweep's
/// cold run took 4.9 to 6.1 ms at two workers, 8.4 to 8.8 ms at one).
/// The probes still drive the pool at one worker per core.
const JOBS: usize = 1;

/// Multi-node campaigns run the paper's CoMD payload, as the CLI does.
const FABRIC_APP: &str = "CoMD";

/// The seeded inputs plus the sequential oracles every phase must match.
struct Inputs {
    profiles: Vec<KernelProfile>,
    /// Seed of the per-pass interruption points.
    cut_seed: u64,
    /// Monte Carlo seed of the recovery sweep.
    recovery_seed: u64,
    records: Vec<PointRecord>,
    frontier: Vec<FrontierPoint>,
    multinode: (Vec<MultiNodeRecord>, Vec<usize>),
    recovery: (Vec<RecoveryRecord>, Vec<usize>),
}

fn multinode_spec(jobs: usize, cache: CacheMode, fs: &Arc<dyn Vfs>) -> MultiNodeSweepSpec {
    MultiNodeSweepSpec {
        jobs,
        cache,
        fs: fs.clone(),
        ..MultiNodeSweepSpec::new(
            MultiNodeSpace::cabinet(),
            ScaleOutSpec::standard(FABRIC_APP),
        )
    }
}

fn recovery_spec(jobs: usize, cache: CacheMode, seed: u64, fs: &Arc<dyn Vfs>) -> RecoverySweepSpec {
    RecoverySweepSpec {
        jobs,
        cache,
        seed,
        fs: fs.clone(),
        ..RecoverySweepSpec::new(
            RecoverySpace::standard(),
            ScaleOutSpec::standard(FABRIC_APP),
            RecoveryModel::new(96.0, 3.0),
        )
    }
}

fn setup(seed: u64, checks: &mut Checks) -> Option<Inputs> {
    let profiles = paper_profiles();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let cut_seed = rng.next_u64();
    let recovery_seed = rng.next_u64();

    let oracle = SweepEngine::new(Explorer::default())
        .run(&SweepSpec::new(DesignSpace::paper(), profiles.clone()));
    let real: Arc<dyn Vfs> = Arc::new(RealFs);
    let multinode = MultiNodeSweep::new().run(&multinode_spec(1, CacheMode::Memory, &real));
    let recovery =
        RecoverySweep::new().run(&recovery_spec(1, CacheMode::Memory, recovery_seed, &real));
    match (oracle, multinode, recovery) {
        (Ok(o), Ok(mn), Ok(rc)) => Some(Inputs {
            profiles,
            cut_seed,
            recovery_seed,
            records: o.records,
            frontier: o.frontier,
            multinode: (mn.records, mn.frontier),
            recovery: (rc.records, rc.frontier),
        }),
        (o, mn, rc) => {
            for e in [
                o.err().map(|e| e.to_string()),
                mn.err().map(|e| e.to_string()),
                rc.err().map(|e| e.to_string()),
            ]
            .into_iter()
            .flatten()
            {
                checks.fail(format!("oracle: {e}"));
            }
            None
        }
    }
}

fn fine_spec(
    inputs: &Inputs,
    jobs: usize,
    dir: &Path,
    fresh_limit: Option<usize>,
    fs: &Arc<dyn Vfs>,
) -> SweepSpec {
    SweepSpec {
        jobs,
        cache: CacheMode::Disk(dir.to_path_buf()),
        fresh_limit,
        fs: fs.clone(),
        ..SweepSpec::new(DesignSpace::paper(), inputs.profiles.clone())
    }
}

/// Where a pass interrupts its first cold run: somewhere in the middle
/// half of the grid, so both cold phases do work. A new point every
/// pass, because the resume's cost grows with the records it reopens:
/// a run's median then spans the whole range instead of following the
/// one point its seed would pick.
fn next_cut(rng: &mut Xoshiro256pp, total: usize) -> usize {
    total / 4 + rng.bounded_u64((total / 2) as u64) as usize
}

/// One lifecycle on fresh cache directories of an empty in-memory
/// filesystem, interrupted after `cut` fresh points. Pushes the six
/// operation times, scaled to nominal host speed, onto `m.ops` and
/// returns their sum.
fn pass(
    ctx: &Ctx,
    inputs: &Inputs,
    cut: usize,
    tracer: &Tracer,
    speed: &mut Speed,
    m: &mut Measured,
    checks: &mut Checks,
) -> f64 {
    let first = m.passes.is_empty();
    let total = inputs.records.len();
    let dir = &ctx.run_dir;
    let sweep_dir = dir.join("sweep");
    let mn_dir = CacheMode::Disk(dir.join("multinode"));
    let rc_dir = CacheMode::Disk(dir.join("recovery"));
    let jobs = JOBS;
    let fs: Arc<dyn Vfs> = Arc::new(MemFs::default());

    let root = tracer.span("pass.dse-campaign");
    tracer.speed_sample(speed);
    let span = tracer.span("sweep.engine_cold");
    let cold = SweepEngine::new(Explorer::default()).run(&fine_spec(
        inputs,
        jobs,
        &sweep_dir,
        Some(cut),
        &fs,
    ));
    let t_cold = speed.scale(span.end());
    tracer.speed_sample(speed);
    let span = tracer.span("sweep.engine_resume");
    let resumed =
        SweepEngine::new(Explorer::default()).run(&fine_spec(inputs, jobs, &sweep_dir, None, &fs));
    let t_resume = speed.scale(span.end());
    tracer.speed_sample(speed);
    let span = tracer.span("sweep.engine_warm");
    let warm =
        SweepEngine::new(Explorer::default()).run(&fine_spec(inputs, jobs, &sweep_dir, None, &fs));
    let t_warm = speed.scale(span.end());

    tracer.speed_sample(speed);
    let span = tracer.span("fabric.sweep_cold");
    let (mn_cold, t_mn_cold) =
        timed(|| MultiNodeSweep::new().run(&multinode_spec(jobs, mn_dir.clone(), &fs)));
    let (rc_cold, t_rc_cold) = timed(|| {
        RecoverySweep::new().run(&recovery_spec(
            jobs,
            rc_dir.clone(),
            inputs.recovery_seed,
            &fs,
        ))
    });
    span.end();
    tracer.speed_sample(speed);
    let span = tracer.span("fabric.sweep_warm");
    let (mn_warm, t_mn_warm) =
        timed(|| MultiNodeSweep::new().run(&multinode_spec(jobs, mn_dir.clone(), &fs)));
    let (rc_warm, t_rc_warm) = timed(|| {
        RecoverySweep::new().run(&recovery_spec(
            jobs,
            rc_dir.clone(),
            inputs.recovery_seed,
            &fs,
        ))
    });
    span.end();
    root.end();

    // The interrupted run and its resume are one operation: making the
    // grid durable. Apart, their split would follow the seeded cut.
    let ops = [
        t_cold + t_resume,
        t_warm,
        speed.scale(t_mn_cold),
        speed.scale(t_rc_cold),
        speed.scale(t_mn_warm),
        speed.scale(t_rc_warm),
    ];
    m.ops.extend(ops);
    m.op_kinds = ops.len();
    m.headline.timing(
        "cold_points_per_s",
        total as f64 / (t_cold + t_resume),
        "points/s",
        1,
    );

    // Checks, untimed.
    match cold {
        Err(SweepError::Interrupted {
            completed,
            remaining,
        }) => checks.check(completed == cut && completed + remaining == total, || {
            format!(
                "interrupted run evaluated {completed}+{remaining}, expected {}+{}",
                cut,
                total - cut
            )
        }),
        Err(e) => checks.fail(format!("interrupted run: {e}")),
        Ok(_) => checks.fail("fresh_limit did not interrupt the cold run".into()),
    }
    let mut hits = 0usize;
    let mut fresh = 0usize;
    for (phase, outcome, want_hits) in [("resume", resumed, cut), ("warm", warm, total)] {
        match outcome {
            Ok(o) => {
                let t = &o.telemetry;
                checks.check(
                    t.cache_hits == want_hits && t.fresh_evals == total - want_hits,
                    || {
                        format!(
                            "{phase}: {} hits + {} fresh, expected {want_hits} + {}",
                            t.cache_hits,
                            t.fresh_evals,
                            total - want_hits
                        )
                    },
                );
                checks.check(o.quarantine.is_empty(), || {
                    format!("{phase}: {} chunks quarantined", o.quarantine.entries.len())
                });
                checks.check(
                    o.records == inputs.records && o.frontier == inputs.frontier,
                    || format!("{phase}: records or frontier differ from the jobs=1 oracle"),
                );
                if phase == "warm" {
                    hits = t.cache_hits;
                    m.layer.count("sweep.cache_hits", hits as f64, "count", 1);
                    m.layer.count("sweep.hit_rate", t.hit_rate(), "ratio", 1);
                } else {
                    fresh = cut + t.fresh_evals;
                }
                m.layer.count(
                    "sweep.quarantined",
                    o.quarantine.points() as f64,
                    "count",
                    1,
                );
                if first && phase == "warm" {
                    for r in &o.records {
                        m.digest.add(format!("{r:?}").as_bytes());
                    }
                    for f in &o.frontier {
                        m.digest.add(format!("{f:?}").as_bytes());
                    }
                }
            }
            Err(e) => checks.fail(format!("{phase}: {e}")),
        }
    }
    m.layer.count("sweep.fresh_evals", fresh as f64, "count", 1);
    if hits > 0 {
        m.headline
            .timing("warm_points_per_s", hits as f64 / t_warm, "points/s", 1);
    }

    let (mn_oracle, rc_oracle) = (&inputs.multinode, &inputs.recovery);
    for (phase, outcome, warm) in [
        ("multinode cold", &mn_cold, false),
        ("multinode warm", &mn_warm, true),
    ] {
        match outcome {
            Ok(o) => checks.check(
                o.records == mn_oracle.0
                    && o.frontier == mn_oracle.1
                    && o.cache_hits == if warm { o.total_points } else { 0 },
                || format!("{phase}: records, frontier or hit count differ from the oracle"),
            ),
            Err(e) => checks.fail(format!("{phase}: {e}")),
        }
    }
    for (phase, outcome, warm) in [
        ("recovery cold", &rc_cold, false),
        ("recovery warm", &rc_warm, true),
    ] {
        match outcome {
            Ok(o) => checks.check(
                o.records == rc_oracle.0
                    && o.frontier == rc_oracle.1
                    && o.cache_hits == if warm { o.total_points } else { 0 },
                || format!("{phase}: records, frontier or hit count differ from the oracle"),
            ),
            Err(e) => checks.fail(format!("{phase}: {e}")),
        }
    }
    if first {
        if let (Ok(mn), Ok(rc)) = (&mn_warm, &rc_warm) {
            m.digest
                .add(format!("{:?}{:?}", mn.records, mn.frontier).as_bytes());
            m.digest
                .add(format!("{:?}{:?}", rc.records, rc.frontier).as_bytes());
        }
    }
    ops.iter().sum()
}

/// Runs the workload for `budget_s` (at least two passes).
pub fn run(ctx: &Ctx, tracer: &Tracer, budget_s: f64, checks: &mut Checks) -> Measured {
    let mut m = Measured::default();
    let mut inputs = None;
    let mut speed = Speed::new();
    for _ in 0..SETUPS {
        let (i, secs) = speed.timed(|| setup(ctx.seed, checks));
        inputs = i;
        m.setup.push(secs);
    }
    let Some(inputs) = inputs else {
        return m;
    };

    let mut cuts = Xoshiro256pp::seed_from_u64(inputs.cut_seed);
    let total = inputs.records.len();
    let mut cold_rates = Vec::new();
    let mut warm_rates = Vec::new();
    let start = Stamp::now();
    while m.passes.len() < 2 || start.secs() < budget_s {
        let cut = next_cut(&mut cuts, total);
        let secs = pass(ctx, &inputs, cut, tracer, &mut speed, &mut m, checks);
        m.passes.push(secs);
        cold_rates.extend(m.headline.get("cold_points_per_s").map(|x| x.value));
        warm_rates.extend(m.headline.get("warm_points_per_s").map(|x| x.value));
    }
    speed.report(&mut m.headline);
    m.headline.timing(
        "cold_points_per_s",
        median(&cold_rates),
        "points/s",
        cold_rates.len(),
    );
    m.headline.timing(
        "warm_points_per_s",
        median(&warm_rates),
        "points/s",
        warm_rates.len(),
    );
    if tracer.enabled() {
        probes(ctx, tracer, &inputs, &mut m, checks);
    }
    m
}

/// Micro-probes of the sweep substrate, each a median over repetitions.
fn probes(ctx: &Ctx, tracer: &Tracer, inputs: &Inputs, m: &mut Measured, checks: &mut Checks) {
    const REPS: usize = 7;
    let profiles = &inputs.profiles;
    let explorer = Explorer::default();
    let coarse = DesignSpace::coarse();

    let mut explore_ok = true;
    let explore = median_secs(REPS, || {
        let span = tracer.span("core.explore");
        explore_ok &= explorer.explore(&coarse, profiles).is_ok();
        span.end();
    });
    checks.check(explore_ok, || "Explorer::explore failed".into());

    let points = coarse.points();
    let per_point = median_secs(REPS, || {
        for p in &points {
            std::hint::black_box(explorer.evaluate_point(*p, profiles));
        }
    }) / points.len() as f64;
    m.layer
        .timing("core.evaluate_point_us", per_point * 1e6, "us", REPS);

    let fine = DesignSpace::paper().points();
    let campaign = campaign_digest(&explorer, profiles);
    let per_key = median_secs(REPS, || {
        for _ in 0..20 {
            for p in &fine {
                std::hint::black_box(point_key(campaign, p));
            }
        }
    }) / (20 * fine.len()) as f64;
    m.layer
        .timing("model.point_key_ns", per_key * 1e9, "ns", REPS);

    let mut engine_ok = true;
    let engine = median_secs(REPS, || {
        let out = SweepEngine::new(Explorer::default())
            .run(&SweepSpec::new(coarse.clone(), profiles.clone()));
        engine_ok &= out.is_ok();
    });
    checks.check(engine_ok, || "in-memory engine run failed".into());
    m.layer
        .timing("sweep.engine_overhead", engine / explore, "ratio", REPS);

    const CHUNKS: usize = 256;
    let mut pool_ok = true;
    let pool = median_secs(REPS, || {
        let chunks: Vec<Vec<u8>> = (0..CHUNKS).map(|_| vec![0u8]).collect();
        pool_ok &=
            map_chunks_supervised(ctx.jobs, chunks, &RetryPolicy::default(), |_| (), |_, _| {})
                .is_ok();
    }) / CHUNKS as f64;
    checks.check(pool_ok, || "pool run failed".into());
    m.layer
        .timing("sweep.pool_chunk_us", pool * 1e6, "us", REPS);

    // Appends: 64 records per repetition, on a fresh file each time.
    let Some(record) = inputs.records.first() else {
        checks.fail("the oracle holds no records".into());
        return;
    };
    for (name, sync) in [
        ("sweep.append_us", SyncPolicy::PerRecord),
        ("sweep.append_flush_us", SyncPolicy::Flush),
    ] {
        let mut samples = Vec::new();
        for rep in 0..REPS {
            let dir = ctx.run_dir.join(format!("append-{name}-{rep}"));
            match DiskCache::<PointRecord>::open_with(
                Arc::new(RealFs),
                sync,
                &dir,
                campaign,
                MODEL_VERSION,
            ) {
                Ok((mut cache, _)) => {
                    let (ok, secs) = timed(|| (0..64u64).all(|k| cache.append(k, record).is_ok()));
                    checks.check(ok, || format!("{name}: append failed"));
                    samples.push(secs / 64.0);
                }
                Err(e) => checks.fail(format!("{name}: {e}")),
            }
        }
        m.layer
            .timing(name, median(&samples) * 1e6, "us", samples.len());
    }

    // Warm open: a completed fine-grid cache, opened and CRC-parsed.
    let dir = ctx.run_dir.join("open-probe");
    let real: Arc<dyn Vfs> = Arc::new(RealFs);
    let written =
        SweepEngine::new(Explorer::default()).run(&fine_spec(inputs, ctx.jobs, &dir, None, &real));
    checks.check(written.is_ok(), || {
        "writing the open-probe cache failed".into()
    });
    let mut records = 0usize;
    for _ in 0..REPS {
        let span = tracer.span("sweep.open");
        let opened = DiskCache::<PointRecord>::open_with(
            Arc::new(RealFs),
            SyncPolicy::default(),
            &dir,
            campaign,
            MODEL_VERSION,
        );
        span.end();
        match opened {
            Ok((_, entries)) => records = entries.len(),
            Err(e) => checks.fail(format!("sweep.open: {e}")),
        }
    }
    checks.check(records == inputs.records.len(), || {
        format!("warm open restored {records} records")
    });
    m.layer
        .count("sweep.open_records", records as f64, "count", REPS);
}
