//! `perfbench`: the ENA stack's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-artifacts|dse-campaign|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload drives the crates'
//! public APIs in process on seeded inputs for `--seconds` of host time,
//! checks every output it produces, and prints a readable report
//! followed by one JSON line:
//!
//! * `--trace 0`: the end-to-end metrics (`setup_s`, `pass_s`,
//!   `op_median_ms`, `op_tail_ms`, `peak_rss_mb`). Compute-bound
//!   timings are scaled to nominal host speed by [`clock::Speed`].
//! * `--trace 1`: the per-layer metrics. Spans wrap every call into a
//!   crate; all three workloads run traced (the selected one also
//!   untraced, for the tracing overhead) plus the per-layer probes. The
//!   spans are written as Chrome trace-event JSON.
//!
//! Any failed check, refused request or nonsensical timing makes the
//! command exit nonzero. `perfbench/design.json` records what every
//! metric measures and why each workload exists.

#![forbid(unsafe_code)]

mod artifacts;
mod clock;
mod dse;
mod memfs;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use clock::{median, tail};
use report::{Checks, Digest, Metrics};
use trace::Tracer;

/// The seed that reproduces the committed golden artifacts.
pub const CANONICAL_SEED: u64 = 0xC0FFEE;

/// The end-to-end metrics, in output order.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "pass_s",
    "op_median_ms",
    "op_tail_ms",
    "peak_rss_mb",
];

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper-artifacts", "dse-campaign", "serve-mix"];

/// Everything a workload needs to know about this run.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Worker threads / connections (the host's core count).
    pub jobs: usize,
    /// Scratch directory for caches; removed when the run ends.
    pub run_dir: PathBuf,
}

impl Ctx {
    /// True on the seed that reproduces the goldens.
    pub fn canonical(&self) -> bool {
        self.seed == CANONICAL_SEED
    }
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up repetition.
    pub setup: Vec<f64>,
    /// Seconds per pass over the workload's fixed operation set.
    pub passes: Vec<f64>,
    /// Seconds per user-visible operation (a report, a sweep run, a
    /// served request).
    pub ops: Vec<f64>,
    /// Operation kinds when a pass runs a fixed sequence of different
    /// operations once each: `ops[i]` is then of kind `i % op_kinds`.
    /// Zero or one for a stream of like operations.
    pub op_kinds: usize,
    /// Workload-specific headline numbers (printed, not in the JSON).
    pub headline: Metrics,
    /// Per-layer numbers that are not span times (probes, counters).
    pub layer: Metrics,
    /// Digest of every simulated output.
    pub digest: Digest,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(parse_seed(&v).ok_or(format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(CANONICAL_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Where caches and traces go: under the build directory, which is
/// never committed.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// Runs one workload in a scratch directory of its own, so a second
/// measurement in the same process starts from empty caches too.
fn run_workload(
    name: &str,
    ctx: &Ctx,
    tracer: &Tracer,
    budget_s: f64,
    checks: &mut Checks,
) -> Measured {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let ctx = &Ctx {
        run_dir: ctx
            .run_dir
            .join(format!("{name}-{}", RUNS.fetch_add(1, Ordering::Relaxed))),
        ..ctx.clone()
    };
    match name {
        "paper-artifacts" => artifacts::run(ctx, tracer, budget_s, checks),
        "dse-campaign" => dse::run(ctx, tracer, budget_s, checks),
        _ => serve::run(ctx, tracer, budget_s, checks),
    }
}

/// The operation samples split by kind (empty for a stream of like
/// operations).
fn by_kind(m: &Measured) -> Vec<Vec<f64>> {
    if m.op_kinds < 2 {
        return Vec::new();
    }
    (0..m.op_kinds)
        .map(|k| m.ops.iter().skip(k).step_by(m.op_kinds).copied().collect())
        .collect()
}

/// The end-to-end metrics of one measurement.
///
/// `op_median_ms` and `op_tail_ms` read a stream of like operations
/// (served requests) as its median and its highest percentile with at
/// least 10 samples beyond. A pass of different operation kinds run once
/// each reads as the median over kinds of each kind's median, and as the
/// median of the slowest kind: there the plain median of all samples
/// sits exactly between two kinds and flips from one to the other.
fn end_to_end(m: &Measured, checks: &mut Checks) -> Metrics {
    let mut out = Metrics::default();
    out.timing("setup_s", median(&m.setup), "s", m.setup.len());
    out.timing("pass_s", median(&m.passes), "s", m.passes.len());
    let kinds: Vec<f64> = by_kind(m).iter().map(|v| median(v)).collect();
    if kinds.is_empty() {
        out.timing("op_median_ms", median(&m.ops) * 1e3, "ms", m.ops.len());
        match tail(&m.ops, 0.99, 10) {
            Some((v, q)) => {
                out.timing("op_tail_ms", v * 1e3, "ms", m.ops.len());
                checks.note(format!(
                    "op_tail_ms is the p{:.1} of {} operations",
                    q * 100.0,
                    m.ops.len()
                ));
            }
            None => checks.fail(format!(
                "op_tail_ms needs more than 10 operations, got {}",
                m.ops.len()
            )),
        }
    } else {
        out.timing("op_median_ms", median(&kinds) * 1e3, "ms", m.ops.len());
        let slowest = kinds.iter().copied().fold(f64::NAN, f64::max);
        out.timing("op_tail_ms", slowest * 1e3, "ms", m.ops.len() / kinds.len());
    }
    match report::peak_rss_mib() {
        Some(mib) => out.timing("peak_rss_mb", mib, "MiB", 1),
        None => checks.fail("peak_rss_mb: /proc/self/status has no VmHWM".into()),
    }
    out
}

/// Span-derived per-layer metrics: mean inclusive milliseconds per call
/// of each span name.
const SPAN_METRICS: [&str; 16] = [
    "workloads.characterize",
    "workloads.app_run",
    "thermal.solve",
    "gpu.sim",
    "noc.run",
    "memory.replay",
    "faults.campaign",
    "faults.transient",
    "fabric.campaign",
    "core.explore",
    "sweep.engine_cold",
    "sweep.engine_resume",
    "sweep.engine_warm",
    "fabric.sweep_cold",
    "fabric.sweep_warm",
    "sweep.open",
];

/// Every per-layer metric the traced run prints, in output order.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = artifacts::report_names()
        .iter()
        .map(|r| format!("artifact.{r}_ms"))
        .collect();
    names.extend(SPAN_METRICS.iter().map(|s| format!("{s}_ms")));
    for n in [
        "thermal.solves",
        "thermal.iterations",
        "gpu.sims",
        "noc.packets",
        "core.evaluate_point_us",
        "model.point_key_ns",
        "sweep.engine_overhead",
        "sweep.pool_chunk_us",
        "sweep.append_us",
        "sweep.append_flush_us",
        "sweep.open_records",
        "sweep.fresh_evals",
        "sweep.cache_hits",
        "sweep.hit_rate",
        "sweep.quarantined",
        "sweep.batch_eval_us",
        "serve.pipe_rt_us",
        "serve.tcp_rt_us",
        "serve.claim_ns",
        "serve.load_ms",
        "serve.hits",
        "serve.evals",
        "serve.waits",
        "serve.busy",
        "serve.hit_rate",
        "serve.batch_mean",
        "loadgen.lag_p99_ms",
        "loadgen.sent",
        "trace.overhead_pct",
        "trace.uncovered_ms",
        "trace.spans",
    ] {
        names.push(n.to_string());
    }
    names
}

/// The traced run: the selected workload untraced then traced (for the
/// overhead), the other two traced on short budgets, every probe, and
/// the per-layer metrics derived from the spans.
fn traced(args: &Args, ctx: &Ctx, checks: &mut Checks) -> (Metrics, Digest) {
    let half = args.seconds / 2.0;
    let untraced = run_workload(&args.workload, ctx, &Tracer::new(false), half, checks);
    let tracer = Tracer::new(true);
    let selected = run_workload(&args.workload, ctx, &tracer, half, checks);
    let mut layer = Metrics::default();
    for name in WORKLOADS.iter().filter(|w| **w != args.workload) {
        // Short budgets: two artifact passes, a few seconds of the others.
        let short = match *name {
            "paper-artifacts" => 0.0,
            "dse-campaign" => 2.0,
            _ => 4.0,
        };
        layer.merge(&run_workload(name, ctx, &tracer, short, checks).layer);
    }
    layer.merge(&selected.layer);

    let spans = tracer.spans();
    let stats = trace::by_name(&spans);
    for name in artifacts::report_names()
        .iter()
        .map(|r| format!("artifact.{r}"))
        .chain(SPAN_METRICS.iter().map(|s| s.to_string()))
    {
        let (value, calls) = stats
            .get(&name)
            .map_or((0.0, 0), |s| (s.total / s.calls as f64 * 1e3, s.calls));
        layer.timing(&format!("{name}_ms"), value, "ms", calls);
    }

    let overhead = median(&selected.passes) / median(&untraced.passes) - 1.0;
    layer.count(
        "trace.overhead_pct",
        overhead * 100.0,
        "%",
        selected.passes.len() + untraced.passes.len(),
    );
    let root = format!("pass.{}", args.workload);
    let selfs = trace::self_times(&spans);
    let roots: Vec<&trace::SpanRecord> =
        spans.iter().filter(|s| s.name.starts_with(&root)).collect();
    let uncovered: f64 = roots
        .iter()
        .map(|s| selfs.get(&s.id).copied().unwrap_or(0.0))
        .sum();
    let wall: f64 = roots.iter().map(|s| s.secs()).sum();
    layer.count(
        "trace.uncovered_ms",
        uncovered / roots.len().max(1) as f64 * 1e3,
        "ms",
        roots.len(),
    );
    layer.count("trace.spans", spans.len() as f64, "count", 1);

    println!("traced-run overhead for {}:", args.workload);
    let (u, t) = (end_to_end(&untraced, checks), end_to_end(&selected, checks));
    for name in ["setup_s", "pass_s", "op_median_ms", "op_tail_ms"] {
        if let (Some(a), Some(b)) = (u.get(name), t.get(name)) {
            println!(
                "  {name:<12} untraced {:>12.4} traced {:>12.4} delta {:>+10.4} {}",
                a.value,
                b.value,
                b.value - a.value,
                a.unit
            );
        }
    }
    println!(
        "top-level span coverage of {root}*: {:.2}% of {:.3} s ({:.3} ms uncovered)",
        if wall > 0.0 {
            100.0 * (1.0 - uncovered / wall)
        } else {
            0.0
        },
        wall,
        uncovered * 1e3
    );
    println!("\nself time per span (all traced workloads and probes):");
    print!("{}", trace::self_time_table(&spans));

    let dir = out_dir().join("perfbench-traces");
    let path = dir.join(format!("{}-{:x}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
    {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => checks.fail(format!("cannot write {}: {e}", path.display())),
    }
    (layer, selected.digest)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_dir = out_dir().join("perfbench-run").join(format!(
        "{}-{:x}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let ctx = Ctx {
        seed: args.seed,
        jobs,
        run_dir,
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench: workload={} seed={:#x} seconds={} trace={} cores={jobs} profile={profile}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut checks = Checks::default();
    let (metrics, names, digest): (Metrics, Vec<String>, Digest) = if args.trace {
        let (layer, digest) = traced(&args, &ctx, &mut checks);
        (layer, per_layer_names(), digest)
    } else {
        let m = run_workload(
            &args.workload,
            &ctx,
            &Tracer::new(false),
            args.seconds,
            &mut checks,
        );
        println!("\nworkload headline numbers:");
        print!("{}", m.headline.table());
        for (name, v) in [("setup", &m.setup), ("pass", &m.passes), ("op", &m.ops)] {
            println!("{name} samples (s): {}", clock::summary(v));
        }
        for (kind, v) in by_kind(&m).iter().enumerate() {
            println!("op kind {kind} samples (s): {}", clock::summary(v));
        }
        (
            end_to_end(&m, &mut checks),
            END_TO_END.iter().map(|s| s.to_string()).collect(),
            m.digest,
        )
    };
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    metrics.validate(&name_refs, &mut checks);
    if let Err(e) = std::fs::remove_dir_all(&ctx.run_dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            checks.fail(format!("cannot remove {}: {e}", ctx.run_dir.display()));
        }
    }

    println!("\nmetrics:");
    print!("{}", metrics.table());
    println!("output digest: {:016x}", digest.value());
    for note in &checks.notes {
        println!("note: {note}");
    }
    for failure in &checks.failures {
        println!("FAILED: {failure}");
    }
    println!(
        "checks: {} attempted, {} failed (failed_frac {})",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted.max(1),
        checks.failed,
        metrics.json(&name_refs)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_read_as_median_and_slowest_kind_medians() {
        // Three kinds run once per pass, five passes.
        let mut m = Measured {
            op_kinds: 3,
            ..Measured::default()
        };
        for pass in 0..5 {
            let jitter = f64::from(pass) * 1e-4;
            m.ops
                .extend([0.001 + jitter, 0.010 + jitter, 0.004 + jitter]);
        }
        let mut checks = Checks::default();
        let out = end_to_end(&m, &mut checks);
        let ms = |name: &str| out.get(name).map(|x| x.value).unwrap();
        assert!((ms("op_median_ms") - 4.2).abs() < 1e-9);
        assert!((ms("op_tail_ms") - 10.2).abs() < 1e-9);
    }

    #[test]
    fn a_stream_reads_as_median_and_tail() {
        let m = Measured {
            ops: (1..=100).map(|i| f64::from(i) * 1e-3).collect(),
            ..Measured::default()
        };
        let mut checks = Checks::default();
        let out = end_to_end(&m, &mut checks);
        assert!((out.get("op_median_ms").unwrap().value - 50.5).abs() < 1e-9);
        assert!((out.get("op_tail_ms").unwrap().value - 90.0).abs() < 1e-9);
    }
}
