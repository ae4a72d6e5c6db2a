//! `serve-mix`: an in-process `Server` over loopback TCP, with the
//! `ena serve --cache` defaults and persistence on, driven by a seeded
//! load generator in the same process (`nproc` threads, one connection
//! each).
//!
//! Set-up pre-writes (untimed) a cache file with the coarse grid, then
//! times `Server::new` warm-loading it. The generator then runs open
//! loop at one fixed offered rate — latency is measured from each
//! request's *scheduled* send time, so a stalled server cannot hide its
//! queueing — and then closed loop, back to back, pass after pass.
//!
//! Request mix, per request: ~70 % single `EVAL`s of Zipf-distributed
//! fine-grid points (two connections touching one cold key exercise the
//! single-flight wait), ~15 % `EVAL`s of never-seen off-grid points
//! (a fresh evaluation plus a durable append before the ack), ~13 %
//! pipelined runs of 16 Zipf `EVAL`s (batching), ~2 % `SWEEP coarse`,
//! `FRONTIER` or `STATS`.
//!
//! Checks: every `OK` body of an `EVAL` equals the rendering of
//! `Explorer::evaluate_point` under the sweep key, the other verbs
//! answer `OK`, `STATS` balances `lookups == hits + evals + waits`, and
//! no protocol error, `BUSY` or `ERR` is ever seen.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ena_core::dse::{ConfigPoint, DesignSpace, Explorer};
use ena_model::kernel::KernelProfile;
use ena_serve::{Client, Request, ServeConfig, Server};
use ena_sweep::{
    campaign_digest, evaluate_batch, point_key, CacheMode, CacheRecord, SweepEngine, SweepSpec,
    SyncPolicy,
};
use ena_testkit::rng::Xoshiro256pp;
use ena_testkit::transport;
use ena_workloads::paper_profiles;

use crate::clock::{median, median_secs, tail, timed, Speed, Stamp};
use crate::report::Checks;
use crate::trace::Tracer;
use crate::{Ctx, Measured};

/// Offered load of the open-loop phase, requests per second over all
/// connections: about half the closed-loop capacity of the mix measured
/// on a 2-core host.
pub const OFFERED_RPS: f64 = 12.0;

/// A request counts towards goodput when answered within this limit.
const LIMIT_S: f64 = 0.010;

/// Share of the budget spent open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.8;

/// Requests per connection in one closed-loop pass.
const CLOSED_PER_CONN: usize = 10;

/// Set-up repetitions.
const SETUPS: usize = 40;

/// Zipf exponent of the hot-key distribution.
const ZIPF_S: f64 = 1.0;

/// One scheduled request: its frames (one, or 16 pipelined) and its
/// send time in seconds after the phase starts (open loop only).
#[derive(Clone, Debug)]
struct Req {
    at: f64,
    lines: Vec<String>,
}

/// The seeded request generator.
struct Gen {
    rng: Xoshiro256pp,
    /// Fine-grid `EVAL` lines in Zipf rank order (a seeded permutation).
    hot: Vec<String>,
    cdf: Vec<f64>,
    cus: Vec<u32>,
    next_unique: u64,
}

fn eval_line(p: &ConfigPoint) -> String {
    format!(
        "EVAL {} {} {}",
        p.cus,
        p.clock.value(),
        p.bandwidth.terabytes_per_sec()
    )
}

impl Gen {
    fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5e7e_5e7e);
        let space = DesignSpace::paper();
        let mut hot: Vec<String> = space.points().iter().map(eval_line).collect();
        rng.shuffle(&mut hot);
        let weights: Vec<f64> = (1..=hot.len())
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let next_unique = rng.bounded_u64(100_000);
        Self {
            rng,
            hot,
            cdf,
            cus: space.cu_counts,
            next_unique,
        }
    }

    fn zipf(&mut self) -> String {
        let u = self.rng.next_f64();
        let i = self.cdf.partition_point(|&c| c < u);
        self.hot[i.min(self.hot.len() - 1)].clone()
    }

    /// An off-grid point no earlier request named: the clock carries a
    /// 0.5 kHz offset, so it is never on the 25 MHz grid, and a counter.
    fn unique(&mut self) -> String {
        let cus = self.cus[self.rng.bounded_u64(self.cus.len() as u64) as usize];
        let tbps = 1 + self.rng.bounded_u64(7);
        let mhz = 600.0005 + self.next_unique as f64 * 0.001;
        self.next_unique += 1;
        format!("EVAL {cus} {mhz:.4} {tbps}")
    }

    fn request(&mut self, at: f64) -> Req {
        let u = self.rng.next_f64();
        let lines = if u < 0.70 {
            vec![self.zipf()]
        } else if u < 0.85 {
            vec![self.unique()]
        } else if u < 0.98 {
            (0..16).map(|_| self.zipf()).collect()
        } else {
            let verb = ["SWEEP coarse", "FRONTIER", "STATS"][self.rng.bounded_u64(3) as usize];
            vec![verb.to_string()]
        };
        Req { at, lines }
    }

    /// Per-connection schedules: `count` requests each, evenly spaced at
    /// `interval` seconds, connections staggered within one interval.
    fn schedules(&mut self, conns: usize, count: usize, interval: f64) -> Vec<Vec<Req>> {
        let mut out: Vec<Vec<Req>> = (0..conns).map(|_| Vec::with_capacity(count)).collect();
        for i in 0..count {
            for (c, reqs) in out.iter_mut().enumerate() {
                let at = i as f64 * interval + c as f64 * interval / conns as f64;
                reqs.push(self.request(at));
            }
        }
        out
    }
}

/// One answered (or failed) request.
#[derive(Debug)]
struct Done {
    lines: Vec<String>,
    bodies: Result<Vec<String>, String>,
    /// Actual send time minus scheduled send time (open loop).
    lag: f64,
    /// Seconds until the last response, from the scheduled send time
    /// (open loop) or the actual send time (closed loop).
    latency: f64,
}

/// Opens a client connection the way `ena client` does (Nagle's
/// algorithm left on), plus a read timeout so that a wedged server fails
/// requests instead of hanging the run.
fn connect(addr: SocketAddr) -> std::io::Result<Client<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    Ok(Client::new(stream))
}

/// Drives one connection through `reqs`.
fn drive(
    addr: SocketAddr,
    reqs: &[Req],
    base: Stamp,
    open_loop: bool,
    tracer: &Tracer,
    parent: Option<u64>,
    first_id: u64,
) -> Vec<Done> {
    let mut client = connect(addr);
    let mut out = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        if open_loop {
            base.sleep_until(r.at);
        }
        let sent = base.secs();
        let span = tracer.span_under("serve.request", parent, Some(first_id + i as u64));
        let bodies = match (&mut client, r.lines.as_slice()) {
            (Ok(c), [line]) => c.request(line).map(|b| vec![b]),
            (Ok(c), lines) => {
                let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
                c.pipeline(&refs)
            }
            (Err(e), _) => Err(std::io::Error::new(e.kind(), e.to_string())),
        };
        span.end();
        let done = base.secs();
        if bodies.is_err() {
            client = connect(addr);
        }
        out.push(Done {
            lines: r.lines.clone(),
            bodies: bodies.map_err(|e| e.to_string()),
            lag: if open_loop { sent - r.at } else { 0.0 },
            latency: done - if open_loop { r.at } else { sent },
        });
    }
    out
}

/// Runs every connection's schedule concurrently under a root span.
fn phase(
    addr: SocketAddr,
    schedules: &[Vec<Req>],
    open_loop: bool,
    tracer: &Tracer,
    root_name: &str,
) -> (Vec<Vec<Done>>, f64) {
    let root = tracer.span(root_name);
    let parent = root.id();
    let base = Stamp::now();
    let done = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                let first_id = (c as u64) << 32;
                scope.spawn(move || drive(addr, reqs, base, open_loop, tracer, parent, first_id))
            })
            .collect();
        // A panicked connection thread fails every request it owned.
        handles
            .into_iter()
            .zip(schedules)
            .map(|(h, reqs)| {
                h.join().unwrap_or_else(|_| {
                    reqs.iter()
                        .map(|r| Done {
                            lines: r.lines.clone(),
                            bodies: Err("connection thread panicked".into()),
                            lag: 0.0,
                            latency: f64::INFINITY,
                        })
                        .collect()
                })
            })
            .collect()
    });
    (done, root.end())
}

/// Expected response bodies, memoized per request line.
struct Oracle {
    explorer: Explorer,
    profiles: Vec<KernelProfile>,
    campaign: u64,
    sweep_body: String,
    memo: BTreeMap<String, String>,
}

impl Oracle {
    fn new() -> Self {
        let explorer = Explorer::default();
        let profiles = paper_profiles();
        let campaign = campaign_digest(&explorer, &profiles);
        let records: Vec<_> = DesignSpace::coarse()
            .points()
            .into_iter()
            .map(|p| explorer.evaluate_point(p, &profiles))
            .collect();
        let sweep_body = match explorer.reduce(&records, &profiles) {
            Ok(r) => format!(
                "OK sweep points={} feasible={} best cus={} mhz={} gbps={}",
                r.evaluated,
                r.feasible,
                r.best_mean.cus,
                r.best_mean.clock.value(),
                r.best_mean.bandwidth.value(),
            ),
            Err(e) => format!("ERR {e}"),
        };
        Self {
            explorer,
            profiles,
            campaign,
            sweep_body,
            memo: BTreeMap::new(),
        }
    }

    /// True when `body` is the right answer to `line`.
    fn accepts(&mut self, line: &str, body: &str) -> bool {
        match Request::parse(line) {
            Ok(Request::Eval(point)) => {
                let (explorer, profiles, campaign) =
                    (&self.explorer, &self.profiles, self.campaign);
                let expected = self.memo.entry(line.to_string()).or_insert_with(|| {
                    let cp = point.to_config_point();
                    let record = explorer.evaluate_point(cp, profiles);
                    format!("OK {:016x} {}", point_key(campaign, &cp), record.encode())
                });
                body == expected
            }
            Ok(Request::Sweep { fine: false }) => body == self.sweep_body,
            Ok(Request::Frontier) => body.starts_with("OK frontier n="),
            Ok(Request::Stats) => body.starts_with("OK stats\n"),
            _ => false,
        }
    }
}

/// Checks every response of a phase, folding bodies into the digest
/// when `digest` is set. Returns per-request latencies (failures as
/// infinity: they count as beyond any limit).
fn verify(
    done: &[Vec<Done>],
    oracle: &mut Oracle,
    checks: &mut Checks,
    mut digest: Option<&mut crate::report::Digest>,
) -> Vec<f64> {
    let mut latencies = Vec::new();
    for d in done.iter().flatten() {
        let ok = match &d.bodies {
            Ok(bodies) => {
                bodies.len() == d.lines.len()
                    && d.lines
                        .iter()
                        .zip(bodies)
                        .all(|(line, body)| oracle.accepts(line, body))
            }
            Err(_) => false,
        };
        checks.check(ok, || match &d.bodies {
            Ok(bodies) => format!(
                "wrong or refused response to {:?}: {:?}",
                d.lines.first(),
                bodies
                    .iter()
                    .find(|b| !b.starts_with("OK"))
                    .or(bodies.first())
            ),
            Err(e) => format!("request {:?} failed: {e}", d.lines.first()),
        });
        if let (Some(digest), Ok(bodies)) = (digest.as_deref_mut(), &d.bodies) {
            for (line, body) in d.lines.iter().zip(bodies) {
                // STATS and FRONTIER bodies depend on arrival order.
                if line.starts_with("EVAL") || line.starts_with("SWEEP") {
                    digest.add(line.as_bytes());
                    digest.add(body.as_bytes());
                }
            }
        }
        latencies.push(if ok { d.latency } else { f64::INFINITY });
    }
    latencies
}

/// Parses `key=value` fields of the `STATS` body.
fn stats_fields(body: &str) -> BTreeMap<String, u64> {
    body.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.trim_end_matches('%').parse().ok()?)))
        .collect()
}

/// Runs the workload for `budget_s`.
pub fn run(ctx: &Ctx, tracer: &Tracer, budget_s: f64, checks: &mut Checks) -> Measured {
    let mut m = Measured::default();
    let conns = ctx.jobs;
    let cache_dir = ctx.run_dir.join("serve-cache");
    let profiles = paper_profiles();

    // Untimed: the coarse grid, pre-written by the batch engine.
    let prewrite = SweepEngine::new(Explorer::default()).run(&SweepSpec {
        jobs: ctx.jobs,
        cache: CacheMode::Disk(cache_dir.clone()),
        sync: SyncPolicy::Flush,
        ..SweepSpec::new(DesignSpace::coarse(), profiles.clone())
    });
    let coarse = DesignSpace::coarse().len();
    checks.check(prewrite.is_ok(), || {
        "pre-writing the coarse cache failed".into()
    });

    let open_s = budget_s * OPEN_SHARE;
    let per_conn = ((OFFERED_RPS / conns as f64) * open_s).ceil().max(1.0) as usize;
    let interval = conns as f64 / OFFERED_RPS;
    let mut load = Vec::new();
    let mut ready = None;
    let mut speed = Speed::new();
    for _ in 0..SETUPS {
        let (built, secs) = speed.timed(|| {
            let mut gen = Gen::new(ctx.seed);
            let schedules = gen.schedules(conns, per_conn, interval);
            let config = ServeConfig {
                cache_dir: Some(cache_dir.clone()),
                ..ServeConfig::new(Explorer::default(), profiles.clone())
            };
            let (server, load_s) = timed(|| Server::new(config));
            load.push(load_s);
            let listener = TcpListener::bind("127.0.0.1:0");
            (gen, schedules, server, listener)
        });
        m.setup.push(secs);
        ready = Some(built);
    }
    speed.report(&mut m.headline);
    let Some((mut gen, schedules, Ok((server, restored)), Ok(listener))) = ready else {
        checks.fail("server set-up failed (cache open or loopback bind)".into());
        return m;
    };
    checks.check(restored == coarse, || {
        format!("warm load restored {restored} of {coarse} records")
    });
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            checks.fail(format!("listener address: {e}"));
            return m;
        }
    };
    let server = Arc::new(server);
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(listener))
    };

    let mut oracle = Oracle::new();

    // Open loop at the fixed offered rate.
    let (open, open_secs) = phase(addr, &schedules, true, tracer, "pass.serve-mix.open");
    m.ops = verify(&open, &mut oracle, checks, Some(&mut m.digest));
    let lags: Vec<f64> = open.iter().flatten().map(|d| d.lag).collect();
    let sent = lags.len();

    // Closed loop, pass after pass on fresh scripts.
    let mut good = 0usize;
    let mut closed_requests = 0usize;
    let closed_start = Stamp::now();
    while m.passes.len() < 2 || closed_start.secs() < budget_s - open_s {
        let scripts: Vec<Vec<Req>> = (0..conns)
            .map(|_| (0..CLOSED_PER_CONN).map(|_| gen.request(0.0)).collect())
            .collect();
        let (done, secs) = phase(addr, &scripts, false, tracer, "pass.serve-mix.closed");
        let first = m.passes.is_empty();
        let latencies = verify(&done, &mut oracle, checks, first.then_some(&mut m.digest));
        good += latencies.iter().filter(|&&l| l <= LIMIT_S).count();
        closed_requests += latencies.len();
        m.passes.push(secs);
    }
    let closed_total: f64 = m.passes.iter().sum();

    // Accounting, read both over the wire and from the counters.
    let stats = connect(addr).and_then(|mut c| c.request("STATS"));
    match &stats {
        Ok(body) => {
            let f = stats_fields(body);
            let get = |k: &str| f.get(k).copied().unwrap_or(u64::MAX);
            checks.check(
                get("lookups") == get("hits") + get("evals") + get("waits"),
                || format!("STATS does not balance: {body}"),
            );
            checks.check(get("protocol_errors") == 0 && get("busy") == 0, || {
                format!("STATS reports protocol errors or BUSY: {body}")
            });
        }
        Err(e) => checks.fail(format!("STATS request failed: {e}")),
    }

    if tracer.enabled() {
        probes(tracer, &server, addr, &profiles, &mut m, checks);
    }
    let c = server.counters();
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    let (hits, lookups) = (get(&c.hits), get(&c.lookups));
    m.layer.count("serve.hits", hits, "count", 1);
    m.layer.count("serve.evals", get(&c.evals), "count", 1);
    m.layer.count("serve.waits", get(&c.waits), "count", 1);
    m.layer.count("serve.busy", get(&c.busy), "count", 1);
    m.layer.count(
        "serve.hit_rate",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
        1,
    );
    m.layer.count(
        "serve.batch_mean",
        get(&c.batched_evals) / get(&c.batches).max(1.0),
        "evals",
        1,
    );
    m.layer
        .timing("serve.load_ms", median(&load) * 1e3, "ms", load.len());
    match tail(&lags, 0.99, 10) {
        Some((lag, _)) => m.layer.count("loadgen.lag_p99_ms", lag * 1e3, "ms", sent),
        None => checks.fail(format!("only {sent} open-loop requests were sent")),
    }
    m.layer.count("loadgen.sent", sent as f64, "count", 1);

    let bye = connect(addr).and_then(|mut c| c.request("SHUTDOWN"));
    // Join only a server that acknowledged SHUTDOWN; otherwise the join
    // could block forever, and process exit ends the thread instead.
    match bye {
        Ok(b) if b == "OK bye" => match serving.join() {
            Ok(Ok(_)) => checks.pass(1),
            Ok(Err(e)) => checks.fail(format!("server: {e}")),
            Err(_) => checks.fail("server thread panicked".into()),
        },
        other => checks.fail(format!("SHUTDOWN answered {other:?}")),
    }

    let p50 = median(&m.ops);
    m.headline
        .timing("serve_p50_ms", p50 * 1e3, "ms", m.ops.len());
    if let Some((p99, _)) = tail(&m.ops, 0.99, 10) {
        m.headline
            .timing("serve_p99_ms", p99 * 1e3, "ms", m.ops.len());
    }
    m.headline.timing(
        "serve_goodput_rps",
        good as f64 / closed_total,
        "req/s",
        closed_requests,
    );
    m.headline.timing(
        "closed_capacity_rps",
        closed_requests as f64 / closed_total,
        "req/s",
        m.passes.len(),
    );
    m.headline.timing("offered_rps", OFFERED_RPS, "req/s", 1);
    m.headline
        .timing("achieved_open_rps", sent as f64 / open_secs, "req/s", sent);
    m
}

/// Round-trip and store probes against the live server.
fn probes(
    tracer: &Tracer,
    server: &Server,
    addr: SocketAddr,
    profiles: &[KernelProfile],
    m: &mut Measured,
    checks: &mut Checks,
) {
    const REPS: usize = 3;
    const CALLS: usize = 10;
    let warm = "EVAL 320 1000 3";

    let explorer = Explorer::default();
    let campaign = server.campaign();
    let batch: Vec<(u64, ConfigPoint)> = DesignSpace::coarse()
        .points()
        .into_iter()
        .take(64)
        .map(|p| (point_key(campaign, &p), p))
        .collect();
    let per_point = median_secs(REPS * 4, || {
        std::hint::black_box(evaluate_batch(&explorer, &batch, profiles));
    }) / batch.len() as f64;
    m.layer
        .timing("sweep.batch_eval_us", per_point * 1e6, "us", REPS * 4);

    // Framing plus store over an in-process pipe: no sockets.
    let (near, far) = transport::pair();
    let pipe = std::thread::scope(|scope| {
        scope.spawn(|| server.handle(far));
        let mut client = Client::new(near);
        let mut ok = true;
        let secs = median_secs(REPS, || {
            let span = tracer.span("serve.pipe_rt");
            for _ in 0..CALLS {
                ok &= client.request(warm).is_ok_and(|b| b.starts_with("OK "));
            }
            span.end();
        });
        drop(client);
        (ok, secs)
    });
    checks.check(pipe.0, || "pipe round trip failed".into());
    m.layer
        .timing("serve.pipe_rt_us", pipe.1 / CALLS as f64 * 1e6, "us", REPS);

    // The same over loopback TCP.
    match connect(addr) {
        Ok(mut client) => {
            let mut ok = true;
            let secs = median_secs(REPS, || {
                let span = tracer.span("serve.tcp_rt");
                for _ in 0..CALLS {
                    ok &= client.request(warm).is_ok_and(|b| b.starts_with("OK "));
                }
                span.end();
            });
            checks.check(ok, || "TCP round trip failed".into());
            m.layer
                .timing("serve.tcp_rt_us", secs / CALLS as f64 * 1e6, "us", REPS);
        }
        Err(e) => checks.fail(format!("TCP probe connect: {e}")),
    }

    // A claim on a ready key: one shard lock and an Arc clone.
    let key = match Request::parse(warm) {
        Ok(Request::Eval(p)) => point_key(campaign, &p.to_config_point()),
        _ => 0,
    };
    const CLAIMS: usize = 20_000;
    let mut ready = true;
    let secs = median_secs(REPS, || {
        for _ in 0..CLAIMS {
            ready &= matches!(server.store().claim(key), ena_serve::Claim::Ready(_));
        }
    });
    checks.check(ready, || "claim on a warm key was not Ready".into());
    m.layer
        .timing("serve.claim_ns", secs / CLAIMS as f64 * 1e9, "ns", REPS);
}
