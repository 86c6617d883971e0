//! `serve_mixed`: an in-process `digiq-serve` daemon with one eval
//! worker and one sweep worker, driven by a closed loop of two client
//! connections (each waits for its report before it sends again).
//!
//! Requests come from the `sweep --small` family (the four Table I
//! designs × {QGAN, Ising, BV} on an 8×8 grid), half `Sweep` and half
//! `Cosim`. About 90% repeat a pool of seeds warmed during set-up and are
//! served from the report cache; the rest carry never-seen seeds, so the
//! daemon runs `exec` (or `cosim`) over warm circuit and compile
//! artifacts and writes new store entries.

use crate::stats::{highest_supported, median, peak_rss_mb, secs_since, sorted, Fnv64};
use crate::sweep::{exec_span, traced_job_context, traced_jobs, Baselines, ExecTally};
use crate::trace::{Profile, Tracer};
use crate::{layer_counters, Args, Outcome};
use digiq_core::cosim::{simulate, CosimParams};
use digiq_core::engine::{CosimRecord, CosimSweepReport, EvalEngine, SweepReport, SweepSpec};
use digiq_core::exec::execute;
use digiq_core::{StoreConfig, StoreStats};
use digiq_serve::client::{Client, EvalOutcome};
use digiq_serve::proto::{read_json, write_json, Request};
use digiq_serve::server::{serve, ServeConfig, ServerHandle, NS_COSIM, NS_SWEEP};
use qcircuit::bench::Benchmark;
use qsim::rng::{stable_hash, StdRng};
use sfq_hw::cost::CostModel;
use sfq_hw::json::ToJson;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::time::{Duration, Instant};

/// Closed-loop client connections (no more than the host's two CPUs).
pub const CLIENTS: usize = 2;
/// Distinct seeds in the warmed repeat pool (each for both kinds).
const POOL: u64 = 8;
/// Share of requests that carry a never-seen seed.
const MISS_SHARE: f64 = 0.10;
/// Store bound for the daemon and the reference engine: the hot set (pool
/// reports, circuits, compile stages, baselines) stays resident while
/// one-off miss artifacts age out, so memory does not grow with the
/// number of requests a run completes.
const STORE_CAPACITY: usize = 2048;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 3;
/// Width of the slices the throughput median is taken over.
const SLICE_S: f64 = 1.0;
/// Tolerance for `CosimSweepReport::all_exact` (the lockstep tests' own).
const COSIM_TOL: f64 = 1e-9;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Sweep,
    Cosim,
}

/// One drawn request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Draw {
    pub kind: Kind,
    pub seed: u64,
    pub miss: bool,
}

/// The `sweep --small` spec with drift seed `seed`.
pub fn spec(seed: u64) -> SweepSpec {
    SweepSpec::small_grid(
        SweepSpec::table_one_designs(),
        &[Benchmark::Qgan, Benchmark::Ising, Benchmark::Bv],
        8,
        8,
    )
    .with_seeds(vec![seed])
}

/// First seed of a run's seed space (2²⁰ seeds per run, all below 2⁵²).
fn seed_base(seed: u64) -> u64 {
    (seed % (1 << 32)) << 20
}

/// The warmed repeat pool of a run.
pub fn pool(seed: u64) -> Vec<u64> {
    (0..POOL).map(|i| seed_base(seed) + i).collect()
}

/// The seeded request sequence of one client. Miss seeds are distinct
/// across clients and never in the pool.
pub struct Requests {
    rng: StdRng,
    pool: Vec<u64>,
    next_miss: u64,
}

impl Requests {
    pub fn new(seed: u64, client: usize) -> Self {
        Requests {
            rng: StdRng::seed_from_u64(stable_hash(&[seed, client as u64, 0x5E12_7E00])),
            pool: pool(seed),
            next_miss: seed_base(seed) + POOL + client as u64,
        }
    }

    pub fn next_draw(&mut self) -> Draw {
        let kind = if self.rng.gen::<f64>() < 0.5 {
            Kind::Sweep
        } else {
            Kind::Cosim
        };
        let miss = self.rng.gen::<f64>() < MISS_SHARE;
        let seed = if miss {
            let s = self.next_miss;
            self.next_miss += CLIENTS as u64;
            s
        } else {
            self.pool[self.rng.gen_range(0..self.pool.len())]
        };
        Draw { kind, seed, miss }
    }
}

fn send(client: &mut Client, kind: Kind, spec: &SweepSpec) -> io::Result<EvalOutcome> {
    match kind {
        Kind::Sweep => client.sweep(spec, 1),
        Kind::Cosim => client.cosim(spec, 1),
    }
}

fn digest(bytes: &str) -> String {
    let mut d = Fnv64::new();
    d.update(bytes.as_bytes());
    d.hex()
}

/// A running daemon with its client connections.
struct Live {
    server: ServerHandle,
    clients: Vec<Client>,
    /// Report bytes the daemon returned for the warm pool.
    warm: HashMap<(Kind, u64), String>,
}

impl Live {
    /// Drains the daemon and waits for its threads; closing the clients
    /// ends the per-connection reader threads.
    fn stop(self) {
        self.server.drain();
        drop(self.clients);
        self.server.join();
    }
}

/// Set-up: bind a daemon, connect the clients and warm the repeat pool
/// over the wire.
fn setup(seed: u64) -> io::Result<Live> {
    let server = serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        eval_workers: 1,
        sweep_workers: 1,
        store: StoreConfig {
            capacity: Some(STORE_CAPACITY),
            cache_dir: None,
        },
        ..ServeConfig::default()
    })?;
    let addr = server.addr();
    let mut live = Live {
        server,
        clients: Vec::new(),
        warm: HashMap::new(),
    };
    let warmed = (|| {
        for _ in 0..CLIENTS {
            live.clients.push(Client::connect(addr)?);
        }
        for s in pool(seed) {
            for kind in [Kind::Sweep, Kind::Cosim] {
                match send(&mut live.clients[0], kind, &spec(s))? {
                    EvalOutcome::Report(text) => {
                        live.warm.insert((kind, s), text);
                    }
                    other => {
                        return Err(io::Error::other(format!("warm-up refused: {other:?}")));
                    }
                }
            }
        }
        Ok(())
    })();
    match warmed {
        Ok(()) => Ok(live),
        Err(e) => {
            live.stop();
            Err(e)
        }
    }
}

/// Runs the set-up `SETUPS` times; returns the median wall seconds and
/// the last daemon (the earlier ones are stopped).
fn repeated_setup(seed: u64) -> io::Result<(f64, Live)> {
    let mut walls = Vec::new();
    let mut last: Option<Live> = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            prev.stop();
        }
        let t = Instant::now();
        last = Some(setup(seed)?);
        walls.push(secs_since(t));
    }
    Ok((median(&walls), last.expect("at least one set-up")))
}

/// The in-process reference: an engine with the daemon's store bound,
/// warmed with the same pool, and the expected bytes of every pool
/// request.
struct Reference {
    engine: EvalEngine,
    bytes: HashMap<(Kind, u64), String>,
}

fn evaluate(engine: &EvalEngine, kind: Kind, spec: &SweepSpec) -> String {
    let session = engine.session();
    match kind {
        Kind::Sweep => session.run_deterministic(spec, 1).to_json_string(),
        Kind::Cosim => session.run_cosim(spec, 1).to_json_string(),
    }
}

/// A cosim report that parses and whose analytic and cycle-accurate
/// sides agree.
fn cosim_exact(text: &str) -> bool {
    CosimSweepReport::parse(text).is_ok_and(|r| r.all_exact(COSIM_TOL))
}

fn reference(seed: u64, out: &mut Outcome) -> Reference {
    let engine = EvalEngine::with_store_config(
        CostModel::default(),
        StoreConfig {
            capacity: Some(STORE_CAPACITY),
            cache_dir: None,
        },
    );
    let mut bytes = HashMap::new();
    for s in pool(seed) {
        for kind in [Kind::Sweep, Kind::Cosim] {
            let text = evaluate(&engine, kind, &spec(s));
            if kind == Kind::Cosim && !cosim_exact(&text) {
                out.fail(
                    1,
                    format!("pool cosim seed {s}: analytic and cosim disagree"),
                );
            }
            bytes.insert((kind, s), text);
        }
    }
    // Anchor: the warm engine's bytes equal a cold `EvalEngine::run`.
    let first = pool(seed)[0];
    let cold = EvalEngine::new(CostModel::default()).run(&spec(first), 1);
    if cold.to_json_string() != bytes[&(Kind::Sweep, first)] {
        out.fail(
            1,
            "warm reference differs from a cold EvalEngine::run".to_string(),
        );
    }
    Reference { engine, bytes }
}

/// One completed request.
struct Sample {
    draw: Draw,
    latency_ms: f64,
    /// Completion time since the window opened.
    done_s: f64,
    bytes: usize,
}

/// What one client saw in a window.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Never-seen requests with the digest of their report.
    misses: Vec<(Draw, String)>,
    refused: u64,
    errors: Vec<String>,
    spans: Option<Profile>,
}

/// The closed loop of one client until `deadline`. A repeat's report is
/// compared with the reference bytes after its latency sample closes; a
/// never-seen report is digested and checked after the window.
fn client_loop(
    client: &mut Client,
    requests: &mut Requests,
    refs: &HashMap<(Kind, u64), String>,
    window_start: Instant,
    deadline: Instant,
    mut tracer: Option<Tracer>,
    id_base: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut n = 0u64;
    while Instant::now() < deadline {
        let draw = requests.next_draw();
        let spec = spec(draw.seed);
        let t = Instant::now();
        let result = match tracer.as_mut() {
            Some(tr) => tr.leaf("serve.request", id_base + n, || {
                send(client, draw.kind, &spec)
            }),
            None => send(client, draw.kind, &spec),
        };
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        n += 1;
        match result {
            Ok(EvalOutcome::Report(text)) => {
                log.samples.push(Sample {
                    draw,
                    latency_ms,
                    done_s: secs_since(window_start),
                    bytes: text.len(),
                });
                if draw.miss {
                    log.misses.push((draw, digest(&text)));
                } else if refs.get(&(draw.kind, draw.seed)) != Some(&text) {
                    log.errors
                        .push(format!("{draw:?}: report differs from the reference"));
                }
            }
            Ok(EvalOutcome::Busy) => log.refused += 1,
            Ok(other) => log.errors.push(format!("{draw:?}: {other:?}")),
            Err(e) => {
                log.errors.push(format!("{draw:?}: {e}"));
                break;
            }
        }
    }
    log.spans = tracer.map(|tr| {
        let mut p = Profile::default();
        p.absorb(tr);
        p
    });
    log
}

/// Drives every client for `seconds` from its own thread.
fn window(
    live: &mut Live,
    streams: &mut [Requests],
    refs: &HashMap<(Kind, u64), String>,
    seconds: f64,
    traced: bool,
) -> (f64, Vec<ClientLog>) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(i, (client, requests))| {
                let tracer = traced.then(|| Tracer::new(start, i as u32));
                s.spawn(move || {
                    client_loop(
                        client,
                        requests,
                        refs,
                        start,
                        deadline,
                        tracer,
                        (i as u64) << 40,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (secs_since(start), logs)
}

/// Counts attempts and failures of a window's logs.
fn tally(out: &mut Outcome, logs: &mut [ClientLog]) {
    for log in logs {
        let errors = std::mem::take(&mut log.errors);
        out.attempted += log.samples.len() as u64 + log.refused + errors.len() as u64;
        if log.refused > 0 {
            out.fail(
                log.refused,
                format!("{} requests refused as busy", log.refused),
            );
        }
        for e in errors {
            out.fail(1, e);
        }
    }
}

/// Checks every never-seen report against the reference engine, after
/// the window. Cosim reports must also pass the analytic ≡ cosim check.
fn check_misses(out: &mut Outcome, reference: &Reference, logs: &[ClientLog]) {
    for (draw, served) in logs.iter().flat_map(|l| &l.misses) {
        let text = evaluate(&reference.engine, draw.kind, &spec(draw.seed));
        if digest(&text) != *served {
            out.fail(
                1,
                format!("{draw:?}: report differs from the in-process run"),
            );
        } else if draw.kind == Kind::Cosim && !cosim_exact(&text) {
            out.fail(1, format!("{draw:?}: analytic and cosim disagree"));
        }
    }
}

fn latencies(logs: &[ClientLog], pick: impl Fn(&Draw) -> bool) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.samples)
        .filter(|s| pick(&s.draw))
        .map(|s| s.latency_ms)
        .collect()
}

/// The median completion rate over whole `SLICE_S` slices of a window.
fn slice_rate(logs: &[ClientLog], wall_s: f64) -> f64 {
    let slices = ((wall_s / SLICE_S).floor() as usize).max(1);
    let mut counts = vec![0.0; slices];
    for s in logs.iter().flat_map(|l| &l.samples) {
        let i = (s.done_s / SLICE_S) as usize;
        if i < slices {
            counts[i] += 1.0;
        }
    }
    median(&counts) / SLICE_S
}

/// Never-seen request latency for the per-layer split: the mean of the
/// Sweep-miss and Cosim-miss medians, so a seeded draw that lands a few
/// more of one kind cannot flip the value between the two kinds' bands.
fn miss_p50(logs: &[ClientLog]) -> f64 {
    let sweep = median(&latencies(logs, |d| d.miss && d.kind == Kind::Sweep));
    let cosim = median(&latencies(logs, |d| d.miss && d.kind == Kind::Cosim));
    (sweep + cosim) / 2.0
}

fn describe(out: &mut Outcome, logs: &[ClientLog], wall_s: f64) {
    let all = sorted(&latencies(logs, |_| true));
    let misses = latencies(logs, |d| d.miss).len();
    let tail = highest_supported(&all, &[99.9, 99.0, 90.0]).map_or(
        "no tail percentile has 10 samples beyond it".to_string(),
        |(p, v)| format!("p{p} {v:.3} ms"),
    );
    let q = |p| crate::stats::nearest_rank(&all, p).unwrap_or(f64::NAN);
    out.notes.push(format!(
        "{} requests ({misses} never-seen) in {wall_s:.2} s from {CLIENTS} clients: p10 {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p90 {:.4} ms, {tail}",
        all.len(),
        q(10.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(90.0),
    ));
}

/// Untraced run.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, mut live) = match repeated_setup(args.seed) {
        Ok(v) => v,
        Err(e) => {
            out.fail(1, format!("set-up failed: {e}"));
            return out;
        }
    };
    let reference = reference(args.seed, &mut out);
    check_warm(&mut out, &live, &reference);
    let mut streams: Vec<Requests> = (0..CLIENTS).map(|c| Requests::new(args.seed, c)).collect();
    let (wall_s, mut logs) = window(
        &mut live,
        &mut streams,
        &reference.bytes,
        args.seconds,
        false,
    );
    // Peak memory of set-up plus load; the miss checks below re-run
    // requests on the reference engine and are not part of the load.
    let peak_rss = peak_rss_mb();
    live.stop();
    tally(&mut out, &mut logs);
    check_misses(&mut out, &reference, &logs);
    describe(&mut out, &logs, wall_s);
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let latency_ms = mean(latencies(&logs, |_| true));
    let miss_latency_ms = mean(latencies(&logs, |d| d.miss));
    out.e2e(
        setup_s,
        slice_rate(&logs, wall_s),
        latency_ms,
        miss_latency_ms,
        peak_rss,
    );
    out
}

/// The daemon's warm-up bytes must equal the reference's.
fn check_warm(out: &mut Outcome, live: &Live, reference: &Reference) {
    out.attempted += live.warm.len() as u64;
    for (key, text) in &live.warm {
        if reference.bytes.get(key) != Some(text) {
            out.fail(
                1,
                format!("warm-up {key:?}: report differs from the reference"),
            );
        }
    }
}

/// A never-seen request re-run in process on the reference engine,
/// rebuilt from the engine's public calls so `exec`/`cosim` get spans.
fn traced_miss(
    tr: &mut Tracer,
    engine: &EvalEngine,
    draw: &Draw,
    baselines: &mut Baselines,
    tally: &mut ExecTally,
) -> String {
    let spec = spec(draw.seed);
    match draw.kind {
        Kind::Sweep => {
            let jobs = traced_jobs(tr, engine, &spec, baselines, tally);
            let cache = tr.leaf("core.engine.cold_stats", draw.seed, || {
                EvalEngine::cold_cache_stats(&spec)
            });
            SweepReport {
                grid_rows: spec.grid_rows,
                grid_cols: spec.grid_cols,
                jobs,
                cache,
            }
            .to_json_string()
        }
        Kind::Cosim => {
            let jobs = spec
                .jobs()
                .iter()
                .map(|job| {
                    let id = job.index as u64;
                    tr.span("core.engine.job", id, |tr| {
                        let ctx = traced_job_context(tr, engine, &spec, job);
                        let cosim = tr.leaf("core.cosim.simulate", id, || {
                            simulate(
                                &ctx.compiled.circuit,
                                ctx.compiled.scheduled(),
                                &ctx.groups,
                                &CosimParams::new(ctx.params.clone()),
                            )
                        });
                        let analytic = tr.leaf(exec_span(job.point.design), id, || {
                            execute(
                                &ctx.compiled.circuit,
                                ctx.compiled.scheduled(),
                                &ctx.groups,
                                &ctx.params,
                            )
                        });
                        tally.add(job.point.design, &analytic);
                        CosimRecord {
                            design: job.point.design,
                            groups: job.point.groups,
                            benchmark: job.bench.bench.name().to_string(),
                            n_qubits: ctx.circuit.n_qubits(),
                            seed: job.seed,
                            cosim,
                            analytic,
                        }
                    })
                })
                .collect();
            CosimSweepReport {
                grid_rows: spec.grid_rows,
                grid_cols: spec.grid_cols,
                jobs,
            }
            .to_json_string()
        }
    }
}

/// Mean microseconds to encode and to decode one request frame, over
/// the requests a window sent, and whether every frame decoded back to
/// its request.
fn proto_us(logs: &[ClientLog]) -> (f64, f64, bool) {
    let requests: Vec<Request> = logs
        .iter()
        .flat_map(|l| &l.samples)
        .take(4096)
        .map(|s| match s.draw.kind {
            Kind::Sweep => Request::Sweep {
                spec: spec(s.draw.seed),
                workers: 1,
            },
            Kind::Cosim => Request::Cosim {
                spec: spec(s.draw.seed),
                workers: 1,
            },
        })
        .collect();
    let n = requests.len().max(1) as f64;
    let t = Instant::now();
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            write_json(&mut buf, &r.to_json()).expect("in-memory write");
            buf
        })
        .collect();
    let encode = secs_since(t);
    let t = Instant::now();
    let decoded: Vec<Option<Request>> = frames
        .iter()
        .map(|f| {
            let j = read_json(&mut f.as_slice()).ok()?;
            Request::from_json(&j).ok()
        })
        .collect();
    let decode = secs_since(t);
    let round_trips = decoded.into_iter().eq(requests.into_iter().map(Some));
    (encode * 1e6 / n, decode * 1e6 / n, round_trips)
}

fn store_counts(stats: &StoreStats, namespaces: [&str; 2]) -> (u64, u64, u64) {
    namespaces
        .iter()
        .filter_map(|ns| stats.get(ns))
        .fold((0, 0, 0), |acc, n| {
            (acc.0 + n.hits, acc.1 + n.misses, acc.2 + n.coalesced)
        })
}

/// Traced run: an untraced and a traced window (half the time each) on
/// one daemon, then every never-seen request re-run in process under
/// spans on the reference engine (which is also its correctness check).
pub fn trace(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut live = match setup(args.seed) {
        Ok(v) => v,
        Err(e) => {
            out.fail(1, format!("set-up failed: {e}"));
            return out;
        }
    };
    let reference = reference(args.seed, &mut out);
    check_warm(&mut out, &live, &reference);
    let mut streams: Vec<Requests> = (0..CLIENTS).map(|c| Requests::new(args.seed, c)).collect();
    let half = args.seconds / 2.0;
    let (plain_s, mut plain) = window(&mut live, &mut streams, &reference.bytes, half, false);
    let (traced_s, mut traced) = window(&mut live, &mut streams, &reference.bytes, half, true);
    let stats = live.clients[0].stats();
    live.stop();
    tally(&mut out, &mut plain);
    tally(&mut out, &mut traced);
    describe(&mut out, &plain, plain_s);

    // The never-seen requests of both windows, re-run in process under
    // spans; each must reproduce the daemon's bytes.
    let mut tr = Tracer::new(Instant::now(), CLIENTS as u32);
    let mut baselines = Baselines::default();
    let mut exec = ExecTally::default();
    let mut evals: Vec<(Kind, f64)> = Vec::new();
    qsim::counters::reset();
    let t = Instant::now();
    for (i, (draw, served)) in plain
        .iter()
        .chain(&traced)
        .flat_map(|l| &l.misses)
        .enumerate()
    {
        let started = Instant::now();
        let text = tr.span("core.engine.miss_eval", i as u64, |tr| {
            traced_miss(tr, &reference.engine, draw, &mut baselines, &mut exec)
        });
        evals.push((draw.kind, started.elapsed().as_secs_f64() * 1e3));
        if digest(&text) != *served {
            out.fail(1, format!("{draw:?}: traced in-process report differs"));
        } else if draw.kind == Kind::Cosim && !cosim_exact(&text) {
            out.fail(1, format!("{draw:?}: analytic and cosim disagree"));
        }
    }
    let eval_s = secs_since(t);
    let kernel = qsim::counters::snapshot();

    let mut m = BTreeMap::new();
    let mut profile = Profile::default();
    profile.absorb(tr);
    // Per kind, like `miss_p50`.
    let eval_ms = |kind: Kind| {
        let v: Vec<f64> = evals.iter().filter(|e| e.0 == kind).map(|e| e.1).collect();
        median(&v)
    };
    let miss_eval = (eval_ms(Kind::Sweep) + eval_ms(Kind::Cosim)) / 2.0;
    m.insert("core.engine.miss_eval_ms", miss_eval);
    m.insert("serve.overhead_ms_p50", miss_p50(&plain) - miss_eval);
    m.insert("serve.hit_ms_p50", median(&latencies(&plain, |d| !d.miss)));
    crate::sweep::exec_metrics(&mut m, &profile, &exec);
    let n_miss_evals = evals.len().max(1) as f64;
    // Per never-seen request, like `core.engine.miss_eval_ms`.
    for key in [
        "core.exec.digiq_opt_ms",
        "core.exec.digiq_min_ms",
        "core.exec.baseline_ms",
        "core.exec.slots",
        "core.exec.serialization_cycles",
    ] {
        m.insert(key, m[key] / n_miss_evals);
    }
    m.insert(
        "core.cosim.simulate_ms",
        profile.total_ms("core.cosim.simulate") / n_miss_evals,
    );
    let (encode_us, decode_us, round_trips) = proto_us(&plain);
    if !round_trips {
        out.fail(
            1,
            "a request frame did not decode back to its request".to_string(),
        );
    }
    m.insert("serve.proto.encode_us", encode_us);
    m.insert("serve.proto.decode_us", decode_us);
    let bytes: Vec<f64> = plain
        .iter()
        .flat_map(|l| &l.samples)
        .map(|s| s.bytes as f64)
        .collect();
    m.insert("serve.report_bytes_p50", median(&bytes));
    let busy: u64 = plain.iter().chain(&traced).map(|l| l.refused).sum();
    m.insert("serve.busy_refusals", busy as f64);
    match stats {
        Ok(stats) => {
            let (hits, misses, coalesced) = store_counts(&stats, [NS_SWEEP, NS_COSIM]);
            m.insert("serve.store.report_hits", hits as f64);
            m.insert("serve.store.report_misses", misses as f64);
            m.insert("serve.store.coalesced", coalesced as f64);
            layer_counters(&mut m, &stats, kernel);
        }
        Err(e) => out.fail(1, format!("stats request failed: {e}")),
    }

    // Coverage over the traced window's client threads plus the
    // in-process re-run.
    for log in &mut traced {
        if let Some(p) = log.spans.take() {
            profile.absorb_profile(p);
        }
    }
    crate::coverage_metrics(&mut m, &profile, traced_s * CLIENTS as f64 + eval_s);
    let per_request = |logs: &[ClientLog], wall: f64| {
        let n: usize = logs.iter().map(|l| l.samples.len()).sum();
        wall / n.max(1) as f64
    };
    let plain_wall = per_request(&plain, plain_s);
    let traced_wall = per_request(&traced, traced_s);
    out.trace_summary(vec![m], &profile, &[plain_wall], &[traced_wall], args);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, client: usize, n: usize) -> Vec<Draw> {
        let mut r = Requests::new(seed, client);
        (0..n).map(|_| r.next_draw()).collect()
    }

    #[test]
    fn same_seed_same_request_sequence() {
        assert_eq!(draws(3, 0, 500), draws(3, 0, 500));
        assert_ne!(draws(3, 0, 500), draws(4, 0, 500));
        assert_ne!(draws(3, 0, 500), draws(3, 1, 500));
        assert_eq!(spec(17), spec(17));
        assert_eq!(pool(5), pool(5));
    }

    #[test]
    fn draws_mix_kinds_and_keep_misses_fresh() {
        let all: Vec<Draw> = (0..CLIENTS).flat_map(|c| draws(9, c, 5000)).collect();
        let pool = pool(9);
        let misses: Vec<&Draw> = all.iter().filter(|d| d.miss).collect();
        let share = misses.len() as f64 / all.len() as f64;
        assert!((0.08..0.12).contains(&share), "miss share {share}");
        let cosim = all.iter().filter(|d| d.kind == Kind::Cosim).count() as f64;
        assert!((0.45..0.55).contains(&(cosim / all.len() as f64)));
        let mut seeds: Vec<u64> = misses.iter().map(|d| d.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), misses.len(), "a miss seed repeated");
        assert!(seeds.iter().all(|s| !pool.contains(s) && *s < 1 << 53));
        assert!(all
            .iter()
            .filter(|d| !d.miss)
            .all(|d| pool.contains(&d.seed)));
    }
}
