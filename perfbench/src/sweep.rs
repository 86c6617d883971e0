//! `sweep_paper`: cold `sweep --full` runs on a fresh engine with one
//! worker — the five Fig 9 designs × all six Table IV benchmarks at paper
//! scale on the 32×32 grid, 30 jobs per sweep.

use crate::stats::{lower_quartile, median, peak_rss_mb, secs_since, Fnv64};
use crate::trace::{Profile, Tracer};
use crate::{layer_counters, Args, Outcome};
use digiq_core::design::ControllerDesign;
use digiq_core::engine::{
    derive_seed, BenchScale, BenchmarkSpec, CacheStats, EvalEngine, JobRecord, SweepReport,
    SweepSpec,
};
use digiq_core::exec::{checkerboard_groups, execute, ExecParams, ExecReport};
use digiq_core::{BenchmarkReport, SystemConfig};
use qcircuit::bench::ALL_BENCHMARKS;
use qcircuit::topology::Grid;
use sfq_hw::cost::CostModel;
use sfq_hw::json::ToJson;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The report digest `BENCH_2026-08-07_r5.json` records for seed 0.
const PINNED_DIGEST: &str = "9189ee59c23e99d4";
const JOBS: usize = 30;

/// The `sweep --full` spec with drift seed `seed` (seed 0 is the CLI's).
pub fn spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::small_grid(SweepSpec::fig9_designs(), &ALL_BENCHMARKS, 32, 32);
    spec.benchmarks = ALL_BENCHMARKS
        .iter()
        .map(|&bench| BenchmarkSpec {
            bench,
            scale: BenchScale::Paper,
        })
        .collect();
    spec.with_seeds(vec![seed % (1 << 53)])
}

fn digest(report: &SweepReport) -> String {
    let mut d = Fnv64::new();
    d.update(report.to_json_string().as_bytes());
    d.hex()
}

/// Set-up: the spec plus the accounting a cold run of it must report
/// (which generates the six paper-scale circuits).
fn setup(seed: u64) -> (SweepSpec, CacheStats) {
    let spec = spec(seed);
    let cold = EvalEngine::cold_cache_stats(&spec);
    (spec, cold)
}

/// One untimed correctness check of a report: job count, finite
/// normalized times, the cold-run accounting, and the pinned digest at
/// the default seed.
fn check(report: &SweepReport, expected_cache: &CacheStats, seed: u64) -> Result<String, String> {
    if report.jobs.len() != JOBS {
        return Err(format!("{} jobs, expected {JOBS}", report.jobs.len()));
    }
    if let Some(j) = report
        .jobs
        .iter()
        .find(|j| !(j.report.normalized_time.is_finite() && j.report.normalized_time > 0.0))
    {
        return Err(format!("bad normalized time in {}", j.benchmark));
    }
    if &report.cache != expected_cache {
        return Err("cache accounting differs from a cold run".to_string());
    }
    let d = digest(report);
    if seed == crate::DEFAULT_SEED && d != PINNED_DIGEST {
        return Err(format!("digest {d}, pinned {PINNED_DIGEST}"));
    }
    Ok(d)
}

/// Untraced run: repeated cold sweeps until the time is up, each after
/// its own set-up. The set-up takes about a millisecond, so set-ups run
/// back to back would all land in the same phase of the host's load; one
/// per sweep samples the whole run.
pub fn run(args: &Args) -> Outcome {
    let start = Instant::now();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut out = Outcome::default();
    let mut first_digest: Option<String> = None;
    while walls.is_empty() || secs_since(start) < args.seconds {
        let t = Instant::now();
        let (spec, expected) = setup(args.seed);
        setups.push(secs_since(t));
        let engine = EvalEngine::new(CostModel::default());
        let t = Instant::now();
        let report = engine.run(&spec, 1);
        walls.push(secs_since(t));
        out.attempted += JOBS as u64;
        let verdict = check(&report, &expected, args.seed).and_then(|d| match &first_digest {
            Some(f) if *f != d => Err(format!("digest {d} differs from the first sweep's {f}")),
            _ => Ok(d),
        });
        match verdict {
            Ok(d) => {
                first_digest.get_or_insert(d);
            }
            Err(e) => out.fail(JOBS as u64, format!("sweep {}: {e}", walls.len())),
        }
    }
    // On a shared host, other tenants' memory traffic slows a sweep by
    // up to half, in bursts of seconds that fill a different share of
    // each run. Interference only ever adds time, so the lower quartile
    // tracks the sweep's own cost; the median tracks that share.
    let p25 = lower_quartile(&walls);
    out.notes.push(format!(
        "{} cold sweeps: lower quartile {:.1} ms, median {:.1} ms; report digest {}",
        walls.len(),
        p25 * 1e3,
        median(&walls) * 1e3,
        first_digest.as_deref().unwrap_or("-")
    ));
    out.e2e(
        median(&setups),
        JOBS as f64 / p25,
        p25 * 1e3,
        p25 * 1e3,
        peak_rss_mb(),
    );
    out
}

/// The exec-span name of a design.
pub fn exec_span(design: ControllerDesign) -> &'static str {
    match design {
        ControllerDesign::DigiqOpt { .. } => "core.exec.digiq_opt",
        ControllerDesign::DigiqMin { .. } => "core.exec.digiq_min",
        ControllerDesign::ImpossibleMimd => "core.exec.baseline",
        _ => "core.exec.mimd",
    }
}

/// Exec accounting gathered on the traced path.
#[derive(Default)]
pub struct ExecTally {
    pub opt_slots: u64,
    pub slots: u64,
    pub serialization_cycles: u64,
}

impl ExecTally {
    pub fn add(&mut self, design: ControllerDesign, r: &ExecReport) {
        if matches!(design, ControllerDesign::DigiqOpt { .. }) {
            self.opt_slots += r.slots;
        }
        self.slots += r.slots;
        self.serialization_cycles += r.serialization_cycles;
    }
}

/// The per-job artifacts `EvalEngine::run_job` assembles, rebuilt from
/// the engine's public calls so each layer gets its own span.
pub struct TracedJob {
    pub circuit: Arc<qcircuit::ir::Circuit>,
    pub compiled: Arc<qcircuit::pipeline::CompileArtifact>,
    pub params: ExecParams,
    pub groups: Vec<usize>,
}

pub fn traced_job_context(
    tr: &mut Tracer,
    engine: &EvalEngine,
    spec: &SweepSpec,
    job: &digiq_core::engine::JobSpec,
) -> TracedJob {
    let id = job.index as u64;
    let grid = Grid::new(spec.grid_rows, spec.grid_cols);
    let circuit = tr.leaf("qcircuit.bench.generate", id, || {
        engine.benchmark_circuit(job.bench, spec.base_seed)
    });
    let compiled = tr.leaf("qcircuit.pipeline.compile", id, || {
        engine.compiled_with(&circuit, &grid, &spec.pipeline)
    });
    let mut config = SystemConfig::paper_default(job.point.design, job.point.groups);
    config.n_qubits = grid.n_qubits();
    let mut params = ExecParams::new(config);
    params.seed = derive_seed(spec.base_seed, job.seed);
    if let Some(lengths) = tr.leaf("calib.min_decomp.seq_db", id, || {
        engine.min_lengths(job.point.design)
    }) {
        params.min_lengths = (*lengths).clone();
    }
    let groups = checkerboard_groups(grid.cols(), grid.n_qubits(), job.point.groups.clamp(1, 2));
    TracedJob {
        circuit,
        compiled,
        params,
        groups,
    }
}

/// Impossible-MIMD baselines memoized per benchmark instance, as the
/// engine memoizes them per compile key, with their hit/miss counts.
#[derive(Default)]
pub struct Baselines {
    reports: HashMap<BenchmarkSpec, ExecReport>,
    pub hits: u64,
    pub misses: u64,
}

/// Traced analytic sweep: the job records `EvalEngine::run` produces
/// with one worker, rebuilt from the engine's public calls.
pub fn traced_jobs(
    tr: &mut Tracer,
    engine: &EvalEngine,
    spec: &SweepSpec,
    baselines: &mut Baselines,
    tally: &mut ExecTally,
) -> Vec<JobRecord> {
    let mut jobs = Vec::new();
    for job in spec.jobs() {
        let id = job.index as u64;
        let record = tr.span("core.engine.job", id, |tr| {
            let ctx = traced_job_context(tr, engine, spec, &job);
            let design = job.point.design;
            let exec = tr.leaf(exec_span(design), id, || {
                execute(
                    &ctx.compiled.circuit,
                    ctx.compiled.scheduled(),
                    &ctx.groups,
                    &ctx.params,
                )
            });
            tally.add(design, &exec);
            if baselines.reports.contains_key(&job.bench) {
                baselines.hits += 1;
            } else {
                baselines.misses += 1;
                let mut base = ctx.params.clone();
                base.config.design = ControllerDesign::ImpossibleMimd;
                let r = tr.leaf("core.exec.baseline", id, || {
                    execute(
                        &ctx.compiled.circuit,
                        ctx.compiled.scheduled(),
                        &ctx.groups,
                        &base,
                    )
                });
                tally.add(ControllerDesign::ImpossibleMimd, &r);
                baselines.reports.insert(job.bench, r);
            }
            let base_ns = baselines.reports[&job.bench].total_ns;
            JobRecord {
                design,
                groups: job.point.groups,
                benchmark: job.bench.bench.name().to_string(),
                n_qubits: ctx.circuit.n_qubits(),
                seed: job.seed,
                power_w: None,
                report: BenchmarkReport {
                    benchmark: job.bench.bench.name().to_string(),
                    logical_gates: ctx.compiled.logical_gates,
                    swaps: ctx.compiled.swaps,
                    slots: ctx.compiled.scheduled().len(),
                    normalized_time: exec.total_ns / base_ns.max(f64::MIN_POSITIVE),
                    exec,
                },
            }
        });
        jobs.push(record);
    }
    jobs
}

/// A traced cold sweep on a fresh engine, with the engine's live cache
/// accounting (baselines counted by the traced path's own memo).
fn traced_sweep(
    tr: &mut Tracer,
    engine: &EvalEngine,
    spec: &SweepSpec,
    tally: &mut ExecTally,
) -> SweepReport {
    let before = engine.cache_stats();
    let mut baselines = Baselines::default();
    let jobs = traced_jobs(tr, engine, spec, &mut baselines, tally);
    let mut cache = engine.cache_stats().since(&before);
    cache.baseline_hits = baselines.hits;
    cache.baseline_misses = baselines.misses;
    SweepReport {
        grid_rows: spec.grid_rows,
        grid_cols: spec.grid_cols,
        jobs,
        cache,
    }
}

/// Traced run: alternates untraced and traced cold sweeps, checks that
/// both give the same report, and reports per-layer metrics as medians
/// over the traced sweeps.
pub fn trace(args: &Args) -> Outcome {
    let (spec, expected) = setup(args.seed);
    let start = Instant::now();
    let mut out = Outcome::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut per_sweep: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut profile = Profile::default();
    while traced_walls.is_empty() || secs_since(start) < args.seconds {
        let plain_engine = EvalEngine::new(CostModel::default());
        let t = Instant::now();
        let plain = plain_engine.run(&spec, 1);
        plain_walls.push(secs_since(t));

        let engine = EvalEngine::new(CostModel::default());
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut tally = ExecTally::default();
        qsim::counters::reset();
        let t = Instant::now();
        let traced = traced_sweep(&mut tr, &engine, &spec, &mut tally);
        let wall = secs_since(t);
        let kernel = qsim::counters::snapshot();
        traced_walls.push(wall);

        out.attempted += 2 * JOBS as u64;
        for (label, report) in [("untraced", &plain), ("traced", &traced)] {
            if let Err(e) = check(report, &expected, args.seed) {
                out.fail(JOBS as u64, format!("{label} sweep: {e}"));
            }
        }
        if plain.to_json_string() != traced.to_json_string() {
            out.fail(
                JOBS as u64,
                "traced report differs from the untraced one".to_string(),
            );
        }

        let mut sweep_profile = Profile::default();
        sweep_profile.absorb(tr);
        let mut m = BTreeMap::new();
        m.insert(
            "qcircuit.bench.generate_ms",
            sweep_profile.total_ms("qcircuit.bench.generate"),
        );
        for p in &engine.pass_cache_stats().passes {
            let key = match p.pass.as_str() {
                "lower" => "qcircuit.pipeline.lower_ms",
                "route" => "qcircuit.pipeline.route_ms",
                "lower_swaps" => "qcircuit.pipeline.lower_swaps_ms",
                "schedule" => "qcircuit.pipeline.schedule_ms",
                _ => continue,
            };
            m.insert(key, p.wall_ns / 1e6);
            *m.entry("qcircuit.pipeline.swaps_added").or_insert(0.0) += p.swaps_added as f64;
            *m.entry("qcircuit.pipeline.slots_out").or_insert(0.0) += p.slots_out as f64;
        }
        exec_metrics(&mut m, &sweep_profile, &tally);
        m.insert(
            "calib.min_decomp.seq_db_ms",
            sweep_profile.total_ms("calib.min_decomp.seq_db"),
        );
        // The store counters of the sweep as the engine runs it.
        layer_counters(&mut m, &plain_engine.store_stats(), kernel);
        crate::coverage_metrics(&mut m, &sweep_profile, wall);
        per_sweep.push(m);
        profile.absorb_profile(sweep_profile);
    }
    out.trace_summary(per_sweep, &profile, &plain_walls, &traced_walls, args);
    out
}

/// The `core.exec.*` metrics of a traced profile.
pub fn exec_metrics(m: &mut BTreeMap<&'static str, f64>, profile: &Profile, tally: &ExecTally) {
    let opt_ms = profile.total_ms("core.exec.digiq_opt");
    m.insert("core.exec.digiq_opt_ms", opt_ms);
    m.insert(
        "core.exec.digiq_min_ms",
        profile.total_ms("core.exec.digiq_min"),
    );
    m.insert(
        "core.exec.baseline_ms",
        profile.total_ms("core.exec.baseline"),
    );
    if tally.opt_slots > 0 {
        m.insert(
            "core.exec.opt_host_ns_per_slot",
            opt_ms * 1e6 / tally.opt_slots as f64,
        );
    }
    m.insert("core.exec.slots", tally.slots as f64);
    m.insert(
        "core.exec.serialization_cycles",
        tally.serialization_cycles as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_spec_and_jobs() {
        assert_eq!(spec(11), spec(11));
        assert_eq!(spec(11).jobs(), spec(11).jobs());
        assert_ne!(spec(11).stable_key(), spec(12).stable_key());
        assert_eq!(spec(0).job_count(), JOBS);
        assert_eq!(spec(0).seeds, vec![0]);
    }
}
