//! Batched, multi-threaded evaluation engine over the unified artifact
//! store.
//!
//! The paper's evaluation (Fig 8–10, Tables I–II) is one large sweep over
//! design points × benchmarks × drift seeds. Run naïvely, every point
//! re-synthesizes hardware, re-compiles circuits and re-builds sequence
//! databases from scratch; this module turns the sweep into a batched
//! pipeline instead:
//!
//! * a declarative [`SweepSpec`] enumerates the jobs (design-major, then
//!   benchmark, then seed — the job index is the merge order);
//! * [`EvalEngine::run`] shards jobs across `std::thread::scope` workers
//!   pulling from an atomic counter;
//! * expensive shared artifacts are memoized build-once in the engine's
//!   [`ArtifactStore`] (see [`crate::store`]) so no artifact is built
//!   twice across the sweep: synthesized [`DesignHardware`] per
//!   (design, groups), generated benchmark circuits per
//!   (benchmark, scale), compiled [`CompileArtifact`]s at
//!   **pipeline-stage granularity** — every pass of the shared
//!   [`qcircuit::pipeline::Pipeline`] caches its output under a chained
//!   stable stage key ([`Circuit::cache_key`] / `Layout::cache_key` /
//!   pass fingerprints), so lowered and routed circuits are reused not
//!   just across designs and seeds but across pipeline configurations
//!   sharing a prefix (e.g. two schedulers over one routed circuit) —
//!   sequence databases / length distributions per [`MinBasisKind`],
//!   Impossible-MIMD baselines, and co-simulation reports. With a
//!   disk-backed store ([`StoreConfig::cache_dir`], `--cache-dir`),
//!   compiled stages, baselines and co-simulations additionally persist
//!   across processes, so a second run warm-starts with **zero pass
//!   builds**; with [`EvalEngine::run_journaled`] a sweep journals every
//!   completed job and an interrupted run resumes (`sweep --resume`)
//!   byte-identically to an uninterrupted one.
//!
//! Per-pass cache accounting lives in [`PassCacheStats`]
//! ([`EvalEngine::pass_cache_stats`]) and store-wide counters in
//! [`EvalEngine::store_stats`]; like the co-simulation counters they are
//! kept out of [`CacheStats`] so the serialized sweep report — and the
//! `tests/golden/engine_smoke.json` golden — is byte-for-byte unchanged
//! by the store refactor ([`CacheStats::compile_hits`] /
//! `compile_misses` account the final pipeline stage, numerically
//! identical to the historical whole-compile accounting).
//!
//! Results are **deterministic regardless of worker count**: jobs are
//! pure functions of the spec (per-job exec seeds are derived by hashing
//! the spec's base seed with the job's drift seed), artifact construction
//! is deterministic, and records merge in job-index order. A sweep run
//! with 1 worker is byte-identical — serialized through
//! [`sfq_hw::json`] — to the same sweep with N workers, and cache hits
//! never change results versus a cold run (see
//! `crates/core/tests/engine_determinism.rs`). Under the default
//! in-memory unbounded store, cache accounting is deterministic too;
//! [`EvalEngine::cold_cache_stats`] computes it as a pure function of
//! the spec (pinned equal to a live cold run by tests), which is what a
//! resumed sweep reports so resumption never changes the bytes.
//!
//! ```
//! use digiq_core::design::ControllerDesign;
//! use digiq_core::engine::{EvalEngine, SweepSpec};
//! use qcircuit::bench::Benchmark;
//! use sfq_hw::json::ToJson;
//!
//! let spec = SweepSpec::small_grid(
//!     vec![ControllerDesign::DigiqOpt { bs: 8 }.into()],
//!     &[Benchmark::Bv],
//!     4,
//!     4,
//! );
//! let engine = EvalEngine::new(Default::default());
//! let report = engine.run(&spec, 2);
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.jobs[0].report.normalized_time >= 1.0);
//! let json = report.to_json_string();
//! assert_eq!(digiq_core::engine::SweepReport::parse(&json), Ok(report));
//! ```

use crate::cosim::{self, CosimParams, CosimReport};
use crate::design::{ControllerDesign, SystemConfig};
use crate::exec::{checkerboard_groups, execute, ExecParams, ExecReport};
use crate::hardware::{build_hardware, DesignHardware};
use crate::store::{
    self, lock_unpoisoned, ns, ArtifactStore, JobClaims, StoreConfig, StoreStats, SweepJournal,
};
use crate::system::{measured_min_lengths_with_db, BenchmarkReport, MinBasisKind};
use calib::min_decomp::{SequenceDb, SharedSequenceDb};
use qcircuit::bench::Benchmark;
use qcircuit::ir::Circuit;
use qcircuit::mapping::Layout;
use qcircuit::pipeline::{
    CompileArtifact, PassMetrics, PipelineConfig, RouteStrategy, ScheduleStrategy,
};
use qcircuit::topology::Grid;
use sfq_hw::cost::CostModel;
use sfq_hw::json::{Json, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The number of workers a sweep uses when the caller does not care:
/// every available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map: `f(i, &items[i])` runs on a pool of
/// `workers` scoped threads pulling indices from an atomic counter, and
/// the results are returned **in input order** regardless of worker count
/// or scheduling — the merge step every deterministic sweep binary uses.
///
/// # Panics
///
/// Propagates any panic raised inside `f`.
pub fn par_map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *lock_unpoisoned(&slots[i]) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("worker completed every claimed job")
        })
        .collect()
}

/// Scale at which a benchmark instance is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchScale {
    /// The paper-scale instance ([`Benchmark::paper_scale`], 32×32 grid).
    Paper,
    /// A reduced instance fitting `max_qubits` ([`Benchmark::scaled`]).
    Small {
        /// Qubit budget of the instance.
        max_qubits: usize,
    },
}

/// One benchmark axis entry of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BenchmarkSpec {
    /// Which Table IV benchmark.
    pub bench: Benchmark,
    /// At which scale.
    pub scale: BenchScale,
}

/// One design axis entry of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// The controller architecture.
    pub design: ControllerDesign,
    /// Frequency-group count `G`.
    pub groups: usize,
}

impl From<ControllerDesign> for DesignPoint {
    /// A design at the paper's default `G = 2`.
    fn from(design: ControllerDesign) -> Self {
        DesignPoint { design, groups: 2 }
    }
}

/// A declarative sweep: designs × benchmarks × seeds on one device grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Design axis.
    pub designs: Vec<DesignPoint>,
    /// Benchmark axis.
    pub benchmarks: Vec<BenchmarkSpec>,
    /// Drift-seed axis (each value yields one job per design × benchmark;
    /// per-job exec seeds are `hash(base_seed, seed)`).
    pub seeds: Vec<u64>,
    /// Device grid rows.
    pub grid_rows: usize,
    /// Device grid columns.
    pub grid_cols: usize,
    /// Also synthesize (and cache) each design's hardware, recording its
    /// power in the job records.
    pub synthesize_hardware: bool,
    /// Salt mixed into every derived per-job seed.
    pub base_seed: u64,
    /// Compile-pipeline strategy selection (routing / scheduling); the
    /// default is the paper pipeline every golden file pins.
    pub pipeline: PipelineConfig,
}

/// One enumerated job of a sweep (a single design × benchmark × seed
/// point, with its fixed merge index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Merge position in the report.
    pub index: usize,
    /// Design point.
    pub point: DesignPoint,
    /// Benchmark instance.
    pub bench: BenchmarkSpec,
    /// Drift seed from the spec.
    pub seed: u64,
}

impl SweepSpec {
    /// A small-grid sweep over `designs` × `benchmarks` with one seed:
    /// every benchmark is generated at the grid's qubit budget.
    pub fn small_grid(
        designs: Vec<DesignPoint>,
        benchmarks: &[Benchmark],
        grid_rows: usize,
        grid_cols: usize,
    ) -> Self {
        let max_qubits = grid_rows * grid_cols;
        SweepSpec {
            designs,
            benchmarks: benchmarks
                .iter()
                .map(|&bench| BenchmarkSpec {
                    bench,
                    scale: BenchScale::Small { max_qubits },
                })
                .collect(),
            seeds: vec![0],
            grid_rows,
            grid_cols,
            synthesize_hardware: false,
            base_seed: 0xD161_5EED,
            pipeline: PipelineConfig::default(),
        }
    }

    /// The four Table I designs at the paper's default group count.
    pub fn table_one_designs() -> Vec<DesignPoint> {
        vec![
            DesignPoint {
                design: ControllerDesign::SfqMimdNaive,
                groups: 1,
            },
            DesignPoint {
                design: ControllerDesign::SfqMimdDecomp,
                groups: 1,
            },
            ControllerDesign::DigiqMin { bs: 2 }.into(),
            ControllerDesign::DigiqOpt { bs: 8 }.into(),
        ]
    }

    /// The five configurations plotted in Fig 9.
    pub fn fig9_designs() -> Vec<DesignPoint> {
        vec![
            ControllerDesign::DigiqMin { bs: 2 }.into(),
            ControllerDesign::DigiqMin { bs: 4 }.into(),
            ControllerDesign::DigiqOpt { bs: 4 }.into(),
            ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ControllerDesign::DigiqOpt { bs: 16 }.into(),
        ]
    }

    /// Replaces the drift-seed axis.
    ///
    /// # Panics
    ///
    /// Panics on an empty axis, or on seeds at or above 2⁵³ — report
    /// seeds serialize as JSON numbers, and larger values would silently
    /// lose precision and break the `parse(serialize(x)) == x` guarantee.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "a sweep needs at least one seed");
        assert!(
            seeds.iter().all(|&s| s < (1u64 << 53)),
            "seeds must stay below 2^53 to round-trip exactly through JSON"
        );
        self.seeds = seeds;
        self
    }

    /// Enables hardware synthesis for every buildable design point.
    #[must_use]
    pub fn with_hardware(mut self) -> Self {
        self.synthesize_hardware = true;
        self
    }

    /// Replaces the compile-pipeline strategy selection.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Total job count (the full cross product).
    pub fn job_count(&self) -> usize {
        self.designs.len() * self.benchmarks.len() * self.seeds.len()
    }

    /// Stable fingerprint of the whole sweep definition — identical
    /// across processes and toolchains, distinct for any change to an
    /// axis, the grid, the base seed, or the pipeline strategy. Keys the
    /// on-disk [`SweepJournal`], so a resumed sweep can never replay
    /// another spec's completed jobs.
    pub fn stable_key(&self) -> u64 {
        let mut h = qsim::rng::StableHasher::new();
        h.write_usize(self.grid_rows);
        h.write_usize(self.grid_cols);
        h.write_u64(self.base_seed);
        h.write_u8(self.synthesize_hardware as u8);
        h.write_u64(self.pipeline.fingerprint());
        h.write_usize(self.designs.len());
        for point in &self.designs {
            let [d, bs] = store::design_words(point.design);
            h.write_u64(d);
            h.write_u64(bs);
            h.write_usize(point.groups);
        }
        h.write_usize(self.benchmarks.len());
        for b in &self.benchmarks {
            h.write_bytes(b.bench.name().as_bytes());
            match b.scale {
                BenchScale::Paper => h.write_u8(0),
                BenchScale::Small { max_qubits } => {
                    h.write_u8(1);
                    h.write_usize(max_qubits);
                }
            }
        }
        h.write_usize(self.seeds.len());
        for &s in &self.seeds {
            h.write_u64(s);
        }
        h.finish()
    }

    /// The 2-design × 2-benchmark smoke sweep on a 4×4 grid that
    /// `tests/golden/engine_smoke.json` pins byte-for-byte — `sweep
    /// --smoke`, `scripts/ci.sh --engine-smoke` and the digiq-serve
    /// byte-identity tests all build exactly this spec.
    pub fn smoke() -> Self {
        SweepSpec::small_grid(
            vec![
                ControllerDesign::SfqMimdNaive.into(),
                ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ],
            &[Benchmark::Bv, Benchmark::Qgan],
            4,
            4,
        )
    }

    /// The co-simulation smoke sweep that `tests/golden/cosim_smoke.json`
    /// pins byte-for-byte (`cosim --smoke`, `scripts/ci.sh
    /// --cosim-smoke`, and the serve cosim identity test).
    pub fn cosim_smoke() -> Self {
        SweepSpec::small_grid(
            vec![
                ControllerDesign::DigiqMin { bs: 2 }.into(),
                ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ],
            &[Benchmark::Bv, Benchmark::Qgan],
            4,
            4,
        )
    }

    /// Reads a spec back from its [`ToJson`] form, enforcing the
    /// plausibility bounds a network-facing server needs: non-empty
    /// axes, at most 4096 entries per design/benchmark axis, at most
    /// 65536 seeds (each below 2⁵³, the JSON round-trip bound), at most
    /// 2¹⁶ grid sites, and group counts in `1..=4096`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field, or
    /// the violated bound.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "sweep spec";
        const MAX_AXIS: usize = 4096;
        const MAX_SEEDS: usize = 65_536;
        const MAX_SITES: u64 = 1 << 16;

        let mut designs = Vec::new();
        for d in j.arr_field("designs", CTX)? {
            let design = ControllerDesign::from_json(
                d.get("design").ok_or("design point missing `design`")?,
            )?;
            let groups = d.count_field("groups", "design point")? as usize;
            if !(1..=MAX_AXIS).contains(&groups) {
                return Err(format!(
                    "design point `groups` out of range 1..=4096: {groups}"
                ));
            }
            designs.push(DesignPoint { design, groups });
        }
        let mut benchmarks = Vec::new();
        for b in j.arr_field("benchmarks", CTX)? {
            let name = b.str_field("bench", "benchmark spec")?;
            let bench =
                Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
            let scale = match b.get("scale") {
                Some(Json::Str(s)) if s == "paper" => BenchScale::Paper,
                Some(s @ Json::Obj(_)) => BenchScale::Small {
                    max_qubits: s.count_field("max_qubits", "benchmark scale")? as usize,
                },
                _ => {
                    return Err(
                        "benchmark spec missing `scale` (\"paper\" or {max_qubits})".to_string()
                    )
                }
            };
            benchmarks.push(BenchmarkSpec { bench, scale });
        }
        let mut seeds = Vec::new();
        for s in j.arr_field("seeds", CTX)? {
            match s.as_f64() {
                Some(x) if x >= 0.0 && x.fract() == 0.0 && x < 9_007_199_254_740_992.0 => {
                    seeds.push(x as u64);
                }
                _ => {
                    return Err(
                        "sweep spec seeds must be non-negative integers below 2^53".to_string()
                    )
                }
            }
        }
        if designs.is_empty() || benchmarks.is_empty() || seeds.is_empty() {
            return Err("sweep spec axes must be non-empty".to_string());
        }
        if designs.len() > MAX_AXIS || benchmarks.len() > MAX_AXIS || seeds.len() > MAX_SEEDS {
            return Err(
                "sweep spec axis too large (designs/benchmarks <= 4096, seeds <= 65536)"
                    .to_string(),
            );
        }
        let grid_rows = j.count_field("grid_rows", CTX)?;
        let grid_cols = j.count_field("grid_cols", CTX)?;
        if grid_rows == 0 || grid_cols == 0 || grid_rows * grid_cols > MAX_SITES {
            return Err(format!(
                "sweep spec grid out of range (1..=2^16 sites): {grid_rows}x{grid_cols}"
            ));
        }
        let p = j.get("pipeline").ok_or("sweep spec missing `pipeline`")?;
        let mut router = RouteStrategy::parse(p.str_field("router", "pipeline config")?)?;
        if let RouteStrategy::Lookahead { window } = &mut router {
            if let Some(w) = p.get("window") {
                *window = w
                    .as_f64()
                    .filter(|x| *x >= 1.0 && x.fract() == 0.0 && *x <= MAX_SITES as f64)
                    .ok_or("pipeline config `window` must be an integer in 1..=2^16")?
                    as usize;
            }
        }
        let mut pipeline = PipelineConfig::default()
            .with_router(router)
            .with_scheduler(ScheduleStrategy::parse(
                p.str_field("scheduler", "pipeline config")?,
            )?);
        pipeline.fuse = p.bool_field("fuse", "pipeline config")?;
        Ok(SweepSpec {
            designs,
            benchmarks,
            seeds,
            grid_rows: grid_rows as usize,
            grid_cols: grid_cols as usize,
            synthesize_hardware: j.bool_field("synthesize_hardware", CTX)?,
            base_seed: j.count_field("base_seed", CTX)?,
            pipeline,
        })
    }

    /// Parses a serialized spec (the inverse of
    /// [`ToJson::to_json_string`]) under the [`SweepSpec::from_json`]
    /// bounds.
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first structural mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        SweepSpec::from_json(&j)
    }

    /// Enumerates the jobs in merge order (design-major, then benchmark,
    /// then seed).
    pub fn jobs(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for &point in &self.designs {
            for &bench in &self.benchmarks {
                for &seed in &self.seeds {
                    jobs.push(JobSpec {
                        index: jobs.len(),
                        point,
                        bench,
                        seed,
                    });
                }
            }
        }
        jobs
    }
}

impl ToJson for SweepSpec {
    /// The wire form digiq-serve carries: axes spelled out field by
    /// field, the pipeline by strategy name (plus the lookahead window
    /// when it applies) — `parse(to_json_string(spec)) == spec` for any
    /// spec within the [`SweepSpec::from_json`] bounds.
    fn to_json(&self) -> Json {
        let designs: Vec<Json> = self
            .designs
            .iter()
            .map(|d| {
                Json::obj([
                    ("design", d.design.to_json()),
                    ("groups", d.groups.to_json()),
                ])
            })
            .collect();
        let benchmarks: Vec<Json> = self
            .benchmarks
            .iter()
            .map(|b| {
                let scale = match b.scale {
                    BenchScale::Paper => Json::Str("paper".to_string()),
                    BenchScale::Small { max_qubits } => {
                        Json::obj([("max_qubits", max_qubits.to_json())])
                    }
                };
                Json::obj([("bench", b.bench.name().to_json()), ("scale", scale)])
            })
            .collect();
        let mut pipeline = vec![("router", self.pipeline.router.name().to_json())];
        if let RouteStrategy::Lookahead { window } = self.pipeline.router {
            pipeline.push(("window", window.to_json()));
        }
        pipeline.push(("scheduler", self.pipeline.scheduler.name().to_json()));
        pipeline.push(("fuse", self.pipeline.fuse.to_json()));
        Json::obj([
            ("designs", Json::Arr(designs)),
            ("benchmarks", Json::Arr(benchmarks)),
            ("seeds", self.seeds.to_json()),
            ("grid_rows", self.grid_rows.to_json()),
            ("grid_cols", self.grid_cols.to_json()),
            ("synthesize_hardware", self.synthesize_hardware.to_json()),
            ("base_seed", self.base_seed.to_json()),
            ("pipeline", Json::obj(pipeline)),
        ])
    }
}

/// Deterministic seed derivation — the repo's pinned stable hash of
/// `(base, salt)`, identical across processes and toolchains (derived
/// seeds reach golden files through the executor).
pub fn derive_seed(base: u64, salt: u64) -> u64 {
    qsim::rng::stable_hash(&[base, salt])
}

/// Cache accounting of one sweep run (deterministic for a fixed spec
/// under the default unbounded in-memory store — misses count distinct
/// content keys, hits count the remaining lookups; see
/// [`EvalEngine::cold_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Benchmark-circuit cache hits.
    pub circuit_hits: u64,
    /// Benchmark-circuit generations.
    pub circuit_misses: u64,
    /// Compiled-circuit cache hits.
    pub compile_hits: u64,
    /// Lower/route/schedule pipeline executions.
    pub compile_misses: u64,
    /// Hardware cache hits.
    pub hardware_hits: u64,
    /// Hardware syntheses.
    pub hardware_misses: u64,
    /// Sequence-database cache hits.
    pub seq_db_hits: u64,
    /// Sequence-database builds.
    pub seq_db_misses: u64,
    /// Length-distribution cache hits.
    pub min_lengths_hits: u64,
    /// Length-distribution measurements.
    pub min_lengths_misses: u64,
    /// Baseline-execution cache hits.
    pub baseline_hits: u64,
    /// Baseline (Impossible MIMD) executions.
    pub baseline_misses: u64,
}

impl CacheStats {
    /// Component-wise difference (`self − earlier`), for snapshotting one
    /// run out of a long-lived engine.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            circuit_hits: self.circuit_hits - earlier.circuit_hits,
            circuit_misses: self.circuit_misses - earlier.circuit_misses,
            compile_hits: self.compile_hits - earlier.compile_hits,
            compile_misses: self.compile_misses - earlier.compile_misses,
            hardware_hits: self.hardware_hits - earlier.hardware_hits,
            hardware_misses: self.hardware_misses - earlier.hardware_misses,
            seq_db_hits: self.seq_db_hits - earlier.seq_db_hits,
            seq_db_misses: self.seq_db_misses - earlier.seq_db_misses,
            min_lengths_hits: self.min_lengths_hits - earlier.min_lengths_hits,
            min_lengths_misses: self.min_lengths_misses - earlier.min_lengths_misses,
            baseline_hits: self.baseline_hits - earlier.baseline_hits,
            baseline_misses: self.baseline_misses - earlier.baseline_misses,
        }
    }

    /// Total lookups that reused an artifact.
    pub fn total_hits(&self) -> u64 {
        self.circuit_hits
            + self.compile_hits
            + self.hardware_hits
            + self.seq_db_hits
            + self.min_lengths_hits
            + self.baseline_hits
    }

    /// Total artifacts built.
    pub fn total_misses(&self) -> u64 {
        self.circuit_misses
            + self.compile_misses
            + self.hardware_misses
            + self.seq_db_misses
            + self.min_lengths_misses
            + self.baseline_misses
    }
}

const CACHE_FIELDS: [&str; 12] = [
    "circuit_hits",
    "circuit_misses",
    "compile_hits",
    "compile_misses",
    "hardware_hits",
    "hardware_misses",
    "seq_db_hits",
    "seq_db_misses",
    "min_lengths_hits",
    "min_lengths_misses",
    "baseline_hits",
    "baseline_misses",
];

impl CacheStats {
    fn field(&self, name: &str) -> u64 {
        match name {
            "circuit_hits" => self.circuit_hits,
            "circuit_misses" => self.circuit_misses,
            "compile_hits" => self.compile_hits,
            "compile_misses" => self.compile_misses,
            "hardware_hits" => self.hardware_hits,
            "hardware_misses" => self.hardware_misses,
            "seq_db_hits" => self.seq_db_hits,
            "seq_db_misses" => self.seq_db_misses,
            "min_lengths_hits" => self.min_lengths_hits,
            "min_lengths_misses" => self.min_lengths_misses,
            "baseline_hits" => self.baseline_hits,
            "baseline_misses" => self.baseline_misses,
            _ => unreachable!("unknown cache field"),
        }
    }

    fn field_mut(&mut self, name: &str) -> &mut u64 {
        match name {
            "circuit_hits" => &mut self.circuit_hits,
            "circuit_misses" => &mut self.circuit_misses,
            "compile_hits" => &mut self.compile_hits,
            "compile_misses" => &mut self.compile_misses,
            "hardware_hits" => &mut self.hardware_hits,
            "hardware_misses" => &mut self.hardware_misses,
            "seq_db_hits" => &mut self.seq_db_hits,
            "seq_db_misses" => &mut self.seq_db_misses,
            "min_lengths_hits" => &mut self.min_lengths_hits,
            "min_lengths_misses" => &mut self.min_lengths_misses,
            "baseline_hits" => &mut self.baseline_hits,
            "baseline_misses" => &mut self.baseline_misses,
            _ => unreachable!("unknown cache field"),
        }
    }

    /// Reads the stats back from their [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let mut out = CacheStats::default();
        for name in CACHE_FIELDS {
            *out.field_mut(name) = j.count_field(name, "cache stats")?;
        }
        Ok(out)
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::obj(CACHE_FIELDS.map(|name| (name, self.field(name).to_json())))
    }
}

/// One merged sweep result row.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Controller design.
    pub design: ControllerDesign,
    /// Group count `G`.
    pub groups: usize,
    /// Benchmark display name.
    pub benchmark: String,
    /// Width of the generated benchmark instance.
    pub n_qubits: usize,
    /// Drift seed of this job.
    pub seed: u64,
    /// Synthesized power, W (present when the spec requested hardware and
    /// the design is buildable).
    pub power_w: Option<f64>,
    /// The full evaluation report.
    pub report: BenchmarkReport,
}

impl ToJson for JobRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("design", self.design.to_json()),
            ("groups", self.groups.to_json()),
            ("benchmark", self.benchmark.to_json()),
            ("n_qubits", self.n_qubits.to_json()),
            ("seed", self.seed.to_json()),
            ("power_w", self.power_w.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

impl JobRecord {
    /// Reads a record back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "job record";
        let power_w = match j.get("power_w") {
            None => return Err("job record missing `power_w`".to_string()),
            Some(Json::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or("job record `power_w` must be null or a number")?,
            ),
        };
        Ok(JobRecord {
            design: ControllerDesign::from_json(
                j.get("design").ok_or("job record missing `design`")?,
            )?,
            groups: j.count_field("groups", CTX)? as usize,
            benchmark: j.str_field("benchmark", CTX)?.to_string(),
            n_qubits: j.count_field("n_qubits", CTX)? as usize,
            seed: j.count_field("seed", CTX)?,
            power_w,
            report: BenchmarkReport::from_json(
                j.get("report").ok_or("job record missing `report`")?,
            )?,
        })
    }
}

/// The aggregated result of one sweep, serializable through
/// [`sfq_hw::json`] and readable back via [`SweepReport::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Device grid rows.
    pub grid_rows: usize,
    /// Device grid columns.
    pub grid_cols: usize,
    /// One record per job, in merge (job-index) order.
    pub jobs: Vec<JobRecord>,
    /// Cache accounting for this run.
    pub cache: CacheStats,
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("grid_rows", self.grid_rows.to_json()),
            ("grid_cols", self.grid_cols.to_json()),
            ("jobs", self.jobs.to_json()),
            ("cache", self.cache.to_json()),
        ])
    }
}

impl SweepReport {
    /// Reads a report back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "sweep report";
        let jobs = match j.get("jobs") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(JobRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("sweep report missing array `jobs`".to_string()),
        };
        Ok(SweepReport {
            grid_rows: j.count_field("grid_rows", CTX)? as usize,
            grid_cols: j.count_field("grid_cols", CTX)? as usize,
            jobs,
            cache: CacheStats::from_json(j.get("cache").ok_or("sweep report missing `cache`")?)?,
        })
    }

    /// Parses a serialized report (the inverse of
    /// [`ToJson::to_json_string`]).
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first structural mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        SweepReport::from_json(&j)
    }
}

/// Per-pass build accounting accumulated on stage-cache misses (the only
/// time a pass actually runs inside the engine).
#[derive(Debug, Clone, Copy, Default)]
struct PassBuildAgg {
    wall_ns: f64,
    gates_in: u64,
    gates_out: u64,
    swaps_added: u64,
    slots_out: u64,
}

/// Cache accounting of one pipeline stage: the per-pass counters behind
/// [`EvalEngine::pass_cache_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct PassCacheStat {
    /// Stage label (`lower`, `route`, `lower_swaps`, `schedule`, …).
    pub pass: String,
    /// Lookups that reused a cached stage artifact.
    pub hits: u64,
    /// Lookups that ran the pass.
    pub misses: u64,
    /// Total wall-clock spent running the pass (misses only), ns.
    pub wall_ns: f64,
    /// Total gates entering the pass across builds.
    pub gates_in: u64,
    /// Total gates leaving the pass across builds.
    pub gates_out: u64,
    /// Total SWAPs the pass inserted across builds.
    pub swaps_added: u64,
    /// Total slots the pass emitted across builds.
    pub slots_out: u64,
}

impl ToJson for PassCacheStat {
    fn to_json(&self) -> Json {
        Json::obj([
            ("pass", self.pass.to_json()),
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("wall_ns", self.wall_ns.to_json()),
            ("gates_in", self.gates_in.to_json()),
            ("gates_out", self.gates_out.to_json()),
            ("swaps_added", self.swaps_added.to_json()),
            ("slots_out", self.slots_out.to_json()),
        ])
    }
}

impl PassCacheStat {
    /// Reads a stat back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "pass cache stat";
        Ok(PassCacheStat {
            pass: j.str_field("pass", CTX)?.to_string(),
            hits: j.count_field("hits", CTX)?,
            misses: j.count_field("misses", CTX)?,
            wall_ns: j.num_field("wall_ns", CTX)?,
            gates_in: j.count_field("gates_in", CTX)?,
            gates_out: j.count_field("gates_out", CTX)?,
            swaps_added: j.count_field("swaps_added", CTX)?,
            slots_out: j.count_field("slots_out", CTX)?,
        })
    }
}

/// Per-pass cache accounting of an engine, label-sorted. Like
/// [`EvalEngine::cosim_cache_stats`], this lives **outside**
/// [`CacheStats`] so the serialized sweep report and its golden file are
/// unchanged by stage-granular caching; hit/miss totals are
/// deterministic for a fixed job set regardless of worker count
/// (wall-clock totals are not).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassCacheStats {
    /// One entry per stage label that ran at least one lookup.
    pub passes: Vec<PassCacheStat>,
}

impl PassCacheStats {
    /// The entry for a stage label, if that stage ever ran.
    pub fn get(&self, pass: &str) -> Option<&PassCacheStat> {
        self.passes.iter().find(|p| p.pass == pass)
    }

    /// Reads the stats back from their [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let passes = match j.get("passes") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(PassCacheStat::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("pass cache stats missing array `passes`".to_string()),
        };
        Ok(PassCacheStats { passes })
    }

    /// Parses serialized stats (the inverse of [`ToJson::to_json_string`]).
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first structural mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        PassCacheStats::from_json(&j)
    }
}

impl ToJson for PassCacheStats {
    fn to_json(&self) -> Json {
        Json::obj([("passes", self.passes.to_json())])
    }
}

/// The batched evaluation engine: holds the cost model and the unified
/// [`ArtifactStore`] every artifact memoizes into. Cheap to share behind
/// `&self` — all methods are thread-safe — and long-lived engines keep
/// their store warm across [`EvalEngine::run`] calls. Engines built over
/// a disk-backed store ([`EvalEngine::with_store`]) additionally
/// warm-start compiled stages, baselines and co-simulations from a
/// previous process. Multi-tenant drivers (the `digiq-serve` daemon)
/// share one engine across worker threads and open an [`EvalSession`]
/// per request for isolated accounting.
#[derive(Debug)]
pub struct EvalEngine {
    model: CostModel,
    /// The unified artifact store (shareable with `DigiqSystem`s via
    /// [`EvalEngine::store`]; note that sharing also shares counters).
    store: Arc<ArtifactStore>,
    /// The engine's own accounting state: every legacy `EvalEngine`
    /// method charges here, cumulative across runs.
    root: SessionState,
}

/// The per-request (or per-driver) accounting an evaluation carries:
/// final-stage compile hit/miss counters ([`CacheStats::compile_hits`] /
/// `compile_misses`, numerically identical to the historical
/// whole-compile cache) and per-pass build aggregates. Historically
/// these lived directly on [`EvalEngine`], which assumed one driving
/// process per engine; extracting them lets one shared engine serve many
/// concurrent sessions ([`EvalEngine::session`]) with independent
/// accounting, while the engine's own `root` state keeps the legacy
/// cumulative behaviour.
#[derive(Debug, Default)]
struct SessionState {
    compile_hits: AtomicU64,
    compile_misses: AtomicU64,
    pass_builds: Mutex<BTreeMap<String, PassBuildAgg>>,
}

impl Default for EvalEngine {
    fn default() -> Self {
        EvalEngine::new(CostModel::default())
    }
}

/// The shared per-job artifact bundle assembled by `EvalEngine::job_context`
/// for both evaluation modes.
struct JobContext {
    key: CompileKey,
    circuit: Arc<Circuit>,
    compiled: Arc<CompileArtifact>,
    params: ExecParams,
    groups: Vec<usize>,
}

/// Cache key of a compiled artifact: (circuit fingerprint, layout
/// fingerprint, grid rows, grid cols, pipeline fingerprint).
type CompileKey = (u64, u64, usize, usize, u64);

fn compile_key(circuit: &Circuit, grid: &Grid, pipeline: &PipelineConfig) -> CompileKey {
    let layout = Layout::snake(circuit.n_qubits(), grid);
    (
        circuit.cache_key(),
        layout.cache_key(),
        grid.rows(),
        grid.cols(),
        pipeline.fingerprint(),
    )
}

/// Store key of a benchmark circuit: name × scale × generation seed.
fn circuit_store_key(spec: BenchmarkSpec, base_seed: u64) -> u64 {
    let (tag, budget) = match spec.scale {
        BenchScale::Paper => (0u64, 0u64),
        BenchScale::Small { max_qubits } => (1, max_qubits as u64),
    };
    qsim::rng::stable_hash_str(spec.bench.name(), &[tag, budget, base_seed])
}

/// Store key of the Impossible-MIMD baseline of a compiled artifact.
fn baseline_store_key(key: CompileKey) -> u64 {
    qsim::rng::stable_hash_str(
        "baseline",
        &[key.0, key.1, key.2 as u64, key.3 as u64, key.4],
    )
}

/// Store key of a co-simulation: the compiled artifact plus everything
/// the engine-derived [`ExecParams`] depends on (design point and derived
/// seed). Engine co-simulations always run untraced, so the trace flag is
/// not part of the key.
fn cosim_store_key(key: CompileKey, design: ControllerDesign, groups: usize, seed: u64) -> u64 {
    let [d, bs] = store::design_words(design);
    qsim::rng::stable_hash_str(
        "cosim",
        &[
            key.0,
            key.1,
            key.2 as u64,
            key.3 as u64,
            key.4,
            d,
            bs,
            groups as u64,
            seed,
        ],
    )
}

/// Generates a benchmark circuit at a spec entry's scale (the pure
/// builder behind [`EvalEngine::benchmark_circuit`] and
/// [`EvalEngine::cold_cache_stats`]).
fn generate_circuit(spec: BenchmarkSpec, base_seed: u64) -> Circuit {
    match spec.scale {
        BenchScale::Paper => spec.bench.paper_scale(),
        BenchScale::Small { max_qubits } => spec.bench.scaled(max_qubits, base_seed),
    }
}

impl EvalEngine {
    /// Creates an engine over a fresh unbounded in-memory store — the
    /// default configuration every golden file pins.
    pub fn new(model: CostModel) -> Self {
        EvalEngine::with_store(model, Arc::new(ArtifactStore::in_memory()))
    }

    /// Creates an engine over an explicit store — bounded, disk-backed
    /// ([`StoreConfig`]), or shared with other engines / `DigiqSystem`s.
    pub fn with_store(model: CostModel, store: Arc<ArtifactStore>) -> Self {
        EvalEngine {
            model,
            store,
            root: SessionState::default(),
        }
    }

    /// Convenience constructor: an engine over a new store with the given
    /// configuration.
    pub fn with_store_config(model: CostModel, config: StoreConfig) -> Self {
        EvalEngine::with_store(model, Arc::new(ArtifactStore::with_config(config)))
    }

    /// The engine's artifact store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// The engine's cost model (what
    /// [`crate::system::DigiqSystem::build_for_engine`] shares).
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Store-wide per-namespace counters (hits, misses, disk hits,
    /// builds, evictions), surfaced beside [`EvalEngine::pass_cache_stats`].
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The benchmark circuit for a spec entry, generated at most once per
    /// (benchmark, scale, seed).
    pub fn benchmark_circuit(&self, spec: BenchmarkSpec, base_seed: u64) -> Arc<Circuit> {
        self.store
            .get_or_build(ns::CIRCUIT, circuit_store_key(spec, base_seed), || {
                generate_circuit(spec, base_seed)
            })
    }

    /// Folds one pass build's metrics into a session's accounting.
    fn record_pass_build(state: &SessionState, m: &PassMetrics) {
        let mut map = lock_unpoisoned(&state.pass_builds);
        let agg = map.entry(m.pass.clone()).or_default();
        agg.wall_ns += m.wall_ns;
        agg.gates_in += m.gates_before as u64;
        agg.gates_out += m.gates_after as u64;
        agg.swaps_added += m.swap_delta() as u64;
        agg.slots_out += m.slots_after.unwrap_or(0) as u64;
    }

    /// The fully compiled artifact of `circuit` on `grid` under the
    /// **default** pipeline (snake initial layout) — see
    /// [`EvalEngine::compiled_with`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than the grid has.
    pub fn compiled(&self, circuit: &Circuit, grid: &Grid) -> Arc<CompileArtifact> {
        self.compiled_with(circuit, grid, &PipelineConfig::default())
    }

    /// Compiles `circuit` on `grid` (snake initial layout) through the
    /// shared [`Pipeline::standard`] for `cfg`, memoizing **every stage**
    /// under its chained stable key: each pass runs at most once per
    /// distinct (input, pass-prefix) fingerprint, and pipelines sharing a
    /// prefix (all designs and seeds of a sweep; different schedulers
    /// over one routed circuit) share the cached prefix artifacts.
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than the grid has, or if a
    /// pass or its post-validation fails (a configuration bug — every
    /// schedule is checked by its strategy's validator on build).
    pub fn compiled_with(
        &self,
        circuit: &Circuit,
        grid: &Grid,
        cfg: &PipelineConfig,
    ) -> Arc<CompileArtifact> {
        self.compiled_in(&self.root, circuit, grid, cfg)
    }

    fn compiled_in(
        &self,
        state: &SessionState,
        circuit: &Circuit,
        grid: &Grid,
        cfg: &PipelineConfig,
    ) -> Arc<CompileArtifact> {
        let (artifact, final_missed) =
            store::compile_cached(&self.store, circuit, grid, cfg, |m| {
                Self::record_pass_build(state, m)
            });
        if final_missed {
            state.compile_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            state.compile_hits.fetch_add(1, Ordering::Relaxed);
        }
        artifact
    }

    /// The synthesized hardware of a design point (paper-default system
    /// configuration), built at most once per (design, groups). Returns
    /// `None` for the unbuildable Impossible MIMD reference.
    pub fn hardware(&self, design: ControllerDesign, groups: usize) -> Option<Arc<DesignHardware>> {
        if design == ControllerDesign::ImpossibleMimd {
            return None;
        }
        Some(
            self.store
                .get_or_build(ns::HARDWARE, store::hardware_key(design, groups), || {
                    build_hardware(&SystemConfig::paper_default(design, groups), &self.model)
                }),
        )
    }

    /// The shared sequence database for a basis kind, built at most once
    /// and handed out as a [`SharedSequenceDb`] handle.
    pub fn sequence_db(&self, kind: MinBasisKind) -> SharedSequenceDb {
        self.store
            .get_or_build(ns::SEQ_DB, store::basis_kind_key(kind), || {
                SequenceDb::build(&kind.basis(), kind.half_depth())
            })
    }

    /// The measured sequence-length distribution a design's executor
    /// charges, derived from the cached database; `None` for designs that
    /// do not decompose over a discrete basis.
    pub fn min_lengths(&self, design: ControllerDesign) -> Option<Arc<Vec<usize>>> {
        if !matches!(
            design,
            ControllerDesign::DigiqMin { .. } | ControllerDesign::SfqMimdDecomp
        ) {
            return None;
        }
        let kind = MinBasisKind::for_design(design);
        let db = self.sequence_db(kind);
        Some(
            self.store
                .get_or_build(ns::MIN_LENGTHS, store::basis_kind_key(kind), || {
                    measured_min_lengths_with_db(&kind.basis(), &db)
                }),
        )
    }

    /// Current cumulative cache accounting, read from the store's
    /// per-namespace counters (compile hits/misses account the final
    /// pipeline stage of this engine's own compiles).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats_in(&self.root)
    }

    fn cache_stats_in(&self, state: &SessionState) -> CacheStats {
        let counts = |name: &str| {
            let s = self.store.namespace_stats(name);
            (s.hits, s.misses)
        };
        let (circuit_hits, circuit_misses) = counts(ns::CIRCUIT);
        let (hardware_hits, hardware_misses) = counts(ns::HARDWARE);
        let (seq_db_hits, seq_db_misses) = counts(ns::SEQ_DB);
        let (min_lengths_hits, min_lengths_misses) = counts(ns::MIN_LENGTHS);
        let (baseline_hits, baseline_misses) = counts(ns::BASELINE);
        CacheStats {
            circuit_hits,
            circuit_misses,
            compile_hits: state.compile_hits.load(Ordering::Relaxed),
            compile_misses: state.compile_misses.load(Ordering::Relaxed),
            hardware_hits,
            hardware_misses,
            seq_db_hits,
            seq_db_misses,
            min_lengths_hits,
            min_lengths_misses,
            baseline_hits,
            baseline_misses,
        }
    }

    /// Per-pass cache accounting across every pipeline stage in the
    /// engine's store, label-sorted. Hit/miss totals are deterministic
    /// for a fixed job set regardless of worker count (under the default
    /// unbounded in-memory store).
    pub fn pass_cache_stats(&self) -> PassCacheStats {
        self.pass_cache_stats_in(&self.root, None)
    }

    /// Per-pass accounting of `state`; with a `base` store snapshot the
    /// stage hit/miss counters are the delta since that snapshot (what a
    /// per-request [`EvalSession`] reports), otherwise they are the
    /// store's cumulative counters.
    fn pass_cache_stats_in(
        &self,
        state: &SessionState,
        base: Option<&StoreStats>,
    ) -> PassCacheStats {
        let builds = lock_unpoisoned(&state.pass_builds);
        let stats = self.store.stats();
        let stats = match base {
            Some(base) => stats.since(base),
            None => stats,
        };
        let passes = stats
            .namespaces
            .iter()
            .filter(|n| n.namespace.starts_with(ns::STAGE_PREFIX))
            .map(|n| {
                let label = &n.namespace[ns::STAGE_PREFIX.len()..];
                let agg = builds.get(label).copied().unwrap_or_default();
                PassCacheStat {
                    pass: label.to_string(),
                    hits: n.hits,
                    misses: n.misses,
                    wall_ns: agg.wall_ns,
                    gates_in: agg.gates_in,
                    gates_out: agg.gates_out,
                    swaps_added: agg.swaps_added,
                    slots_out: agg.slots_out,
                }
            })
            .collect();
        PassCacheStats { passes }
    }

    /// [`CacheStats`] of a **cold, uninterrupted** run of `spec` on a
    /// fresh engine, computed as a pure function of the spec without
    /// executing any job: lookups are fixed per job and misses count
    /// distinct content keys (circuits are generated once per distinct
    /// benchmark instance to fingerprint the compile inputs). Pinned
    /// equal to live accounting by `crates/core/tests/store_persist.rs`;
    /// journaled runs ([`EvalEngine::run_journaled`]) report this, so a
    /// resumed sweep serializes byte-identically to an uninterrupted one.
    pub fn cold_cache_stats(spec: &SweepSpec) -> CacheStats {
        Self::cold_cache_stats_with(spec, |b| generate_circuit(b, spec.base_seed).into())
    }

    /// [`EvalEngine::cold_cache_stats`] reusing this engine's already
    /// resident benchmark circuits (a counter-neutral
    /// [`ArtifactStore::peek`]) instead of regenerating them — what
    /// [`EvalEngine::run_journaled`] calls, so a journaled sweep does
    /// not re-run the paper-scale circuit generators just to
    /// fingerprint the compile inputs. Circuits a resumed run skipped
    /// entirely are still generated on demand.
    fn cold_cache_stats_warm(&self, spec: &SweepSpec) -> CacheStats {
        Self::cold_cache_stats_with(spec, |b| {
            self.store
                .peek::<Circuit>(ns::CIRCUIT, circuit_store_key(b, spec.base_seed))
                .unwrap_or_else(|| generate_circuit(b, spec.base_seed).into())
        })
    }

    fn cold_cache_stats_with(
        spec: &SweepSpec,
        mut circuit_of: impl FnMut(BenchmarkSpec) -> Arc<Circuit>,
    ) -> CacheStats {
        let grid = Grid::new(spec.grid_rows, spec.grid_cols);
        let jobs = spec.job_count() as u64;

        let mut distinct_specs: Vec<BenchmarkSpec> = Vec::new();
        for &b in &spec.benchmarks {
            if !distinct_specs.contains(&b) {
                distinct_specs.push(b);
            }
        }
        let mut compile_inputs: BTreeSet<(u64, u64)> = BTreeSet::new();
        for &b in &distinct_specs {
            let circuit = circuit_of(b);
            let layout = Layout::snake(circuit.n_qubits(), &grid);
            compile_inputs.insert((circuit.cache_key(), layout.cache_key()));
        }
        let circuit_misses = distinct_specs.len() as u64;
        let compile_misses = compile_inputs.len() as u64;

        let per_point = (spec.benchmarks.len() * spec.seeds.len()) as u64;
        let mut hardware_lookups = 0u64;
        let mut hardware_keys: BTreeSet<([u64; 2], usize)> = BTreeSet::new();
        let mut decomp_lookups = 0u64;
        let mut decomp_kinds: BTreeSet<u64> = BTreeSet::new();
        for point in &spec.designs {
            if spec.synthesize_hardware && point.design != ControllerDesign::ImpossibleMimd {
                hardware_lookups += per_point;
                hardware_keys.insert((store::design_words(point.design), point.groups));
            }
            if matches!(
                point.design,
                ControllerDesign::DigiqMin { .. } | ControllerDesign::SfqMimdDecomp
            ) {
                decomp_lookups += per_point;
                decomp_kinds.insert(store::basis_kind_key(MinBasisKind::for_design(
                    point.design,
                )));
            }
        }
        let hardware_misses = hardware_keys.len() as u64;
        let decomp_misses = decomp_kinds.len() as u64;

        CacheStats {
            circuit_hits: jobs - circuit_misses,
            circuit_misses,
            compile_hits: jobs - compile_misses,
            compile_misses,
            hardware_hits: hardware_lookups - hardware_misses,
            hardware_misses,
            seq_db_hits: decomp_lookups - decomp_misses,
            seq_db_misses: decomp_misses,
            min_lengths_hits: decomp_lookups - decomp_misses,
            min_lengths_misses: decomp_misses,
            baseline_hits: jobs - compile_misses,
            baseline_misses: compile_misses,
        }
    }

    /// Assembles the shared per-job artifacts — identical for the
    /// analytic and co-simulation modes.
    fn job_context(&self, state: &SessionState, spec: &SweepSpec, job: &JobSpec) -> JobContext {
        let grid = Grid::new(spec.grid_rows, spec.grid_cols);
        let circuit = self.benchmark_circuit(job.bench, spec.base_seed);
        let compiled = self.compiled_in(state, &circuit, &grid, &spec.pipeline);
        let key = compile_key(&circuit, &grid, &spec.pipeline);

        let mut config = SystemConfig::paper_default(job.point.design, job.point.groups);
        config.n_qubits = grid.n_qubits();
        let mut params = ExecParams::new(config);
        params.seed = derive_seed(spec.base_seed, job.seed);
        if let Some(lengths) = self.min_lengths(job.point.design) {
            params.min_lengths = (*lengths).clone();
        }

        let groups =
            checkerboard_groups(grid.cols(), grid.n_qubits(), job.point.groups.clamp(1, 2));
        JobContext {
            key,
            circuit,
            compiled,
            params,
            groups,
        }
    }

    /// Evaluates one job (pure given the spec; used by [`EvalEngine::run`]
    /// and directly by tests).
    pub fn run_job(&self, spec: &SweepSpec, job: &JobSpec) -> JobRecord {
        self.run_job_in(&self.root, spec, job)
    }

    fn run_job_in(&self, state: &SessionState, spec: &SweepSpec, job: &JobSpec) -> JobRecord {
        let JobContext {
            key,
            circuit,
            compiled,
            params,
            groups,
        } = self.job_context(state, spec, job);
        let exec = execute(&compiled.circuit, compiled.scheduled(), &groups, &params);
        // The Impossible MIMD normalization baseline ignores the seed,
        // the group map and the decomposition distribution, so it is a
        // pure function of the compiled artifact — memoize it per
        // compile key instead of re-running it for every design and seed
        // (and persist it: with a disk-backed store a warm-started sweep
        // skips the baseline executions too).
        let base_exec =
            self.store
                .get_or_build_artifact(ns::BASELINE, baseline_store_key(key), || {
                    let mut base = params.clone();
                    base.config.design = ControllerDesign::ImpossibleMimd;
                    execute(&compiled.circuit, compiled.scheduled(), &groups, &base)
                });

        let power_w = if spec.synthesize_hardware {
            self.hardware(job.point.design, job.point.groups)
                .map(|hw| hw.report.power_w)
        } else {
            None
        };

        JobRecord {
            design: job.point.design,
            groups: job.point.groups,
            benchmark: job.bench.bench.name().to_string(),
            n_qubits: circuit.n_qubits(),
            seed: job.seed,
            power_w,
            report: BenchmarkReport {
                benchmark: job.bench.bench.name().to_string(),
                logical_gates: compiled.logical_gates,
                swaps: compiled.swaps,
                slots: compiled.scheduled().len(),
                normalized_time: exec.total_ns / base_exec.total_ns.max(f64::MIN_POSITIVE),
                exec,
            },
        }
    }

    /// Runs the whole sweep on `workers` scoped threads and merges the
    /// records in job-index order. The report (including its cache
    /// accounting) is identical for any worker count.
    pub fn run(&self, spec: &SweepSpec, workers: usize) -> SweepReport {
        self.run_in(&self.root, spec, workers)
    }

    fn run_in(&self, state: &SessionState, spec: &SweepSpec, workers: usize) -> SweepReport {
        let before = self.cache_stats_in(state);
        let jobs = spec.jobs();
        let records = par_map_ordered(&jobs, workers, |_, job| self.run_job_in(state, spec, job));
        SweepReport {
            grid_rows: spec.grid_rows,
            grid_cols: spec.grid_cols,
            jobs: records,
            cache: self.cache_stats_in(state).since(&before),
        }
    }

    /// Co-simulates one job: the cycle-accurate machine and the analytic
    /// model run on the *same* compiled artifact, parameters, and group
    /// map, so the record carries both sides of the differential check.
    /// Co-simulations are memoized per (compiled artifact, design point,
    /// derived seed).
    pub fn run_cosim_job(&self, spec: &SweepSpec, job: &JobSpec) -> CosimRecord {
        self.run_cosim_job_in(&self.root, spec, job)
    }

    fn run_cosim_job_in(
        &self,
        state: &SessionState,
        spec: &SweepSpec,
        job: &JobSpec,
    ) -> CosimRecord {
        let JobContext {
            key,
            circuit,
            compiled,
            params,
            groups,
        } = self.job_context(state, spec, job);
        let cosim = self.store.get_or_build_artifact(
            ns::COSIM,
            cosim_store_key(key, job.point.design, job.point.groups, params.seed),
            || {
                cosim::simulate(
                    &compiled.circuit,
                    compiled.scheduled(),
                    &groups,
                    &CosimParams::new(params.clone()),
                )
            },
        );
        let analytic = execute(&compiled.circuit, compiled.scheduled(), &groups, &params);
        CosimRecord {
            design: job.point.design,
            groups: job.point.groups,
            benchmark: job.bench.bench.name().to_string(),
            n_qubits: circuit.n_qubits(),
            seed: job.seed,
            cosim: (*cosim).clone(),
            analytic,
        }
    }

    /// The co-simulation evaluation mode: the same sweep sharding and
    /// job-index merge as [`EvalEngine::run`], but every job runs the
    /// cycle-accurate machine alongside the analytic model. Byte-identical
    /// serialized output for any worker count.
    pub fn run_cosim(&self, spec: &SweepSpec, workers: usize) -> CosimSweepReport {
        self.run_cosim_in(&self.root, spec, workers)
    }

    fn run_cosim_in(
        &self,
        state: &SessionState,
        spec: &SweepSpec,
        workers: usize,
    ) -> CosimSweepReport {
        let jobs = spec.jobs();
        let records = par_map_ordered(&jobs, workers, |_, job| {
            self.run_cosim_job_in(state, spec, job)
        });
        CosimSweepReport {
            grid_rows: spec.grid_rows,
            grid_cols: spec.grid_cols,
            jobs: records,
        }
    }

    /// Co-simulation cache accounting: `(hits, misses)`. Kept out of
    /// [`CacheStats`] so the analytic sweep's serialized report (and its
    /// golden file) is unchanged by the co-simulation mode.
    pub fn cosim_cache_stats(&self) -> (u64, u64) {
        let s = self.store.namespace_stats(ns::COSIM);
        (s.hits, s.misses)
    }

    /// [`EvalEngine::run`] with a job-completion journal: every finished
    /// job is appended (and flushed) to `journal`, and with `resume` the
    /// jobs already journaled are loaded instead of re-run — an
    /// interrupted sweep picks up exactly where it stopped. The merged
    /// report's cache accounting is [`EvalEngine::cold_cache_stats`]
    /// (the deterministic accounting of an uninterrupted cold run), so a
    /// resumed sweep serializes **byte-identically** to an uninterrupted
    /// one.
    ///
    /// `interrupt_after` deliberately stops the run after that many
    /// fresh jobs (the testing hook behind `sweep --interrupt-after`);
    /// an interrupted run returns `None`.
    pub fn run_journaled(
        &self,
        spec: &SweepSpec,
        workers: usize,
        journal: &SweepJournal,
        resume: bool,
        interrupt_after: Option<usize>,
    ) -> Option<SweepReport> {
        self.run_journaled_in(
            &self.root,
            spec,
            workers,
            journal,
            resume,
            RunControl {
                interrupt_after,
                stop: None,
            },
        )
    }

    fn run_journaled_in(
        &self,
        state: &SessionState,
        spec: &SweepSpec,
        workers: usize,
        journal: &SweepJournal,
        resume: bool,
        ctl: RunControl<'_>,
    ) -> Option<SweepReport> {
        let jobs = spec.jobs();
        let mut merged: BTreeMap<usize, JobRecord> = BTreeMap::new();
        if resume {
            for (index, record) in journal.load() {
                let index = index as usize;
                if index < jobs.len() {
                    if let Ok(record) = JobRecord::from_json(&record) {
                        merged.insert(index, record);
                    }
                }
            }
        }
        let mut pending: Vec<JobSpec> = jobs
            .iter()
            .filter(|j| !merged.contains_key(&j.index))
            .copied()
            .collect();
        let interrupted = ctl.interrupt_after.is_some_and(|n| n < pending.len());
        if let Some(n) = ctl.interrupt_after {
            pending.truncate(n);
        }
        // A hand-rolled pool rather than `par_map_ordered`: workers check
        // the external stop flag before claiming each job, so a draining
        // server stops between jobs while every job already claimed still
        // finishes and journals (the journal is what makes the drain
        // recoverable).
        let workers = workers.max(1).min(pending.len().max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<JobRecord>>> =
            pending.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    if ctl.stop.is_some_and(|f| f.load(Ordering::Relaxed)) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= pending.len() {
                        break;
                    }
                    let job = &pending[i];
                    let record = self.run_job_in(state, spec, job);
                    journal.append(job.index as u64, &record.to_json());
                    *lock_unpoisoned(&slots[i]) = Some(record);
                });
            }
        });
        let mut completed = 0usize;
        for (job, slot) in pending.iter().zip(slots) {
            let record = slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(record) = record {
                merged.insert(job.index, record);
                completed += 1;
            }
        }
        if interrupted || completed < pending.len() {
            return None;
        }
        debug_assert_eq!(merged.len(), jobs.len());
        Some(SweepReport {
            grid_rows: spec.grid_rows,
            grid_cols: spec.grid_cols,
            jobs: merged.into_values().collect(),
            cache: self.cold_cache_stats_warm(spec),
        })
    }

    /// Runs `spec` as one worker of a **distributed** sweep: any number
    /// of processes sharing one cache dir cooperate with no coordinator,
    /// each claiming jobs through the store's claim files
    /// ([`crate::store::JobClaims`]), evaluating them single-file, and
    /// streaming completions into its own shard journal
    /// (`<spec key>.<worker>.jsonl`) so no two processes ever append to
    /// the same file. A worker whose scan finds every remaining job
    /// claimed by someone else waits and rescans — a killed worker's
    /// claims stop being heartbeated, go stale after the TTL, and are
    /// reclaimed by the survivors — and every worker returns only once
    /// all jobs are journaled, handing back the merged report (identical
    /// bytes to [`EvalEngine::merge_distributed`], the serial run, and
    /// the journaled run: pure job records merged in index order with
    /// the deterministic cold-run cache accounting stamped on top).
    ///
    /// `stop` aborts between jobs (returning `Ok(None)`) the way a
    /// draining server stops a journaled sweep.
    ///
    /// # Errors
    ///
    /// Returns the IO error if the claim directory or shard journal
    /// cannot be created.
    pub fn run_distributed(
        &self,
        spec: &SweepSpec,
        cache_dir: &Path,
        cfg: &DistributedConfig,
        stop: Option<&AtomicBool>,
    ) -> std::io::Result<Option<SweepReport>> {
        self.run_distributed_in(&self.root, spec, cache_dir, cfg, stop)
    }

    fn run_distributed_in(
        &self,
        state: &SessionState,
        spec: &SweepSpec,
        cache_dir: &Path,
        cfg: &DistributedConfig,
        stop: Option<&AtomicBool>,
    ) -> std::io::Result<Option<SweepReport>> {
        let key = spec.stable_key();
        let journal_dir = ArtifactStore::journal_dir(cache_dir);
        let claims = JobClaims::open(cache_dir, key, &cfg.worker, cfg.claim_ttl)?;
        let shard = SweepJournal::open_shard(&journal_dir, key, &cfg.worker)?;
        let jobs = spec.jobs();
        let load_done = || -> BTreeMap<usize, JobRecord> {
            let mut done = BTreeMap::new();
            for (index, record) in SweepJournal::load_all(&journal_dir, key) {
                let index = index as usize;
                if index < jobs.len() {
                    if let Ok(record) = JobRecord::from_json(&record) {
                        done.insert(index, record);
                    }
                }
            }
            done
        };
        let mut done = load_done();
        while done.len() < jobs.len() {
            if stop.is_some_and(|f| f.load(Ordering::Relaxed)) {
                return Ok(None);
            }
            let mut progressed = false;
            // Scan from this worker's offset so workers spread over
            // disjoint regions first and only contend at the end.
            for k in 0..jobs.len() {
                if stop.is_some_and(|f| f.load(Ordering::Relaxed)) {
                    return Ok(None);
                }
                let job = &jobs[(k + cfg.scan_offset) % jobs.len()];
                if done.contains_key(&job.index) || !claims.try_claim(job.index as u64) {
                    continue;
                }
                // Between our last journal scan and winning the claim,
                // another worker may have journaled this job and released
                // — re-check before evaluating so a job is never
                // journaled twice.
                done = load_done();
                if done.contains_key(&job.index) {
                    claims.release(job.index as u64);
                    continue;
                }
                let _hb = claims.heartbeat(job.index as u64);
                if let Some(hold) = cfg.hold {
                    std::thread::sleep(hold);
                }
                let record = self.run_job_in(state, spec, job);
                shard.append(job.index as u64, &record.to_json());
                claims.release(job.index as u64);
                done.insert(job.index, record);
                progressed = true;
            }
            if !progressed && done.len() < jobs.len() {
                // Everything left is claimed elsewhere: wait for those
                // workers to journal — or for their claims to go stale.
                std::thread::sleep(cfg.poll);
                done = load_done();
            }
        }
        Ok(Some(SweepReport {
            grid_rows: spec.grid_rows,
            grid_cols: spec.grid_cols,
            jobs: done.into_values().collect(),
            cache: self.cold_cache_stats_warm(spec),
        }))
    }

    /// Assembles the final report of a distributed sweep from whatever
    /// shard layout the workers left behind: loads the base journal plus
    /// every worker shard, merges records in job-index order, and stamps
    /// the deterministic cold-run cache accounting — so the merged bytes
    /// are identical to a serial [`EvalEngine::run`] of the same spec no
    /// matter how many workers ran, which worker evaluated which job, or
    /// how often a job was re-run after a claim expired.
    ///
    /// # Errors
    ///
    /// Returns a description when any job is missing from the journals
    /// (the sweep is still running, or a worker died un-reclaimed).
    pub fn merge_distributed(
        &self,
        spec: &SweepSpec,
        cache_dir: &Path,
    ) -> Result<SweepReport, String> {
        let journal_dir = ArtifactStore::journal_dir(cache_dir);
        let jobs = spec.job_count();
        let mut merged: BTreeMap<usize, JobRecord> = BTreeMap::new();
        for (index, record) in SweepJournal::load_all(&journal_dir, spec.stable_key()) {
            let index = index as usize;
            if index < jobs {
                if let Ok(record) = JobRecord::from_json(&record) {
                    merged.insert(index, record);
                }
            }
        }
        if merged.len() < jobs {
            return Err(format!(
                "distributed sweep incomplete: {}/{} jobs journaled under {}",
                merged.len(),
                jobs,
                journal_dir.display()
            ));
        }
        Ok(SweepReport {
            grid_rows: spec.grid_rows,
            grid_cols: spec.grid_cols,
            jobs: merged.into_values().collect(),
            cache: self.cold_cache_stats_warm(spec),
        })
    }

    /// Opens a per-request [`EvalSession`] over this engine — the unit
    /// of isolation digiq-serve gives each client request while the
    /// engine itself (and its `Arc<ArtifactStore>`) is shared across
    /// every server worker thread.
    pub fn session(&self) -> EvalSession<'_> {
        EvalSession {
            engine: self,
            state: SessionState::default(),
            base: self.cache_stats_in(&SessionState::default()),
            store_base: self.store.stats(),
        }
    }
}

/// Configuration of one distributed sweep worker
/// ([`EvalEngine::run_distributed`]).
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Worker label: names the shard journal file and is written into
    /// claim bodies for diagnostics (`w0`, `serve-4217`, …).
    pub worker: String,
    /// Job index this worker's scan starts from (workers spread over
    /// disjoint regions first; `worker_id * jobs / n_workers` for evenly
    /// offset CLI workers).
    pub scan_offset: usize,
    /// How long an un-refreshed claim stays valid before another worker
    /// may steal it. Must comfortably exceed the heartbeat period
    /// (quarter-TTL) plus scheduling jitter.
    pub claim_ttl: Duration,
    /// Testing hook: sleep this long while holding each claim before
    /// evaluating, widening the window in which a kill leaves a claimed
    /// but unjournaled job behind (`sweep --dist-hold-ms`).
    pub hold: Option<Duration>,
    /// Rescan interval while every remaining job is claimed elsewhere.
    pub poll: Duration,
}

impl DistributedConfig {
    /// A worker configuration with the default 30 s TTL and 25 ms poll.
    pub fn new(worker: impl Into<String>) -> Self {
        DistributedConfig {
            worker: worker.into(),
            scan_offset: 0,
            claim_ttl: Duration::from_secs(30),
            hold: None,
            poll: Duration::from_millis(25),
        }
    }
}

/// Cooperative run controls for a journaled sweep: an optional
/// fresh-job budget (the deterministic `--interrupt-after` testing
/// hook) and an optional external stop flag (how a draining
/// digiq-serve stops an in-flight sweep between jobs).
#[derive(Debug, Default, Clone, Copy)]
pub struct RunControl<'a> {
    /// Stop after at most this many fresh (non-resumed) jobs.
    pub interrupt_after: Option<usize>,
    /// When set and flipped to `true`, workers stop claiming new jobs;
    /// jobs already claimed still finish and journal, and the run
    /// returns `None` if anything was left undone.
    pub stop: Option<&'a AtomicBool>,
}

/// Per-request evaluation state over a shared [`EvalEngine`].
///
/// digiq-serve shares one engine — one compile cache, one artifact
/// store — across every worker thread; each client request opens a
/// session ([`EvalEngine::session`]) so the per-request state that used
/// to assume a single driving process (compile counters, pass-build
/// aggregates, cache-stats snapshots, journal handles) is isolated from
/// every concurrent request, while the artifacts themselves stay shared
/// build-once in the store (identical in-flight requests coalesce onto
/// one build).
#[derive(Debug)]
pub struct EvalSession<'e> {
    engine: &'e EvalEngine,
    state: SessionState,
    base: CacheStats,
    store_base: StoreStats,
}

impl<'e> EvalSession<'e> {
    /// The shared engine underneath.
    pub fn engine(&self) -> &'e EvalEngine {
        self.engine
    }

    /// [`EvalEngine::run`] charged to this session's counters.
    pub fn run(&self, spec: &SweepSpec, workers: usize) -> SweepReport {
        self.engine.run_in(&self.state, spec, workers)
    }

    /// [`EvalSession::run`] with the report's cache accounting replaced
    /// by the deterministic cold-run accounting
    /// ([`EvalEngine::cold_cache_stats`]) — what the server serializes,
    /// so a response is byte-identical to a fresh `sweep` CLI run of the
    /// same spec no matter how warm the shared store already is or what
    /// other requests run concurrently.
    pub fn run_deterministic(&self, spec: &SweepSpec, workers: usize) -> SweepReport {
        let mut report = self.engine.run_in(&self.state, spec, workers);
        report.cache = self.engine.cold_cache_stats_warm(spec);
        report
    }

    /// [`EvalEngine::run_cosim`] charged to this session's counters
    /// (the cosim report carries no cache accounting, so its bytes are
    /// already independent of store warmth).
    pub fn run_cosim(&self, spec: &SweepSpec, workers: usize) -> CosimSweepReport {
        self.engine.run_cosim_in(&self.state, spec, workers)
    }

    /// [`EvalEngine::run_distributed`] charged to this session's
    /// counters — how a serve daemon's eval worker joins a distributed
    /// sweep over the shared cache dir instead of evaluating every job
    /// itself.
    ///
    /// # Errors
    ///
    /// Returns the IO error if the claim directory or shard journal
    /// cannot be created.
    pub fn run_distributed(
        &self,
        spec: &SweepSpec,
        cache_dir: &Path,
        cfg: &DistributedConfig,
        stop: Option<&AtomicBool>,
    ) -> std::io::Result<Option<SweepReport>> {
        self.engine
            .run_distributed_in(&self.state, spec, cache_dir, cfg, stop)
    }

    /// [`EvalEngine::run_journaled`] charged to this session, with the
    /// full [`RunControl`] surface (fresh-job budget plus external stop
    /// flag).
    pub fn run_journaled(
        &self,
        spec: &SweepSpec,
        workers: usize,
        journal: &SweepJournal,
        resume: bool,
        ctl: RunControl<'_>,
    ) -> Option<SweepReport> {
        self.engine
            .run_journaled_in(&self.state, spec, workers, journal, resume, ctl)
    }

    /// Cache accounting since this session opened: compile counters are
    /// exactly this session's; the store-backed counters are the store
    /// delta since the session opened (concurrent sessions sharing the
    /// store bleed into them — per-request exact accounting is what
    /// [`EvalSession::run_deterministic`] stamps instead).
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats_in(&self.state).since(&self.base)
    }

    /// Per-pass pipeline accounting since this session opened: builds
    /// and build metrics are exactly this session's; hits/misses are
    /// the store delta since the session opened.
    pub fn pass_cache_stats(&self) -> PassCacheStats {
        self.engine
            .pass_cache_stats_in(&self.state, Some(&self.store_base))
    }
}

/// One merged co-simulation sweep row: the cycle-accurate report and the
/// analytic report it must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimRecord {
    /// Controller design.
    pub design: ControllerDesign,
    /// Group count `G`.
    pub groups: usize,
    /// Benchmark display name.
    pub benchmark: String,
    /// Width of the generated benchmark instance.
    pub n_qubits: usize,
    /// Drift seed of this job.
    pub seed: u64,
    /// The cycle-accurate co-simulation.
    pub cosim: CosimReport,
    /// The analytic model on the identical artifact and draws.
    pub analytic: ExecReport,
}

impl CosimRecord {
    /// The divergence between the two engines for this job.
    pub fn diff(&self) -> cosim::CosimDiff {
        cosim::diff_analytic(&self.cosim, &self.analytic)
    }

    /// Reads a record back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "cosim record";
        Ok(CosimRecord {
            design: ControllerDesign::from_json(
                j.get("design").ok_or("cosim record missing `design`")?,
            )?,
            groups: j.count_field("groups", CTX)? as usize,
            benchmark: j.str_field("benchmark", CTX)?.to_string(),
            n_qubits: j.count_field("n_qubits", CTX)? as usize,
            seed: j.count_field("seed", CTX)?,
            cosim: CosimReport::from_json(j.get("cosim").ok_or("cosim record missing `cosim`")?)?,
            analytic: ExecReport::from_json(
                j.get("analytic").ok_or("cosim record missing `analytic`")?,
            )?,
        })
    }
}

impl ToJson for CosimRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("design", self.design.to_json()),
            ("groups", self.groups.to_json()),
            ("benchmark", self.benchmark.to_json()),
            ("n_qubits", self.n_qubits.to_json()),
            ("seed", self.seed.to_json()),
            ("cosim", self.cosim.to_json()),
            ("analytic", self.analytic.to_json()),
        ])
    }
}

/// The aggregated result of one co-simulation sweep, serializable through
/// [`sfq_hw::json`] and readable back via [`CosimSweepReport::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct CosimSweepReport {
    /// Device grid rows.
    pub grid_rows: usize,
    /// Device grid columns.
    pub grid_cols: usize,
    /// One record per job, in merge (job-index) order.
    pub jobs: Vec<CosimRecord>,
}

impl ToJson for CosimSweepReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("grid_rows", self.grid_rows.to_json()),
            ("grid_cols", self.grid_cols.to_json()),
            ("jobs", self.jobs.to_json()),
        ])
    }
}

impl CosimSweepReport {
    /// Worst divergence across the sweep (`None` when empty).
    pub fn worst_diff(&self) -> Option<cosim::CosimDiff> {
        self.jobs
            .iter()
            .map(|r| r.diff())
            .max_by(|a, b| a.total_rel_err.total_cmp(&b.total_rel_err))
    }

    /// True when every job's integer counters match to the cycle and ns
    /// totals agree within `tol`.
    pub fn all_exact(&self, tol: f64) -> bool {
        self.jobs.iter().all(|r| r.diff().is_exact(tol))
    }

    /// Reads a report back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "cosim sweep report";
        let jobs = match j.get("jobs") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(CosimRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("cosim sweep report missing array `jobs`".to_string()),
        };
        Ok(CosimSweepReport {
            grid_rows: j.count_field("grid_rows", CTX)? as usize,
            grid_cols: j.count_field("grid_cols", CTX)? as usize,
            jobs,
        })
    }

    /// Parses a serialized report (the inverse of
    /// [`ToJson::to_json_string`]).
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first structural mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        CosimSweepReport::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cache_stats_handle_duplicate_axis_entries() {
        // Duplicate design points and benchmark entries inflate lookups
        // but not distinct-key misses — exactly like the live store.
        let mut spec = SweepSpec::small_grid(
            vec![
                ControllerDesign::DigiqMin { bs: 2 }.into(),
                ControllerDesign::DigiqMin { bs: 2 }.into(),
            ],
            &[Benchmark::Bv, Benchmark::Bv],
            4,
            4,
        )
        .with_hardware();
        spec.benchmarks.push(spec.benchmarks[0]);
        let engine = EvalEngine::new(CostModel::default());
        let live = engine.run(&spec, 2);
        assert_eq!(EvalEngine::cold_cache_stats(&spec), live.cache);
        assert_eq!(live.cache.circuit_misses, 1);
        assert_eq!(live.cache.hardware_misses, 1);
        assert_eq!(live.cache.seq_db_misses, 1);
    }

    #[test]
    fn par_map_preserves_order_for_any_worker_count() {
        let items: Vec<usize> = (0..57).collect();
        let serial = par_map_ordered(&items, 1, |i, &x| i * 1000 + x * x);
        for workers in [2, 4, 9] {
            let parallel = par_map_ordered(&items, workers, |i, &x| i * 1000 + x * x);
            assert_eq!(serial, parallel);
        }
        assert!(par_map_ordered(&[] as &[usize], 4, |_, &x| x).is_empty());
    }

    #[test]
    fn job_enumeration_is_design_major() {
        let spec = SweepSpec::small_grid(
            vec![
                ControllerDesign::DigiqOpt { bs: 4 }.into(),
                ControllerDesign::ImpossibleMimd.into(),
            ],
            &[Benchmark::Bv, Benchmark::Qgan],
            4,
            4,
        )
        .with_seeds(vec![7, 8]);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), spec.job_count());
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].point.design, ControllerDesign::DigiqOpt { bs: 4 });
        assert_eq!(jobs[0].bench.bench, Benchmark::Bv);
        assert_eq!(jobs[0].seed, 7);
        assert_eq!(jobs[1].seed, 8);
        assert_eq!(jobs[2].bench.bench, Benchmark::Qgan);
        assert_eq!(jobs[4].point.design, ControllerDesign::ImpossibleMimd);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
        }
    }

    #[test]
    fn compiled_artifacts_are_shared_across_designs() {
        let engine = EvalEngine::new(CostModel::default());
        let spec = SweepSpec::small_grid(
            vec![
                ControllerDesign::ImpossibleMimd.into(),
                ControllerDesign::SfqMimdNaive.into(),
                ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ],
            &[Benchmark::Bv],
            4,
            4,
        );
        let report = engine.run(&spec, 2);
        assert_eq!(report.jobs.len(), 3);
        // One circuit generation and one compile serve all three designs.
        assert_eq!(report.cache.circuit_misses, 1);
        assert_eq!(report.cache.circuit_hits, 2);
        assert_eq!(report.cache.compile_misses, 1);
        assert_eq!(report.cache.compile_hits, 2);
        // All three evaluated the same compiled workload.
        let slots: Vec<usize> = report.jobs.iter().map(|r| r.report.slots).collect();
        assert_eq!(slots[0], slots[1]);
        assert_eq!(slots[1], slots[2]);
    }

    #[test]
    fn hardware_power_recorded_when_requested() {
        let engine = EvalEngine::new(CostModel::default());
        let spec = SweepSpec::small_grid(
            vec![
                ControllerDesign::ImpossibleMimd.into(),
                ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ],
            &[Benchmark::Bv],
            4,
            4,
        )
        .with_hardware();
        let report = engine.run(&spec, 2);
        assert_eq!(report.jobs[0].power_w, None, "Impossible MIMD: no hardware");
        let p = report.jobs[1].power_w.expect("opt hardware synthesized");
        assert!(p > 0.0 && p < 10.0);
        assert_eq!(report.cache.hardware_misses, 1);
    }

    #[test]
    fn derive_seed_is_stable_and_salted() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn warm_engine_reuses_everything() {
        let engine = EvalEngine::new(CostModel::default());
        let spec = SweepSpec::small_grid(
            vec![ControllerDesign::DigiqOpt { bs: 4 }.into()],
            &[Benchmark::Ising],
            4,
            4,
        );
        let cold = engine.run(&spec, 1);
        let warm = engine.run(&spec, 3);
        assert_eq!(cold.jobs, warm.jobs, "cache hits must not change results");
        assert_eq!(warm.cache.circuit_misses, 0);
        assert_eq!(warm.cache.compile_misses, 0);
        assert_eq!(warm.cache.total_misses(), 0);
        assert!(warm.cache.total_hits() > 0);
    }

    #[test]
    fn sweep_spec_round_trips_through_json() {
        let mut spec = SweepSpec::smoke()
            .with_seeds(vec![0, 3, 9_007_199_254_740_991])
            .with_hardware()
            .with_pipeline(
                PipelineConfig::default()
                    .with_router(RouteStrategy::Lookahead { window: 5 })
                    .with_scheduler(ScheduleStrategy::Asap),
            );
        spec.benchmarks.push(BenchmarkSpec {
            bench: Benchmark::Ising,
            scale: BenchScale::Paper,
        });
        let text = spec.to_json_string();
        assert_eq!(SweepSpec::parse(&text), Ok(spec));
        // The default smoke spec too — this is the wire form the serve
        // smoke tests replay against the engine golden.
        let smoke = SweepSpec::smoke();
        assert_eq!(SweepSpec::parse(&smoke.to_json_string()), Ok(smoke));
    }

    #[test]
    fn sweep_spec_from_json_enforces_bounds() {
        let ok = SweepSpec::smoke().to_json_string();
        for (mutation, needle) in [
            (ok.replace("\"seeds\":[0]", "\"seeds\":[]"), "non-empty"),
            (
                ok.replace("\"grid_rows\":4", "\"grid_rows\":70000"),
                "grid out of range",
            ),
            (
                ok.replace("\"groups\":2", "\"groups\":0"),
                "out of range 1..=4096",
            ),
            (ok.replace("\"BV\"", "\"nope\""), "unknown benchmark"),
            (ok.replace("\"greedy\"", "\"magic\""), "unknown router"),
            (ok.replace("\"seeds\":[0]", "\"seeds\":[-1]"), "seeds"),
        ] {
            let err = SweepSpec::parse(&mutation).expect_err(&mutation);
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        assert!(SweepSpec::parse("{nope").is_err());
    }

    #[test]
    fn smoke_specs_match_the_cli_smoke_modes() {
        // The serve tests rely on these constructors enumerating exactly
        // the jobs the golden files pin.
        let smoke = SweepSpec::smoke();
        assert_eq!(smoke.job_count(), 4);
        assert_eq!((smoke.grid_rows, smoke.grid_cols), (4, 4));
        assert_eq!(smoke.designs[0].design, ControllerDesign::SfqMimdNaive);
        assert_eq!(
            smoke.designs[1].design,
            ControllerDesign::DigiqOpt { bs: 8 }
        );
        let cosim = SweepSpec::cosim_smoke();
        assert_eq!(cosim.job_count(), 4);
        assert_eq!(
            cosim.designs[0].design,
            ControllerDesign::DigiqMin { bs: 2 }
        );
        assert_ne!(smoke.stable_key(), cosim.stable_key());
    }

    #[test]
    fn sessions_isolate_counters_over_a_shared_engine() {
        let engine = EvalEngine::new(CostModel::default());
        let spec = SweepSpec::smoke();
        // Warm the shared store through the engine's own root session.
        let cold = engine.run(&spec, 2);
        assert!(cold.cache.total_misses() > 0);

        // A fresh session on the warm engine sees its own counters only:
        // compile lookups are all hits charged to the session, and no
        // root-session history leaks in.
        let session = engine.session();
        let warm = session.run(&spec, 2);
        assert_eq!(cold.jobs, warm.jobs, "shared cache must not change results");
        assert_eq!(warm.cache.compile_misses, 0);
        assert_eq!(session.cache_stats().compile_misses, 0);
        assert!(session.cache_stats().compile_hits > 0);
        // Session pass stats: nothing was built by this session.
        assert!(session
            .pass_cache_stats()
            .passes
            .iter()
            .all(|p| p.misses == 0));

        // The engine's cumulative root counters are unchanged by the
        // session's activity on the compile side it owns.
        let root = engine.cache_stats();
        assert_eq!(root.compile_misses, cold.cache.compile_misses);
    }

    #[test]
    fn run_deterministic_matches_cold_cli_bytes_on_a_warm_engine() {
        let spec = SweepSpec::smoke();
        // What the batch CLI prints: a cold engine, golden-pinned bytes.
        let cli = EvalEngine::new(CostModel::default())
            .run(&spec, 2)
            .to_json_string();
        // A long-lived server engine, already warm from earlier requests.
        let engine = EvalEngine::new(CostModel::default());
        engine.run(&spec, 2);
        let served = engine.session().run_deterministic(&spec, 2);
        assert_eq!(served.to_json_string(), cli);
    }

    #[test]
    fn run_journaled_stops_on_the_stop_flag_and_resumes() {
        let dir = std::env::temp_dir().join(format!(
            "digiq-engine-stop-{}-{:x}",
            std::process::id(),
            SweepSpec::smoke().stable_key()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = SweepSpec::smoke();
        let journal = SweepJournal::open(&dir, spec.stable_key()).unwrap();

        // A pre-flipped stop flag: no job is ever claimed, the run
        // reports interruption, nothing is journaled as complete.
        let engine = EvalEngine::new(CostModel::default());
        let stop = AtomicBool::new(true);
        let ctl = RunControl {
            interrupt_after: None,
            stop: Some(&stop),
        };
        let session = engine.session();
        assert_eq!(session.run_journaled(&spec, 2, &journal, false, ctl), None);

        // Resume with the flag clear: the journal fills in and the
        // merged report is byte-identical to an uninterrupted run.
        let resumed = session
            .run_journaled(&spec, 2, &journal, true, RunControl::default())
            .expect("uninterrupted resume completes");
        let uninterrupted = EvalEngine::new(CostModel::default()).run(&spec, 2);
        assert_eq!(resumed.to_json_string(), uninterrupted.to_json_string());
        std::fs::remove_dir_all(&dir).ok();
    }
}
