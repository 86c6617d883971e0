//! End-to-end DigiQ system facade.
//!
//! Ties the whole reproduction together: pick a design point, and the
//! system compiles a benchmark through the full §VI-B pipeline
//! (generate → lower → route on the 32×32 grid → lower SWAPs →
//! crosstalk-aware schedule → execute), reporting execution time
//! normalized to the Impossible MIMD baseline (Fig 9) alongside the
//! synthesized hardware cost (Fig 8).

use crate::design::{ControllerDesign, SystemConfig};
use crate::exec::{checkerboard_groups, execute, ExecParams, ExecReport};
use crate::hardware::{build_hardware, DesignHardware};
use crate::store::{self, ns, ArtifactStore};
use calib::min_decomp::{decompose_min, MinBasis, SequenceDb};
use qcircuit::bench::Benchmark;
use qcircuit::ir::Circuit;
use qcircuit::mapping::Layout;
use qcircuit::pipeline::{CompileArtifact, PassMetrics, Pipeline, PipelineConfig};
use qcircuit::topology::Grid;
use sfq_hw::cost::CostModel;
use sfq_hw::json::{Json, ToJson};

/// A configured DigiQ controller ready to evaluate workloads.
#[derive(Debug)]
pub struct DigiqSystem {
    /// The design point.
    pub config: SystemConfig,
    /// The device grid.
    pub grid: Grid,
    /// Synthesized hardware (absent for the Impossible MIMD reference).
    pub hardware: Option<DesignHardware>,
    /// The shared compile pass pipeline (same [`Pipeline::standard`] the
    /// evaluation engine runs — the two can never drift).
    pipeline: Pipeline,
    exec_params: ExecParams,
}

/// Evaluation result for one benchmark (one Fig 9 bar).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Logical gates before routing.
    pub logical_gates: usize,
    /// SWAPs inserted by routing.
    pub swaps: usize,
    /// Schedule slots.
    pub slots: usize,
    /// Execution accounting under this design.
    pub exec: ExecReport,
    /// Execution time normalized to Impossible MIMD (Fig 9's y-axis).
    pub normalized_time: f64,
}

impl ToJson for BenchmarkReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", self.benchmark.to_json()),
            ("logical_gates", self.logical_gates.to_json()),
            ("swaps", self.swaps.to_json()),
            ("slots", self.slots.to_json()),
            ("exec", self.exec.to_json()),
            ("normalized_time", self.normalized_time.to_json()),
        ])
    }
}

impl BenchmarkReport {
    /// Reads a report back from its [`ToJson`] form — the inverse of
    /// [`BenchmarkReport::to_json`], used by the sweep-report reader.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "benchmark report";
        Ok(BenchmarkReport {
            benchmark: j.str_field("benchmark", CTX)?.to_string(),
            logical_gates: j.count_field("logical_gates", CTX)? as usize,
            swaps: j.count_field("swaps", CTX)? as usize,
            slots: j.count_field("slots", CTX)? as usize,
            exec: ExecReport::from_json(j.get("exec").ok_or("benchmark report missing `exec`")?)?,
            normalized_time: j.num_field("normalized_time", CTX)?,
        })
    }
}

impl DigiqSystem {
    /// Builds a system at a design point with the default compile
    /// pipeline, deriving the DigiQ_min decomposition-length distribution
    /// from real `calib` sequence searches on the ideal basis set.
    pub fn build(design: ControllerDesign, groups: usize, model: &CostModel) -> Self {
        DigiqSystem::build_with(design, groups, model, PipelineConfig::default())
    }

    /// [`DigiqSystem::build`] with an explicit compile-pipeline strategy
    /// selection (routing / scheduling / fusion). Build artifacts go
    /// through a private transient [`ArtifactStore`]; share one across
    /// systems (and engines) with [`DigiqSystem::build_shared`].
    pub fn build_with(
        design: ControllerDesign,
        groups: usize,
        model: &CostModel,
        pipeline: PipelineConfig,
    ) -> Self {
        DigiqSystem::build_shared(design, groups, model, pipeline, &ArtifactStore::in_memory())
    }

    /// [`DigiqSystem::build_with`] over a shared artifact store: the
    /// expensive build inputs — synthesized hardware and the measured
    /// decomposition-length distribution (with its sequence database) —
    /// are fetched through the store under the same content keys the
    /// evaluation engine uses, so systems sharing a store with each other
    /// or with an [`crate::engine::EvalEngine`] build each artifact at
    /// most once.
    pub fn build_shared(
        design: ControllerDesign,
        groups: usize,
        model: &CostModel,
        pipeline: PipelineConfig,
        store: &ArtifactStore,
    ) -> Self {
        let config = SystemConfig::paper_default(design, groups);
        let grid = Grid::paper_grid();
        let hardware = if design == ControllerDesign::ImpossibleMimd {
            None
        } else {
            let hw = store.get_or_build(ns::HARDWARE, store::hardware_key(design, groups), || {
                build_hardware(&config, model)
            });
            Some((*hw).clone())
        };
        let mut exec_params = ExecParams::new(config);
        if matches!(
            design,
            ControllerDesign::DigiqMin { .. } | ControllerDesign::SfqMimdDecomp
        ) {
            let kind = MinBasisKind::for_design(design);
            let db = store.get_or_build(ns::SEQ_DB, store::basis_kind_key(kind), || {
                SequenceDb::build(&kind.basis(), kind.half_depth())
            });
            let lengths = store.get_or_build(ns::MIN_LENGTHS, store::basis_kind_key(kind), || {
                measured_min_lengths_with_db(&kind.basis(), &db)
            });
            exec_params.min_lengths = (*lengths).clone();
        }
        DigiqSystem {
            config,
            grid,
            hardware,
            pipeline: Pipeline::standard(&pipeline),
            exec_params,
        }
    }

    /// [`DigiqSystem::build_shared`] over a live
    /// [`crate::engine::EvalEngine`]: the system shares the engine's
    /// cost model and artifact store, so a one-off system build beside
    /// a long-lived engine (the digiq-serve daemon inspecting a single
    /// design point) reuses whatever hardware and sequence databases
    /// the engine's sweeps already built — and seeds them for the
    /// sweeps that follow.
    pub fn build_for_engine(
        engine: &crate::engine::EvalEngine,
        design: ControllerDesign,
        groups: usize,
        pipeline: PipelineConfig,
    ) -> Self {
        DigiqSystem::build_shared(design, groups, engine.model(), pipeline, engine.store())
    }

    /// The compile pass pipeline this system runs.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The §VI-B compile pipeline both evaluation modes share — the
    /// system's [`Pipeline`] (default: lower → route (snake) → lower
    /// SWAPs → crosstalk-aware schedule, post-validated per pass), plus
    /// the checkerboard group map. Returns the final artifact, its
    /// per-pass metrics, and the group map.
    fn compile(&self, circuit: &Circuit) -> (CompileArtifact, Vec<PassMetrics>, Vec<usize>) {
        let artifact = CompileArtifact::new(
            circuit.clone(),
            Layout::snake(circuit.n_qubits(), &self.grid),
        );
        let (artifact, metrics) = self
            .pipeline
            .run(artifact, &self.grid)
            .unwrap_or_else(|e| panic!("compile pipeline: {e}"));
        let groups = checkerboard_groups(
            self.grid.cols(),
            self.grid.n_qubits(),
            self.config.groups.clamp(1, 2),
        );
        (artifact, metrics, groups)
    }

    /// Compiles a circuit through the pass pipeline and returns the
    /// per-pass [`PassMetrics`] (wall time, gate/SWAP/slot deltas).
    pub fn compile_metrics(&self, circuit: &Circuit) -> Vec<PassMetrics> {
        self.compile(circuit).1
    }

    /// Compiles and executes a circuit through the full pipeline.
    pub fn evaluate_circuit(&self, name: &str, circuit: &Circuit) -> BenchmarkReport {
        let (compiled, _, groups) = self.compile(circuit);
        let slots = compiled.scheduled();
        let exec = execute(&compiled.circuit, slots, &groups, &self.exec_params);

        let mut base = self.exec_params.clone();
        base.config.design = ControllerDesign::ImpossibleMimd;
        let base_exec = execute(&compiled.circuit, slots, &groups, &base);

        BenchmarkReport {
            benchmark: name.to_string(),
            logical_gates: compiled.logical_gates,
            swaps: compiled.swaps,
            slots: slots.len(),
            normalized_time: exec.total_ns / base_exec.total_ns.max(f64::MIN_POSITIVE),
            exec,
        }
    }

    /// Evaluates one of the paper's Table IV benchmarks at paper scale.
    pub fn evaluate_benchmark(&self, bench: Benchmark) -> BenchmarkReport {
        let circuit = bench.paper_scale();
        self.evaluate_circuit(bench.name(), &circuit)
    }

    /// Runs the cycle-accurate co-simulator ([`crate::cosim`]) on a
    /// circuit through the same compile pipeline as
    /// [`DigiqSystem::evaluate_circuit`] (shared `compile` helper) —
    /// identical routing, scheduling, group map and execution parameters,
    /// so the returned report is exactly comparable to the analytic one
    /// (see [`crate::cosim::diff_analytic`]).
    pub fn cosimulate_circuit(&self, circuit: &Circuit, trace: bool) -> crate::cosim::CosimReport {
        let (compiled, _, groups) = self.compile(circuit);
        let mut params = crate::cosim::CosimParams::new(self.exec_params.clone());
        params.trace = trace;
        crate::cosim::simulate(&compiled.circuit, compiled.scheduled(), &groups, &params)
    }
}

/// The distinct broadcast bases used by the sequence searches; a small
/// closed set so batched evaluations can key sequence databases and
/// length distributions on it (`crate::engine` memoizes both per kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinBasisKind {
    /// The ideal minimal basis {Ry(π/2), T} of §IV-A2 (BS = 2, and the
    /// per-qubit universal set of `SFQ_MIMD_decomp`).
    IdealRyT,
    /// The richer 4-gate basis {Ry(π/2), T, X, S} used for `BS ≥ 4`.
    Rich4,
}

impl MinBasisKind {
    /// The basis kind a design's sequence search uses.
    pub fn for_design(design: ControllerDesign) -> MinBasisKind {
        match design {
            ControllerDesign::DigiqMin { bs } if bs >= 4 => MinBasisKind::Rich4,
            _ => MinBasisKind::IdealRyT,
        }
    }

    /// Materializes the basis operations.
    pub fn basis(self) -> MinBasis {
        match self {
            MinBasisKind::IdealRyT => MinBasis::ideal_ry_t(),
            MinBasisKind::Rich4 => MinBasis::new(vec![
                qsim::gates::ry(std::f64::consts::FRAC_PI_2),
                qsim::gates::t(),
                qsim::gates::x(),
                qsim::gates::s(),
            ]),
        }
    }

    /// Meet-in-the-middle half depth: a smaller alphabet needs a deeper
    /// half-database for the same coverage.
    pub fn half_depth(self) -> usize {
        match self {
            MinBasisKind::IdealRyT => 11,
            MinBasisKind::Rich4 => 7,
        }
    }
}

/// Derives an empirical DigiQ_min sequence-length distribution by running
/// the real meet-in-the-middle search over a stratified target sample on
/// the ideal basis for the design's `BS`.
pub fn measured_min_lengths(design: ControllerDesign) -> Vec<usize> {
    let kind = MinBasisKind::for_design(design);
    let basis = kind.basis();
    let db = SequenceDb::build(&basis, kind.half_depth());
    measured_min_lengths_with_db(&basis, &db)
}

/// The measurement step of [`measured_min_lengths`], over an
/// already-built (possibly cached and shared) sequence database.
pub fn measured_min_lengths_with_db(basis: &MinBasis, db: &SequenceDb) -> Vec<usize> {
    let targets = crate::error_model::target_sample(24, 0x515E_0001);
    // Paper procedure (§VI-B): "we decompose single-qubit gates until the
    // approximation error falls below 1e-4, up to a maximum depth of 28".
    // Gates whose best sequence misses the target are charged the full
    // depth.
    let mut lengths: Vec<usize> = targets
        .iter()
        .map(|t| {
            let dec = decompose_min(t, basis, db, 1e-4);
            if dec.error > 1e-4 {
                28
            } else {
                dec.cycles().max(1)
            }
        })
        .collect();
    lengths.sort_unstable();
    lengths
}

/// Runs the full Fig 9 matrix: every Table IV benchmark × the paper's
/// five plotted configurations, returning `(design, benchmark, ratio)`
/// rows.
pub fn fig9_sweep(model: &CostModel) -> Vec<(String, String, f64)> {
    let designs = [
        ControllerDesign::DigiqMin { bs: 2 },
        ControllerDesign::DigiqMin { bs: 4 },
        ControllerDesign::DigiqOpt { bs: 4 },
        ControllerDesign::DigiqOpt { bs: 8 },
        ControllerDesign::DigiqOpt { bs: 16 },
    ];
    let mut rows = Vec::new();
    for design in designs {
        let system = DigiqSystem::build(design, 2, model);
        for bench in qcircuit::bench::ALL_BENCHMARKS {
            let report = system.evaluate_benchmark(bench);
            rows.push((
                design.to_string(),
                bench.name().to_string(),
                report.normalized_time,
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_min_lengths_are_plausible() {
        let l2 = measured_min_lengths(ControllerDesign::DigiqMin { bs: 2 });
        assert!(!l2.is_empty());
        let med2 = l2[l2.len() / 2];
        assert!(
            (6..=28).contains(&med2),
            "BS=2 median depth {med2} out of range"
        );
        // BS=4's richer basis shortens sequences (the paper: "increasing
        // BS from 2 to 4 reduces the depth … by roughly half").
        let l4 = measured_min_lengths(ControllerDesign::DigiqMin { bs: 4 });
        let med4 = l4[l4.len() / 2];
        // Richer basis never lengthens sequences; both can saturate at
        // the 28-depth cap for Haar-random targets.
        assert!(med4 <= med2, "BS=4 median {med4} > BS=2 median {med2}");
    }

    #[test]
    fn build_for_engine_shares_the_engine_store() {
        let engine = crate::engine::EvalEngine::new(CostModel::default());
        let design = ControllerDesign::DigiqMin { bs: 2 };
        let _ = DigiqSystem::build_for_engine(&engine, design, 2, PipelineConfig::default());
        let _ = DigiqSystem::build_for_engine(&engine, design, 2, PipelineConfig::default());
        // Both systems fetched through the engine's store: the sequence
        // database and hardware were each built exactly once.
        let stats = engine.store_stats();
        for ns_name in [ns::SEQ_DB, ns::HARDWARE] {
            let s = stats
                .get(ns_name)
                .unwrap_or_else(|| panic!("namespace `{ns_name}` populated"));
            assert_eq!(s.builds, 1, "{ns_name} built more than once");
            assert!(s.hits >= 1, "{ns_name} second build missed the store");
        }
    }

    #[test]
    fn small_circuit_pipeline_runs() {
        let system = DigiqSystem::build(
            ControllerDesign::DigiqOpt { bs: 8 },
            2,
            &CostModel::default(),
        );
        let mut c = Circuit::new(16);
        for q in 0..16 {
            c.h(q);
        }
        for q in (0..15).step_by(2) {
            c.cz(q, q + 1);
        }
        let report = system.evaluate_circuit("smoke", &c);
        assert!(report.normalized_time >= 1.0);
        assert!(report.exec.total_ns > 0.0);
        assert_eq!(report.logical_gates, 16 + 8);
    }

    #[test]
    fn opt_bs16_beats_bs4_on_parallel_workload() {
        let model = CostModel::default();
        let sys4 = DigiqSystem::build(ControllerDesign::DigiqOpt { bs: 4 }, 2, &model);
        let sys16 = DigiqSystem::build(ControllerDesign::DigiqOpt { bs: 16 }, 2, &model);
        let c = qcircuit::bench::qgan(64, 2, 7);
        let r4 = sys4.evaluate_circuit("qgan64", &c);
        let r16 = sys16.evaluate_circuit("qgan64", &c);
        assert!(
            r16.normalized_time <= r4.normalized_time,
            "BS=16 {:.2} should beat BS=4 {:.2}",
            r16.normalized_time,
            r4.normalized_time
        );
    }

    #[test]
    fn cosimulation_matches_evaluation_through_the_facade() {
        let system = DigiqSystem::build(
            ControllerDesign::DigiqOpt { bs: 8 },
            2,
            &CostModel::default(),
        );
        let mut c = Circuit::new(16);
        for q in 0..16 {
            c.ry(q, 0.2 + 0.03 * q as f64);
        }
        c.cz(0, 1);
        let analytic = system.evaluate_circuit("facade", &c);
        let cosim = system.cosimulate_circuit(&c, false);
        let d = crate::cosim::diff_analytic(&cosim, &analytic.exec);
        assert!(d.is_exact(1e-9), "{d:?}");
        assert!(cosim.trace.is_empty());
        assert!(!system.cosimulate_circuit(&c, true).trace.is_empty());
    }

    #[test]
    fn build_shared_reuses_store_artifacts_across_systems_and_engines() {
        use crate::engine::EvalEngine;
        use std::sync::Arc;

        let model = CostModel::default();
        let store = Arc::new(ArtifactStore::in_memory());
        let design = ControllerDesign::DigiqMin { bs: 2 };
        let a = DigiqSystem::build_shared(design, 2, &model, PipelineConfig::default(), &store);
        let _b = DigiqSystem::build_shared(design, 2, &model, PipelineConfig::default(), &store);
        // Hardware, the sequence database and the length distribution
        // each built once; the second system hit all three.
        for namespace in [ns::HARDWARE, ns::SEQ_DB, ns::MIN_LENGTHS] {
            let s = store.namespace_stats(namespace);
            assert_eq!((s.builds, s.hits), (1, 1), "{namespace}");
        }
        // An engine over the same store reuses them too (same keys).
        let engine = EvalEngine::with_store(model, Arc::clone(&store));
        assert_eq!(store.namespace_stats(ns::MIN_LENGTHS).builds, 1);
        let lengths = engine.min_lengths(design).expect("decomposing design");
        assert_eq!(store.namespace_stats(ns::MIN_LENGTHS).builds, 1, "reused");
        assert!(!lengths.is_empty());
        let hw = engine.hardware(design, 2).expect("buildable design");
        assert_eq!(store.namespace_stats(ns::HARDWARE).builds, 1, "reused");
        assert_eq!(
            hw.report.power_w,
            a.hardware.as_ref().unwrap().report.power_w
        );
    }

    #[test]
    fn impossible_mimd_is_the_unit_baseline() {
        let system = DigiqSystem::build(ControllerDesign::ImpossibleMimd, 1, &CostModel::default());
        assert!(system.hardware.is_none());
        let mut c = Circuit::new(4);
        c.h(0);
        c.cz(0, 1);
        let r = system.evaluate_circuit("unit", &c);
        assert!((r.normalized_time - 1.0).abs() < 1e-12);
    }
}
