//! Gate-error model across the machine (Fig 10).
//!
//! Combines the calibration layer with the Monte-Carlo drift population to
//! produce the paper's per-qubit and per-coupler error statistics:
//!
//! * **Fig 10a** — median single-qubit gate error per qubit, for
//!   DigiQ_opt (delay decomposition on the drifted basis) and DigiQ_min
//!   (sequence search over the drifted discrete basis). Medians are taken
//!   over a deterministic stratified sample of target gates
//!   (Cliffords + Haar-like rotations; DESIGN.md substitution #5).
//! * **Fig 10b** — CZ error per grid coupler: the shared flux pulse
//!   produces a drifted `Uqq` per pair; the echo calibration of
//!   `calib::cz` composes the best 1–2-pulse CZ, and the surrounding
//!   single-qubit gates contribute their own decomposition error.
//!
//! Work is parallelized over qubits/couplers with
//! [`crate::engine::par_map_ordered`]: workers claim one item at a time
//! (per-qubit cost varies widely) and rows come back in input order.

use crate::engine::par_map_ordered;
use crate::store::{ns, ArtifactStore};
use calib::bitstream::{basis_op_for_qubit, find_bitstream, SearchConfig, ZFreedom};
use calib::cz::{calibrate_shared_pulse, cz_error_with_local_1q, uqq_for_drift, SharedCzPulse};
use calib::drift::{sample_population, DriftModel, SampledQubit};
use calib::min_decomp::{decompose_min, MinBasis, SequenceDb};
use calib::opt_decomp::{decompose_opt_with, OptBasis, OptTables};
use qsim::matrix::CMat;
use qsim::optimize::GaConfig;
use qsim::pulse::SfqParams;
use qsim::rng::stable_hash_str;
use qsim::rng::StdRng;
use qsim::transmon::Transmon;
use qsim::two_qubit::CoupledTransmons;
use sfq_hw::json::{Json, ToJson};
use std::f64::consts::PI;

/// Configuration of the error-model evaluation.
#[derive(Debug, Clone)]
pub struct ErrorModelConfig {
    /// Grid columns (qubit index → position).
    pub grid_cols: usize,
    /// Number of qubits to evaluate.
    pub n_qubits: usize,
    /// Parking frequencies (checkerboard assignment).
    pub parking_ghz: Vec<f64>,
    /// Drift/variability model.
    pub drift: DriftModel,
    /// Target gates sampled per qubit for the median.
    pub n_targets: usize,
    /// DigiQ_min meet-in-the-middle half depth.
    pub min_half_depth: usize,
    /// GA budget for the shared-bitstream searches.
    pub ga: GaConfig,
    /// Worker threads.
    pub threads: usize,
}

impl Default for ErrorModelConfig {
    fn default() -> Self {
        ErrorModelConfig {
            grid_cols: 32,
            n_qubits: 1024,
            parking_ghz: vec![6.21286, 4.14238],
            drift: DriftModel::default(),
            n_targets: 24,
            min_half_depth: 10,
            ga: GaConfig {
                population: 48,
                generations: 60,
                ..GaConfig::default()
            },
            threads: 8,
        }
    }
}

impl ErrorModelConfig {
    /// A small configuration for tests and examples.
    pub fn small(n_qubits: usize) -> Self {
        ErrorModelConfig {
            grid_cols: 4,
            n_qubits,
            n_targets: 8,
            min_half_depth: 8,
            ga: GaConfig {
                population: 24,
                generations: 25,
                ..GaConfig::default()
            },
            threads: 4,
            ..ErrorModelConfig::default()
        }
    }
}

/// Deterministic stratified target-gate sample.
pub fn target_sample(n: usize, seed: u64) -> Vec<CMat> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut targets = vec![
        qsim::gates::h(),
        qsim::gates::x(),
        qsim::gates::s(),
        qsim::gates::t(),
    ];
    while targets.len() < n {
        targets.push(qsim::gates::u_zyz(
            rng.gen_range(0.0..PI),
            rng.gen_range(-PI..PI),
            rng.gen_range(-PI..PI),
        ));
    }
    targets.truncate(n);
    targets
}

/// Per-qubit Fig 10a record.
#[derive(Debug, Clone)]
pub struct QubitErrorRow {
    /// Physical qubit index.
    pub qubit: usize,
    /// Frequency drift in GHz.
    pub drift_ghz: f64,
    /// Median 1q gate error on DigiQ_opt.
    pub opt_median: f64,
    /// Median 1q gate error on DigiQ_min.
    pub min_median: f64,
}

impl ToJson for QubitErrorRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("qubit", self.qubit.to_json()),
            ("drift_ghz", self.drift_ghz.to_json()),
            ("opt_median", self.opt_median.to_json()),
            ("min_median", self.min_median.to_json()),
        ])
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    // total_cmp: a NaN error (pathological basis) must not panic the
    // whole sweep; NaNs sort to the ends and the median stays meaningful.
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return f64::NAN;
    }
    v[v.len() / 2]
}

/// Content key for a drifted qubit's memoized [`OptTables`]: exact bits
/// of the basis block plus the delay-lattice parameters.
fn opt_tables_key(basis: &OptBasis) -> u64 {
    let mut words = Vec::with_capacity(10);
    for e in basis.ubs.as_slice() {
        words.push(e.re.to_bits());
        words.push(e.im.to_bits());
    }
    words.push(basis.phase_per_tick.to_bits());
    words.push(basis.n_delays as u64);
    stable_hash_str("calib/opt_tables", &words)
}

/// Content key for a drifted qubit's memoized [`SequenceDb`]: exact bits
/// of every basis block plus the half depth.
fn seq_db_key(basis: &MinBasis, half_depth: usize) -> u64 {
    let mut words = Vec::with_capacity(basis.ops.len() * 8 + 1);
    for op in &basis.ops {
        for e in op.as_slice() {
            words.push(e.re.to_bits());
            words.push(e.im.to_bits());
        }
    }
    words.push(half_depth as u64);
    stable_hash_str("calib/seq_db", &words)
}

/// The shared calibration artifacts (found once, broadcast to all qubits —
/// this is what makes the architecture SIMD).
#[derive(Debug, Clone)]
pub struct SharedCalibration {
    /// Ry(π/2) bitstream per parking frequency (DigiQ_opt).
    pub ry_bits: Vec<Vec<bool>>,
    /// {Ry(π/2), T} bitstreams per parking frequency (DigiQ_min).
    pub min_bits: Vec<[Vec<bool>; 2]>,
    /// Pulse parameters used for the opt search.
    pub opt_params: SfqParams,
    /// Pulse parameters used for the min search (larger tip angle so the
    /// T composite fits the register, see DESIGN.md).
    pub min_params: SfqParams,
}

/// Finds the shared bitstreams for every parking frequency (§V-A step 1).
pub fn calibrate_shared(config: &ErrorModelConfig) -> SharedCalibration {
    let opt_params = SfqParams::default();
    let min_params = SfqParams {
        delta_theta: (PI / 2.0) / 16.0,
        ..SfqParams::default()
    };
    let mut ry_bits = Vec::new();
    let mut min_bits = Vec::new();
    for &f in &config.parking_ghz {
        let length = if f > 5.0 { 253 } else { 225 };
        let sc = SearchConfig {
            length,
            ga: config.ga,
        };
        let ry = find_bitstream(
            Transmon::new(f),
            opt_params,
            &qsim::gates::ry(PI / 2.0),
            ZFreedom::PrePost,
            &sc,
        );
        ry_bits.push(ry.bits);
        let ry_min = find_bitstream(
            Transmon::new(f),
            min_params,
            &qsim::gates::ry(PI / 2.0),
            ZFreedom::None,
            &sc,
        );
        let t_min = find_bitstream(
            Transmon::new(f),
            min_params,
            &qsim::gates::t(),
            ZFreedom::None,
            &sc,
        );
        min_bits.push([ry_min.bits, t_min.bits]);
    }
    SharedCalibration {
        ry_bits,
        min_bits,
        opt_params,
        min_params,
    }
}

/// Evaluates Fig 10a: per-qubit median single-qubit gate error for both
/// DigiQ designs, over the sampled drift population.
pub fn fig10a(config: &ErrorModelConfig, shared: &SharedCalibration) -> Vec<QubitErrorRow> {
    fig10a_with_store(config, shared, &ArtifactStore::in_memory())
}

/// [`fig10a`] with an explicit artifact store: the per-qubit search
/// artifacts (prebuilt [`OptTables`] and [`SequenceDb`]) are memoized in
/// the store's [`ns::CALIB_MEMO`] namespace, keyed by exact basis
/// content. Qubits whose drifted bases coincide (zero-drift populations,
/// repeat sweeps over the same population) share one build instead of
/// redoing the dominant per-qubit setup cost.
pub fn fig10a_with_store(
    config: &ErrorModelConfig,
    shared: &SharedCalibration,
    store: &ArtifactStore,
) -> Vec<QubitErrorRow> {
    let population = sample_population(
        config.grid_cols,
        config.n_qubits,
        &config.parking_ghz,
        &config.drift,
    );
    let targets = target_sample(config.n_targets, 0xF160_10A0);

    let eval_qubit = |q: &SampledQubit| -> QubitErrorRow {
        let class = config
            .parking_ghz
            .iter()
            .position(|&f| (f - q.nominal_ghz).abs() < 1e-9)
            .unwrap_or(0);
        let actual = Transmon::new(q.actual_ghz);

        // DigiQ_opt: recompute the basis op under drift, then decompose
        // against the memoized delay tables.
        let ubs = basis_op_for_qubit(&shared.ry_bits[class], actual, shared.opt_params);
        let basis = OptBasis::new(&ubs, q.actual_ghz, shared.opt_params.clock_period_ns, 255);
        let tables = store.get_or_build(ns::CALIB_MEMO, opt_tables_key(&basis), || {
            OptTables::build(&basis)
        });
        let opt_errors: Vec<f64> = targets
            .iter()
            .map(|t| decompose_opt_with(&tables, t, 0.0, 3, 1e-4).error)
            .collect();

        // DigiQ_min: drifted discrete basis, sequence search over the
        // memoized database.
        let b0 = basis_op_for_qubit(&shared.min_bits[class][0], actual, shared.min_params)
            .top_left_block(2);
        let b1 = basis_op_for_qubit(&shared.min_bits[class][1], actual, shared.min_params)
            .top_left_block(2);
        let min_basis = MinBasis::new(vec![b0, b1]);
        let db = store.get_or_build(
            ns::CALIB_MEMO,
            seq_db_key(&min_basis, config.min_half_depth),
            || SequenceDb::build(&min_basis, config.min_half_depth),
        );
        let min_errors: Vec<f64> = targets
            .iter()
            .map(|t| decompose_min(t, &min_basis, &db, 1e-4).error)
            .collect();

        QubitErrorRow {
            qubit: q.index,
            drift_ghz: q.drift_ghz(),
            opt_median: median(opt_errors),
            min_median: median(min_errors),
        }
    };

    par_map_ordered(&population, config.threads, |_, q| eval_qubit(q))
}

/// Per-coupler Fig 10b record.
#[derive(Debug, Clone)]
pub struct CouplerErrorRow {
    /// Coupler index (grid enumeration order).
    pub coupler: usize,
    /// The two physical qubits.
    pub qubits: (usize, usize),
    /// Composed CZ error (echo-optimized Uqq + 1q contributions).
    pub cz_error: f64,
}

impl ToJson for CouplerErrorRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("coupler", self.coupler.to_json()),
            ("qubits", self.qubits.to_json()),
            ("cz_error", self.cz_error.to_json()),
        ])
    }
}

/// Evaluates Fig 10b over (a sample of) the grid couplers.
///
/// `oneq_error` supplies the per-qubit single-qubit error (from
/// [`fig10a`]) folded in for the gates flanking each `Uqq`;
/// `coupler_stride` subsamples the 1984 couplers (1 = all).
pub fn fig10b(
    config: &ErrorModelConfig,
    oneq_error: &[f64],
    coupler_stride: usize,
) -> Vec<CouplerErrorRow> {
    let grid =
        qcircuit::topology::Grid::new(config.n_qubits.div_ceil(config.grid_cols), config.grid_cols);
    let population = sample_population(
        config.grid_cols,
        config.n_qubits,
        &config.parking_ghz,
        &config.drift,
    );
    let nominal =
        CoupledTransmons::paper_pair(config.parking_ghz[0], *config.parking_ghz.last().unwrap());
    let pulse: SharedCzPulse = calibrate_shared_pulse(&nominal, 4.0, 0.25);

    let couplers: Vec<(usize, (usize, usize))> = grid
        .couplers()
        .into_iter()
        .enumerate()
        .step_by(coupler_stride.max(1))
        .collect();

    let eval = |&(idx, (a, b)): &(usize, (usize, usize))| -> CouplerErrorRow {
        // Identify the high-frequency (flux-tuned) qubit of the pair.
        let (hi, lo) = if population[a].nominal_ghz >= population[b].nominal_ghz {
            (a, b)
        } else {
            (b, a)
        };
        let uqq = uqq_for_drift(
            &nominal,
            &pulse,
            population[hi].drift_ghz(),
            population[lo].drift_ghz(),
            population[hi].current_scale,
        );
        let e1 = cz_error_with_local_1q(&uqq, 1, 2, 0xF160_10B0 + idx as u64);
        let e2 = cz_error_with_local_1q(&uqq, 2, 2, 0xF160_10B1 + idx as u64);
        let echo = e1.min(e2);
        // Surrounding single-qubit gates (2 layers × 2 qubits).
        let oneq = 2.0
            * (oneq_error.get(a).copied().unwrap_or(0.0)
                + oneq_error.get(b).copied().unwrap_or(0.0));
        CouplerErrorRow {
            coupler: idx,
            qubits: (a, b),
            cz_error: qsim::fidelity::circuit_error([echo, oneq]),
        }
    };

    par_map_ordered(&couplers, config.threads, |_, c| eval(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_sample_is_deterministic_and_sized() {
        let a = target_sample(10, 1);
        let b = target_sample(10, 1);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.approx_eq(y, 0.0));
        }
    }

    #[test]
    fn small_fig10a_produces_sane_errors() {
        let config = ErrorModelConfig::small(8);
        let shared = calibrate_shared(&config);
        let rows = fig10a(&config, &shared);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                r.opt_median.is_finite() && r.opt_median < 0.1,
                "opt median {:.2e} at q{}",
                r.opt_median,
                r.qubit
            );
            assert!(
                r.min_median.is_finite() && r.min_median < 0.2,
                "min median {:.2e} at q{}",
                r.min_median,
                r.qubit
            );
            assert!(r.opt_median >= 0.0 && r.min_median >= 0.0);
        }
    }

    #[test]
    fn fig10a_memoizes_search_artifacts_per_basis() {
        let config = ErrorModelConfig::small(4);
        let shared = calibrate_shared(&config);
        let store = ArtifactStore::in_memory();
        let first = fig10a_with_store(&config, &shared, &store);
        let after_first = store.namespace_stats(ns::CALIB_MEMO);
        // One OptTables + one SequenceDb per distinct drifted basis.
        assert!(after_first.builds >= 2, "nothing memoized");
        let second = fig10a_with_store(&config, &shared, &store);
        let after_second = store.namespace_stats(ns::CALIB_MEMO);
        assert_eq!(
            after_second.builds, after_first.builds,
            "repeat sweep must reuse every memoized artifact"
        );
        assert!(after_second.hits > after_first.hits);
        for (a, b) in first.iter().zip(second.iter()) {
            assert_eq!(a.opt_median.to_bits(), b.opt_median.to_bits());
            assert_eq!(a.min_median.to_bits(), b.min_median.to_bits());
        }
    }

    #[test]
    fn small_fig10b_produces_sane_errors() {
        let config = ErrorModelConfig::small(8);
        let oneq = vec![2e-4; 8];
        let rows = fig10b(&config, &oneq, 4);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.cz_error.is_finite() && r.cz_error < 0.2,
                "cz error {:.2e}",
                r.cz_error
            );
            // 1q contribution is folded in: error exceeds it.
            assert!(r.cz_error > 4.0 * 2e-4 * 0.5);
        }
    }
}
