//! SFQ bitstream discovery for basis gates (§V-A step 1; refs [9], [13]).
//!
//! Finds ≤300-bit pulse trains whose rotating-frame evolution implements a
//! target single-qubit gate on a transmon at its parking frequency. Two
//! tools compose:
//!
//! * **Constructive seeds** — resonant combs (one pulse per qubit period)
//!   implement rotations about an xy-plane axis set by the start phase;
//!   two π-bursts with axis offset `φ/2` compose to `Rz(φ)` — enough to
//!   seed any basis gate;
//! * **Genetic refinement** — the bit-flip GA of `qsim::optimize`
//!   (mirroring the paper's ref [13]) polishes leakage and timing
//!   granularity.
//!
//! Fitness uses the leakage-aware average gate fidelity; for DigiQ_opt's
//! Ry(π/2) the pre/post z-phases are free (the delay mechanism supplies
//! them), which this module maximizes in closed form.
//!
//! A fitness call propagates only the two leading lab-frame columns with
//! the row-sparse kernel of `qsim::pulse` and reuses its buffers. The
//! greedy bit-flip polish after the GA keeps the two-column state after
//! `bits[..i]`: flip `i` is scored by advancing a copy of that state over
//! `bits[i..]` (`L − i` ticks instead of `L`), and the state then advances
//! by whichever bit was kept. The prefix state is exactly what a full
//! evaluation computes after `i` ticks, so every score, and every returned
//! bitstream, is bit-identical to evaluating each flipped stream from
//! scratch.

use qsim::complex::C64;
use qsim::matrix::CMat;
use qsim::optimize::{ga_bitstring, GaConfig};
use qsim::pulse::{SfqParams, SfqPulseSim, SparseRows};
use qsim::transmon::Transmon;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// Phase freedom granted to the target during fitness evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZFreedom {
    /// Target must be met exactly (DigiQ_min basis gates: the sequence
    /// search composes frame gates directly).
    None,
    /// Free `Rz` allowed before and after (DigiQ_opt's Ry(π/2): delays
    /// and residual absorption supply the z-phases, §IV-A2).
    PrePost,
}

/// Result of a bitstream search.
#[derive(Debug, Clone)]
pub struct BitstreamResult {
    /// The pulse pattern (one slot per SFQ clock cycle).
    pub bits: Vec<bool>,
    /// Achieved average gate fidelity against the target.
    pub fidelity: f64,
    /// `1 − fidelity`.
    pub error: f64,
}

/// Fidelity of a (6-level, rotating-frame) evolution's qubit block `m`
/// against 2×2 target `v`, maximizing over the allowed z-phase freedom.
///
/// # Panics
///
/// Panics if shapes are not 2×2.
pub fn fidelity_with_freedom(m: &CMat, v: &CMat, freedom: ZFreedom) -> f64 {
    assert_eq!((m.rows(), m.cols()), (2, 2));
    assert_eq!((v.rows(), v.cols()), (2, 2));
    let mm = m.dagger().matmul(m).trace().re;
    let overlap2 = match freedom {
        ZFreedom::None => v.dagger().matmul(m).trace().abs2(),
        ZFreedom::PrePost => {
            // tr((Rz(a)·V·Rz(b))†·M) = e^{ib/2}·X00(a) + e^{−ib/2}·X11(a)
            // with X = V†·diag(e^{ia/2},e^{−ia/2})·M; max over b is
            // |X00|+|X11|; scan a (the sinusoids make 256 points ample),
            // then golden-refine.
            let vd = v.dagger();
            let overlap = |d0: C64, d1: C64| -> f64 {
                let x00 = vd[(0, 0)] * d0 * m[(0, 0)] + vd[(0, 1)] * d1 * m[(1, 0)];
                let x11 = vd[(1, 0)] * d0 * m[(0, 1)] + vd[(1, 1)] * d1 * m[(1, 1)];
                x00.abs() + x11.abs()
            };
            let best_at = |a: f64| -> f64 { overlap(C64::cis(a / 2.0), C64::cis(-a / 2.0)) };
            let mut best = 0.0f64;
            let mut best_a = 0.0f64;
            for (k, &(d0, d1)) in coarse_phases().iter().enumerate() {
                let s = overlap(d0, d1);
                if s > best {
                    best = s;
                    best_a = coarse_angle(k);
                }
            }
            // Local refinement.
            let (mut lo, mut hi) = (best_a - 4.0 * PI / 256.0, best_a + 4.0 * PI / 256.0);
            for _ in 0..40 {
                let m1 = lo + (hi - lo) / 3.0;
                let m2 = hi - (hi - lo) / 3.0;
                if best_at(m1) < best_at(m2) {
                    lo = m1;
                } else {
                    hi = m2;
                }
            }
            best_at(0.5 * (lo + hi)).max(best).powi(2)
        }
    };
    ((mm + overlap2) / 6.0).clamp(0.0, 1.0)
}

/// Coarse-scan angle `k` of [`fidelity_with_freedom`]'s `PrePost` phase
/// search: 256 points over `[0, 4π)` (period 4π in `a/2`).
fn coarse_angle(k: usize) -> f64 {
    k as f64 / 256.0 * 4.0 * PI
}

/// `(cis(a/2), cis(−a/2))` at every coarse-scan angle, computed once from
/// the same expressions the refinement points use.
fn coarse_phases() -> &'static [(C64, C64)] {
    static PHASES: OnceLock<Vec<(C64, C64)>> = OnceLock::new();
    PHASES.get_or_init(|| {
        (0..256)
            .map(|k| {
                let a = coarse_angle(k);
                (C64::cis(a / 2.0), C64::cis(-a / 2.0))
            })
            .collect()
    })
}

/// The search fitness with reusable buffers: the fidelity of a
/// bitstream's qubit block, computed from the two leading lab-frame
/// columns.
struct Fitness<'a> {
    sim: &'a SfqPulseSim,
    /// `R(L·T_clk)†` for the search length `L`.
    frame: SparseRows,
    target: &'a CMat,
    freedom: ZFreedom,
    state: CMat,
    scratch: CMat,
    block: CMat,
}

impl<'a> Fitness<'a> {
    fn new(sim: &'a SfqPulseSim, len: usize, target: &'a CMat, freedom: ZFreedom) -> Self {
        let state = sim.qubit_columns();
        Fitness {
            sim,
            frame: sim.frame_dagger(len),
            target,
            freedom,
            scratch: state.clone(),
            state,
            block: CMat::zeros(2, 2),
        }
    }

    /// Fidelity of the length-`L` stream whose leading bits left the
    /// two-column state `prefix` and whose remaining bits are `rest`.
    fn after(&mut self, prefix: &CMat, rest: &[bool]) -> f64 {
        self.state.copy_from(prefix);
        self.sim.advance(&mut self.state, &mut self.scratch, rest);
        self.frame.apply_columns(&self.state, &mut self.block);
        fidelity_with_freedom(&self.block, self.target, self.freedom)
    }
}

/// A constructive pulse comb: `n_pulses` pulses, one per qubit period,
/// starting at clock tick `start`, written into a length-`len` bitstream.
pub fn comb_seed(sim: &SfqPulseSim, len: usize, start: usize, n_pulses: usize) -> Vec<bool> {
    let ticks_per_period = 1.0 / (sim.transmon().frequency_ghz * sim.params().clock_period_ns);
    let mut bits = vec![false; len];
    for k in 0..n_pulses {
        let pos = start + (k as f64 * ticks_per_period).round() as usize;
        if pos < len {
            bits[pos] = true;
        }
    }
    bits
}

/// Constructive seed for `Rz(φ)`: two π-bursts whose start phases differ
/// by `φ/2` (the composite-pulse identity `R_a(π)·R_b(π) ∝ Rz(2(a−b))`).
pub fn rz_seed(sim: &SfqPulseSim, len: usize, phi: f64) -> Vec<bool> {
    let pulses_per_pi = (PI / sim.params().delta_theta).round() as usize;
    let ticks_per_period = 1.0 / (sim.transmon().frequency_ghz * sim.params().clock_period_ns);
    let burst_len = (pulses_per_pi as f64 * ticks_per_period).ceil() as usize;
    // Axis of a burst = qubit phase at its start = 2π·f·T_clk·start.
    // Want a − b = −φ/2 ⇒ start offset Δt with 2π·f·T·Δ = φ/2 (mod 2π).
    let phase_per_tick = sim.phase_per_tick();
    let delta_phase = (phi / 2.0).rem_euclid(2.0 * PI);
    let mut best_offset = 0usize;
    let mut best_err = f64::INFINITY;
    for off in 0..((2.0 * PI / phase_per_tick).ceil() as usize + 2) {
        let ph = (off as f64 * phase_per_tick).rem_euclid(2.0 * PI);
        let e = (ph - delta_phase)
            .abs()
            .min(2.0 * PI - (ph - delta_phase).abs());
        if e < best_err {
            best_err = e;
            best_offset = off;
        }
    }
    let first = comb_seed(sim, len, 0, pulses_per_pi);
    let second = comb_seed(sim, len, burst_len + best_offset, pulses_per_pi);
    first
        .iter()
        .zip(second.iter())
        .map(|(a, b)| *a || *b)
        .collect()
}

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Bitstream length in clock cycles (≤ 300 per §IV-B).
    pub length: usize,
    /// GA settings.
    pub ga: GaConfig,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            length: 253, // 10.12 ns at the 40 ps clock (§VI-B)
            ga: GaConfig::default(),
        }
    }
}

/// Searches for a bitstream implementing `target` (2×2) on the given
/// transmon. Seeds the GA with constructive combs/bursts appropriate to
/// the target, then refines.
///
/// # Panics
///
/// Panics if `cfg.length == 0` or the target is not 2×2.
pub fn find_bitstream(
    transmon: Transmon,
    params: SfqParams,
    target: &CMat,
    freedom: ZFreedom,
    cfg: &SearchConfig,
) -> BitstreamResult {
    assert!(cfg.length > 0);
    assert_eq!((target.rows(), target.cols()), (2, 2));
    let sim = SfqPulseSim::new(transmon, params);

    // Constructive seeds: rotation combs of several amplitudes and start
    // offsets, plus the two-burst Rz composite.
    let (theta, _phi, _lam, _) = qsim::gates::zyz_angles(target);
    let pulses_for_theta = ((theta / params.delta_theta).round() as usize).max(1);
    let mut seeds: Vec<Vec<bool>> = Vec::new();
    let ticks_per_period = 1.0 / (transmon.frequency_ghz * params.clock_period_ns);
    for start in 0..(ticks_per_period.ceil() as usize + 1) {
        seeds.push(comb_seed(&sim, cfg.length, start, pulses_for_theta));
    }
    if theta < 0.3 {
        // Nearly-diagonal target: seed the two-burst composite.
        let (_, phi_t, lam_t, _) = qsim::gates::zyz_angles(target);
        seeds.push(rz_seed(&sim, cfg.length, phi_t + lam_t));
        seeds.push(vec![false; cfg.length]);
    }

    let start = sim.qubit_columns();
    let mut fitness = Fitness::new(&sim, cfg.length, target, freedom);
    let result = ga_bitstring(
        |bits| fitness.after(&start, bits),
        cfg.length,
        &seeds,
        cfg.ga,
    );

    // Greedy single-bit-flip polish: repeatedly accept any flip that
    // improves fidelity, until a full sweep finds none. Cheap (a few
    // hundred evaluations) and reliably gains a decade of error. `prefix`
    // is the state after `bits[..i]` (module docs).
    let mut bits = result.bits;
    let mut best_f = result.fitness;
    let mut prefix = start.clone();
    let mut scratch = start.clone();
    let mut improved = true;
    while improved {
        improved = false;
        prefix.copy_from(&start);
        for i in 0..bits.len() {
            bits[i] = !bits[i];
            let f = fitness.after(&prefix, &bits[i..]);
            if f > best_f {
                best_f = f;
                improved = true;
            } else {
                bits[i] = !bits[i];
            }
            sim.advance(&mut prefix, &mut scratch, &bits[i..=i]);
        }
    }
    BitstreamResult {
        bits,
        fidelity: best_f,
        error: 1.0 - best_f,
    }
}

/// Recomputes the actual basis operation a *fixed* bitstream produces on a
/// drifted qubit (§V-A step 3): the full multi-level frame gate at the
/// qubit's measured frequency.
pub fn basis_op_for_qubit(bits: &[bool], actual: Transmon, params: SfqParams) -> CMat {
    SfqPulseSim::new(actual, params).frame_gate(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::gates;

    fn fast_ga() -> GaConfig {
        GaConfig {
            population: 32,
            generations: 40,
            ..GaConfig::default()
        }
    }

    #[test]
    fn freedom_fidelity_exact_for_known_gates() {
        // M = Rz(a)·Ry(π/2)·Rz(b) has perfect fidelity to Ry(π/2) under
        // PrePost freedom, imperfect under None.
        let m = gates::rz(0.8)
            .matmul(&gates::ry(PI / 2.0))
            .matmul(&gates::rz(-1.3));
        let target = gates::ry(PI / 2.0);
        let f_free = fidelity_with_freedom(&m, &target, ZFreedom::PrePost);
        assert!(f_free > 1.0 - 1e-6, "f_free = {f_free}");
        let f_none = fidelity_with_freedom(&m, &target, ZFreedom::None);
        assert!(f_none < 0.99);
    }

    #[test]
    fn freedom_none_matches_qsim_fidelity() {
        let m = gates::h();
        let v = gates::ry(PI / 2.0);
        let direct = qsim::fidelity::average_gate_fidelity(&m, &v);
        let here = fidelity_with_freedom(&m, &v, ZFreedom::None);
        assert!((direct - here).abs() < 1e-12);
    }

    #[test]
    fn comb_seed_structure() {
        let sim = SfqPulseSim::new(Transmon::new(6.21286), SfqParams::default());
        let bits = comb_seed(&sim, 100, 2, 10);
        assert_eq!(bits.len(), 100);
        assert_eq!(bits.iter().filter(|&&b| b).count(), 10);
        assert!(bits[2]);
    }

    #[test]
    fn ry_bitstream_search_converges() {
        // The production target: Ry(π/2) with free z-phases at the high
        // parking frequency.
        let r = find_bitstream(
            Transmon::new(6.21286),
            SfqParams::default(),
            &gates::ry(PI / 2.0),
            ZFreedom::PrePost,
            &SearchConfig {
                length: 253,
                ga: fast_ga(),
            },
        );
        assert!(
            r.error < 2e-3,
            "Ry(π/2) bitstream error {:.2e} too high",
            r.error
        );
    }

    #[test]
    fn low_frequency_qubit_also_converges() {
        let r = find_bitstream(
            Transmon::new(4.14238),
            SfqParams::default(),
            &gates::ry(PI / 2.0),
            ZFreedom::PrePost,
            &SearchConfig {
                length: 225, // 9.00 ns (§VI-B)
                ga: fast_ga(),
            },
        );
        assert!(r.error < 2e-3, "error {:.2e}", r.error);
    }

    #[test]
    fn min_basis_t_gate_search() {
        // DigiQ_min stores a T bitstream: needs the larger tip angle so
        // the two-burst composite fits the stream (see DESIGN.md).
        let params = SfqParams {
            delta_theta: (PI / 2.0) / 16.0,
            ..SfqParams::default()
        };
        let r = find_bitstream(
            Transmon::new(6.21286),
            params,
            &gates::t(),
            ZFreedom::None,
            &SearchConfig {
                length: 253,
                ga: GaConfig {
                    population: 48,
                    generations: 80,
                    ..GaConfig::default()
                },
            },
        );
        assert!(r.error < 2e-2, "T bitstream error {:.2e}", r.error);
    }

    #[test]
    fn drifted_basis_op_differs() {
        let params = SfqParams::default();
        let nominal = Transmon::new(6.21286);
        let r = find_bitstream(
            nominal,
            params,
            &gates::ry(PI / 2.0),
            ZFreedom::PrePost,
            &SearchConfig {
                length: 120,
                ga: fast_ga(),
            },
        );
        let u_nom = basis_op_for_qubit(&r.bits, nominal, params);
        let u_drift = basis_op_for_qubit(&r.bits, Transmon::new(6.21286 + 0.006), params);
        assert!(
            qsim::gates::phase_distance(&u_nom.top_left_block(2), &u_drift.top_left_block(2))
                > 1e-3
        );
        // Both are unitary 6-level evolutions.
        assert!(u_nom.is_unitary(1e-8));
        assert!(u_drift.is_unitary(1e-8));
    }

    #[test]
    fn rz_seed_is_plausible() {
        // The constructive two-burst seed should land within GA-fixable
        // distance of T (fidelity well above random).
        let params = SfqParams {
            delta_theta: (PI / 2.0) / 16.0,
            ..SfqParams::default()
        };
        let sim = SfqPulseSim::new(Transmon::new(6.21286), params);
        let seed = rz_seed(&sim, 253, PI / 4.0);
        let m = sim.frame_gate_qubit(&seed);
        let f = fidelity_with_freedom(&m, &gates::t(), ZFreedom::None);
        assert!(f > 0.6, "seed fidelity {f}");
    }
}
