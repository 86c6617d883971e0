//! SFQ bitstream-driven qubit evolution (§II-C, Fig 2).
//!
//! An SFQ controller drives a qubit with a train of quantized flux pulses,
//! one candidate slot per SFQ clock cycle (40 ps in the paper). Each pulse
//! is orders of magnitude shorter than a qubit period and is modelled as an
//! instantaneous tip `exp(−i·(δθ/2)·Y)` about the y-axis (McDermott–Vavilov
//! model), where `Y = i(a†−a)` couples neighbouring transmon levels and
//! thus captures leakage into non-computational states. Between pulse slots
//! the qubit evolves freely.
//!
//! A *bitstream* `b ∈ {0,1}^L` therefore produces the lab-frame unitary
//!
//! ```text
//! U_lab(b) = Π_k  F · K^{b_k}      (k = L−1 … 0, earliest bit first)
//! ```
//!
//! with `F` the one-clock free propagator and `K` the kick. Gates are
//! defined in the qubit rotating frame: `U(b) = R(L·T_clk)† · U_lab(b)`.
//!
//! Delaying a stored bitstream by `d` clock cycles (the DigiQ_opt `Rz`
//! mechanism, §IV-A2) conjugates the frame gate by `Rz(θ_d)` with
//! `θ_d = 2π·f·d·T_clk mod 2π` — the coverage of these phases over
//! `d ∈ [0, N]` is exactly the Table II parking-frequency analysis.
//!
//! # Row-sparse column kernel
//!
//! Every per-tick product goes through one kernel, [`SparseRows::apply_columns`]:
//! the step matrix keeps, per row, only its entries that are not exactly
//! zero, and it multiplies a block of state columns. `F` is diagonal, so a
//! tick without a pulse costs one complex multiply per state element
//! instead of `levels`; `F·K` keeps its dense rows. [`SfqPulseSim::lab_gate`]
//! advances all `levels` columns; [`SfqPulseSim::frame_gate_qubit`] advances
//! only the two leading columns (column `j` of `U_lab` is the product
//! applied to `e_j` and never mixes with the others) and applies the
//! diagonal `R†` the same way to rows 0 and 1 only.
//!
//! The kernel is bit-identical to the dense [`CMat::matmul_into`] product.
//! Each output element starts at `+0` and adds `a_ik·x_kj` (as
//! `re += a.re·x.re − a.im·x.im`, `im += a.re·x.im + a.im·x.re`) in
//! increasing `k`, as the dense loop does. A skipped term has
//! `a_ik = ±0 ± 0i`; with a finite `x_kj` both of its parts are `±0`. An
//! IEEE sum is `−0` only when both addends are `−0`, so the accumulator,
//! which starts at `+0`, is never `−0`, and adding `±0` to it leaves it
//! unchanged. Dropping the term therefore changes no bit. The argument
//! needs finite right-hand sides: a non-finite `x_kj` times a zero is NaN
//! in the dense product. The propagators here are unitary; a NaN model
//! parameter makes every entry of the step it enters NaN, so the state
//! turns NaN everywhere at once and both products put NaN in the same
//! places.
//!
//! Flops are counted as for the dense kernels, per multiply-accumulate
//! actually done: `8·nnz(row)·cols` for every output row.
//!
//! # Examples
//!
//! ```
//! use qsim::transmon::Transmon;
//! use qsim::pulse::{SfqParams, SfqPulseSim};
//!
//! let q = Transmon::new(6.21286);
//! let sim = SfqPulseSim::new(q, SfqParams::default());
//! // A resonant comb rotates the qubit about y.
//! let bits = sim.resonant_comb(100);
//! let u = sim.frame_gate(&bits);
//! assert!(u.is_unitary(1e-10));
//! ```

use crate::complex::C64;
use crate::counters;
use crate::expm::expm_hermitian_propagator;
use crate::matrix::CMat;
use crate::transmon::Transmon;
use std::f64::consts::PI;

/// SFQ pulse-train parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfqParams {
    /// SFQ chip clock period in ns. The paper synthesizes a worst stage
    /// delay of 34.5 ps and chooses a 40 ps clock (§VI-A2).
    pub clock_period_ns: f64,
    /// Tip angle per SFQ pulse in radians. Set so a π/2 rotation fits a
    /// ≤300-bit stream: with pulses every ~4 clock ticks at 6.2 GHz,
    /// δθ = (π/2)/63 uses 63 pulses ≈ 253 ticks.
    pub delta_theta: f64,
}

impl Default for SfqParams {
    fn default() -> Self {
        SfqParams {
            clock_period_ns: 0.040,
            delta_theta: (PI / 2.0) / 63.0,
        }
    }
}

/// A square matrix kept as its entries that are not exactly zero, row by
/// row in increasing column order: the operand of the column kernel (see
/// the module docs for why skipping the zeros is exact).
#[derive(Debug, Clone)]
pub struct SparseRows {
    n: usize,
    /// Row `i` holds `entries[row_end[i − 1]..row_end[i]]` (from 0 for
    /// row 0).
    row_end: Vec<usize>,
    /// `(column, value)` pairs.
    entries: Vec<(usize, C64)>,
}

impl SparseRows {
    /// Keeps every entry of `m` except the exact zeros (`±0 ± 0i`); NaN
    /// entries are kept.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square.
    pub fn from_dense(m: &CMat) -> Self {
        assert!(m.is_square(), "SparseRows needs a square matrix");
        let n = m.rows();
        let mut row_end = Vec::with_capacity(n);
        let mut entries = Vec::new();
        for i in 0..n {
            for k in 0..n {
                let a = m[(i, k)];
                if a.re != 0.0 || a.im != 0.0 {
                    entries.push((k, a));
                }
            }
            row_end.push(entries.len());
        }
        SparseRows {
            n,
            row_end,
            entries,
        }
    }

    /// Total number of kept entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Writes rows `0..out.rows()` of `self · x` into `out`, where `x` is
    /// a block of `x.cols()` state columns. Bit-identical to the same rows
    /// of `self_dense.matmul(x)` for finite `x` (module docs). Counts
    /// `8·nnz(row)·cols` flops per computed row.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have as many rows as the matrix, `out` has
    /// more rows than it or a different column count.
    pub fn apply_columns(&self, x: &CMat, out: &mut CMat) {
        let c = x.cols();
        assert_eq!(x.rows(), self.n, "apply_columns: state has wrong row count");
        assert!(
            out.rows() <= self.n && out.cols() == c,
            "apply_columns: output is {}x{}, expected at most {}x{}",
            out.rows(),
            out.cols(),
            self.n,
            c
        );
        let rows = out.rows();
        counters::tally_flops(8 * (self.row_end[..rows].last().copied().unwrap_or(0) * c) as u64);
        let (xs, out) = (x.as_slice(), out.as_mut_slice());
        // Two columns (the qubit block of every fitness call) get a core
        // whose row accumulators stay in registers; same order.
        match c {
            0 => {}
            2 => self.apply_fixed::<2>(xs, out),
            _ => {
                let mut start = 0;
                for (orow, &end) in out.chunks_exact_mut(c).zip(&self.row_end) {
                    orow.fill(C64::ZERO);
                    for &(k, a) in &self.entries[start..end] {
                        let (ar, ai) = (a.re, a.im);
                        for (o, r) in orow.iter_mut().zip(&xs[k * c..(k + 1) * c]) {
                            let (rr, ri) = (r.re, r.im);
                            o.re += ar * rr - ai * ri;
                            o.im += ar * ri + ai * rr;
                        }
                    }
                    start = end;
                }
            }
        }
    }

    /// [`SparseRows::apply_columns`] for a compile-time column count `C`.
    #[inline]
    fn apply_fixed<const C: usize>(&self, xs: &[C64], out: &mut [C64]) {
        let mut start = 0;
        for (orow, &end) in out.chunks_exact_mut(C).zip(&self.row_end) {
            let mut acc = [C64::ZERO; C];
            for &(k, a) in &self.entries[start..end] {
                let (ar, ai) = (a.re, a.im);
                for (o, r) in acc.iter_mut().zip(&xs[k * C..k * C + C]) {
                    let (rr, ri) = (r.re, r.im);
                    o.re += ar * rr - ai * ri;
                    o.im += ar * ri + ai * rr;
                }
            }
            orow.copy_from_slice(&acc);
            start = end;
        }
    }
}

/// Precomputed propagators for bitstream evolution of one transmon.
#[derive(Debug, Clone)]
pub struct SfqPulseSim {
    transmon: Transmon,
    params: SfqParams,
    /// Lab-frame one-clock free propagator `F` (diagonal).
    free: SparseRows,
    /// Lab-frame one-clock propagator with a kick at the start: `F·K`.
    free_kick: SparseRows,
}

impl SfqPulseSim {
    /// Builds the simulator, precomputing the per-clock propagators.
    pub fn new(transmon: Transmon, params: SfqParams) -> Self {
        let free = transmon.free_propagator(params.clock_period_ns);
        let kick = expm_hermitian_propagator(&transmon.drive_y(), params.delta_theta / 2.0);
        let free_kick = free.matmul(&kick);
        SfqPulseSim {
            transmon,
            params,
            free: SparseRows::from_dense(&free),
            free_kick: SparseRows::from_dense(&free_kick),
        }
    }

    /// The underlying transmon model.
    pub fn transmon(&self) -> &Transmon {
        &self.transmon
    }

    /// The pulse parameters.
    pub fn params(&self) -> &SfqParams {
        &self.params
    }

    /// The one-tick step for bit `b`: `F·K` with a pulse, `F` without.
    fn step(&self, b: bool) -> &SparseRows {
        if b {
            &self.free_kick
        } else {
            &self.free
        }
    }

    /// Advances a block of lab-frame state columns (`levels` rows) by
    /// `bits`, earliest bit first. The products ping-pong between `state`
    /// and `scratch` (same shape); the result ends in `state`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or do not have `levels` rows.
    pub fn advance(&self, state: &mut CMat, scratch: &mut CMat, bits: &[bool]) {
        for &b in bits {
            self.step(b).apply_columns(state, scratch);
            std::mem::swap(state, scratch);
        }
    }

    /// The two leading columns of the identity (`levels × 2`): the
    /// lab-frame state of an empty bitstream restricted to `|0⟩`, `|1⟩`.
    pub fn qubit_columns(&self) -> CMat {
        let mut cols = CMat::zeros(self.transmon.levels, 2);
        cols[(0, 0)] = C64::ONE;
        cols[(1, 1)] = C64::ONE;
        cols
    }

    /// `R(len·T_clk)†`, the frame change of a `len`-tick stream, as sparse
    /// rows (it is diagonal).
    pub fn frame_dagger(&self, len: usize) -> SparseRows {
        let t_total = len as f64 * self.params.clock_period_ns;
        let r = self
            .transmon
            .frame_propagator(self.transmon.frequency_ghz, t_total);
        SparseRows::from_dense(&r.dagger())
    }

    /// Lab-frame unitary of a bitstream (earliest bit applied first): the
    /// column kernel over all `levels` columns of the identity.
    pub fn lab_gate(&self, bits: &[bool]) -> CMat {
        let n = self.transmon.levels;
        let mut u = CMat::identity(n);
        let mut tmp = CMat::zeros(n, n);
        self.advance(&mut u, &mut tmp, bits);
        u
    }

    /// Rotating-frame gate of a bitstream at the qubit's own frequency:
    /// `R(L·T)† · U_lab`.
    pub fn frame_gate(&self, bits: &[bool]) -> CMat {
        let lab = self.lab_gate(bits);
        let mut out = CMat::zeros(lab.rows(), lab.cols());
        self.frame_dagger(bits.len()).apply_columns(&lab, &mut out);
        out
    }

    /// Rotating-frame gate projected onto the two-level computational
    /// subspace (the object whose fidelity §V-A evaluates; leakage shows up
    /// as sub-unitarity). Bit-identical to
    /// `frame_gate(bits).top_left_block(2)`, but advances only the two
    /// leading state columns.
    pub fn frame_gate_qubit(&self, bits: &[bool]) -> CMat {
        let mut cols = self.qubit_columns();
        let mut scratch = CMat::zeros(cols.rows(), 2);
        self.advance(&mut cols, &mut scratch, bits);
        let mut block = CMat::zeros(2, 2);
        self.frame_dagger(bits.len())
            .apply_columns(&cols, &mut block);
        block
    }

    /// Phase advance per clock tick: `2π·f·T_clk mod 2π`.
    pub fn phase_per_tick(&self) -> f64 {
        (2.0 * PI * self.transmon.frequency_ghz * self.params.clock_period_ns).rem_euclid(2.0 * PI)
    }

    /// The Rz angle reachable by delaying a stored bitstream by `d` clock
    /// cycles: `θ_d = d·2π·f·T_clk mod 2π` (§IV-A2).
    pub fn delay_phase(&self, d: usize) -> f64 {
        (d as f64 * self.phase_per_tick()).rem_euclid(2.0 * PI)
    }

    /// The frame gate resulting from broadcasting the stored bitstream
    /// delayed by `d` clock cycles: `Rz(−θ_d) · U(b) · Rz(θ_d)` on the full
    /// multi-level space (diagonal conjugation), matching the timing
    /// picture of Fig 3.
    pub fn delayed_frame_gate(&self, base: &CMat, d: usize) -> CMat {
        let theta = self.delay_phase(d);
        let n = base.rows();
        let conj = CMat::diag(
            &(0..n)
                .map(|k| C64::cis(-(k as f64) * theta))
                .collect::<Vec<_>>(),
        );
        conj.dagger().matmul(base).matmul(&conj)
    }

    /// A deterministic resonant comb: pulses as close as possible to once
    /// per qubit oscillation period, for `n_pulses` pulses. This is the
    /// intuitive Fig 2 drive and the seed for the genetic bitstream search.
    pub fn resonant_comb(&self, n_pulses: usize) -> Vec<bool> {
        let ticks_per_period = 1.0 / (self.transmon.frequency_ghz * self.params.clock_period_ns);
        let len = (ticks_per_period * n_pulses as f64).ceil() as usize;
        let mut bits = vec![false; len];
        for k in 0..n_pulses {
            let pos = (k as f64 * ticks_per_period).round() as usize;
            if pos < len {
                bits[pos] = true;
            }
        }
        bits
    }

    /// Evolves `|0⟩` under a bitstream, returning the Bloch vector
    /// `(x, y, z)` of the qubit-subspace projection after every clock tick
    /// (lab frame). Regenerates the trajectories of Fig 2(b).
    pub fn bloch_trajectory(&self, bits: &[bool]) -> Vec<(f64, f64, f64)> {
        let mut state = CMat::zeros(self.transmon.levels, 1);
        state[(0, 0)] = C64::ONE;
        let mut scratch = state.clone();
        let mut out = Vec::with_capacity(bits.len());
        for &b in bits {
            self.step(b).apply_columns(&state, &mut scratch);
            std::mem::swap(&mut state, &mut scratch);
            let c0 = state[(0, 0)];
            let c1 = state[(1, 0)];
            let cross = c0.conj() * c1;
            out.push((2.0 * cross.re, 2.0 * cross.im, c0.abs2() - c1.abs2()));
        }
        out
    }
}

/// Packs a bool bitstream into bytes, LSB-first — the on-chip register
/// image (§IV-B describes loading bitstreams over the data cables).
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpacks a byte image back into `len` bools, inverse of [`pack_bits`].
pub fn unpack_bits(bytes: &[u8], len: usize) -> Vec<bool> {
    (0..len)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::average_gate_error;
    use crate::gates;

    fn sim() -> SfqPulseSim {
        SfqPulseSim::new(Transmon::new(6.21286), SfqParams::default())
    }

    #[test]
    fn empty_bitstream_is_identity() {
        let s = sim();
        let u = s.frame_gate(&[]);
        assert!(u.approx_eq(&CMat::identity(6), 1e-14));
    }

    #[test]
    fn all_zero_bitstream_is_identity_on_qubit_subspace() {
        let s = sim();
        let u = s.frame_gate_qubit(&[false; 100]);
        // Free evolution in the qubit's own frame: diagonal, no qubit
        // rotation; phases on |0⟩,|1⟩ levels are trivial.
        assert!(
            gates::phase_distance(&u, &gates::id2()) < 1e-10,
            "dist = {}",
            gates::phase_distance(&u, &gates::id2())
        );
    }

    #[test]
    fn lab_gate_is_unitary() {
        let s = sim();
        let bits = s.resonant_comb(20);
        assert!(s.lab_gate(&bits).is_unitary(1e-10));
        assert!(s.frame_gate(&bits).is_unitary(1e-10));
    }

    #[test]
    fn resonant_comb_rotates_towards_ry() {
        // 63 resonant pulses at δθ = (π/2)/63 ≈ a π/2 y-rotation, with some
        // residual error from timing granularity and leakage.
        let s = sim();
        let bits = s.resonant_comb(63);
        let u = s.frame_gate_qubit(&bits);
        // Compare up to a z-phase before/after (timing offsets):
        let mut best = f64::INFINITY;
        for i in 0..64 {
            for j in 0..64 {
                let a = i as f64 / 64.0 * 2.0 * PI;
                let b = j as f64 / 64.0 * 2.0 * PI;
                let target = gates::rz(a)
                    .matmul(&gates::ry(PI / 2.0))
                    .matmul(&gates::rz(b));
                best = best.min(average_gate_error(&u, &target));
            }
        }
        assert!(best < 0.05, "comb far from Ry(π/2): err = {best}");
    }

    #[test]
    fn single_pulse_tips_by_delta_theta() {
        let s = sim();
        let traj = s.bloch_trajectory(&[true]);
        let (_, _, z) = traj[0];
        // z = cos(δθ) after one kick.
        assert!((z - s.params().delta_theta.cos()).abs() < 1e-6);
    }

    #[test]
    fn trajectory_free_evolution_keeps_z() {
        let s = sim();
        let bits = [true, false, false, false, false];
        let traj = s.bloch_trajectory(&bits);
        let z1 = traj[0].2;
        for p in &traj[1..] {
            assert!((p.2 - z1).abs() < 1e-9, "free evolution changed z");
        }
        // And xy precesses: consecutive points differ.
        assert!((traj[1].0 - traj[2].0).abs() > 1e-3);
    }

    #[test]
    fn delay_phase_wraps_correctly() {
        let s = sim();
        let per = s.phase_per_tick();
        assert!((s.delay_phase(1) - per).abs() < 1e-12);
        let d3 = s.delay_phase(3);
        assert!((d3 - (3.0 * per).rem_euclid(2.0 * PI)).abs() < 1e-12);
        assert_eq!(s.delay_phase(0), 0.0);
    }

    #[test]
    fn delayed_gate_matches_explicit_timing() {
        // Conjugation identity: gate of (d zeros + bits) over the combined
        // window equals Rz-conjugated base gate times trivial delay parts.
        let s = sim();
        let bits = s.resonant_comb(10);
        let d = 7usize;

        let mut padded = vec![false; d];
        padded.extend_from_slice(&bits);
        let direct = s.frame_gate(&padded);

        let base = s.frame_gate(&bits);
        let conj = s.delayed_frame_gate(&base, d);
        // The delay segment itself contributes only anharmonic phases on
        // leakage levels; on the computational subspace the two must agree.
        let a = direct.top_left_block(2);
        let b = conj.top_left_block(2);
        assert!(
            gates::phase_distance(&a, &b) < 1e-9,
            "delay conjugation mismatch: {}",
            gates::phase_distance(&a, &b)
        );
    }

    #[test]
    fn frame_at_actual_frequency_tracks_drift() {
        // A drifted qubit driven by the same bitstream yields a different
        // frame gate — the basis-operation drift that software calibration
        // must absorb (§V-A).
        let nominal = sim();
        let drifted = SfqPulseSim::new(Transmon::new(6.21286 + 0.006), SfqParams::default());
        let bits = nominal.resonant_comb(63);
        let u0 = nominal.frame_gate_qubit(&bits);
        let u1 = drifted.frame_gate_qubit(&bits);
        assert!(gates::phase_distance(&u0, &u1) > 1e-3);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let bits: Vec<bool> = (0..300).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let packed = pack_bits(&bits);
        assert_eq!(packed.len(), 38);
        let back = unpack_bits(&packed, 300);
        assert_eq!(bits, back);
    }

    #[test]
    fn leakage_grows_with_aggressive_drive() {
        // Much larger tip angles per pulse leak more into level 2.
        let q = Transmon::new(6.21286);
        let gentle = SfqPulseSim::new(
            q,
            SfqParams {
                delta_theta: (PI / 2.0) / 63.0,
                ..SfqParams::default()
            },
        );
        let harsh = SfqPulseSim::new(
            q,
            SfqParams {
                delta_theta: (PI / 2.0) / 8.0,
                ..SfqParams::default()
            },
        );
        let lg = crate::fidelity::leakage(&gentle.frame_gate_qubit(&gentle.resonant_comb(63)));
        let lh = crate::fidelity::leakage(&harsh.frame_gate_qubit(&harsh.resonant_comb(8)));
        assert!(lh > lg, "harsh leakage {lh} should exceed gentle {lg}");
    }
}
