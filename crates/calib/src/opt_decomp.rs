//! Per-qubit gate decomposition for DigiQ_opt (§V-A).
//!
//! A DigiQ_opt controller cycle broadcasts the stored Ry(π/2) bitstream
//! delayed by a per-cycle value `d`, realizing (in the qubit frame)
//! `Rz(−θ_d)·Ubs·Rz(θ_d)` with `θ_d = d·2π·f·T_clk`. Chaining `L` cycles
//! and absorbing the trailing rotation into the next gate, an arbitrary
//! target is approximated as
//!
//! ```text
//! U ≈ Rz(φ_out)·Ubs·Rz(θ_{d_{L-1}})·…·Ubs·Rz(θ_{d_0} + φ_in)
//! ```
//!
//! where `φ_in` is the residual absorbed from the previous gate (free,
//! tracked by the compiler), `φ_out` is this gate's own residual, and each
//! middle angle is quantized to the qubit's 256 reachable delay phases.
//! The search "chooses sets of delays holistically … numerically searching
//! for the best combination" — here an exact enumeration over delay
//! tuples with the two boundary rotations maximized in closed form, using
//! `L ≤ 2` and escalating to `L = 3` for near-π rotations exactly as the
//! paper reports.
//!
//! # Lane-parallel, bit-exact scan
//!
//! Each stage fills a delay-indexed error buffer from a small scan body
//! over equal-length lane-major `f64` slices ([`OptTables`]' `G·Rz(θ_d)`
//! and the per-call `Rz(θ_d + φ_in)` diagonal), with the stage's fixed
//! factor broadcast; under `target-cpu=native` the bodies run on 256-bit
//! vector registers. A sequential strict-`<`, first-wins argmin over each
//! buffer then picks the winner. Every candidate keeps the scalar
//! operation order of `mul2`/`col_scale2`/`err_free_out` (Rust never
//! contracts to FMA or reassociates), so delays, errors and `φ_out` are
//! bit-identical to a plain scalar scan — ties and NaNs included — as
//! pinned by `crates/calib/tests/opt_scan_differential.rs`. Only the
//! winner's `φ_out` is reconstructed, along the product path that scored
//! it.

use crate::parking::rz_error_for_offset;
use qsim::complex::C64;
use qsim::matrix::CMat;
use std::collections::BinaryHeap;
use std::f64::consts::PI;

/// The calibrated per-qubit basis for DigiQ_opt decomposition.
#[derive(Debug, Clone)]
pub struct OptBasis {
    /// Qubit-subspace block (2×2, sub-unitary with leakage) of the basis
    /// operation this qubit's shared bitstream actually implements.
    pub ubs: CMat,
    /// Reachable delay phase per clock tick: `2π·f_actual·T_clk mod 2π`.
    pub phase_per_tick: f64,
    /// Number of delay steps `N` (256 phases including zero).
    pub n_delays: usize,
}

impl OptBasis {
    /// Builds the basis from a 6-level basis operation (projecting the
    /// qubit block) and the qubit's actual frequency.
    ///
    /// # Panics
    ///
    /// Panics if the basis op is smaller than 2×2.
    pub fn new(ubs_full: &CMat, actual_freq_ghz: f64, clock_ns: f64, n_delays: usize) -> Self {
        assert!(ubs_full.rows() >= 2);
        OptBasis {
            ubs: ubs_full.top_left_block(2),
            phase_per_tick: (2.0 * PI * actual_freq_ghz * clock_ns).rem_euclid(2.0 * PI),
            n_delays,
        }
    }

    /// The idealized basis (exact Ry(π/2), no drift) — the reference point
    /// of §V-A's "in the ideal case, L ≤ 2 is enough".
    pub fn ideal(n_delays: usize) -> Self {
        OptBasis {
            ubs: qsim::gates::ry(PI / 2.0),
            // Uniform coverage: exactly the 256-point lattice.
            phase_per_tick: 2.0 * PI * 63.0 / 256.0,
            n_delays,
        }
    }

    /// Reachable Rz angle for delay `d`.
    pub fn theta(&self, d: usize) -> f64 {
        (d as f64 * self.phase_per_tick).rem_euclid(2.0 * PI)
    }
}

/// An opt-mode decomposition: delays for each Ubs firing plus boundary
/// rotations.
#[derive(Debug, Clone, PartialEq)]
pub struct OptDecomposition {
    /// Delay value before each Ubs firing (`L = delays.len()` cycles).
    pub delays: Vec<u16>,
    /// Continuous rotation folded into the *incoming* residual (already
    /// includes the provided `phi_in`).
    pub phi_in_used: f64,
    /// Residual rotation handed to the next gate.
    pub phi_out: f64,
    /// Average gate error of the realized operation vs. the target.
    pub error: f64,
}

impl OptDecomposition {
    /// Number of controller cycles consumed.
    pub fn cycles(&self) -> usize {
        self.delays.len()
    }
}

/// `Rz(θ)` as a 2×2 matrix (local helper).
fn rzm(theta: f64) -> CMat {
    qsim::gates::rz(theta)
}

/// Row-major scalar 2×2 product `a·b`.
#[inline(always)]
fn mul2(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// Scales the columns of a row-major 2×2 by a diagonal `(z0, z1)` — i.e.
/// `a · diag(z0, z1)`.
#[inline(always)]
fn col_scale2(a: &[C64; 4], z0: C64, z1: C64) -> [C64; 4] {
    [a[0] * z0, a[1] * z1, a[2] * z0, a[3] * z1]
}

/// The diagonal entries `a = (M·T†)₀₀`, `b = (M·T†)₁₁`; the optimal
/// trailing phase is `φ_out = arg(a) − arg(b)`. `td` is the target's
/// dagger (row-major), hoisted out by the caller.
#[inline(always)]
fn out_diag(m: &[C64; 4], td: &[C64; 4]) -> (C64, C64) {
    (m[0] * td[0] + m[1] * td[2], m[2] * td[1] + m[3] * td[3])
}

/// Error `1 − F` of `Rz(φ_out)·M` vs the target, with `φ_out` maximized
/// in closed form: `max_φ |tr(T†·Rz(φ)·M)| = |a| + |b|` (see
/// [`out_diag`]).
#[inline(always)]
fn err_free_out(m: &[C64; 4], td: &[C64; 4]) -> f64 {
    let (a, b) = out_diag(m, td);
    let overlap = a.abs2().sqrt() + b.abs2().sqrt();
    let mm = m[0].abs2() + m[1].abs2() + m[2].abs2() + m[3].abs2();
    1.0 - ((mm + overlap * overlap) / 6.0).clamp(0.0, 1.0)
}

// Flop accounting for `qsim::counters`: one flop per f64 add, sub, mul,
// div or sqrt a candidate evaluates (a complex multiply is 6, a complex
// add 2, `|z|²` 3); clamps and compares are free. Only candidate
// arithmetic (and each L = 3 stem's one `col_scale2`) is tallied — the
// per-call `Rz(θ_d + φ_in)` diagonal and the winner's `φ_out`
// reconstruction are not.

/// [`err_free_out`]: `M·T†` diagonal 28, two magnitudes 9, `‖M‖²` 15,
/// fidelity 3, `1 − F` 1.
const FLOPS_ERR: u64 = 56;
/// [`col_scale2`]: four complex multiplies.
const FLOPS_COL_SCALE: u64 = 24;
/// [`mul2`]: eight complex multiplies and four complex adds.
const FLOPS_MUL2: u64 = 56;
/// An L = 1 or L = 2 scan candidate: `c·diag(z)` plus its error.
const FLOPS_L12: u64 = FLOPS_COL_SCALE + FLOPS_ERR;
/// An L = 3 scan candidate against a prebuilt stem: `GZ(d2)·stem`.
const FLOPS_L3: u64 = FLOPS_MUL2 + FLOPS_ERR;
/// An L = 3 refinement candidate: the full `GZ·GZ·(G·z)` chain.
const FLOPS_REFINE: u64 = FLOPS_COL_SCALE + 2 * FLOPS_MUL2 + FLOPS_ERR;

/// `N` complex values per delay, stored lane-major: entry `e` of delay
/// `d` is `C64::new(re[e][d], im[e][d])`, so a scan over `d` streams `2N`
/// contiguous `f64` slices.
#[derive(Debug, Clone)]
struct Lanes<const N: usize> {
    re: [Vec<f64>; N],
    im: [Vec<f64>; N],
}

impl<const N: usize> Lanes<N> {
    fn collect(items: impl ExactSizeIterator<Item = [C64; N]>) -> Self {
        let k = items.len();
        let mut out = Lanes {
            re: std::array::from_fn(|_| Vec::with_capacity(k)),
            im: std::array::from_fn(|_| Vec::with_capacity(k)),
        };
        for item in items {
            for (e, z) in item.iter().enumerate() {
                out.re[e].push(z.re);
                out.im[e].push(z.im);
            }
        }
        out
    }

    /// The `N` entries of delay `d`.
    fn at(&self, d: usize) -> [C64; N] {
        std::array::from_fn(|e| C64::new(self.re[e][d], self.im[e][d]))
    }

    /// Entry `e` as `(re, im)` slices of exactly `k` lanes.
    fn lane(&self, e: usize, k: usize) -> (&[f64], &[f64]) {
        (&self.re[e][..k], &self.im[e][..k])
    }
}

/// Precomputed per-basis tables for [`decompose_opt`]: the reachable
/// angles plus the basis products every scan re-derives — `G·Rz(θ_d)` and
/// `W(d) = G·Rz(θ_d)·G` for all `n_delays + 1` delay values.
///
/// `G·Rz(θ_d)` is what the L = 3 scan streams over `d`, so it is stored
/// lane-major: the re/im parts of each of its four entries are one `f64`
/// slice indexed by delay (eight slices), which lets the scan body run on
/// full-width vector registers. `W(d)` is only ever read one delay at a
/// time (broadcast across a scan) and stays an array of 2×2s.
///
/// Building the tables is one pass over the delay lattice. Batched callers
/// (the error model decomposes 24 targets per qubit against one basis)
/// build the tables once and reuse them — `digiq_core::error_model`
/// memoizes them in memory through the artifact store's `calib/memo`
/// namespace (never on disk).
#[derive(Debug, Clone)]
pub struct OptTables {
    /// θ_d for `d ∈ [0, n_delays]`.
    thetas: Vec<f64>,
    /// The 2×2 basis block `G`, row-major.
    g: [C64; 4],
    /// `G·Rz(θ_d)` per delay, lane-major.
    gz: Lanes<4>,
    /// `W(d) = G·Rz(θ_d)·G` per delay.
    w: Vec<[C64; 4]>,
}

impl OptTables {
    /// Builds the delay tables for a basis.
    pub fn build(basis: &OptBasis) -> Self {
        let g = [
            basis.ubs[(0, 0)],
            basis.ubs[(0, 1)],
            basis.ubs[(1, 0)],
            basis.ubs[(1, 1)],
        ];
        let thetas: Vec<f64> = (0..=basis.n_delays).map(|d| basis.theta(d)).collect();
        let gz = Lanes::collect(
            thetas
                .iter()
                .map(|&th| col_scale2(&g, C64::cis(-th / 2.0), C64::cis(th / 2.0))),
        );
        let w = (0..thetas.len()).map(|d| mul2(&gz.at(d), &g)).collect();
        OptTables { thetas, g, gz, w }
    }

    /// Number of delay steps `N` (the tables cover `d ∈ [0, N]`).
    pub fn n_delays(&self) -> usize {
        self.thetas.len() - 1
    }
}

/// Scan body for L = 1 and L = 2: `err[d0]` for `M = c·Rz(θ_{d0} + φ_in)`,
/// with `c = G` (L = 1) or `c = W(d1)` (L = 2) broadcast across lanes.
#[inline(never)]
fn scan_col_scale(c: &[C64; 4], zin: &Lanes<2>, td: &[C64; 4], err: &mut [f64]) {
    let k = err.len();
    let ((z0r, z0i), (z1r, z1i)) = (zin.lane(0, k), zin.lane(1, k));
    for (i, e) in err.iter_mut().enumerate() {
        let m = col_scale2(c, C64::new(z0r[i], z0i[i]), C64::new(z1r[i], z1i[i]));
        *e = err_free_out(&m, td);
    }
}

/// Scan body for L = 3: `err[d2]` for `M = G·Rz(θ_{d2})·stem`, with the
/// stem `W(d1)·Rz(θ_{d0} + φ_in)` broadcast across lanes.
#[inline(never)]
fn scan_l3(gz: &Lanes<4>, stem: &[C64; 4], td: &[C64; 4], err: &mut [f64]) {
    let k = err.len();
    let ((r0, i0), (r1, i1)) = (gz.lane(0, k), gz.lane(1, k));
    let ((r2, i2), (r3, i3)) = (gz.lane(2, k), gz.lane(3, k));
    for (i, e) in err.iter_mut().enumerate() {
        let gzd = [
            C64::new(r0[i], i0[i]),
            C64::new(r1[i], i1[i]),
            C64::new(r2[i], i2[i]),
            C64::new(r3[i], i3[i]),
        ];
        *e = err_free_out(&mul2(&gzd, stem), td);
    }
}

/// Strict-`<`, first-wins argmin of `err` against the running `best`:
/// exactly the winner a scalar scan with `if e < best { … }` picks (NaNs
/// never win). Lowers `best` and returns the index on a hit.
fn first_min(err: &[f64], best: &mut f64) -> Option<usize> {
    let mut hit = None;
    for (i, &e) in err.iter().enumerate() {
        if e < *best {
            *best = e;
            hit = Some(i);
        }
    }
    hit
}

/// Number of best L = 2 stems the L = 3 scan extends.
const L3_STEMS: usize = 96;

/// Maps `x` to an integer whose order is `f64::total_cmp`'s (NaNs
/// included): the sign-magnitude bits folded into two's complement.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Offers one L = 2 scan chunk (scan indices `base..base + err.len()`) to
/// the max-heap of the [`L3_STEMS`] smallest `(total_key(err), index)`.
/// Indices only grow, so an error tying the heap's maximum never enters:
/// the heap holds exactly the prefix a stable sort by `total_cmp` keeps.
fn keep_smallest(heap: &mut BinaryHeap<(i64, usize)>, base: usize, err: &[f64]) {
    for (i, &e) in err.iter().enumerate() {
        let cand = (total_key(e), base + i);
        if heap.len() < L3_STEMS {
            heap.push(cand);
        } else if let Some(mut top) = heap.peek_mut() {
            if cand < *top {
                *top = cand;
            }
        }
    }
}

/// The search stage that scored a candidate, which fixes both its cycle
/// count and how its product was formed. A refinement candidate chains
/// `GZ·GZ·(G·z)` while the L = 3 scan forms `GZ·(W·z)`; the two differ in
/// the last bits, so `φ_out` is rebuilt along the path that actually won.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    L1,
    L2,
    L3,
    Refine,
}

impl Stage {
    fn cycles(self) -> usize {
        match self {
            Stage::L1 => 1,
            Stage::L2 => 2,
            Stage::L3 | Stage::Refine => 3,
        }
    }
}

/// The best candidate so far. `stage` is `None` until some candidate's
/// error beats the initial `+∞` (never, on a basis whose products are all
/// NaN), in which case the result is the one-cycle tuple `[0]`.
struct Best {
    delays: [usize; 3],
    stage: Option<Stage>,
    err: f64,
}

/// The full L = 3 chain `GZ(d2)·GZ(d1)·(G·Rz(θ_{d0} + φ_in))` that the
/// refinement evaluates.
fn chain3(t: &OptTables, zin: &Lanes<2>, delays: &[usize; 3]) -> [C64; 4] {
    let [z0, z1] = zin.at(delays[0]);
    let mut m = col_scale2(&t.g, z0, z1);
    for &d in &delays[1..] {
        m = mul2(&t.gz.at(d), &m);
    }
    m
}

/// The winning candidate's `M`, recomputed along the path that scored it.
fn winner_product(t: &OptTables, zin: &Lanes<2>, delays: &[usize; 3], stage: Stage) -> [C64; 4] {
    let [d0, d1, d2] = *delays;
    let [z0, z1] = zin.at(d0);
    match stage {
        Stage::L1 => col_scale2(&t.g, z0, z1),
        Stage::L2 => col_scale2(&t.w[d1], z0, z1),
        Stage::L3 => mul2(&t.gz.at(d2), &col_scale2(&t.w[d1], z0, z1)),
        Stage::Refine => chain3(t, zin, delays),
    }
}

/// Decomposes `target` (2×2 unitary) on the given basis, consuming an
/// incoming residual `phi_in`, with at most `max_cycles` Ubs firings.
/// Stops early once `err_target` is met; always returns the best found.
///
/// Builds the delay tables on the fly; callers decomposing many targets
/// against one basis should build [`OptTables`] once and call
/// [`decompose_opt_with`].
///
/// # Panics
///
/// Panics if `max_cycles == 0` or `target` is not 2×2.
pub fn decompose_opt(
    target: &CMat,
    basis: &OptBasis,
    phi_in: f64,
    max_cycles: usize,
    err_target: f64,
) -> OptDecomposition {
    decompose_opt_with(
        &OptTables::build(basis),
        target,
        phi_in,
        max_cycles,
        err_target,
    )
}

/// [`decompose_opt`] against prebuilt delay tables.
///
/// Tallies the candidates' flops on `qsim::counters` (see the `FLOPS_*`
/// constants).
///
/// # Panics
///
/// Panics if `max_cycles == 0` or `target` is not 2×2.
pub fn decompose_opt_with(
    tables: &OptTables,
    target: &CMat,
    phi_in: f64,
    max_cycles: usize,
    err_target: f64,
) -> OptDecomposition {
    assert!(max_cycles >= 1);
    assert_eq!((target.rows(), target.cols()), (2, 2));
    let td = [
        target[(0, 0)].conj(),
        target[(1, 0)].conj(),
        target[(0, 1)].conj(),
        target[(1, 1)].conj(),
    ];
    // Incoming boundary diagonal per d0: Rz(θ_{d0} + φ_in), lane-major.
    let zin = Lanes::collect(tables.thetas.iter().map(|&th| {
        let z = th + phi_in;
        [C64::cis(-z / 2.0), C64::cis(z / 2.0)]
    }));
    let (best, flops) = search(tables, &zin, &td, max_cycles, err_target);
    qsim::counters::tally_flops(flops);
    let phi_out = match best.stage {
        Some(stage) => {
            let (a, b) = out_diag(&winner_product(tables, &zin, &best.delays, stage), &td);
            a.arg() - b.arg()
        }
        // No candidate scored: the optimal diagonal defaults to (1, 1).
        None => 0.0,
    };
    let cycles = best.stage.map_or(1, Stage::cycles);
    OptDecomposition {
        delays: best.delays[..cycles].iter().map(|&d| d as u16).collect(),
        phi_in_used: phi_in,
        phi_out,
        error: best.err,
    }
}

/// The delay search behind [`decompose_opt_with`]: the winner plus the
/// flops its candidates cost.
fn search(
    t: &OptTables,
    zin: &Lanes<2>,
    td: &[C64; 4],
    max_cycles: usize,
    err_target: f64,
) -> (Best, u64) {
    let k = t.thetas.len();
    let mut err = vec![0.0; k];
    let mut best = Best {
        delays: [0; 3],
        stage: None,
        err: f64::INFINITY,
    };

    // L = 1: M = G·Rz(θ_{d0} + φ_in).
    scan_col_scale(&t.g, zin, td, &mut err);
    let mut flops = k as u64 * FLOPS_L12;
    if let Some(d0) = first_min(&err, &mut best.err) {
        (best.delays, best.stage) = ([d0, 0, 0], Some(Stage::L1));
    }
    if best.err <= err_target || max_cycles == 1 {
        return (best, flops);
    }

    // L = 2: M = W(d1)·Rz(θ_{d0} + φ_in) with W = G·Rz·G prebuilt, one
    // d0 chunk per d1; the smallest errors seed the L = 3 stems.
    let mut stems = BinaryHeap::with_capacity(L3_STEMS);
    for (d1, wm) in t.w.iter().enumerate() {
        scan_col_scale(wm, zin, td, &mut err);
        if let Some(d0) = first_min(&err, &mut best.err) {
            (best.delays, best.stage) = ([d0, d1, 0], Some(Stage::L2));
        }
        if max_cycles >= 3 {
            keep_smallest(&mut stems, d1 * k, &err);
        }
    }
    flops += (k * k) as u64 * FLOPS_L12;
    if best.err <= err_target || max_cycles == 2 {
        return (best, flops);
    }

    // L = 3 (the paper: "a subset of gates nearing π rotations … need
    // L = 3"): extend the best L=2 stems, plus a coarse uniform stem grid
    // (the optimal L=3 region need not contain any good L=2 prefix).
    let mut order: Vec<(usize, usize)> = stems
        .into_sorted_vec()
        .into_iter()
        .map(|(_, idx)| (idx % k, idx / k))
        .collect();
    for d0 in (0..k).step_by(8) {
        for d1 in (0..k).step_by(8) {
            order.push((d0, d1));
        }
    }
    for &(d0, d1) in &order {
        let [z0, z1] = zin.at(d0);
        let stem = col_scale2(&t.w[d1], z0, z1);
        scan_l3(&t.gz, &stem, td, &mut err);
        flops += FLOPS_COL_SCALE + k as u64 * FLOPS_L3;
        if let Some(d2) = first_min(&err, &mut best.err) {
            (best.delays, best.stage) = ([d0, d1, d2], Some(Stage::L3));
        }
        if best.err <= err_target {
            break;
        }
    }
    // Local refinement of the winning tuple: coordinate descent over ±4
    // neighbourhoods (closes the gap the coarse stem grid leaves).
    if best.stage == Some(Stage::L3) {
        let mut improved = true;
        while improved {
            improved = false;
            for pos in 0..3 {
                let center = best.delays[pos];
                let lo = center.saturating_sub(4);
                let hi = (center + 4).min(k - 1);
                for cand in (lo..=hi).filter(|&c| c != center) {
                    let mut delays = best.delays;
                    delays[pos] = cand;
                    let err = err_free_out(&chain3(t, zin, &delays), td);
                    flops += FLOPS_REFINE;
                    if err < best.err {
                        best = Best {
                            delays,
                            stage: Some(Stage::Refine),
                            err,
                        };
                        improved = true;
                    }
                }
            }
        }
    }
    (best, flops)
}

/// Reconstructs the 2×2 operation a decomposition realizes (including the
/// boundary rotations) — used by tests and the error model.
pub fn realize_opt(basis: &OptBasis, dec: &OptDecomposition) -> CMat {
    let mut m = rzm(dec.phi_in_used + basis.theta(dec.delays[0] as usize));
    m = basis.ubs.matmul(&m);
    for &d in &dec.delays[1..] {
        m = basis.ubs.matmul(&rzm(basis.theta(d as usize))).matmul(&m);
    }
    rzm(dec.phi_out).matmul(&m)
}

/// The worst-case single-delay Rz error of a basis (diagnostic tying this
/// module back to the Table II coverage analysis). NaN if the basis's
/// phase per tick is not finite.
pub fn coverage_error(basis: &OptBasis) -> f64 {
    let mut phases: Vec<f64> = (0..=basis.n_delays).map(|d| basis.theta(d)).collect();
    phases.sort_by(f64::total_cmp);
    let mut gap: f64 = 2.0 * PI - phases.last().unwrap() + phases.first().unwrap();
    for w in phases.windows(2) {
        gap = gap.max(w[1] - w[0]);
    }
    rz_error_for_offset(gap / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::fidelity::average_gate_error;
    use qsim::gates;

    fn ideal() -> OptBasis {
        OptBasis::ideal(255)
    }

    #[test]
    fn ideal_basis_decomposes_standard_gates_in_two_cycles() {
        // §V-A: "in the ideal case (Ubs = Ry(π/2)), L ≤ 2 is enough for
        // all single-qubit gates" at ~1e-4 error.
        for (name, g) in [
            ("H", gates::h()),
            ("T", gates::t()),
            ("S", gates::s()),
            ("Rx(0.7)", gates::rx(0.7)),
            ("U", gates::u_zyz(1.1, 0.4, -0.9)),
        ] {
            let dec = decompose_opt(&g, &ideal(), 0.0, 2, 1e-4);
            assert!(
                dec.error < 2e-4,
                "{name}: error {:.2e} with {} cycles",
                dec.error,
                dec.cycles()
            );
            // Realized operation matches within the reported error.
            let m = realize_opt(&ideal(), &dec);
            let direct = average_gate_error(&m, &g);
            assert!((direct - dec.error).abs() < 1e-9, "{name} bookkeeping");
        }
    }

    #[test]
    fn diagonal_gates_need_one_cycle_wait_no_they_need_zero_ubs() {
        // Rz targets: with free boundary rotations even L=1 works — the
        // firing is absorbed by the boundaries.
        let dec = decompose_opt(&gates::rz(0.37), &ideal(), 0.0, 2, 1e-4);
        assert!(dec.error < 1e-4);
    }

    #[test]
    fn near_pi_rotations_benefit_from_l3() {
        // On a *drifted* basis, X/Y-like gates are the hard cases (§V-A);
        // L = 3 must do at least as well as L = 2.
        let drifted = OptBasis {
            ubs: gates::rz(0.21)
                .matmul(&gates::ry(PI / 2.0 + 0.07))
                .matmul(&gates::rz(-0.13)),
            phase_per_tick: 2.0 * PI * 0.2487,
            n_delays: 255,
        };
        let x = gates::x();
        let l2 = decompose_opt(&x, &drifted, 0.0, 2, 0.0);
        let l3 = decompose_opt(&x, &drifted, 0.0, 3, 0.0);
        assert!(l3.error <= l2.error + 1e-12);
        assert!(l3.error < 1e-3, "L3 error {:.2e}", l3.error);
    }

    #[test]
    fn phi_in_is_honoured() {
        // A nonzero incoming residual must be folded in exactly.
        let g = gates::h();
        let dec = decompose_opt(&g, &ideal(), 0.83, 2, 1e-5);
        let m = realize_opt(&ideal(), &dec);
        assert!((average_gate_error(&m, &g) - dec.error).abs() < 1e-9);
        assert!(dec.error < 2e-4);
        assert_eq!(dec.phi_in_used, 0.83);
    }

    #[test]
    fn delays_in_range() {
        let dec = decompose_opt(&gates::t(), &ideal(), 0.0, 3, 1e-6);
        for &d in &dec.delays {
            assert!((d as usize) <= 255);
        }
    }

    #[test]
    fn coverage_matches_parking_module() {
        let b = OptBasis::new(&CMat::identity(6), 6.21286, 0.040, 255);
        let here = coverage_error(&b);
        let there = crate::parking::worst_rz_error(6.21286, 0.040, 255);
        assert!((here - there).abs() < 1e-12);
    }

    #[test]
    fn coverage_of_a_nan_phase_is_nan_not_a_panic() {
        let b = OptBasis {
            phase_per_tick: f64::NAN,
            ..ideal()
        };
        assert!(coverage_error(&b).is_nan());
    }

    #[test]
    fn decompose_tallies_candidate_flops() {
        // L = 1 and L = 2 price 80 flops per candidate over the 256² + 256
        // lattice; an unmet err_target runs every candidate.
        let (tables, x) = (OptTables::build(&ideal()), gates::x());
        let (_, c) = qsim::counters::counted(|| decompose_opt_with(&tables, &x, 0.0, 2, 0.0));
        assert_eq!(c.flops, (256 + 256 * 256) * FLOPS_L12);
        assert_eq!(c.allocs, 0);
    }

    #[test]
    fn drift_degrades_then_recalibration_recovers() {
        // Same bitstream on a drifted qubit: using the *nominal* basis
        // matrices to compile gives larger realized error than compiling
        // against the measured (actual) basis — the essence of §V-A.
        let nominal = ideal();
        let actual = OptBasis {
            ubs: gates::rz(0.15)
                .matmul(&gates::ry(PI / 2.0 + 0.05))
                .matmul(&gates::rz(0.08)),
            phase_per_tick: nominal.phase_per_tick + 0.006,
            n_delays: 255,
        };
        let target = gates::h();
        // Compile against nominal, run on actual.
        let dec_stale = decompose_opt(&target, &nominal, 0.0, 2, 1e-6);
        let realized_stale = realize_opt(
            &OptBasis {
                ubs: actual.ubs.clone(),
                ..nominal.clone()
            },
            &dec_stale,
        );
        let stale_err = average_gate_error(&realized_stale, &target);
        // Compile against actual.
        let dec_fresh = decompose_opt(&target, &actual, 0.0, 3, 1e-6);
        assert!(
            dec_fresh.error < stale_err,
            "recalibration should win: fresh {:.2e} vs stale {:.2e}",
            dec_fresh.error,
            stale_err
        );
        assert!(dec_fresh.error < 1e-3);
    }
}
