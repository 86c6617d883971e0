//! Differential suite for the row-sparse column kernel of `qsim::pulse`.
//!
//! The reference is the dense evolution the kernel replaced: one
//! `matmul_into` per tick with the dense `F` and `F·K`, then
//! `R(L·T)†.matmul(U_lab)` and its leading 2×2 block. Every entry must
//! match bit for bit over seeded bitstreams (lengths 0–300, pulse
//! densities 0–1), both tip angles in use, several frequencies and
//! `levels` 2–6. NaN-producing models must give NaN in the same places.

use qsim::complex::C64;
use qsim::counters;
use qsim::expm::expm_hermitian_propagator;
use qsim::matrix::CMat;
use qsim::pulse::{SfqParams, SfqPulseSim, SparseRows};
use qsim::rng::StdRng;
use qsim::transmon::Transmon;
use std::f64::consts::PI;

/// The dense per-tick evolution: ping-pong `matmul_into` over the dense
/// `F` and `F·K`.
fn dense_lab_gate(t: Transmon, p: SfqParams, bits: &[bool]) -> CMat {
    let free = t.free_propagator(p.clock_period_ns);
    let kick = expm_hermitian_propagator(&t.drive_y(), p.delta_theta / 2.0);
    let free_kick = free.matmul(&kick);
    let mut u = CMat::identity(t.levels);
    let mut tmp = CMat::zeros(t.levels, t.levels);
    for &b in bits {
        let step = if b { &free_kick } else { &free };
        step.matmul_into(&u, &mut tmp);
        std::mem::swap(&mut u, &mut tmp);
    }
    u
}

/// `R(L·T)† · U_lab` as a dense product.
fn dense_frame_gate(t: Transmon, p: SfqParams, bits: &[bool]) -> CMat {
    let r = t.frame_propagator(t.frequency_ghz, bits.len() as f64 * p.clock_period_ns);
    r.dagger().matmul(&dense_lab_gate(t, p, bits))
}

fn assert_bits_eq(got: &CMat, want: &CMat, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}: shape"
    );
    for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: entry {k} is {g:?}, dense {w:?}"
        );
    }
}

fn assert_nan_pattern_eq(got: &CMat, want: &CMat, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}: shape"
    );
    for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            (g.re.is_nan(), g.im.is_nan()),
            (w.re.is_nan(), w.im.is_nan()),
            "{what}: NaN pattern differs at entry {k}: {g:?} vs {w:?}"
        );
    }
}

fn random_bits(rng: &mut StdRng, len: usize, density: f64) -> Vec<bool> {
    (0..len).map(|_| rng.gen::<f64>() < density).collect()
}

const TIP_ANGLES: [f64; 2] = [(PI / 2.0) / 63.0, (PI / 2.0) / 16.0];

#[test]
fn column_kernel_matches_dense_matmul() {
    for case in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.gen_range(1..7usize);
        // Sparse patterns with exact zeros of both signs.
        let zero_share = rng.gen::<f64>();
        let a = CMat::from_fn(n, n, |_, _| {
            if rng.gen::<f64>() < zero_share {
                let sign = |neg: bool| if neg { -0.0 } else { 0.0 };
                C64::new(sign(rng.gen::<bool>()), sign(rng.gen::<bool>()))
            } else {
                C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            }
        });
        let cols = rng.gen_range(0..n + 2);
        let x = CMat::from_fn(n, cols, |_, _| {
            C64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0))
        });
        let rows = rng.gen_range(0..n + 1);
        let sparse = SparseRows::from_dense(&a);
        let mut out = CMat::from_fn(rows, cols, |_, _| C64::new(f64::NAN, 7.0));
        let (_, c) = counters::counted(|| sparse.apply_columns(&x, &mut out));
        let dense = a.matmul(&x);
        let want = CMat::from_fn(rows, cols, |i, j| dense[(i, j)]);
        assert_bits_eq(&out, &want, &format!("case {case}"));
        let nnz_rows = (0..rows)
            .map(|i| (0..n).filter(|&k| a[(i, k)] != C64::ZERO).count())
            .sum::<usize>();
        assert_eq!(c.flops, (8 * nnz_rows * cols) as u64, "case {case}: flops");
        assert_eq!(c.allocs, 0, "case {case}: allocs");
    }
}

#[test]
fn pulse_gates_match_dense_evolution() {
    let freqs = [4.14238, 6.21286, 6.21286 + 0.006, 4.14238 - 0.011];
    for case in 0..240u64 {
        let mut rng = StdRng::seed_from_u64(0x5F0_0000 + case);
        let levels = 2 + (case as usize % 5);
        let freq = if case % 3 == 0 {
            rng.gen_range(4.0..7.0)
        } else {
            freqs[case as usize % freqs.len()]
        };
        let t = Transmon::with_params(freq, 0.25 + 0.1 * rng.gen::<f64>(), levels);
        let p = SfqParams {
            delta_theta: TIP_ANGLES[(case / 5) as usize % 2],
            ..SfqParams::default()
        };
        let len = match case % 4 {
            0 => rng.gen_range(0..4usize),
            _ => rng.gen_range(0..301usize),
        };
        let density = match case % 6 {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen::<f64>(),
        };
        let bits = random_bits(&mut rng, len, density);
        let sim = SfqPulseSim::new(t, p);
        let what = format!("case {case} (levels {levels}, f {freq}, len {len})");
        assert_bits_eq(&sim.lab_gate(&bits), &dense_lab_gate(t, p, &bits), &what);
        let frame = dense_frame_gate(t, p, &bits);
        assert_bits_eq(&sim.frame_gate(&bits), &frame, &what);
        assert_bits_eq(
            &sim.frame_gate_qubit(&bits),
            &frame.top_left_block(2),
            &what,
        );

        // Split evaluation (what the bitstream polish does): advance the
        // two leading columns over a prefix, then over the rest.
        let cut = if len == 0 {
            0
        } else {
            rng.gen_range(0..len + 1)
        };
        let mut cols = sim.qubit_columns();
        let mut scratch = cols.clone();
        sim.advance(&mut cols, &mut scratch, &bits[..cut]);
        sim.advance(&mut cols, &mut scratch, &bits[cut..]);
        let mut block = CMat::zeros(2, 2);
        sim.frame_dagger(len).apply_columns(&cols, &mut block);
        assert_bits_eq(
            &block,
            &frame.top_left_block(2),
            &format!("{what}, split at {cut}"),
        );
    }
}

#[test]
fn nan_models_give_nan_in_the_same_places() {
    let nominal = Transmon::new(6.21286);
    let models = [
        (
            nominal,
            SfqParams {
                delta_theta: f64::NAN,
                ..SfqParams::default()
            },
        ),
        (nominal.detuned(f64::NAN), SfqParams::default()),
        (
            Transmon::with_params(6.21286, f64::NAN, 4),
            SfqParams::default(),
        ),
    ];
    for (m, &(t, p)) in models.iter().enumerate() {
        let sim = SfqPulseSim::new(t, p);
        let mut rng = StdRng::seed_from_u64(0xA4A0 + m as u64);
        for len in [0usize, 1, 7, 64, 253] {
            let bits = random_bits(&mut rng, len, 0.3);
            let what = format!("model {m}, len {len}");
            let frame = dense_frame_gate(t, p, &bits);
            assert_nan_pattern_eq(&sim.lab_gate(&bits), &dense_lab_gate(t, p, &bits), &what);
            assert_nan_pattern_eq(&sim.frame_gate(&bits), &frame, &what);
            assert_nan_pattern_eq(
                &sim.frame_gate_qubit(&bits),
                &frame.top_left_block(2),
                &what,
            );
        }
    }
}

#[test]
fn frame_gate_qubit_counts_sparse_flops() {
    // One 2-column step costs 8·nnz·2 flops; the frame block adds 8·1·2
    // per row for the diagonal R†, rows 0 and 1 only.
    let t = Transmon::new(6.21286);
    let p = SfqParams::default();
    let sim = SfqPulseSim::new(t, p);
    let free = SparseRows::from_dense(&t.free_propagator(p.clock_period_ns));
    let kick = expm_hermitian_propagator(&t.drive_y(), p.delta_theta / 2.0);
    let free_kick = SparseRows::from_dense(&t.free_propagator(p.clock_period_ns).matmul(&kick));
    assert_eq!(free.nnz(), t.levels, "F is diagonal");
    let bits = sim.resonant_comb(63);
    let ones = bits.iter().filter(|&&b| b).count();
    let zeros = bits.len() - ones;
    let (_, c) = counters::counted(|| sim.frame_gate_qubit(&bits));
    let want = 16 * (zeros * free.nnz() + ones * free_kick.nnz()) + 32;
    assert_eq!(c.flops, want as u64);
}
