//! Differential suite for the workspace/fused/fixed-N Jacobi eigensolver.
//!
//! `qsim::eigen::eigh` is an optimization of the textbook two-pass cyclic
//! Jacobi iteration: reusable workspace buffers, the column/row rotation
//! halves fused into one pass, a monomorphized 9×9 core, and an
//! incremental off-norm tally that only *skips* redundant convergence
//! rescans. All of it is a pure reordering — identical f64 expressions
//! over identical inputs — so the decomposition must match the naive
//! reference **bitwise** on every family here: random Hermitian, generic
//! complex (exercising the symmetrization), degenerate spectra (exercising
//! stable-sort tie handling), and NaN-poisoned matrices (exercising the
//! never-converges path). A NaN run through a workspace must not poison
//! the next clean decomposition.

use qsim::complex::C64;
use qsim::counters;
use qsim::eigen::{eigh, eigh_into, EigH, EighWorkspace};
use qsim::matrix::CMat;
use qsim::rng::StdRng;

// ------------------------------------------------------------------
// Naive reference: frozen copy of the pre-workspace implementation —
// allocating dagger/identity, separate column and row rotation passes,
// exact O(n²) off-norm rescan at the top of every sweep.
// ------------------------------------------------------------------

fn off_diag_sq(a: &CMat) -> f64 {
    let n = a.rows();
    let d = a.as_slice();
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += d[i * n + j].abs2();
            }
        }
    }
    s
}

#[allow(clippy::too_many_arguments)]
fn rotate_columns(
    data: &mut [C64],
    n: usize,
    p: usize,
    q: usize,
    c: f64,
    s: f64,
    jqp: C64,
    jqq: C64,
) {
    for row in data.chunks_exact_mut(n) {
        let (akp, akq) = (row[p], row[q]);
        row[p] = C64::new(
            akp.re * c + (akq.re * jqp.re - akq.im * jqp.im),
            akp.im * c + (akq.re * jqp.im + akq.im * jqp.re),
        );
        row[q] = C64::new(
            -akp.re * s + (akq.re * jqq.re - akq.im * jqq.im),
            -akp.im * s + (akq.re * jqq.im + akq.im * jqq.re),
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn rotate_rows(data: &mut [C64], n: usize, p: usize, q: usize, c: f64, s: f64, jqp: C64, jqq: C64) {
    let (head, tail) = data.split_at_mut(q * n);
    let prow = &mut head[p * n..(p + 1) * n];
    let qrow = &mut tail[..n];
    let (cqp, cqq) = (jqp.conj(), jqq.conj());
    for (ap, aq) in prow.iter_mut().zip(qrow.iter_mut()) {
        let (apk, aqk) = (*ap, *aq);
        *ap = C64::new(
            apk.re * c + (aqk.re * cqp.re - aqk.im * cqp.im),
            apk.im * c + (aqk.re * cqp.im + aqk.im * cqp.re),
        );
        *aq = C64::new(
            -apk.re * s + (aqk.re * cqq.re - aqk.im * cqq.im),
            -apk.im * s + (aqk.re * cqq.im + aqk.im * cqq.re),
        );
    }
}

fn naive_eigh(a: &CMat) -> EigH {
    assert!(a.is_square());
    let n = a.rows();
    let mut m = a.dagger();
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = (m[(i, j)] + a[(i, j)]) * 0.5;
        }
    }
    let mut v = CMat::identity(n);

    let scale = m.frobenius_norm().max(1.0);
    let tol = (scale * 1e-15).powi(2) * (n * n) as f64;
    let thresh = scale * 1e-16;

    let md = m.as_mut_slice();
    let vd = v.as_mut_slice();
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    off += md[i * n + j].abs2();
                }
            }
        }
        if off <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let beta = md[p * n + q];
                let b = beta.abs();
                if b <= thresh {
                    continue;
                }
                let phi = beta.arg();
                let alpha = md[p * n + p].re;
                let gamma = md[q * n + q].re;
                let zeta = (alpha - gamma) / (2.0 * b);
                let t = if zeta >= 0.0 {
                    1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                } else {
                    -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                let e_m = C64::cis(-phi);
                let jqp = e_m * s;
                let jqq = e_m * c;
                rotate_columns(md, n, p, q, c, s, jqp, jqq);
                rotate_rows(md, n, p, q, c, s, jqp, jqq);
                rotate_columns(vd, n, p, q, c, s, jqp, jqq);
            }
        }
    }
    let _ = off_diag_sq(&m);

    let mut order: Vec<usize> = (0..n).collect();
    let vals: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    order.sort_by(|&i, &j| vals[i].total_cmp(&vals[j]));
    let sorted_vals: Vec<f64> = order.iter().map(|&i| vals[i]).collect();
    let sorted_vecs = CMat::from_fn(n, n, |i, j| v[(i, order[j])]);
    EigH {
        values: sorted_vals,
        vectors: sorted_vecs,
    }
}

// ------------------------------------------------------------------
// Matrix families.
// ------------------------------------------------------------------

fn rand_c64(rng: &mut StdRng) -> C64 {
    C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
}

fn random_matrix(n: usize, rng: &mut StdRng) -> CMat {
    let data: Vec<C64> = (0..n * n).map(|_| rand_c64(rng)).collect();
    CMat::from_slice(n, n, &data)
}

fn random_hermitian(n: usize, rng: &mut StdRng) -> CMat {
    let a = random_matrix(n, rng);
    (&a + &a.dagger()).scale(C64::real(0.5))
}

/// Block-degenerate spectrum: a Hermitian similarity of a diagonal with
/// repeated entries, so the sort sees exact ties on top of round-off ones.
fn degenerate_spectrum(n: usize, rng: &mut StdRng) -> CMat {
    let mut m = random_hermitian(n, rng);
    let d = m.as_mut_slice();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                d[i * n + j] *= 1e-3;
            }
        }
        d[i * n + i] = C64::real(((i / 2) as f64) * 2.0);
    }
    m
}

fn random_with_nan(n: usize, rng: &mut StdRng) -> CMat {
    let mut m = random_hermitian(n, rng);
    let (i, j) = (
        rng.gen_range(0..n as u64) as usize,
        rng.gen_range(0..n as u64) as usize,
    );
    let d = m.as_mut_slice();
    d[i * n + j] = C64::new(f64::NAN, 0.0);
    m
}

// ------------------------------------------------------------------
// Bitwise assertions.
// ------------------------------------------------------------------

fn assert_bitwise_eq(opt: &EigH, reference: &EigH, what: &str) {
    assert_eq!(opt.values.len(), reference.values.len(), "{what}: dim");
    for (k, (a, b)) in opt.values.iter().zip(reference.values.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: value[{k}] {a:e} != {b:e}"
        );
    }
    for (k, (a, b)) in opt
        .vectors
        .as_slice()
        .iter()
        .zip(reference.vectors.as_slice().iter())
        .enumerate()
    {
        assert_eq!(
            (a.re.to_bits(), a.im.to_bits()),
            (b.re.to_bits(), b.im.to_bits()),
            "{what}: vector entry {k} ({a:?} != {b:?})"
        );
    }
}

fn check(m: &CMat, what: &str) {
    let reference = naive_eigh(m);
    assert_bitwise_eq(&eigh(m), &reference, what);
    // The explicit-workspace entry point takes the identical path.
    let mut ws = EighWorkspace::new();
    assert_bitwise_eq(&eigh_into(m, &mut ws), &reference, what);
}

#[test]
fn hermitian_family_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x51c1);
    for n in [2usize, 3, 4, 5, 7, 9, 12, 16] {
        for rep in 0..4 {
            let m = random_hermitian(n, &mut rng);
            check(&m, &format!("hermitian n={n} rep={rep}"));
        }
    }
}

#[test]
fn generic_complex_family_bitwise() {
    // Non-Hermitian input exercises the (A + A†)/2 symmetrization path.
    let mut rng = StdRng::seed_from_u64(0xbead);
    for n in [2usize, 4, 9, 11] {
        for rep in 0..3 {
            let m = random_matrix(n, &mut rng);
            check(&m, &format!("generic n={n} rep={rep}"));
        }
    }
}

#[test]
fn degenerate_spectrum_family_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xdead);
    for n in [3usize, 4, 8, 9] {
        let m = degenerate_spectrum(n, &mut rng);
        check(&m, &format!("degenerate n={n}"));
    }
    // Fully degenerate: scaled identities break ties purely by index.
    for n in [2usize, 9] {
        let m = CMat::identity(n).scale(C64::real(2.5));
        check(&m, &format!("scaled identity n={n}"));
    }
    check(&CMat::zeros(6, 6), "zero matrix");
}

#[test]
fn nan_family_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x7aff);
    for n in [2usize, 5, 9] {
        let m = random_with_nan(n, &mut rng);
        check(&m, &format!("nan n={n}"));
    }
}

#[test]
fn workspace_reuse_is_not_poisoned_by_nan() {
    let mut rng = StdRng::seed_from_u64(0x90a7);
    let bad = random_with_nan(9, &mut rng);
    let clean = random_hermitian(9, &mut rng);

    let mut fresh = EighWorkspace::new();
    let expect = eigh_into(&clean, &mut fresh);

    let mut reused = EighWorkspace::new();
    let _ = eigh_into(&bad, &mut reused); // leaves NaNs in every buffer
    let got = eigh_into(&clean, &mut reused);
    assert_bitwise_eq(&got, &expect, "post-NaN workspace reuse");

    // And the thread-local path recovers identically.
    let _ = eigh(&bad);
    assert_bitwise_eq(&eigh(&clean), &expect, "post-NaN thread-local reuse");
}

// ------------------------------------------------------------------
// Exact counter contracts (bench-compare gate inputs).
// ------------------------------------------------------------------

#[test]
fn eigh_counters_output_only_and_deterministic() {
    let mut rng = StdRng::seed_from_u64(0x33);
    let m = random_hermitian(9, &mut rng);
    let (_, cold) = counters::counted(|| eigh(&m));
    // Steady-state allocation contract: the output `vectors` matrix only
    // (workspace buffers are reused scratch and never tallied).
    assert_eq!(cold.allocs, 1, "eigh allocates exactly the output");
    assert!(cold.flops > 0, "rotations must tally flops");
    let (_, warm) = counters::counted(|| eigh(&m));
    assert_eq!(cold, warm, "eigh counters must be state-independent");

    // The flop tally (48·n per applied rotation) is identical to the
    // reference trajectory: same rotations, same order.
    let mut ws = EighWorkspace::new();
    let (_, explicit) = counters::counted(|| eigh_into(&m, &mut ws));
    assert_eq!(explicit, warm, "eigh_into tallies match eigh");
}
