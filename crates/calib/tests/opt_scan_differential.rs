//! Differential test of the lane-parallel DigiQ_opt delay scan against
//! the scalar scan it replaced.
//!
//! `decompose_opt_with` evaluates every candidate with the same f64
//! operation order as the scalar scan below (only the loop structure and
//! the table layout differ), so the winning delay tuple, its error and its
//! boundary residual must agree to the bit — ties, early exits, tiny
//! lattices with fewer than 96 L=2 stems and NaN bases included.

use calib::opt_decomp::{decompose_opt, OptBasis, OptDecomposition};
use qsim::complex::C64;
use qsim::gates;
use qsim::matrix::CMat;
use qsim::rng::StdRng;
use std::f64::consts::PI;

/// The scalar scan as it stood before the lane-parallel rewrite: AoS
/// delay tables, per-candidate `(a, b)` tracking and a fully sorted
/// `order2` stem list.
mod reference {
    use super::*;

    fn mul2(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
        [
            a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
        ]
    }

    fn col_scale2(a: &[C64; 4], z0: C64, z1: C64) -> [C64; 4] {
        [a[0] * z0, a[1] * z1, a[2] * z0, a[3] * z1]
    }

    fn fid_free_out2(m: &[C64; 4], td: &[C64; 4]) -> (f64, C64, C64) {
        let a = m[0] * td[0] + m[1] * td[2];
        let b = m[2] * td[1] + m[3] * td[3];
        let overlap = a.abs2().sqrt() + b.abs2().sqrt();
        let mm = m[0].abs2() + m[1].abs2() + m[2].abs2() + m[3].abs2();
        let fid = ((mm + overlap * overlap) / 6.0).clamp(0.0, 1.0);
        (fid, a, b)
    }

    pub fn decompose(
        basis: &OptBasis,
        target: &CMat,
        phi_in: f64,
        max_cycles: usize,
        err_target: f64,
    ) -> OptDecomposition {
        let g = [
            basis.ubs[(0, 0)],
            basis.ubs[(0, 1)],
            basis.ubs[(1, 0)],
            basis.ubs[(1, 1)],
        ];
        let thetas: Vec<f64> = (0..=basis.n_delays).map(|d| basis.theta(d)).collect();
        let gz: Vec<[C64; 4]> = thetas
            .iter()
            .map(|&th| col_scale2(&g, C64::cis(-th / 2.0), C64::cis(th / 2.0)))
            .collect();
        let w: Vec<[C64; 4]> = gz.iter().map(|gzd| mul2(gzd, &g)).collect();

        let n = basis.n_delays;
        let td = [
            target[(0, 0)].conj(),
            target[(1, 0)].conj(),
            target[(0, 1)].conj(),
            target[(1, 1)].conj(),
        ];
        let zin: Vec<(C64, C64)> = thetas
            .iter()
            .map(|&th| {
                let z = th + phi_in;
                (C64::cis(-z / 2.0), C64::cis(z / 2.0))
            })
            .collect();

        let mut best_delays = ([0u16; 3], 1u8);
        let mut best_ab = (C64::ONE, C64::ONE);
        let mut best_err = f64::INFINITY;

        for (d0, &(z0, z1)) in zin.iter().enumerate() {
            let m = col_scale2(&g, z0, z1);
            let (fid, a, b) = fid_free_out2(&m, &td);
            let err = 1.0 - fid;
            if err < best_err {
                best_delays = ([d0 as u16, 0, 0], 1);
                best_ab = (a, b);
                best_err = err;
            }
        }
        let finish = |delays: ([u16; 3], u8), (a, b): (C64, C64), error: f64| OptDecomposition {
            delays: delays.0[..delays.1 as usize].to_vec(),
            phi_in_used: phi_in,
            phi_out: a.arg() - b.arg(),
            error,
        };
        if best_err <= err_target || max_cycles == 1 {
            return finish(best_delays, best_ab, best_err);
        }

        let mut order2: Vec<(usize, usize, f64)> = Vec::new();
        for (d1, wm) in w.iter().enumerate() {
            for (d0, &(z0, z1)) in zin.iter().enumerate() {
                let m = col_scale2(wm, z0, z1);
                let (fid, a, b) = fid_free_out2(&m, &td);
                let err = 1.0 - fid;
                if err < best_err {
                    best_delays = ([d0 as u16, d1 as u16, 0], 2);
                    best_ab = (a, b);
                    best_err = err;
                }
                if max_cycles >= 3 {
                    order2.push((d0, d1, err));
                }
            }
        }
        if best_err <= err_target || max_cycles == 2 {
            return finish(best_delays, best_ab, best_err);
        }

        order2.sort_by(|a, b| a.2.total_cmp(&b.2));
        order2.truncate(96);
        for d0 in (0..=n).step_by(8) {
            for d1 in (0..=n).step_by(8) {
                order2.push((d0, d1, f64::NAN));
            }
        }
        for &(d0, d1, _) in &order2 {
            let (z0, z1) = zin[d0];
            let stem = col_scale2(&w[d1], z0, z1);
            for (d2, gzd) in gz.iter().enumerate() {
                let m = mul2(gzd, &stem);
                let (fid, a, b) = fid_free_out2(&m, &td);
                let err = 1.0 - fid;
                if err < best_err {
                    best_delays = ([d0 as u16, d1 as u16, d2 as u16], 3);
                    best_ab = (a, b);
                    best_err = err;
                }
            }
            if best_err <= err_target {
                break;
            }
        }
        if best_delays.1 == 3 {
            let mut improved = true;
            while improved {
                improved = false;
                for pos in 0..3 {
                    let center = best_delays.0[pos] as i64;
                    for delta in -4i64..=4 {
                        let cand = center + delta;
                        if cand < 0 || cand as usize > n || cand == center {
                            continue;
                        }
                        let mut delays = best_delays.0;
                        delays[pos] = cand as u16;
                        let (z0, z1) = zin[delays[0] as usize];
                        let mut m = col_scale2(&g, z0, z1);
                        for &d in &delays[1..] {
                            m = mul2(&gz[d as usize], &m);
                        }
                        let (fid, a, b) = fid_free_out2(&m, &td);
                        let err = 1.0 - fid;
                        if err < best_err {
                            best_delays = (delays, 3);
                            best_ab = (a, b);
                            best_err = err;
                            improved = true;
                        }
                    }
                }
            }
        }
        finish(best_delays, best_ab, best_err)
    }
}

/// A drifted, slightly leaky basis: `s·Rz(a)·Ry(π/2 + b)·Rz(c)` with a
/// seeded delay phase per tick.
fn drifted(rng: &mut StdRng, n_delays: usize) -> OptBasis {
    let a = rng.gen_range(-0.3..0.3);
    let b = rng.gen_range(-0.1..0.1);
    let c = rng.gen_range(-0.3..0.3);
    let leak = 1.0 - rng.gen_range(0.0..0.01);
    OptBasis {
        ubs: gates::rz(a)
            .matmul(&gates::ry(PI / 2.0 + b))
            .matmul(&gates::rz(c))
            .scale(C64::real(leak)),
        phase_per_tick: 2.0 * PI * rng.gen::<f64>(),
        n_delays,
    }
}

fn targets(rng: &mut StdRng) -> Vec<(String, CMat)> {
    let mut out = vec![
        ("H".to_string(), gates::h()),
        ("X".to_string(), gates::x()),
        ("S".to_string(), gates::s()),
        ("T".to_string(), gates::t()),
    ];
    for i in 0..2 {
        let (th, ph, la) = (
            rng.gen_range(0.0..PI),
            rng.gen_range(-PI..PI),
            rng.gen_range(-PI..PI),
        );
        out.push((format!("U{i}"), gates::u_zyz(th, ph, la)));
    }
    out
}

fn assert_same(got: &OptDecomposition, want: &OptDecomposition, case: &str) {
    assert_eq!(got.delays, want.delays, "{case}: delays");
    assert_eq!(
        got.error.to_bits(),
        want.error.to_bits(),
        "{case}: error {:e} vs {:e}",
        got.error,
        want.error
    );
    assert_eq!(
        got.phi_out.to_bits(),
        want.phi_out.to_bits(),
        "{case}: phi_out {} vs {}",
        got.phi_out,
        want.phi_out
    );
    assert_eq!(
        got.phi_in_used.to_bits(),
        want.phi_in_used.to_bits(),
        "{case}: phi_in_used"
    );
}

/// Runs every `(target, φ_in, max_cycles, err_target)` combination on one
/// basis through both scans.
fn sweep(basis: &OptBasis, label: &str, rng: &mut StdRng, max_l3: usize) {
    let targets = targets(rng);
    let phis = [0.0, rng.gen_range(-PI..PI)];
    let mut full_l3 = 0;
    for (name, target) in &targets {
        for &phi_in in &phis {
            for max_cycles in 1..=3 {
                for err_target in [0.0, 1e-4, 1e-3] {
                    // Full L=3 scans on the 256-point lattice dominate the
                    // runtime; cap how many run per basis.
                    if max_cycles == 3 && basis.n_delays > 64 {
                        if full_l3 == max_l3 {
                            continue;
                        }
                        full_l3 += 1;
                    }
                    let case =
                        format!("{label} {name} phi_in={phi_in} L<={max_cycles} et={err_target}");
                    let got = decompose_opt(target, basis, phi_in, max_cycles, err_target);
                    let want = reference::decompose(basis, target, phi_in, max_cycles, err_target);
                    assert_same(&got, &want, &case);
                }
            }
        }
    }
}

#[test]
fn drifted_bases_match_the_scalar_scan() {
    let mut rng = StdRng::seed_from_u64(0x0D1F_F5CA);
    for n_delays in [7, 31, 255] {
        for rep in 0..2 {
            let basis = drifted(&mut rng, n_delays);
            sweep(&basis, &format!("drifted n={n_delays} #{rep}"), &mut rng, 6);
        }
    }
}

#[test]
fn ideal_basis_ties_match_the_scalar_scan() {
    // The ideal lattice is symmetric: many candidates tie exactly, so
    // this pins the strict-`<` first-wins order of every stage.
    let mut rng = StdRng::seed_from_u64(0x1DEA_1000);
    for n_delays in [7, 255] {
        sweep(
            &OptBasis::ideal(n_delays),
            &format!("ideal n={n_delays}"),
            &mut rng,
            6,
        );
    }
}

#[test]
fn near_pi_l3_full_scan_matches_the_scalar_scan() {
    // The `near_pi_rotations_benefit_from_l3` basis: X at err_target 0
    // runs every stem and the refinement.
    let basis = OptBasis {
        ubs: gates::rz(0.21)
            .matmul(&gates::ry(PI / 2.0 + 0.07))
            .matmul(&gates::rz(-0.13)),
        phase_per_tick: 2.0 * PI * 0.2487,
        n_delays: 255,
    };
    let got = decompose_opt(&gates::x(), &basis, 0.0, 3, 0.0);
    let want = reference::decompose(&basis, &gates::x(), 0.0, 3, 0.0);
    assert_eq!(got.cycles(), 3);
    assert_same(&got, &want, "near-pi X");
}

#[test]
fn nan_basis_matches_the_scalar_scan_without_panicking() {
    let mut rng = StdRng::seed_from_u64(0x0BAD_F00D);
    let mut one_entry = drifted(&mut rng, 31);
    one_entry.ubs[(0, 1)] = C64::new(f64::NAN, 0.0);
    sweep(&one_entry, "NaN ubs entry", &mut rng, 0);
    let mut phase = drifted(&mut rng, 31);
    phase.phase_per_tick = f64::NAN;
    sweep(&phase, "NaN phase_per_tick", &mut rng, 0);
}
