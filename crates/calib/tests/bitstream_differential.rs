//! Differential suite for `calib::bitstream::find_bitstream`.
//!
//! The reference is the search as it was before the column kernel: a
//! dense per-tick `matmul_into` evolution for every fitness call, the GA
//! re-scoring its elites every generation, a `PrePost` phase scan that
//! evaluates `cis` at every coarse point, and a polish that scores every
//! flipped stream from scratch. `find_bitstream` must return the same
//! bits and a bit-identical fidelity for both parking frequencies plus a
//! drifted one, both tip angles, Ry(π/2) with and without z freedom and
//! T, at lengths 120, 225 and 253.

use calib::bitstream::{comb_seed, find_bitstream, rz_seed, SearchConfig, ZFreedom};
use qsim::complex::C64;
use qsim::expm::expm_hermitian_propagator;
use qsim::matrix::CMat;
use qsim::optimize::GaConfig;
use qsim::pulse::{SfqParams, SfqPulseSim};
use qsim::rng::StdRng;
use qsim::transmon::Transmon;
use std::f64::consts::PI;

/// The dense per-tick evolution: `F` and `F·K` as dense matrices, one
/// `matmul_into` per tick, then `R(L·T)†.matmul(U_lab)`.
struct DenseSim {
    free: CMat,
    free_kick: CMat,
    frame_dagger: CMat,
}

impl DenseSim {
    fn new(t: Transmon, p: SfqParams, len: usize) -> Self {
        let free = t.free_propagator(p.clock_period_ns);
        let kick = expm_hermitian_propagator(&t.drive_y(), p.delta_theta / 2.0);
        let r = t.frame_propagator(t.frequency_ghz, len as f64 * p.clock_period_ns);
        DenseSim {
            free_kick: free.matmul(&kick),
            free,
            frame_dagger: r.dagger(),
        }
    }

    fn frame_gate_qubit(&self, bits: &[bool]) -> CMat {
        let n = self.free.rows();
        let mut u = CMat::identity(n);
        let mut tmp = CMat::zeros(n, n);
        for &b in bits {
            let step = if b { &self.free_kick } else { &self.free };
            step.matmul_into(&u, &mut tmp);
            std::mem::swap(&mut u, &mut tmp);
        }
        self.frame_dagger.matmul(&u).top_left_block(2)
    }
}

/// The fidelity with `cis` evaluated at every coarse-scan point.
fn reference_fidelity(m: &CMat, v: &CMat, freedom: ZFreedom) -> f64 {
    let mm = m.dagger().matmul(m).trace().re;
    let overlap2 = match freedom {
        ZFreedom::None => v.dagger().matmul(m).trace().abs2(),
        ZFreedom::PrePost => {
            let vd = v.dagger();
            let best_at = |a: f64| -> f64 {
                let d0 = C64::cis(a / 2.0);
                let d1 = C64::cis(-a / 2.0);
                let x00 = vd[(0, 0)] * d0 * m[(0, 0)] + vd[(0, 1)] * d1 * m[(1, 0)];
                let x11 = vd[(1, 0)] * d0 * m[(0, 1)] + vd[(1, 1)] * d1 * m[(1, 1)];
                x00.abs() + x11.abs()
            };
            let mut best = 0.0f64;
            let mut best_a = 0.0f64;
            for k in 0..256 {
                let a = k as f64 / 256.0 * 4.0 * PI;
                let s = best_at(a);
                if s > best {
                    best = s;
                    best_a = a;
                }
            }
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

/// The GA that re-scores every individual, elites included, each
/// generation.
fn reference_ga(
    fitness: impl Fn(&[bool]) -> f64,
    len: usize,
    seeds: &[Vec<bool>],
    cfg: GaConfig,
) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut population: Vec<Vec<bool>> = seeds.iter().take(cfg.population).cloned().collect();
    while population.len() < cfg.population {
        if !seeds.is_empty() && population.len() < cfg.population / 2 {
            let mut ind = seeds[population.len() % seeds.len()].clone();
            for b in ind.iter_mut() {
                if rng.gen::<f64>() < 0.05 {
                    *b = !*b;
                }
            }
            population.push(ind);
        } else {
            population.push((0..len).map(|_| rng.gen::<bool>()).collect());
        }
    }
    let mut scores: Vec<f64> = population.iter().map(|p| fitness(p)).collect();
    let mut best_idx = 0;
    for gen in 0..cfg.generations {
        for (i, &s) in scores.iter().enumerate() {
            if s > scores[best_idx] {
                best_idx = i;
            }
        }
        if gen + 1 == cfg.generations {
            break;
        }
        let mut order: Vec<usize> = (0..cfg.population).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        let mut next: Vec<Vec<bool>> = order
            .iter()
            .take(cfg.elitism)
            .map(|&i| population[i].clone())
            .collect();
        let pick = |rng: &mut StdRng, scores: &[f64]| -> usize {
            let mut best = rng.gen_range(0..cfg.population);
            for _ in 1..cfg.tournament {
                let c = rng.gen_range(0..cfg.population);
                if scores[c] > scores[best] {
                    best = c;
                }
            }
            best
        };
        while next.len() < cfg.population {
            let p1 = pick(&mut rng, &scores);
            let p2 = pick(&mut rng, &scores);
            let mut child: Vec<bool> = (0..len)
                .map(|j| {
                    if rng.gen::<bool>() {
                        population[p1][j]
                    } else {
                        population[p2][j]
                    }
                })
                .collect();
            for b in child.iter_mut() {
                if rng.gen::<f64>() < cfg.mutation_rate {
                    *b = !*b;
                }
            }
            next.push(child);
        }
        population = next;
        scores = population.iter().map(|p| fitness(p)).collect();
        best_idx = 0;
    }
    for (i, &s) in scores.iter().enumerate() {
        if s > scores[best_idx] {
            best_idx = i;
        }
    }
    population[best_idx].clone()
}

/// The search with every evaluation done from scratch.
fn reference_search(
    t: Transmon,
    p: SfqParams,
    target: &CMat,
    freedom: ZFreedom,
    cfg: &SearchConfig,
) -> (Vec<bool>, f64) {
    let sim = SfqPulseSim::new(t, p);
    let (theta, phi_t, lam_t, _) = qsim::gates::zyz_angles(target);
    let pulses = ((theta / p.delta_theta).round() as usize).max(1);
    let ticks_per_period = 1.0 / (t.frequency_ghz * p.clock_period_ns);
    let mut seeds: Vec<Vec<bool>> = (0..(ticks_per_period.ceil() as usize + 1))
        .map(|start| comb_seed(&sim, cfg.length, start, pulses))
        .collect();
    if theta < 0.3 {
        seeds.push(rz_seed(&sim, cfg.length, phi_t + lam_t));
        seeds.push(vec![false; cfg.length]);
    }
    let dense = DenseSim::new(t, p, cfg.length);
    let fitness =
        |bits: &[bool]| reference_fidelity(&dense.frame_gate_qubit(bits), target, freedom);
    let mut bits = reference_ga(fitness, cfg.length, &seeds, cfg.ga);
    let mut best_f = fitness(&bits);
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..bits.len() {
            bits[i] = !bits[i];
            let f = fitness(&bits);
            if f > best_f {
                best_f = f;
                improved = true;
            } else {
                bits[i] = !bits[i];
            }
        }
    }
    (bits, best_f)
}

#[test]
fn find_bitstream_matches_the_from_scratch_search() {
    let opt = SfqParams::default();
    let min = SfqParams {
        delta_theta: (PI / 2.0) / 16.0,
        ..SfqParams::default()
    };
    let ry = qsim::gates::ry(PI / 2.0);
    let t = qsim::gates::t();
    let ga = GaConfig {
        population: 8,
        generations: 5,
        ..GaConfig::default()
    };
    let (high, low, drifted) = (6.21286, 4.14238, 6.21286 + 0.0137);
    // Every frequency, tip angle, target and length, and each target with
    // both tip angles, including `calibrate_shared`'s opt Ry/PrePost
    // searches at 253 and 225 ticks. T with the opt tip angle cannot fit
    // the register and polishes for many sweeps at full length, so it runs
    // at 120 ticks only (the debug run stays near 2 s).
    let cases = [
        (high, opt, &ry, ZFreedom::PrePost, 253),
        (high, opt, &ry, ZFreedom::PrePost, 120),
        (high, min, &ry, ZFreedom::PrePost, 225),
        (high, min, &ry, ZFreedom::None, 253),
        (high, min, &t, ZFreedom::None, 120),
        (low, opt, &ry, ZFreedom::PrePost, 225),
        (low, opt, &ry, ZFreedom::None, 120),
        (low, min, &ry, ZFreedom::PrePost, 120),
        (low, min, &ry, ZFreedom::None, 225),
        (drifted, opt, &ry, ZFreedom::None, 253),
        (drifted, opt, &t, ZFreedom::None, 120),
        (drifted, min, &ry, ZFreedom::PrePost, 253),
        (drifted, min, &t, ZFreedom::None, 225),
        (drifted, min, &ry, ZFreedom::None, 120),
    ];
    for (freq, params, target, freedom, length) in cases {
        let cfg = SearchConfig { length, ga };
        let got = find_bitstream(Transmon::new(freq), params, target, freedom, &cfg);
        let (bits, fidelity) = reference_search(Transmon::new(freq), params, target, freedom, &cfg);
        let what = format!(
            "{freedom:?} search at {freq} GHz, δθ {}, length {length}",
            params.delta_theta
        );
        assert_eq!(got.bits, bits, "{what}: bits");
        assert_eq!(
            got.fidelity.to_bits(),
            fidelity.to_bits(),
            "{what}: fidelity"
        );
        assert_eq!(
            got.error.to_bits(),
            (1.0 - fidelity).to_bits(),
            "{what}: error"
        );
    }
}
