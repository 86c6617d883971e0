//! Derivative-free optimizers used by the calibration layer.
//!
//! Three tools cover all the numerical search in the paper:
//!
//! * [`nelder_mead`] — local simplex descent over continuous parameters
//!   (interleaved single-qubit gates in the CZ echo sequences, §V-B);
//! * [`differential_evolution`] — global search with box bounds (pulse
//!   calibration);
//! * [`ga_bitstring`] — a genetic algorithm over fixed-length bitstrings
//!   (SFQ bitstream discovery, the approach of refs [13] and [35]).
//!
//! All optimizers are deterministic given a seed. A NaN objective never
//! panics: it ranks worst, and every pair of numbers keeps its
//! `partial_cmp` order (so `−0` and `+0` tie, as before).
//!
//! # Examples
//!
//! ```
//! use qsim::optimize::nelder_mead;
//!
//! let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
//! let r = nelder_mead(sphere, &[1.0, -2.0], 0.5, 500, 1e-12);
//! assert!(r.value < 1e-8);
//! ```

use crate::rng::StdRng;
use std::cmp::Ordering;

/// Orders two objective values best first: `partial_cmp` between numbers
/// (ascending when minimizing, descending when maximizing) and NaN after
/// every number. `f64::total_cmp` would instead split `−0` from `+0` and
/// move ties.
fn rank(a: f64, b: f64, minimize: bool) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => {
            let ord = a.partial_cmp(&b).expect("numbers are ordered");
            if minimize {
                ord
            } else {
                ord.reverse()
            }
        }
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// True when `a` strictly beats `b` under [`rank`].
fn beats(a: f64, b: f64, minimize: bool) -> bool {
    rank(a, b, minimize) == Ordering::Less
}

/// Result of a continuous optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct OptResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
}

/// Minimizes `f` with the Nelder–Mead simplex method starting at `x0`.
///
/// `step` sets the initial simplex size, `max_iter` bounds the number of
/// iterations, and the search stops early when the simplex's value spread
/// falls below `tol`.
///
/// # Panics
///
/// Panics if `x0` is empty.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    step: f64,
    max_iter: usize,
    tol: f64,
) -> OptResult {
    assert!(
        !x0.is_empty(),
        "nelder_mead requires at least one parameter"
    );
    let n = x0.len();
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    let mut evals = 0usize;

    // Initial simplex: x0 plus n perturbed points.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut p = x0.to_vec();
        p[i] += step;
        simplex.push(p);
    }
    let mut values: Vec<f64> = simplex
        .iter()
        .map(|p| {
            evals += 1;
            f(p)
        })
        .collect();

    for _ in 0..max_iter {
        // Sort simplex by value.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| rank(values[a], values[b], true));
        let simplex_sorted: Vec<Vec<f64>> = order.iter().map(|&i| simplex[i].clone()).collect();
        let values_sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        simplex = simplex_sorted;
        values = values_sorted;

        if (values[n] - values[0]).abs() < tol {
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for p in simplex.iter().take(n) {
            for (c, v) in centroid.iter_mut().zip(p.iter()) {
                *c += v / n as f64;
            }
        }

        let worst = simplex[n].clone();
        let reflect: Vec<f64> = centroid
            .iter()
            .zip(worst.iter())
            .map(|(c, w)| c + alpha * (c - w))
            .collect();
        evals += 1;
        let fr = f(&reflect);

        if fr < values[0] {
            // Try expansion.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(worst.iter())
                .map(|(c, w)| c + gamma * (c - w))
                .collect();
            evals += 1;
            let fe = f(&expand);
            if fe < fr {
                simplex[n] = expand;
                values[n] = fe;
            } else {
                simplex[n] = reflect;
                values[n] = fr;
            }
        } else if fr < values[n - 1] {
            simplex[n] = reflect;
            values[n] = fr;
        } else {
            // Contraction.
            let contract: Vec<f64> = centroid
                .iter()
                .zip(worst.iter())
                .map(|(c, w)| c + rho * (w - c))
                .collect();
            evals += 1;
            let fc = f(&contract);
            if fc < values[n] {
                simplex[n] = contract;
                values[n] = fc;
            } else {
                // Shrink towards the best point.
                let best = simplex[0].clone();
                for i in 1..=n {
                    for j in 0..n {
                        simplex[i][j] = best[j] + sigma * (simplex[i][j] - best[j]);
                    }
                    evals += 1;
                    values[i] = f(&simplex[i]);
                }
            }
        }
    }

    let mut best = 0;
    for i in 1..=n {
        if beats(values[i], values[best], true) {
            best = i;
        }
    }
    OptResult {
        x: simplex[best].clone(),
        value: values[best],
        evals,
    }
}

/// Runs [`nelder_mead`] from several random starting points inside box
/// `bounds` and keeps the best result. A pragmatic global strategy for the
/// low-dimensional, multi-modal landscapes of gate calibration.
///
/// # Panics
///
/// Panics if `bounds` is empty or any bound is inverted.
pub fn multistart_nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    bounds: &[(f64, f64)],
    starts: usize,
    max_iter: usize,
    seed: u64,
) -> OptResult {
    assert!(!bounds.is_empty());
    for &(lo, hi) in bounds {
        assert!(lo <= hi, "inverted bound");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: Option<OptResult> = None;
    let mut total_evals = 0usize;
    for s in 0..starts.max(1) {
        let x0: Vec<f64> = if s == 0 {
            bounds.iter().map(|&(lo, hi)| 0.5 * (lo + hi)).collect()
        } else {
            bounds
                .iter()
                .map(|&(lo, hi)| rng.gen_range(lo..=hi))
                .collect()
        };
        let span = bounds
            .iter()
            .map(|&(lo, hi)| hi - lo)
            .fold(f64::INFINITY, f64::min)
            .max(1e-6);
        let r = nelder_mead(&mut f, &x0, span * 0.25, max_iter, 1e-14);
        total_evals += r.evals;
        if best.as_ref().is_none_or(|b| beats(r.value, b.value, true)) {
            best = Some(r);
        }
    }
    let mut out = best.expect("at least one start");
    out.evals = total_evals;
    out
}

/// Minimizes `f` over a box with differential evolution (rand/1/bin).
///
/// # Panics
///
/// Panics if `bounds` is empty, any bound is inverted, or `pop < 4`.
pub fn differential_evolution(
    mut f: impl FnMut(&[f64]) -> f64,
    bounds: &[(f64, f64)],
    pop: usize,
    generations: usize,
    seed: u64,
) -> OptResult {
    assert!(!bounds.is_empty());
    assert!(pop >= 4, "differential evolution needs population >= 4");
    for &(lo, hi) in bounds {
        assert!(lo <= hi, "inverted bound");
    }
    let n = bounds.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let (cr, fw) = (0.9, 0.7);
    let mut evals = 0usize;

    let mut population: Vec<Vec<f64>> = (0..pop)
        .map(|_| {
            bounds
                .iter()
                .map(|&(lo, hi)| rng.gen_range(lo..=hi))
                .collect()
        })
        .collect();
    let mut values: Vec<f64> = population
        .iter()
        .map(|p| {
            evals += 1;
            f(p)
        })
        .collect();

    for _ in 0..generations {
        for i in 0..pop {
            // Pick three distinct partners.
            let (mut a, mut b, mut c);
            loop {
                a = rng.gen_range(0..pop);
                b = rng.gen_range(0..pop);
                c = rng.gen_range(0..pop);
                if a != b && b != c && a != c && a != i && b != i && c != i {
                    break;
                }
            }
            let jrand = rng.gen_range(0..n);
            let mut trial = population[i].clone();
            for j in 0..n {
                if rng.gen::<f64>() < cr || j == jrand {
                    let v = population[a][j] + fw * (population[b][j] - population[c][j]);
                    trial[j] = v.clamp(bounds[j].0, bounds[j].1);
                }
            }
            evals += 1;
            let fv = f(&trial);
            if !beats(values[i], fv, true) {
                population[i] = trial;
                values[i] = fv;
            }
        }
    }

    let best = values
        .iter()
        .enumerate()
        .min_by(|a, b| rank(*a.1, *b.1, true))
        .map(|(i, _)| i)
        .unwrap();
    OptResult {
        x: population[best].clone(),
        value: values[best],
        evals,
    }
}

/// Result of a bitstring genetic search.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// Best bitstring found.
    pub bits: Vec<bool>,
    /// Fitness of the best bitstring (higher is better).
    pub fitness: f64,
    /// Generations actually run.
    pub generations: usize,
}

/// Configuration for [`ga_bitstring`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size (≥ 4).
    pub population: usize,
    /// Maximum generations.
    pub generations: usize,
    /// Per-bit mutation probability.
    pub mutation_rate: f64,
    /// Number of elite individuals copied unchanged.
    pub elitism: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 48,
            generations: 120,
            mutation_rate: 0.01,
            elitism: 4,
            tournament: 3,
            seed: 0xD161_0001,
        }
    }
}

/// Maximizes `fitness` over `{0,1}^len` with a seeded genetic algorithm
/// (tournament selection, uniform crossover, bit-flip mutation, elitism).
///
/// `seeds` provides optional initial individuals (e.g. the resonant comb of
/// [`crate::pulse::SfqPulseSim::resonant_comb`]); the rest of the population
/// is random. This mirrors the genetic bitstream search of the paper's
/// ref [13].
///
/// `fitness` must be a pure function of the bits: elites carried into the
/// next generation unchanged keep their scores instead of being re-scored.
/// A NaN fitness ranks below every number.
///
/// # Panics
///
/// Panics if `len == 0`, `cfg.population < 4`, or any seed has the wrong
/// length.
pub fn ga_bitstring(
    mut fitness: impl FnMut(&[bool]) -> f64,
    len: usize,
    seeds: &[Vec<bool>],
    cfg: GaConfig,
) -> GaResult {
    assert!(len > 0, "bitstring length must be positive");
    assert!(cfg.population >= 4, "population too small");
    for s in seeds {
        assert_eq!(s.len(), len, "seed length mismatch");
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut population: Vec<Vec<bool>> = Vec::with_capacity(cfg.population);
    for s in seeds.iter().take(cfg.population) {
        population.push(s.clone());
    }
    while population.len() < cfg.population {
        // Mutated copies of seeds (if any) plus pure random fill.
        if !seeds.is_empty() && population.len() < cfg.population / 2 {
            let base = &seeds[population.len() % seeds.len()];
            let mut ind = base.clone();
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

    for _ in 1..cfg.generations {
        let mut order: Vec<usize> = (0..cfg.population).collect();
        order.sort_by(|&a, &b| rank(scores[a], scores[b], false));

        let elites = &order[..cfg.elitism.min(cfg.population)];
        let mut next: Vec<Vec<bool>> = elites.iter().map(|&i| population[i].clone()).collect();
        let mut next_scores: Vec<f64> = elites.iter().map(|&i| scores[i]).collect();

        let tournament_pick = |rng: &mut StdRng, scores: &[f64]| -> usize {
            let mut best = rng.gen_range(0..cfg.population);
            for _ in 1..cfg.tournament {
                let c = rng.gen_range(0..cfg.population);
                if beats(scores[c], scores[best], false) {
                    best = c;
                }
            }
            best
        };

        while next.len() < cfg.population {
            let p1 = tournament_pick(&mut rng, &scores);
            let p2 = tournament_pick(&mut rng, &scores);
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
            next_scores.push(fitness(&child));
            next.push(child);
        }
        population = next;
        scores = next_scores;
    }

    let mut best_idx = 0;
    for (i, &s) in scores.iter().enumerate() {
        if beats(s, scores[best_idx], false) {
            best_idx = i;
        }
    }
    GaResult {
        bits: population[best_idx].clone(),
        fitness: scores[best_idx],
        generations: cfg.generations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_minimizes_sphere() {
        let r = nelder_mead(
            |x| x.iter().map(|v| v * v).sum(),
            &[2.0, -3.0, 1.0],
            0.5,
            1000,
            1e-14,
        );
        assert!(r.value < 1e-10, "value = {}", r.value);
        for v in &r.x {
            assert!(v.abs() < 1e-4);
        }
    }

    #[test]
    fn nelder_mead_rosenbrock_2d() {
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = nelder_mead(rosen, &[-1.0, 1.0], 0.5, 5000, 1e-16);
        assert!(r.value < 1e-8, "value = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn multistart_escapes_local_minimum() {
        // Rastrigin-lite in 2D: many local minima, global at origin.
        let f = |x: &[f64]| {
            x.iter()
                .map(|v| v * v - 2.0 * (5.0 * v).cos() + 2.0)
                .sum::<f64>()
        };
        let r = multistart_nelder_mead(f, &[(-3.0, 3.0), (-3.0, 3.0)], 12, 400, 7);
        assert!(r.value < 0.2, "value = {}", r.value);
    }

    #[test]
    fn de_finds_global_minimum_of_shifted_sphere() {
        let f = |x: &[f64]| (x[0] - 0.7).powi(2) + (x[1] + 0.3).powi(2) + 1.5;
        let r = differential_evolution(f, &[(-2.0, 2.0), (-2.0, 2.0)], 20, 80, 42);
        assert!((r.value - 1.5).abs() < 1e-4);
        assert!((r.x[0] - 0.7).abs() < 1e-2);
        assert!((r.x[1] + 0.3).abs() < 1e-2);
    }

    #[test]
    fn de_is_deterministic_given_seed() {
        let f = |x: &[f64]| x[0].powi(2);
        let a = differential_evolution(f, &[(-1.0, 1.0)], 8, 20, 5);
        let b = differential_evolution(f, &[(-1.0, 1.0)], 8, 20, 5);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn ga_maximizes_ones_count() {
        let r = ga_bitstring(
            |b| b.iter().filter(|&&x| x).count() as f64,
            48,
            &[],
            GaConfig {
                generations: 80,
                ..GaConfig::default()
            },
        );
        assert!(r.fitness >= 44.0, "fitness = {}", r.fitness);
    }

    #[test]
    fn ga_uses_seed_individuals() {
        // Fitness rewards matching a secret pattern; seeding with the
        // pattern itself must yield a perfect score immediately.
        let secret: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let sc = secret.clone();
        let r = ga_bitstring(
            move |b| b.iter().zip(sc.iter()).filter(|(x, y)| x == y).count() as f64,
            32,
            std::slice::from_ref(&secret),
            GaConfig {
                generations: 2,
                ..GaConfig::default()
            },
        );
        assert_eq!(r.fitness, 32.0);
    }

    #[test]
    fn ga_deterministic_given_seed() {
        let f = |b: &[bool]| b.iter().filter(|&&x| x).count() as f64;
        let a = ga_bitstring(f, 16, &[], GaConfig::default());
        let b = ga_bitstring(f, 16, &[], GaConfig::default());
        assert_eq!(a.bits, b.bits);
    }

    #[test]
    fn rank_puts_nan_last_and_keeps_signed_zero_ties() {
        assert_eq!(rank(-0.0, 0.0, true), Ordering::Equal);
        assert_eq!(rank(0.0, -0.0, false), Ordering::Equal);
        assert_eq!(rank(1.0, 2.0, true), Ordering::Less);
        assert_eq!(rank(1.0, 2.0, false), Ordering::Greater);
        for minimize in [true, false] {
            assert_eq!(rank(f64::NAN, -1e300, minimize), Ordering::Greater);
            assert_eq!(rank(f64::INFINITY, f64::NAN, minimize), Ordering::Less);
            assert_eq!(rank(f64::NAN, f64::NAN, minimize), Ordering::Equal);
        }
    }

    #[test]
    fn nelder_mead_ranks_nan_worst() {
        // The first perturbed vertex lands in the NaN region.
        let f = |x: &[f64]| {
            if x[0] > 1.2 {
                f64::NAN
            } else {
                x.iter().map(|v| v * v).sum()
            }
        };
        let r = nelder_mead(f, &[1.0, 1.0], 0.5, 500, 1e-12);
        assert!(r.value < 1e-6, "value = {}", r.value);
        // Even with no iterations, the NaN vertex is never reported.
        let r = nelder_mead(
            |x: &[f64]| if x[0] == 0.0 { f64::NAN } else { x[0] },
            &[0.0],
            1.0,
            0,
            0.0,
        );
        assert_eq!(r.value, 1.0);
    }

    #[test]
    fn multistart_ranks_nan_worst() {
        // The first start (the box midpoint) sees only NaN; a later start
        // must replace it.
        let f = |x: &[f64]| {
            if x[0].abs() < 2.0 {
                f64::NAN
            } else {
                (x[0].abs() - 2.0).powi(2)
            }
        };
        let r = multistart_nelder_mead(f, &[(-3.0, 3.0)], 8, 200, 11);
        assert!(r.value < 1e-6, "value = {}", r.value);
    }

    #[test]
    fn de_ranks_nan_worst() {
        let f = |x: &[f64]| {
            if x[0] > 0.5 {
                f64::NAN
            } else {
                (x[0] + 0.3).powi(2) + x[1].powi(2)
            }
        };
        let r = differential_evolution(f, &[(-2.0, 2.0), (-2.0, 2.0)], 16, 60, 3);
        assert!(r.value < 1e-3, "value = {}", r.value);
    }

    #[test]
    fn ga_ranks_nan_worst() {
        // Individual 0 (the seed) scores NaN; the search must neither
        // panic in its sort nor stick on index 0 when tracking the best.
        let f = |b: &[bool]| {
            if b[0] && b[1] {
                f64::NAN
            } else {
                b.iter().filter(|&&x| x).count() as f64
            }
        };
        let r = ga_bitstring(
            f,
            24,
            &[vec![true; 24]],
            GaConfig {
                generations: 60,
                ..GaConfig::default()
            },
        );
        assert!(r.fitness >= 20.0, "fitness = {}", r.fitness);
        assert!(!(r.bits[0] && r.bits[1]));
        // One generation: only the initial scoring and the best scan.
        let r = ga_bitstring(
            f,
            8,
            &[vec![true; 8]],
            GaConfig {
                generations: 1,
                ..GaConfig::default()
            },
        );
        assert!(!r.fitness.is_nan());
    }

    #[test]
    fn ga_does_not_rescore_elites() {
        let calls = std::cell::Cell::new(0usize);
        let cfg = GaConfig {
            population: 10,
            generations: 6,
            elitism: 3,
            ..GaConfig::default()
        };
        let _ = ga_bitstring(
            |b: &[bool]| {
                calls.set(calls.get() + 1);
                b.iter().filter(|&&x| x).count() as f64
            },
            16,
            &[],
            cfg,
        );
        // Initial population, then only the children of 5 generations.
        assert_eq!(calls.get(), 10 + 5 * (10 - 3));
    }

    #[test]
    #[should_panic]
    fn ga_rejects_bad_seed_length() {
        let _ = ga_bitstring(|_| 0.0, 8, &[vec![true; 4]], GaConfig::default());
    }
}
