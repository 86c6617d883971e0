//! Qubit layout and stochastic SWAP routing (§VI-B).
//!
//! Benchmarks are "mapped to a 32×32 square grid via SWAP-gate insertion
//! using the stochastic transpiler pass packaged with Qiskit Terra". This
//! module substitutes our own seeded stochastic router (DESIGN.md
//! substitution #3) with the same contract: after routing, every CZ acts
//! on grid-adjacent physical qubits, and the logical gate sequence is
//! preserved under the evolving layout.
//!
//! The algorithm processes gates in order, and for each non-adjacent CZ
//! greedily inserts SWAPs chosen among the neighbours of the two endpoints
//! — each SWAP must strictly shrink the endpoint distance, with a
//! lookahead bonus for pending gates and seeded random tie-breaking.
//! Multiple trials with different seeds keep the best result.
//!
//! # Examples
//!
//! ```
//! use qcircuit::ir::Circuit;
//! use qcircuit::topology::Grid;
//! use qcircuit::mapping::{Layout, RouterConfig, route};
//!
//! let mut c = Circuit::new(4);
//! c.cz(0, 3);
//! let grid = Grid::new(2, 2);
//! let routed = route(&c, &grid, &Layout::identity(4, 4), &RouterConfig::default());
//! // All CZs now nearest-neighbour.
//! assert!(routed.is_hardware_compliant(&grid));
//! ```

use crate::ir::{Circuit, Gate};
use crate::topology::Grid;
use qsim::rng::StdRng;

/// A logical→physical qubit assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    log_to_phys: Vec<usize>,
    phys_to_log: Vec<Option<usize>>,
}

impl Layout {
    /// Identity layout: logical `i` on physical `i`.
    ///
    /// # Panics
    ///
    /// Panics if `n_logical > n_physical`.
    pub fn identity(n_logical: usize, n_physical: usize) -> Self {
        assert!(n_logical <= n_physical);
        let mut phys_to_log = vec![None; n_physical];
        for (l, slot) in phys_to_log.iter_mut().take(n_logical).enumerate() {
            *slot = Some(l);
        }
        Layout {
            log_to_phys: (0..n_logical).collect(),
            phys_to_log,
        }
    }

    /// Snake layout: logical `i` on the `i`-th qubit of the grid's
    /// boustrophedon path, so linear-chain circuits need no routing.
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than the grid has.
    pub fn snake(n_logical: usize, grid: &Grid) -> Self {
        assert!(n_logical <= grid.n_qubits());
        let snake = grid.snake_order();
        let mut phys_to_log = vec![None; grid.n_qubits()];
        let mut log_to_phys = Vec::with_capacity(n_logical);
        for l in 0..n_logical {
            log_to_phys.push(snake[l]);
            phys_to_log[snake[l]] = Some(l);
        }
        Layout {
            log_to_phys,
            phys_to_log,
        }
    }

    /// Builds a layout from an explicit logical→physical table.
    ///
    /// # Panics
    ///
    /// Panics if the table maps two logical qubits to one physical qubit
    /// or indexes out of `n_physical`.
    pub fn from_assignment(log_to_phys: Vec<usize>, n_physical: usize) -> Self {
        let mut phys_to_log = vec![None; n_physical];
        for (l, &p) in log_to_phys.iter().enumerate() {
            assert!(p < n_physical, "physical index out of range");
            assert!(
                phys_to_log[p].is_none(),
                "physical qubit {p} assigned twice"
            );
            phys_to_log[p] = Some(l);
        }
        Layout {
            log_to_phys,
            phys_to_log,
        }
    }

    /// Number of logical qubits.
    pub fn n_logical(&self) -> usize {
        self.log_to_phys.len()
    }

    /// Size of the physical register this layout maps into.
    pub fn n_physical(&self) -> usize {
        self.phys_to_log.len()
    }

    /// The full logical→physical table (`assignment()[l]` is the physical
    /// home of logical qubit `l`) — with [`Layout::n_physical`], enough to
    /// reconstruct the layout via [`Layout::from_assignment`], which is
    /// how the artifact store serializes compiled pipeline stages.
    pub fn assignment(&self) -> &[usize] {
        &self.log_to_phys
    }

    /// Physical home of logical qubit `l`.
    pub fn phys(&self, l: usize) -> usize {
        self.log_to_phys[l]
    }

    /// Logical occupant of physical qubit `p`, if any.
    pub fn logical(&self, p: usize) -> Option<usize> {
        self.phys_to_log[p]
    }

    /// Structural fingerprint of the assignment, stable across runs,
    /// processes, and toolchains (`qsim::rng::StableHasher` over the
    /// logical→physical table and the physical register size). Used with
    /// [`Circuit::cache_key`] by the evaluation engine to memoize routed
    /// circuits.
    pub fn cache_key(&self) -> u64 {
        let mut h = qsim::rng::StableHasher::new();
        h.write_usize(self.phys_to_log.len());
        h.write_usize(self.log_to_phys.len());
        for &p in &self.log_to_phys {
            h.write_usize(p);
        }
        h.finish()
    }

    /// Overwrites `self` with `src`, reusing the existing buffers — the
    /// workspace idiom: once capacities have grown to the largest layout
    /// seen, repeated copies allocate nothing.
    pub fn copy_from(&mut self, src: &Layout) {
        self.log_to_phys.clear();
        self.log_to_phys.extend_from_slice(&src.log_to_phys);
        self.phys_to_log.clear();
        self.phys_to_log.extend_from_slice(&src.phys_to_log);
    }

    /// Applies a SWAP between two physical qubits (either may be empty).
    /// Involutive: applying the same swap twice restores the layout —
    /// the routers score trial swaps with an apply/undo pair instead of
    /// cloning.
    pub fn swap_physical(&mut self, pa: usize, pb: usize) {
        let la = self.phys_to_log[pa];
        let lb = self.phys_to_log[pb];
        if let Some(l) = la {
            self.log_to_phys[l] = pb;
        }
        if let Some(l) = lb {
            self.log_to_phys[l] = pa;
        }
        self.phys_to_log.swap(pa, pb);
    }
}

/// Router options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// RNG seed for tie-breaking.
    pub seed: u64,
    /// Independent routing attempts; the lowest-SWAP result wins.
    pub trials: usize,
    /// How many upcoming 2q gates contribute to the lookahead score.
    pub lookahead: usize,
    /// Weight of the lookahead term.
    pub lookahead_weight: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            seed: 0xD161_0A11,
            trials: 2,
            lookahead: 8,
            lookahead_weight: 0.5,
        }
    }
}

/// A routed circuit: gates rewritten over *physical* qubit indices with
/// explicit SWAPs inserted.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCircuit {
    /// The physical circuit (indices are grid qubits).
    pub circuit: Circuit,
    /// Layout after the last gate.
    pub final_layout: Layout,
    /// Number of SWAPs inserted.
    pub swap_count: usize,
}

impl RoutedCircuit {
    /// True when every multi-qubit gate acts on grid-adjacent qubits.
    pub fn is_hardware_compliant(&self, grid: &Grid) -> bool {
        self.circuit.gates().iter().all(|g| match *g {
            Gate::OneQ { .. } => true,
            Gate::Cz { a, b } | Gate::Swap { a, b } => grid.are_adjacent(a, b),
            Gate::Cx { c, t } => grid.are_adjacent(c, t),
            Gate::Ccx { .. } => false,
        })
    }
}

/// Reusable scratch for the routers — the allocation-free hot-loop
/// contract of the compile path. Holds the upcoming two-qubit endpoint
/// list, the per-SWAP-iteration window of precomputed front-gate
/// distances, the trial layout driven by [`Layout::swap_physical`]
/// apply/undo pairs, and the output circuit under construction. Buffers
/// grow to the largest circuit routed and are then reused; only the
/// returned [`RoutedCircuit`] (circuit + final layout) is materialized
/// fresh, so a warm route call performs O(1) heap allocations.
///
/// The plain [`route`] / [`route_lookahead`] entry points keep one
/// workspace per thread; [`route_with`] / [`route_lookahead_with`] take
/// an explicit workspace (what the pass pipeline threads through its
/// stages).
#[derive(Debug)]
pub struct RouteWorkspace {
    upcoming: Vec<(usize, usize)>,
    base_d: Vec<usize>,
    layout: Layout,
    out: Circuit,
}

impl Default for RouteWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteWorkspace {
    /// An empty workspace; buffers grow on first use and stay allocated.
    pub fn new() -> Self {
        RouteWorkspace {
            upcoming: Vec::new(),
            base_d: Vec::new(),
            layout: Layout::identity(0, 0),
            out: Circuit::new(0),
        }
    }

    /// Refills the upcoming two-qubit endpoint list and sizes the
    /// window buffer, without allocating once grown.
    fn prepare(&mut self, c: &Circuit, window: usize) {
        self.upcoming.clear();
        self.upcoming
            .extend(c.gates().iter().filter_map(|g| match *g {
                Gate::Cz { a, b } => Some((a, b)),
                _ => None,
            }));
        if self.base_d.len() < window {
            self.base_d.resize(window, 0);
        }
    }
}

thread_local! {
    static ROUTE_WS: std::cell::RefCell<RouteWorkspace> =
        std::cell::RefCell::new(RouteWorkspace::new());
}

/// Routes a lowered circuit onto the grid (see module docs). Runs
/// `cfg.trials` seeded attempts and returns the one with the fewest
/// SWAPs. Uses a per-thread [`RouteWorkspace`], so repeated calls are
/// allocation-free apart from the returned artifact.
///
/// # Panics
///
/// Panics if the circuit contains un-lowered `CX`/`CCX`/`SWAP` gates, or
/// needs more qubits than the grid provides.
pub fn route(c: &Circuit, grid: &Grid, initial: &Layout, cfg: &RouterConfig) -> RoutedCircuit {
    ROUTE_WS.with(|ws| match ws.try_borrow_mut() {
        Ok(mut ws) => route_with(&mut ws, c, grid, initial, cfg),
        // Re-entrant call (route inside route): fall back to a fresh
        // workspace rather than panicking on the double borrow.
        Err(_) => route_with(&mut RouteWorkspace::new(), c, grid, initial, cfg),
    })
}

/// [`route`] with an explicit workspace (the pipeline's form).
///
/// # Panics
///
/// Same contract as [`route`].
pub fn route_with(
    ws: &mut RouteWorkspace,
    c: &Circuit,
    grid: &Grid,
    initial: &Layout,
    cfg: &RouterConfig,
) -> RoutedCircuit {
    crate::lower::assert_lowered(c, "route");
    assert!(c.n_qubits() <= grid.n_qubits());
    ws.prepare(c, cfg.lookahead);
    let mut best: Option<RoutedCircuit> = None;
    for t in 0..cfg.trials.max(1) {
        let swap_count =
            route_once_into(ws, c, grid, initial, cfg.seed.wrapping_add(t as u64), cfg);
        // Strictly-fewer-swaps keeps the FIRST minimal trial, matching
        // the historical selection; only improving trials materialize.
        if best.as_ref().is_none_or(|b| swap_count < b.swap_count) {
            best = Some(RoutedCircuit {
                circuit: ws.out.clone(),
                final_layout: ws.layout.clone(),
                swap_count,
            });
        }
    }
    // Exactly the two materialized output buffers (routed circuit +
    // final layout) per call — losing trials live in the workspace.
    qsim::counters::tally_allocs(2);
    best.expect("at least one trial")
}

/// The deterministic lookahead-window router: the alternative
/// [`RouteStrategy`](crate::pipeline::RouteStrategy) of the pass
/// pipeline.
///
/// Like [`route`] it inserts strictly distance-reducing SWAPs among the
/// neighbours of the current CZ's endpoints (so termination is
/// guaranteed), but the candidate score is dominated by the next `window`
/// pending two-qubit gates (harmonically decayed) instead of the current
/// gate's residual distance, there is no random tie-breaking and no
/// multi-trial search — one fully deterministic attempt.
///
/// # Panics
///
/// Panics if the circuit contains un-lowered `CX`/`CCX`/`SWAP` gates, or
/// needs more qubits than the grid provides.
pub fn route_lookahead(c: &Circuit, grid: &Grid, initial: &Layout, window: usize) -> RoutedCircuit {
    ROUTE_WS.with(|ws| match ws.try_borrow_mut() {
        Ok(mut ws) => route_lookahead_with(&mut ws, c, grid, initial, window),
        Err(_) => route_lookahead_with(&mut RouteWorkspace::new(), c, grid, initial, window),
    })
}

/// [`route_lookahead`] with an explicit workspace (the pipeline's form).
///
/// # Panics
///
/// Same contract as [`route_lookahead`].
pub fn route_lookahead_with(
    ws: &mut RouteWorkspace,
    c: &Circuit,
    grid: &Grid,
    initial: &Layout,
    window: usize,
) -> RoutedCircuit {
    crate::lower::assert_lowered(c, "route");
    assert!(c.n_qubits() <= grid.n_qubits());
    ws.prepare(c, window);
    let RouteWorkspace {
        upcoming,
        base_d,
        layout,
        out,
    } = ws;
    layout.copy_from(initial);
    out.reset(grid.n_qubits());
    let mut swap_count = 0usize;
    let mut next_2q = 0usize;

    for g in c.gates() {
        match *g {
            Gate::OneQ { q, kind } => out.push(Gate::OneQ {
                q: layout.phys(q),
                kind,
            }),
            Gate::Cz { a, b } => {
                loop {
                    let (pa, pb) = (layout.phys(a), layout.phys(b));
                    let d = grid.distance(pa, pb);
                    if d == 1 {
                        break;
                    }
                    // Window front-gate distances, computed once per SWAP
                    // iteration; candidates below patch only the gates
                    // whose endpoints ride the swapped pair.
                    let mut window_len = 0usize;
                    // `k` also indexes `upcoming` and sizes the window; the
                    // index loop keeps the router's machine code.
                    #[allow(clippy::needless_range_loop)]
                    for k in 0..window {
                        let idx = next_2q + 1 + k;
                        if idx >= upcoming.len() {
                            break;
                        }
                        let (x, y) = upcoming[idx];
                        base_d[k] = grid.distance(layout.phys(x), layout.phys(y));
                        window_len = k + 1;
                    }
                    // Best candidate under the window score; ties break on
                    // the (endpoint, neighbour) pair for full determinism.
                    let mut best: Option<(usize, usize, f64)> = None;
                    for &(end, other) in &[(pa, pb), (pb, pa)] {
                        for n in grid.neighbors_iter(end) {
                            let d_after = grid.distance(n, other);
                            if d_after >= d {
                                continue;
                            }
                            // Trial swap applied in place and undone below
                            // (swap_physical is involutive) — no clone.
                            let occ_end = layout.logical(end);
                            let occ_n = layout.logical(n);
                            layout.swap_physical(end, n);
                            // Window cost: the current gate counts as the
                            // window's head, pending gates decay harmonically.
                            let mut score = d_after as f64;
                            for (k, &bd) in base_d.iter().enumerate().take(window_len) {
                                let (x, y) = upcoming[next_2q + 1 + k];
                                let moved = occ_end == Some(x)
                                    || occ_end == Some(y)
                                    || occ_n == Some(x)
                                    || occ_n == Some(y);
                                let dk = if moved {
                                    grid.distance(layout.phys(x), layout.phys(y))
                                } else {
                                    bd
                                };
                                score += dk as f64 / (k + 2) as f64;
                                qsim::counters::tally_flops(2); // divide + accumulate
                            }
                            layout.swap_physical(end, n); // undo
                            let better = match best {
                                None => true,
                                Some((be, bn, bs)) => {
                                    score < bs || (score == bs && (end, n) < (be, bn))
                                }
                            };
                            if better {
                                best = Some((end, n, score));
                            }
                        }
                    }
                    let (x, y, _) = best.expect("a distance-reducing swap always exists on a grid");
                    out.swap(x, y);
                    layout.swap_physical(x, y);
                    swap_count += 1;
                }
                out.cz(layout.phys(a), layout.phys(b));
                next_2q += 1;
            }
            _ => panic!("route requires a lowered circuit (1q + CZ only)"),
        }
    }

    qsim::counters::tally_allocs(2); // materialized routed circuit + final layout
    RoutedCircuit {
        circuit: out.clone(),
        final_layout: layout.clone(),
        swap_count,
    }
}

/// One greedy trial, built into the workspace's `out`/`layout` buffers.
/// Returns the trial's SWAP count; the caller materializes the winner.
fn route_once_into(
    ws: &mut RouteWorkspace,
    c: &Circuit,
    grid: &Grid,
    initial: &Layout,
    seed: u64,
    cfg: &RouterConfig,
) -> usize {
    let RouteWorkspace {
        upcoming,
        base_d,
        layout,
        out,
    } = ws;
    let mut rng = StdRng::seed_from_u64(seed);
    layout.copy_from(initial);
    out.reset(grid.n_qubits());
    let mut swap_count = 0usize;
    let mut next_2q = 0usize; // index into `upcoming` of the current gate

    for g in c.gates() {
        match *g {
            Gate::OneQ { q, kind } => out.push(Gate::OneQ {
                q: layout.phys(q),
                kind,
            }),
            Gate::Cz { a, b } => {
                // Insert SWAPs until adjacent.
                loop {
                    let (pa, pb) = (layout.phys(a), layout.phys(b));
                    let d = grid.distance(pa, pb);
                    if d == 1 {
                        break;
                    }
                    // Window front-gate distances, once per SWAP iteration
                    // instead of once per candidate.
                    let mut window_len = 0usize;
                    // `k` also indexes `upcoming` and sizes the window; the
                    // index loop keeps the router's machine code.
                    #[allow(clippy::needless_range_loop)]
                    for k in 0..cfg.lookahead {
                        let idx = next_2q + 1 + k;
                        if idx >= upcoming.len() {
                            break;
                        }
                        let (x, y) = upcoming[idx];
                        base_d[k] = grid.distance(layout.phys(x), layout.phys(y));
                        window_len = k + 1;
                    }
                    // Candidate swaps: neighbours of either endpoint that
                    // strictly reduce the endpoint distance. The running
                    // strictly-less best keeps the FIRST minimal score —
                    // exactly what `min_by` over the candidate list
                    // returned — and the RNG draws stay in candidate
                    // order, so results are bit-identical.
                    let mut best: Option<(usize, usize, f64)> = None;
                    for &(end, other) in &[(pa, pb), (pb, pa)] {
                        for n in grid.neighbors_iter(end) {
                            let d_after = grid.distance(n, other);
                            if d_after < d {
                                // Lookahead: how do pending gates like it?
                                // Trial swap applied in place, undone after
                                // scoring (swap_physical is involutive).
                                let occ_end = layout.logical(end);
                                let occ_n = layout.logical(n);
                                layout.swap_physical(end, n);
                                let mut la = 0.0;
                                for (k, &bd) in base_d.iter().enumerate().take(window_len) {
                                    let (x, y) = upcoming[next_2q + 1 + k];
                                    let moved = occ_end == Some(x)
                                        || occ_end == Some(y)
                                        || occ_n == Some(x)
                                        || occ_n == Some(y);
                                    let dk = if moved {
                                        grid.distance(layout.phys(x), layout.phys(y))
                                    } else {
                                        bd
                                    };
                                    la += dk as f64 / (k + 1) as f64;
                                    qsim::counters::tally_flops(2); // divide + accumulate
                                }
                                layout.swap_physical(end, n); // undo
                                let score = d_after as f64
                                    + cfg.lookahead_weight * la
                                    + rng.gen::<f64>() * 1e-3;
                                // Weight multiply, two adds, tie-break scale.
                                qsim::counters::tally_flops(4);
                                if best.is_none_or(|(_, _, bs)| score < bs) {
                                    best = Some((end, n, score));
                                }
                            }
                        }
                    }
                    let (x, y, _) = best.expect("a distance-reducing swap always exists on a grid");
                    out.swap(x, y);
                    layout.swap_physical(x, y);
                    swap_count += 1;
                }
                out.cz(layout.phys(a), layout.phys(b));
                next_2q += 1;
            }
            _ => panic!("route requires a lowered circuit (1q + CZ only)"),
        }
    }

    swap_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::lower::lower_to_cz;

    #[test]
    fn layout_identity_and_snake() {
        let grid = Grid::new(4, 4);
        let id = Layout::identity(8, 16);
        assert_eq!(id.phys(3), 3);
        assert_eq!(id.logical(3), Some(3));
        assert_eq!(id.logical(12), None);

        let snake = Layout::snake(8, &grid);
        // Consecutive logical qubits are physically adjacent.
        for l in 0..7 {
            assert!(grid.are_adjacent(snake.phys(l), snake.phys(l + 1)));
        }
    }

    #[test]
    fn layout_swap_physical() {
        let mut l = Layout::identity(2, 4);
        l.swap_physical(0, 3);
        assert_eq!(l.phys(0), 3);
        assert_eq!(l.logical(3), Some(0));
        assert_eq!(l.logical(0), None);
        // Swapping two empties is a no-op.
        l.swap_physical(0, 2);
        assert_eq!(l.logical(0), None);
    }

    #[test]
    #[should_panic]
    fn from_assignment_rejects_collision() {
        let _ = Layout::from_assignment(vec![1, 1], 4);
    }

    #[test]
    fn adjacent_gate_needs_no_swaps() {
        let mut c = Circuit::new(2);
        c.cz(0, 1);
        let grid = Grid::new(2, 2);
        let r = route(&c, &grid, &Layout::identity(2, 4), &RouterConfig::default());
        assert_eq!(r.swap_count, 0);
        assert_eq!(r.circuit.len(), 1);
    }

    #[test]
    fn distant_gate_gets_routed() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        c.cz(0, 15); // opposite corners, distance 6
        let r = route(
            &c,
            &grid,
            &Layout::identity(16, 16),
            &RouterConfig::default(),
        );
        assert!(r.is_hardware_compliant(&grid));
        assert!(r.swap_count >= 5, "needs ≥5 swaps, got {}", r.swap_count);
        // Routed circuit ends with the CZ.
        assert!(matches!(r.circuit.gates().last(), Some(Gate::Cz { .. })));
    }

    #[test]
    fn routing_preserves_semantics_small() {
        // 2×2 grid, a circuit with non-adjacent CZ (0,3 are diagonal).
        let grid = Grid::new(2, 2);
        let mut c = Circuit::new(4);
        c.h(0);
        c.cz(0, 3);
        c.h(3);
        c.cz(1, 2);
        let r = route(&c, &grid, &Layout::identity(4, 4), &RouterConfig::default());
        assert!(r.is_hardware_compliant(&grid));

        // Simulate both; account for the final layout permutation.
        use crate::ir::StateVector;
        let mut logical = StateVector::zero(4);
        logical.apply_circuit(&c);
        let mut physical = StateVector::zero(4);
        physical.apply_circuit(&r.circuit);
        // Check per-qubit marginals through the layout.
        for l in 0..4 {
            let p = r.final_layout.phys(l);
            assert!(
                (logical.prob_one(l) - physical.prob_one(p)).abs() < 1e-9,
                "marginal mismatch on logical {l}"
            );
        }
    }

    #[test]
    fn snake_layout_makes_chains_swap_free() {
        let grid = Grid::new(8, 8);
        let chain = lower_to_cz(&bench::ising_chain(64, 1, 0.3, 0.7));
        let r = route(
            &chain,
            &grid,
            &Layout::snake(64, &grid),
            &RouterConfig::default(),
        );
        assert_eq!(r.swap_count, 0, "snake-embedded chain needs no swaps");
    }

    #[test]
    fn bv_routing_is_heavy() {
        // All CXs funnel into one ancilla: routing cost must be
        // substantial (this drives BV's serialization in Fig 9).
        let grid = Grid::new(6, 6);
        let secret: Vec<bool> = (0..31).map(|i| i % 2 == 0).collect();
        let c = lower_to_cz(&bench::bernstein_vazirani(&secret));
        let r = route(
            &c,
            &grid,
            &Layout::snake(32, &grid),
            &RouterConfig::default(),
        );
        assert!(r.is_hardware_compliant(&grid));
        assert!(r.swap_count > 20, "swap count {}", r.swap_count);
    }

    #[test]
    fn trials_pick_the_best() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        for i in 0..8 {
            c.cz(i, 15 - i);
        }
        let c = lower_to_cz(&c);
        let single = route(
            &c,
            &grid,
            &Layout::identity(16, 16),
            &RouterConfig {
                trials: 1,
                ..RouterConfig::default()
            },
        );
        let multi = route(
            &c,
            &grid,
            &Layout::identity(16, 16),
            &RouterConfig {
                trials: 6,
                ..RouterConfig::default()
            },
        );
        assert!(multi.swap_count <= single.swap_count);
    }

    #[test]
    fn determinism_by_seed() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        c.cz(0, 15);
        c.cz(3, 12);
        let cfg = RouterConfig::default();
        let a = route(&c, &grid, &Layout::identity(16, 16), &cfg);
        let b = route(&c, &grid, &Layout::identity(16, 16), &cfg);
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn layout_cache_key_tracks_assignment() {
        let grid = Grid::new(4, 4);
        assert_eq!(
            Layout::snake(8, &grid).cache_key(),
            Layout::snake(8, &grid).cache_key()
        );
        assert_ne!(
            Layout::snake(8, &grid).cache_key(),
            Layout::identity(8, 16).cache_key()
        );
        // Same table over a different physical register differs too.
        assert_ne!(
            Layout::identity(4, 8).cache_key(),
            Layout::identity(4, 16).cache_key()
        );
    }
}
