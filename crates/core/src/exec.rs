//! Execution-time model for DigiQ controllers (Fig 9).
//!
//! Consumes a routed, lowered, crosstalk-scheduled circuit (slots from
//! `qcircuit::schedule`) and charges controller time per slot under each
//! design's constraints:
//!
//! * **Impossible MIMD / MIMD baselines / DigiQ_min** — these designs
//!   impose no cross-qubit resource coupling, so execution follows exact
//!   per-qubit timelines (a gate starts when all its qubits are free):
//!   1q gates cost one bitstream (10.12 ns) on the MIMD designs and `K`
//!   controller cycles on DigiQ_min, with `K` drawn deterministically
//!   from an empirical length distribution (measured by the real
//!   `calib::min_decomp` search — no SIMD serialization, only longer
//!   decompositions, exactly Table I's trade-off).
//! * **DigiQ_opt** — a 1q gate takes `L ∈ {1,2,3}` cycles of delayed-Ubs
//!   firings, but each group broadcasts only `BS` distinct delays per
//!   cycle: qubits demanding more distinct delays serialize
//!   (`⌈distinct/BS⌉` sub-cycles per firing position). Identical gate
//!   angles snap to shared delays within the §V-A error margin, modelled
//!   by quantizing angles into `angle_bins` classes per frequency group.
//!   The distinct classes per (group, position) are counted by the shared
//!   [`crate::delay_model::SlotDemand`] workspace — the same count
//!   [`crate::cosim`] replays cycle by cycle.
//!
//! Each run owns one `SlotDemand`, which also memoizes the per-gate
//! draws: a gate's delay classes (DigiQ_opt) or depth `K` (DigiQ_min) are
//! hashed once per distinct gate key and looked up after that. DigiQ_opt
//! classes are interned into dense ids per exact hash value, so two keys
//! whose hashes collide still count as one class, exactly as the one-shot
//! hashes do; slot demand is counted with per-id epoch stamps instead of
//! a sort. See [`crate::delay_model`].
//!
//! CZ gates occupy `cz_ns` (3 DigiQ_opt cycles) regardless of design.
//! This is a *statistical* model of the per-gate delay assignments (the
//! exact per-qubit values come from `calib`, but Fig 9 only needs the
//! contention distribution); all draws are deterministic hashes, so runs
//! reproduce exactly. See DESIGN.md.

use crate::delay_model::{DelayModel, SlotDemand};
use crate::design::{ControllerDesign, SystemConfig};
use qcircuit::ir::{Circuit, Gate};
use qcircuit::schedule::Slot;
use sfq_hw::json::{Json, ToJson};

/// Tunables of the statistical execution model.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecParams {
    /// System configuration (design, groups, timing).
    pub config: SystemConfig,
    /// Empirical DigiQ_min sequence-length distribution (from
    /// `calib::min_decomp`; indexed by a deterministic hash).
    pub min_lengths: Vec<usize>,
    /// ZYZ θ beyond which DigiQ_opt needs `L = 3` firings (§V-A:
    /// near-π rotations).
    pub opt_l3_threshold: f64,
    /// Angle-quantization classes for the delay-sharing margin (§V-A:
    /// "allowing a small error margin when choosing delay values").
    pub angle_bins: usize,
    /// Drift-variation classes: qubits whose basis operations drifted
    /// apart need different delay tuples even for the same logical gate;
    /// the error margin merges them into this many classes per angle bin.
    pub variation_classes: usize,
    /// Hash salt (reproducibility).
    pub seed: u64,
}

impl ExecParams {
    /// Reasonable defaults for a design; `min_lengths` should be replaced
    /// with measured data for DigiQ_min runs (see
    /// [`crate::system::DigiqSystem`]).
    pub fn new(config: SystemConfig) -> Self {
        ExecParams {
            config,
            min_lengths: vec![12, 16, 18, 20, 22, 24, 26, 28],
            opt_l3_threshold: 2.6,
            angle_bins: 48,
            variation_classes: 3,
            seed: 0xD161_0E0C,
        }
    }
}

/// Per-run accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Total execution time, ns.
    pub total_ns: f64,
    /// Controller cycles spent on single-qubit work.
    pub oneq_cycles: u64,
    /// Extra cycles lost to SIMD delay-slot contention (DigiQ_opt only).
    pub serialization_cycles: u64,
    /// Slots processed.
    pub slots: u64,
    /// CZ occupancy time, ns.
    pub cz_ns: f64,
}

impl ToJson for ExecReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total_ns", self.total_ns.to_json()),
            ("oneq_cycles", self.oneq_cycles.to_json()),
            ("serialization_cycles", self.serialization_cycles.to_json()),
            ("slots", self.slots.to_json()),
            ("cz_ns", self.cz_ns.to_json()),
        ])
    }
}

impl ExecReport {
    /// Reads a report back from its [`ToJson`] form — the inverse of
    /// [`ExecReport::to_json`], used by the sweep-report reader.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "exec report";
        Ok(ExecReport {
            total_ns: j.num_field("total_ns", CTX)?,
            oneq_cycles: j.count_field("oneq_cycles", CTX)?,
            serialization_cycles: j.count_field("serialization_cycles", CTX)?,
            slots: j.count_field("slots", CTX)?,
            cz_ns: j.num_field("cz_ns", CTX)?,
        })
    }
}

/// The per-slot DigiQ_opt cost under the shared delay model: how many
/// sequencer sub-cycles the slowest group needs, how many of those are
/// pure delay-slot contention, and how many CZs the slot carries.
///
/// Exposed so the differential tests
/// (`crates/core/tests/cosim_diff.rs`) can pin the co-simulator's
/// per-slot serialization attribution against the analytic model
/// slot-for-slot, not just in aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptSlotCost {
    /// Sub-cycles of the slowest group (what the slot waits for).
    pub oneq_cycles: u64,
    /// Contention-expanded sub-cycles across all groups and positions
    /// (`Σ ⌈distinct/BS⌉ − 1`).
    pub serialization_cycles: u64,
    /// CZ gates in the slot.
    pub cz_count: u64,
}

/// Computes [`OptSlotCost`] for one gathered slot demand under
/// DigiQ_opt with `bs` broadcast delay slots per cycle: per group, the sum
/// over firing positions of the contention-expanded sub-cycles
/// `⌈distinct/BS⌉`; the slot waits for the slowest group.
pub fn opt_slot_cost(demand: &SlotDemand, bs: usize) -> OptSlotCost {
    let mut cost = OptSlotCost {
        cz_count: demand.cz_count(),
        ..OptSlotCost::default()
    };
    for runs in demand.groups() {
        let mut group_cycles = 0u64;
        for run in runs {
            let sub = (run.distinct as u64).div_ceil(bs as u64);
            group_cycles += sub;
            cost.serialization_cycles += sub - 1;
        }
        cost.oneq_cycles = cost.oneq_cycles.max(group_cycles);
    }
    cost
}

/// Executes a scheduled circuit under the model, returning the report.
///
/// `group_of[q]` gives the SIMD group of physical qubit `q` (qubits in a
/// group share broadcast bitstreams; grouping is by nominal frequency,
/// §IV-A1).
///
/// # Panics
///
/// Panics if a slot references an out-of-range gate, or the circuit
/// contains non-lowered gates.
pub fn execute(
    circuit: &Circuit,
    slots: &[Slot],
    group_of: &[usize],
    params: &ExecParams,
) -> ExecReport {
    qcircuit::lower::assert_lowered(circuit, "executor");
    let cfg = &params.config;
    let cycle = cfg.cycle_ns();
    let model = DelayModel::new(params);
    let mut demand = SlotDemand::new();
    let mut report = ExecReport::default();

    // Designs without cross-qubit resource coupling: exact per-qubit
    // timelines (gates start when their qubits are free; the schedule's
    // crosstalk constraints are upheld because slots already serialize
    // interfering CZs — we keep their relative order via slot sequencing
    // of the CZ start times).
    if !matches!(cfg.design, ControllerDesign::DigiqOpt { .. }) {
        let mut free_at = vec![0.0f64; circuit.n_qubits()];
        let mut cz_floor = 0.0f64; // enforce slot order among CZs
        for slot in slots {
            let mut slot_cz_end = cz_floor;
            for &gi in slot {
                match circuit.gates()[gi] {
                    Gate::Cz { a, b } => {
                        let start = free_at[a].max(free_at[b]).max(cz_floor);
                        let end = start + cfg.cz_ns;
                        free_at[a] = end;
                        free_at[b] = end;
                        slot_cz_end = slot_cz_end.max(start);
                        report.cz_ns += cfg.cz_ns;
                    }
                    Gate::OneQ { q, kind } => {
                        let dur = match cfg.design {
                            ControllerDesign::ImpossibleMimd | ControllerDesign::SfqMimdNaive => {
                                cfg.bitstream_ticks as f64 * cfg.clock_period_ns
                            }
                            _ => {
                                let k = demand.min_depth(&model, kind, q);
                                report.oneq_cycles += k as u64;
                                k as f64 * cycle
                            }
                        };
                        free_at[q] += dur;
                        if matches!(
                            cfg.design,
                            ControllerDesign::ImpossibleMimd | ControllerDesign::SfqMimdNaive
                        ) {
                            report.oneq_cycles += 1;
                        }
                    }
                    _ => panic!("executor requires a lowered circuit"),
                }
            }
            cz_floor = slot_cz_end;
            report.slots += 1;
        }
        report.total_ns = free_at.iter().cloned().fold(0.0, f64::max);
        return report;
    }

    // DigiQ_opt: slot-synchronous SIMD — every slot costs the slowest
    // group's contention-expanded sub-cycles, with CZs occupying their 60
    // ns concurrently.
    let bs = match cfg.design {
        ControllerDesign::DigiqOpt { bs } => bs,
        _ => unreachable!("non-opt designs returned above"),
    };
    for slot in slots {
        demand.gather(circuit, slot, group_of, &model);
        let cost = opt_slot_cost(&demand, bs);
        let mut slot_ns = cost.oneq_cycles as f64 * cycle;
        report.oneq_cycles += cost.oneq_cycles;
        report.serialization_cycles += cost.serialization_cycles;
        if cost.cz_count > 0 {
            slot_ns = slot_ns.max(cfg.cz_ns);
            report.cz_ns += cfg.cz_ns;
        }
        report.total_ns += slot_ns;
        report.slots += 1;
    }
    report
}

/// Convenience for Fig 9: execution time of `circuit` under `design`,
/// normalized to the Impossible MIMD baseline.
pub fn normalized_exec_time(
    circuit: &Circuit,
    slots: &[Slot],
    group_of: &[usize],
    params: &ExecParams,
) -> f64 {
    let this = execute(circuit, slots, group_of, params);
    let mut base_params = params.clone();
    base_params.config.design = ControllerDesign::ImpossibleMimd;
    let base = execute(circuit, slots, group_of, &base_params);
    this.total_ns / base.total_ns.max(f64::MIN_POSITIVE)
}

/// Builds the checkerboard group map used by the paper's evaluation
/// (qubits alternate between `groups` frequency classes over the grid).
pub fn checkerboard_groups(grid_cols: usize, n_qubits: usize, groups: usize) -> Vec<usize> {
    (0..n_qubits)
        .map(|q| {
            let (r, c) = (q / grid_cols, q % grid_cols);
            (r + c) % groups.max(1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::schedule::schedule_crosstalk_aware;
    use qcircuit::topology::Grid;

    fn run(design: ControllerDesign, circuit: &Circuit, grid: &Grid) -> ExecReport {
        let slots = schedule_crosstalk_aware(circuit, grid);
        let groups = checkerboard_groups(grid.cols(), circuit.n_qubits(), 2);
        let mut params = ExecParams::new(SystemConfig::paper_default(design, 2));
        params.config.n_qubits = circuit.n_qubits();
        execute(circuit, &slots, &groups, &params)
    }

    fn parallel_rotations(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(q, 0.1 + 0.05 * q as f64);
        }
        c
    }

    #[test]
    fn mimd_baseline_is_one_bitstream_per_slot() {
        let grid = Grid::new(4, 4);
        let c = parallel_rotations(16);
        let r = run(ControllerDesign::ImpossibleMimd, &c, &grid);
        assert!((r.total_ns - 10.12).abs() < 1e-9, "total {}", r.total_ns);
    }

    #[test]
    fn opt_serializes_distinct_angles() {
        let grid = Grid::new(4, 4);
        let c = parallel_rotations(16); // 16 distinct angles
        let r2 = run(ControllerDesign::DigiqOpt { bs: 2 }, &c, &grid);
        let r16 = run(ControllerDesign::DigiqOpt { bs: 16 }, &c, &grid);
        assert!(
            r2.total_ns > r16.total_ns,
            "BS=2 {} should be slower than BS=16 {}",
            r2.total_ns,
            r16.total_ns
        );
        assert!(r2.serialization_cycles > 0);
    }

    #[test]
    fn opt_shares_identical_gates() {
        let grid = Grid::new(4, 4);
        // Same gate everywhere, drift variation disabled → one delay
        // class → no serialization (the §V-A error-margin limit).
        let mut c = Circuit::new(16);
        for q in 0..16 {
            c.h(q);
        }
        let slots = schedule_crosstalk_aware(&c, &grid);
        let groups = checkerboard_groups(4, 16, 2);
        let mut p = ExecParams::new(SystemConfig::paper_default(
            ControllerDesign::DigiqOpt { bs: 2 },
            2,
        ));
        p.config.n_qubits = 16;
        p.variation_classes = 1;
        let r = execute(&c, &slots, &groups, &p);
        assert_eq!(r.serialization_cycles, 0);
        // H is non-diagonal: L = 2 cycles of 20.32 ns.
        assert!((r.total_ns - 2.0 * 20.32).abs() < 1e-6, "{}", r.total_ns);
        // With drift variation on, the same workload serializes.
        p.variation_classes = 6;
        let r2 = execute(&c, &slots, &groups, &p);
        assert!(r2.serialization_cycles > 0);
    }

    #[test]
    fn diagonal_gates_are_cheap_on_opt() {
        let grid = Grid::new(2, 2);
        let mut c = Circuit::new(4);
        c.rz(0, 0.7);
        let r = run(ControllerDesign::DigiqOpt { bs: 4 }, &c, &grid);
        assert!((r.total_ns - 20.32).abs() < 1e-6, "{}", r.total_ns);
    }

    #[test]
    fn min_charges_decomposition_depth() {
        let grid = Grid::new(2, 2);
        let mut c = Circuit::new(4);
        c.h(0);
        let r = run(ControllerDesign::DigiqMin { bs: 2 }, &c, &grid);
        // K cycles × 10.12 ns, K from the default distribution.
        assert!(r.total_ns >= 12.0 * 10.12 - 1e-6);
        assert!(r.total_ns <= 28.0 * 10.12 + 1e-6);
    }

    #[test]
    fn cz_costs_sixty_ns_everywhere() {
        let grid = Grid::new(2, 2);
        let mut c = Circuit::new(4);
        c.cz(0, 1);
        for d in [
            ControllerDesign::ImpossibleMimd,
            ControllerDesign::DigiqMin { bs: 2 },
            ControllerDesign::DigiqOpt { bs: 8 },
        ] {
            let r = run(d, &c, &grid);
            assert!((r.total_ns - 60.0).abs() < 1e-9, "{d}: {}", r.total_ns);
        }
    }

    #[test]
    fn normalized_time_sane_for_mixed_circuit() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        for q in 0..16 {
            c.ry(q, 0.2 + 0.03 * q as f64);
        }
        for q in (0..15).step_by(2) {
            c.cz(q, q + 1);
        }
        let slots = schedule_crosstalk_aware(&c, &grid);
        let groups = checkerboard_groups(4, 16, 2);
        let mut p = ExecParams::new(SystemConfig::paper_default(
            ControllerDesign::DigiqOpt { bs: 16 },
            2,
        ));
        p.config.n_qubits = 16;
        let ratio16 = normalized_exec_time(&c, &slots, &groups, &p);
        // CZ time dominates this small circuit: BS=16 sits just above 1×.
        assert!((1.0..12.0).contains(&ratio16), "ratio {ratio16}");
        // BS=2 must serialize the 16 distinct rotations much harder.
        p.config.design = ControllerDesign::DigiqOpt { bs: 2 };
        let ratio2 = normalized_exec_time(&c, &slots, &groups, &p);
        assert!(ratio2 > ratio16, "BS=2 {ratio2} vs BS=16 {ratio16}");
    }

    #[test]
    fn deterministic_given_seed() {
        let grid = Grid::new(4, 4);
        let c = parallel_rotations(16);
        let a = run(ControllerDesign::DigiqOpt { bs: 4 }, &c, &grid);
        let b = run(ControllerDesign::DigiqOpt { bs: 4 }, &c, &grid);
        assert_eq!(a.total_ns, b.total_ns);
    }

    #[test]
    fn checkerboard_group_map() {
        let g = checkerboard_groups(4, 16, 2);
        assert_eq!(g[0], 0);
        assert_eq!(g[1], 1);
        assert_eq!(g[4], 1);
        assert_eq!(g[5], 0);
    }
}
