//! Differential validation of the dense DigiQ_opt slot-demand kernel
//! (`digiq_core::delay_model::SlotDemand`) against the hash-set reference
//! it replaced, at paper scale.
//!
//! * **Per-slot cost** — `exec::opt_slot_cost` over the gathered demand
//!   runs equals the reference `HashMap`/`HashSet` count slot for slot,
//!   on all six Table IV benchmarks compiled for the 32×32 grid, for
//!   BS ∈ {2, 4, 8, 16}.
//! * **Prefix hashing** — `DelayModel::delay_classes` returns exactly the
//!   one-shot `delay_class` draw at every firing position, for every
//!   `OneQ` variant under seeded angles, groups and qubits.
//! * **Memo reset** — one workspace reused across models that differ in
//!   seed, `angle_bins`, `variation_classes` and `opt_l3_threshold`
//!   matches the reference under each, so no draw of an earlier model
//!   survives.
//! * **Firing count in the key** — two rotations that share an angle bin
//!   but sit on either side of the `L = 3` threshold demand two and three
//!   positions.
//! * **DigiQ_min draws** — the memoized depth equals
//!   `DelayModel::min_depth` for every 1q gate of every paper benchmark.
//! * **Workspace reuse** — once warm, gathering a whole benchmark again
//!   allocates nothing.

mod common;

use common::paper_benchmarks;
use digiq_core::delay_model::{DelayModel, DemandRun, SlotDemand};
use digiq_core::design::{ControllerDesign, SystemConfig};
use digiq_core::exec::{opt_slot_cost, ExecParams, OptSlotCost};
use qcircuit::bench::Benchmark;
use qcircuit::ir::{Circuit, Gate, OneQ};
use qcircuit::schedule::Slot;
use qsim::rng::StdRng;
use std::collections::{HashMap, HashSet};

fn opt_params(bs: usize) -> ExecParams {
    let mut params = ExecParams::new(SystemConfig::paper_default(
        ControllerDesign::DigiqOpt { bs },
        2,
    ));
    params.config.n_qubits = 1024;
    params
}

/// The reference demand count: group → firing position → hash set of
/// distinct delay classes, drawn one position at a time, plus the slot's
/// CZ count. Split from [`reference_cost`] only so one count serves all
/// four BS values.
type ReferenceDemand = (HashMap<(usize, usize), HashSet<u64>>, u64);

fn reference_demand(
    circuit: &Circuit,
    slot: &Slot,
    group_of: &[usize],
    model: &DelayModel<'_>,
) -> ReferenceDemand {
    let mut demands: HashMap<(usize, usize), HashSet<u64>> = HashMap::new();
    let mut cz_count = 0;
    for &gi in slot {
        match circuit.gates()[gi] {
            Gate::Cz { .. } => cz_count += 1,
            Gate::OneQ { q, kind } => {
                let group = group_of.get(q).copied().unwrap_or(0);
                for pos in 0..model.firing_count(kind) {
                    let class = model.delay_class(kind, pos, group, q);
                    demands.entry((group, pos)).or_default().insert(class);
                }
            }
            _ => panic!("executor requires a lowered circuit"),
        }
    }
    (demands, cz_count)
}

/// The reference per-slot cost over a [`reference_demand`]: per group,
/// the sum of `⌈distinct/BS⌉` over positions; the slowest group wins.
fn reference_cost((demands, cz_count): &ReferenceDemand, bs: usize) -> OptSlotCost {
    let mut cost = OptSlotCost {
        cz_count: *cz_count,
        ..OptSlotCost::default()
    };
    let mut per_group: HashMap<usize, u64> = HashMap::new();
    for ((group, _pos), classes) in demands {
        let sub = (classes.len() as u64).div_ceil(bs as u64);
        *per_group.entry(*group).or_insert(0) += sub;
        cost.serialization_cycles += sub - 1;
    }
    cost.oneq_cycles = per_group.values().copied().max().unwrap_or(0);
    cost
}

#[test]
fn slot_costs_match_the_hash_set_reference_at_paper_scale() {
    // The demand (and so the model) does not depend on BS; only the cost
    // fold does.
    let params = opt_params(8);
    let model = DelayModel::new(&params);
    let mut demand = SlotDemand::new();
    for c in paper_benchmarks() {
        let mut contended = 0u64;
        for (si, slot) in c.slots.iter().enumerate() {
            demand.gather(&c.circuit, slot, &c.groups, &model);
            let reference = reference_demand(&c.circuit, slot, &c.groups, &model);
            for bs in [2usize, 4, 8, 16] {
                let cost = opt_slot_cost(&demand, bs);
                assert_eq!(
                    cost,
                    reference_cost(&reference, bs),
                    "{} BS={bs} slot {si}",
                    c.bench.name()
                );
                if bs == 2 {
                    contended += cost.serialization_cycles;
                }
            }
        }
        if c.bench == Benchmark::Qgan {
            assert!(contended > 0, "BS=2 must serialize paper-scale QGAN");
        }
    }
}

#[test]
fn delay_classes_match_one_shot_draws_for_every_gate_kind() {
    let params = opt_params(8);
    let model = DelayModel::new(&params);
    let mut rng = StdRng::seed_from_u64(0x5107_DE3A);
    let tau = std::f64::consts::TAU;
    for case in 0..200 {
        let mut angle = || rng.gen_range(-tau..tau);
        let kinds = [
            OneQ::H,
            OneQ::X,
            OneQ::Y,
            OneQ::Z,
            OneQ::S,
            OneQ::Sdg,
            OneQ::T,
            OneQ::Tdg,
            OneQ::Rx(angle()),
            OneQ::Ry(angle()),
            OneQ::Rz(angle()),
            OneQ::U {
                theta: angle(),
                phi: angle(),
                lam: angle(),
            },
        ];
        let group = rng.gen_range(0..4usize);
        let q = rng.gen_range(0..1024usize);
        for kind in kinds {
            let (classes, firings) = model.delay_classes(kind, group, q);
            assert_eq!(firings, model.firing_count(kind), "case {case}: {kind:?}");
            for (pos, &class) in classes.iter().enumerate() {
                let expected = if pos < firings {
                    model.delay_class(kind, pos, group, q)
                } else {
                    0
                };
                assert_eq!(
                    class, expected,
                    "case {case}: {kind:?} pos {pos} group {group} q {q}"
                );
            }
        }
    }
}

#[test]
fn warm_workspace_gathers_a_paper_benchmark_without_allocating() {
    let params = opt_params(8);
    let model = DelayModel::new(&params);
    for c in paper_benchmarks() {
        let mut demand = SlotDemand::new();
        let gather_all = |demand: &mut SlotDemand| {
            for slot in &c.slots {
                demand.gather(&c.circuit, slot, &c.groups, &model);
            }
        };
        let ((), cold) = qsim::counters::counted(|| gather_all(&mut demand));
        assert!(cold.allocs > 0, "{}: the cold pass grows", c.bench.name());
        let ((), warm) = qsim::counters::counted(|| gather_all(&mut demand));
        assert_eq!(warm.allocs, 0, "{}: warm pass allocated", c.bench.name());
    }
}

/// Every 1q gate of a compiled circuit, in gate order.
fn oneq_gates(circuit: &Circuit) -> impl Iterator<Item = (usize, OneQ)> + '_ {
    circuit.gates().iter().filter_map(|g| match *g {
        Gate::OneQ { q, kind } => Some((q, kind)),
        _ => None,
    })
}

#[test]
fn one_workspace_follows_every_model_change() {
    let base = opt_params(2);
    let mut seed = base.clone();
    seed.seed ^= 0x5EED;
    let mut bins = base.clone();
    bins.angle_bins = 7;
    let mut variation = base.clone();
    variation.variation_classes = 5;
    let mut threshold = base.clone();
    threshold.opt_l3_threshold = 1.0;
    let models = [
        ("base", &base),
        ("seed", &seed),
        ("angle_bins", &bins),
        ("variation_classes", &variation),
        ("opt_l3_threshold", &threshold),
        ("base again", &base),
    ];
    let benches: Vec<_> = paper_benchmarks()
        .iter()
        .filter(|c| matches!(c.bench, Benchmark::Qgan | Benchmark::Ising))
        .collect();
    let mut demand = SlotDemand::new();
    let mut fingerprints = Vec::new();
    for (name, params) in models {
        let model = DelayModel::new(params);
        // (BS = 2 one-qubit cycles, serialization cycles, Σ DigiQ_min depth)
        let mut fingerprint = (0u64, 0u64, 0usize);
        for c in &benches {
            for (si, slot) in c.slots.iter().enumerate() {
                demand.gather(&c.circuit, slot, &c.groups, &model);
                let cost = opt_slot_cost(&demand, 2);
                let reference = reference_demand(&c.circuit, slot, &c.groups, &model);
                assert_eq!(
                    cost,
                    reference_cost(&reference, 2),
                    "{name}: {} slot {si}",
                    c.bench.name()
                );
                fingerprint.0 += cost.oneq_cycles;
                fingerprint.1 += cost.serialization_cycles;
            }
            for (q, kind) in oneq_gates(&c.circuit) {
                let depth = demand.min_depth(&model, kind, q);
                assert_eq!(depth, model.min_depth(kind, q), "{name}: {kind:?} on q{q}");
                fingerprint.2 += depth;
            }
        }
        fingerprints.push((name, fingerprint));
    }
    // Each change moves what the workspace reports, so a stale memo could
    // not have passed the checks above.
    let (_, first) = fingerprints[0];
    for &(name, fingerprint) in &fingerprints[1..5] {
        assert_ne!(fingerprint, first, "{name} should change the draws");
    }
    assert_eq!(fingerprints[5].1, first);
}

#[test]
fn rotations_sharing_a_bin_keep_their_own_firing_count() {
    let params = opt_params(1);
    let model = DelayModel::new(&params);
    let (below, above) = (OneQ::Rx(2.59), OneQ::Rx(2.61));
    assert_eq!(
        digiq_core::delay_model::gate_bin(below, params.angle_bins),
        digiq_core::delay_model::gate_bin(above, params.angle_bins)
    );
    assert_eq!(model.firing_count(below), 2);
    assert_eq!(model.firing_count(above), 3);
    // q0 and q3 share group 0 and variation class 0: the gates share
    // their first two delay classes, and only the L = 3 one fires a third.
    let group_of = [0, 1, 1, 0];
    let run = |pos| DemandRun {
        group: 0,
        pos,
        distinct: 1,
    };
    let mut reused = SlotDemand::new();
    for (a, b) in [(2.59, 2.61), (2.61, 2.59)] {
        let mut c = Circuit::new(4);
        c.rx(0, a);
        c.rx(3, b);
        let slot: Slot = vec![0, 1];
        let reference = reference_demand(&c, &slot, &group_of, &model);
        for demand in [&mut SlotDemand::new(), &mut reused] {
            demand.gather(&c, &slot, &group_of, &model);
            assert_eq!(demand.runs(), &[run(0), run(1), run(2)], "order {a}, {b}");
            assert_eq!(opt_slot_cost(demand, 1), reference_cost(&reference, 1));
        }
    }
}

#[test]
fn memoized_min_depths_match_the_model_on_every_paper_gate() {
    let mut params = opt_params(2);
    params.config.design = ControllerDesign::DigiqMin { bs: 2 };
    let model = DelayModel::new(&params);
    let mut draws = SlotDemand::new();
    for c in paper_benchmarks() {
        for (q, kind) in oneq_gates(&c.circuit) {
            assert_eq!(
                draws.min_depth(&model, kind, q),
                model.min_depth(kind, q),
                "{}: {kind:?} on q{q}",
                c.bench.name()
            );
        }
    }
}
