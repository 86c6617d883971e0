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
//! * **Workspace reuse** — once warm, gathering a whole benchmark again
//!   allocates nothing.

use digiq_core::delay_model::{DelayModel, SlotDemand};
use digiq_core::design::{ControllerDesign, SystemConfig};
use digiq_core::exec::{checkerboard_groups, opt_slot_cost, ExecParams, OptSlotCost};
use qcircuit::bench::{Benchmark, ALL_BENCHMARKS};
use qcircuit::ir::{Circuit, Gate, OneQ};
use qcircuit::mapping::Layout;
use qcircuit::pipeline::{CompileArtifact, Pipeline, PipelineConfig};
use qcircuit::schedule::Slot;
use qcircuit::topology::Grid;
use qsim::rng::StdRng;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// One paper-scale benchmark compiled through the default pipeline.
struct Compiled {
    bench: Benchmark,
    circuit: Circuit,
    slots: Vec<Slot>,
    groups: Vec<usize>,
}

/// Every Table IV benchmark at paper scale on the 32×32 grid, compiled
/// once per test binary (the tests below share it).
fn paper_benchmarks() -> &'static [Compiled] {
    static COMPILED: OnceLock<Vec<Compiled>> = OnceLock::new();
    COMPILED.get_or_init(|| {
        let grid = Grid::new(32, 32);
        let pipeline = Pipeline::standard(&PipelineConfig::default());
        ALL_BENCHMARKS
            .into_iter()
            .map(|bench| {
                let logical = bench.paper_scale();
                let layout = Layout::snake(logical.n_qubits(), &grid);
                let (artifact, _) = pipeline
                    .run(CompileArtifact::new(logical, layout), &grid)
                    .unwrap();
                let groups = checkerboard_groups(grid.cols(), artifact.circuit.n_qubits(), 2);
                Compiled {
                    bench,
                    slots: artifact.scheduled().to_vec(),
                    circuit: artifact.circuit,
                    groups,
                }
            })
            .collect()
    })
}

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
