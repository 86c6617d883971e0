//! Shared gate → delay-class assignment (§V-A).
//!
//! Both execution-time engines — the *analytic* slot model of
//! [`crate::exec`] and the *cycle-accurate* co-simulator of
//! [`crate::cosim`] — need the same three per-gate decisions:
//!
//! 1. **DigiQ_min / SFQ_MIMD_decomp:** how many controller cycles `K` the
//!    gate's basis decomposition occupies (drawn deterministically from
//!    the empirical `calib::min_decomp` length distribution);
//! 2. **DigiQ_opt:** how many delayed-Ubs firing positions `L ∈ {1,2,3}`
//!    realize the gate (diagonal → 1, generic → 2, near-π → 3);
//! 3. **DigiQ_opt:** which *delay class* each firing position demands —
//!    the §V-A sharing key after angle quantization and drift-variation
//!    merging; gates in the same class share one broadcast delay slot.
//!
//! All three are pure functions of the gate, the qubit, and
//! [`crate::exec::ExecParams`], hashed through the repo's pinned
//! [`qsim::rng::stable_hash`]. Keeping them here — instead of inlined in
//! each engine — is what makes the differential tests
//! (`crates/core/tests/cosim_diff.rs`) meaningful: the two engines agree
//! on *what each gate costs* by construction, so any divergence is a real
//! disagreement between the timing models, not a drifted copy of the
//! draw arithmetic.
//!
//! The DigiQ_opt per-slot demand — distinct delay classes per (group,
//! firing position) — is counted once, by [`SlotDemand`], and both
//! engines read it from there: the analytic model folds its runs into a
//! closed-form cost, the co-simulator replays them cycle by cycle.

use crate::exec::ExecParams;
use qcircuit::ir::{Circuit, Gate, OneQ};
use qcircuit::schedule::Slot;
use qsim::rng::StableHasher;

/// Stable digest used for every observable draw (lands in golden files).
pub(crate) fn hash_u64(parts: &[u64]) -> u64 {
    qsim::rng::stable_hash(parts)
}

/// θ (ZYZ middle angle) of a 1q gate, cheaply.
pub fn gate_theta(kind: OneQ) -> f64 {
    match kind {
        OneQ::H => std::f64::consts::FRAC_PI_2,
        OneQ::X | OneQ::Y => std::f64::consts::PI,
        OneQ::Z | OneQ::S | OneQ::Sdg | OneQ::T | OneQ::Tdg | OneQ::Rz(_) => 0.0,
        OneQ::Rx(a) | OneQ::Ry(a) => a.abs().min(2.0 * std::f64::consts::PI - a.abs()),
        OneQ::U { theta, .. } => theta.abs(),
    }
}

/// Quantized angle-class of a gate (delay-sharing key).
pub fn gate_bin(kind: OneQ, bins: usize) -> u64 {
    let q = |a: f64| {
        ((a.rem_euclid(2.0 * std::f64::consts::PI)) / (2.0 * std::f64::consts::PI) * bins as f64)
            as u64
    };
    match kind {
        OneQ::H => 1,
        OneQ::X => 2,
        OneQ::Y => 3,
        OneQ::Z => 4,
        OneQ::S => 5,
        OneQ::Sdg => 6,
        OneQ::T => 7,
        OneQ::Tdg => 8,
        OneQ::Rx(a) => 100 + q(a),
        OneQ::Ry(a) => 100 + bins as u64 + q(a),
        OneQ::Rz(a) => 100 + 2 * bins as u64 + q(a),
        OneQ::U { theta, phi, lam } => {
            1000 + q(theta) * (bins as u64 * bins as u64) + q(phi) * bins as u64 + q(lam)
        }
    }
}

/// The per-gate cost/delay assignment view over one [`ExecParams`]. Both
/// execution engines construct one of these and take every draw through
/// it, so identical params guarantee identical draws.
#[derive(Debug, Clone, Copy)]
pub struct DelayModel<'a> {
    seed: u64,
    angle_bins: usize,
    variation_classes: usize,
    opt_l3_threshold: f64,
    min_lengths: &'a [usize],
}

impl<'a> DelayModel<'a> {
    /// Borrows the assignment-relevant fields of `params`.
    pub fn new(params: &'a ExecParams) -> Self {
        DelayModel {
            seed: params.seed,
            angle_bins: params.angle_bins,
            variation_classes: params.variation_classes,
            opt_l3_threshold: params.opt_l3_threshold,
            min_lengths: &params.min_lengths,
        }
    }

    /// Decomposition depth `K` (controller cycles) charged to a 1q gate on
    /// the discrete-basis designs (DigiQ_min, SFQ_MIMD_decomp): a
    /// deterministic draw from the empirical length distribution, keyed by
    /// the gate's angle class and a mild per-qubit variation.
    pub fn min_depth(&self, kind: OneQ, q: usize) -> usize {
        let idx = hash_u64(&[
            self.seed,
            gate_bin(kind, self.angle_bins),
            q as u64 % 7, // mild per-qubit variation
        ]) as usize
            % self.min_lengths.len().max(1);
        self.min_lengths.get(idx).copied().unwrap_or(1)
    }

    /// Number of delayed-Ubs firing positions `L ∈ {1, 2, 3}` a 1q gate
    /// needs on DigiQ_opt (§V-A: diagonal gates absorb into one firing,
    /// near-π rotations need three).
    pub fn firing_count(&self, kind: OneQ) -> usize {
        let theta = gate_theta(kind);
        if theta == 0.0 {
            1 // diagonal: single absorbed firing
        } else if theta > self.opt_l3_threshold {
            3
        } else {
            2
        }
    }

    /// The delay class a gate demands at firing position `pos` on
    /// DigiQ_opt: gates mapping to the same class share one of the `BS`
    /// broadcast delay slots that cycle (§V-A error margin), distinct
    /// classes serialize.
    pub fn delay_class(&self, kind: OneQ, pos: usize, group: usize, q: usize) -> u64 {
        hash_u64(&[
            self.seed,
            gate_bin(kind, self.angle_bins),
            pos as u64,
            (group % 2) as u64, // frequency class
            // drift-forced per-qubit variation
            (q % self.variation_classes.max(1)) as u64,
        ])
    }

    /// The delay classes of every firing position of a gate at once:
    /// `(classes, L)` with `classes[pos] == delay_class(kind, pos, group,
    /// q)` for `pos < L` ([`DelayModel::firing_count`]) and zeros beyond.
    /// The `[seed, gate_bin]` hash prefix is absorbed once per gate and
    /// cloned per position; [`StableHasher`] is incremental, so the
    /// values are bit-identical to the one-shot draw.
    pub fn delay_classes(&self, kind: OneQ, group: usize, q: usize) -> ([u64; 3], usize) {
        let firings = self.firing_count(kind);
        let mut prefix = StableHasher::new();
        prefix.write_u64(self.seed);
        prefix.write_u64(gate_bin(kind, self.angle_bins));
        let mut classes = [0u64; 3];
        for (pos, class) in classes[..firings].iter_mut().enumerate() {
            let mut h = prefix.clone();
            h.write_u64(pos as u64);
            h.write_u64((group % 2) as u64);
            h.write_u64((q % self.variation_classes.max(1)) as u64);
            *class = h.finish();
        }
        (classes, firings)
    }

    /// The empirical DigiQ_min length distribution backing
    /// [`DelayModel::min_depth`].
    pub fn min_lengths(&self) -> &[usize] {
        self.min_lengths
    }
}

/// One `(group, firing position)` run of a slot's DigiQ_opt demand: the
/// number of distinct delay classes that group's sequencer broadcasts at
/// that position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandRun {
    /// SIMD (frequency) group.
    pub group: usize,
    /// Firing position `0..L`.
    pub pos: usize,
    /// Distinct delay classes demanded (≥ 1).
    pub distinct: usize,
}

/// Reusable DigiQ_opt slot-demand workspace (§V-A): every group
/// broadcasts only `BS` distinct delays per firing position, so each slot
/// is priced by its distinct delay classes per (group, position).
///
/// [`SlotDemand::gather`] collects the slot's `(group, pos, class)`
/// triples into one flat buffer, sorts and dedups it, and compresses the
/// result into [`DemandRun`]s in ascending (group, pos) order. Keep one
/// workspace across slots: after warm-up it never allocates. Buffer
/// growth is tallied through [`qsim::counters::tally_alloc`], so the
/// kernels bench can pin that.
#[derive(Debug, Default)]
pub struct SlotDemand {
    triples: Vec<(usize, usize, u64)>,
    runs: Vec<DemandRun>,
    cz_count: u64,
}

/// `Vec::push` that tallies one allocation whenever the buffer grows.
fn push_counted<T>(v: &mut Vec<T>, x: T) {
    if v.len() == v.capacity() {
        qsim::counters::tally_alloc();
    }
    v.push(x);
}

impl SlotDemand {
    /// An empty workspace.
    pub fn new() -> Self {
        SlotDemand::default()
    }

    /// Replaces the workspace contents with the demand of one schedule
    /// slot: `group_of[q]` is the SIMD group of physical qubit `q`
    /// (out-of-range qubits fall in group 0).
    ///
    /// # Panics
    ///
    /// Panics if the slot references an out-of-range gate or a
    /// non-lowered gate.
    pub fn gather(
        &mut self,
        circuit: &Circuit,
        slot: &Slot,
        group_of: &[usize],
        model: &DelayModel<'_>,
    ) {
        self.triples.clear();
        self.runs.clear();
        self.cz_count = 0;
        for &gi in slot {
            match circuit.gates()[gi] {
                Gate::Cz { .. } => self.cz_count += 1,
                Gate::OneQ { q, kind } => {
                    let group = group_of.get(q).copied().unwrap_or(0);
                    let (classes, firings) = model.delay_classes(kind, group, q);
                    for (pos, &class) in classes[..firings].iter().enumerate() {
                        push_counted(&mut self.triples, (group, pos, class));
                    }
                }
                _ => panic!("slot demand requires a lowered circuit"),
            }
        }
        self.triples.sort_unstable();
        self.triples.dedup();
        for &(group, pos, _) in &self.triples {
            match self.runs.last_mut() {
                Some(run) if run.group == group && run.pos == pos => run.distinct += 1,
                _ => push_counted(
                    &mut self.runs,
                    DemandRun {
                        group,
                        pos,
                        distinct: 1,
                    },
                ),
            }
        }
    }

    /// The slot's demand runs, ascending by (group, pos).
    pub fn runs(&self) -> &[DemandRun] {
        &self.runs
    }

    /// The runs split per group (ascending), each ascending by position.
    pub fn groups(&self) -> impl Iterator<Item = &[DemandRun]> {
        self.runs.chunk_by(|a, b| a.group == b.group)
    }

    /// CZ gates in the slot.
    pub fn cz_count(&self) -> u64 {
        self.cz_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{ControllerDesign, SystemConfig};

    fn params() -> ExecParams {
        ExecParams::new(SystemConfig::paper_default(
            ControllerDesign::DigiqOpt { bs: 8 },
            2,
        ))
    }

    #[test]
    fn min_depth_draws_from_the_distribution() {
        let p = params();
        let m = DelayModel::new(&p);
        for q in 0..20 {
            let k = m.min_depth(OneQ::H, q);
            assert!(p.min_lengths.contains(&k), "depth {k} not in distribution");
        }
        // Deterministic, and periodic in the 7-class qubit variation.
        assert_eq!(m.min_depth(OneQ::H, 3), m.min_depth(OneQ::H, 3));
        assert_eq!(m.min_depth(OneQ::H, 3), m.min_depth(OneQ::H, 10));
    }

    #[test]
    fn firing_counts_follow_theta() {
        let p = params();
        let m = DelayModel::new(&p);
        assert_eq!(m.firing_count(OneQ::Rz(0.7)), 1, "diagonal absorbs");
        assert_eq!(m.firing_count(OneQ::H), 2);
        assert_eq!(m.firing_count(OneQ::X), 3, "π rotation needs 3 firings");
    }

    #[test]
    fn delay_classes_share_and_split() {
        let p = params();
        let m = DelayModel::new(&p);
        // Same gate, same variation class, same frequency class → shared.
        assert_eq!(
            m.delay_class(OneQ::H, 0, 0, 0),
            m.delay_class(OneQ::H, 0, 2, 3)
        );
        // Different firing position or angle class → distinct.
        assert_ne!(
            m.delay_class(OneQ::H, 0, 0, 0),
            m.delay_class(OneQ::H, 1, 0, 0)
        );
        assert_ne!(
            m.delay_class(OneQ::H, 0, 0, 0),
            m.delay_class(OneQ::X, 0, 0, 0)
        );
    }

    #[test]
    fn slot_demand_counts_distinct_classes_per_group_and_position() {
        let p = params();
        let m = DelayModel::new(&p);
        // Group 0 runs H on q0, q3 (variation class 0, shared) and q4
        // (class 1); group 1 runs a diagonal Rz (one firing) on q1.
        let mut c = Circuit::new(5);
        c.h(0);
        c.h(3);
        c.h(4);
        c.rz(1, 0.4);
        c.cz(2, 3);
        let slot: Slot = vec![0, 1, 2, 3, 4];
        let group_of = [0, 1, 0, 0, 0];
        let mut demand = SlotDemand::new();
        demand.gather(&c, &slot, &group_of, &m);
        assert_eq!(demand.cz_count(), 1);
        let run = |group, pos, distinct| DemandRun {
            group,
            pos,
            distinct,
        };
        assert_eq!(demand.runs(), &[run(0, 0, 2), run(0, 1, 2), run(1, 0, 1)]);
        assert_eq!(demand.groups().count(), 2);
    }
}
