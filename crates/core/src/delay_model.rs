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
//!
//! # Interned draws
//!
//! Every draw depends on the gate only through a small key, so a run
//! hashes each distinct key once and looks it up after that. The memo
//! lives in the caller's [`SlotDemand`], one per run:
//!
//! * **DigiQ_opt:** `(angle bin, L, group, q mod variation_classes)`.
//!   `L` is in the key because two gates in one angle bin can sit on
//!   either side of `opt_l3_threshold`. A key's first gate draws its
//!   classes with [`DelayModel::delay_classes`], and each `(group, pos,
//!   class hash)` triple gets a dense id. Ids are minted per exact hash
//!   value, so keys whose hashes collide share an id and count as one
//!   class, just as a set of hashes counts them: the memo changes no
//!   count. A slot's distinct classes are then counted with an epoch
//!   stamp per id, and only the few (group, pos) pairs it touched are
//!   sorted into [`DemandRun`]s.
//! * **DigiQ_min:** `(angle bin, q mod 7)` → the raw depth draw.
//!
//! A workspace handed a model with another seed, `angle_bins`,
//! `variation_classes` or `opt_l3_threshold` drops its memo first. The
//! one-shot draws ([`DelayModel::delay_class`], [`DelayModel::min_depth`])
//! stay as the reference the differential tests compare against
//! (`crates/core/tests/slot_demand_differential.rs`).

use crate::exec::ExecParams;
use qcircuit::ir::{Circuit, Gate, OneQ};
use qcircuit::schedule::Slot;
use qsim::rng::StableHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Stable digest used for every observable draw (lands in golden files).
pub(crate) fn hash_u64(parts: &[u64]) -> u64 {
    qsim::rng::stable_hash(parts)
}

/// The mild per-qubit variation class of the DigiQ_min depth draw.
fn min_class(q: usize) -> u64 {
    q as u64 % 7
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
///
/// Each angle lands in one of `bins` classes `0..bins`. An angle a hair
/// below zero wraps to exactly `2π` under `rem_euclid`, so the quantizer
/// clamps to the last class rather than spill into the next gate kind's
/// bin range.
pub fn gate_bin(kind: OneQ, bins: usize) -> u64 {
    let q = |a: f64| {
        (((a.rem_euclid(2.0 * std::f64::consts::PI)) / (2.0 * std::f64::consts::PI) * bins as f64)
            as u64)
            .min((bins as u64).saturating_sub(1))
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
        self.min_length(self.min_draw(gate_bin(kind, self.angle_bins), min_class(q)))
    }

    /// The raw DigiQ_min draw of an angle bin and qubit variation class.
    fn min_draw(&self, bin: u64, qubit_class: u64) -> u64 {
        hash_u64(&[self.seed, bin, qubit_class])
    }

    /// The decomposition depth a raw [`DelayModel::min_draw`] picks.
    fn min_length(&self, draw: u64) -> usize {
        let idx = draw as usize % self.min_lengths.len().max(1);
        self.min_lengths.get(idx).copied().unwrap_or(1)
    }

    /// Everything the memoized draws of a [`SlotDemand`] depend on
    /// besides the gate key (`min_lengths` only picks from a stored raw
    /// draw, so it is not part of it).
    fn memo_id(&self) -> ModelId {
        (
            self.seed,
            self.angle_bins,
            self.variation_classes,
            self.opt_l3_threshold.to_bits(),
        )
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
            self.variation_class(q) as u64,
        ])
    }

    /// The drift-variation class of qubit `q`.
    fn variation_class(&self, q: usize) -> usize {
        q % self.variation_classes.max(1)
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
            h.write_u64(self.variation_class(q) as u64);
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

/// The [`DelayModel`] fields a [`DrawTable`] was filled under.
type ModelId = (u64, usize, usize, u64);

/// A multiplicative word hasher for the [`DrawTable`] maps. Their keys
/// are small integer tuples and every lookup compares the full key, so
/// the hash only decides where a key is probed, never which entry it
/// finds. The keys come from the program's own compiled circuits, not
/// from outside input, so the default hasher's protection against
/// crafted collisions buys nothing, and its lookups cost about three
/// times as much on the paper-scale Add2 gates.
#[derive(Debug, Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A DigiQ_opt draw key: `(gate bin, L, group, variation class)`. `L` is
/// part of it because two gates in one angle bin can fall on either side
/// of the `L = 3` threshold.
type OptKey = (u64, usize, usize, usize);

/// Table capacity reserved on first use. Every paper-scale benchmark but
/// QGAN (~580 DigiQ_opt keys) fits its keys and classes without growing.
const FIRST_CAPACITY: usize = 64;

/// The per-run memo of the per-gate draws: each distinct gate key is
/// hashed once through [`DelayModel`] and then looked up.
///
/// * **DigiQ_opt.** A 1q gate's classes depend only on its angle bin,
///   firing count `L`, group and variation class. The first gate with a
///   key draws its classes with [`DelayModel::delay_classes`] and interns
///   each `(group, pos, class hash)` triple into a dense id. Ids are
///   assigned per exact hash value, so two keys whose hashes collide share
///   one id, which is exactly how a set of hashes counts them.
/// * **DigiQ_min.** The raw depth draw of `(angle bin, q mod 7)`.
///
/// A table serving a model that differs in any draw parameter starts
/// over, so it never returns a stale draw.
#[derive(Debug, Default)]
struct DrawTable {
    model: Option<ModelId>,
    /// DigiQ_opt key → class id per firing position.
    opt: WordMap<OptKey, [u32; 3]>,
    /// `(group, pos, class hash)` → dense class id.
    class_ids: WordMap<(usize, usize, u64), u32>,
    /// Per class id: the last slot epoch that demanded it.
    stamps: Vec<u32>,
    /// `(gate bin, qubit class)` → raw DigiQ_min draw.
    min: WordMap<(u64, u64), u64>,
}

/// `HashMap::insert` of a new key that tallies one allocation whenever
/// the map grows.
fn insert_counted<K: Hash + Eq, V>(map: &mut WordMap<K, V>, key: K, value: V) {
    if map.len() == map.capacity() {
        qsim::counters::tally_alloc();
        map.reserve(FIRST_CAPACITY.max(map.len()));
    }
    map.insert(key, value);
}

impl DrawTable {
    /// Starts over unless the table was filled under `model`'s draw
    /// parameters.
    fn bind(&mut self, model: &DelayModel<'_>) {
        let id = model.memo_id();
        if self.model != Some(id) {
            self.model = Some(id);
            self.opt.clear();
            self.class_ids.clear();
            self.stamps.clear();
            self.min.clear();
        }
    }

    /// The class ids of every firing position of a gate, and its `L`.
    #[inline]
    fn opt_ids(
        &mut self,
        model: &DelayModel<'_>,
        kind: OneQ,
        group: usize,
        q: usize,
    ) -> ([u32; 3], usize) {
        let firings = model.firing_count(kind);
        let key = (
            gate_bin(kind, model.angle_bins),
            firings,
            group,
            model.variation_class(q),
        );
        match self.opt.get(&key) {
            Some(&ids) => (ids, firings),
            None => (self.draw_opt(model, kind, group, q, key), firings),
        }
    }

    /// Draws and interns the class ids of a key's first gate.
    #[cold]
    #[inline(never)]
    fn draw_opt(
        &mut self,
        model: &DelayModel<'_>,
        kind: OneQ,
        group: usize,
        q: usize,
        key: OptKey,
    ) -> [u32; 3] {
        let firings = key.1;
        let (classes, _) = model.delay_classes(kind, group, q);
        let mut ids = [0u32; 3];
        for (pos, (id, &class)) in ids.iter_mut().zip(&classes).take(firings).enumerate() {
            *id = match self.class_ids.get(&(group, pos, class)) {
                Some(&id) => id,
                None => {
                    let id = self.stamps.len() as u32;
                    insert_counted(&mut self.class_ids, (group, pos, class), id);
                    push_counted(&mut self.stamps, 0);
                    id
                }
            };
        }
        insert_counted(&mut self.opt, key, ids);
        ids
    }

    /// [`DelayModel::min_depth`] through the memo.
    fn min_depth(&mut self, model: &DelayModel<'_>, kind: OneQ, q: usize) -> usize {
        let key = (gate_bin(kind, model.angle_bins), min_class(q));
        let draw = match self.min.get(&key) {
            Some(&draw) => draw,
            None => {
                let draw = model.min_draw(key.0, key.1);
                insert_counted(&mut self.min, key, draw);
                draw
            }
        };
        model.min_length(draw)
    }
}

/// Reusable per-run workspace for the per-gate draws of both execution
/// engines, and the DigiQ_opt slot demand (§V-A): every group broadcasts
/// only `BS` distinct delays per firing position, so each slot is priced
/// by its distinct delay classes per (group, position).
///
/// [`SlotDemand::gather`] looks each gate's class ids up in the run's
/// draw memo (see the module docs), marks each id with the slot's epoch
/// the first time the slot demands it, and counts the marked ids per
/// (group, pos) pair. Only the few pairs the slot touched are sorted into
/// [`DemandRun`]s, ascending by (group, pos). [`SlotDemand::min_depth`]
/// is the memoized DigiQ_min draw.
///
/// Keep one workspace per run: after warm-up it never allocates. Table
/// and buffer growth is tallied through [`qsim::counters::tally_alloc`],
/// so the kernels bench can pin that. A workspace handed a [`DelayModel`]
/// with other draw parameters drops its memo and refills it.
#[derive(Debug, Default)]
pub struct SlotDemand {
    draws: DrawTable,
    /// Per `group · 3 + pos` pair: (slot epoch, distinct classes).
    pairs: Vec<(u32, u32)>,
    /// Pairs the current slot demanded.
    touched: Vec<usize>,
    epoch: u32,
    runs: Vec<DemandRun>,
    cz_count: u64,
}

/// `Vec::push` that tallies one allocation whenever the buffer grows.
fn push_counted<T>(v: &mut Vec<T>, x: T) {
    if v.len() == v.capacity() {
        qsim::counters::tally_alloc();
        v.reserve(FIRST_CAPACITY.max(v.len()));
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
        self.draws.bind(model);
        self.runs.clear();
        self.cz_count = 0;
        self.next_epoch();
        for &gi in slot {
            match circuit.gates()[gi] {
                Gate::Cz { .. } => self.cz_count += 1,
                Gate::OneQ { q, kind } => {
                    let group = group_of.get(q).copied().unwrap_or(0);
                    let (ids, firings) = self.draws.opt_ids(model, kind, group, q);
                    for (pos, &id) in ids[..firings].iter().enumerate() {
                        let stamp = &mut self.draws.stamps[id as usize];
                        let fresh = (*stamp != self.epoch) as u32;
                        *stamp = self.epoch;
                        let pair = group * 3 + pos;
                        if pair >= self.pairs.len() {
                            let len = 3 * (group + 1);
                            if len > self.pairs.capacity() {
                                qsim::counters::tally_alloc();
                            }
                            self.pairs.resize(len, (0, 0));
                        }
                        let (seen, distinct) = &mut self.pairs[pair];
                        if *seen != self.epoch {
                            *seen = self.epoch;
                            *distinct = 0;
                            push_counted(&mut self.touched, pair);
                        }
                        *distinct += fresh;
                    }
                }
                _ => panic!("slot demand requires a lowered circuit"),
            }
        }
        self.touched.sort_unstable();
        for &pair in &self.touched {
            push_counted(
                &mut self.runs,
                DemandRun {
                    group: pair / 3,
                    pos: pair % 3,
                    distinct: self.pairs[pair].1 as usize,
                },
            );
        }
        self.touched.clear();
    }

    /// Advances the slot epoch; on wrap-around every stamp restarts.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.draws.stamps.fill(0);
            self.pairs.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// The decomposition depth `K` of a 1q gate on the discrete-basis
    /// designs: [`DelayModel::min_depth`], drawn once per distinct
    /// (angle bin, qubit class) of the run.
    pub fn min_depth(&mut self, model: &DelayModel<'_>, kind: OneQ, q: usize) -> usize {
        self.draws.bind(model);
        self.draws.min_depth(model, kind, q)
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
    fn angles_just_below_zero_stay_in_their_kind_s_bin_range() {
        let bins = 48;
        let last = bins as u64 - 1;
        let eps = -1e-16_f64;
        assert_eq!(eps.rem_euclid(std::f64::consts::TAU), std::f64::consts::TAU);
        assert_eq!(gate_bin(OneQ::Rx(eps), bins), 100 + last);
        assert_eq!(gate_bin(OneQ::Ry(eps), bins), 100 + bins as u64 + last);
        assert_eq!(gate_bin(OneQ::Rz(eps), bins), 100 + 2 * bins as u64 + last);
        let u = |theta, phi, lam| gate_bin(OneQ::U { theta, phi, lam }, bins);
        assert_eq!(u(0.0, 0.0, eps), 1000 + last);
        assert_eq!(u(0.0, eps, 0.0), 1000 + last * bins as u64);
        // Unclamped, λ = −ε would alias φ's bin 1.
        assert_ne!(
            u(0.0, 0.0, eps),
            u(0.0, std::f64::consts::TAU / 48.0 * 1.5, 0.0)
        );
        // Ordinary angles are untouched by the clamp.
        assert_eq!(gate_bin(OneQ::Rx(0.0), bins), 100);
        assert_eq!(gate_bin(OneQ::Rx(-0.1), bins), 100 + 47);
        assert_eq!(gate_bin(OneQ::Rx(3.0), bins), 100 + 22);
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
