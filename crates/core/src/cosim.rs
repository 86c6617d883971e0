//! Cycle-accurate controller co-simulator (the oracle for Fig 9's
//! analytic execution model).
//!
//! [`crate::exec`] charges execution time with closed-form per-slot
//! arithmetic; this module instead *runs* the controller
//! microarchitecture, one timestep at a time, over the same compiled
//! schedule:
//!
//! * **MIMD baselines / SFQ_MIMD_decomp / DigiQ_min** — per-qubit
//!   timelines in integer SFQ clock ticks (40 ps): each qubit's sequencer
//!   plays its bitstreams back-to-back (`K` controller cycles per gate on
//!   the discrete-basis designs, one per-cycle basis firing traced from
//!   `calib::min_decomp::representative_sequence`), while CZs occupy both
//!   endpoints for 1500 ticks and keep their schedule-slot relative order.
//! * **DigiQ_opt** — a slot-synchronous SIMD machine: each group's
//!   sequencer walks its gates' firing positions (`L ∈ {1,2,3}`) in
//!   order, broadcasting up to `BS` distinct delay classes per controller
//!   cycle; positions demanding more classes spill into continuation
//!   sub-cycles (delay-slot contention), the slot barrier waits for the
//!   slowest group, and CZs occupy their 60 ns concurrently.
//!
//! Both engines draw every per-gate decision (decomposition depth `K`,
//! firing count `L`, delay class) from the shared
//! [`crate::delay_model::DelayModel`], and both count DigiQ_opt demand
//! (distinct delay classes per group and firing position) through the
//! same [`crate::delay_model::SlotDemand`] workspace. So a
//! [`CosimReport`] produced from the same compiled artifact
//! ([`qcircuit::pipeline::CompileArtifact`]) and [`ExecParams`] as an
//! [`ExecReport`] is *exactly* comparable: integer cycle counters
//! (`oneq_cycles`, `serialization_cycles`, CZ segments, slots) must agree
//! to the cycle, and `total_ns` to f64 rounding (the co-simulator sums
//! exact integer ticks where the analytic model sums f64 nanoseconds) —
//! see [`diff_analytic`] and `crates/core/tests/cosim_diff.rs`. What the
//! co-simulator adds over the closed form is *attribution*: per-group
//! sequencer utilization, per-slot serialization, double-buffered
//! select/mask staging counts, and an optional per-cycle trace.
//!
//! ```
//! use digiq_core::cosim::{diff_analytic, simulate, CosimParams};
//! use digiq_core::design::{ControllerDesign, SystemConfig};
//! use digiq_core::exec::{checkerboard_groups, execute, ExecParams};
//! use qcircuit::schedule::schedule_crosstalk_aware;
//! use qcircuit::topology::Grid;
//!
//! let grid = Grid::new(4, 4);
//! let mut c = qcircuit::ir::Circuit::new(16);
//! for q in 0..16 {
//!     c.ry(q, 0.1 + 0.05 * q as f64);
//! }
//! let slots = schedule_crosstalk_aware(&c, &grid);
//! let groups = checkerboard_groups(4, 16, 2);
//! let mut params = ExecParams::new(SystemConfig::paper_default(
//!     ControllerDesign::DigiqOpt { bs: 4 },
//!     2,
//! ));
//! params.config.n_qubits = 16;
//! let cosim = simulate(&c, &slots, &groups, &CosimParams::new(params.clone()));
//! let analytic = execute(&c, &slots, &groups, &params);
//! assert!(diff_analytic(&cosim, &analytic).is_exact(1e-9));
//! ```

use crate::delay_model::{gate_bin, DelayModel, SlotDemand};
use crate::design::ControllerDesign;
use crate::exec::{ExecParams, ExecReport};
use calib::min_decomp::representative_sequence;
use qcircuit::ir::{Circuit, Gate};
use qcircuit::schedule::Slot;
use sfq_hw::json::{Json, ToJson};
use std::collections::BTreeMap;

/// Co-simulation controls: the analytic model's parameters plus tracing.
#[derive(Debug, Clone)]
pub struct CosimParams {
    /// The execution-model parameters (identical to what
    /// [`crate::exec::execute`] receives — same seed, same draws).
    pub exec: ExecParams,
    /// Record per-cycle [`TraceEvent`]s.
    pub trace: bool,
    /// Cap on recorded events; the report flags truncation.
    pub trace_limit: usize,
}

impl CosimParams {
    /// Tracing off, default cap.
    pub fn new(exec: ExecParams) -> Self {
        CosimParams {
            exec,
            trace: false,
            trace_limit: 4096,
        }
    }

    /// Enables the per-cycle trace.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// What happened in one traced micro-event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A slot's select/mask words flipped from the staging buffer to the
    /// active buffer (`detail` = words staged).
    Stage,
    /// A qubit sequencer fired one basis bitstream cycle (`detail` =
    /// representative basis-gate index).
    Fire,
    /// A group sequencer broadcast a batch of delayed-Ubs copies
    /// (`detail` = distinct delay classes issued this sub-cycle).
    Broadcast,
    /// A CZ segment started (`detail` = partner qubit).
    Cz,
}

impl TraceKind {
    /// The stable lowercase label used in JSON and table output.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Stage => "stage",
            TraceKind::Fire => "fire",
            TraceKind::Broadcast => "broadcast",
            TraceKind::Cz => "cz",
        }
    }

    fn from_name(s: &str) -> Result<Self, String> {
        match s {
            "stage" => Ok(TraceKind::Stage),
            "fire" => Ok(TraceKind::Fire),
            "broadcast" => Ok(TraceKind::Broadcast),
            "cz" => Ok(TraceKind::Cz),
            other => Err(format!("unknown trace kind `{other}`")),
        }
    }
}

/// One per-cycle event of the co-simulation. Events are recorded in issue
/// order (per-qubit timelines interleave, so `tick` is not globally
/// monotonic on the MIMD designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// SFQ clock tick (40 ps) at which the event starts.
    pub tick: u64,
    /// Schedule slot the event belongs to.
    pub slot: usize,
    /// Frequency group of the issuing sequencer.
    pub group: usize,
    /// The qubit involved, when the event is qubit-specific.
    pub qubit: Option<usize>,
    /// Event class.
    pub kind: TraceKind,
    /// Kind-specific payload (see [`TraceKind`]).
    pub detail: u64,
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tick", self.tick.to_json()),
            ("slot", self.slot.to_json()),
            ("group", self.group.to_json()),
            ("qubit", self.qubit.to_json()),
            ("kind", self.kind.name().to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

impl TraceEvent {
    /// Reads an event back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "trace event";
        let qubit = match j.get("qubit") {
            None => return Err("trace event missing `qubit`".to_string()),
            Some(Json::Null) => None,
            Some(_) => Some(j.count_field("qubit", CTX)? as usize),
        };
        Ok(TraceEvent {
            tick: j.count_field("tick", CTX)?,
            slot: j.count_field("slot", CTX)? as usize,
            group: j.count_field("group", CTX)? as usize,
            qubit,
            kind: TraceKind::from_name(j.str_field("kind", CTX)?)?,
            detail: j.count_field("detail", CTX)?,
        })
    }
}

/// Activity roll-up of one frequency group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupActivity {
    /// Group index.
    pub group: usize,
    /// Member qubits (from the checkerboard map).
    pub members: usize,
    /// Busy SFQ clock ticks: on DigiQ_opt the group sequencer's issue
    /// cycles × the cycle length; on the per-qubit-timeline designs the
    /// summed occupied ticks of the member qubits.
    pub busy_ticks: u64,
    /// Duty fraction in `[0, 1]`: `busy / makespan` for a DigiQ_opt
    /// sequencer, `busy / (members × makespan)` for timeline designs.
    pub utilization: f64,
}

impl ToJson for GroupActivity {
    fn to_json(&self) -> Json {
        Json::obj([
            ("group", self.group.to_json()),
            ("members", self.members.to_json()),
            ("busy_ticks", self.busy_ticks.to_json()),
            ("utilization", self.utilization.to_json()),
        ])
    }
}

impl GroupActivity {
    /// Reads a roll-up back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "group activity";
        Ok(GroupActivity {
            group: j.count_field("group", CTX)? as usize,
            members: j.count_field("members", CTX)? as usize,
            busy_ticks: j.count_field("busy_ticks", CTX)?,
            utilization: j.num_field("utilization", CTX)?,
        })
    }
}

/// Serialization cycles attributed to one schedule slot (only slots with
/// contention are listed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSerialization {
    /// Slot index in the schedule.
    pub slot: usize,
    /// Continuation sub-cycles the slot lost to delay-slot contention.
    pub cycles: u64,
}

impl ToJson for SlotSerialization {
    fn to_json(&self) -> Json {
        Json::obj([
            ("slot", self.slot.to_json()),
            ("cycles", self.cycles.to_json()),
        ])
    }
}

impl SlotSerialization {
    /// Reads an attribution row back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "slot serialization";
        Ok(SlotSerialization {
            slot: j.count_field("slot", CTX)? as usize,
            cycles: j.count_field("cycles", CTX)?,
        })
    }
}

/// The full co-simulation result. The integer counters line up
/// field-for-field with [`ExecReport`] (see [`diff_analytic`]); the rest
/// is attribution the analytic model cannot produce.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimReport {
    /// The simulated design.
    pub design: ControllerDesign,
    /// Makespan in SFQ clock ticks (40 ps each) — the exact integer the
    /// analytic `total_ns` approximates in f64.
    pub total_ticks: u64,
    /// Makespan in ns (`total_ticks × clock_period_ns`).
    pub total_ns: f64,
    /// Controller cycles spent on single-qubit work (must equal the
    /// analytic count exactly).
    pub oneq_cycles: u64,
    /// Continuation sub-cycles lost to delay-slot contention (DigiQ_opt;
    /// must equal the analytic count exactly).
    pub serialization_cycles: u64,
    /// CZ gates executed.
    pub cz_count: u64,
    /// CZ occupancy ns under the analytic model's accounting (per gate on
    /// the timeline designs, per occupied slot on DigiQ_opt).
    pub cz_ns: f64,
    /// Schedule slots processed.
    pub slots: u64,
    /// Select/mask words staged through the per-qubit double buffers (one
    /// per participating qubit per slot; staging for slot *n+1* overlaps
    /// slot *n*, so it never stalls the sequencers).
    pub staged_words: u64,
    /// Per-group activity, ascending by group index.
    pub groups: Vec<GroupActivity>,
    /// Per-slot serialization attribution (slots with contention only).
    pub slot_serialization: Vec<SlotSerialization>,
    /// True when the trace hit [`CosimParams::trace_limit`].
    pub trace_truncated: bool,
    /// Per-cycle events (empty unless [`CosimParams::trace`] was set).
    pub trace: Vec<TraceEvent>,
}

impl ToJson for CosimReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("design", self.design.to_json()),
            ("total_ticks", self.total_ticks.to_json()),
            ("total_ns", self.total_ns.to_json()),
            ("oneq_cycles", self.oneq_cycles.to_json()),
            ("serialization_cycles", self.serialization_cycles.to_json()),
            ("cz_count", self.cz_count.to_json()),
            ("cz_ns", self.cz_ns.to_json()),
            ("slots", self.slots.to_json()),
            ("staged_words", self.staged_words.to_json()),
            ("groups", self.groups.to_json()),
            ("slot_serialization", self.slot_serialization.to_json()),
            ("trace_truncated", self.trace_truncated.to_json()),
            ("trace", self.trace.to_json()),
        ])
    }
}

impl CosimReport {
    /// Reads a report back from its [`ToJson`] form — the inverse of
    /// [`CosimReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "cosim report";
        let groups = match j.get("groups") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(GroupActivity::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("cosim report missing array `groups`".to_string()),
        };
        let slot_serialization = match j.get("slot_serialization") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(SlotSerialization::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("cosim report missing array `slot_serialization`".to_string()),
        };
        let trace = match j.get("trace") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(TraceEvent::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("cosim report missing array `trace`".to_string()),
        };
        let trace_truncated = match j.get("trace_truncated") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("cosim report missing boolean `trace_truncated`".to_string()),
        };
        Ok(CosimReport {
            design: ControllerDesign::from_json(
                j.get("design").ok_or("cosim report missing `design`")?,
            )?,
            total_ticks: j.count_field("total_ticks", CTX)?,
            total_ns: j.num_field("total_ns", CTX)?,
            oneq_cycles: j.count_field("oneq_cycles", CTX)?,
            serialization_cycles: j.count_field("serialization_cycles", CTX)?,
            cz_count: j.count_field("cz_count", CTX)?,
            cz_ns: j.num_field("cz_ns", CTX)?,
            slots: j.count_field("slots", CTX)?,
            staged_words: j.count_field("staged_words", CTX)?,
            groups,
            slot_serialization,
            trace_truncated,
            trace,
        })
    }
}

/// Field-by-field divergence between a co-simulation and the analytic
/// model run on the same compiled artifact and parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosimDiff {
    /// `cosim.oneq_cycles − analytic.oneq_cycles`.
    pub oneq_delta: i64,
    /// `cosim.serialization_cycles − analytic.serialization_cycles`.
    pub serialization_delta: i64,
    /// `cosim.slots − analytic.slots`.
    pub slots_delta: i64,
    /// `cosim.cz_ns − analytic.cz_ns` (exact-zero when the CZ accounting
    /// agrees: both are integer multiples of 60.0).
    pub cz_ns_delta: f64,
    /// `|cosim.total_ns − analytic.total_ns| / analytic.total_ns` — f64
    /// rounding only (the co-simulator sums integer ticks, the analytic
    /// model f64 nanoseconds), so ~1e-12 in practice.
    pub total_rel_err: f64,
}

impl CosimDiff {
    /// True when every integer counter matches to the cycle and the ns
    /// totals agree within `tol` relative error.
    pub fn is_exact(&self, tol: f64) -> bool {
        self.oneq_delta == 0
            && self.serialization_delta == 0
            && self.slots_delta == 0
            && self.cz_ns_delta == 0.0
            && self.total_rel_err <= tol
    }
}

impl ToJson for CosimDiff {
    fn to_json(&self) -> Json {
        Json::obj([
            ("oneq_delta", self.oneq_delta.to_json()),
            ("serialization_delta", self.serialization_delta.to_json()),
            ("slots_delta", self.slots_delta.to_json()),
            ("cz_ns_delta", self.cz_ns_delta.to_json()),
            ("total_rel_err", self.total_rel_err.to_json()),
        ])
    }
}

/// Compares a co-simulation against the analytic report it must
/// reproduce.
pub fn diff_analytic(cosim: &CosimReport, analytic: &ExecReport) -> CosimDiff {
    CosimDiff {
        oneq_delta: cosim.oneq_cycles as i64 - analytic.oneq_cycles as i64,
        serialization_delta: cosim.serialization_cycles as i64
            - analytic.serialization_cycles as i64,
        slots_delta: cosim.slots as i64 - analytic.slots as i64,
        cz_ns_delta: cosim.cz_ns - analytic.cz_ns,
        total_rel_err: (cosim.total_ns - analytic.total_ns).abs()
            / analytic.total_ns.max(f64::MIN_POSITIVE),
    }
}

/// Bounded event recorder.
struct Tracer {
    on: bool,
    limit: usize,
    events: Vec<TraceEvent>,
    truncated: bool,
}

impl Tracer {
    fn new(params: &CosimParams) -> Self {
        Tracer {
            on: params.trace,
            limit: params.trace_limit,
            events: Vec::new(),
            truncated: false,
        }
    }

    fn push(&mut self, e: TraceEvent) {
        if !self.on {
            return;
        }
        if self.events.len() >= self.limit {
            self.truncated = true;
            return;
        }
        self.events.push(e);
    }
}

fn group_of_qubit(group_of: &[usize], q: usize) -> usize {
    group_of.get(q).copied().unwrap_or(0)
}

/// Per-group member counts over the checkerboard map.
fn group_members(group_of: &[usize]) -> BTreeMap<usize, usize> {
    let mut members: BTreeMap<usize, usize> = BTreeMap::new();
    for &g in group_of {
        *members.entry(g).or_insert(0) += 1;
    }
    if members.is_empty() {
        members.insert(0, 0);
    }
    members
}

/// Select/mask words a slot stages: one per distinct participating qubit
/// (double-buffered, flipped at the slot boundary).
fn staged_words_of_slot(circuit: &Circuit, slot: &Slot) -> u64 {
    let mut qubits: Vec<usize> = slot
        .iter()
        .flat_map(|&gi| circuit.gates()[gi].qubits())
        .collect();
    qubits.sort_unstable();
    qubits.dedup();
    qubits.len() as u64
}

/// Runs the cycle-accurate co-simulation of a lowered, scheduled circuit.
///
/// Consumes exactly what [`crate::exec::execute`] consumes: the physical
/// circuit, its crosstalk-aware slots, the checkerboard `group_of` map,
/// and the execution parameters (wrapped in [`CosimParams`]).
///
/// # Panics
///
/// Panics if a slot references an out-of-range gate, or the circuit
/// contains non-lowered gates.
pub fn simulate(
    circuit: &Circuit,
    slots: &[Slot],
    group_of: &[usize],
    params: &CosimParams,
) -> CosimReport {
    qcircuit::lower::assert_lowered(circuit, "co-simulator");
    match params.exec.config.design {
        ControllerDesign::DigiqOpt { bs } => simulate_opt(circuit, slots, group_of, params, bs),
        _ => simulate_timelines(circuit, slots, group_of, params),
    }
}

/// Per-qubit-timeline machine: Impossible MIMD, SFQ_MIMD_naive,
/// SFQ_MIMD_decomp, DigiQ_min. Every qubit owns an independent sequencer;
/// CZs synchronize their two endpoints and keep schedule-slot order among
/// themselves.
fn simulate_timelines(
    circuit: &Circuit,
    slots: &[Slot],
    group_of: &[usize],
    params: &CosimParams,
) -> CosimReport {
    let cfg = &params.exec.config;
    let model = DelayModel::new(&params.exec);
    let mut draws = SlotDemand::new();
    let cycle_ticks = cfg.cycle_ticks();
    let cz_ticks = cfg.cz_ticks();
    let one_bitstream = matches!(
        cfg.design,
        ControllerDesign::ImpossibleMimd | ControllerDesign::SfqMimdNaive
    );
    // Basis alphabet size for trace playback (mirrors
    // `crate::system::MinBasisKind::for_design`).
    let basis_len = match cfg.design {
        ControllerDesign::DigiqMin { bs } if bs >= 4 => 4,
        _ => 2,
    };

    let mut tracer = Tracer::new(params);
    let mut free_at = vec![0u64; circuit.n_qubits()];
    let mut busy = vec![0u64; circuit.n_qubits()];
    let mut cz_floor = 0u64;
    let mut oneq_cycles = 0u64;
    let mut cz_count = 0u64;
    let mut staged_words = 0u64;

    for (si, slot) in slots.iter().enumerate() {
        staged_words += staged_words_of_slot(circuit, slot);
        let mut slot_cz_end = cz_floor;
        for &gi in slot {
            match circuit.gates()[gi] {
                Gate::Cz { a, b } => {
                    let start = free_at[a].max(free_at[b]).max(cz_floor);
                    let end = start + cz_ticks;
                    busy[a] += cz_ticks;
                    busy[b] += cz_ticks;
                    free_at[a] = end;
                    free_at[b] = end;
                    slot_cz_end = slot_cz_end.max(start);
                    cz_count += 1;
                    tracer.push(TraceEvent {
                        tick: start,
                        slot: si,
                        group: group_of_qubit(group_of, a),
                        qubit: Some(a),
                        kind: TraceKind::Cz,
                        detail: b as u64,
                    });
                }
                Gate::OneQ { q, kind } => {
                    let k = if one_bitstream {
                        1
                    } else {
                        draws.min_depth(&model, kind, q)
                    };
                    if tracer.on {
                        // DigiQ_min sequence playback: one basis firing
                        // per controller cycle, labelled by a
                        // deterministic representative sequence.
                        let salt = qsim::rng::stable_hash(&[
                            params.exec.seed,
                            gate_bin(kind, params.exec.angle_bins),
                            q as u64,
                        ]);
                        let seq = representative_sequence(k, basis_len, salt);
                        for (c, &op) in seq.iter().enumerate() {
                            tracer.push(TraceEvent {
                                tick: free_at[q] + c as u64 * cycle_ticks,
                                slot: si,
                                group: group_of_qubit(group_of, q),
                                qubit: Some(q),
                                kind: TraceKind::Fire,
                                detail: op as u64,
                            });
                        }
                    }
                    let dur = k as u64 * cycle_ticks;
                    free_at[q] += dur;
                    busy[q] += dur;
                    oneq_cycles += if one_bitstream { 1 } else { k as u64 };
                }
                _ => panic!("co-simulator requires a lowered circuit"),
            }
        }
        cz_floor = slot_cz_end;
    }

    let total_ticks = free_at.iter().copied().max().unwrap_or(0);
    let groups = group_members(group_of)
        .into_iter()
        .map(|(g, members)| {
            let busy_ticks: u64 = (0..circuit.n_qubits())
                .filter(|&q| group_of_qubit(group_of, q) == g)
                .map(|q| busy[q])
                .sum();
            let denom = members as u64 * total_ticks;
            GroupActivity {
                group: g,
                members,
                busy_ticks,
                utilization: if denom == 0 {
                    0.0
                } else {
                    busy_ticks as f64 / denom as f64
                },
            }
        })
        .collect();

    CosimReport {
        design: cfg.design,
        total_ticks,
        total_ns: total_ticks as f64 * cfg.clock_period_ns,
        oneq_cycles,
        serialization_cycles: 0,
        cz_count,
        cz_ns: cz_count as f64 * cfg.cz_ns,
        slots: slots.len() as u64,
        staged_words,
        groups,
        slot_serialization: Vec::new(),
        trace_truncated: tracer.truncated,
        trace: tracer.events,
    }
}

/// Slot-synchronous SIMD machine for DigiQ_opt: per-group sequencers
/// broadcasting up to `BS` distinct delay classes per controller cycle.
fn simulate_opt(
    circuit: &Circuit,
    slots: &[Slot],
    group_of: &[usize],
    params: &CosimParams,
    bs: usize,
) -> CosimReport {
    let cfg = &params.exec.config;
    let model = DelayModel::new(&params.exec);
    let cycle_ticks = cfg.cycle_ticks();
    let cz_ticks = cfg.cz_ticks();

    let mut tracer = Tracer::new(params);
    let mut now = 0u64;
    let mut oneq_cycles = 0u64;
    let mut serialization_cycles = 0u64;
    let mut cz_count = 0u64;
    let mut cz_slots = 0u64;
    let mut staged_words = 0u64;
    let mut slot_serialization = Vec::new();
    let mut group_busy_cycles: Vec<u64> = Vec::new();
    let mut demand = SlotDemand::new();
    // Per-group sequencer cursors over the slot's demand runs (reused
    // across slots): next run index, end of the group's runs, and the
    // classes already issued at the current firing position.
    struct Cursor {
        group: usize,
        next: usize,
        end: usize,
        issued: usize,
    }
    let mut cursors: Vec<Cursor> = Vec::new();

    for (si, slot) in slots.iter().enumerate() {
        let words = staged_words_of_slot(circuit, slot);
        staged_words += words;
        tracer.push(TraceEvent {
            tick: now,
            slot: si,
            group: 0,
            qubit: None,
            kind: TraceKind::Stage,
            detail: words,
        });

        demand.gather(circuit, slot, group_of, &model);
        let slot_cz = demand.cz_count();
        if tracer.on {
            for &gi in slot {
                if let Gate::Cz { a, b } = circuit.gates()[gi] {
                    tracer.push(TraceEvent {
                        tick: now,
                        slot: si,
                        group: group_of_qubit(group_of, a),
                        qubit: Some(a),
                        kind: TraceKind::Cz,
                        detail: b as u64,
                    });
                }
            }
        }

        let runs = demand.runs();
        cursors.clear();
        let mut start = 0;
        for group_runs in demand.groups() {
            let group = group_runs[0].group;
            if group_busy_cycles.len() <= group {
                group_busy_cycles.resize(group + 1, 0);
            }
            cursors.push(Cursor {
                group,
                next: start,
                end: start + group_runs.len(),
                issued: 0,
            });
            start += group_runs.len();
        }

        // Per-cycle engine: every unfinished group issues up to BS delay
        // classes at its current firing position each controller cycle;
        // a position spilling past its first sub-cycle is contention.
        let mut cycles_this_slot = 0u64;
        let mut ser_this_slot = 0u64;
        loop {
            let mut issued_any = false;
            for cur in cursors.iter_mut() {
                if cur.next >= cur.end {
                    continue;
                }
                issued_any = true;
                let distinct = runs[cur.next].distinct;
                if cur.issued > 0 {
                    // Continuation sub-cycle at the same firing position:
                    // pure delay-slot contention.
                    ser_this_slot += 1;
                }
                let take = bs.min(distinct - cur.issued);
                tracer.push(TraceEvent {
                    tick: now + cycles_this_slot * cycle_ticks,
                    slot: si,
                    group: cur.group,
                    qubit: None,
                    kind: TraceKind::Broadcast,
                    detail: take as u64,
                });
                cur.issued += take;
                if cur.issued >= distinct {
                    cur.next += 1;
                    cur.issued = 0;
                }
                group_busy_cycles[cur.group] += 1;
            }
            if !issued_any {
                break;
            }
            cycles_this_slot += 1;
        }

        oneq_cycles += cycles_this_slot;
        serialization_cycles += ser_this_slot;
        if ser_this_slot > 0 {
            slot_serialization.push(SlotSerialization {
                slot: si,
                cycles: ser_this_slot,
            });
        }

        let mut slot_ticks = cycles_this_slot * cycle_ticks;
        if slot_cz > 0 {
            slot_ticks = slot_ticks.max(cz_ticks);
            cz_slots += 1;
            cz_count += slot_cz;
        }
        now += slot_ticks;
    }

    let total_ticks = now;
    let groups = group_members(group_of)
        .into_iter()
        .map(|(g, members)| {
            let busy_ticks = group_busy_cycles.get(g).copied().unwrap_or(0) * cycle_ticks;
            GroupActivity {
                group: g,
                members,
                busy_ticks,
                utilization: if total_ticks == 0 {
                    0.0
                } else {
                    busy_ticks as f64 / total_ticks as f64
                },
            }
        })
        .collect();

    CosimReport {
        design: cfg.design,
        total_ticks,
        total_ns: total_ticks as f64 * cfg.clock_period_ns,
        oneq_cycles,
        serialization_cycles,
        cz_count,
        // The analytic model charges CZ occupancy once per occupied slot
        // on the slot-synchronous design.
        cz_ns: cz_slots as f64 * cfg.cz_ns,
        slots: slots.len() as u64,
        staged_words,
        groups,
        slot_serialization,
        trace_truncated: tracer.truncated,
        trace: tracer.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::SystemConfig;
    use crate::exec::{checkerboard_groups, execute};
    use qcircuit::ir::Circuit;
    use qcircuit::schedule::schedule_crosstalk_aware;
    use qcircuit::topology::Grid;

    fn setup(
        design: ControllerDesign,
        c: &Circuit,
        grid: &Grid,
    ) -> (Vec<Slot>, Vec<usize>, ExecParams) {
        let slots = schedule_crosstalk_aware(c, grid);
        let groups = checkerboard_groups(grid.cols(), c.n_qubits(), 2);
        let mut params = ExecParams::new(SystemConfig::paper_default(design, 2));
        params.config.n_qubits = c.n_qubits();
        (slots, groups, params)
    }

    fn rotations(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(q, 0.1 + 0.05 * q as f64);
        }
        c
    }

    #[test]
    fn opt_matches_analytic_counts() {
        let grid = Grid::new(4, 4);
        let mut c = rotations(16);
        for q in (0..15).step_by(2) {
            c.cz(q, q + 1);
        }
        for bs in [2usize, 4, 16] {
            let (slots, groups, params) = setup(ControllerDesign::DigiqOpt { bs }, &c, &grid);
            let cosim = simulate(&c, &slots, &groups, &CosimParams::new(params.clone()));
            let analytic = execute(&c, &slots, &groups, &params);
            let d = diff_analytic(&cosim, &analytic);
            assert!(d.is_exact(1e-9), "BS={bs}: {d:?}");
            // Sparse attribution sums to the aggregate counter.
            let attributed: u64 = cosim.slot_serialization.iter().map(|s| s.cycles).sum();
            assert_eq!(attributed, cosim.serialization_cycles);
        }
    }

    #[test]
    fn timeline_designs_match_analytic_counts() {
        let grid = Grid::new(4, 4);
        let mut c = rotations(16);
        c.cz(0, 1);
        c.h(0);
        for design in [
            ControllerDesign::ImpossibleMimd,
            ControllerDesign::SfqMimdNaive,
            ControllerDesign::SfqMimdDecomp,
            ControllerDesign::DigiqMin { bs: 2 },
        ] {
            let (slots, groups, params) = setup(design, &c, &grid);
            let cosim = simulate(&c, &slots, &groups, &CosimParams::new(params.clone()));
            let analytic = execute(&c, &slots, &groups, &params);
            let d = diff_analytic(&cosim, &analytic);
            assert!(d.is_exact(1e-9), "{design}: {d:?}");
            assert_eq!(cosim.serialization_cycles, 0);
        }
    }

    #[test]
    fn utilization_is_a_duty_fraction() {
        let grid = Grid::new(4, 4);
        let c = rotations(16);
        let (slots, groups, params) = setup(ControllerDesign::DigiqOpt { bs: 4 }, &c, &grid);
        let r = simulate(&c, &slots, &groups, &CosimParams::new(params));
        assert_eq!(r.groups.len(), 2, "checkerboard has two groups");
        for g in &r.groups {
            assert!((0.0..=1.0).contains(&g.utilization), "{g:?}");
            assert!(g.busy_ticks > 0);
            assert_eq!(g.members, 8);
        }
    }

    #[test]
    fn trace_records_playback_and_respects_cap() {
        let grid = Grid::new(2, 2);
        let mut c = Circuit::new(4);
        c.h(0);
        c.cz(0, 1);
        let (slots, groups, params) = setup(ControllerDesign::DigiqMin { bs: 2 }, &c, &grid);
        let traced = simulate(
            &c,
            &slots,
            &groups,
            &CosimParams::new(params.clone()).with_trace(),
        );
        // One Fire event per charged controller cycle, plus the CZ.
        let fires = traced
            .trace
            .iter()
            .filter(|e| e.kind == TraceKind::Fire)
            .count() as u64;
        assert_eq!(fires, traced.oneq_cycles);
        assert!(traced.trace.iter().any(|e| e.kind == TraceKind::Cz));
        assert!(traced
            .trace
            .iter()
            .all(|e| e.detail < 2 || e.kind != TraceKind::Fire));
        assert!(!traced.trace_truncated);
        // A tiny cap truncates without changing the timing result.
        let mut capped_params = CosimParams::new(params).with_trace();
        capped_params.trace_limit = 1;
        let capped = simulate(&c, &slots, &groups, &capped_params);
        assert!(capped.trace_truncated);
        assert_eq!(capped.trace.len(), 1);
        assert_eq!(capped.total_ticks, traced.total_ticks);
    }

    #[test]
    fn report_json_round_trips() {
        let grid = Grid::new(4, 4);
        let mut c = rotations(16);
        c.cz(0, 1);
        let (slots, groups, params) = setup(ControllerDesign::DigiqOpt { bs: 2 }, &c, &grid);
        let r = simulate(&c, &slots, &groups, &CosimParams::new(params).with_trace());
        assert!(!r.trace.is_empty());
        let j = r.to_json();
        assert_eq!(CosimReport::from_json(&j), Ok(r.clone()));
        // Text round-trip too.
        let parsed = Json::parse(&r.to_json_string()).unwrap();
        assert_eq!(CosimReport::from_json(&parsed), Ok(r));
    }

    #[test]
    fn empty_schedule_is_zero_time() {
        let grid = Grid::new(2, 2);
        let c = Circuit::new(4);
        let (slots, groups, params) = setup(ControllerDesign::DigiqOpt { bs: 4 }, &c, &grid);
        let r = simulate(&c, &slots, &groups, &CosimParams::new(params));
        assert_eq!(r.total_ticks, 0);
        assert_eq!(r.slots, 0);
        assert_eq!(r.oneq_cycles, 0);
    }
}
