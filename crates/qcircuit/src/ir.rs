//! Quantum circuit intermediate representation.
//!
//! A [`Circuit`] is an ordered gate list over `n` qubits, rich enough to
//! express the paper's NISQ benchmarks (Table IV) before compilation:
//! named single-qubit gates, arbitrary rotations, `CX`/`CZ`/`SWAP`, and
//! Toffoli. The DigiQ lowering pass (`crate::lower`) rewrites everything
//! into the hardware set {1q, CZ}.
//!
//! # Examples
//!
//! ```
//! use qcircuit::ir::Circuit;
//!
//! let mut c = Circuit::new(2);
//! c.h(0);
//! c.cx(0, 1); // Bell pair
//! assert_eq!(c.len(), 2);
//! assert_eq!(c.two_qubit_count(), 1);
//! ```

use std::f64::consts::PI;
use std::fmt;

/// A single-qubit gate kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OneQ {
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate √Z.
    S,
    /// Inverse phase gate.
    Sdg,
    /// π/8 gate √S.
    T,
    /// Inverse π/8 gate.
    Tdg,
    /// Rotation about x by the angle.
    Rx(f64),
    /// Rotation about y by the angle.
    Ry(f64),
    /// Rotation about z by the angle.
    Rz(f64),
    /// General ZYZ unitary `Rz(phi)·Ry(theta)·Rz(lam)`.
    U {
        /// Middle Y-rotation angle.
        theta: f64,
        /// Leading Z-rotation angle.
        phi: f64,
        /// Trailing Z-rotation angle.
        lam: f64,
    },
}

impl OneQ {
    /// The 2×2 matrix of this gate.
    pub fn matrix(self) -> qsim::CMat {
        use qsim::gates as g;
        match self {
            OneQ::H => g::h(),
            OneQ::X => g::x(),
            OneQ::Y => g::y(),
            OneQ::Z => g::z(),
            OneQ::S => g::s(),
            OneQ::Sdg => g::sdg(),
            OneQ::T => g::t(),
            OneQ::Tdg => g::tdg(),
            OneQ::Rx(a) => g::rx(a),
            OneQ::Ry(a) => g::ry(a),
            OneQ::Rz(a) => g::rz(a),
            OneQ::U { theta, phi, lam } => g::u_zyz(theta, phi, lam),
        }
    }

    /// True for gates that are diagonal in the computational basis
    /// (virtualizable as frame updates on microwave hardware; performed by
    /// free-evolution delay on DigiQ, §IV-A2).
    pub fn is_diagonal(self) -> bool {
        matches!(
            self,
            OneQ::Z | OneQ::S | OneQ::Sdg | OneQ::T | OneQ::Tdg | OneQ::Rz(_)
        )
    }
}

/// A circuit gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Single-qubit gate on `q`.
    OneQ {
        /// Target qubit.
        q: usize,
        /// Gate kind.
        kind: OneQ,
    },
    /// Controlled-X with control `c` and target `t`.
    Cx {
        /// Control qubit.
        c: usize,
        /// Target qubit.
        t: usize,
    },
    /// Controlled-Z (symmetric).
    Cz {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Swap of two qubits.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Toffoli (CCX) with controls `c1`, `c2` and target `t`.
    Ccx {
        /// First control.
        c1: usize,
        /// Second control.
        c2: usize,
        /// Target.
        t: usize,
    },
}

/// The qubits of one gate, held inline (no heap allocation) — what the
/// compile-path hot loops (`moments`, the schedulers, the validators)
/// iterate instead of the `Vec` returned by [`Gate::qubits`].
#[derive(Debug, Clone, Copy)]
pub struct GateQubits {
    buf: [usize; 3],
    len: u8,
}

impl GateQubits {
    /// The qubits as a slice (1–3 entries).
    pub fn as_slice(&self) -> &[usize] {
        &self.buf[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a GateQubits {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Gate {
    /// The qubits this gate touches.
    pub fn qubits(&self) -> Vec<usize> {
        self.qubits_inline().as_slice().to_vec()
    }

    /// The qubits this gate touches, without allocating.
    pub fn qubits_inline(&self) -> GateQubits {
        let (buf, len) = match *self {
            Gate::OneQ { q, .. } => ([q, 0, 0], 1),
            Gate::Cx { c, t } => ([c, t, 0], 2),
            Gate::Cz { a, b } => ([a, b, 0], 2),
            Gate::Swap { a, b } => ([a, b, 0], 2),
            Gate::Ccx { c1, c2, t } => ([c1, c2, t], 3),
        };
        GateQubits { buf, len }
    }

    /// True for any multi-qubit gate.
    pub fn is_multi_qubit(&self) -> bool {
        !matches!(self, Gate::OneQ { .. })
    }
}

fn hash_oneq(kind: OneQ, h: &mut qsim::rng::StableHasher) {
    match kind {
        OneQ::H => h.write_u8(0),
        OneQ::X => h.write_u8(1),
        OneQ::Y => h.write_u8(2),
        OneQ::Z => h.write_u8(3),
        OneQ::S => h.write_u8(4),
        OneQ::Sdg => h.write_u8(5),
        OneQ::T => h.write_u8(6),
        OneQ::Tdg => h.write_u8(7),
        OneQ::Rx(a) => {
            h.write_u8(8);
            h.write_u64(a.to_bits());
        }
        OneQ::Ry(a) => {
            h.write_u8(9);
            h.write_u64(a.to_bits());
        }
        OneQ::Rz(a) => {
            h.write_u8(10);
            h.write_u64(a.to_bits());
        }
        OneQ::U { theta, phi, lam } => {
            h.write_u8(11);
            h.write_u64(theta.to_bits());
            h.write_u64(phi.to_bits());
            h.write_u64(lam.to_bits());
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::OneQ { q, kind } => write!(f, "{kind:?} q{q}"),
            Gate::Cx { c, t } => write!(f, "CX q{c},q{t}"),
            Gate::Cz { a, b } => write!(f, "CZ q{a},q{b}"),
            Gate::Swap { a, b } => write!(f, "SWAP q{a},q{b}"),
            Gate::Ccx { c1, c2, t } => write!(f, "CCX q{c1},q{c2},q{t}"),
        }
    }
}

/// An ordered gate list over a fixed set of qubits.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits`.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when no gates have been added.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate list.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Clears the circuit in place for reuse as a builder over
    /// `n_qubits`, keeping the gate buffer's capacity (the workspace
    /// idiom of the routers: repeated compiles stop reallocating once
    /// the buffer has grown to the largest circuit seen).
    pub fn reset(&mut self, n_qubits: usize) {
        self.n_qubits = n_qubits;
        self.gates.clear();
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if any referenced qubit is out of range, or a multi-qubit
    /// gate repeats a qubit.
    pub fn push(&mut self, gate: Gate) {
        let qs = gate.qubits_inline();
        let qs = qs.as_slice();
        for &q in qs {
            assert!(
                q < self.n_qubits,
                "qubit {q} out of range {}",
                self.n_qubits
            );
        }
        for i in 0..qs.len() {
            for j in i + 1..qs.len() {
                assert_ne!(qs[i], qs[j], "gate repeats qubit {}", qs[i]);
            }
        }
        self.gates.push(gate);
    }

    /// Structural fingerprint of the circuit, stable across runs,
    /// processes, and toolchains (`qsim::rng::StableHasher`, not std's
    /// release-dependent `DefaultHasher`): qubit count plus every gate
    /// (kind, operands, exact angle bits). Two circuits share a key iff
    /// they are gate-for-gate identical, so the evaluation engine can use
    /// it to memoize compiled artifacts (`digiq_core::engine`).
    pub fn cache_key(&self) -> u64 {
        let mut h = qsim::rng::StableHasher::new();
        h.write_usize(self.n_qubits);
        for g in &self.gates {
            match *g {
                Gate::OneQ { q, kind } => {
                    h.write_u8(0);
                    h.write_usize(q);
                    hash_oneq(kind, &mut h);
                }
                Gate::Cx { c, t } => {
                    h.write_u8(1);
                    h.write_usize(c);
                    h.write_usize(t);
                }
                Gate::Cz { a, b } => {
                    h.write_u8(2);
                    h.write_usize(a);
                    h.write_usize(b);
                }
                Gate::Swap { a, b } => {
                    h.write_u8(3);
                    h.write_usize(a);
                    h.write_usize(b);
                }
                Gate::Ccx { c1, c2, t } => {
                    h.write_u8(4);
                    h.write_usize(c1);
                    h.write_usize(c2);
                    h.write_usize(t);
                }
            }
        }
        h.finish()
    }

    /// Appends every gate of `other` (qubit indices unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than `self`.
    pub fn extend(&mut self, other: &Circuit) {
        assert!(other.n_qubits <= self.n_qubits);
        for &g in other.gates() {
            self.push(g);
        }
    }

    // -- builder conveniences ------------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) {
        self.push(Gate::OneQ { q, kind: OneQ::H });
    }

    /// Pauli X on `q`.
    pub fn x(&mut self, q: usize) {
        self.push(Gate::OneQ { q, kind: OneQ::X });
    }

    /// Pauli Y on `q`.
    pub fn y(&mut self, q: usize) {
        self.push(Gate::OneQ { q, kind: OneQ::Y });
    }

    /// Pauli Z on `q`.
    pub fn z(&mut self, q: usize) {
        self.push(Gate::OneQ { q, kind: OneQ::Z });
    }

    /// S on `q`.
    pub fn s(&mut self, q: usize) {
        self.push(Gate::OneQ { q, kind: OneQ::S });
    }

    /// T on `q`.
    pub fn t(&mut self, q: usize) {
        self.push(Gate::OneQ { q, kind: OneQ::T });
    }

    /// T† on `q`.
    pub fn tdg(&mut self, q: usize) {
        self.push(Gate::OneQ { q, kind: OneQ::Tdg });
    }

    /// Rx(angle) on `q`.
    pub fn rx(&mut self, q: usize, angle: f64) {
        self.push(Gate::OneQ {
            q,
            kind: OneQ::Rx(angle),
        });
    }

    /// Ry(angle) on `q`.
    pub fn ry(&mut self, q: usize, angle: f64) {
        self.push(Gate::OneQ {
            q,
            kind: OneQ::Ry(angle),
        });
    }

    /// Rz(angle) on `q`.
    pub fn rz(&mut self, q: usize, angle: f64) {
        self.push(Gate::OneQ {
            q,
            kind: OneQ::Rz(angle),
        });
    }

    /// CX with control `c`, target `t`.
    pub fn cx(&mut self, c: usize, t: usize) {
        self.push(Gate::Cx { c, t });
    }

    /// CZ between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.push(Gate::Cz { a, b });
    }

    /// SWAP between `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.push(Gate::Swap { a, b });
    }

    /// Toffoli.
    pub fn ccx(&mut self, c1: usize, c2: usize, t: usize) {
        self.push(Gate::Ccx { c1, c2, t });
    }

    // -- analysis ------------------------------------------------------

    /// Count of multi-qubit gates.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_multi_qubit()).count()
    }

    /// Count of single-qubit gates.
    pub fn one_qubit_count(&self) -> usize {
        self.len() - self.two_qubit_count()
    }

    /// ASAP depth: the number of parallel layers when gates on disjoint
    /// qubits may run simultaneously.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for g in &self.gates {
            let qs = g.qubits_inline();
            let l = qs.as_slice().iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &qs {
                level[q] = l;
            }
            depth = depth.max(l);
        }
        depth
    }

    /// ASAP layering: partitions gate indices into parallel moments.
    pub fn moments(&self) -> Vec<Vec<usize>> {
        let mut scratch = MomentScratch::default();
        self.moments_into(&mut scratch);
        scratch.moments.truncate(scratch.active);
        scratch.moments
    }

    /// ASAP layering into reusable scratch buffers: the workspace form
    /// of [`Circuit::moments`] the schedulers run so repeated compiles
    /// stop allocating per dependency level. Read the result with
    /// [`MomentScratch::slots`].
    pub fn moments_into(&self, scratch: &mut MomentScratch) {
        scratch.level.clear();
        scratch.level.resize(self.n_qubits, 0);
        scratch.active = 0;
        for (i, g) in self.gates.iter().enumerate() {
            let qs = g.qubits_inline();
            let l = qs
                .as_slice()
                .iter()
                .map(|&q| scratch.level[q])
                .max()
                .unwrap_or(0);
            for &q in &qs {
                scratch.level[q] = l + 1;
            }
            while scratch.active <= l {
                if scratch.active == scratch.moments.len() {
                    scratch.moments.push(Vec::new());
                } else {
                    scratch.moments[scratch.active].clear();
                }
                scratch.active += 1;
            }
            scratch.moments[l].push(i);
        }
    }

    /// Average gate parallelism: gates per moment.
    pub fn parallelism(&self) -> f64 {
        let d = self.depth();
        if d == 0 {
            0.0
        } else {
            self.len() as f64 / d as f64
        }
    }
}

/// Reusable scratch for [`Circuit::moments_into`]: per-qubit dependency
/// levels plus a pool of moment buckets that grows to the deepest
/// circuit seen and is then reused allocation-free.
#[derive(Debug, Default)]
pub struct MomentScratch {
    level: Vec<usize>,
    moments: Vec<Vec<usize>>,
    active: usize,
}

impl MomentScratch {
    /// The moments of the last [`Circuit::moments_into`] call (gate
    /// indices per parallel layer, in program order).
    pub fn slots(&self) -> &[Vec<usize>] {
        &self.moments[..self.active]
    }
}

/// Statevector simulation of small circuits — the correctness oracle for
/// the benchmark generators (adders add, Grover finds, BV recovers its
/// secret). Practical up to ~20 qubits.
#[derive(Debug, Clone)]
pub struct StateVector {
    n_qubits: usize,
    /// Amplitudes indexed by basis state; qubit 0 is the **most
    /// significant bit** (big-endian, matching `|q0 q1 …⟩` notation).
    pub amps: Vec<qsim::C64>,
}

impl StateVector {
    /// The all-zeros computational basis state.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 26` (amplitude vector would exceed memory).
    pub fn zero(n_qubits: usize) -> Self {
        assert!(n_qubits <= 26, "statevector too large");
        let mut amps = vec![qsim::C64::ZERO; 1 << n_qubits];
        amps[0] = qsim::C64::ONE;
        StateVector { n_qubits, amps }
    }

    /// A computational basis state given per-qubit bits (big-endian).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() > 26`.
    pub fn basis(bits: &[bool]) -> Self {
        let mut sv = Self::zero(bits.len());
        sv.amps[0] = qsim::C64::ZERO;
        let mut idx = 0usize;
        for &b in bits {
            idx = (idx << 1) | b as usize;
        }
        sv.amps[idx] = qsim::C64::ONE;
        sv
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn bit_of(&self, q: usize) -> usize {
        // Big-endian: qubit 0 owns the top bit.
        self.n_qubits - 1 - q
    }

    /// Applies a 2×2 unitary to qubit `q`.
    pub fn apply_1q(&mut self, q: usize, m: &qsim::CMat) {
        let bit = 1usize << self.bit_of(q);
        let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        for i in 0..self.amps.len() {
            if i & bit == 0 {
                let j = i | bit;
                let (a0, a1) = (self.amps[i], self.amps[j]);
                self.amps[i] = m00 * a0 + m01 * a1;
                self.amps[j] = m10 * a0 + m11 * a1;
            }
        }
    }

    /// Applies a full circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, c: &Circuit) {
        assert!(c.n_qubits() <= self.n_qubits);
        for g in c.gates() {
            self.apply_gate(g);
        }
    }

    /// Applies one gate.
    pub fn apply_gate(&mut self, g: &Gate) {
        match *g {
            Gate::OneQ { q, kind } => self.apply_1q(q, &kind.matrix()),
            Gate::Cx { c, t } => {
                let cb = 1usize << self.bit_of(c);
                let tb = 1usize << self.bit_of(t);
                for i in 0..self.amps.len() {
                    if i & cb != 0 && i & tb == 0 {
                        self.amps.swap(i, i | tb);
                    }
                }
            }
            Gate::Cz { a, b } => {
                let ab = 1usize << self.bit_of(a);
                let bb = 1usize << self.bit_of(b);
                for i in 0..self.amps.len() {
                    if i & ab != 0 && i & bb != 0 {
                        self.amps[i] = -self.amps[i];
                    }
                }
            }
            Gate::Swap { a, b } => {
                let ab = 1usize << self.bit_of(a);
                let bb = 1usize << self.bit_of(b);
                for i in 0..self.amps.len() {
                    if i & ab != 0 && i & bb == 0 {
                        self.amps.swap(i, (i & !ab) | bb);
                    }
                }
            }
            Gate::Ccx { c1, c2, t } => {
                let c1b = 1usize << self.bit_of(c1);
                let c2b = 1usize << self.bit_of(c2);
                let tb = 1usize << self.bit_of(t);
                for i in 0..self.amps.len() {
                    if i & c1b != 0 && i & c2b != 0 && i & tb == 0 {
                        self.amps.swap(i, i | tb);
                    }
                }
            }
        }
    }

    /// Probability of measuring basis state `idx` (big-endian).
    pub fn probability(&self, idx: usize) -> f64 {
        self.amps[idx].abs2()
    }

    /// The most likely basis state and its probability.
    pub fn argmax(&self) -> (usize, f64) {
        let mut best = (0usize, 0.0f64);
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.abs2();
            if p > best.1 {
                best = (i, p);
            }
        }
        best
    }

    /// Marginal probability that qubit `q` reads 1.
    pub fn prob_one(&self, q: usize) -> f64 {
        let bit = 1usize << self.bit_of(q);
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.abs2())
            .sum()
    }

    /// Total norm (should stay 1 under unitary circuits).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.abs2()).sum::<f64>().sqrt()
    }
}

/// Basis-state simulation of classical reversible circuits.
///
/// X, CX, CCX and SWAP permute computational basis states, so a circuit
/// built only from them maps a basis state to one basis state: one bit
/// per qubit and one step per gate, at any qubit count. This is the
/// oracle for arithmetic generators (adders), where a [`StateVector`]
/// would need `2^n` amplitudes. Any other gate is refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisState {
    bits: Vec<bool>,
}

impl BasisState {
    /// The all-zeros basis state.
    pub fn zero(n_qubits: usize) -> Self {
        BasisState {
            bits: vec![false; n_qubits],
        }
    }

    /// The value of qubit `q`.
    pub fn bit(&self, q: usize) -> bool {
        self.bits[q]
    }

    /// Applies one gate, or returns it unapplied if it is not a basis
    /// permutation (a one-qubit gate other than X, or CZ).
    pub fn apply_gate(&mut self, g: &Gate) -> Result<(), Gate> {
        match *g {
            Gate::OneQ { q, kind: OneQ::X } => self.bits[q] ^= true,
            Gate::Cx { c, t } => self.bits[t] ^= self.bits[c],
            Gate::Ccx { c1, c2, t } => self.bits[t] ^= self.bits[c1] && self.bits[c2],
            Gate::Swap { a, b } => self.bits.swap(a, b),
            Gate::OneQ { .. } | Gate::Cz { .. } => return Err(*g),
        }
        Ok(())
    }

    /// Applies a full circuit, stopping at (and returning) the first gate
    /// that is not a basis permutation.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, c: &Circuit) -> Result<(), Gate> {
        assert!(c.n_qubits() <= self.bits.len());
        c.gates().iter().try_for_each(|g| self.apply_gate(g))
    }
}

/// Returns angle wrapped into `(−π, π]` — convenient when comparing
/// compiled rotation parameters.
pub fn wrap_angle(a: f64) -> f64 {
    let mut x = a.rem_euclid(2.0 * PI);
    if x > PI {
        x -= 2.0 * PI;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.ccx(0, 1, 2);
        c.rz(2, 0.5);
        assert_eq!(c.len(), 4);
        assert_eq!(c.two_qubit_count(), 2);
        assert_eq!(c.one_qubit_count(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_qubit_rejected() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    #[should_panic]
    fn repeated_qubit_rejected() {
        let mut c = Circuit::new(2);
        c.cx(1, 1);
    }

    #[test]
    fn depth_and_moments() {
        let mut c = Circuit::new(4);
        c.h(0);
        c.h(1); // same moment as h(0)
        c.cx(0, 1); // moment 2
        c.h(2); // moment 1
        c.cx(2, 3); // moment 2
        assert_eq!(c.depth(), 2);
        let m = c.moments();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], vec![0, 1, 3]);
        assert_eq!(m[1], vec![2, 4]);
        assert!((c.parallelism() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let mut sv = StateVector::zero(2);
        sv.apply_circuit(&c);
        assert!((sv.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((sv.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(sv.probability(0b01) < 1e-12);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cz_phase_and_symmetry() {
        // |11⟩ acquires −1; order of arguments irrelevant.
        let mut a = StateVector::basis(&[true, true]);
        a.apply_gate(&Gate::Cz { a: 0, b: 1 });
        assert!((a.amps[3].re + 1.0).abs() < 1e-12);

        let mut b = StateVector::basis(&[true, true]);
        b.apply_gate(&Gate::Cz { a: 1, b: 0 });
        assert!((b.amps[3].re + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cx_truth_table() {
        for (c_in, t_in, t_out) in [
            (false, false, false),
            (false, true, true),
            (true, false, true),
            (true, true, false),
        ] {
            let mut sv = StateVector::basis(&[c_in, t_in]);
            sv.apply_gate(&Gate::Cx { c: 0, t: 1 });
            let expect = ((c_in as usize) << 1) | t_out as usize;
            assert!((sv.probability(expect) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ccx_truth_table() {
        for x in 0..8usize {
            let bits = [(x & 4) != 0, (x & 2) != 0, (x & 1) != 0];
            let mut sv = StateVector::basis(&bits);
            sv.apply_gate(&Gate::Ccx { c1: 0, c2: 1, t: 2 });
            let flip = bits[0] && bits[1];
            let expect = (x & !1) | ((bits[2] ^ flip) as usize);
            assert!((sv.probability(expect) - 1.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn swap_exchanges_bits() {
        let mut sv = StateVector::basis(&[true, false]);
        sv.apply_gate(&Gate::Swap { a: 0, b: 1 });
        assert!((sv.probability(0b01) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_equals_three_cx() {
        let mut c1 = Circuit::new(2);
        c1.swap(0, 1);
        let mut c2 = Circuit::new(2);
        c2.cx(0, 1);
        c2.cx(1, 0);
        c2.cx(0, 1);
        for basis in 0..4usize {
            let bits = [(basis & 2) != 0, (basis & 1) != 0];
            let mut a = StateVector::basis(&bits);
            let mut b = StateVector::basis(&bits);
            a.apply_circuit(&c1);
            b.apply_circuit(&c2);
            for i in 0..4 {
                assert!(a.amps[i].approx_eq(b.amps[i], 1e-12));
            }
        }
    }

    #[test]
    fn rotations_behave() {
        // Rx(π)|0⟩ = −i|1⟩.
        let mut sv = StateVector::zero(1);
        sv.apply_gate(&Gate::OneQ {
            q: 0,
            kind: OneQ::Rx(PI),
        });
        assert!((sv.prob_one(0) - 1.0).abs() < 1e-12);
        // T is diagonal.
        assert!(OneQ::T.is_diagonal());
        assert!(!OneQ::H.is_diagonal());
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn argmax_finds_peak() {
        let mut c = Circuit::new(3);
        c.x(1);
        let mut sv = StateVector::zero(3);
        sv.apply_circuit(&c);
        let (idx, p) = sv.argmax();
        assert_eq!(idx, 0b010);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_angle_range() {
        assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-PI / 2.0) + PI / 2.0).abs() < 1e-12);
        assert!((wrap_angle(2.0 * PI)).abs() < 1e-12);
    }

    #[test]
    fn cache_key_distinguishes_structure() {
        let mut a = Circuit::new(3);
        a.h(0);
        a.cz(0, 1);
        let mut b = Circuit::new(3);
        b.h(0);
        b.cz(0, 1);
        assert_eq!(a.cache_key(), b.cache_key());

        // Different operand order, gate kind, angle, or width all differ.
        let mut c = Circuit::new(3);
        c.h(0);
        c.cz(1, 0);
        assert_ne!(a.cache_key(), c.cache_key());
        let mut d = Circuit::new(3);
        d.h(0);
        d.cx(0, 1);
        assert_ne!(a.cache_key(), d.cache_key());
        let mut e = Circuit::new(3);
        e.rx(0, 0.5);
        let mut f = Circuit::new(3);
        f.rx(0, 0.5 + 1e-15);
        assert_ne!(e.cache_key(), f.cache_key());
        assert_ne!(
            Circuit::new(2).cache_key(),
            Circuit::new(3).cache_key(),
            "width must be part of the key"
        );
    }

    #[test]
    fn basis_state_matches_statevector_on_classical_circuits() {
        use qsim::rng::StdRng;
        let n = 6;
        for case in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut c = Circuit::new(n);
            for _ in 0..30 {
                let q: Vec<usize> = (0..3).map(|_| rng.gen_range(0..n)).collect();
                match rng.gen_range(0..4usize) {
                    0 => c.x(q[0]),
                    1 if q[0] != q[1] => c.cx(q[0], q[1]),
                    2 if q[0] != q[1] => c.swap(q[0], q[1]),
                    3 if q[0] != q[1] && q[1] != q[2] && q[0] != q[2] => c.ccx(q[0], q[1], q[2]),
                    _ => {}
                }
            }
            let mut basis = BasisState::zero(n);
            basis.apply_circuit(&c).expect("classical gates only");
            let mut sv = StateVector::zero(n);
            sv.apply_circuit(&c);
            let (idx, p) = sv.argmax();
            assert!(p > 1.0 - 1e-12, "case {case}");
            for q in 0..n {
                assert_eq!(
                    basis.bit(q),
                    (idx >> (n - 1 - q)) & 1 == 1,
                    "case {case}, qubit {q}"
                );
            }
        }
    }

    #[test]
    fn basis_state_refuses_non_classical_gates() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.h(1);
        c.cx(0, 1);
        let mut basis = BasisState::zero(2);
        assert_eq!(
            basis.apply_circuit(&c),
            Err(Gate::OneQ {
                q: 1,
                kind: OneQ::H
            })
        );
        // Gates before the refused one were applied; none after it.
        assert!(basis.bit(0) && !basis.bit(1));
        for g in [
            Gate::Cz { a: 0, b: 1 },
            Gate::OneQ {
                q: 0,
                kind: OneQ::Z,
            },
            Gate::OneQ {
                q: 0,
                kind: OneQ::Rx(PI),
            },
        ] {
            assert_eq!(BasisState::zero(2).apply_gate(&g), Err(g));
        }
    }
}
