//! NISQ benchmark circuit generators (paper Table IV).
//!
//! | Name   | Paper description                                  | Generator |
//! |--------|-----------------------------------------------------|-----------|
//! | QGAN   | quantum generative adversarial network [59]         | [`qgan`] |
//! | Ising  | linear Ising-model spin-chain simulation [60]       | [`ising_chain`] |
//! | BV     | 1024-bit Bernstein–Vazirani [61]                    | [`bernstein_vazirani`] |
//! | Add1   | 256-bit ripple-carry adder [62]                     | [`cuccaro_adder`] |
//! | Add2   | 256-bit parallel carry-lookahead adder [63]         | [`block_lookahead_adder`] |
//! | Sqrt10 | 10-bit square root via Grover search [64]–[66]      | [`grover_sqrt`] |
//!
//! All circuits are "algorithmically generated" (§VI-B) and validated by
//! statevector simulation on small instances. `Add2` substitutes a
//! block-carry-lookahead structure for Draper's prefix adder: same
//! contract (a parallel adder whose depth is ~6× shallower than
//! ripple-carry at 256 bits, with matching gate parallelism profile) with
//! a fraction of the ancilla bookkeeping (see DESIGN.md).

use crate::ir::Circuit;
use qsim::rng::StdRng;
use std::f64::consts::PI;

/// Identifies one of the paper's six benchmarks; used by the evaluation
/// harnesses to iterate the full Table IV suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Quantum GAN ansatz.
    Qgan,
    /// Linear Ising chain Trotterization.
    Ising,
    /// Bernstein–Vazirani.
    Bv,
    /// Cuccaro ripple-carry adder.
    Add1,
    /// Block carry-lookahead adder.
    Add2,
    /// Grover square root.
    Sqrt10,
}

/// All benchmarks in the paper's presentation order (Fig 9's x-axis).
pub const ALL_BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Qgan,
    Benchmark::Ising,
    Benchmark::Bv,
    Benchmark::Add1,
    Benchmark::Add2,
    Benchmark::Sqrt10,
];

impl Benchmark {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Qgan => "QGAN",
            Benchmark::Ising => "Ising",
            Benchmark::Bv => "BV",
            Benchmark::Add1 => "Add1",
            Benchmark::Add2 => "Add2",
            Benchmark::Sqrt10 => "Sqrt10",
        }
    }

    /// Parses a display name (as printed by [`Benchmark::name`],
    /// case-insensitive) back into the benchmark; used by the sweep
    /// harnesses' CLI and report readers.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        ALL_BENCHMARKS
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Generates a reduced instance of the benchmark that fits within
    /// `max_qubits` qubits, with a deterministic seed — the engine's
    /// small-grid sweeps (`digiq_core::engine`) use this so the whole
    /// Table IV suite runs in seconds on test grids.
    ///
    /// # Panics
    ///
    /// Panics if `max_qubits < 8`.
    pub fn scaled(self, max_qubits: usize, seed: u64) -> Circuit {
        assert!(max_qubits >= 8, "scaled benchmarks need at least 8 qubits");
        match self {
            Benchmark::Qgan => qgan(max_qubits, 2, seed),
            Benchmark::Ising => ising_chain(max_qubits, 2, 0.3, 0.7),
            Benchmark::Bv => {
                let secret: Vec<bool> = (0..max_qubits - 1)
                    .map(|i| (i as u64 * 7 + 3 + seed) % 5 < 2)
                    .collect();
                bernstein_vazirani(&secret)
            }
            Benchmark::Add1 => cuccaro_adder(((max_qubits - 2) / 2).max(1)),
            Benchmark::Add2 => {
                // Block 4; shrink the width until the ancilla layout fits.
                let mut bits = ((max_qubits / 3).max(4) / 4) * 4;
                loop {
                    let c = block_lookahead_adder(bits, 4);
                    if c.n_qubits() <= max_qubits || bits == 4 {
                        return c;
                    }
                    bits -= 4;
                }
            }
            Benchmark::Sqrt10 => {
                let mut bits = 6;
                loop {
                    let target = ((1u64 << (bits / 2)) - 1).pow(2);
                    let c = grover_sqrt(bits, target);
                    if c.n_qubits() <= max_qubits || bits == 2 {
                        return c;
                    }
                    bits -= 2;
                }
            }
        }
    }

    /// Generates the benchmark at (near-)paper scale for a 1024-qubit
    /// machine, with a deterministic seed.
    pub fn paper_scale(self) -> Circuit {
        match self {
            // 1024 qubits of variational ansatz, 2 layers.
            Benchmark::Qgan => qgan(1024, 2, 0xD161_0B00),
            // 1024-spin chain, 3 Trotter steps.
            Benchmark::Ising => ising_chain(1024, 3, 0.3, 0.7),
            // 1023 secret bits + ancilla = 1024 qubits.
            Benchmark::Bv => {
                let secret: Vec<bool> = (0..1023).map(|i| (i * 7 + 3) % 5 < 2).collect();
                bernstein_vazirani(&secret)
            }
            // 256-bit ripple carry: 2·256+2 = 514 qubits.
            Benchmark::Add1 => cuccaro_adder(256),
            // 256-bit block lookahead (block 16): ≈ 820 qubits.
            Benchmark::Add2 => block_lookahead_adder(256, 16),
            // 10-bit square (5-bit search).
            Benchmark::Sqrt10 => grover_sqrt(10, 225),
        }
    }
}

/// Bernstein–Vazirani over `secret` (one data qubit per secret bit plus a
/// single oracle ancilla, which ends in |1⟩; the data register ends in the
/// secret).
///
/// # Panics
///
/// Panics if `secret` is empty.
pub fn bernstein_vazirani(secret: &[bool]) -> Circuit {
    assert!(!secret.is_empty());
    let n = secret.len();
    let anc = n;
    let mut c = Circuit::new(n + 1);
    // Ancilla to |−⟩.
    c.x(anc);
    c.h(anc);
    for q in 0..n {
        c.h(q);
    }
    // Oracle: f(x) = s·x.
    for (q, &bit) in secret.iter().enumerate() {
        if bit {
            c.cx(q, anc);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// Digitized-adiabatic linear Ising chain (ref [60]): `steps` first-order
/// Trotter slices of `H = −J·Σ ZᵢZᵢ₊₁ − h·Σ Xᵢ`, with per-slice angles
/// `theta_zz = 2·J·dt`, `theta_x = 2·h·dt` folded into the two arguments.
///
/// Even-indexed bonds execute together, then odd-indexed bonds — exactly
/// the commuting-gate grouping that gives the benchmark its high
/// parallelism.
///
/// # Panics
///
/// Panics if `n < 2` or `steps == 0`.
pub fn ising_chain(n: usize, steps: usize, theta_zz: f64, theta_x: f64) -> Circuit {
    assert!(n >= 2 && steps > 0);
    let mut c = Circuit::new(n);
    for _ in 0..steps {
        // Transverse field on every spin.
        for q in 0..n {
            c.rx(q, theta_x);
        }
        // ZZ(θ) = CX·Rz(θ)·CX on even bonds, then odd bonds.
        for parity in 0..2 {
            let mut q = parity;
            while q + 1 < n {
                c.cx(q, q + 1);
                c.rz(q + 1, theta_zz);
                c.cx(q, q + 1);
                q += 2;
            }
        }
    }
    c
}

/// Hardware-efficient QGAN ansatz (ref [59]): `layers` of per-qubit
/// `Ry(θ)·Rz(φ)` rotations (angles drawn from a seeded RNG, as a trained
/// generator would supply) followed by a brick-work CZ entangler.
///
/// # Panics
///
/// Panics if `n < 2` or `layers == 0`.
pub fn qgan(n: usize, layers: usize, seed: u64) -> Circuit {
    assert!(n >= 2 && layers > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            c.ry(q, rng.gen_range(-PI..PI));
            c.rz(q, rng.gen_range(-PI..PI));
        }
        let parity = layer % 2;
        let mut q = parity;
        while q + 1 < n {
            c.cz(q, q + 1);
            q += 2;
        }
    }
    c
}

/// Cuccaro ripple-carry adder (ref [62]) on `n`-bit operands.
///
/// Qubit layout: `cin` at 0, then interleaved `b_i` (at `1 + 2i`) and
/// `a_i` (at `2 + 2i`), and `cout` last — `2n + 2` qubits. Computes
/// `b ← a + b`, restores `a` and `cin`, writes the carry into `cout`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn cuccaro_adder(n: usize) -> Circuit {
    assert!(n > 0);
    let mut c = Circuit::new(2 * n + 2);
    let cin = 0usize;
    let b = |i: usize| 1 + 2 * i;
    let a = |i: usize| 2 + 2 * i;
    let cout = 2 * n + 1;

    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.cx(z, y);
        c.cx(z, x);
        c.ccx(x, y, z);
    };
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.ccx(x, y, z);
        c.cx(z, x);
        c.cx(x, y);
    };

    maj(&mut c, cin, b(0), a(0));
    for i in 1..n {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.cx(a(n - 1), cout);
    for i in (1..n).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, cin, b(0), a(0));
    c
}

/// Qubit map for [`block_lookahead_adder`], exposed so tests and the
/// evaluation harness can find registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAdderLayout {
    /// Operand width in bits.
    pub n: usize,
    /// Block width in bits.
    pub block: usize,
    /// Total qubits.
    pub qubits: usize,
}

impl BlockAdderLayout {
    /// Builds the layout for `n`-bit operands with `block`-bit blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of `block`.
    pub fn new(n: usize, block: usize) -> Self {
        assert!(
            block > 0 && n > 0 && n.is_multiple_of(block),
            "n must be a multiple of block"
        );
        let nb = n / block;
        // a[n], b[n], per-block generate G[nb], propagate P[nb],
        // AND-chain ancillas (block−1 per block), true carries c[nb+1].
        let qubits = 2 * n + nb + nb + nb * (block - 1) + (nb + 1);
        BlockAdderLayout { n, block, qubits }
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.n / self.block
    }

    /// Qubit of operand bit `a_i` (LSB first).
    pub fn a(&self, i: usize) -> usize {
        i
    }

    /// Qubit of operand bit `b_i` (receives the sum).
    pub fn b(&self, i: usize) -> usize {
        self.n + i
    }

    /// Block-generate ancilla of block `k`.
    pub fn g(&self, k: usize) -> usize {
        2 * self.n + k
    }

    /// Block-propagate ancilla of block `k`.
    pub fn p(&self, k: usize) -> usize {
        2 * self.n + self.n_blocks() + k
    }

    /// AND-chain ancilla `j` of block `k` (`j < block − 1`).
    pub fn chain(&self, k: usize, j: usize) -> usize {
        2 * self.n + 2 * self.n_blocks() + k * (self.block - 1) + j
    }

    /// True carry into block `k` (`k ≤ n_blocks`; the last is carry-out).
    pub fn carry(&self, k: usize) -> usize {
        2 * self.n + 2 * self.n_blocks() + self.n_blocks() * (self.block - 1) + k
    }
}

/// Block carry-lookahead adder: the `Add2` benchmark. Computes
/// `b ← a + b` (with carry-out in the top carry ancilla) in four phases:
///
/// 1. **Parallel per block**: compute block generate `G_k` (MAJ-chain up,
///    copy carry, MAJ-chain down) and block propagate `P_k` (XOR bits,
///    AND-chain, un-XOR).
/// 2. **Short sequential ripple over blocks**: true carries
///    `c_{k+1} = G_k ⊕ P_k·c_k`.
/// 3. **Parallel per block**: full Cuccaro add within each block using its
///    true carry-in.
///
/// Generate/propagate/chain ancillas are left dirty (they hold classical
/// garbage; the `(a, b)` registers carry the exact sum — verified by
/// exhaustive simulation in the tests).
///
/// # Panics
///
/// Panics if `n` is not a positive multiple of `block`.
pub fn block_lookahead_adder(n: usize, block: usize) -> Circuit {
    let lay = BlockAdderLayout::new(n, block);
    let nb = lay.n_blocks();
    let mut c = Circuit::new(lay.qubits);

    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.cx(z, y);
        c.cx(z, x);
        c.ccx(x, y, z);
    };
    let maj_inv = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.ccx(x, y, z);
        c.cx(z, x);
        c.cx(z, y);
    };
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.ccx(x, y, z);
        c.cx(z, x);
        c.cx(x, y);
    };

    // ---- Phase 1: per-block G_k and P_k (parallel across blocks) ----
    for k in 0..nb {
        let lo = k * block;
        // Generate: MAJ chain with zero carry-in (the G ancilla plays the
        // cin role and ends holding the block carry after the chain; we
        // run the chain, copy the carry-out…, then reverse).
        // Chain: MAJ(g_k, b_lo, a_lo); MAJ(a_lo, b_lo+1, a_lo+1); …
        maj(&mut c, lay.g(k), lay.b(lo), lay.a(lo));
        for i in 1..block {
            maj(&mut c, lay.a(lo + i - 1), lay.b(lo + i), lay.a(lo + i));
        }
        // The block carry-out now sits on a_{hi}; stash it.
        // (Temporarily borrow the carry ancilla c_{k+1}? No — G_k must
        // survive; copy onto the *chain* top… simplest: copy to G via the
        // spare: G was consumed as cin (zero), so copy carry-out to the
        // true-carry scratch is wrong; instead copy to P? P needed too.)
        // Copy carry-out into the chain ancilla slot block−2 is also
        // wrong. Use the dedicated G ancilla: since cin was |0⟩, G input
        // is restored by the reverse chain, so copy out first:
        c.cx(lay.a(lo + block - 1), lay.carry(k + 1));
        // Reverse the MAJ chain to restore a, b.
        for i in (1..block).rev() {
            maj_inv(&mut c, lay.a(lo + i - 1), lay.b(lo + i), lay.a(lo + i));
        }
        maj_inv(&mut c, lay.g(k), lay.b(lo), lay.a(lo));
        // Move the stashed generate from carry scratch into G_k.
        c.cx(lay.carry(k + 1), lay.g(k));
        c.cx(lay.g(k), lay.carry(k + 1)); // clear scratch (G==scratch)

        // Propagate: p_i = a_i ⊕ b_i formed in b, AND-chained into P_k.
        for i in 0..block {
            c.cx(lay.a(lo + i), lay.b(lo + i));
        }
        if block == 1 {
            c.cx(lay.b(lo), lay.p(k));
        } else {
            c.ccx(lay.b(lo), lay.b(lo + 1), lay.chain(k, 0));
            for i in 2..block {
                c.ccx(lay.chain(k, i - 2), lay.b(lo + i), lay.chain(k, i - 1));
            }
            c.cx(lay.chain(k, block - 2), lay.p(k));
        }
        // Restore b.
        for i in 0..block {
            c.cx(lay.a(lo + i), lay.b(lo + i));
        }
    }

    // ---- Phase 2: ripple true carries across blocks ----
    // c_0 = 0 (adder has no external carry-in); c_{k+1} = G_k ⊕ P_k·c_k.
    for k in 0..nb {
        c.cx(lay.g(k), lay.carry(k + 1));
        c.ccx(lay.p(k), lay.carry(k), lay.carry(k + 1));
    }

    // ---- Phase 3: per-block Cuccaro with true carry-in (parallel) ----
    for k in 0..nb {
        let lo = k * block;
        maj(&mut c, lay.carry(k), lay.b(lo), lay.a(lo));
        for i in 1..block {
            maj(&mut c, lay.a(lo + i - 1), lay.b(lo + i), lay.a(lo + i));
        }
        for i in (1..block).rev() {
            uma(&mut c, lay.a(lo + i - 1), lay.b(lo + i), lay.a(lo + i));
        }
        uma(&mut c, lay.carry(k), lay.b(lo), lay.a(lo));
    }
    c
}

/// Appends a multi-controlled Z over `controls` using a CCX V-chain into
/// `ancillas` (needs `controls.len().saturating_sub(2)` clean ancillas;
/// they are returned clean).
///
/// # Panics
///
/// Panics if `controls` is empty or too few ancillas are supplied.
pub fn multi_controlled_z(c: &mut Circuit, controls: &[usize], ancillas: &[usize]) {
    match controls.len() {
        0 => panic!("MCZ needs at least one control"),
        1 => c.z(controls[0]),
        2 => c.cz(controls[0], controls[1]),
        k => {
            assert!(
                ancillas.len() >= k - 2,
                "MCZ over {k} controls needs {} ancillas",
                k - 2
            );
            // V-chain: and-accumulate controls pairwise.
            c.ccx(controls[0], controls[1], ancillas[0]);
            for i in 2..k - 1 {
                c.ccx(controls[i], ancillas[i - 2], ancillas[i - 1]);
            }
            c.cz(controls[k - 1], ancillas[k - 3]);
            for i in (2..k - 1).rev() {
                c.ccx(controls[i], ancillas[i - 2], ancillas[i - 1]);
            }
            c.ccx(controls[0], controls[1], ancillas[0]);
        }
    }
}

/// Qubit map for [`grover_sqrt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroverSqrtLayout {
    /// Bits of the radicand (`target < 2^bits`).
    pub bits: usize,
    /// Bits of the search register (`bits / 2`).
    pub x_bits: usize,
    /// Total qubits.
    pub qubits: usize,
}

impl GroverSqrtLayout {
    /// Builds the layout for a `bits`-bit radicand.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or odd.
    pub fn new(bits: usize) -> Self {
        assert!(
            bits > 0 && bits.is_multiple_of(2),
            "radicand width must be even"
        );
        let x_bits = bits / 2;
        // x | acc(bits) | y shifted-copy (bits) | cin+cout | mcz ancillas
        let qubits = x_bits + bits + bits + 2 + bits.saturating_sub(2);
        GroverSqrtLayout {
            bits,
            x_bits,
            qubits,
        }
    }

    /// Search-register qubit `i` (LSB first).
    pub fn x(&self, i: usize) -> usize {
        i
    }

    /// Accumulator qubit `i` (holds x²).
    pub fn acc(&self, i: usize) -> usize {
        self.x_bits + i
    }

    /// Shifted-copy scratch qubit `i`.
    pub fn y(&self, i: usize) -> usize {
        self.x_bits + self.bits + i
    }

    /// Adder carry-in scratch.
    pub fn cin(&self) -> usize {
        self.x_bits + 2 * self.bits
    }

    /// Adder carry-out scratch.
    pub fn cout(&self) -> usize {
        self.x_bits + 2 * self.bits + 1
    }

    /// MCZ ancilla `i`.
    pub fn mcz(&self, i: usize) -> usize {
        self.x_bits + 2 * self.bits + 2 + i
    }
}

/// Appends an in-place ripple add `acc ← acc + y` (both `bits` wide) using
/// the Cuccaro MAJ/UMA chains with the layout's scratch carries.
fn append_ripple_add(c: &mut Circuit, lay: &GroverSqrtLayout) {
    let n = lay.bits;
    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.cx(z, y);
        c.cx(z, x);
        c.ccx(x, y, z);
    };
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.ccx(x, y, z);
        c.cx(z, x);
        c.cx(x, y);
    };
    maj(c, lay.cin(), lay.acc(0), lay.y(0));
    for i in 1..n {
        maj(c, lay.y(i - 1), lay.acc(i), lay.y(i));
    }
    c.cx(lay.y(n - 1), lay.cout());
    for i in (1..n).rev() {
        uma(c, lay.y(i - 1), lay.acc(i), lay.y(i));
    }
    uma(c, lay.cin(), lay.acc(0), lay.y(0));
    // cout accumulates overflow; harmless (x² < 2^bits by construction,
    // but intermediate partial sums cannot overflow either since the
    // final value bounds them).
}

/// Appends the squarer: `acc ← acc ⊕⁺ x²` via, for each search bit `i`, a
/// masked shifted copy `y = (x·x_i) << i` and a ripple addition.
fn append_squarer(c: &mut Circuit, lay: &GroverSqrtLayout, inverse: bool) {
    let steps: Vec<usize> = (0..lay.x_bits).collect();
    for &i in steps.iter() {
        if !inverse {
            // y = (x AND x_i) << i : for j: y_{i+j} = x_j · x_i; the
            // diagonal term j == i is just a copy of x_i.
            for j in 0..lay.x_bits {
                if j == i {
                    c.cx(lay.x(i), lay.y(i + j));
                } else {
                    c.ccx(lay.x(i), lay.x(j), lay.y(i + j));
                }
            }
            append_ripple_add(c, lay);
            // Uncompute y.
            for j in (0..lay.x_bits).rev() {
                if j == i {
                    c.cx(lay.x(i), lay.y(i + j));
                } else {
                    c.ccx(lay.x(i), lay.x(j), lay.y(i + j));
                }
            }
        }
    }
    if inverse {
        // Reverse order: subtract by running the exact inverse gate list.
        // Build the forward list in a scratch circuit and append reversed
        // inverses (every gate here is self-inverse).
        let mut fwd = Circuit::new(c.n_qubits());
        append_squarer(&mut fwd, lay, false);
        let gates: Vec<_> = fwd.gates().to_vec();
        for g in gates.into_iter().rev() {
            c.push(g);
        }
    }
}

/// Grover search for the square root: finds `x` with `x² = target` in a
/// `bits`-bit register (the paper's `Sqrt10` with `bits = 10`; refs
/// [64]–[66]). Uses ⌊π/4·√(2^(bits/2))⌋ iterations of
/// square → compare-phase-flip → unsquare → diffusion.
///
/// # Panics
///
/// Panics if `bits` is zero or odd, or `target ≥ 2^bits`.
pub fn grover_sqrt(bits: usize, target: u64) -> Circuit {
    let lay = GroverSqrtLayout::new(bits);
    assert!(target < (1u64 << bits), "target out of range");
    let mut c = Circuit::new(lay.qubits);

    // Uniform superposition over x.
    for i in 0..lay.x_bits {
        c.h(lay.x(i));
    }

    let iterations = ((PI / 4.0) * ((1usize << lay.x_bits) as f64).sqrt()).floor() as usize;
    let iterations = iterations.max(1);

    for _ in 0..iterations {
        // Oracle: acc ← x²; phase-flip when acc == target; acc ← 0.
        append_squarer(&mut c, &lay, false);
        // Mask: X on acc bits where target bit is 0 so the match is
        // all-ones.
        for i in 0..lay.bits {
            if target & (1 << i) == 0 {
                c.x(lay.acc(i));
            }
        }
        let controls: Vec<usize> = (0..lay.bits).map(|i| lay.acc(i)).collect();
        let ancillas: Vec<usize> = (0..lay.bits.saturating_sub(2))
            .map(|i| lay.mcz(i))
            .collect();
        multi_controlled_z(&mut c, &controls, &ancillas);
        for i in 0..lay.bits {
            if target & (1 << i) == 0 {
                c.x(lay.acc(i));
            }
        }
        append_squarer(&mut c, &lay, true);

        // Diffusion on x.
        for i in 0..lay.x_bits {
            c.h(lay.x(i));
            c.x(lay.x(i));
        }
        let xc: Vec<usize> = (0..lay.x_bits).map(|i| lay.x(i)).collect();
        let anc: Vec<usize> = (0..lay.x_bits.saturating_sub(2))
            .map(|i| lay.mcz(i))
            .collect();
        multi_controlled_z(&mut c, &xc, &anc);
        for i in 0..lay.x_bits {
            c.x(lay.x(i));
            c.h(lay.x(i));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BasisState, StateVector};

    /// Loads integer `val` into the qubits `bit(i)` (LSB first) of a
    /// zero-initialized state by listing X positions.
    fn x_load(c: &mut Circuit, val: u64, bit: impl Fn(usize) -> usize, n: usize) {
        for i in 0..n {
            if val & (1 << i) != 0 {
                c.x(bit(i));
            }
        }
    }

    #[test]
    fn bv_recovers_secret() {
        let secret = [true, false, true, true, false];
        let c = bernstein_vazirani(&secret);
        let mut sv = StateVector::zero(c.n_qubits());
        sv.apply_circuit(&c);
        // Data register must read the secret with certainty.
        for (q, &bit) in secret.iter().enumerate() {
            let p1 = sv.prob_one(q);
            if bit {
                assert!(p1 > 1.0 - 1e-9, "q{q} should be 1, p={p1}");
            } else {
                assert!(p1 < 1e-9, "q{q} should be 0, p={p1}");
            }
        }
    }

    #[test]
    fn bv_gate_count_scales_with_weight() {
        let light = bernstein_vazirani(&[true, false, false, false]);
        let heavy = bernstein_vazirani(&[true, true, true, true]);
        assert_eq!(heavy.two_qubit_count() - light.two_qubit_count(), 3);
    }

    #[test]
    fn cuccaro_adds_exhaustively() {
        let n = 3;
        for a_val in 0..8u64 {
            for b_val in 0..8u64 {
                let mut c = Circuit::new(2 * n + 2);
                // Load operands (a at 2+2i, b at 1+2i).
                x_load(&mut c, a_val, |i| 2 + 2 * i, n);
                x_load(&mut c, b_val, |i| 1 + 2 * i, n);
                c.extend(&cuccaro_adder(n));
                let mut sv = StateVector::zero(c.n_qubits());
                sv.apply_circuit(&c);
                let (idx, p) = sv.argmax();
                assert!(p > 1.0 - 1e-9);
                // Decode: big-endian bit order over qubits.
                let nq = c.n_qubits();
                let bit = |q: usize| (idx >> (nq - 1 - q)) & 1;
                let mut sum = 0u64;
                for i in 0..n {
                    sum |= (bit(1 + 2 * i) as u64) << i;
                }
                let carry = bit(2 * n + 1) as u64;
                assert_eq!(sum, (a_val + b_val) & 7, "sum a={a_val} b={b_val}");
                assert_eq!(carry, (a_val + b_val) >> 3, "carry a={a_val} b={b_val}");
                // a restored.
                let mut a_after = 0u64;
                for i in 0..n {
                    a_after |= (bit(2 + 2 * i) as u64) << i;
                }
                assert_eq!(a_after, a_val, "a not restored");
            }
        }
    }

    /// `|a, b⟩` loaded with X gates, then the block look-ahead adder.
    fn block_adder_run(lay: &BlockAdderLayout, a_val: u64, b_val: u64) -> Circuit {
        let mut c = Circuit::new(lay.qubits);
        x_load(&mut c, a_val, |i| lay.a(i), lay.n);
        x_load(&mut c, b_val, |i| lay.b(i), lay.n);
        c.extend(&block_lookahead_adder(lay.n, lay.block));
        c
    }

    /// Checks the adder's output: `b` holds `a + b mod 2^n`, the last
    /// carry the overflow bit, and `a` is restored.
    fn check_adder_output(
        lay: &BlockAdderLayout,
        a_val: u64,
        b_val: u64,
        bit: impl Fn(usize) -> bool,
    ) {
        let n = lay.n;
        let read = |qubit: fn(&BlockAdderLayout, usize) -> usize| -> u64 {
            (0..n).map(|i| (bit(qubit(lay, i)) as u64) << i).sum()
        };
        let carry = bit(lay.carry(lay.n_blocks())) as u64;
        let sum = read(BlockAdderLayout::b);
        assert_eq!(sum, (a_val + b_val) % (1 << n), "sum a={a_val} b={b_val}");
        assert_eq!(carry, (a_val + b_val) >> n, "carry a={a_val} b={b_val}");
        assert_eq!(read(BlockAdderLayout::a), a_val, "a not restored");
    }

    #[test]
    fn block_adder_adds_exhaustively() {
        // Every pair of 6-bit operands with 2- and 3-bit blocks (25 and 23
        // qubits) on the basis-state simulator: the adder is classical.
        for block in [2, 3] {
            let lay = BlockAdderLayout::new(6, block);
            for a_val in 0..64u64 {
                for b_val in 0..64u64 {
                    let mut s = BasisState::zero(lay.qubits);
                    s.apply_circuit(&block_adder_run(&lay, a_val, b_val))
                        .expect("the adder uses classical gates only");
                    check_adder_output(&lay, a_val, b_val, |q| s.bit(q));
                }
            }
        }
    }

    #[test]
    fn block_adder_statevector_cross_check() {
        // A few seeded 4-bit pairs (18 qubits) on the full statevector
        // simulator, which must agree with the basis-state run qubit by
        // qubit.
        let lay = BlockAdderLayout::new(4, 2);
        let mut rng = qsim::rng::StdRng::seed_from_u64(0xADD4);
        for _ in 0..3 {
            let (a_val, b_val) = (rng.gen_range(0..16u64), rng.gen_range(0..16u64));
            let c = block_adder_run(&lay, a_val, b_val);
            let mut sv = StateVector::zero(lay.qubits);
            sv.apply_circuit(&c);
            let (idx, p) = sv.argmax();
            assert!(p > 1.0 - 1e-9, "state not classical");
            let bit = |q: usize| (idx >> (lay.qubits - 1 - q)) & 1 == 1;
            check_adder_output(&lay, a_val, b_val, bit);
            let mut s = BasisState::zero(lay.qubits);
            s.apply_circuit(&c).expect("classical");
            assert!((0..lay.qubits).all(|q| s.bit(q) == bit(q)));
        }
    }

    #[test]
    fn block_adder_is_shallower_than_ripple() {
        let ripple = cuccaro_adder(64);
        let block = block_lookahead_adder(64, 8);
        assert!(
            (block.depth() as f64) < (ripple.depth() as f64) * 0.6,
            "block depth {} vs ripple {}",
            block.depth(),
            ripple.depth()
        );
        // And correspondingly more parallel.
        assert!(block.parallelism() > ripple.parallelism() * 1.5);
    }

    #[test]
    fn ising_structure() {
        let c = ising_chain(6, 2, 0.3, 0.7);
        // Per step: 6 Rx + 5 bonds × (2 CX + 1 Rz).
        assert_eq!(c.len(), 2 * (6 + 5 * 3));
        // High parallelism: brickwork executes in few moments.
        assert!(c.parallelism() > 2.0);
    }

    #[test]
    fn ising_preserves_norm_and_entangles() {
        let c = ising_chain(4, 2, 0.5, 0.9);
        let mut sv = StateVector::zero(4);
        sv.apply_circuit(&c);
        assert!((sv.norm() - 1.0).abs() < 1e-9);
        // Transverse field must move population off |0000⟩.
        assert!(sv.probability(0) < 0.99);
    }

    #[test]
    fn qgan_deterministic_by_seed() {
        let a = qgan(8, 2, 42);
        let b = qgan(8, 2, 42);
        let c = qgan(8, 2, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Layer structure: 2 rotations per qubit per layer + CZ brickwork.
        assert_eq!(a.one_qubit_count(), 8 * 2 * 2);
    }

    #[test]
    fn mcz_flips_only_all_ones() {
        // 4 controls: verify phase on |1111⟩ only.
        let mut c = Circuit::new(6);
        multi_controlled_z(&mut c, &[0, 1, 2, 3], &[4, 5]);
        for basis in 0..16usize {
            let bits: Vec<bool> = (0..6)
                .map(|q| q < 4 && (basis >> (3 - q)) & 1 == 1)
                .collect();
            let mut sv = StateVector::basis(&bits);
            sv.apply_circuit(&c);
            let idx = sv.argmax().0;
            let amp = sv.amps[idx];
            if basis == 15 {
                assert!(amp.re < -0.99, "missing phase flip on |1111⟩");
            } else {
                assert!(amp.re > 0.99, "spurious flip on {basis:04b}");
            }
        }
    }

    #[test]
    fn grover_finds_square_root() {
        // 4-bit radicand: search x ∈ [0,4) with x² = 9 → x = 3.
        let c = grover_sqrt(4, 9);
        let mut sv = StateVector::zero(c.n_qubits());
        sv.apply_circuit(&c);
        // Marginal over the 2 search qubits: x=3 must dominate.
        let p3 = sv.prob_one(0) + sv.prob_one(1);
        assert!(
            sv.prob_one(0) > 0.5 && sv.prob_one(1) > 0.5,
            "search register not at |11⟩: p0={}, p1={} (sum {p3})",
            sv.prob_one(0),
            sv.prob_one(1)
        );
    }

    #[test]
    fn grover_sqrt_6bit() {
        // 6-bit radicand: x ∈ [0,8) with x² = 25 → x = 5 (101).
        let c = grover_sqrt(6, 25);
        let mut sv = StateVector::zero(c.n_qubits());
        sv.apply_circuit(&c);
        assert!(sv.prob_one(0) > 0.5, "x bit0 (MSB=1 of 101)");
        assert!(sv.prob_one(1) < 0.5, "x bit1 (0 of 101)");
        assert!(sv.prob_one(2) > 0.5, "x bit2 (1 of 101)");
    }

    #[test]
    fn paper_scale_shapes() {
        // Cheap structural checks (no simulation at 1024 qubits).
        let bv = Benchmark::Bv.paper_scale();
        assert_eq!(bv.n_qubits(), 1024);
        let add1 = Benchmark::Add1.paper_scale();
        assert_eq!(add1.n_qubits(), 514);
        let add2 = Benchmark::Add2.paper_scale();
        assert!(add2.n_qubits() <= 1024, "Add2 must fit the grid");
        let qg = Benchmark::Qgan.paper_scale();
        assert_eq!(qg.n_qubits(), 1024);
        let is = Benchmark::Ising.paper_scale();
        assert_eq!(is.n_qubits(), 1024);
        let sq = Benchmark::Sqrt10.paper_scale();
        assert!(sq.n_qubits() < 64);
        // Parallel benchmarks really are more parallel (Fig 9 grouping).
        assert!(qg.parallelism() > 5.0 * bv.parallelism() || qg.parallelism() > 100.0);
        assert!(add2.parallelism() > add1.parallelism());
    }

    #[test]
    fn benchmark_names() {
        assert_eq!(Benchmark::Qgan.name(), "QGAN");
        assert_eq!(ALL_BENCHMARKS.len(), 6);
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for b in ALL_BENCHMARKS {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
            assert_eq!(Benchmark::from_name(&b.name().to_lowercase()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nope"), None);
    }

    #[test]
    fn scaled_instances_fit_their_budget() {
        for budget in [16usize, 64] {
            for b in ALL_BENCHMARKS {
                let c = b.scaled(budget, 7);
                assert!(
                    c.n_qubits() <= budget,
                    "{} at budget {budget} used {} qubits",
                    b.name(),
                    c.n_qubits()
                );
                assert!(!c.is_empty());
            }
        }
    }

    #[test]
    fn scaled_is_deterministic_per_seed() {
        let a = Benchmark::Qgan.scaled(32, 11);
        let b = Benchmark::Qgan.scaled(32, 11);
        assert_eq!(a.cache_key(), b.cache_key());
        let c = Benchmark::Qgan.scaled(32, 12);
        assert_ne!(a.cache_key(), c.cache_key());
    }
}
