//! Deterministic flop/allocation counters for the numeric kernel core.
//!
//! Perf regressions in allocation-free kernels are invisible to ordinary
//! tests: a stray `.clone()` or a helper that quietly allocates again
//! keeps every result bit-identical while destroying the speedup. These
//! counters make that testable — every fresh `CMat` buffer and every
//! counted kernel records into thread-local tallies that tests (and the
//! kernels bench via `--json-out`) can assert exactly.
//!
//! Counting policy (deterministic for a fixed input):
//!
//! * **allocs** — one per fresh matrix/state buffer: `CMat` constructors,
//!   operator results (`+`, `-`, `conj`, `scale`, …) and `apply`. `Clone`
//!   is not counted (derived impl), nor are transient `Vec<f64>` scratch
//!   vectors outside the matrix type.
//! * **flops** — 8 per complex multiply-accumulate:
//!   `matmul`/`matmul_into` count `8·rows·inner·cols`, `apply`/
//!   `apply_into` count `8·rows·cols`, the row-sparse pulse kernel
//!   (`pulse::SparseRows::apply_columns`) counts `8·nnz(row)·cols` per
//!   computed row, one Jacobi plane rotation counts
//!   `48·n` (three n-length two-output updates of two complex MACs
//!   each), and the fused spectral apply counts `8·n³ + 6·n²`.
//! * **compile passes** (qcircuit routers/schedulers) — one alloc per
//!   **materialized output artifact**, exactly: a route is 2 (the
//!   routed circuit plus the final layout), a schedule is 1 (the slot
//!   list). Workspace scratch — trial layouts, candidate buffers,
//!   moment levels, colour-group pools — is reused across calls and
//!   never tallied (the same rule that keeps transient `Vec` scratch
//!   uncounted in the numeric core), and `Circuit::moments` is an
//!   untallied query. Flops are unchanged: 2 per f64 lookahead term
//!   (divide + accumulate) and 4 per randomized candidate score
//!   (weight multiply, two adds, one tie-break scale). Because only
//!   outputs count, a pass's cold and warm tallies are identical.
//!
//! The tallies are **thread-local**, so the parallel test runner and
//! scoped worker threads never race and exact-equality asserts are safe;
//! snapshot and reset on the same thread that runs the kernel under test.

use std::cell::Cell;

thread_local! {
    static FLOPS: Cell<u64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A point-in-time snapshot of this thread's kernel tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCounters {
    /// Floating-point operations (8 per complex MAC; see module docs).
    pub flops: u64,
    /// Fresh matrix/state buffer allocations.
    pub allocs: u64,
}

/// Adds `n` flops to this thread's tally.
#[inline]
pub fn tally_flops(n: u64) {
    FLOPS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Records one buffer allocation on this thread.
#[inline]
pub fn tally_alloc() {
    ALLOCS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Records `n` buffer allocations on this thread (batch accounting for
/// callers that materialize several output buffers in one step, e.g. a
/// router's circuit + final-layout pair).
#[inline]
pub fn tally_allocs(n: u64) {
    ALLOCS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Reads this thread's tallies without resetting them.
pub fn snapshot() -> KernelCounters {
    KernelCounters {
        flops: FLOPS.with(Cell::get),
        allocs: ALLOCS.with(Cell::get),
    }
}

/// Zeroes this thread's tallies.
pub fn reset() {
    FLOPS.with(|c| c.set(0));
    ALLOCS.with(|c| c.set(0));
}

/// Runs `f` with freshly reset tallies and returns its result together
/// with the counters it accrued (equivalent to `reset(); f(); snapshot()`).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, KernelCounters) {
    reset();
    let out = f();
    (out, snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_accumulate_and_reset() {
        reset();
        tally_flops(16);
        tally_flops(4);
        tally_alloc();
        let c = snapshot();
        assert_eq!(c.flops, 20);
        assert_eq!(c.allocs, 1);
        reset();
        assert_eq!(snapshot(), KernelCounters::default());
    }

    #[test]
    fn counted_scopes_a_closure() {
        tally_flops(999); // stale tally from an earlier kernel
        let (val, c) = counted(|| {
            tally_flops(8);
            tally_alloc();
            42
        });
        assert_eq!(val, 42);
        assert_eq!(
            c,
            KernelCounters {
                flops: 8,
                allocs: 1
            }
        );
    }
}
