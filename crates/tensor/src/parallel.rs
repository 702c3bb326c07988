//! Deterministic data-parallel helpers built on scoped threads.
//!
//! The build environment has no crates.io access, so instead of rayon this
//! module provides the one primitive the workspace's hot paths need:
//! splitting a row-major output buffer into disjoint row blocks and filling
//! them from worker threads. Each output row is computed by exactly one
//! thread with a thread-count-independent instruction sequence, so results
//! are bit-identical whether the pool runs 1 thread or 64.
//!
//! The thread budget comes from, in priority order:
//!
//! 1. [`set_threads`] (runtime override, used by determinism tests),
//! 2. the `ORCO_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runtime thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached environment/hardware thread budget.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Per-thread budget override; 0 means "not set". Takes precedence over
    /// everything else so an outer parallel region can hand each of its
    /// workers a slice of the budget instead of letting nested regions
    /// multiply thread counts.
    static TL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Overrides the worker-thread budget at runtime.
///
/// Passing `0` restores the default (environment variable or hardware
/// parallelism). Intended for benchmarks and determinism tests; regular
/// code should leave the budget alone.
pub fn set_threads(n: usize) {
    // SeqCst: a rare configuration write; pays for a total order so a
    // test setting the budget is visible to every worker it then spawns.
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Runs `f` with this thread's budget pinned to `n` (≥ 1), restoring the
/// previous value afterwards.
///
/// Used by outer parallel regions (e.g. the multi-cluster coordinator) to
/// give each worker thread a fair slice of the global budget, so nested
/// data-parallel kernels don't oversubscribe the machine with
/// `budget × budget` threads. Thread counts never affect results — every
/// kernel in this crate is bit-deterministic across budgets — so this is
/// purely a scheduling knob.
pub fn with_thread_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let previous = TL_THREADS.replace(n.max(1));
    let result = f();
    TL_THREADS.set(previous);
    result
}

/// The current worker-thread budget (always ≥ 1).
#[must_use]
pub fn threads() -> usize {
    let tl = TL_THREADS.get();
    if tl > 0 {
        return tl;
    }
    // SeqCst: matches set_threads; the budget read is far off any hot
    // loop, so the fence cost is irrelevant.
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("ORCO_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Splits `out` into disjoint blocks of whole rows and runs `work` on each
/// block from a pool of scoped threads.
///
/// `work` receives the index of the block's first row and the block's
/// mutable row data. Blocks never overlap, so no synchronization is needed;
/// determinism is up to the caller's `work` being a pure function of the
/// row index (all current callers are).
///
/// Falls back to a single inline call when the budget is 1, the output is
/// empty, or there are fewer than `min_rows_per_thread` rows per worker.
pub(crate) fn for_each_row_block<F>(
    out: &mut [f32],
    row_len: usize,
    min_rows_per_thread: usize,
    work: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    assert!(row_len > 0 && out.len().is_multiple_of(row_len), "for_each_row_block: ragged buffer");
    let rows = out.len() / row_len;
    let budget = threads().min(rows / min_rows_per_thread.max(1)).max(1);
    if budget == 1 {
        work(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(budget);
    std::thread::scope(|scope| {
        for (i, block) in out.chunks_mut(chunk_rows * row_len).enumerate() {
            let work = &work;
            scope.spawn(move || work(i * chunk_rows, block));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_every_row_once() {
        let rows = 37;
        let cols = 5;
        let mut out = vec![0.0f32; rows * cols];
        for_each_row_block(&mut out, cols, 1, |first_row, block| {
            for (i, row) in block.chunks_exact_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (first_row + i) as f32;
                }
            }
        });
        for (r, row) in out.chunks_exact(cols).enumerate() {
            assert!(row.iter().all(|&v| v == r as f32), "row {r} wrong: {row:?}");
        }
    }

    #[test]
    fn serial_fallback_for_tiny_outputs() {
        let mut out = vec![0.0f32; 3];
        for_each_row_block(&mut out, 3, 64, |first_row, block| {
            assert_eq!(first_row, 0);
            block.fill(1.0);
        });
        assert_eq!(out, vec![1.0; 3]);
    }

    #[test]
    fn thread_budget_scopes_and_restores() {
        let outer = threads();
        let inner = with_thread_budget(2, || {
            assert_eq!(threads(), 2);
            with_thread_budget(5, threads)
        });
        assert_eq!(inner, 5);
        assert_eq!(threads(), outer);
    }

    #[test]
    fn threads_is_positive_and_overridable() {
        assert!(threads() >= 1);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
