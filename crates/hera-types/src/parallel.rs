//! The one worker pool behind every parallel stage of HERA.
//!
//! Blocking-key extraction (`hera-block`), value-pair verification in
//! the similarity join (`hera-join`, all-pairs and blocked) and candidate
//! verification in the compare-and-merge rounds (`hera-core`) are all
//! *maps over an immutable snapshot*: each work item is processed against
//! state frozen at the start of the stage, and all mutation happens
//! afterwards, sequentially, in a fixed order. [`par_map_blocks`] is that
//! map; [`par_map`] and [`par_map_with`] are its per-item forms.
//!
//! **Determinism.** The input is cut into contiguous blocks that workers
//! claim off a shared counter, and the blocks' outputs are concatenated
//! in input order. Where the cuts fall depends on the thread count, so a
//! caller's closure must be a homomorphism over concatenation —
//! `f(a ++ b) == f(a) ++ f(b)`, which any per-item loop is — and its
//! per-worker state must be scratch that never changes a result. Then
//! threads only change *when* an output is computed, never *what* it is
//! computed from, and the returned vector is identical for every thread
//! count, block size and schedule.
//!
//! **Thread rule.** A requested count of `0` means all available cores
//! ([`effective_threads`]); anything else is taken literally. Inputs
//! shorter than `MIN_PARALLEL_ITEMS`, or one thread, run inline on the
//! calling thread.
//!
//! The pool is built on `std::thread::scope` — workers borrow the
//! snapshot directly, no `'static` bounds, no channels, and the scope
//! joins every worker before returning, so a panic in one worker
//! propagates out of the call instead of poisoning later rounds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Below this many items the spawn overhead outweighs the work; run the
/// map inline instead.
const MIN_PARALLEL_ITEMS: usize = 32;

/// Work-stealing granularity: each thread claims blocks of roughly
/// `len / (threads * BLOCKS_PER_THREAD)` items, so uneven costs (graph
/// sizes vary wildly across record pairs) still balance.
const BLOCKS_PER_THREAD: usize = 4;

/// Resolves a requested worker count: `0` means "auto" (all available
/// cores), anything else is taken literally. Always at least 1.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Maps `f` over contiguous blocks of `items` on up to `threads` scoped
/// workers (`0` = all cores) and returns the blocks' outputs concatenated
/// **in input order**.
///
/// `init` builds one fresh state per worker (one in total on the inline
/// path); `f` gets `&mut` access to its worker's state alongside each
/// block it claims, and may emit any number of outputs per block — a
/// caller whose items are cheap pays for one output buffer per block, not
/// one per item. See the module docs for what `f` and the state must
/// satisfy for the result to be independent of the thread count.
pub fn par_map_blocks<T, U, S, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[T]) -> Vec<U> + Sync,
{
    // The thread count is resolved only for inputs worth spawning for.
    let threads = match items.len() {
        n if n < MIN_PARALLEL_ITEMS => 1,
        n => effective_threads(threads).min(n),
    };
    if threads == 1 {
        return f(&mut init(), items);
    }
    let block = items.len().div_ceil(threads * BLOCKS_PER_THREAD);
    let next = AtomicUsize::new(0);
    let finished: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut state = init();
                loop {
                    let start = next.fetch_add(block, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + block).min(items.len());
                    let out = f(&mut state, &items[start..end]);
                    finished
                        .lock()
                        .expect("only a push runs under the lock")
                        .push((start, out));
                }
            });
        }
    });
    let mut blocks = finished
        .into_inner()
        .expect("the scope joined every worker");
    blocks.sort_unstable_by_key(|&(start, _)| start);
    let mut result = Vec::with_capacity(blocks.iter().map(|(_, out)| out.len()).sum());
    for (_, out) in blocks {
        result.extend(out);
    }
    result
}

/// [`par_map_blocks`] one item at a time: position `i` of the result
/// always holds `f(&items[i])`.
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(threads, items, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker mutable scratch state.
///
/// This is how the verification stage reuses allocation-heavy scratch
/// buffers across items without sharing them across threads. The state
/// must not influence results (scratch, caches of pure functions):
/// `f(&mut s, &items[i])` has to equal `f(&mut fresh, &items[i])`.
pub fn par_map_with<T, U, S, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    par_map_blocks(threads, items, init, |state, block| {
        block.iter().map(|item| f(state, item)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn auto_detect_is_positive() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 8] {
            assert_eq!(par_map(threads, &items, |&x| x * x), expected);
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn balances_uneven_work() {
        // Costs skewed heavily toward the front of the input; order must
        // survive dynamic scheduling.
        let items: Vec<usize> = (0..2_000).collect();
        let f = |&i: &usize| {
            let spins = if i < 50 { 20_000 } else { 10 };
            (0..spins).fold(i as u64, |a, b| a.wrapping_add(b))
        };
        let seq: Vec<u64> = items.iter().map(f).collect();
        assert_eq!(par_map(4, &items, f), seq);
    }

    #[test]
    fn par_map_with_reuses_worker_state() {
        // State must be per-worker scratch, not shared: count how many
        // inits ran and verify the map is still order-preserving.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..5_000).collect();
        let out = par_map_with(
            4,
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |buf, &x| {
                buf.clear();
                buf.extend([x, x]);
                buf.iter().sum::<u64>()
            },
        );
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(out, expected);
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items: Vec<u32> = (0..40).collect();
        let out = par_map(64, &items, |&x| x + 1);
        assert_eq!(out, (1..41).collect::<Vec<u32>>());
    }

    #[test]
    fn blocks_may_emit_any_number_of_outputs() {
        // A filter-and-expand closure: odd items vanish, even items emit
        // themselves twice. The concatenation must not depend on the cuts.
        let items: Vec<u32> = (0..3_000).collect();
        let expand = |(): &mut (), block: &[u32]| -> Vec<u32> {
            let evens = block.iter().filter(|&&x| x % 2 == 0);
            evens.flat_map(|&x| [x, x]).collect()
        };
        let seq = expand(&mut (), &items);
        for threads in [0, 1, 2, 3, 8] {
            assert_eq!(par_map_blocks(threads, &items, || (), expand), seq);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Whatever the length, the thread count and the shape of the
        /// per-block output, the concatenation equals the sequential map.
        #[test]
        fn block_map_equals_sequential_map(
            len in 0usize..=5_000,
            threads in 1usize..=16,
            keep_mod in 1u64..=5,
            copies in 0usize..=3,
        ) {
            let items: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let f = |seen: &mut usize, block: &[u64]| -> Vec<u64> {
                *seen += block.len(); // scratch: must not reach the output
                let kept = block.iter().filter(|&&x| x % keep_mod == 0);
                kept.flat_map(|&x| vec![x ^ 1; copies]).collect()
            };
            let seq = f(&mut 0, &items);
            prop_assert_eq!(par_map_blocks(threads, &items, || 0usize, f), seq);
        }

        /// A panic in the closure comes out of the call, inline or threaded.
        #[test]
        fn closure_panic_propagates(len in 1usize..=5_000, threads in 1usize..=16, at in any::<u64>()) {
            let items: Vec<usize> = (0..len).collect();
            let bad = (at % len as u64) as usize;
            let result = std::panic::catch_unwind(|| {
                par_map(threads, &items, |&i| {
                    assert!(i != bad, "poisoned item");
                    i
                })
            });
            prop_assert!(result.is_err());
        }
    }
}
