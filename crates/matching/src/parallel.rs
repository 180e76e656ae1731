//! The workspace's one fan-out, and the one width every fan-out shares.
//!
//! Four layers lean on [`parallel_map`]: the router's zone fan-out
//! (`foodmatch-simulator`); the batching stage's per-restaurant and
//! per-stop oracle sweeps (per-order route plans when batching is off) and
//! the FoodGraph's collect, resolve and price phases (`foodmatch-core`);
//! and per-component assignment solving ([`Decomposed`](crate::Decomposed)).
//! Each maps independent evaluations over shared `Send + Sync` state, at
//! the width `DispatchConfig::effective_threads` gives it.
//!
//! **Claiming.** A call over `n` items at width `w` runs `k = min(w, n)`
//! participants. Each takes the next unclaimed index from one shared atomic
//! cursor, runs it and keeps its `(index, result)` pairs; after the scope
//! joins, every result is placed at its index. Items of very uneven cost (a
//! moving courier's fresh search next to a standing one's tree-row read)
//! spread over whichever participant is free, and the output equals the
//! serial map for every width and every schedule.
//!
//! **The caller's share.** The calling thread is one of the `k`
//! participants, so a call spawns `k − 1` scoped workers and nobody idles on
//! the join while items are left.
//!
//! **The width budget.** While a participant runs items, a thread-local
//! budget caps any fan-out nested inside it at `max(1, ⌊w / k⌋)`, and a
//! call at width 1 runs inline on the calling thread. Nested fan-outs thus
//! share the outermost width instead of multiplying it: no more than
//! `w` threads ever run items at once. The router's 4 zones at width 2 run
//! each zone's stages inline on the participant that claimed the zone; 2
//! zones at width 8 give each zone's stages width 4; a 1-zone router gives
//! its stages the whole width. The budget is restored when a call returns
//! or unwinds.
//!
//! **No pool.** Workers are scoped threads, spawned per call. A persistent
//! pool would save the spawns, but it has to hand closures that borrow the
//! caller's stack to long-lived threads, which takes `unsafe`, and the
//! workspace has none.
//!
//! This is the function's one home — `foodmatch-matching` is a leaf crate
//! (it depends only on `foodmatch-telemetry`);
//! `foodmatch_core::parallel_map` is a plain re-export of it.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// The widest fan-out this thread may start: unbounded outside any
    /// participant, the participant's share of its call's width inside one.
    static BUDGET: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's budget for as long as the guard lives; the previous one
/// comes back on drop, unwinding included.
struct Budget(usize);

impl Budget {
    fn enter(width: usize) -> Budget {
        Budget(BUDGET.replace(width))
    }
}

impl Drop for Budget {
    fn drop(&mut self) {
        BUDGET.set(self.0);
    }
}

/// Maps `f` over `items` with up to `threads` participants, the calling
/// thread among them, returning results in input order (the closure also
/// receives the item's index).
///
/// The width is `threads` capped by the budget of any fan-out this call is
/// nested in; at width 1, or over fewer than two items, the map runs inline
/// on the calling thread. The output is identical either way, so callers
/// choose a thread count purely on wall-clock grounds. A panicking item
/// panics the call, with the item's own payload.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let width = threads.min(BUDGET.get()).max(1);
    let participants = width.min(items.len()).max(1);
    let share = (width / participants).max(1);
    let _budget = Budget::enter(share);
    if participants == 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor publishes no data; items were shared
            // before the spawns and results come back through the joins.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(i, item)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let claim = &claim;
        let workers: Vec<_> = (1..participants)
            .map(|_| {
                scope.spawn(move || {
                    let _budget = Budget::enter(share);
                    claim()
                })
            })
            .collect();
        let mut done = claim();
        for worker in workers {
            match worker.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Busy work whose cost grows with `x`: item 0 is free, item 96 costs
    /// ~10⁵ steps, so contiguous chunks would be badly unbalanced.
    fn uneven(x: u64) -> u64 {
        (0..x * x * 10).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
    }

    /// Raises `high` to `live`'s value after counting this call in, holds
    /// the count for a millisecond, then counts it out. The hold only makes
    /// overlaps likely; the bound the tests assert holds on every schedule.
    fn hold(live: &AtomicUsize, high: &AtomicUsize) {
        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
        high.fetch_max(now, Ordering::SeqCst);
        thread::sleep(Duration::from_millis(1));
        live.fetch_sub(1, Ordering::SeqCst);
    }

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).rev().chain(0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| uneven(x)).collect();
        for threads in 0..=8 {
            assert_eq!(
                parallel_map(&items, threads, |_, &x| uneven(x)),
                expected,
                "threads = {threads}"
            );
        }
        assert_eq!(parallel_map(&items, 200, |_, &x| uneven(x)), expected);
    }

    #[test]
    fn passes_global_indices() {
        let items = vec!['a'; 23];
        let indices = parallel_map(&items, 4, |i, _| i);
        assert_eq!(indices, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[42], 4, |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn nested_fan_outs_share_the_outer_width() {
        // (outer width, outer items): more items than the width, and the
        // leftover case of fewer, where each participant's share is > 1.
        for (width, outer, share) in [(2, 6, 1), (4, 9, 1), (8, 2, 4), (8, 3, 2)] {
            let (live, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let outer_items = vec![(); outer];
            let inner_items = vec![(); 6];
            parallel_map(&outer_items, width, |_, _| {
                assert_eq!(BUDGET.get(), share, "width {width}, {outer} outer items");
                parallel_map(&inner_items, width, |_, _| hold(&live, &high));
            });
            let high = high.into_inner();
            assert!(
                (1..=width).contains(&high),
                "{high} items ran at once under width {width}, {outer} outer items"
            );
        }
        assert_eq!(BUDGET.get(), usize::MAX, "the budget is restored after the calls");
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_budget_is_restored() {
        let items: Vec<u32> = (0..16).collect();
        for threads in [1, 2, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(&items, threads, |_, &x| {
                    assert!(x != 11, "item eleven fails");
                    x
                })
            }));
            let payload = caught.expect_err("the item's panic reaches the caller");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(message.contains("item eleven fails"), "threads = {threads}: {message:?}");
            assert_eq!(BUDGET.get(), usize::MAX, "threads = {threads}");
        }
        // Inside an outer participant, the participant's share comes back.
        parallel_map(&[(); 4], 4, |_, _| {
            let before = BUDGET.get();
            let caught =
                catch_unwind(|| parallel_map(&[(); 3], 4, |_, _| -> u8 { panic!("inner") }));
            assert!(caught.is_err());
            assert_eq!(BUDGET.get(), before);
        });
    }

    #[test]
    fn width_one_and_single_items_run_on_the_calling_thread() {
        let caller = thread::current().id();
        let items: Vec<u32> = (0..9).collect();
        let ids: Vec<ThreadId> = parallel_map(&items, 1, |_, _| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        for threads in [0, 1, 2, 8] {
            let ids = parallel_map(&[()], threads, |_, _| thread::current().id());
            assert_eq!(ids, vec![caller], "threads = {threads}");
        }
        // Inside a width-2 fan-out over 2 items each share is 1, so a nested
        // call stays on the participant that made it.
        parallel_map(&[(); 2], 2, |_, _| {
            let here = thread::current().id();
            let ids = parallel_map(&items, 2, |_, _| thread::current().id());
            assert!(ids.iter().all(|&id| id == here));
        });
    }
}
