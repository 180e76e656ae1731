//! Deterministic scoped fan-out shared across the workspace.
//!
//! Three layers lean on the same primitive: per-component assignment solving
//! ([`Decomposed`](crate::Decomposed)); per-window dispatch work in
//! `foodmatch-core` — the FoodGraph's per-vehicle collect and price phases
//! and per-stop resolve sweeps, and the batching stage's per-stop oracle
//! sweeps (per-order route plans when batching is off); Algorithm 1's merge
//! candidates are microsecond table plans and stay on the calling thread —
//! with `DispatchConfig::effective_threads` deciding the width; and the
//! router's lockstep shard fan-out. All of
//! them consist of many independent evaluations against shared
//! `Send + Sync` state. [`parallel_map`] fans such work out across
//! `std::thread::scope` workers while keeping the output *bit-for-bit
//! identical* to the serial path: items are split into contiguous chunks,
//! every worker writes only its own chunk, and results come back in input
//! order.
//!
//! This is the function's one home — `foodmatch-matching` is a leaf crate
//! (it depends only on `foodmatch-telemetry`);
//! `foodmatch_core::parallel_map` is a plain re-export of it.

/// Maps `f` over `items` with up to `threads` scoped workers, returning
/// results in input order (the closure also receives the item's index).
///
/// With `threads <= 1` — or fewer items than would justify a spawn — the map
/// runs inline on the calling thread; the output is identical either way, so
/// callers choose a thread count purely on wall-clock grounds.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    let chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(chunk_idx, chunk)| {
                let f = &f;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, item)| f(chunk_idx * chunk_size + i, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("parallel_map worker panicked")).collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [0, 1, 2, 3, 8, 200] {
            assert_eq!(
                parallel_map(&items, threads, |_, &x| x * x),
                expected,
                "threads = {threads}"
            );
        }
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
}
