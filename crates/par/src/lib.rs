//! Deterministic batch fan-out over scoped threads.
//!
//! Every batch engine in the workspace — packed and bitplane inference,
//! `BatchRunner` simulation, chip evaluation and the training kernels'
//! task split — makes the same decision: cut a batch into contiguous,
//! near-equal ranges and run each range on its own thread. This crate is
//! the one place that decision lives.
//!
//! - [`chunk_plan`] splits `0..items` into at most `workers` contiguous,
//!   non-empty ranges whose lengths differ by at most one.
//! - [`fan_out`] runs a closure once per range on `std::thread::scope`
//!   threads, each with its own input chunk and disjoint output chunk,
//!   and returns the per-range results in plan order.
//!
//! Because each range writes only its own output slots, the merged output
//! is in input order by construction, and a pure per-item function gives
//! bitwise-identical output for any worker count. A plan of at most one
//! range runs inline on the calling thread, so `workers = 1` never spawns.
//!
//! # Examples
//!
//! ```
//! let items: Vec<u64> = (1..=10).collect();
//! let mut squares = vec![0u64; items.len()];
//! let lens = sushi_par::fan_out(&items, &mut squares, 3, 1, |_, xs, out| {
//!     for (x, o) in xs.iter().zip(out.iter_mut()) {
//!         *o = x * x;
//!     }
//!     xs.len()
//! });
//! assert_eq!(lens, vec![4, 3, 3]);
//! assert_eq!(squares[9], 100);
//! ```

use std::ops::Range;

/// Splits `0..items` into at most `workers` contiguous, non-empty ranges
/// of near-equal length (sizes differ by at most one, longer ranges
/// first).
///
/// The effective worker count is clamped to `1..=items`, so the plan never
/// contains an empty range and a batch never spawns more threads than it
/// has items. `workers = 0` degrades to a single range.
pub fn chunk_plan(items: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, items.max(1));
    let base = items / workers;
    let extra = items % workers;
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let len = base + usize::from(w < extra);
            let r = start..start + len;
            start += len;
            r
        })
        .filter(|r| !r.is_empty())
        .collect()
}

/// Runs `f(start, item_chunk, out_chunk)` once per range of a
/// [`chunk_plan`] and returns each range's result in plan order.
///
/// The plan is made over groups of `grain` items (`grain = 64` for
/// bitplane lane groups; 0 is treated as 1) and mapped back to item
/// ranges, so only the last range can hold a ragged group. `start` is the
/// range's first item index; `out` holds one slot per item and each range
/// gets the matching slots.
///
/// With at most one range — `workers <= 1`, or too few items — `f` runs
/// once on the calling thread over the whole batch (even an empty one)
/// and no thread is spawned.
///
/// # Panics
///
/// Panics if `out.len() != items.len()`, and re-raises the panic of any
/// worker with its original payload.
pub fn fan_out<T, O, R, F>(items: &[T], out: &mut [O], workers: usize, grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    O: Send,
    R: Send,
    F: Fn(usize, &[T], &mut [O]) -> R + Sync,
{
    assert_eq!(out.len(), items.len(), "one output slot per item");
    let grain = grain.max(1);
    let plan = chunk_plan(items.len().div_ceil(grain), workers);
    if plan.len() <= 1 {
        return vec![f(0, items, out)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = out;
        let handles: Vec<_> = plan
            .iter()
            .map(|groups| {
                let range = groups.start * grain..(groups.end * grain).min(items.len());
                let (out_chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                let item_chunk = &items[range.clone()];
                scope.spawn(move || f(range.start, item_chunk, out_chunk))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn plans_are_clamped_balanced_and_covering() {
        assert!(chunk_plan(0, 4).is_empty());
        for (items, workers) in [
            (1, 1),
            (1, 8),
            (1, 64),
            (3, 16),
            (5, 2),
            (5, 4),
            (10, 6),
            (13, 7),
            (16, 4),
            (64, 64),
            (100, 7),
        ] {
            let plan = chunk_plan(items, workers);
            // One range per effective worker, never more than items.
            assert_eq!(plan.len(), items.min(workers), "({items},{workers})");
            // Contiguous exact cover, no empty ranges.
            let mut next = 0;
            for r in &plan {
                assert_eq!(r.start, next, "({items},{workers})");
                assert!(!r.is_empty(), "({items},{workers})");
                next = r.end;
            }
            assert_eq!(next, items, "({items},{workers})");
            // Balanced: lengths differ by at most one, longer first.
            let lens: Vec<usize> = plan.iter().map(|r| r.len()).collect();
            assert!(lens.windows(2).all(|w| w[0] >= w[1]), "{lens:?}");
            assert!(lens[0] - lens[lens.len() - 1] <= 1, "{lens:?}");
        }
        assert_eq!(chunk_plan(5, 0), vec![0..5]);
    }

    #[test]
    fn fan_out_preserves_output_order() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [1usize, 2, 3, 7, 64] {
            let mut out = vec![0u64; items.len()];
            fan_out(&items, &mut out, workers, 1, |start, xs, out| {
                for (off, (x, o)) in xs.iter().zip(out.iter_mut()).enumerate() {
                    assert_eq!(*x, (start + off) as u64, "start is the item index");
                    *o = x * 10;
                }
            });
            let want: Vec<u64> = items.iter().map(|x| x * 10).collect();
            assert_eq!(out, want, "workers={workers}");
        }
    }

    #[test]
    fn results_come_back_in_plan_order() {
        let items = vec![0u8; 10];
        let mut out = vec![0u8; 10];
        let ranges = fan_out(&items, &mut out, 6, 1, |start, xs, _| {
            start..start + xs.len()
        });
        assert_eq!(ranges, chunk_plan(10, 6));
        assert_eq!(ranges.len(), 6, "10 items on 6 workers keep every worker");
    }

    #[test]
    fn single_range_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let items = vec![1u32; 5];
        let mut out = vec![0u32; 5];
        for (n, workers, grain) in [(5usize, 1usize, 1usize), (1, 8, 1), (5, 4, 64), (0, 4, 1)] {
            let ids = fan_out(&items[..n], &mut out[..n], workers, grain, |_, _, _| {
                thread::current().id()
            });
            assert_eq!(ids, vec![caller], "({n},{workers},{grain})");
        }
        let ids = fan_out(&items, &mut out, 2, 1, |_, _, _| thread::current().id());
        assert_eq!(ids.len(), 2);
        assert!(
            ids.iter().all(|&id| id != caller),
            "two ranges spawn workers"
        );
    }

    #[test]
    fn grain_maps_group_ranges_to_item_ranges() {
        // 200 items = 4 groups of 64 (the last one ragged: 8 items).
        let items = vec![0u8; 200];
        let mut out = vec![0u8; 200];
        for (workers, want) in [
            (2usize, vec![0..128, 128..200]),
            (3, vec![0..128, 128..192, 192..200]),
            (4, vec![0..64, 64..128, 128..192, 192..200]),
            (9, vec![0..64, 64..128, 128..192, 192..200]),
        ] {
            let got = fan_out(&items, &mut out, workers, 64, |start, xs, out| {
                assert_eq!(xs.len(), out.len());
                start..start + xs.len()
            });
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "worker 3 failed")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..8).collect();
        let mut out = vec![0usize; 8];
        fan_out(&items, &mut out, 4, 1, |_, xs, _| {
            if xs.contains(&3) {
                panic!("worker 3 failed");
            }
        });
    }
}
