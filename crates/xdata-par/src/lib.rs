//! # xdata-par
//!
//! A dependency-free parallel execution layer built on [`std::thread::scope`]
//! (no rayon, no crossbeam): a small work-stealing pool exposing an
//! order-preserving [`par_map`].
//!
//! Both X-Data paths that use the pool — the kill check and the grading
//! grid — are embarrassingly parallel with *wildly* uneven task costs: one
//! mutant can die on the first dataset while another survives all of
//! them. Static chunking would serialize on the slowest chunk, so workers
//! instead pull the next item from a shared atomic cursor (work stealing
//! at item granularity). Each worker accumulates
//! `(index, result)` pairs locally; the results are scattered back into
//! input order afterwards, which is what makes parallel output
//! **byte-identical** to sequential output regardless of thread count.
//!
//! Determinism contract: `par_map(jobs, items, f)` returns exactly
//! `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` for every
//! `jobs`, provided `f` is a pure function of its arguments. Nothing about
//! scheduling order can leak into the result vector.
//!
//! The [`cancel`] module provides the pipeline's cooperative
//! [`CancelToken`] (atomic flag + optional deadline); [`par_map_cancel`]
//! honours it with an early exit: workers stop claiming items once the
//! token trips, and the unprocessed slots come back as `None` so the
//! caller can attribute every skipped item instead of losing it.

pub mod cancel;

pub use cancel::CancelToken;

use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve a `--jobs`-style request: `0` means "one worker per available
/// hardware thread", anything else is taken literally (and clamped to at
/// least 1).
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    } else {
        requested
    }
}

/// Map `f` over `items` on up to `jobs` scoped worker threads, returning the
/// results **in input order**.
///
/// * `jobs == 0` means auto (see [`resolve_jobs`]); `jobs == 1` (or a
///   single-item / empty input) runs inline on the caller's thread with no
///   spawning at all.
/// * Work is distributed dynamically: each worker repeatedly claims the next
///   unprocessed index from an atomic cursor, so stragglers don't idle the
///   pool.
/// * A panic in `f` propagates to the caller once the scope joins.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_cancel(jobs, items, &CancelToken::new(), f)
        .into_iter()
        .map(|r| r.expect("never-cancelled par_map left a slot unprocessed"))
        .collect()
}

/// [`par_map`] with cooperative early exit: once `cancel` trips, workers
/// stop claiming new items (items already in flight run to completion) and
/// every unprocessed slot is returned as `None`, preserving positional
/// attribution — callers know exactly *which* items were abandoned.
///
/// With a never-tripping token this is exactly [`par_map`]. With a
/// synthetically cancelled token (tripped before the call) no item runs at
/// all. A wall-clock deadline may trip mid-run, in which case *which*
/// slots are `None` depends on scheduling — callers that need determinism
/// must only rely on the already-computed (`Some`) results being pure.
pub fn par_map_cancel<T, R, F>(
    jobs: usize,
    items: &[T],
    cancel: &CancelToken,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = resolve_jobs(jobs).min(items.len());
    // Batch submission time, for the trace's queue-wait attribution: the
    // `par.claim` instant each worker journals when it claims an item
    // carries how long that item sat queued behind earlier claims.
    let submitted = std::time::Instant::now();
    let claim = |i: usize| {
        xdata_obs::instant("par.claim", || {
            format!("item {i} after {}us queued", submitted.elapsed().as_micros())
        });
    };
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, x)| {
                if cancel.is_cancelled() {
                    None
                } else {
                    claim(i);
                    Some(f(i, x))
                }
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    // A panic in `f` is caught at the item, recorded with its index, and
    // re-raised on the caller's thread with the payload *and* the input
    // position — instead of the bare "a scoped thread panicked" join error
    // that loses both. The lowest panicking index wins so the report is
    // deterministic even when several items panic.
    let poisoned = AtomicBool::new(false);
    let first_panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        if poisoned.load(Ordering::Relaxed) || cancel.is_cancelled() {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        claim(i);
                        match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                            Ok(r) => out.push((i, r)),
                            Err(payload) => {
                                let mut slot = first_panic.lock().expect("panic slot");
                                if slot.as_ref().map(|(j, _)| i < *j).unwrap_or(true) {
                                    *slot = Some((i, payload));
                                }
                                poisoned.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("par_map worker panicked")).collect()
    });
    if let Some((i, payload)) = first_panic.into_inner().expect("panic slot") {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        panic!("par_map worker panicked on item {i}: {msg}");
    }
    // Scatter back into input order. The cursor hands each index out at
    // most once; indices never claimed (cancellation tripped first) stay
    // `None`.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            debug_assert!(slots[i].is_none());
            slots[i] = Some(r);
        }
    }
    slots
}

/// [`par_map`] over fallible tasks: short-circuits to the **first** error in
/// *input* order (not completion order), so error reporting is deterministic
/// too. All tasks still run — with independent solver tasks the wasted work
/// on a rare error is cheaper than cross-thread cancellation plumbing.
pub fn try_par_map<T, R, E, F>(jobs: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let results = par_map(jobs, items, f);
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [0, 1, 2, 3, 8, 64] {
            let got = par_map(jobs, &items, |_, x| x * x);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = par_map(4, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn uneven_task_costs_all_complete() {
        // Tasks with pathological skew: item 0 does ~1000x the work.
        let items: Vec<u64> = (0..64).collect();
        let got = par_map(8, &items, |_, &x| {
            let spins = if x == 0 { 100_000 } else { 100 };
            (0..spins).fold(x, |acc, _| acc.wrapping_mul(31).wrapping_add(1))
        });
        assert_eq!(got.len(), items.len());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |_, x| *x).is_empty());
        assert_eq!(par_map(8, &[7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        par_map(7, &items, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn try_par_map_reports_first_error_in_input_order() {
        let items: Vec<i32> = (0..100).collect();
        // Items 30 and 60 fail; input-order first is 30, regardless of
        // which thread finished first.
        for jobs in [1, 2, 8] {
            let r: Result<Vec<i32>, i32> =
                try_par_map(jobs, &items, |_, &x| if x == 30 || x == 60 { Err(x) } else { Ok(x) });
            assert_eq!(r.unwrap_err(), 30, "jobs={jobs}");
        }
    }

    #[test]
    fn try_par_map_ok_preserves_order() {
        let items: Vec<i32> = (0..50).collect();
        let r: Result<Vec<i32>, ()> = try_par_map(4, &items, |_, &x| Ok(x * 2));
        assert_eq!(r.unwrap(), (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_jobs_zero_is_auto() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let items = vec![1u32, 2, 3, 4];
        par_map(2, &items, |_, &x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "par_map worker panicked on item 2: boom at 3")]
    fn worker_panic_reports_item_index_and_payload() {
        let items = vec![1u32, 2, 3, 4];
        par_map(2, &items, |_, &x| {
            if x == 3 {
                panic!("boom at {x}");
            }
            x
        });
    }

    #[test]
    fn worker_panic_lowest_index_wins() {
        // Every item panics; whatever interleaving the pool takes, some
        // panic is always observed and the surfaced index is in range.
        let items: Vec<u32> = (0..32).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(4, &items, |_, &x| -> u32 { panic!("all fail {x}") })
        }));
        let payload = r.expect_err("must panic");
        let msg = payload.downcast_ref::<String>().expect("formatted message");
        assert!(msg.starts_with("par_map worker panicked on item "), "{msg}");
        assert!(msg.contains("all fail"), "payload text lost: {msg}");
    }

    #[test]
    fn cancel_before_start_processes_nothing() {
        let items: Vec<u32> = (0..64).collect();
        let token = CancelToken::new();
        token.cancel();
        for jobs in [1, 4] {
            let got = par_map_cancel(jobs, &items, &token, |_, x| *x);
            assert_eq!(got.len(), items.len(), "jobs={jobs}");
            assert!(got.iter().all(Option::is_none), "jobs={jobs}");
        }
    }

    #[test]
    fn live_token_is_transparent() {
        let items: Vec<u32> = (0..64).collect();
        for jobs in [1, 4] {
            let got = par_map_cancel(jobs, &items, &CancelToken::new(), |_, x| x * 2);
            let flat: Vec<u32> = got.into_iter().map(Option::unwrap).collect();
            assert_eq!(flat, items.iter().map(|x| x * 2).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn mid_run_cancel_keeps_completed_prefix_pure() {
        // A task cancels the token partway through; whatever subset
        // completed must hold correct values in the correct slots.
        let items: Vec<u32> = (0..256).collect();
        let token = CancelToken::new();
        let got = par_map_cancel(4, &items, &token, |i, x| {
            if i == 10 {
                token.cancel();
            }
            x * 3
        });
        assert_eq!(got.len(), items.len());
        let done = got.iter().enumerate().filter_map(|(i, r)| r.map(|v| (i, v)));
        let mut completed = 0usize;
        for (i, v) in done {
            assert_eq!(v, items[i] * 3, "slot {i} holds a wrong value");
            completed += 1;
        }
        assert!(completed >= 1, "the cancelling task itself completed");
        assert!(completed < items.len(), "cancellation must abandon some items");
    }

    #[test]
    #[should_panic(expected = "<non-string panic payload>")]
    fn worker_panic_non_string_payload_still_reports_index() {
        let items = vec![1u32, 2];
        par_map(2, &items, |_, &x| {
            if x == 2 {
                std::panic::panic_any(42i32);
            }
            x
        });
    }
}
