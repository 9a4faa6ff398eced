//! A reusable, std-only work-stealing thread pool for batch evaluation.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Execution counters reported by [`execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads actually used (never more than the item count).
    pub workers: usize,
    /// Items a worker executed after stealing them from a sibling's queue.
    pub steals: u64,
}

/// Runs `f` over every item on `threads` workers and returns the results
/// in item order.
///
/// Items are dealt round-robin onto per-worker deques up front; each worker
/// drains its own deque from the front and, once empty, steals from the
/// back of the next non-empty sibling. Each item's result lands in the slot
/// fixed by its index, so the returned vector is **identical for any thread
/// count** — parallelism changes only the wall clock (and the steal
/// counter).
///
/// `threads == 0` is treated as 1. A panicking item propagates its panic to
/// the caller, through the thread scope once the other workers finish.
pub fn execute<I, T, F>(threads: usize, items: &[I], f: F) -> (Vec<T>, PoolStats)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    let steals = AtomicU64::new(0);

    if workers == 1 {
        let results = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        return (results, PoolStats { workers, steals: 0 });
    }

    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
        .collect();
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let steals = &steals;
            let f = &f;
            scope.spawn(move || loop {
                let own = deques[w].lock().expect("deque lock").pop_front();
                let (index, stolen) = match own {
                    Some(i) => (i, false),
                    None => {
                        let mut found = None;
                        for k in 1..workers {
                            let victim = (w + k) % workers;
                            if let Some(i) = deques[victim].lock().expect("deque lock").pop_back() {
                                found = Some(i);
                                break;
                            }
                        }
                        match found {
                            Some(i) => (i, true),
                            // Every deque is empty: no new work can appear
                            // (the item set is fixed up front), so exit.
                            None => break,
                        }
                    }
                };
                if stolen {
                    steals.fetch_add(1, Ordering::Relaxed);
                }
                let value = f(index, &items[index]);
                *slots[index].lock().expect("slot lock") = Some(value);
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every item executed")
        })
        .collect();
    (
        results,
        PoolStats {
            workers,
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 4, 16] {
            let (results, stats) = execute(threads, &items, |i, &item| {
                assert_eq!(i, item);
                item * 3
            });
            assert_eq!(results, (0..97).map(|i| i * 3).collect::<Vec<_>>());
            assert!(stats.workers <= 16);
        }
    }

    #[test]
    #[should_panic]
    fn an_item_panic_propagates_to_the_caller() {
        let items: Vec<usize> = (0..8).collect();
        execute(2, &items, |_, &item| {
            assert_ne!(item, 5, "item 5 panics");
            item
        });
    }

    #[test]
    fn more_threads_than_items() {
        let items = [10, 20];
        let (results, stats) = execute(64, &items, |_, &x| x + 1);
        assert_eq!(results, vec![11, 21]);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn empty_and_single_item() {
        let (results, _) = execute(4, &[] as &[u32], |_, &x| x);
        assert!(results.is_empty());
        let (results, stats) = execute(4, &[7], |_, &x| x);
        assert_eq!(results, vec![7]);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn idle_workers_steal_queued_items() {
        // Worker 0's first item blocks until every *other* item is done.
        // With two workers, worker 0 still owns items 2, 4, … in its deque,
        // so the only way the blocked item can ever unblock is worker 1
        // stealing them — the steal counter must come back nonzero.
        let done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..9).collect();
        let total = items.len();
        let (results, stats) = execute(2, &items, |i, &item| {
            if i == 0 {
                while done.load(Ordering::SeqCst) < total - 1 {
                    std::thread::yield_now();
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            item
        });
        assert_eq!(results, items);
        assert!(stats.steals > 0, "expected steals, got {:?}", stats);
    }
}
