//! The one scoped-thread executor in core. The chunked report flush
//! ([`crate::tick::Flush`]) and the federation's member rounds run on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `body` once per item on up to `workers` threads, the calling thread
/// among them, and returns the results in item order.
///
/// Worker `w` (the caller is worker 0) starts on item `w`; after that each
/// worker takes the next unclaimed item from a shared atomic cursor, so one
/// long item does not hold up the short ones behind it. With as many
/// workers as items, each runs exactly one item and item 0 runs on the
/// caller; with one worker or one item no thread is created. A panicking
/// body, on whichever thread, unwinds out of this call with its original
/// payload.
pub(crate) fn scoped_map<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    body: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(body).collect();
    }
    // One slot per item lets whichever worker claims an index move the item
    // out without `unsafe`; each lock is taken once and never contended.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // The cursor only hands out indices. Items travel through the slots'
    // locks, so it publishes no data and can be relaxed.
    let cursor = AtomicUsize::new(workers);
    let run = |first: usize| {
        let mut done = Vec::new();
        let mut index = first;
        while let Some(slot) = slots.get(index) {
            let item = slot
                .lock()
                .expect("nothing panics while a slot is locked")
                .take()
                .expect("each index is claimed once");
            done.push((index, body(item)));
            index = cursor.fetch_add(1, Ordering::Relaxed);
        }
        done
    };
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(slots.len()).collect();
    std::thread::scope(|scope| {
        let run = &run;
        let helpers: Vec<_> = (1..workers).map(|w| scope.spawn(move || run(w))).collect();
        let mut done = run(0);
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        for (index, result) in done {
            results[index] = Some(result);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// Scenario salts for the parity tests of the code that runs on this
/// executor: one by default, `CHAOS_SEEDS` (comma-separated u64s) in CI's
/// chaos step.
#[cfg(test)]
pub(crate) fn chaos_salts() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(spec) => {
            let seeds: Vec<u64> = spec
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect();
            assert!(!seeds.is_empty(), "CHAOS_SEEDS set but empty: {spec:?}");
            seeds
        }
        Err(_) => vec![0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            assert_eq!(scoped_map(items.clone(), workers, |i| i * i), expected);
        }
    }

    #[test]
    fn item_zero_runs_on_the_caller_and_one_worker_spawns_nothing() {
        let caller = std::thread::current().id();
        let threads = |workers| scoped_map(vec![(); 3], workers, |()| std::thread::current().id());
        assert!(threads(1).iter().all(|t| *t == caller));
        let spread = threads(3);
        assert_eq!(spread[0], caller, "item 0 is inline");
        assert!(
            spread[1..].iter().all(|t| *t != caller),
            "items 1.. are spawned"
        );
    }

    #[test]
    #[should_panic(expected = "item 2 lost its footing")]
    fn a_worker_panic_propagates_with_its_own_message() {
        scoped_map((0..3).collect(), 3, |i: usize| {
            assert!(i != 2, "item {i} lost its footing");
        });
    }

    #[test]
    fn items_can_be_exclusive_borrows() {
        let mut cells = vec![0u32; 9];
        let borrows: Vec<&mut u32> = cells.iter_mut().collect();
        scoped_map(borrows, 4, |cell| *cell += 1);
        assert_eq!(cells, vec![1; 9]);
    }
}
