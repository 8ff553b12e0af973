//! The heap an idle node costs: a budget, asserted with a counting
//! allocator.
//!
//! One grid is built at N and one at 2N nodes, both configured as the
//! `idle50k` benchmark workload configures its grid (one node in twenty
//! replays an office owner's week, six days of GUPA warm-up, measurement
//! noise, suppressed updates). The difference in live heap divided by N is
//! what one more idle node costs: everything the grid holds per node, with
//! the fixed costs cancelled out. It is measured right after
//! `GridBuilder::build` and again after one simulated day and `report()`,
//! which flushes every deferred catch-up.
//!
//! This file is its own test binary because the allocator is process-wide,
//! and it holds a single test so nothing else allocates while it measures.

use integrade_core::grid::{GridBuilder, GridConfig, NodeSetup};
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_usage::sample::{UsageSample, Weekday};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Idle nodes in the smaller grid; the larger holds twice as many. Not a
/// power of two, so tables that grow by doubling cost each grid about the
/// same per node.
const NODES: usize = 2_000;
/// Live heap per idle node right after the build, bytes.
const BUILD_BUDGET: f64 = 3_000.0;
/// Live heap per idle node after one simulated day and the report, bytes.
const DAY_BUDGET: f64 = 4_000.0;

/// A working week at the office: busy 09:00–18:00 on weekdays.
fn office_trace() -> Vec<UsageSample> {
    let mut trace = Vec::with_capacity(7 * 288);
    for day in 0..7u64 {
        let weekday = Weekday::from_day_number(day);
        for slot in 0..288 {
            let busy = !weekday.is_weekend() && (108..216).contains(&slot);
            trace.push(if busy {
                UsageSample::new(0.8, 0.5, 0.1, 0.05)
            } else {
                UsageSample::new(0.02, 0.05, 0.0, 0.0)
            });
        }
    }
    trace
}

/// Live heap held by an idle grid of `nodes` nodes: `(after build, after
/// one day and the report)`.
fn idle_grid_heap(nodes: usize) -> (isize, isize) {
    let before = LIVE.load(Relaxed);
    let far = SimDuration::from_secs(4 * 6 * 24 * 3600);
    let config = GridConfig::builder()
        .seed(11)
        .gupa_warmup_days(6)
        .lupa_noise(0.05)
        .delta_suppression(true)
        .update_period(far)
        .crash_silence(far)
        .build();
    let trace = office_trace();
    let setups = (0..nodes)
        .map(|i| NodeSetup {
            trace: if i % 20 == 0 {
                trace.clone()
            } else {
                Vec::new()
            },
            ..NodeSetup::idle_desktop()
        })
        .collect();
    drop(trace);
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(setups);
    let mut grid = builder.build();
    grid.disable_trace();
    drop(builder);
    let at_build = LIVE.load(Relaxed) - before;
    grid.run_until(SimTime::from_secs(24 * 3600));
    drop(grid.report());
    let after_day = LIVE.load(Relaxed) - before;
    drop(grid);
    (at_build, after_day)
}

#[test]
fn an_idle_node_stays_within_its_heap_budget() {
    let (small_build, small_day) = idle_grid_heap(NODES);
    let (large_build, large_day) = idle_grid_heap(2 * NODES);
    let per_node = |small: isize, large: isize| (large - small) as f64 / NODES as f64;
    let at_build = per_node(small_build, large_build);
    let after_day = per_node(small_day, large_day);
    println!("per idle node: {at_build:.0} B at build, {after_day:.0} B after a day");
    assert!(
        at_build <= BUILD_BUDGET,
        "an idle node holds {at_build:.0} B after the build (budget {BUILD_BUDGET} B)"
    );
    assert!(
        after_day <= DAY_BUDGET,
        "an idle node holds {after_day:.0} B after a day and the report (budget {DAY_BUDGET} B)"
    );
}
