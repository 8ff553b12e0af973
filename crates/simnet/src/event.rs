//! Discrete-event scheduling core.
//!
//! [`EventQueue`] is a priority queue of timestamped events with stable FIFO
//! ordering among events scheduled for the same instant. [`World`] is the
//! handler trait a simulation model implements; [`run_until`] /
//! [`run_to_completion`] drive the loop.
//!
//! Internally the queue is a hybrid of four structures tuned for the
//! simulator's dominant workload (periodic ticks and retransmission timers a
//! few seconds to minutes out):
//!
//! - a **timer wheel** of [`WHEEL_SLOTS`] one-second buckets covering the
//!   window `[cursor, cursor + WHEEL_SLOTS)` seconds — O(1) insertion for the
//!   common near-future case;
//! - the **due list**: the bucket currently being drained, sorted once when
//!   it is claimed (latest first) and popped from the back;
//! - a small **late heap** for schedules that land behind the cursor, in a
//!   second whose bucket was already claimed (a handler scheduling a few
//!   hundred microseconds ahead);
//! - a **far heap** for entries beyond the wheel window.
//!
//! Entries never migrate between structures: the wheel bucket for second `s`
//! only ever holds entries for exactly that second (buckets are one second
//! wide, so bucket order implies time order), and the pop path takes the
//! minimum of the due-list back and the two heap tops, so far-future entries
//! interleave correctly even after the cursor passes them. `(time, seq)` is
//! a total order, so which structure an entry waits in never shows in the
//! pop order.
//!
//! There is no cancellation: a timer whose purpose has lapsed fires and
//! finds nothing to do (the grid's request timeouts look their request up
//! and return when it has been answered), which costs one pop instead of a
//! liveness lookup on every schedule and every pop.

use crate::time::{SimDuration, SimTime};
use integrade_obs::profile::{Phase, Profiler};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Width of the timer wheel, in one-second buckets. Covers ~17 simulated
/// minutes ahead of the cursor: update periods, slot ticks and
/// retransmission timers all land inside it.
pub const WHEEL_SLOTS: usize = 1024;

const MICROS_PER_SEC: u64 = 1_000_000;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// Ordering: earliest time first, then insertion order (stable ties).
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Occupancy and maintenance counters of an [`EventQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// High-water mark of everything outside the wheel: the maximum combined
    /// occupancy of the due list (the bucket being drained), the late heap
    /// (sub-second schedules landing behind the cursor) and the far heap
    /// (entries beyond the wheel window). Entries waiting in the O(1) wheel
    /// buckets are not counted. Any run that pops at least one event claims
    /// a bucket, so this is nonzero for every non-trivial simulation — a
    /// zero here means the queue was never exercised.
    pub peak_heap_depth: usize,
    /// Always 0: the queue has no cancellation and so nothing to compact.
    /// The field stays because the benchmark record names it.
    pub compactions: u64,
    /// Schedules that landed in a timer-wheel bucket (O(1) path).
    pub wheel_scheduled: u64,
    /// Schedules that fell through to the far-future heap.
    pub heap_scheduled: u64,
}

/// Which structure holds the next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Front {
    Due,
    Late,
    Far,
}

/// A timestamped event queue with a monotone virtual clock.
///
/// The clock ([`EventQueue::now`]) advances only when events are popped, so a
/// model can never observe time moving backwards.
///
/// # Examples
///
/// ```
/// use integrade_simnet::event::EventQueue;
/// use integrade_simnet::time::{SimTime, SimDuration};
///
/// let mut q = EventQueue::new();
/// q.schedule_after(SimDuration::from_secs(2), "b");
/// q.schedule_at(SimTime::from_secs(1), "a");
/// assert_eq!(q.pop().map(|(t, e)| (t.as_micros(), e)), Some((1_000_000, "a")));
/// assert_eq!(q.pop().map(|(t, e)| (t.as_micros(), e)), Some((2_000_000, "b")));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// One-second buckets for `[cursor_sec, cursor_sec + WHEEL_SLOTS)`.
    wheel: Vec<Vec<Entry<E>>>,
    /// Total entries across all wheel buckets.
    wheel_count: usize,
    /// All due-list and late-heap entries are in seconds `< cursor_sec`; all
    /// wheel entries are in `[cursor_sec, cursor_sec + WHEEL_SLOTS)`.
    cursor_sec: u64,
    /// The claimed bucket, sorted by `(time, seq)` descending: the next
    /// event is the last element.
    due: Vec<Entry<E>>,
    /// Schedules into a second whose bucket was already claimed, a min-heap
    /// on `(time, seq)`. Typically a handful of entries deep.
    late: BinaryHeap<Reverse<Entry<E>>>,
    /// Far-future entries (beyond the wheel window at schedule time).
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    /// Doubles as the next entry's `seq`.
    scheduled_total: u64,
    fired_total: u64,
    stats: QueueStats,
}

impl<E: fmt::Debug> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("wheel_count", &self.wheel_count)
            .field("due", &self.due.len())
            .field("late", &self.late.len())
            .field("heap", &self.heap.len())
            .field("cursor_sec", &self.cursor_sec)
            .finish()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            wheel_count: 0,
            cursor_sec: 0,
            due: Vec::new(),
            late: BinaryHeap::new(),
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            scheduled_total: 0,
            fired_total: 0,
            stats: QueueStats::default(),
        }
    }

    /// The current virtual time (time of the most recently popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True when nothing waits behind the cursor (due list and late heap).
    fn behind_cursor_is_empty(&self) -> bool {
        self.due.is_empty() && self.late.is_empty()
    }

    /// Schedules `payload` at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before [`EventQueue::now`]).
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {}",
            self.now
        );
        // With nothing in the wheel or behind the cursor the window start
        // is unconstrained: snap it forward to `now` so near-future
        // schedules keep hitting the O(1) wheel path after heap-driven
        // time jumps.
        if self.wheel_count == 0 && self.behind_cursor_is_empty() {
            let now_sec = self.now.as_micros() / MICROS_PER_SEC;
            if now_sec > self.cursor_sec {
                self.cursor_sec = now_sec;
            }
        }
        let entry = Entry {
            time,
            seq: self.scheduled_total,
            payload,
        };
        self.scheduled_total += 1;
        let t_sec = time.as_micros() / MICROS_PER_SEC;
        if t_sec < self.cursor_sec {
            // The bucket for this second was already claimed.
            self.late.push(Reverse(entry));
            self.note_heap_occupancy();
        } else if t_sec < self.cursor_sec + WHEEL_SLOTS as u64 {
            self.wheel[(t_sec % WHEEL_SLOTS as u64) as usize].push(entry);
            self.wheel_count += 1;
            self.stats.wheel_scheduled += 1;
        } else {
            self.heap.push(Reverse(entry));
            self.stats.heap_scheduled += 1;
            self.note_heap_occupancy();
        }
    }

    /// Schedules `payload` after the relative delay `delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload)
    }

    /// Records the current occupancy outside the wheel into the
    /// [`QueueStats::peak_heap_depth`] high-water mark. Called at every
    /// point that grows it (heap pushes and bucket claims).
    fn note_heap_occupancy(&mut self) {
        let depth = self.due.len() + self.late.len() + self.heap.len();
        if depth > self.stats.peak_heap_depth {
            self.stats.peak_heap_depth = depth;
        }
    }

    /// Claims the earliest non-empty wheel bucket as the due list and
    /// advances the cursor past it. Caller ensures nothing is left behind
    /// the cursor.
    fn refill_due(&mut self) {
        debug_assert!(self.behind_cursor_is_empty());
        for offset in 0..WHEEL_SLOTS as u64 {
            let sec = self.cursor_sec + offset;
            let bucket = (sec % WHEEL_SLOTS as u64) as usize;
            if !self.wheel[bucket].is_empty() {
                // Take the bucket rather than swapping it with the drained
                // list: a swap would leave every bucket holding a
                // full-sized allocation for the rest of the run.
                self.due = std::mem::take(&mut self.wheel[bucket]);
                self.wheel_count -= self.due.len();
                // Keys are unique, so an unstable sort is a total one.
                self.due.sort_unstable_by(|a, b| b.cmp(a));
                self.note_heap_occupancy();
                self.cursor_sec = sec + 1;
                return;
            }
        }
        debug_assert_eq!(self.wheel_count, 0, "wheel count out of sync");
    }

    /// Locates the globally minimal entry: which structure holds it, and its
    /// time. `None` when no entries remain anywhere.
    fn front(&mut self) -> Option<(SimTime, Front)> {
        if self.behind_cursor_is_empty() && self.wheel_count > 0 {
            self.refill_due();
        }
        // Remaining wheel entries are in seconds >= cursor, strictly after
        // everything behind it, so the global minimum is the smallest of
        // the due-list back and the two heap tops.
        let due = self.due.last().map(|e| (e.key(), Front::Due));
        let late = self.late.peek().map(|Reverse(e)| (e.key(), Front::Late));
        let far = self.heap.peek().map(|Reverse(e)| (e.key(), Front::Far));
        [due, late, far]
            .into_iter()
            .flatten()
            .min()
            .map(|((time, _), front)| (time, front))
    }

    /// Pops the next event if it is due at or before `horizon`, advancing
    /// the clock to its time; leaves the queue untouched otherwise.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (time, front) = self.front()?;
        if time > horizon {
            return None;
        }
        let entry = match front {
            Front::Due => self.due.pop(),
            Front::Late => self.late.pop().map(|Reverse(e)| e),
            Front::Far => self.heap.pop().map(|Reverse(e)| e),
        }
        .expect("front() located this entry");
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.fired_total += 1;
        Some((entry.time, entry.payload))
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// The next pending event and its time, if any, without popping it.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        let (time, front) = self.front()?;
        let entry = match front {
            Front::Due => self.due.last(),
            Front::Late => self.late.peek().map(|Reverse(e)| e),
            Front::Far => self.heap.peek().map(|Reverse(e)| e),
        }
        .expect("front() located this entry");
        Some((time, &entry.payload))
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.front().map(|(time, _)| time)
    }

    /// Number of pending (scheduled, not yet fired) events.
    pub fn len(&self) -> usize {
        (self.scheduled_total - self.fired_total) as usize
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events fired.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Occupancy and maintenance counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Advances the clock to `time` without firing anything.
    ///
    /// # Panics
    ///
    /// Panics if moving backwards or past the next pending event.
    pub fn advance_clock(&mut self, time: SimTime) {
        assert!(time >= self.now, "clock cannot move backwards");
        if let Some(next) = self.peek_time() {
            assert!(time <= next, "cannot advance past pending event at {next}");
        }
        self.now = time;
    }
}

/// A simulation model: owns state and reacts to events, scheduling follow-ups
/// on the queue it is handed.
pub trait World {
    /// The event payload type.
    type Event;

    /// Handles one event at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Outcome of a bounded simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The step budget was exhausted (likely a runaway model).
    StepBudgetExhausted,
}

/// Runs `world` until `horizon` (exclusive of events after it), the queue
/// drains, or `max_steps` events have fired.
///
/// Returns the outcome and the number of events fired.
pub fn run_until<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    horizon: SimTime,
    max_steps: u64,
) -> (RunOutcome, u64) {
    run_until_profiled(world, queue, horizon, max_steps, &Profiler::new())
}

/// [`run_until`], attributing wall time to the two halves of the hot loop —
/// queue operations ([`Phase::QueuePop`]) and world dispatch
/// ([`Phase::Dispatch`]) — through the given profiler. Without the
/// observability crate's `profile` feature the guards are zero-sized
/// no-ops, which is why this is the only loop body there is.
pub fn run_until_profiled<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    horizon: SimTime,
    max_steps: u64,
    profiler: &Profiler,
) -> (RunOutcome, u64) {
    let mut steps = 0;
    loop {
        if steps >= max_steps {
            return (RunOutcome::StepBudgetExhausted, steps);
        }
        let popped = {
            let _pop = profiler.enter(Phase::QueuePop);
            queue.pop_at_or_before(horizon)
        };
        let Some((now, ev)) = popped else {
            let outcome = if queue.is_empty() {
                RunOutcome::Drained
            } else {
                RunOutcome::HorizonReached
            };
            return (outcome, steps);
        };
        {
            let _dispatch = profiler.enter(Phase::Dispatch);
            world.handle(now, ev, queue);
        }
        steps += 1;
    }
}

/// Runs `world` until the queue drains or `max_steps` fire.
pub fn run_to_completion<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    max_steps: u64,
) -> (RunOutcome, u64) {
    run_until(world, queue, SimTime::MAX, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 3u32);
        q.schedule_at(SimTime::from_secs(1), 1u32);
        q.schedule_at(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10u32 {
            q.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaves_wheel_and_heap_entries() {
        // Entries beyond the wheel window land in the heap; popping must
        // interleave them with wheel entries in global time order even after
        // the cursor passes their second.
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64; // just past the initial wheel window
        q.schedule_at(SimTime::from_secs(far), 3u32); // heap
        q.schedule_at(SimTime::from_secs(1), 1u32); // wheel
        q.schedule_at(SimTime::from_secs(far + 2), 4u32); // heap
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        // Now the window snaps forward: this lands in the wheel between the
        // two heap entries.
        q.schedule_at(SimTime::from_secs(far), 10u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 10, 4]);
    }

    #[test]
    fn same_instant_across_structures_fires_in_insertion_order() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(WHEEL_SLOTS as u64);
        q.schedule_at(far, 1u32); // heap (beyond window)
        q.schedule_at(SimTime::from_secs(1), 0u32);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        q.schedule_at(far, 2u32); // wheel (window snapped forward)
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn stats_track_wheel_and_heap_placement() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ()); // wheel
        q.schedule_at(SimTime::from_secs(WHEEL_SLOTS as u64 + 50), ()); // heap
        let stats = q.stats();
        assert_eq!(stats.wheel_scheduled, 1);
        assert_eq!(stats.heap_scheduled, 1);
        assert_eq!(stats.peak_heap_depth, 1);
    }

    /// The high-water mark covers the claimed bucket and late arrivals too:
    /// both are occupancy outside the wheel even when the far-future heap
    /// never sees a single entry.
    #[test]
    fn peak_depth_counts_due_list_and_late_heap_occupancy() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule_at(SimTime::from_millis(500 + u64::from(i)), i);
        }
        // All ten land in wheel bucket 0; the first pop claims the whole
        // bucket as the due list.
        assert_eq!(q.stats().peak_heap_depth, 0, "nothing claimed yet");
        assert!(q.pop().is_some());
        assert_eq!(q.stats().peak_heap_depth, 10, "{:?}", q.stats());
        // A sub-second schedule behind the cursor lands in the late heap
        // and raises the mark past the bucket size.
        q.schedule_at(SimTime::from_millis(700), 99);
        assert_eq!(q.stats().peak_heap_depth, 10, "9 left + 1 late = 10");
        q.schedule_at(SimTime::from_millis(800), 100);
        assert_eq!(q.stats().peak_heap_depth, 11, "{:?}", q.stats());
        assert_eq!(q.stats().heap_scheduled, 0, "far-future heap untouched");
        assert_eq!(q.stats().compactions, 0);
    }

    #[test]
    fn advance_clock_bounded_by_next_event() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.advance_clock(SimTime::from_secs(10));
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "cannot advance past pending event")]
    fn advance_clock_past_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.advance_clock(SimTime::from_secs(2));
    }

    /// A model that counts down: each event schedules the next until zero.
    struct Countdown {
        fired: Vec<u32>,
    }
    impl World for Countdown {
        type Event = u32;
        fn handle(&mut self, _now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.fired.push(ev);
            if ev > 0 {
                q.schedule_after(SimDuration::from_secs(1), ev - 1);
            }
        }
    }

    #[test]
    fn run_to_completion_drains() {
        let mut w = Countdown { fired: vec![] };
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 5u32);
        let (outcome, steps) = run_to_completion(&mut w, &mut q, 1000);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(steps, 6);
        assert_eq!(w.fired, vec![5, 4, 3, 2, 1, 0]);
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut w = Countdown { fired: vec![] };
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 100u32);
        let (outcome, _) = run_until(&mut w, &mut q, SimTime::from_secs(3), 1000);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(w.fired, vec![100, 99, 98, 97]);
    }

    #[test]
    fn run_until_step_budget() {
        let mut w = Countdown { fired: vec![] };
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, u32::MAX);
        let (outcome, steps) = run_to_completion(&mut w, &mut q, 10);
        assert_eq!(outcome, RunOutcome::StepBudgetExhausted);
        assert_eq!(steps, 10);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        assert_eq!((q.len(), q.is_empty()), (2, false));
        assert!(q.pop().is_some());
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.fired_total(), 1);
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_or_before_stops_at_the_horizon_without_side_effects() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), 'a');
        q.schedule_at(SimTime::from_secs(9), 'b');
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(4)), None);
        assert_eq!((q.now(), q.len(), q.fired_total()), (SimTime::ZERO, 2, 0));
        // The horizon is inclusive.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(5)),
            Some((SimTime::from_secs(5), 'a'))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(8)), None);
        assert_eq!(
            q.now(),
            SimTime::from_secs(5),
            "a refused pop moves no clock"
        );
        // A refused pop may have claimed the bucket; later schedules into
        // that second must still come out in order.
        q.schedule_at(SimTime::from_micros(9_000_000), 'c');
        q.schedule_at(SimTime::from_micros(8_999_999), 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['d', 'b', 'c']);
    }

    #[test]
    fn sub_second_ordering_within_one_bucket() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(500_100), 2u32);
        q.schedule_at(SimTime::from_micros(500_000), 1u32);
        q.schedule_at(SimTime::from_micros(500_200), 3u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn late_schedule_into_drained_second_stays_ordered() {
        // Scheduling into a second whose bucket was already claimed goes
        // through the late heap and must interleave with the due list.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(1_000_100), 1u32);
        q.schedule_at(SimTime::from_micros(1_000_300), 3u32);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        q.schedule_at(SimTime::from_micros(1_000_200), 2u32);
        q.schedule_at(SimTime::from_micros(1_000_200), 20u32);
        q.schedule_at(SimTime::from_micros(1_000_400), 4u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 20, 3, 4]);
    }
    /// One step of the model-based test; delays are microseconds from `now`.
    #[derive(Debug, Clone)]
    enum Op {
        At(u64),
        After(u64),
        Pop,
        PopAtOrBefore(u64),
    }

    fn delay() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::prelude::*;
        let window = WHEEL_SLOTS as u64 * MICROS_PER_SEC;
        prop_oneof![
            // The same instant as the event being handled: FIFO ties.
            Just(0u64),
            // Sub-second: behind the cursor whenever the bucket is claimed.
            0u64..MICROS_PER_SEC,
            // Ordinary timers, a few to a bucket.
            0u64..90 * MICROS_PER_SEC,
            // Either side of the wheel window's far edge.
            window - 2 * MICROS_PER_SEC..window + 2 * MICROS_PER_SEC,
            // Far heap; popping one jumps the clock past the whole window.
            2 * window..5 * window,
        ]
    }

    proptest::proptest! {
        /// The queue against the obvious model, an ordered map keyed by
        /// `(time, seq)`: every interleaving of schedules and pops must pop
        /// the same events at the same times and report the same clock,
        /// length and totals, whichever internal structure an entry sat in.
        #[test]
        fn behaves_like_an_ordered_map(ops in proptest::collection::vec(
            {
                use proptest::prelude::*;
                prop_oneof![
                    delay().prop_map(Op::At),
                    delay().prop_map(Op::At),
                    delay().prop_map(Op::After),
                    Just(Op::Pop),
                    Just(Op::Pop),
                    delay().prop_map(Op::PopAtOrBefore),
                ]
            },
            1..300,
        )) {
            use proptest::prelude::*;
            use std::collections::BTreeMap;
            let mut queue: EventQueue<usize> = EventQueue::new();
            let mut model: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
            let (mut now, mut scheduled, mut fired) = (SimTime::ZERO, 0u64, 0u64);
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::At(d) | Op::After(d) => {
                        let at = now + SimDuration::from_micros(d);
                        if matches!(op, Op::At(_)) {
                            queue.schedule_at(at, step);
                        } else {
                            queue.schedule_after(SimDuration::from_micros(d), step);
                        }
                        model.insert((at, scheduled), step);
                        scheduled += 1;
                    }
                    Op::Pop | Op::PopAtOrBefore(_) => {
                        let horizon = match *op {
                            Op::PopAtOrBefore(d) => now + SimDuration::from_micros(d),
                            _ => SimTime::MAX,
                        };
                        let expected = model
                            .first_key_value()
                            .filter(|((at, _), _)| *at <= horizon)
                            .map(|(&key, &payload)| (key, payload));
                        if let Some((key, _)) = expected {
                            model.remove(&key);
                            now = key.0;
                            fired += 1;
                        }
                        let popped = if matches!(op, Op::Pop) {
                            queue.pop()
                        } else {
                            queue.pop_at_or_before(horizon)
                        };
                        prop_assert_eq!(
                            popped,
                            expected.map(|((at, _), payload)| (at, payload)),
                            "step {}: {:?}", step, op
                        );
                    }
                }
                prop_assert_eq!(queue.now(), now, "step {}", step);
                prop_assert_eq!(queue.len(), model.len(), "step {}", step);
                prop_assert_eq!(queue.is_empty(), model.is_empty());
                prop_assert_eq!(queue.scheduled_total(), scheduled);
                prop_assert_eq!(queue.fired_total(), fired);
                prop_assert_eq!(
                    queue.peek_time(),
                    model.first_key_value().map(|((at, _), _)| *at),
                    "step {}", step
                );
            }
            // Drain: whatever is left comes out in model order.
            let rest: Vec<(SimTime, usize)> = std::iter::from_fn(|| queue.pop()).collect();
            let expected: Vec<(SimTime, usize)> =
                model.iter().map(|(&(at, _), &payload)| (at, payload)).collect();
            prop_assert_eq!(rest, expected);
        }
    }
}
