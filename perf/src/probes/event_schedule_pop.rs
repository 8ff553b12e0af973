//! `simnet.event.schedule_pop_ns`: one schedule plus one pop at the run's
//! standing queue depth.

use super::fixture::Point;
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_simnet::event::EventQueue;
use integrade_simnet::time::SimDuration;

pub fn run(point: &Point, _: &mut GrmState) -> f64 {
    let mut queue: EventQueue<u64> = EventQueue::new();
    // Spread like the update timers: one event per node over a period.
    let depth = point.queue_depth.max(1) as u64;
    for i in 0..depth {
        queue.schedule_after(SimDuration::from_micros(1 + i * 30_000_000 / depth), i);
    }
    ns_per_op(|| {
        let (_, payload) = queue.pop().expect("the queue never drains");
        queue.schedule_after(SimDuration::from_secs(30), payload)
    })
}
