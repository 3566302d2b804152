//! The simulation's event queue and clock: events pop a tick at a time in
//! time order, FIFO within a tick.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, with the
        // insertion sequence breaking ties so same-time events pop FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event simulation over events of type `E`: a time-ordered
/// queue and the clock of the last tick popped.
pub struct Simulation<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Simulation {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> Simulation<E> {
    pub fn new() -> Simulation<E> {
        Self::default()
    }

    /// The tick of the last batch popped.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queue `event` at `time`. A time before [`now`](Self::now) is not
    /// clamped: the event pops in the next batch, at its own time.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pop every event scheduled for the earliest pending tick as one
    /// batch, in FIFO scheduling order, and set the clock to that tick.
    /// The platform applies a whole tick's worth of worker actions in one
    /// go, then synchronises task state once. `None` when the queue is
    /// empty.
    pub fn next_batch(&mut self) -> Option<(SimTime, Vec<E>)> {
        let time = self.heap.peek()?.time;
        let mut batch = Vec::new();
        while self.heap.peek().is_some_and(|e| e.time == time) {
            batch.push(self.heap.pop().expect("peeked").event);
        }
        self.now = time;
        Some((time, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn next_batch_groups_same_tick_events_fifo() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime(10), "b");
        sim.schedule(SimTime(5), "a");
        sim.schedule(SimTime(10), "c");
        assert_eq!(sim.next_batch(), Some((SimTime(5), vec!["a"])));
        assert_eq!(sim.now(), SimTime(5));
        assert_eq!(sim.next_batch(), Some((SimTime(10), vec!["b", "c"])));
        assert_eq!(sim.now(), SimTime(10));
        assert_eq!(sim.next_batch(), None);
        assert_eq!(sim.now(), SimTime(10), "an empty pop leaves the clock");
    }

    #[test]
    fn chain_of_events_until_exhausted() {
        // Each event schedules the next one ten ticks on, as the driver
        // schedules follow-ups while it applies a batch.
        let mut sim = Simulation::new();
        sim.schedule(SimTime(0), 0u32);
        let mut seen = Vec::new();
        while let Some((now, batch)) = sim.next_batch() {
            for n in batch {
                seen.push((now, n));
                if n < 4 {
                    sim.schedule(now + SimDuration::secs(10), n + 1);
                }
            }
        }
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[4], (SimTime(40), 4));
        assert_eq!(sim.now(), SimTime(40));
    }

    #[test]
    fn empty_simulation_exhausts_immediately() {
        let mut sim: Simulation<()> = Simulation::new();
        assert!(sim.next_batch().is_none());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime(10), "late");
        sim.schedule(SimTime(1), "early");
        assert_eq!(sim.next_batch().unwrap().1, ["early"]);
        sim.schedule(SimTime(5), "mid");
        assert_eq!(sim.next_batch().unwrap().1, ["mid"]);
        assert_eq!(sim.next_batch().unwrap().1, ["late"]);
    }

    #[test]
    fn past_times_are_not_clamped() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime(10), 0);
        assert_eq!(sim.next_batch(), Some((SimTime(10), vec![0])));
        sim.schedule(SimTime(3), 1);
        assert_eq!(sim.next_batch(), Some((SimTime(3), vec![1])));
        assert_eq!(sim.now(), SimTime(3));
    }
}
