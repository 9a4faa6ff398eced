//! The event queue under both discrete-event engines (`sdnav-sim` and
//! `sdnav-consensus`).
//!
//! [`EventQueue`] pops the earliest `time` first (by [`f64::total_cmp`]);
//! events at the same time pop in push order, so a run is a pure function
//! of its seed. Cancellation stays with the caller: each pushed event
//! carries an `epoch` tag the caller chose (typically the target's
//! generation counter at scheduling time), and the caller drops a popped
//! event whose tag no longer matches. The queue never looks at the tag:
//! each engine keys its generations differently (per element, per node,
//! one for the election seat) and pairs the tag check with its own state
//! checks, so the queue stays a plain ordered heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One event as pushed onto, and popped from, an [`EventQueue`].
#[derive(Debug, Clone, Copy)]
pub struct Scheduled<K> {
    /// Simulation time the event fires at.
    pub time: f64,
    /// Caller-supplied cancellation tag, returned unchanged.
    pub epoch: u64,
    /// What happens.
    pub kind: K,
}

#[derive(Debug)]
struct Entry<K> {
    seq: u64,
    event: Scheduled<K>,
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K> Eq for Entry<K> {}

impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Entry<K> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .event
            .time
            .total_cmp(&self.event.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with push-order tie-breaking.
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Entry<K>>,
    seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<K> EventQueue<K> {
    /// Schedules `kind` at `time`, tagged with the caller's `epoch`.
    pub fn push(&mut self, time: f64, epoch: u64, kind: K) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            seq,
            event: Scheduled { time, epoch, kind },
        });
    }

    /// Removes and returns the earliest event (ties: first pushed).
    pub fn pop(&mut self) -> Option<Scheduled<K>> {
        self.heap.pop().map(|entry| entry.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_time_events_resolve_by_push_order() {
        // Two events at the same timestamp must pop in push order — the
        // tie-break that makes rediscovery scheduling deterministic when a
        // rediscovery lands exactly on another transition.
        let mut queue = EventQueue::default();
        queue.push(5.0, u64::MAX, "first at 5");
        queue.push(5.0, u64::MAX, "second at 5");
        queue.push(4.0, 0, "only at 4");
        let order: Vec<(&str, u64)> = std::iter::from_fn(|| queue.pop())
            .map(|e| (e.kind, e.epoch))
            .collect();
        assert_eq!(
            order,
            vec![
                ("only at 4", 0),
                ("first at 5", u64::MAX),
                ("second at 5", u64::MAX)
            ]
        );
    }
}
