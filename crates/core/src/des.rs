//! The discrete-event core under both engines (`sdnav-sim` and
//! `sdnav-consensus`).
//!
//! [`Des`] pops the earliest `time` first (by [`f64::total_cmp`]) and
//! same-time events in push order, so a run is a pure function of its
//! seed. It also owns cancellation, the horizon and the event count.
//! [`Des::cancel`] marks where in push order an entity was last cancelled,
//! and [`Des::pop`] drops every event whose [`Event::entity`] is that
//! entity and that was pushed before the mark; events with no entity are
//! never dropped. `pop` returns `None` at the first event at or past the
//! horizon, and [`Des::events`] counts only the live events it returned.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event kind [`Des`] runs: it names the entity, if any, whose
/// cancellation drops it.
pub trait Event {
    /// The entity whose cancellation drops this event, or `None` for an
    /// event that is never cancelled.
    fn entity(&self) -> Option<usize>;
}

#[derive(Debug)]
struct Entry<K> {
    time: f64,
    seq: u64,
    kind: K,
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
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with push-order tie-breaking, per-entity
/// cancellation, a horizon and a count of the events it delivered.
#[derive(Debug)]
pub struct Des<K> {
    heap: BinaryHeap<Entry<K>>,
    /// Push-order number of the next scheduled event.
    seq: u64,
    /// Per entity, `seq` at its last cancel: its events numbered below
    /// this are stale.
    cancelled: Vec<u64>,
    horizon: f64,
    events: u64,
}

// The per-event methods are `#[inline]` so large engine loops keep them
// inline.
impl<K: Event> Des<K> {
    /// An empty run up to `horizon` over entities `0..entities`.
    #[must_use]
    pub fn new(entities: usize, horizon: f64) -> Self {
        Des {
            heap: BinaryHeap::new(),
            seq: 0,
            cancelled: vec![0; entities],
            horizon,
            events: 0,
        }
    }

    /// Schedules `kind` at `time`.
    #[inline]
    pub fn schedule(&mut self, time: f64, kind: K) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, kind });
    }

    /// Cancels every event pending for `entity`; events scheduled for it
    /// afterwards stand.
    #[inline]
    pub fn cancel(&mut self, entity: usize) {
        self.cancelled[entity] = self.seq;
    }

    /// Removes and returns the earliest live event (ties: first
    /// scheduled), dropping cancelled ones on the way. Returns `None` when
    /// the queue is empty or its next event is at or past the horizon.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, K)> {
        loop {
            let ev = self.heap.pop()?;
            if ev.time >= self.horizon {
                return None;
            }
            if ev.kind.entity().is_none_or(|e| ev.seq >= self.cancelled[e]) {
                self.events += 1;
                return Some((ev.time, ev.kind));
            }
        }
    }

    /// The live events [`Des::pop`] has returned.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test event: an optional entity and a label.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Ev(Option<usize>, &'static str);

    impl Event for Ev {
        fn entity(&self) -> Option<usize> {
            self.0
        }
    }

    fn drain(des: &mut Des<Ev>) -> Vec<(f64, &'static str)> {
        std::iter::from_fn(|| des.pop())
            .map(|(t, e)| (t, e.1))
            .collect()
    }

    #[test]
    fn same_time_events_resolve_by_push_order() {
        // Two events at the same timestamp must pop in push order — the
        // tie-break that makes rediscovery scheduling deterministic when a
        // rediscovery lands exactly on another transition.
        let mut des = Des::new(1, 10.0);
        des.schedule(5.0, Ev(None, "first at 5"));
        des.schedule(5.0, Ev(Some(0), "second at 5"));
        des.schedule(4.0, Ev(None, "only at 4"));
        assert_eq!(
            drain(&mut des),
            vec![
                (4.0, "only at 4"),
                (5.0, "first at 5"),
                (5.0, "second at 5")
            ]
        );
    }

    #[test]
    fn cancel_drops_only_that_entitys_pending_events() {
        let mut des = Des::new(2, 10.0);
        des.schedule(1.0, Ev(Some(0), "cancelled"));
        des.schedule(2.0, Ev(Some(1), "other entity"));
        des.schedule(3.0, Ev(Some(0), "cancelled too"));
        des.cancel(0);
        des.schedule(4.0, Ev(Some(0), "scheduled after the cancel"));
        assert_eq!(
            drain(&mut des),
            vec![(2.0, "other entity"), (4.0, "scheduled after the cancel")]
        );
    }

    #[test]
    fn events_without_an_entity_are_never_dropped() {
        let mut des = Des::new(1, 10.0);
        des.schedule(1.0, Ev(None, "free"));
        des.schedule(2.0, Ev(Some(0), "owned"));
        des.cancel(0);
        des.schedule(3.0, Ev(None, "free too"));
        des.cancel(0);
        assert_eq!(drain(&mut des), vec![(1.0, "free"), (3.0, "free too")]);
    }

    #[test]
    fn the_first_event_at_the_horizon_ends_the_run() {
        let mut des = Des::new(0, 10.0);
        des.schedule(12.0, Ev(None, "past"));
        des.schedule(10.0, Ev(None, "at the horizon"));
        des.schedule(9.5, Ev(None, "before"));
        assert_eq!(des.pop(), Some((9.5, Ev(None, "before"))));
        assert_eq!(des.pop(), None);
    }

    #[test]
    fn events_count_neither_cancelled_nor_post_horizon_pops() {
        let mut des = Des::new(1, 10.0);
        des.schedule(1.0, Ev(Some(0), "cancelled"));
        des.schedule(2.0, Ev(None, "live"));
        des.schedule(11.0, Ev(None, "past the horizon"));
        des.cancel(0);
        des.schedule(3.0, Ev(Some(0), "live after the cancel"));
        assert_eq!(des.events(), 0);
        assert_eq!(
            drain(&mut des),
            vec![(2.0, "live"), (3.0, "live after the cancel")]
        );
        assert_eq!(des.events(), 2);
        assert_eq!(des.pop(), None);
        assert_eq!(des.events(), 2);
    }
}
