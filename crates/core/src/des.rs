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
//!
//! Each pending event carries one `u128` key: the `total_cmp` order bits
//! of its time above its push-order number. The queue keeps those events
//! in one of two regimes, chosen by how many are pending:
//!
//! * up to `SCAN_MAX` (16) they sit unordered in a vector, and `pop`
//!   scans it for the least key. A consensus cell's few nodes, its
//!   catch-ups and the election seat stay here;
//! * above that they sit in a binary heap, as the simulator's one pending
//!   event per element does.
//!
//! A push past the bound heapifies the vector in place and a pop back to
//! it keeps the heap's buffer as the vector, so neither switch
//! allocates. Both regimes compare the same keys, which are unique, so
//! the pop order does not depend on the regime.
//!
//! In the heap regime `pop` copies the top out and leaves it in place,
//! marked taken; the next `schedule` overwrites it and sifts the new
//! event down once, and the next `pop` removes it first. A simulator
//! event pops one event and schedules the element's next one, so each
//! such pair costs one sift instead of a pop's and a push's. The taken
//! top is no longer pending: it still counts towards the heap's length,
//! so the switch back to the vector waits for the `pop` that removes it.
//! The vector regime removes at once; deferring there too made the
//! consensus engine slower.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The most pending events the queue keeps in its scanned vector.
const SCAN_MAX: usize = 16;

/// An event kind [`Des`] runs: it names the entity, if any, whose
/// cancellation drops it.
pub trait Event {
    /// The entity whose cancellation drops this event, or `None` for an
    /// event that is never cancelled.
    fn entity(&self) -> Option<usize>;
}

/// `time`'s bits remapped so that unsigned order is [`f64::total_cmp`]
/// order: a negative value has every bit flipped, any other value only its
/// sign bit.
fn order_bits(time: f64) -> u64 {
    let bits = time.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The time whose [`order_bits`] are `order`.
fn time_of(order: u64) -> f64 {
    f64::from_bits(if order >> 63 == 1 {
        order & !(1 << 63)
    } else {
        !order
    })
}

#[derive(Debug, Clone, Copy)]
struct Entry<K> {
    /// [`order_bits`] of the time in the high 64 bits, the push-order
    /// number in the low 64.
    key: u128,
    kind: K,
}

impl<K> Entry<K> {
    fn time(&self) -> f64 {
        time_of((self.key >> 64) as u64)
    }

    fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<K> Eq for Entry<K> {}

impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Entry<K> {
    // Reversed: BinaryHeap is a max-heap, we want the least key first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The pending events, in the regime their count calls for.
#[derive(Debug)]
enum Pending<K> {
    /// At most `SCAN_MAX` events, unordered.
    Scan(Vec<Entry<K>>),
    /// More than `SCAN_MAX` events, counting a taken top.
    Heap(BinaryHeap<Entry<K>>),
}

/// A time-ordered event queue with push-order tie-breaking, per-entity
/// cancellation, a horizon and a count of the events it delivered.
#[derive(Debug)]
pub struct Des<K> {
    pending: Pending<K>,
    /// The heap's top is the entry `pop` last took out (returned, or met
    /// at the horizon), left for the next `schedule` to overwrite. Only
    /// ever set in the heap regime.
    taken: bool,
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
impl<K: Event + Copy> Des<K> {
    /// An empty run up to `horizon` over entities `0..entities`.
    #[must_use]
    pub fn new(entities: usize, horizon: f64) -> Self {
        Des {
            pending: Pending::Scan(Vec::new()),
            taken: false,
            seq: 0,
            cancelled: vec![0; entities],
            horizon,
            events: 0,
        }
    }

    /// Schedules `kind` at `time`. In the heap regime, right after a
    /// [`Des::pop`], the new event takes the popped one's place at the
    /// top and sifts down.
    #[inline]
    pub fn schedule(&mut self, time: f64, kind: K) {
        let key = u128::from(order_bits(time)) << 64 | u128::from(self.seq);
        self.seq += 1;
        let entry = Entry { key, kind };
        match &mut self.pending {
            Pending::Scan(vec) if vec.len() < SCAN_MAX => vec.push(entry),
            Pending::Scan(vec) => {
                let mut heap = BinaryHeap::from(std::mem::take(vec));
                heap.push(entry);
                self.pending = Pending::Heap(heap);
            }
            Pending::Heap(heap) if self.taken => {
                *heap.peek_mut().expect("the taken top is in the heap") = entry;
                self.taken = false;
            }
            Pending::Heap(heap) => heap.push(entry),
        }
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
    ///
    /// In the heap regime the returned (or horizon-ending) event stays at
    /// the heap's top, taken: the next [`Des::schedule`] overwrites it, or
    /// the next `pop` removes it first.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, K)> {
        loop {
            let ev = match &mut self.pending {
                Pending::Scan(vec) => {
                    let mut least = vec.first()?.key;
                    let mut at = 0;
                    for (i, entry) in vec.iter().enumerate().skip(1) {
                        if entry.key < least {
                            least = entry.key;
                            at = i;
                        }
                    }
                    vec.swap_remove(at)
                }
                Pending::Heap(heap) => {
                    if self.taken {
                        heap.pop();
                        if heap.len() <= SCAN_MAX {
                            self.taken = false;
                            self.pending = Pending::Scan(std::mem::take(heap).into_vec());
                            continue;
                        }
                    }
                    self.taken = true;
                    *heap.peek().expect("the heap regime holds events")
                }
            };
            let time = ev.time();
            if time >= self.horizon {
                return None;
            }
            if ev
                .kind
                .entity()
                .is_none_or(|e| ev.seq() >= self.cancelled[e])
            {
                self.events += 1;
                return Some((time, ev.kind));
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

    #[test]
    fn order_bits_sort_like_total_cmp_and_invert() {
        let times = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in times {
            assert_eq!(time_of(order_bits(a)).to_bits(), a.to_bits());
            for b in times {
                assert_eq!(order_bits(a).cmp(&order_bits(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn an_entry_with_a_two_word_kind_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry<[u64; 2]>>(), 32);
    }

    /// A test event with an optional entity and a unique tag.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Tagged(Option<usize>, u64);

    impl Event for Tagged {
        fn entity(&self) -> Option<usize> {
            self.0
        }
    }

    /// The order `Des` promises, kept the naive way: every pending event
    /// in one vector, scanned by `(f64::total_cmp, push order)` on each
    /// pop, with the same cancel and horizon rules.
    struct Reference {
        pending: Vec<(f64, u64, Tagged)>,
        seq: u64,
        cancelled: Vec<u64>,
        horizon: f64,
        events: u64,
    }

    impl Reference {
        fn schedule(&mut self, time: f64, ev: Tagged) {
            self.pending.push((time, self.seq, ev));
            self.seq += 1;
        }

        fn cancel(&mut self, entity: usize) {
            self.cancelled[entity] = self.seq;
        }

        fn pop(&mut self) -> Option<(f64, Tagged)> {
            loop {
                let at = (0..self.pending.len()).min_by(|&a, &b| {
                    let (ta, sa, _) = self.pending[a];
                    let (tb, sb, _) = self.pending[b];
                    ta.total_cmp(&tb).then(sa.cmp(&sb))
                })?;
                let (time, seq, ev) = self.pending.remove(at);
                if time >= self.horizon {
                    return None;
                }
                if ev.0.is_none_or(|e| seq >= self.cancelled[e]) {
                    self.events += 1;
                    return Some((time, ev));
                }
            }
        }
    }

    /// Seeded draws for the randomized test.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(crate::hash::GOLDEN_GAMMA);
            crate::hash::mix64(self.0) % bound
        }

        /// Half the times come from a list, so same-time ties, -0.0
        /// against 0.0 and events at and past the horizon are common; the
        /// rest are uniform on [0, 12) in steps of 0.01.
        fn time(&mut self) -> f64 {
            const TIMES: [f64; 8] = [-0.0, 0.0, 1.0, 2.5, 2.5, 7.0, 10.0, 12.0];
            if self.below(2) == 0 {
                TIMES[self.below(8) as usize]
            } else {
                self.below(1_200) as f64 / 100.0
            }
        }

        fn entity(&mut self) -> Option<usize> {
            match self.below(4) {
                3 => None,
                e => Some(e as usize),
            }
        }
    }

    #[test]
    fn pops_match_a_scanned_reference_in_both_regimes() {
        const HORIZON: f64 = 10.0;
        // Heap-regime steps seen, and switches to the heap and back.
        let (mut heap_ops, mut to_heap, mut to_scan) = (0u32, 0u32, 0u32);
        // Schedules that overwrote a taken top: all of them, and those
        // with a key below every pending one, right after a cancel, or
        // right after a pop that met the horizon.
        let (mut overwrites, mut below_all, mut after_cancel, mut after_horizon) =
            (0u32, 0u32, 0u32, 0u32);
        for seed in 1..=4u64 {
            let mut draw = Draws(seed);
            let mut des = Des::new(3, HORIZON);
            let mut reference = Reference {
                pending: Vec::new(),
                seq: 0,
                cancelled: vec![0; 3],
                horizon: HORIZON,
                events: 0,
            };
            let pop = |des: &mut Des<Tagged>, reference: &mut Reference, step| {
                let got = des.pop();
                let want = reference.pop();
                assert_eq!(
                    got.map(|(t, ev)| (t.to_bits(), ev)),
                    want.map(|(t, ev)| (t.to_bits(), ev)),
                    "seed {seed}, step {step}"
                );
                got.map(|(t, _)| t)
            };
            let mut was_heap = false;
            for step in 0..1_500u64 {
                // Phases of 100 steps fill the queue, run it the way an
                // engine does and drain it, so its pending count crosses
                // SCAN_MAX both ways.
                let phase = step / 100 % 3;
                if phase == 1 {
                    // Engine-shaped: a pop, sometimes a cancel, then one
                    // schedule a little after the popped event.
                    let popped = pop(&mut des, &mut reference, step);
                    let cancelled = draw.below(4) == 0;
                    if cancelled {
                        let entity = draw.below(3) as usize;
                        des.cancel(entity);
                        reference.cancel(entity);
                    }
                    let time = match popped {
                        Some(now) => now + draw.below(300) as f64 / 100.0,
                        None => draw.time(),
                    };
                    if des.taken {
                        overwrites += 1;
                        below_all += u32::from(
                            reference
                                .pending
                                .iter()
                                .all(|p| time.total_cmp(&p.0).is_lt()),
                        );
                        after_cancel += u32::from(cancelled);
                        after_horizon += u32::from(popped.is_none());
                    }
                    let entity = draw.entity();
                    des.schedule(time, Tagged(entity, step));
                    reference.schedule(time, Tagged(entity, step));
                } else {
                    let (schedule, cancel) = if phase == 0 { (7, 8) } else { (2, 3) };
                    let roll = draw.below(10);
                    if roll < schedule {
                        let time = draw.time();
                        let entity = draw.entity();
                        des.schedule(time, Tagged(entity, step));
                        reference.schedule(time, Tagged(entity, step));
                    } else if roll < cancel {
                        let entity = draw.below(3) as usize;
                        des.cancel(entity);
                        reference.cancel(entity);
                    } else {
                        pop(&mut des, &mut reference, step);
                    }
                }
                assert_eq!(des.events(), reference.events, "seed {seed}, step {step}");
                // The heap still holds a taken top, which is no longer
                // pending.
                let is_heap = matches!(des.pending, Pending::Heap(_));
                assert_eq!(
                    is_heap,
                    reference.pending.len() + usize::from(des.taken) > SCAN_MAX,
                    "seed {seed}, step {step}"
                );
                assert!(is_heap || !des.taken);
                heap_ops += u32::from(is_heap);
                to_heap += u32::from(is_heap && !was_heap);
                to_scan += u32::from(was_heap && !is_heap);
                was_heap = is_heap;
            }
        }
        assert!(heap_ops > 1_000 && to_heap > 4 && to_scan > 4);
        assert!(overwrites > 500, "{overwrites} overwrites");
        assert!(below_all > 0 && after_cancel > 0 && after_horizon > 0);
    }
}
