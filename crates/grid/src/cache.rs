//! The incremental evaluation graph: memoized sub-model evaluations
//! content-addressed by domain fingerprint, shared across grid points
//! *and across requests*.
//!
//! Several grid axes revisit the same underlying model evaluation: the
//! Fig. 4 and Fig. 5 sweeps both need the full SW-centric model at every
//! `(topology, scenario, x)` — Fig. 4 reads the control-plane availability,
//! Fig. 5 the per-host data-plane availability — and each evaluation
//! internally performs the expensive k-of-n/RBD conditional enumeration
//! over shared hardware. The graph stores the complete availability triple
//! per evaluation, so whichever figure reaches a point first pays for the
//! enumeration and the other gets it for free.
//!
//! A cached value is a pure function of its key. [`SubModelKey::of`] lists
//! the keys a work item reads, and the executor computes each value from
//! the key's own fields and the domain's parameter set, nothing else. The
//! static cost model (`sdnav_audit::SweepPlan::predict`) walks the same
//! list, so its predicted hits and misses are a 1-thread run's by
//! construction.
//!
//! What makes it a *graph* rather than a per-run cache is the first key
//! component: every entry is addressed by `(domain fingerprint, sub-model
//! key)`, where the domain fingerprint (`sdnav_core::state::ModelState`)
//! covers everything the sub-model reads — the resolved spec document and
//! the relevant parameter set's f64 bit patterns. Editing one SW rate
//! changes the SW domain fingerprint and leaves the HW one untouched, so
//! after a `PATCH` the next evaluation re-derives only the dependent
//! sub-models; every HW entry is still addressable and hits. Entries under
//! dead fingerprints are dropped by [`EvalGraph::retain_domains`], which
//! is what the service's `invalidated` counter reports.
//!
//! The table and its counters sit behind one lock. Its traffic is small:
//! evaluations on one graph are serialized, at most the grid's worker
//! threads share it, and an evaluation looks up one key per Fig. 3 point
//! and four per Fig. 4/5 point (369 on the 41-point paper grid), each hit
//! one map probe under the lock.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use sdnav_core::Scenario;

use crate::plan::{SimTopology, WorkItem};

/// Key of one memoizable sub-model evaluation within a domain.
///
/// Floating-point coordinates are keyed by **bit pattern**: two grid points
/// share an entry only when their parameters are bit-identical, which also
/// guarantees a cached value is exactly what a fresh evaluation would
/// produce — a cache hit can never change a result byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SubModelKey {
    /// HW-centric availabilities at one role availability `A_C`; the value
    /// triple is `[small, medium, large]`.
    Hw {
        /// `A_C.to_bits()`.
        a_c_bits: u64,
    },
    /// SW-centric model of one §VI option at one sweep position; the value
    /// triple is `[cp, shared_dp, host_dp]`.
    Sw {
        /// Reference topology.
        topology: SimTopology,
        /// Supervisor mode of operation.
        scenario: Scenario,
        /// Figure x-position, `x.to_bits()`.
        x_bits: u64,
    },
}

impl SubModelKey {
    /// The keys `item` reads, in lookup order: one [`Hw`](Self::Hw) key
    /// for a Fig. 3 point; for a Fig. 4/5 point the four §VI options as
    /// [`Sw`](Self::Sw) keys — Small then Large, each without and then
    /// with the supervisor required; none for simulated, chaos and
    /// consensus cells.
    #[must_use]
    pub fn of(item: &WorkItem) -> Vec<SubModelKey> {
        match *item {
            WorkItem::Fig3Point { a_c } => vec![SubModelKey::Hw {
                a_c_bits: a_c.to_bits(),
            }],
            WorkItem::SwPoint { x, .. } => [
                (SimTopology::Small, Scenario::SupervisorNotRequired),
                (SimTopology::Small, Scenario::SupervisorRequired),
                (SimTopology::Large, Scenario::SupervisorNotRequired),
                (SimTopology::Large, Scenario::SupervisorRequired),
            ]
            .map(|(topology, scenario)| SubModelKey::Sw {
                topology,
                scenario,
                x_bits: x.to_bits(),
            })
            .to_vec(),
            WorkItem::SimPoint { .. }
            | WorkItem::ChaosPoint { .. }
            | WorkItem::ConsensusPoint { .. } => Vec::new(),
        }
    }
}

/// The graph's state: full keys → availability triples, and the lifetime
/// counters.
///
/// Ordered map on purpose: iteration order is a function of the keys
/// alone, never of a per-process hasher seed (detlint DL001/DL004 — the
/// eviction path walks it).
#[derive(Debug, Default)]
struct Table {
    entries: BTreeMap<(u64, SubModelKey), [f64; 3]>,
    hits: u64,
    misses: u64,
    invalidated: u64,
}

/// A counting memo table for `(domain, SubModelKey)` → availability
/// triples (see the module docs).
#[derive(Debug, Default)]
pub struct EvalGraph {
    table: Mutex<Table>,
}

impl EvalGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The locked table. `compute` never runs under the lock, so a
    /// panicking cell cannot poison it, and every update made under it (a
    /// counter bump, an insert, a `retain`) leaves the table valid, so a
    /// poisoned lock is taken over rather than propagated.
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached triple for `key` under `domain`, computing and
    /// inserting it on a miss.
    ///
    /// `compute` runs outside the lock, so two threads racing on the same
    /// key may both evaluate; both then count as misses and the first
    /// insert wins. That costs a duplicated evaluation, never a wrong
    /// answer: `compute` must be (and in the grid is) a pure function of
    /// the key, and the domain fingerprint covers every input it reads.
    pub fn get_or_compute(
        &self,
        domain: u64,
        key: SubModelKey,
        compute: impl FnOnce() -> [f64; 3],
    ) -> [f64; 3] {
        let full = (domain, key);
        {
            let mut table = self.table();
            let cached = table.entries.get(&full).copied();
            if let Some(value) = cached {
                table.hits += 1;
                return value;
            }
        }
        let value = compute();
        let mut table = self.table();
        table.misses += 1;
        table.entries.entry(full).or_insert(value);
        value
    }

    /// Drops every entry whose domain fingerprint is not in `live`,
    /// returning how many entries were invalidated (also accumulated in
    /// [`EvalGraph::invalidated`]).
    ///
    /// Content-addressing alone keeps stale entries *harmless* — they can
    /// never be looked up under a new fingerprint — but they would pin
    /// memory forever in a long-running service and would make "how much
    /// did that edit invalidate?" unanswerable. `PATCH /v1/spec` calls
    /// this with the post-edit fingerprints.
    pub fn retain_domains(&self, live: &[u64]) -> u64 {
        let mut table = self.table();
        let before = table.entries.len();
        table.entries.retain(|(domain, _), _| live.contains(domain));
        let dropped = (before - table.entries.len()) as u64;
        table.invalidated += dropped;
        dropped
    }

    /// Lookups served from the table.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.table().hits
    }

    /// Lookups that had to evaluate.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.table().misses
    }

    /// Entries dropped by [`EvalGraph::retain_domains`] over the graph's
    /// lifetime.
    #[must_use]
    pub fn invalidated(&self) -> u64 {
        self.table().invalidated
    }

    /// Live memoized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table().entries.len()
    }

    /// Whether the graph holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    use super::*;

    const DOM: u64 = 0xD0;

    #[test]
    fn counts_hits_and_misses() {
        let graph = EvalGraph::new();
        let key = SubModelKey::Hw {
            a_c_bits: 0.9995f64.to_bits(),
        };
        let v1 = graph.get_or_compute(DOM, key, || [1.0, 2.0, 3.0]);
        let v2 = graph.get_or_compute(DOM, key, || panic!("must not recompute"));
        assert_eq!(v1, v2);
        assert_eq!(graph.hits(), 1);
        assert_eq!(graph.misses(), 1);
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let graph = EvalGraph::new();
        for (i, x) in [0.1f64, 0.2, 0.3].iter().enumerate() {
            let key = SubModelKey::Sw {
                topology: SimTopology::Small,
                scenario: Scenario::SupervisorNotRequired,
                x_bits: x.to_bits(),
            };
            let value = graph.get_or_compute(DOM, key, || [i as f64, 0.0, 0.0]);
            assert_eq!(value[0], i as f64);
        }
        assert_eq!(graph.misses(), 3);
        assert_eq!(graph.hits(), 0);
    }

    #[test]
    fn scenario_and_topology_partition_the_sw_keyspace() {
        let graph = EvalGraph::new();
        let mk = |topology, scenario| SubModelKey::Sw {
            topology,
            scenario,
            x_bits: 0.0f64.to_bits(),
        };
        let (small, large) = (SimTopology::Small, SimTopology::Large);
        let (free, required) = (
            Scenario::SupervisorNotRequired,
            Scenario::SupervisorRequired,
        );
        graph.get_or_compute(DOM, mk(small, free), || [1.0; 3]);
        graph.get_or_compute(DOM, mk(small, required), || [2.0; 3]);
        graph.get_or_compute(DOM, mk(large, free), || [3.0; 3]);
        assert_eq!(graph.misses(), 3);
        assert_eq!(
            graph.get_or_compute(DOM, mk(small, required), || panic!())[0],
            2.0
        );
    }

    #[test]
    fn domains_partition_the_keyspace() {
        let graph = EvalGraph::new();
        let key = SubModelKey::Hw {
            a_c_bits: 0.5f64.to_bits(),
        };
        graph.get_or_compute(1, key, || [1.0; 3]);
        // Same sub-model key under another domain is a distinct entry.
        assert_eq!(graph.get_or_compute(2, key, || [2.0; 3])[0], 2.0);
        assert_eq!(graph.misses(), 2);
        assert_eq!(graph.get_or_compute(1, key, || panic!())[0], 1.0);
    }

    #[test]
    fn retain_domains_drops_only_dead_fingerprints() {
        let graph = EvalGraph::new();
        let key = |bits: u64| SubModelKey::Hw { a_c_bits: bits };
        graph.get_or_compute(1, key(10), || [1.0; 3]);
        graph.get_or_compute(1, key(11), || [1.0; 3]);
        graph.get_or_compute(2, key(10), || [2.0; 3]);
        assert_eq!(graph.len(), 3);

        let dropped = graph.retain_domains(&[2]);
        assert_eq!(dropped, 2);
        assert_eq!(graph.invalidated(), 2);
        assert_eq!(graph.len(), 1);

        // The surviving domain still hits; the dead one recomputes.
        assert_eq!(graph.get_or_compute(2, key(10), || panic!())[0], 2.0);
        let v = graph.get_or_compute(1, key(10), || [9.0; 3]);
        assert_eq!(v[0], 9.0);
    }

    #[test]
    fn retain_with_no_live_domains_empties_the_graph() {
        let graph = EvalGraph::new();
        graph.get_or_compute(7, SubModelKey::Hw { a_c_bits: 1 }, || [1.0; 3]);
        assert!(!graph.is_empty());
        assert_eq!(graph.retain_domains(&[]), 1);
        assert!(graph.is_empty());
    }

    #[test]
    fn racing_threads_both_miss_and_leave_one_entry() {
        let graph = EvalGraph::new();
        let key = SubModelKey::Hw {
            a_c_bits: 0.999f64.to_bits(),
        };
        // Neither thread can finish computing until both are computing,
        // so both looked the key up before either inserted it.
        let barrier = Barrier::new(2);
        let compute = || {
            barrier.wait();
            [1.0, 2.0, 3.0]
        };
        let values: Vec<[f64; 3]> = std::thread::scope(|s| {
            let racers = [
                s.spawn(|| graph.get_or_compute(DOM, key, compute)),
                s.spawn(|| graph.get_or_compute(DOM, key, compute)),
            ];
            racers
                .map(|racer| racer.join().expect("racer finishes"))
                .to_vec()
        });
        assert_eq!(values, vec![[1.0, 2.0, 3.0]; 2]);
        assert_eq!(graph.misses(), 2);
        assert_eq!(graph.hits(), 0);
        assert_eq!(graph.len(), 1);
        let third = graph.get_or_compute(DOM, key, || panic!("must hit"));
        assert_eq!(third, [1.0, 2.0, 3.0]);
        assert_eq!(graph.hits(), 1);
    }

    #[test]
    fn a_panicking_compute_leaves_the_table_usable() {
        let graph = EvalGraph::new();
        let key = SubModelKey::Hw { a_c_bits: 3 };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            graph.get_or_compute(DOM, key, || panic!("cell panicked"))
        }));
        assert!(caught.is_err());
        assert_eq!(graph.misses(), 0);
        assert!(graph.is_empty());
        assert_eq!(graph.get_or_compute(DOM, key, || [4.0; 3]), [4.0; 3]);
        assert_eq!(graph.misses(), 1);
    }
}
