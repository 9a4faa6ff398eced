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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sdnav_core::hash::{fnv1a, FNV_OFFSET};

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
    /// SW-centric model at one sweep position; the value triple is
    /// `[cp, shared_dp, host_dp]`.
    Sw {
        /// Reference topology index (0 = Small, 1 = Large).
        topology: u8,
        /// Whether the supervisor-required scenario applies.
        supervisor_required: bool,
        /// Figure x-position, `x.to_bits()`.
        x_bits: u64,
    },
}

/// One lock-striped slice of the graph: full keys → availability triples.
///
/// Ordered map on purpose: shard layout and iteration order are functions
/// of the keys alone, never of a per-process hasher seed (detlint DL001/
/// DL004 — the service's metrics and eviction paths walk these maps).
type Shard = Mutex<BTreeMap<(u64, SubModelKey), [f64; 3]>>;

/// A sharded, counting memo table for `(domain, SubModelKey)` →
/// availability triples (see the module docs).
#[derive(Debug)]
pub struct EvalGraph {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
}

impl Default for EvalGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalGraph {
    /// Number of independently locked shards (bounds contention, not
    /// capacity).
    const SHARDS: usize = 16;

    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        EvalGraph {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// Selects the shard for a key via the workspace's fixed-seed FNV-1a,
    /// so the shard assignment (and with it lock-contention behavior and
    /// per-shard layout) is identical in every process.
    fn shard(&self, key: &(u64, SubModelKey)) -> &Shard {
        let mut h = fnv1a(FNV_OFFSET, &key.0.to_le_bytes());
        match key.1 {
            SubModelKey::Hw { a_c_bits } => {
                h = fnv1a(h, b"hw");
                h = fnv1a(h, &a_c_bits.to_le_bytes());
            }
            SubModelKey::Sw {
                topology,
                supervisor_required,
                x_bits,
            } => {
                h = fnv1a(h, b"sw");
                h = fnv1a(h, &[topology, u8::from(supervisor_required)]);
                h = fnv1a(h, &x_bits.to_le_bytes());
            }
        }
        &self.shards[(h as usize) % Self::SHARDS]
    }

    /// Returns the cached triple for `key` under `domain`, computing and
    /// inserting it on a miss.
    ///
    /// `compute` runs outside the shard lock, so two threads racing on the
    /// same key may both evaluate; both then count as misses and the first
    /// insert wins. That costs a duplicated evaluation, never a wrong
    /// answer: `compute` must be (and here is) a pure function of the key,
    /// and the domain fingerprint covers every input it reads.
    pub fn get_or_compute(
        &self,
        domain: u64,
        key: SubModelKey,
        compute: impl FnOnce() -> [f64; 3],
    ) -> [f64; 3] {
        let full = (domain, key);
        if let Some(value) = self.shard(&full).lock().expect("graph shard").get(&full) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *value;
        }
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.shard(&full)
            .lock()
            .expect("graph shard")
            .entry(full)
            .or_insert(value);
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
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut map = shard.lock().expect("graph shard");
            let before = map.len();
            map.retain(|(domain, _), _| live.contains(domain));
            dropped += (before - map.len()) as u64;
        }
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Lookups served from the table.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to evaluate.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by [`EvalGraph::retain_domains`] over the graph's
    /// lifetime.
    #[must_use]
    pub fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Live memoized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("graph shard").len())
            .sum()
    }

    /// Whether the graph holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
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
                topology: 0,
                supervisor_required: false,
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
        let mk = |topology, required| SubModelKey::Sw {
            topology,
            supervisor_required: required,
            x_bits: 0.0f64.to_bits(),
        };
        graph.get_or_compute(DOM, mk(0, false), || [1.0; 3]);
        graph.get_or_compute(DOM, mk(0, true), || [2.0; 3]);
        graph.get_or_compute(DOM, mk(1, false), || [3.0; 3]);
        assert_eq!(graph.misses(), 3);
        assert_eq!(graph.get_or_compute(DOM, mk(0, true), || panic!())[0], 2.0);
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
}
