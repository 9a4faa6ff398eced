//! Exact availability evaluation by conditional enumeration over shared
//! hardware elements.
//!
//! The paper's Eqs. (2), (4)–(5), (7), (9) and (12)–(15) are all instances
//! of one pattern: *condition on the up/down state of hardware shared by
//! several `(role, node)` blocks, then multiply conditionally independent
//! block availabilities*. This module implements that pattern once, for any
//! topology:
//!
//! 1. Every `(role, node)` block has a hosting chain `{VM, host, rack}`.
//! 2. Chain elements used by **more than one** block correlate blocks and
//!    are enumerated explicitly (for the paper's topologies that is at most
//!    7 elements, i.e. 128 states).
//! 3. Chain elements used by a single block are *folded* into the block's
//!    Bernoulli survival probability.
//! 4. Conditional on the shared state, blocks are independent and the
//!    caller computes system availability from the per-block probabilities.
//! 5. A role's term depends on the shared state only through its
//!    *block-up pattern* (bit `i` set when node `i`'s block is up), so the
//!    callers compute it once per pattern: a [`PatternMemo`] keeps it for
//!    one evaluation, and [`quorum_table`] computes the role's k-of-n product
//!    once per up count instead of once per node subset.

use std::error::Error;
use std::fmt;

use crate::{ControllerSpec, ParamError, Topology, TopologyError};

/// Why an exact analytic model ([`crate::HwModel`], [`crate::SwModel`])
/// could not be built.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A parameter is out of range.
    Param(ParamError),
    /// The topology does not fit the spec.
    Topology(TopologyError),
    /// More hardware elements are shared between `(role, node)` blocks
    /// than exact enumeration supports.
    TooManyShared {
        /// Shared elements in the topology.
        shared: usize,
        /// The most shared elements exact enumeration supports.
        limit: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Param(e) => write!(f, "{e}"),
            ModelError::Topology(e) => write!(f, "{e}"),
            ModelError::TooManyShared { shared, limit } => write!(
                f,
                "topology has {shared} shared elements; exact enumeration supports at most {limit}"
            ),
        }
    }
}

impl Error for ModelError {}

impl From<ParamError> for ModelError {
    fn from(e: ParamError) -> Self {
        ModelError::Param(e)
    }
}

/// Per-block hosting chain after shared/unshared split.
#[derive(Debug, Clone)]
struct BlockChain {
    /// The block's shared chain elements, bit `i` for entry `i` of the
    /// shared-element table; the block is down if any of these is down.
    need: u64,
    /// Product of the availabilities of the block's unshared chain
    /// elements.
    folded: f64,
}

/// Exact enumerator over the shared hardware of a `(spec, topology)` pair.
#[derive(Debug, Clone)]
pub(crate) struct Enumerator {
    /// Availabilities of the shared elements.
    shared: Vec<f64>,
    /// Blocks in `role-major` order: `blocks[r * nodes + node]`.
    blocks: Vec<BlockChain>,
    /// Spec role indices covered, in block-row order.
    role_indices: Vec<usize>,
    /// Cluster size.
    nodes: usize,
}

/// Upper bound on enumerable shared elements (2^20 states ≈ 1M, still fast).
const MAX_SHARED: usize = 20;

impl Enumerator {
    /// Builds the enumerator for the controller-scoped roles of `spec` laid
    /// out on `topology`, with platform availabilities `a_v`, `a_h`, `a_r`.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if the topology does not fit the spec, and
    /// [`ModelError::TooManyShared`] if it shares more than [`MAX_SHARED`]
    /// elements.
    pub(crate) fn new(
        spec: &ControllerSpec,
        topology: &Topology,
        a_v: f64,
        a_h: f64,
        a_r: f64,
    ) -> Result<Self, ModelError> {
        topology.validate(spec).map_err(ModelError::Topology)?;
        let nodes = spec.nodes as usize;

        // Element universe: rack ids, then host ids, then VM ids.
        let rack_base = 0usize;
        let host_base = rack_base + topology.rack_count();
        let vm_base = host_base + topology.host_count();
        let element_count = vm_base + topology.vm_count();
        let avail_of = |elem: usize| -> f64 {
            if elem >= vm_base {
                a_v
            } else if elem >= host_base {
                a_h
            } else {
                a_r
            }
        };

        // Chains per block, in role-major order.
        let mut role_indices = Vec::new();
        let mut chains: Vec<Vec<usize>> = Vec::new();
        let mut usage = vec![0usize; element_count];
        for (role_index, role) in spec.controller_roles() {
            role_indices.push(role_index);
            for node in 0..spec.nodes {
                let vm = topology
                    .vm_of(&role.name, node)
                    .expect("validated topology has all assignments");
                let host = topology.host_of(vm);
                let rack = topology.rack_of(host);
                let chain = vec![rack_base + rack.0, host_base + host.0, vm_base + vm.0];
                for &e in &chain {
                    usage[e] += 1;
                }
                chains.push(chain);
            }
        }

        // Split shared vs folded.
        let mut shared_index = vec![usize::MAX; element_count];
        let mut shared = Vec::new();
        for (e, &uses) in usage.iter().enumerate() {
            if uses >= 2 {
                shared_index[e] = shared.len();
                shared.push(avail_of(e));
            }
        }
        if shared.len() > MAX_SHARED {
            return Err(ModelError::TooManyShared {
                shared: shared.len(),
                limit: MAX_SHARED,
            });
        }

        let blocks = chains
            .into_iter()
            .map(|chain| {
                let mut folded = 1.0;
                let mut need = 0u64;
                for e in chain {
                    if shared_index[e] != usize::MAX {
                        need |= 1 << shared_index[e];
                    } else {
                        folded *= avail_of(e);
                    }
                }
                BlockChain { need, folded }
            })
            .collect();

        Ok(Enumerator {
            shared,
            blocks,
            role_indices,
            nodes,
        })
    }

    /// Spec role indices covered, in block-row order.
    pub(crate) fn role_indices(&self) -> &[usize] {
        &self.role_indices
    }

    /// Cluster size.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of shared elements being enumerated.
    #[cfg(test)]
    pub(crate) fn shared_count(&self) -> usize {
        self.shared.len()
    }

    /// A memo for one role's terms over one [`Enumerator::evaluate`] call.
    ///
    /// A role meets at most one block-up pattern per shared state, so the
    /// memo keeps a table only when its `2^nodes` slots are no more than
    /// the `2^shared` states that could fill it; otherwise it computes
    /// every term.
    pub(crate) fn memo(&self) -> PatternMemo {
        let slots = if self.nodes <= self.shared.len() {
            1 << self.nodes
        } else {
            0
        };
        PatternMemo {
            terms: vec![f64::NAN; slots],
        }
    }

    /// Sums `P(shared state) · cond(q, up)` over all shared states.
    ///
    /// `q` has length `role_indices.len() * nodes` in role-major order;
    /// entry `b` is the probability the block's full chain is up,
    /// conditional on the shared state (zero if a shared chain element is
    /// down, the block's folded availability otherwise). `up[r]` is role
    /// `r`'s block-up pattern, bit `i` set when node `i`'s block is up. It
    /// fixes that role's slice of `q` exactly, so a caller may key the
    /// role's [`PatternMemo`] by it.
    pub(crate) fn evaluate<F: FnMut(&[f64], &[usize]) -> f64>(&self, mut cond: F) -> f64 {
        let s = self.shared.len();
        let mut q = vec![0.0; self.blocks.len()];
        let mut up = vec![0usize; self.role_indices.len()];
        let mut total = 0.0;
        for mask in 0u64..(1u64 << s) {
            let mut weight = 1.0;
            for (i, &a) in self.shared.iter().enumerate() {
                weight *= if mask & (1 << i) != 0 { a } else { 1.0 - a };
                if weight == 0.0 {
                    break;
                }
            }
            if weight == 0.0 {
                continue;
            }
            for (r, pattern) in up.iter_mut().enumerate() {
                *pattern = 0;
                // Nodes in reverse, so that node `i` ends on bit `i`.
                for i in (0..self.nodes).rev() {
                    let b = r * self.nodes + i;
                    let chain = &self.blocks[b];
                    let block_up = mask & chain.need == chain.need;
                    q[b] = if block_up { chain.folded } else { 0.0 };
                    *pattern = *pattern << 1 | usize::from(block_up);
                }
            }
            total += weight * cond(&q, &up);
        }
        total
    }
}

/// One role's term by block-up pattern, memoized for one evaluation
/// (made by [`Enumerator::memo`]).
///
/// Slot `p` holds the term for pattern `p`, or NaN until it is first asked
/// for. The pattern fixes the role's per-node survival probabilities, so a
/// cached term is the value a recomputation would return, bit for bit.
#[derive(Debug)]
pub(crate) struct PatternMemo {
    terms: Vec<f64>,
}

impl PatternMemo {
    /// The term for `pattern`, computed by `term` on first use.
    pub(crate) fn get_or_insert_with(&mut self, pattern: usize, term: impl FnOnce() -> f64) -> f64 {
        match self.terms.get_mut(pattern) {
            Some(slot) if !slot.is_nan() => *slot,
            Some(slot) => {
                *slot = term();
                *slot
            }
            None => term(),
        }
    }
}

/// A role's quorum term by up count: entry `u`, for `u = 0..=nodes`, is
/// `Π_reqs A_{m/u}(a)` over `reqs`, the role's `(m, instance availability)`
/// pairs, multiplied in order and stopping at the first `0.0`.
pub(crate) fn quorum_table(nodes: usize, reqs: &[(u32, f64)]) -> Vec<f64> {
    (0..=nodes as u32)
        .map(|up| {
            let mut avail = 1.0;
            for &(m, a) in reqs {
                avail *= sdnav_blocks::kofn::k_of_n(m, up, a);
                if avail == 0.0 {
                    break;
                }
            }
            avail
        })
        .collect()
}

/// Availability of one role given its per-node survival probabilities.
///
/// `node_probs[i]` is the probability node `i`'s block (chain, and
/// supervisor where required) is up; `by_up` is the role's
/// [`quorum_table`]. Computes `Σ_{S ⊆ nodes} P(exactly S up) · by_up[|S|]`
/// — the paper's Eq. (12)–(13) pattern.
pub(crate) fn role_availability(node_probs: &[f64], by_up: &[f64]) -> f64 {
    let n = node_probs.len();
    let mut total = 0.0;
    for mask in 0u32..(1u32 << n) {
        let mut weight = 1.0;
        let mut up = 0u32;
        for (i, &p) in node_probs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                weight *= p;
                up += 1;
            } else {
                weight *= 1.0 - p;
            }
            if weight == 0.0 {
                break;
            }
        }
        if weight == 0.0 {
            continue;
        }
        total += weight * by_up[up as usize];
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControllerSpec, Topology};

    const EPS: f64 = 1e-12;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    /// [`role_availability`] for a role given as `(m, a)` pairs.
    fn role_availability_of(node_probs: &[f64], reqs: &[(u32, f64)]) -> f64 {
        role_availability(node_probs, &quorum_table(node_probs.len(), reqs))
    }

    #[test]
    fn small_topology_shares_seven_elements() {
        // 1 rack + 3 hosts + 3 VMs, all shared across role blocks.
        let s = spec();
        let e = Enumerator::new(&s, &Topology::small(&s), 0.99995, 0.9999, 0.99999).unwrap();
        assert_eq!(e.shared_count(), 7);
        assert_eq!(e.role_indices().len(), 4);
        assert_eq!(e.nodes(), 3);
    }

    #[test]
    fn medium_topology_shares_five_elements() {
        // 2 racks + 3 hosts shared; the 12 VMs are per-block (folded).
        let s = spec();
        let e = Enumerator::new(&s, &Topology::medium(&s), 0.99995, 0.9999, 0.99999).unwrap();
        assert_eq!(e.shared_count(), 5);
    }

    #[test]
    fn large_topology_shares_three_elements() {
        // 3 racks shared; hosts and VMs are per-block.
        let s = spec();
        let e = Enumerator::new(&s, &Topology::large(&s), 0.99995, 0.9999, 0.99999).unwrap();
        assert_eq!(e.shared_count(), 3);
    }

    #[test]
    fn evaluate_total_probability_is_one() {
        let s = spec();
        for topo in [
            Topology::small(&s),
            Topology::medium(&s),
            Topology::large(&s),
        ] {
            let e = Enumerator::new(&s, &topo, 0.9, 0.8, 0.7).unwrap();
            let total = e.evaluate(|_, _| 1.0);
            assert!((total - 1.0).abs() < EPS, "{}: {total}", topo.name());
        }
    }

    #[test]
    fn evaluate_marginal_block_probability() {
        // E[q_b] must equal A_V · A_H · A_R for every block.
        let s = spec();
        let (a_v, a_h, a_r) = (0.95, 0.9, 0.85);
        for topo in [
            Topology::small(&s),
            Topology::medium(&s),
            Topology::large(&s),
        ] {
            let e = Enumerator::new(&s, &topo, a_v, a_h, a_r).unwrap();
            for b in 0..12 {
                let marginal = e.evaluate(|q, _| q[b]);
                assert!(
                    (marginal - a_v * a_h * a_r).abs() < EPS,
                    "{} block {b}: {marginal}",
                    topo.name()
                );
            }
        }
    }

    #[test]
    fn evaluate_block_correlation_differs_by_topology() {
        // Joint survival of two blocks of the same node: in Small they share
        // the whole chain (joint = marginal); in Large only the rack.
        let s = spec();
        let (a_v, a_h, a_r) = (0.95, 0.9, 0.85);
        let chain = a_v * a_h * a_r;

        let small = Enumerator::new(&s, &Topology::small(&s), a_v, a_h, a_r).unwrap();
        // Blocks 0 and 3 are (role 0, node 0) and (role 1, node 0).
        let joint_small = small.evaluate(|q, _| q[0] * q[3]);
        assert!((joint_small - chain).abs() < EPS, "{joint_small}");

        let large = Enumerator::new(&s, &Topology::large(&s), a_v, a_h, a_r).unwrap();
        let joint_large = large.evaluate(|q, _| q[0] * q[3]);
        let expected = a_r * (a_v * a_h) * (a_v * a_h);
        assert!((joint_large - expected).abs() < EPS, "{joint_large}");
    }

    #[test]
    fn role_availability_reduces_to_k_of_n() {
        // With perfect chains, role availability is the quorum formula.
        let a = 0.997;
        let got = role_availability_of(&[1.0, 1.0, 1.0], &[(2, a)]);
        let expected = sdnav_blocks::kofn::k_of_n(2, 3, a);
        assert!((got - expected).abs() < EPS);
    }

    #[test]
    fn role_availability_with_dead_nodes() {
        // Two nodes certain up, one certain down: 2-of-2 quorum.
        let a: f64 = 0.99;
        let got = role_availability_of(&[1.0, 0.0, 1.0], &[(2, a)]);
        assert!((got - a * a).abs() < EPS);
        // 1-of-2:
        let got = role_availability_of(&[1.0, 0.0, 1.0], &[(1, a)]);
        assert!((got - (1.0 - (1.0 - a) * (1.0 - a))).abs() < EPS);
    }

    #[test]
    fn role_availability_no_requirements_is_one() {
        assert_eq!(role_availability_of(&[0.0, 0.0, 0.0], &[]), 1.0);
    }

    #[test]
    fn role_availability_requirements_multiply_given_chains() {
        // With deterministic chains, requirements are independent.
        let (a1, a2) = (0.9, 0.8);
        let got = role_availability_of(&[1.0, 1.0, 1.0], &[(1, a1), (2, a2)]);
        let expected = sdnav_blocks::kofn::k_of_n(1, 3, a1) * sdnav_blocks::kofn::k_of_n(2, 3, a2);
        assert!((got - expected).abs() < EPS);
    }

    #[test]
    fn role_availability_brute_force_cross_check() {
        // Random-ish chains and two requirements, checked against a direct
        // 2^(3+3·2) enumeration of chains and process instances.
        let probs = [0.9, 0.7, 0.95];
        let reqs = [(1u32, 0.85), (2u32, 0.9)];
        let got = role_availability_of(&probs, &reqs);

        let mut expected = 0.0;
        // chains: 3 bits; per requirement: one instance per node → 2 × 3 bits.
        for mask in 0u32..(1 << 9) {
            let chain = |i: usize| mask & (1 << i) != 0;
            let inst = |r: usize, i: usize| mask & (1 << (3 + r * 3 + i)) != 0;
            let mut p = 1.0;
            for (i, &cp) in probs.iter().enumerate() {
                p *= if chain(i) { cp } else { 1.0 - cp };
            }
            for (r, &(_, a)) in reqs.iter().enumerate() {
                for i in 0..3 {
                    p *= if inst(r, i) { a } else { 1.0 - a };
                }
            }
            let ok = reqs.iter().enumerate().all(|(r, &(m, _))| {
                let up = (0..3).filter(|&i| chain(i) && inst(r, i)).count();
                up >= m as usize
            });
            if ok {
                expected += p;
            }
        }
        assert!(
            (got - expected).abs() < 1e-10,
            "got {got} expected {expected}"
        );
    }

    /// The per-state evaluation the pattern memo replaced, kept as a
    /// reference: every shared state walks each block's shared elements and
    /// recomputes every role term, k-of-n factors included.
    mod per_state {
        use super::super::Enumerator;
        use crate::{ControllerSpec, HwParams, Plane, Scenario, SwParams, Topology};

        fn evaluate(e: &Enumerator, mut cond: impl FnMut(&[f64]) -> f64) -> f64 {
            let s = e.shared.len();
            let mut q = vec![0.0; e.blocks.len()];
            let mut total = 0.0;
            for mask in 0u64..(1u64 << s) {
                let mut weight = 1.0;
                for (i, &a) in e.shared.iter().enumerate() {
                    weight *= if mask & (1 << i) != 0 { a } else { 1.0 - a };
                    if weight == 0.0 {
                        break;
                    }
                }
                if weight == 0.0 {
                    continue;
                }
                for (b, chain) in e.blocks.iter().enumerate() {
                    let mut shared = (0..s).filter(|&i| chain.need & (1 << i) != 0);
                    let up = shared.all(|i| mask & (1 << i) != 0);
                    q[b] = if up { chain.folded } else { 0.0 };
                }
                total += weight * cond(&q);
            }
            total
        }

        fn role_availability(node_probs: &[f64], reqs: &[(u32, f64)]) -> f64 {
            if reqs.is_empty() {
                return 1.0;
            }
            let n = node_probs.len();
            let mut total = 0.0;
            for mask in 0u32..(1u32 << n) {
                let mut weight = 1.0;
                let mut up = 0u32;
                for (i, &p) in node_probs.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        weight *= p;
                        up += 1;
                    } else {
                        weight *= 1.0 - p;
                    }
                    if weight == 0.0 {
                        break;
                    }
                }
                if weight == 0.0 {
                    continue;
                }
                let mut avail = 1.0;
                for &(m, a) in reqs {
                    avail *= sdnav_blocks::kofn::k_of_n(m, up, a);
                    if avail == 0.0 {
                        break;
                    }
                }
                total += weight * avail;
            }
            total
        }

        /// `SwModel`'s CP (`Plane::ControlPlane`) or shared DP availability.
        pub(super) fn sw_plane(
            spec: &ControllerSpec,
            topology: &Topology,
            params: SwParams,
            scenario: Scenario,
            plane: Plane,
        ) -> f64 {
            let e = Enumerator::new(spec, topology, params.a_v, params.a_h, params.a_r).unwrap();
            let nodes = e.nodes();
            let reqs = spec.requirements(plane);
            let role_reqs: Vec<Vec<(u32, f64)>> = e
                .role_indices()
                .iter()
                .map(|&ri| {
                    reqs.iter()
                        .filter(|r| r.role_index == ri)
                        .map(|r| (r.required, r.instance_availability(&params.process)))
                        .collect()
                })
                .collect();
            let sup_factor: Vec<f64> = e
                .role_indices()
                .iter()
                .map(|&ri| {
                    if scenario == Scenario::SupervisorRequired {
                        spec.roles[ri]
                            .supervisor()
                            .map_or(1.0, |s| params.process.for_spec(s))
                    } else {
                        1.0
                    }
                })
                .collect();
            let mut probs = vec![0.0; nodes];
            evaluate(&e, |q| {
                let mut avail = 1.0;
                for (r, reqs) in role_reqs.iter().enumerate() {
                    if reqs.is_empty() {
                        continue;
                    }
                    for (i, p) in probs.iter_mut().enumerate() {
                        *p = q[r * nodes + i] * sup_factor[r];
                    }
                    avail *= role_availability(&probs, reqs);
                    if avail == 0.0 {
                        break;
                    }
                }
                avail
            })
        }

        /// `HwModel::availability`.
        pub(super) fn hw(spec: &ControllerSpec, topology: &Topology, params: HwParams) -> f64 {
            let e = Enumerator::new(spec, topology, params.a_v, params.a_h, params.a_r).unwrap();
            let nodes = e.nodes();
            let quorums: Vec<u32> = e
                .role_indices()
                .iter()
                .map(|&ri| spec.roles[ri].hw_quorum())
                .collect();
            let a_c = params.a_c;
            let mut instance = Vec::with_capacity(nodes);
            evaluate(&e, |q| {
                let mut avail = 1.0;
                for (r, &m) in quorums.iter().enumerate() {
                    if m == 0 {
                        continue;
                    }
                    instance.clear();
                    instance.extend(q[r * nodes..(r + 1) * nodes].iter().map(|&p| p * a_c));
                    avail *= sdnav_blocks::kofn::k_of_n_heterogeneous(m as usize, &instance);
                    if avail == 0.0 {
                        break;
                    }
                }
                avail
            })
        }
    }

    /// Node 0 runs every role on one VM of its own host and rack; the other
    /// nodes give each role its own VM on one host per node, all in a
    /// second rack. A role's blocks then fold different availabilities, so
    /// two block-up patterns with the same up count give different terms.
    fn mixed(spec: &ControllerSpec) -> Topology {
        let mut t = Topology::new("Mixed");
        let consolidated = t.add_rack();
        let shared = t.add_rack();
        let host = t.add_host(consolidated);
        let vm = t.add_vm(host);
        for (_, role) in spec.controller_roles() {
            t.assign(vm, &role.name, 0);
        }
        for node in 1..spec.nodes {
            let host = t.add_host(shared);
            for (_, role) in spec.controller_roles() {
                let vm = t.add_vm(host);
                t.assign(vm, &role.name, node);
            }
        }
        t
    }

    /// One rack holding every role on its own host and VM: the rack is the
    /// only shared element, fewer than the nodes, so no term is memoized.
    fn one_rack(spec: &ControllerSpec) -> Topology {
        let mut t = Topology::new("One-rack");
        let rack = t.add_rack();
        for node in 0..spec.nodes {
            for (_, role) in spec.controller_roles() {
                let host = t.add_host(rack);
                let vm = t.add_vm(host);
                t.assign(vm, &role.name, node);
            }
        }
        t
    }

    #[test]
    fn memo_computes_each_pattern_once_where_it_keeps_a_table() {
        let s = spec();
        let count = |topo: &Topology| {
            let e = Enumerator::new(&s, topo, 0.9, 0.8, 0.7).unwrap();
            let mut memo = e.memo();
            let (mut states, mut computed) = (0, 0);
            let mut patterns = std::collections::BTreeSet::new();
            e.evaluate(|_, up| {
                states += 1;
                patterns.insert(up[0]);
                memo.get_or_insert_with(up[0], || {
                    computed += 1;
                    1.0
                })
            });
            (memo.terms.len(), states, patterns.len(), computed)
        };
        // Small: 128 shared states, 8 patterns of role 0's three blocks.
        assert_eq!(count(&Topology::small(&s)), (8, 128, 8, 8));
        // One rack, fewer shared elements than nodes: no table.
        assert_eq!(count(&one_rack(&s)), (0, 2, 2, 2));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn memoized_models_equal_the_per_state_evaluation_bit_for_bit() {
        use crate::{HwModel, HwParams, Plane, Scenario, SwModel, SwParams};

        let three = spec();
        let five = three.scaled_cluster(5);
        let cases = [
            (&three, Topology::small(&three)),
            (&three, Topology::medium(&three)),
            (&three, Topology::large(&three)),
            (&three, Topology::small_three_racks(&three)),
            (&three, mixed(&three)),
            (&three, one_rack(&three)),
            (&five, Topology::medium(&five)),
            (&five, Topology::large(&five)),
            (&five, mixed(&five)),
        ];
        let sw_defaults = SwParams::paper_defaults();
        let mut sw_params: Vec<SwParams> = crate::sweep::linspace(-1.0, 1.0, 9)
            .into_iter()
            .map(|x| sw_defaults.scale_process_downtime(x))
            .collect();
        sw_params.push(SwParams {
            a_v: 0.0,
            ..sw_defaults
        });
        let bits = |a: f64| a.to_bits();
        for (spec, topo) in &cases {
            for &params in &sw_params {
                for scenario in [
                    Scenario::SupervisorNotRequired,
                    Scenario::SupervisorRequired,
                ] {
                    let model = SwModel::try_new(spec, topo, params, scenario).expect("valid");
                    let cp = per_state::sw_plane(spec, topo, params, scenario, Plane::ControlPlane);
                    let sdp = per_state::sw_plane(spec, topo, params, scenario, Plane::DataPlane);
                    let at = format!("{} x {params:?} {scenario:?}", topo.name());
                    assert_eq!(bits(model.cp_availability()), bits(cp), "CP {at}");
                    assert_eq!(bits(model.shared_dp_availability()), bits(sdp), "SDP {at}");
                    assert_eq!(
                        bits(model.host_dp_availability()),
                        bits(sdp * model.local_dp_availability()),
                        "host DP {at}"
                    );
                }
            }
            for a_c in [0.0, 0.999, 0.9995, 1.0] {
                for params in [
                    HwParams::paper_defaults().with_a_c(a_c),
                    HwParams {
                        a_v: 0.0,
                        ..HwParams::paper_defaults().with_a_c(a_c)
                    },
                ] {
                    let got = HwModel::try_new(spec, topo, params)
                        .expect("valid")
                        .availability();
                    let want = per_state::hw(spec, topo, params);
                    assert_eq!(bits(got), bits(want), "HW {} {params:?}", topo.name());
                }
            }
        }
    }

    #[test]
    fn params_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<crate::SwParams>();
        check::<crate::HwParams>();
    }
}
