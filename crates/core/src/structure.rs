//! The element table: every failable element of a deployment numbered once,
//! and the CP/DP structure function over it.
//!
//! The FMEA (`sdnav-fmea`) and the discrete-event simulator (`sdnav-sim`)
//! ask the same boolean question — is the control plane, or a compute
//! host's data plane, up given which elements are down? — and both answer
//! it here. A caller holds one [`UpState`] from [`Structure::up_state`]
//! and flips elements with [`UpState::set`] as they fail and recover. The
//! state keeps the CP/DP tallies current through an inverted index built
//! once by [`Structure::new`], so a flip touches only the quorum blocks
//! that need the element and every query is O(1).
//!
//! Element indices are laid out as
//! `racks | hosts | VMs | controller process instances | per-host processes`:
//! controller instances role-major, then node, then process; per-host
//! processes compute-host-major, then process.

use crate::{ControllerSpec, Plane, RestartMode, Scenario, Topology, TopologyError};

/// What one element of a [`Structure`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Component {
    /// A rack.
    Rack,
    /// A host.
    Host,
    /// A VM.
    Vm,
    /// A controller process instance or a per-host process.
    Process(ProcessElement),
}

/// A process element: one controller-role process on one node, or one
/// per-host process on one compute host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessElement {
    /// How the process restarts.
    pub restart: RestartMode,
    /// Whether the process is its node-role's (or compute host's)
    /// supervisor.
    pub is_supervisor: bool,
    /// Element index of the supervisor of the same node-role (or compute
    /// host), if there is one.
    pub supervisor: Option<usize>,
    /// The spec's downtime multiplier.
    pub downtime_factor: f64,
}

/// One CP or DP quorum requirement resolved to element indices.
#[derive(Debug, Clone)]
pub struct Quorum {
    /// How many node blocks must be up.
    pub required: usize,
    /// Whether the block groups several processes; a connection model may
    /// serve a grouped DP block from specific nodes.
    pub grouped: bool,
    /// `members[node]`: the block's process elements on that node.
    pub members: Vec<Vec<usize>>,
    /// `needs[node]`: every element that must be up for that node's block
    /// to be up — the members, their hosting chain, and (supervisor
    /// required) their supervisor.
    needs: Vec<Vec<usize>>,
    /// The requirement's row in the [`UpState`] tallies: CP requirements
    /// first, then DP.
    row: usize,
}

/// The reference scans the [`UpState`] tallies are tested against.
#[cfg(test)]
impl Quorum {
    fn block_up(&self, up: &[bool], node: usize) -> bool {
        self.needs[node].iter().all(|&e| up[e])
    }

    fn blocks_up(&self, up: &[bool]) -> usize {
        (0..self.needs.len())
            .filter(|&node| self.block_up(up, node))
            .count()
    }

    fn up(&self, up: &[bool]) -> bool {
        self.blocks_up(up) >= self.required
    }
}

/// Which unmet-requirement count of an [`UpState`] a requirement feeds.
#[derive(Debug, Clone, Copy)]
enum Tally {
    Cp,
    Dp,
    GroupedDp,
}

/// `local_host` entry of an element no compute host's DP needs.
const NO_HOST: u32 = u32::MAX;

/// The element table of a spec laid out on a topology, under one
/// supervisor scenario, with a given number of compute hosts.
#[derive(Debug, Clone)]
pub struct Structure<'a> {
    spec: &'a ControllerSpec,
    nodes: usize,
    racks: usize,
    hosts: usize,
    vms: usize,
    /// Controller process instances.
    processes: usize,
    /// Per-host processes on each compute host.
    host_processes: usize,
    components: Vec<Component>,
    cp: Vec<Quorum>,
    dp: Vec<Quorum>,
    /// `local[host]`: the per-host elements that host's DP needs up.
    local: Vec<Vec<usize>>,
    /// `elem_blocks[elem_start[e]..elem_start[e + 1]]`: the blocks whose
    /// needs contain element `e`, ascending. Block `row * nodes + node` is
    /// node `node`'s block of the requirement in tally row `row`.
    elem_start: Vec<u32>,
    elem_blocks: Vec<u32>,
    /// `tally[row]`: the requirement's required block count and the unmet
    /// count it feeds.
    tally: Vec<(u32, Tally)>,
    /// `local_host[e]`: the compute host whose local DP set holds `e`, or
    /// [`NO_HOST`].
    local_host: Vec<u32>,
}

/// Appends `items` to `set`, skipping ones already present.
fn union(set: &mut Vec<usize>, items: &[usize]) {
    for &e in items {
        if !set.contains(&e) {
            set.push(e);
        }
    }
}

impl<'a> Structure<'a> {
    /// Builds the table.
    ///
    /// # Errors
    ///
    /// Returns the [`TopologyError`] of [`Topology::validate`] when the
    /// topology does not fit the spec.
    ///
    /// # Panics
    ///
    /// Panics if a requirement names a process its role does not have.
    pub fn new(
        spec: &'a ControllerSpec,
        topology: &Topology,
        scenario: Scenario,
        compute_hosts: usize,
    ) -> Result<Self, TopologyError> {
        topology.validate(spec)?;
        let nodes = spec.nodes as usize;
        let (racks, hosts, vms) = (
            topology.rack_count(),
            topology.host_count(),
            topology.vm_count(),
        );
        let required = scenario == Scenario::SupervisorRequired;
        let mut components = vec![Component::Rack; racks];
        components.resize(racks + hosts, Component::Host);
        components.resize(racks + hosts + vms, Component::Vm);

        // `needs[elem]`: what must be up for controller instance `elem`.
        // `base[role_row * nodes + node]`: the element of that node-role's
        // first process.
        let mut needs: Vec<Vec<usize>> = vec![Vec::new(); components.len()];
        let mut base = Vec::new();
        for (_, role) in spec.controller_roles() {
            for node in 0..nodes {
                let vm = topology
                    .vm_of(&role.name, node as u32)
                    .expect("validated topology");
                let host = topology.host_of(vm);
                let rack = topology.rack_of(host);
                let chain = [rack.0, racks + host.0, racks + hosts + vm.0];
                let first = components.len();
                base.push(first);
                let supervisor = role
                    .processes
                    .iter()
                    .position(|p| p.is_supervisor)
                    .map(|i| first + i);
                for p in &role.processes {
                    let elem = components.len();
                    components.push(Component::Process(ProcessElement {
                        restart: p.restart,
                        is_supervisor: p.is_supervisor,
                        supervisor,
                        downtime_factor: p.downtime_factor,
                    }));
                    let mut need = vec![elem];
                    need.extend(chain);
                    if required && !p.is_supervisor {
                        need.extend(supervisor);
                    }
                    needs.push(need);
                }
            }
        }
        let processes = components.len() - racks - hosts - vms;

        let resolve = |plane: Plane, first_row: usize| -> Vec<Quorum> {
            spec.requirements(plane)
                .iter()
                .enumerate()
                .map(|(i, req)| {
                    let role_row = spec
                        .controller_roles()
                        .position(|(ri, _)| ri == req.role_index)
                        .expect("controller role");
                    let role = &spec.roles[req.role_index];
                    let members: Vec<Vec<usize>> = (0..nodes)
                        .map(|node| {
                            req.members
                                .iter()
                                .map(|m| {
                                    let i = role
                                        .processes
                                        .iter()
                                        .position(|p| p.name == *m)
                                        .expect("requirement member");
                                    base[role_row * nodes + node] + i
                                })
                                .collect()
                        })
                        .collect();
                    let needs = members
                        .iter()
                        .map(|block| {
                            let mut set = Vec::new();
                            for &e in block {
                                union(&mut set, &needs[e]);
                            }
                            set
                        })
                        .collect();
                    Quorum {
                        required: req.required as usize,
                        grouped: req.members.len() > 1,
                        members,
                        needs,
                        row: first_row + i,
                    }
                })
                .collect()
        };
        let cp = resolve(Plane::ControlPlane, 0);
        let dp = resolve(Plane::DataPlane, cp.len());

        let per_host: Vec<_> = spec
            .per_host_roles()
            .flat_map(|r| r.processes.iter())
            .collect();
        let supervisor = per_host.iter().position(|p| p.is_supervisor);
        let mut local = Vec::with_capacity(compute_hosts);
        for _ in 0..compute_hosts {
            let first = components.len();
            let host_supervisor = supervisor.map(|s| first + s);
            let mut need = Vec::new();
            for (i, p) in per_host.iter().enumerate() {
                components.push(Component::Process(ProcessElement {
                    restart: p.restart,
                    is_supervisor: p.is_supervisor,
                    supervisor: host_supervisor,
                    downtime_factor: p.downtime_factor,
                }));
                if p.dp_required > 0 {
                    need.push(first + i);
                }
            }
            if required {
                union(&mut need, host_supervisor.as_slice());
            }
            local.push(need);
        }

        let to_u32 = |n: usize| u32::try_from(n).expect("element table fits u32 indices");
        // The inverted index, counting-sorted: blocks are visited in
        // ascending id, so each element's list comes out ascending.
        let quorums = || cp.iter().chain(&dp);
        let mut start = vec![0; components.len() + 1];
        for need in quorums().flat_map(|q| &q.needs) {
            for &e in need {
                start[e + 1] += 1;
            }
        }
        for e in 0..components.len() {
            start[e + 1] += start[e];
        }
        let mut fill = start.clone();
        let mut elem_blocks = vec![0; start[components.len()]];
        for (block, need) in quorums().flat_map(|q| &q.needs).enumerate() {
            for &e in need {
                elem_blocks[fill[e]] = to_u32(block);
                fill[e] += 1;
            }
        }
        let elem_start = start.into_iter().map(to_u32).collect();
        let tally = quorums()
            .map(|q| {
                let kind = match (q.row < cp.len(), q.grouped) {
                    (true, _) => Tally::Cp,
                    (false, false) => Tally::Dp,
                    (false, true) => Tally::GroupedDp,
                };
                (to_u32(q.required), kind)
            })
            .collect();
        let mut local_host = vec![NO_HOST; components.len()];
        for (host, need) in local.iter().enumerate() {
            for &e in need {
                local_host[e] = to_u32(host);
            }
        }

        Ok(Structure {
            spec,
            nodes,
            racks,
            hosts,
            vms,
            processes,
            host_processes: per_host.len(),
            components,
            cp,
            dp,
            local,
            elem_start,
            elem_blocks,
            tally,
            local_host,
        })
    }

    /// Every element up: the state a run or an enumeration starts from.
    #[must_use]
    pub fn up_state(&self) -> UpState<'_> {
        let nodes = self.nodes as u32;
        let mut unmet = [0; 3];
        for &(required, kind) in &self.tally {
            if nodes < required {
                unmet[kind as usize] += 1;
            }
        }
        UpState {
            structure: self,
            up: vec![true; self.len()],
            block_down: vec![0; self.tally.len() * self.nodes],
            req_up: vec![nodes; self.tally.len()],
            unmet,
            local_down: vec![0; self.local.len()],
        }
    }

    /// The blocks whose needs contain `elem`, ascending.
    #[inline]
    fn blocks_of(&self, elem: usize) -> &[u32] {
        &self.elem_blocks[self.elem_start[elem] as usize..self.elem_start[elem + 1] as usize]
    }

    /// Number of elements.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the table has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// What element `elem` is.
    #[inline]
    #[must_use]
    pub fn component(&self, elem: usize) -> Component {
        self.components[elem]
    }

    /// Number of controller nodes per role.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Element index of rack `i`, if the topology has it.
    #[must_use]
    pub fn rack(&self, i: usize) -> Option<usize> {
        (i < self.racks).then_some(i)
    }

    /// Element index of host `i`, if the topology has it.
    #[must_use]
    pub fn host(&self, i: usize) -> Option<usize> {
        (i < self.hosts).then_some(self.racks + i)
    }

    /// Element index of VM `i`, if the topology has it.
    #[must_use]
    pub fn vm(&self, i: usize) -> Option<usize> {
        (i < self.vms).then_some(self.racks + self.hosts + i)
    }

    /// Element index of controller process instance `pid` (role-major,
    /// then node, then process), if there is one.
    #[must_use]
    pub fn process(&self, pid: usize) -> Option<usize> {
        (pid < self.processes).then_some(self.racks + self.hosts + self.vms + pid)
    }

    /// Element index of per-host process `idx` on compute host `host`, if
    /// there is one.
    #[must_use]
    pub fn host_process(&self, host: usize, idx: usize) -> Option<usize> {
        let first = self.racks + self.hosts + self.vms + self.processes;
        (idx < self.host_processes)
            .then_some(first + host * self.host_processes + idx)
            .filter(|&e| e < self.len())
    }

    /// Resolves a controller process by `(role, node, process)` names to
    /// its instance index (the `pid` of [`Structure::process`]).
    #[must_use]
    pub fn process_index(&self, role: &str, node: usize, process: &str) -> Option<usize> {
        let mut first = 0;
        for (_, r) in self.spec.controller_roles() {
            if r.name == role {
                let i = r.processes.iter().position(|p| p.name == process)?;
                return (node < self.nodes).then_some(first + node * r.processes.len() + i);
            }
            first += self.nodes * r.processes.len();
        }
        None
    }

    /// Resolves a per-host process name to its index on a compute host
    /// (the second argument of [`Structure::host_process`]).
    #[must_use]
    pub fn host_process_index(&self, process: &str) -> Option<usize> {
        self.spec
            .per_host_roles()
            .flat_map(|r| r.processes.iter())
            .position(|p| p.name == process)
    }

    /// The control-plane requirements.
    #[must_use]
    pub fn cp(&self) -> &[Quorum] {
        &self.cp
    }

    /// The shared (controller-side) data-plane requirements.
    #[must_use]
    pub fn dp(&self) -> &[Quorum] {
        &self.dp
    }

    /// The control-plane blocks `(requirement, node)` that are down when
    /// only `elem` is down.
    #[must_use]
    pub fn cp_blocks_downed_by(&self, elem: usize) -> Vec<(usize, usize)> {
        let cp_blocks = self.cp.len() * self.nodes;
        self.blocks_of(elem)
            .iter()
            .map(|&b| b as usize)
            .take_while(|&b| b < cp_blocks)
            .map(|b| (b / self.nodes, b % self.nodes))
            .collect()
    }
}

/// The reference scans the [`UpState`] tallies are tested against.
#[cfg(test)]
impl Structure<'_> {
    fn cp_up(&self, up: &[bool]) -> bool {
        self.cp.iter().all(|q| q.up(up))
    }

    fn host_dp_up(&self, up: &[bool], host: usize) -> bool {
        self.host_dp_up_with(up, host, |q| q.up(up))
    }

    fn host_dp_up_with(&self, up: &[bool], host: usize, grouped: impl Fn(&Quorum) -> bool) -> bool {
        self.dp
            .iter()
            .all(|q| if q.grouped { grouped(q) } else { q.up(up) })
            && self.local[host].iter().all(|&e| up[e])
    }
}

/// Which elements of a [`Structure`] are up, with the CP/DP structure
/// function kept current as they flip: per-block down counts,
/// per-requirement up-block counts, the number of unmet CP, plain-DP and
/// grouped-DP requirements, and per-compute-host local down counts.
///
/// Build one with [`Structure::up_state`] and change it only through
/// [`UpState::set`]; every query is O(1) except
/// [`UpState::host_dp_up_with`], which visits the grouped DP requirements.
#[derive(Debug, Clone)]
pub struct UpState<'s> {
    structure: &'s Structure<'s>,
    up: Vec<bool>,
    /// Needed elements down, per block.
    block_down: Vec<u32>,
    /// Blocks up, per requirement row.
    req_up: Vec<u32>,
    /// Unmet requirements, per [`Tally`].
    unmet: [u32; 3],
    /// Local DP elements down, per compute host.
    local_down: Vec<u32>,
}

impl UpState<'_> {
    /// Is element `elem` up?
    #[inline]
    #[must_use]
    pub fn is_up(&self, elem: usize) -> bool {
        self.up[elem]
    }

    /// Marks element `elem` up or down. Setting an element to the state it
    /// already has changes nothing.
    #[inline]
    pub fn set(&mut self, elem: usize, up: bool) {
        if self.up[elem] == up {
            return;
        }
        self.up[elem] = up;
        let s = self.structure;
        for &block in s.blocks_of(elem) {
            let down = &mut self.block_down[block as usize];
            if up {
                *down -= 1;
                if *down > 0 {
                    continue;
                }
            } else {
                *down += 1;
                if *down > 1 {
                    continue;
                }
            }
            // The block itself flipped.
            let row = block as usize / s.nodes;
            let (required, kind) = s.tally[row];
            let count = &mut self.req_up[row];
            let met_before = *count >= required;
            if up {
                *count += 1;
            } else {
                *count -= 1;
            }
            if met_before != (*count >= required) {
                let unmet = &mut self.unmet[kind as usize];
                if up {
                    *unmet -= 1;
                } else {
                    *unmet += 1;
                }
            }
        }
        let host = s.local_host[elem];
        if host != NO_HOST {
            let down = &mut self.local_down[host as usize];
            if up {
                *down -= 1;
            } else {
                *down += 1;
            }
        }
    }

    /// Is the control plane up?
    #[inline]
    #[must_use]
    pub fn cp_up(&self) -> bool {
        self.unmet[Tally::Cp as usize] == 0
    }

    /// Is compute host `host`'s data plane up? Every shared DP requirement
    /// must be met by quorum, and the host's required per-host processes
    /// (plus its supervisor, when required) must be up.
    #[inline]
    #[must_use]
    pub fn host_dp_up(&self, host: usize) -> bool {
        self.unmet[Tally::Dp as usize] == 0
            && self.unmet[Tally::GroupedDp as usize] == 0
            && self.local_down[host] == 0
    }

    /// [`UpState::host_dp_up`] with each grouped DP requirement decided by
    /// `grouped` instead of by quorum.
    #[inline]
    #[must_use]
    pub fn host_dp_up_with(&self, host: usize, grouped: impl Fn(&Quorum) -> bool) -> bool {
        self.unmet[Tally::Dp as usize] == 0
            && self.local_down[host] == 0
            && self.structure.dp.iter().filter(|q| q.grouped).all(grouped)
    }

    /// Is requirement `q`'s block on `node` up? `q` must come from this
    /// state's [`Structure`].
    #[inline]
    #[must_use]
    pub fn block_up(&self, q: &Quorum, node: usize) -> bool {
        let nodes = self.structure.nodes;
        self.block_down[q.row * nodes..(q.row + 1) * nodes][node] == 0
    }

    /// How many of requirement `q`'s node blocks are up. `q` must come
    /// from this state's [`Structure`].
    #[inline]
    #[must_use]
    pub fn blocks_up(&self, q: &Quorum) -> usize {
        self.req_up[q.row] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProcessSpec, RoleScope, RoleSpec};

    /// Two nodes, one role `R` with a 1-of-2 CP process `p` and its
    /// supervisor `s`; one per-host role with a DP process `v` and its
    /// supervisor `w`; each node on its own VM, host and rack.
    fn tiny() -> (ControllerSpec, Topology) {
        let spec = ControllerSpec {
            nodes: 2,
            roles: vec![
                RoleSpec::new(
                    "R",
                    RoleScope::Controller,
                    vec![
                        ProcessSpec::new("p", RestartMode::Auto).cp(1),
                        ProcessSpec::new("s", RestartMode::Manual).supervisor(),
                    ],
                ),
                RoleSpec::new(
                    "V",
                    RoleScope::PerHost,
                    vec![
                        ProcessSpec::new("v", RestartMode::Auto).dp(1),
                        ProcessSpec::new("w", RestartMode::Manual).supervisor(),
                    ],
                ),
            ],
            ..ControllerSpec::opencontrail_3x()
        };
        let mut topo = Topology::new("tiny");
        for node in 0..2 {
            let rack = topo.add_rack();
            let host = topo.add_host(rack);
            let vm = topo.add_vm(host);
            topo.assign(vm, "R", node);
        }
        (spec, topo)
    }

    #[test]
    fn indices_follow_the_flat_order() {
        let (spec, topo) = tiny();
        let s = Structure::new(&spec, &topo, Scenario::SupervisorNotRequired, 2).unwrap();
        // 2 racks + 2 hosts + 2 VMs + 2×2 instances + 2×2 per-host.
        assert_eq!(s.len(), 14);
        assert_eq!(s.process_index("R", 1, "s"), Some(3));
        assert_eq!(s.process(3), Some(9));
        assert_eq!(s.host_process(1, 1), Some(13));
        assert_eq!(s.host_process(2, 0), None);
        assert_eq!(s.host_process_index("w"), Some(1));
        assert_eq!(s.process_index("R", 2, "p"), None);
        let Component::Process(p) = s.component(9) else {
            panic!("process element");
        };
        assert_eq!(p.supervisor, Some(9));
        let Component::Process(p) = s.component(8) else {
            panic!("process element");
        };
        assert_eq!(p.supervisor, Some(9));
    }

    #[test]
    fn supervisor_matters_only_when_required() {
        let (spec, topo) = tiny();
        for (scenario, downs) in [
            (Scenario::SupervisorNotRequired, false),
            (Scenario::SupervisorRequired, true),
        ] {
            let s = Structure::new(&spec, &topo, scenario, 1).unwrap();
            let mut up = s.up_state();
            // Node 0's rack and node 1's supervisor.
            up.set(0, false);
            up.set(9, false);
            assert_eq!(!up.cp_up(), downs, "{scenario:?}");
            // Compute host 0's supervisor.
            up.set(11, false);
            assert_eq!(!up.host_dp_up(0), downs, "{scenario:?}");
            assert_eq!(
                s.cp_blocks_downed_by(9),
                if downs { vec![(0, 1)] } else { vec![] }
            );
        }
    }

    /// Three nodes, one role with a 2-of-3 CP process, a grouped 1-of-3
    /// DP block of two processes and a supervisor; a per-host role with a
    /// DP process and a supervisor. Node 2 has its own rack; nodes 0 and 1
    /// share a rack and a host.
    fn grouped() -> (ControllerSpec, Topology) {
        let spec = ControllerSpec {
            nodes: 3,
            roles: vec![
                RoleSpec::new(
                    "R",
                    RoleScope::Controller,
                    vec![
                        ProcessSpec::new("q", RestartMode::Auto).cp(2),
                        ProcessSpec::new("a", RestartMode::Auto).dp_grouped("G", 1),
                        ProcessSpec::new("b", RestartMode::Manual).dp_grouped("G", 1),
                        ProcessSpec::new("s", RestartMode::Manual).supervisor(),
                    ],
                ),
                RoleSpec::new(
                    "V",
                    RoleScope::PerHost,
                    vec![
                        ProcessSpec::new("v", RestartMode::Auto).dp(1),
                        ProcessSpec::new("w", RestartMode::Manual).supervisor(),
                    ],
                ),
            ],
            ..ControllerSpec::opencontrail_3x()
        };
        let mut topo = Topology::new("grouped");
        let rack = topo.add_rack();
        let shared = topo.add_host(rack);
        for node in 0..2 {
            let vm = topo.add_vm(shared);
            topo.assign(vm, "R", node);
        }
        let rack = topo.add_rack();
        let host = topo.add_host(rack);
        let vm = topo.add_vm(host);
        topo.assign(vm, "R", 2);
        (spec, topo)
    }

    /// Drives `flips` seeded random flips through an [`UpState`] and, after
    /// every one, checks each query against the reference scan of the same
    /// up-vector. Phases of 64 flips alternate between downing half and an
    /// eighth of the elements they pick, every fourth flip repeats the
    /// element's current state, and the run ends by bringing every element
    /// back up.
    fn tallies_match_the_scan(s: &Structure<'_>, hosts: usize, seed: u64, flips: usize) {
        let mut state = s.up_state();
        let mut up = vec![true; s.len()];
        let check = |state: &UpState<'_>, up: &[bool], step: usize| {
            assert_eq!(state.cp_up(), s.cp_up(up), "cp_up at step {step}");
            for host in 0..hosts {
                assert_eq!(
                    state.host_dp_up(host),
                    s.host_dp_up(up, host),
                    "host_dp_up({host}) at step {step}"
                );
                // The Failover connection model's check: grouped blocks
                // served by two fixed nodes.
                let via = [host % s.nodes(), (host + 1) % s.nodes()];
                assert_eq!(
                    state.host_dp_up_with(host, |q| via.iter().any(|&n| state.block_up(q, n))),
                    s.host_dp_up_with(up, host, |q| via.iter().any(|&n| q.block_up(up, n))),
                    "host_dp_up_with({host}) at step {step}"
                );
            }
            for q in s.cp().iter().chain(s.dp()) {
                assert_eq!(
                    state.blocks_up(q),
                    q.blocks_up(up),
                    "blocks_up at step {step}"
                );
                for node in 0..s.nodes() {
                    assert_eq!(
                        state.block_up(q, node),
                        q.block_up(up, node),
                        "block_up at step {step}"
                    );
                }
            }
            for (elem, &u) in up.iter().enumerate() {
                assert_eq!(state.is_up(elem), u);
            }
        };
        check(&state, &up, 0);
        let mut z = seed;
        for step in 1..=flips {
            z = crate::hash::splitmix64(z);
            let elem = (z % s.len() as u64) as usize;
            let one_in = if (step / 64) % 2 == 0 { 2 } else { 8 };
            let value = if step % 4 == 0 {
                up[elem]
            } else {
                (z >> 32) % one_in != 0
            };
            state.set(elem, value);
            up[elem] = value;
            check(&state, &up, step);
        }
        for elem in 0..s.len() {
            state.set(elem, true);
            up[elem] = true;
            check(&state, &up, flips + 1 + elem);
        }
        assert!(state.cp_up());
        assert!((0..hosts).all(|h| state.host_dp_up(h)));
    }

    #[test]
    fn tallies_match_the_scan_on_small_fixtures() {
        for (spec, topo) in [tiny(), grouped()] {
            for scenario in [
                Scenario::SupervisorNotRequired,
                Scenario::SupervisorRequired,
            ] {
                for hosts in 1..=2 {
                    let s = Structure::new(&spec, &topo, scenario, hosts).unwrap();
                    tallies_match_the_scan(&s, hosts, 7 + hosts as u64, 200);
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn tallies_match_the_scan_on_paper_and_scaled_deployments() {
        let paper = ControllerSpec::opencontrail_3x();
        let five = paper.scaled_cluster(5);
        for spec in [&paper, &five] {
            for topo in Topology::paper(spec) {
                for scenario in [
                    Scenario::SupervisorNotRequired,
                    Scenario::SupervisorRequired,
                ] {
                    for hosts in 1..=3 {
                        let s = Structure::new(spec, &topo, scenario, hosts).unwrap();
                        tallies_match_the_scan(&s, hosts, 1000 + hosts as u64, 1500);
                    }
                }
            }
        }
    }

    #[test]
    fn blocks_downed_by_match_the_needs() {
        let (spec, topo) = grouped();
        let s = Structure::new(&spec, &topo, Scenario::SupervisorRequired, 1).unwrap();
        for elem in 0..s.len() {
            let scan: Vec<(usize, usize)> = s
                .cp()
                .iter()
                .enumerate()
                .flat_map(|(ri, q)| {
                    (0..s.nodes())
                        .filter(move |&n| q.needs[n].contains(&elem))
                        .map(move |n| (ri, n))
                })
                .collect();
            assert_eq!(s.cp_blocks_downed_by(elem), scan, "element {elem}");
        }
        // The shared host downs node 0's and node 1's blocks.
        assert_eq!(s.cp_blocks_downed_by(2), vec![(0, 0), (0, 1)]);
    }
}
