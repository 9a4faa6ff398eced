//! The element table: every failable element of a deployment numbered once,
//! and the CP/DP structure function over an up-vector.
//!
//! The FMEA (`sdnav-fmea`) and the discrete-event simulator (`sdnav-sim`)
//! ask the same boolean question — is the control plane, or a compute
//! host's data plane, up given which elements are down? — and both answer
//! it here. A caller keeps one `&[bool]` up-vector indexed by
//! [`Structure`] element index and flips entries as elements fail and
//! recover.
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
}

impl Quorum {
    /// Is the block up on `node`?
    #[inline]
    #[must_use]
    pub fn block_up(&self, up: &[bool], node: usize) -> bool {
        self.needs[node].iter().all(|&e| up[e])
    }

    /// How many node blocks are up.
    #[inline]
    #[must_use]
    pub fn blocks_up(&self, up: &[bool]) -> usize {
        (0..self.needs.len())
            .filter(|&node| self.block_up(up, node))
            .count()
    }

    /// Is the requirement met?
    #[inline]
    #[must_use]
    pub fn up(&self, up: &[bool]) -> bool {
        self.blocks_up(up) >= self.required
    }
}

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

        let resolve = |plane: Plane| -> Vec<Quorum> {
            spec.requirements(plane)
                .iter()
                .map(|req| {
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
                    }
                })
                .collect()
        };
        let cp = resolve(Plane::ControlPlane);
        let dp = resolve(Plane::DataPlane);

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
        })
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

    /// Is the control plane up?
    #[inline]
    #[must_use]
    pub fn cp_up(&self, up: &[bool]) -> bool {
        self.cp.iter().all(|q| q.up(up))
    }

    /// Is compute host `host`'s data plane up? Every shared DP requirement
    /// must be met by quorum, and the host's required per-host processes
    /// (plus its supervisor, when required) must be up.
    #[inline]
    #[must_use]
    pub fn host_dp_up(&self, up: &[bool], host: usize) -> bool {
        self.host_dp_up_with(up, host, |q| q.up(up))
    }

    /// [`Structure::host_dp_up`] with each grouped DP requirement decided
    /// by `grouped` instead of by quorum.
    #[inline]
    #[must_use]
    pub fn host_dp_up_with(
        &self,
        up: &[bool],
        host: usize,
        grouped: impl Fn(&Quorum) -> bool,
    ) -> bool {
        self.dp
            .iter()
            .all(|q| if q.grouped { grouped(q) } else { q.up(up) })
            && self.local[host].iter().all(|&e| up[e])
    }

    /// The control-plane blocks `(requirement, node)` that are down when
    /// only `elem` is down.
    #[must_use]
    pub fn cp_blocks_downed_by(&self, elem: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ri, q) in self.cp.iter().enumerate() {
            for (node, need) in q.needs.iter().enumerate() {
                if need.contains(&elem) {
                    out.push((ri, node));
                }
            }
        }
        out
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
            let mut up = vec![true; s.len()];
            // Node 0's rack and node 1's supervisor.
            up[0] = false;
            up[9] = false;
            assert_eq!(!s.cp_up(&up), downs, "{scenario:?}");
            // Compute host 0's supervisor.
            up[11] = false;
            assert_eq!(!s.host_dp_up(&up, 0), downs, "{scenario:?}");
            assert_eq!(
                s.cp_blocks_downed_by(9),
                if downs { vec![(0, 1)] } else { vec![] }
            );
        }
    }
}
