//! Deployment state model: named elements over the core element table.

use sdnav_core::{ControllerSpec, ElementRef, Scenario, Structure, SwParams, Topology, UpState};

/// A concrete deployment whose state can be queried under failures: a
/// controller spec laid out on a topology, with parameters and supervisor
/// scenario fixed. Its element table has one compute host, the reference
/// host every [`ElementRef::VProc`] of the FMEA names (host 0).
#[derive(Debug)]
pub struct Deployment<'a> {
    spec: &'a ControllerSpec,
    topology: &'a Topology,
    params: SwParams,
    scenario: Scenario,
    structure: Structure<'a>,
}

impl<'a> Deployment<'a> {
    /// Builds a deployment.
    ///
    /// # Panics
    ///
    /// Panics if the topology is invalid for the spec.
    #[must_use]
    pub fn new(
        spec: &'a ControllerSpec,
        topology: &'a Topology,
        params: SwParams,
        scenario: Scenario,
    ) -> Self {
        let structure = Structure::new(spec, topology, scenario, 1)
            .expect("topology must be valid for the spec");
        Deployment {
            spec,
            topology,
            params,
            scenario,
            structure,
        }
    }

    /// The controller spec.
    #[must_use]
    pub fn spec(&self) -> &ControllerSpec {
        self.spec
    }

    /// The scenario under analysis.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The topology the spec is laid out on.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The element table the structure function runs on.
    pub(crate) fn structure(&self) -> &Structure<'a> {
        &self.structure
    }

    /// Every failable element of this deployment: racks, hosts, VMs, all
    /// controller process instances, and the reference compute host's
    /// vRouter processes — in element-table index order.
    #[must_use]
    pub fn elements(&self) -> Vec<ElementRef> {
        (0..self.structure.len())
            .map(|i| self.structure.element_ref(i))
            .collect()
    }

    /// Rare-event probability weight of an element being down: its
    /// steady-state unavailability under the deployment parameters.
    #[must_use]
    pub fn unavailability(&self, element: &ElementRef) -> f64 {
        match element {
            ElementRef::Rack(_) => 1.0 - self.params.a_r,
            ElementRef::Host(_) => 1.0 - self.params.a_h,
            ElementRef::Vm(_) => 1.0 - self.params.a_v,
            ElementRef::Proc { role, process, .. } => {
                1.0 - self.process_availability(role, process)
            }
            ElementRef::VProc { process, .. } => {
                let role = self
                    .spec
                    .per_host_roles()
                    .next()
                    .expect("per-host role exists");
                1.0 - self.process_availability(&role.name, process)
            }
        }
    }

    fn process_availability(&self, role: &str, process: &str) -> f64 {
        self.spec
            .role(role)
            .and_then(|r| r.processes.iter().find(|p| p.name == process))
            .map_or(self.params.process.auto, |p| {
                self.params.process.for_spec(p)
            })
    }

    /// The up-state with every known element of `failed` down; unknown
    /// elements are ignored.
    fn up_state(&self, failed: &[ElementRef]) -> UpState<'_> {
        let mut up = self.structure.up_state();
        for i in failed.iter().filter_map(|e| self.structure.element(e)) {
            up.set(i, false);
        }
        up
    }

    /// Is the SDN control plane up under `failed`?
    #[must_use]
    pub fn cp_up(&self, failed: &[ElementRef]) -> bool {
        self.up_state(failed).cp_up()
    }

    /// Is the reference compute host's data plane up under `failed`?
    ///
    /// Requires both the controller-side shared DP quorums and the host's
    /// local vRouter processes (plus the vRouter supervisor in the
    /// supervisor-required scenario).
    #[must_use]
    pub fn host_dp_up(&self, failed: &[ElementRef]) -> bool {
        self.up_state(failed).host_dp_up(0)
    }
}

#[cfg(test)]
impl Deployment<'_> {
    /// Whether `element` is a supervisor, by the spec's `is_supervisor`.
    pub(crate) fn is_supervisor(&self, element: &ElementRef) -> bool {
        let s = &self.structure;
        s.element(element).is_some_and(
            |i| matches!(s.component(i), sdnav_core::Component::Process(p) if p.is_supervisor),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    fn deployment<'a>(
        spec: &'a ControllerSpec,
        topo: &'a Topology,
        scenario: Scenario,
    ) -> Deployment<'a> {
        Deployment::new(spec, topo, SwParams::paper_defaults(), scenario)
    }

    #[test]
    fn healthy_deployment_is_fully_up() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        assert!(d.cp_up(&[]));
        assert!(d.host_dp_up(&[]));
    }

    #[test]
    fn element_inventory_is_complete() {
        let s = spec();
        let topo = Topology::large(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        let elements = d.elements();
        // 3 racks + 12 hosts + 12 VMs + 4 roles × 3 nodes × procs + 4 host procs.
        let controller_procs: usize = s
            .controller_roles()
            .map(|(_, r)| r.processes.len() * 3)
            .sum();
        assert_eq!(elements.len(), 3 + 12 + 12 + controller_procs + 4);
    }

    #[test]
    fn single_db_process_failure_is_tolerated() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        assert!(d.cp_up(&[ElementRef::proc("Database", 0, "kafka")]));
    }

    #[test]
    fn db_quorum_loss_downs_cp_only() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        let failed = vec![
            ElementRef::proc("Database", 0, "kafka"),
            ElementRef::proc("Database", 2, "kafka"),
        ];
        assert!(!d.cp_up(&failed));
        assert!(d.host_dp_up(&failed)); // §III: DB quorum loss "only impacts the SDN CP"
    }

    #[test]
    fn all_control_instances_down_kills_dp() {
        // §III: "If control-3 subsequently fails, then every host DP will
        // go down because BGP forwarding tables will be flushed."
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        let failed: Vec<ElementRef> = (0..3)
            .map(|n| ElementRef::proc("Control", n, "control"))
            .collect();
        assert!(!d.host_dp_up(&failed));
        assert!(!d.cp_up(&failed)); // control is also 1-of-3 for the CP
    }

    #[test]
    fn mixed_control_block_failure_kills_dp() {
        // §III: "having only control-1 and dns-2 and named-3 available is
        // not sufficient for host DP availability". Equivalently: failing
        // {dns-1, named-1? ...} so no node has the full block.
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        // Node 1 keeps control only; node 2 keeps dns only; node 3 keeps named only.
        let failed = vec![
            ElementRef::proc("Control", 0, "dns"),
            ElementRef::proc("Control", 1, "control"),
            ElementRef::proc("Control", 2, "control"),
        ];
        assert!(!d.host_dp_up(&failed), "no node has the full block");
        // The CP only needs `control` somewhere: node 1 still has it.
        assert!(d.cp_up(&failed));
    }

    #[test]
    fn supervisor_failure_is_harmless_in_scenario_1() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        let failed: Vec<ElementRef> = (0..3)
            .flat_map(|n| {
                ["Config", "Control", "Analytics", "Database"]
                    .into_iter()
                    .map(move |r| ElementRef::proc(r, n, "supervisor"))
            })
            .collect();
        assert!(d.cp_up(&failed), "supervisors are 0-of-3 in scenario 1");
        assert!(d.host_dp_up(&failed));
    }

    #[test]
    fn supervisor_failure_downs_node_role_in_scenario_2() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorRequired);
        // One DB supervisor + a DB process on ANOTHER node = quorum loss
        // (the paper's dominant 2S failure mode).
        let failed = vec![
            ElementRef::proc("Database", 0, "supervisor"),
            ElementRef::proc("Database", 1, "zookeeper"),
        ];
        assert!(!d.cp_up(&failed));
        // Same pair in scenario 1 is tolerated.
        let d1 = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        assert!(d1.cp_up(&failed));

        // The shape `sdnav lint --fix` leaves behind: a plain process
        // holds the name `supervisor`, so the real supervisor is
        // `supervisor-2`. Supervisor identity is `is_supervisor`.
        let mut fixed = spec();
        let db = fixed
            .roles
            .iter_mut()
            .find(|r| r.name == "Database")
            .unwrap();
        for p in &mut db.processes {
            p.is_supervisor = false;
        }
        db.processes.push(
            sdnav_core::ProcessSpec::new("supervisor-2", sdnav_core::RestartMode::Manual)
                .supervisor(),
        );
        fixed.validate().expect("one supervisor per role");
        let topo = Topology::small(&fixed);
        let d = deployment(&fixed, &topo, Scenario::SupervisorRequired);
        assert!(!d.cp_up(&[
            ElementRef::proc("Database", 0, "supervisor-2"),
            ElementRef::proc("Database", 1, "zookeeper"),
        ]));
        assert!(d.cp_up(&[
            ElementRef::proc("Database", 0, "supervisor"),
            ElementRef::proc("Database", 1, "supervisor"),
        ]));
    }

    #[test]
    fn rack_failure_in_small_topology_downs_everything() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        let failed = vec![ElementRef::Rack(0)];
        assert!(!d.cp_up(&failed));
        assert!(!d.host_dp_up(&failed));
    }

    #[test]
    fn rack_failure_in_large_topology_is_tolerated() {
        let s = spec();
        let topo = Topology::large(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        for index in 0..3 {
            let failed = vec![ElementRef::Rack(index)];
            assert!(d.cp_up(&failed), "rack {index}");
            assert!(d.host_dp_up(&failed), "rack {index}");
        }
        // ... but any two racks break the Database quorum.
        let failed = vec![ElementRef::Rack(0), ElementRef::Rack(1)];
        assert!(!d.cp_up(&failed));
    }

    #[test]
    fn host_failure_effects_differ_by_topology() {
        let s = spec();
        // Small: losing one host loses one full node → still up.
        let small = Topology::small(&s);
        let d = deployment(&s, &small, Scenario::SupervisorNotRequired);
        assert!(d.cp_up(&[ElementRef::Host(0)]));
        // Small: two hosts → DB quorum lost.
        assert!(!d.cp_up(&[ElementRef::Host(0), ElementRef::Host(1)]));
    }

    #[test]
    fn vm_failure_in_medium_topology_hits_one_role() {
        let s = spec();
        let topo = Topology::medium(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        // Find the Database node-0 VM and fail it plus a DB process on node 1.
        let db_vm = topo.vm_of("Database", 0).unwrap();
        let failed = vec![
            ElementRef::Vm(db_vm.0),
            ElementRef::proc("Database", 1, "kafka"),
        ];
        assert!(!d.cp_up(&failed));
        // The VM alone is tolerated.
        assert!(d.cp_up(&[ElementRef::Vm(db_vm.0)]));
    }

    #[test]
    fn local_vrouter_processes_are_dp_spofs() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        assert!(!d.host_dp_up(&[ElementRef::vproc(0, "vrouter-agent")]));
        assert!(!d.host_dp_up(&[ElementRef::vproc(0, "vrouter-dpdk")]));
        // The vRouter supervisor only matters in scenario 2.
        assert!(d.host_dp_up(&[ElementRef::vproc(0, "supervisor")]));
        let d2 = deployment(&s, &topo, Scenario::SupervisorRequired);
        assert!(!d2.host_dp_up(&[ElementRef::vproc(0, "supervisor")]));
        // CP is indifferent to the compute host.
        assert!(d2.cp_up(&[ElementRef::vproc(0, "vrouter-agent")]));
    }

    #[test]
    fn unavailability_weights() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        let p = SwParams::paper_defaults();
        assert!((d.unavailability(&ElementRef::Rack(0)) - (1.0 - p.a_r)).abs() < 1e-15);
        // kafka is manual-restart → A_S.
        let u = d.unavailability(&ElementRef::proc("Database", 0, "kafka"));
        assert!((u - (1.0 - p.process.manual)).abs() < 1e-15);
        // config-api is auto → A.
        let u = d.unavailability(&ElementRef::proc("Config", 0, "config-api"));
        assert!((u - (1.0 - p.process.auto)).abs() < 1e-15);
        let u = d.unavailability(&ElementRef::vproc(0, "vrouter-agent"));
        assert!((u - (1.0 - p.process.auto)).abs() < 1e-15);
    }
}
