//! Deployment state model: named elements over the core element table.

use std::fmt;

use sdnav_json::{FromJson, Json, JsonError, ToJson};

use sdnav_core::{ControllerSpec, Scenario, Structure, SwParams, Topology, UpState};

/// A failable element of a deployment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Element {
    /// A whole rack (takes down all hosts in it).
    Rack {
        /// Rack index.
        index: usize,
    },
    /// A host (takes down all VMs on it).
    Host {
        /// Host index.
        index: usize,
    },
    /// A VM (takes down every role instance on it).
    Vm {
        /// VM index.
        index: usize,
    },
    /// One process instance of a controller role on one node.
    Process {
        /// Role name.
        role: String,
        /// Node index (0-based).
        node: u32,
        /// Process name.
        process: String,
    },
    /// A vRouter-role process on the reference compute host.
    HostProcess {
        /// Process name.
        process: String,
    },
}

impl Element {
    /// Convenience constructor for [`Element::Process`].
    #[must_use]
    pub fn process(role: &str, node: u32, process: &str) -> Self {
        Element::Process {
            role: role.to_owned(),
            node,
            process: process.to_owned(),
        }
    }

    /// Convenience constructor for [`Element::HostProcess`].
    #[must_use]
    pub fn host_process(process: &str) -> Self {
        Element::HostProcess {
            process: process.to_owned(),
        }
    }

    /// The `sdnav-chaos` target-grammar spelling of this element
    /// (`rack:IDX`, `host:IDX`, `vm:IDX`, `proc:ROLE/NODE/PROCESS`,
    /// `vproc:HOST/PROCESS`) — how generated campaigns name their
    /// injection targets. The FMEA's reference compute host maps to
    /// vRouter-process host 0.
    #[must_use]
    pub fn target_str(&self) -> String {
        match self {
            Element::Rack { index } => format!("rack:{index}"),
            Element::Host { index } => format!("host:{index}"),
            Element::Vm { index } => format!("vm:{index}"),
            Element::Process {
                role,
                node,
                process,
            } => format!("proc:{role}/{node}/{process}"),
            Element::HostProcess { process } => format!("vproc:0/{process}"),
        }
    }

    /// The element's coarse kind, for filtering.
    #[must_use]
    pub fn kind(&self) -> ElementKind {
        match self {
            Element::Rack { .. } => ElementKind::Rack,
            Element::Host { .. } => ElementKind::Host,
            Element::Vm { .. } => ElementKind::Vm,
            Element::Process { process, .. } => {
                if process == "supervisor" {
                    ElementKind::Supervisor
                } else {
                    ElementKind::Process
                }
            }
            Element::HostProcess { process } => {
                if process == "supervisor" {
                    ElementKind::Supervisor
                } else {
                    ElementKind::Process
                }
            }
        }
    }
}

impl ToJson for Element {
    fn to_json(&self) -> Json {
        match self {
            Element::Rack { index } => Json::obj(vec![
                ("kind", Json::str("rack")),
                ("index", index.to_json()),
            ]),
            Element::Host { index } => Json::obj(vec![
                ("kind", Json::str("host")),
                ("index", index.to_json()),
            ]),
            Element::Vm { index } => {
                Json::obj(vec![("kind", Json::str("vm")), ("index", index.to_json())])
            }
            Element::Process {
                role,
                node,
                process,
            } => Json::obj(vec![
                ("kind", Json::str("process")),
                ("role", Json::str(role.clone())),
                ("node", node.to_json()),
                ("process", Json::str(process.clone())),
            ]),
            Element::HostProcess { process } => Json::obj(vec![
                ("kind", Json::str("host_process")),
                ("process", Json::str(process.clone())),
            ]),
        }
    }
}

impl FromJson for Element {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let kind = value.field("kind")?.as_str().map_err(|e| e.ctx("kind"))?;
        let index = || -> Result<usize, JsonError> {
            value.field("index")?.as_usize().map_err(|e| e.ctx("index"))
        };
        let process = || -> Result<String, JsonError> {
            String::from_json(value.field("process")?).map_err(|e| e.ctx("process"))
        };
        match kind {
            "rack" => Ok(Element::Rack { index: index()? }),
            "host" => Ok(Element::Host { index: index()? }),
            "vm" => Ok(Element::Vm { index: index()? }),
            "process" => Ok(Element::Process {
                role: String::from_json(value.field("role")?).map_err(|e| e.ctx("role"))?,
                node: value.field("node")?.as_u32().map_err(|e| e.ctx("node"))?,
                process: process()?,
            }),
            "host_process" => Ok(Element::HostProcess {
                process: process()?,
            }),
            other => Err(JsonError::decode(format!("unknown element kind `{other}`"))),
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Rack { index } => write!(f, "rack-{}", index + 1),
            Element::Host { index } => write!(f, "host-{}", index + 1),
            Element::Vm { index } => write!(f, "vm-{}", index + 1),
            Element::Process {
                role,
                node,
                process,
            } => write!(f, "{role}-{}/{process}", node + 1),
            Element::HostProcess { process } => write!(f, "compute-host/{process}"),
        }
    }
}

/// Coarse element classification, used to scope an FMEA (e.g. "software
/// failure modes only").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// Rack hardware.
    Rack,
    /// Host hardware (incl. host OS/hypervisor).
    Host,
    /// Virtual machine (incl. guest OS).
    Vm,
    /// An ordinary software process.
    Process,
    /// A supervisor process.
    Supervisor,
}

/// A concrete deployment whose state can be queried under failures: a
/// controller spec laid out on a topology, with parameters and supervisor
/// scenario fixed. Its element table has one compute host, the reference
/// host of [`Element::HostProcess`].
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
    pub fn elements(&self) -> Vec<Element> {
        let mut out = Vec::new();
        for index in 0..self.topology.rack_count() {
            out.push(Element::Rack { index });
        }
        for index in 0..self.topology.host_count() {
            out.push(Element::Host { index });
        }
        for index in 0..self.topology.vm_count() {
            out.push(Element::Vm { index });
        }
        for (_, role) in self.spec.controller_roles() {
            for node in 0..self.spec.nodes {
                for p in &role.processes {
                    out.push(Element::process(&role.name, node, &p.name));
                }
            }
        }
        for role in self.spec.per_host_roles() {
            for p in &role.processes {
                out.push(Element::host_process(&p.name));
            }
        }
        out
    }

    /// Rare-event probability weight of an element being down: its
    /// steady-state unavailability under the deployment parameters.
    #[must_use]
    pub fn unavailability(&self, element: &Element) -> f64 {
        match element {
            Element::Rack { .. } => 1.0 - self.params.a_r,
            Element::Host { .. } => 1.0 - self.params.a_h,
            Element::Vm { .. } => 1.0 - self.params.a_v,
            Element::Process { role, process, .. } => {
                1.0 - self.process_availability(role, process)
            }
            Element::HostProcess { process } => {
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

    /// `element`'s index in the element table, or `None` if the
    /// deployment has no such element.
    fn index(&self, element: &Element) -> Option<usize> {
        let s = &self.structure;
        match element {
            Element::Rack { index } => s.rack(*index),
            Element::Host { index } => s.host(*index),
            Element::Vm { index } => s.vm(*index),
            Element::Process {
                role,
                node,
                process,
            } => s
                .process_index(role, *node as usize, process)
                .and_then(|pid| s.process(pid)),
            Element::HostProcess { process } => s
                .host_process_index(process)
                .and_then(|idx| s.host_process(0, idx)),
        }
    }

    /// The up-state with every known element of `failed` down; unknown
    /// elements are ignored.
    fn up_state(&self, failed: &[Element]) -> UpState<'_> {
        let mut up = self.structure.up_state();
        for i in failed.iter().filter_map(|e| self.index(e)) {
            up.set(i, false);
        }
        up
    }

    /// Is the SDN control plane up under `failed`?
    #[must_use]
    pub fn cp_up(&self, failed: &[Element]) -> bool {
        self.up_state(failed).cp_up()
    }

    /// Is the reference compute host's data plane up under `failed`?
    ///
    /// Requires both the controller-side shared DP quorums and the host's
    /// local vRouter processes (plus the vRouter supervisor in the
    /// supervisor-required scenario).
    #[must_use]
    pub fn host_dp_up(&self, failed: &[Element]) -> bool {
        self.up_state(failed).host_dp_up(0)
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
    fn elements_are_listed_in_structure_index_order() {
        // `enumerate_filtered` flips element `i` for the i-th element.
        let s = spec();
        for topo in Topology::paper(&s) {
            let d = deployment(&s, &topo, Scenario::SupervisorRequired);
            let elements = d.elements();
            assert_eq!(elements.len(), d.structure().len());
            for (i, e) in elements.iter().enumerate() {
                assert_eq!(d.index(e), Some(i), "{e} on {}", topo.name());
            }
        }
    }

    #[test]
    fn single_db_process_failure_is_tolerated() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        assert!(d.cp_up(&[Element::process("Database", 0, "kafka")]));
    }

    #[test]
    fn db_quorum_loss_downs_cp_only() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        let failed = vec![
            Element::process("Database", 0, "kafka"),
            Element::process("Database", 2, "kafka"),
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
        let failed: Vec<Element> = (0..3)
            .map(|n| Element::process("Control", n, "control"))
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
            Element::process("Control", 0, "dns"),
            Element::process("Control", 1, "control"),
            Element::process("Control", 2, "control"),
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
        let failed: Vec<Element> = (0..3)
            .flat_map(|n| {
                ["Config", "Control", "Analytics", "Database"]
                    .into_iter()
                    .map(move |r| Element::process(r, n, "supervisor"))
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
            Element::process("Database", 0, "supervisor"),
            Element::process("Database", 1, "zookeeper"),
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
            Element::process("Database", 0, "supervisor-2"),
            Element::process("Database", 1, "zookeeper"),
        ]));
        assert!(d.cp_up(&[
            Element::process("Database", 0, "supervisor"),
            Element::process("Database", 1, "supervisor"),
        ]));
    }

    #[test]
    fn rack_failure_in_small_topology_downs_everything() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        let failed = vec![Element::Rack { index: 0 }];
        assert!(!d.cp_up(&failed));
        assert!(!d.host_dp_up(&failed));
    }

    #[test]
    fn rack_failure_in_large_topology_is_tolerated() {
        let s = spec();
        let topo = Topology::large(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        for index in 0..3 {
            let failed = vec![Element::Rack { index }];
            assert!(d.cp_up(&failed), "rack {index}");
            assert!(d.host_dp_up(&failed), "rack {index}");
        }
        // ... but any two racks break the Database quorum.
        let failed = vec![Element::Rack { index: 0 }, Element::Rack { index: 1 }];
        assert!(!d.cp_up(&failed));
    }

    #[test]
    fn host_failure_effects_differ_by_topology() {
        let s = spec();
        // Small: losing one host loses one full node → still up.
        let small = Topology::small(&s);
        let d = deployment(&s, &small, Scenario::SupervisorNotRequired);
        assert!(d.cp_up(&[Element::Host { index: 0 }]));
        // Small: two hosts → DB quorum lost.
        assert!(!d.cp_up(&[Element::Host { index: 0 }, Element::Host { index: 1 }]));
    }

    #[test]
    fn vm_failure_in_medium_topology_hits_one_role() {
        let s = spec();
        let topo = Topology::medium(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        // Find the Database node-0 VM and fail it plus a DB process on node 1.
        let db_vm = topo.vm_of("Database", 0).unwrap();
        let failed = vec![
            Element::Vm { index: db_vm.0 },
            Element::process("Database", 1, "kafka"),
        ];
        assert!(!d.cp_up(&failed));
        // The VM alone is tolerated.
        assert!(d.cp_up(&[Element::Vm { index: db_vm.0 }]));
    }

    #[test]
    fn local_vrouter_processes_are_dp_spofs() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        assert!(!d.host_dp_up(&[Element::host_process("vrouter-agent")]));
        assert!(!d.host_dp_up(&[Element::host_process("vrouter-dpdk")]));
        // The vRouter supervisor only matters in scenario 2.
        assert!(d.host_dp_up(&[Element::host_process("supervisor")]));
        let d2 = deployment(&s, &topo, Scenario::SupervisorRequired);
        assert!(!d2.host_dp_up(&[Element::host_process("supervisor")]));
        // CP is indifferent to the compute host.
        assert!(d2.cp_up(&[Element::host_process("vrouter-agent")]));
    }

    #[test]
    fn unavailability_weights() {
        let s = spec();
        let topo = Topology::small(&s);
        let d = deployment(&s, &topo, Scenario::SupervisorNotRequired);
        let p = SwParams::paper_defaults();
        assert!((d.unavailability(&Element::Rack { index: 0 }) - (1.0 - p.a_r)).abs() < 1e-15);
        // kafka is manual-restart → A_S.
        let u = d.unavailability(&Element::process("Database", 0, "kafka"));
        assert!((u - (1.0 - p.process.manual)).abs() < 1e-15);
        // config-api is auto → A.
        let u = d.unavailability(&Element::process("Config", 0, "config-api"));
        assert!((u - (1.0 - p.process.auto)).abs() < 1e-15);
        let u = d.unavailability(&Element::host_process("vrouter-agent"));
        assert!((u - (1.0 - p.process.auto)).abs() < 1e-15);
    }

    #[test]
    fn element_kinds_and_display() {
        assert_eq!(
            Element::process("Config", 1, "supervisor").kind(),
            ElementKind::Supervisor
        );
        assert_eq!(
            Element::process("Config", 1, "schema").kind(),
            ElementKind::Process
        );
        assert_eq!(Element::Rack { index: 0 }.kind(), ElementKind::Rack);
        assert_eq!(
            Element::process("Config", 1, "schema").to_string(),
            "Config-2/schema"
        );
        assert_eq!(
            Element::host_process("vrouter-agent").to_string(),
            "compute-host/vrouter-agent"
        );
    }
}
