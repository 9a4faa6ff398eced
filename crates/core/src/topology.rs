//! Physical deployment topologies (the paper's §IV, Fig. 2).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use sdnav_json::{FromJson, Json, JsonError, ToJson};

use crate::ControllerSpec;

/// Identifier of a rack within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(pub usize);

/// Identifier of a host within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

/// Identifier of a VM within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub usize);

macro_rules! id_json {
    ($($id:ident),+) => {$(
        impl ToJson for $id {
            fn to_json(&self) -> Json {
                self.0.to_json()
            }
        }

        impl FromJson for $id {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                value.as_usize().map($id)
            }
        }
    )+};
}

id_json!(RackId, HostId, VmId);

/// A physical deployment layout: racks contain hosts, hosts run VMs, and
/// each VM carries one or more `(role, node)` assignments.
///
/// The three reference layouts of Fig. 2 are provided as constructors:
///
/// * [`Topology::small`] — one rack, three hosts, one `GCAD` VM per host
///   carrying all four controller roles of its node;
/// * [`Topology::medium`] — two racks (hosts 1–2 in rack 1, host 3 in rack
///   2), one VM per role per node, each node's four VMs on one host;
/// * [`Topology::large`] — three racks, twelve hosts, one VM per host,
///   each node's four VMs in its own rack.
///
/// ```
/// use sdnav_core::{ControllerSpec, Topology};
///
/// let spec = ControllerSpec::opencontrail_3x();
/// let large = Topology::large(&spec);
/// assert_eq!(large.rack_count(), 3);
/// assert_eq!(large.host_count(), 12);
/// assert_eq!(large.vm_count(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    name: String,
    /// `hosts[h]` is the rack of host `h`.
    hosts: Vec<RackId>,
    /// `vms[v]` is the host of VM `v`.
    vms: Vec<HostId>,
    rack_count: usize,
    /// `(role name, node index)` → VM.
    assignments: BTreeMap<(String, u32), VmId>,
}

impl ToJson for Topology {
    fn to_json(&self) -> Json {
        // JSON cannot key maps by tuples; serialize assignments as an
        // entry list `[{role, node, vm}, …]`.
        let entries: Vec<Json> = self
            .assignments
            .iter()
            .map(|((role, node), vm)| {
                Json::obj(vec![
                    ("role", Json::str(role.clone())),
                    ("node", node.to_json()),
                    ("vm", vm.to_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("name", Json::str(self.name.clone())),
            ("hosts", self.hosts.to_json()),
            ("vms", self.vms.to_json()),
            ("rack_count", self.rack_count.to_json()),
            ("assignments", Json::Arr(entries)),
        ])
    }
}

impl FromJson for Topology {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut assignments = BTreeMap::new();
        let entries = value
            .field("assignments")?
            .as_arr()
            .map_err(|e| e.ctx("assignments"))?;
        for (i, entry) in entries.iter().enumerate() {
            let decoded = (|| -> Result<((String, u32), VmId), JsonError> {
                let role = String::from_json(entry.field("role")?).map_err(|e| e.ctx("role"))?;
                let node = entry.field("node")?.as_u32().map_err(|e| e.ctx("node"))?;
                let vm = VmId::from_json(entry.field("vm")?).map_err(|e| e.ctx("vm"))?;
                Ok(((role, node), vm))
            })()
            .map_err(|e| e.ctx(&format!("[{i}]")).ctx("assignments"))?;
            assignments.insert(decoded.0, decoded.1);
        }
        Ok(Topology {
            name: String::from_json(value.field("name")?).map_err(|e| e.ctx("name"))?,
            hosts: Vec::from_json(value.field("hosts")?).map_err(|e| e.ctx("hosts"))?,
            vms: Vec::from_json(value.field("vms")?).map_err(|e| e.ctx("vms"))?,
            rack_count: value
                .field("rack_count")?
                .as_usize()
                .map_err(|e| e.ctx("rack_count"))?,
            assignments,
        })
    }
}

impl Topology {
    /// Creates an empty topology to be populated with
    /// [`add_rack`](Self::add_rack) / [`add_host`](Self::add_host) /
    /// [`add_vm`](Self::add_vm) / [`assign`](Self::assign).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            hosts: Vec::new(),
            vms: Vec::new(),
            rack_count: 0,
            assignments: BTreeMap::new(),
        }
    }

    /// The paper's Small topology: 3 `GCAD` VMs on 3 hosts in 1 rack.
    #[must_use]
    pub fn small(spec: &ControllerSpec) -> Self {
        let mut t = Topology::new("Small");
        let rack = t.add_rack();
        for node in 0..spec.nodes {
            let host = t.add_host(rack);
            let vm = t.add_vm(host);
            for (_, role) in spec.controller_roles() {
                t.assign(vm, &role.name, node);
            }
        }
        t
    }

    /// A layout the paper does not evaluate: the Small topology's three
    /// consolidated `GCAD` VMs, but with each host in its **own rack**.
    ///
    /// This combines the paper's two findings — role/VM/host consolidation
    /// is availability-neutral (§V.D), and only three-way rack separation
    /// protects the quorum (§VII) — into their logical conclusion: Large-
    /// topology control-plane availability from Small-topology hardware
    /// (3 hosts, 3 VMs). See the `pareto_planning` experiment, where this
    /// layout dominates the paper's Large topology.
    #[must_use]
    pub fn small_three_racks(spec: &ControllerSpec) -> Self {
        let mut t = Topology::new("Small-3R");
        for node in 0..spec.nodes {
            let rack = t.add_rack();
            let host = t.add_host(rack);
            let vm = t.add_vm(host);
            for (_, role) in spec.controller_roles() {
                t.assign(vm, &role.name, node);
            }
        }
        t
    }

    /// The paper's Medium topology: one VM per role, each node's VMs
    /// sharing a host; hosts 1–2 in rack 1, host 3 in rack 2.
    ///
    /// For clusters larger than 3 nodes the first `n−1` hosts share rack 1
    /// and the last host gets rack 2, preserving the paper's "quorum still
    /// on one rack" property.
    #[must_use]
    pub fn medium(spec: &ControllerSpec) -> Self {
        let mut t = Topology::new("Medium");
        let rack1 = t.add_rack();
        let rack2 = t.add_rack();
        for node in 0..spec.nodes {
            let rack = if node + 1 < spec.nodes { rack1 } else { rack2 };
            let host = t.add_host(rack);
            for (_, role) in spec.controller_roles() {
                let vm = t.add_vm(host);
                t.assign(vm, &role.name, node);
            }
        }
        t
    }

    /// The paper's Large topology: every role VM on its own host, each
    /// node's hosts in their own rack.
    #[must_use]
    pub fn large(spec: &ControllerSpec) -> Self {
        let mut t = Topology::new("Large");
        for node in 0..spec.nodes {
            let rack = t.add_rack();
            for (_, role) in spec.controller_roles() {
                let host = t.add_host(rack);
                let vm = t.add_vm(host);
                t.assign(vm, &role.name, node);
            }
        }
        t
    }

    /// The paper's three layouts: Small, Medium and Large.
    #[must_use]
    pub fn paper(spec: &ControllerSpec) -> [Self; 3] {
        [
            Topology::small(spec),
            Topology::medium(spec),
            Topology::large(spec),
        ]
    }

    /// The paper layout spelled `name` on the CLI and in JSON bodies
    /// (`small` | `medium` | `large`), or `None` for any other name.
    #[must_use]
    pub fn named(spec: &ControllerSpec, name: &str) -> Option<Self> {
        Self::paper(spec)
            .into_iter()
            .find(|t| t.name().to_lowercase() == name)
    }

    /// Adds a rack.
    pub fn add_rack(&mut self) -> RackId {
        self.rack_count += 1;
        RackId(self.rack_count - 1)
    }

    /// Adds a host to `rack`.
    ///
    /// # Panics
    ///
    /// Panics if `rack` does not exist.
    pub fn add_host(&mut self, rack: RackId) -> HostId {
        assert!(rack.0 < self.rack_count, "rack {rack:?} does not exist");
        self.hosts.push(rack);
        HostId(self.hosts.len() - 1)
    }

    /// Adds a VM to `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` does not exist.
    pub fn add_vm(&mut self, host: HostId) -> VmId {
        assert!(host.0 < self.hosts.len(), "host {host:?} does not exist");
        self.vms.push(host);
        VmId(self.vms.len() - 1)
    }

    /// Assigns `(role, node)` to `vm`, replacing any previous assignment of
    /// that pair.
    ///
    /// # Panics
    ///
    /// Panics if `vm` does not exist.
    pub fn assign(&mut self, vm: VmId, role: &str, node: u32) {
        assert!(vm.0 < self.vms.len(), "vm {vm:?} does not exist");
        self.assignments.insert((role.to_owned(), node), vm);
    }

    /// Layout name (`Small`, `Medium`, `Large`, or custom).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of racks.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.rack_count
    }

    /// Number of hosts.
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of VMs.
    #[must_use]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The rack of `host`.
    #[must_use]
    pub fn rack_of(&self, host: HostId) -> RackId {
        self.hosts[host.0]
    }

    /// The host of `vm`.
    #[must_use]
    pub fn host_of(&self, vm: VmId) -> HostId {
        self.vms[vm.0]
    }

    /// The VM assigned to `(role, node)`, if any.
    #[must_use]
    pub fn vm_of(&self, role: &str, node: u32) -> Option<VmId> {
        self.assignments.get(&(role.to_owned(), node)).copied()
    }

    /// Checks the topology can host `spec`.
    ///
    /// # Errors
    ///
    /// Returns the first [`TopologyError`] of [`Topology::violations`].
    pub fn validate(&self, spec: &ControllerSpec) -> Result<(), TopologyError> {
        self.violations(spec).into_iter().next().map_or(Ok(()), Err)
    }

    /// Every rule the topology breaks against `spec`, in check order
    /// (empty, with nothing allocated, for a topology that fits). Per-host
    /// roles run on every compute host, so assigning one is an error.
    #[must_use]
    pub fn violations(&self, spec: &ControllerSpec) -> Vec<TopologyError> {
        let mut out = Vec::new();
        for (_, role) in spec.controller_roles() {
            for node in 0..spec.nodes {
                if !self
                    .assignments
                    .keys()
                    .any(|(r, n)| *r == role.name && *n == node)
                {
                    let role = role.name.clone();
                    out.push(TopologyError::MissingAssignment { role, node });
                }
            }
        }
        for ((name, node), vm) in &self.assignments {
            let role = || name.clone();
            let node = *node;
            if vm.0 >= self.vms.len() {
                out.push(TopologyError::DanglingVm {
                    role: role(),
                    node,
                    vm: vm.0,
                    vms: self.vms.len(),
                });
            }
            if !spec.controller_roles().any(|(_, r)| r.name == *name) {
                out.push(TopologyError::UnknownRole { role: role(), node });
            } else if node >= spec.nodes {
                let nodes = spec.nodes;
                out.push(TopologyError::NodeOutOfRange {
                    role: role(),
                    node,
                    nodes,
                });
            }
        }
        out
    }

    /// A multi-line ASCII rendering of the layout (regenerates Fig. 2).
    #[must_use]
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} topology:", self.name);
        for rack in 0..self.rack_count {
            let _ = writeln!(out, "  rack R{}", rack + 1);
            for (h, host_rack) in self.hosts.iter().enumerate() {
                if host_rack.0 != rack {
                    continue;
                }
                let _ = writeln!(out, "    host H{}", h + 1);
                for (v, vm_host) in self.vms.iter().enumerate() {
                    if vm_host.0 != h {
                        continue;
                    }
                    let roles: Vec<String> = self
                        .assignments
                        .iter()
                        .filter(|(_, vm)| vm.0 == v)
                        .map(|((role, node), _)| format!("{}{}", role, node + 1))
                        .collect();
                    let _ = writeln!(out, "      vm V{}: {}", v + 1, roles.join(" "));
                }
            }
        }
        out
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Validation errors for a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A `(role, node)` pair has no VM.
    MissingAssignment {
        /// The unassigned role.
        role: String,
        /// The unassigned node index.
        node: u32,
    },
    /// An assignment references a VM that does not exist.
    DanglingVm {
        /// The role of the dangling assignment.
        role: String,
        /// The node of the dangling assignment.
        node: u32,
        /// The VM index it references.
        vm: usize,
        /// How many VMs the topology has.
        vms: usize,
    },
    /// An assignment references a role that is not one of the spec's
    /// controller roles.
    UnknownRole {
        /// The unknown role name.
        role: String,
        /// The node of the assignment.
        node: u32,
    },
    /// An assignment's node index is outside the spec's cluster.
    NodeOutOfRange {
        /// The role of the assignment.
        role: String,
        /// The out-of-range node index.
        node: u32,
        /// The spec's cluster size.
        nodes: u32,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::MissingAssignment { role, node } => {
                write!(f, "role {role:?} node {node} has no VM assignment")
            }
            TopologyError::DanglingVm {
                role,
                node,
                vm,
                vms,
            } => write!(
                f,
                "role {role:?} node {node} is assigned to missing VM {vm} (of {vms})"
            ),
            TopologyError::UnknownRole { role, .. } => write!(
                f,
                "assignment references unknown role {role:?} (not a controller role of the spec)"
            ),
            TopologyError::NodeOutOfRange { role, node, nodes } => write!(
                f,
                "role {role:?} node index {node} is outside the {nodes}-node cluster"
            ),
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ControllerSpec;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    #[test]
    fn small_matches_fig_2() {
        let s = spec();
        let t = Topology::small(&s);
        assert_eq!(t.rack_count(), 1);
        assert_eq!(t.host_count(), 3);
        assert_eq!(t.vm_count(), 3);
        assert!(t.validate(&s).is_ok());
        // All four roles of node 0 share VM 0.
        let vm = t.vm_of("Config", 0).unwrap();
        assert_eq!(t.vm_of("Database", 0).unwrap(), vm);
        assert_ne!(t.vm_of("Config", 1).unwrap(), vm);
    }

    #[test]
    fn medium_matches_fig_2() {
        let s = spec();
        let t = Topology::medium(&s);
        assert_eq!(t.rack_count(), 2);
        assert_eq!(t.host_count(), 3);
        assert_eq!(t.vm_count(), 12);
        assert!(t.validate(&s).is_ok());
        // Node 0's roles are on distinct VMs but the same host.
        let vm_g = t.vm_of("Config", 0).unwrap();
        let vm_d = t.vm_of("Database", 0).unwrap();
        assert_ne!(vm_g, vm_d);
        assert_eq!(t.host_of(vm_g), t.host_of(vm_d));
        // Hosts 1-2 in rack 1, host 3 in rack 2.
        assert_eq!(t.rack_of(HostId(0)), t.rack_of(HostId(1)));
        assert_ne!(t.rack_of(HostId(0)), t.rack_of(HostId(2)));
    }

    #[test]
    fn large_matches_fig_2() {
        let s = spec();
        let t = Topology::large(&s);
        assert_eq!(t.rack_count(), 3);
        assert_eq!(t.host_count(), 12);
        assert_eq!(t.vm_count(), 12);
        assert!(t.validate(&s).is_ok());
        // Every VM has its own host; node 0's hosts share rack 0.
        let vm_g = t.vm_of("Config", 0).unwrap();
        let vm_d = t.vm_of("Database", 0).unwrap();
        assert_ne!(t.host_of(vm_g), t.host_of(vm_d));
        assert_eq!(t.rack_of(t.host_of(vm_g)), t.rack_of(t.host_of(vm_d)));
        assert_ne!(
            t.rack_of(t.host_of(t.vm_of("Config", 0).unwrap())),
            t.rack_of(t.host_of(t.vm_of("Config", 1).unwrap()))
        );
    }

    #[test]
    fn small_three_racks_layout() {
        let s = spec();
        let t = Topology::small_three_racks(&s);
        assert_eq!(t.rack_count(), 3);
        assert_eq!(t.host_count(), 3);
        assert_eq!(t.vm_count(), 3);
        assert!(t.validate(&s).is_ok());
        // One node per rack; all roles of a node share a VM.
        let vm = t.vm_of("Config", 0).unwrap();
        assert_eq!(t.vm_of("Database", 0).unwrap(), vm);
        assert_ne!(
            t.rack_of(t.host_of(t.vm_of("Config", 0).unwrap())),
            t.rack_of(t.host_of(t.vm_of("Config", 1).unwrap()))
        );
    }

    #[test]
    fn validate_catches_missing_assignment() {
        let s = spec();
        let mut t = Topology::new("custom");
        let rack = t.add_rack();
        let host = t.add_host(rack);
        let vm = t.add_vm(host);
        t.assign(vm, "Config", 0);
        assert!(matches!(
            t.validate(&s),
            Err(TopologyError::MissingAssignment { .. })
        ));
    }

    #[test]
    fn validate_catches_unknown_role() {
        let s = spec();
        let mut t = Topology::small(&s);
        let vm = t.vm_of("Config", 0).unwrap();
        t.assign(vm, "Nonexistent", 0);
        assert!(matches!(
            t.validate(&s),
            Err(TopologyError::UnknownRole { .. })
        ));
    }

    #[test]
    fn validate_catches_per_host_role_and_out_of_range_node() {
        let s = spec();
        let mut t = Topology::small(&s);
        let vm = t.vm_of("Config", 0).unwrap();
        t.assign(vm, "Config", 7);
        assert_eq!(
            t.validate(&s),
            Err(TopologyError::NodeOutOfRange {
                role: "Config".into(),
                node: 7,
                nodes: 3,
            })
        );
        // The vRouter runs on every compute host; assigning it is an error
        // too, reported after the node-range one in assignment order.
        t.assign(vm, "vRouter", 0);
        assert_eq!(
            t.violations(&s),
            vec![
                TopologyError::NodeOutOfRange {
                    role: "Config".into(),
                    node: 7,
                    nodes: 3,
                },
                TopologyError::UnknownRole {
                    role: "vRouter".into(),
                    node: 0,
                },
            ]
        );
        assert!(Topology::small(&s).violations(&s).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn add_host_checks_rack() {
        let mut t = Topology::new("x");
        let _ = t.add_host(RackId(0));
    }

    #[test]
    fn describe_renders_layout() {
        let s = spec();
        let text = Topology::small(&s).describe();
        assert!(text.contains("rack R1"));
        assert!(text.contains("host H3"));
        assert!(text.contains("Config1"));
        assert!(text.contains("Database3"));
        // Display delegates to describe.
        assert_eq!(Topology::small(&s).to_string(), text);
    }

    #[test]
    fn json_round_trip() {
        let s = spec();
        let t = Topology::medium(&s);
        let json = sdnav_json::to_string(&t);
        let back: Topology = sdnav_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        // Assignments serialize as an entry list.
        assert!(json.contains(r#""role":"Config""#));
    }

    #[test]
    fn named_round_trips_the_paper_layouts() {
        let s = spec();
        for t in [
            Topology::small(&s),
            Topology::medium(&s),
            Topology::large(&s),
        ] {
            let name = t.name().to_lowercase();
            assert_eq!(Topology::named(&s, &name), Some(t));
        }
        for bad in ["Small", "small-3r", "all", ""] {
            assert_eq!(Topology::named(&s, bad), None, "{bad:?}");
        }
    }
}
