//! The one name of a deployment element.
//!
//! An FMEA failure mode, a chaos injection target and a simulator event
//! all name racks, hosts, VMs and process instances the same way: as an
//! [`ElementRef`]. [`crate::Structure::element`] resolves a name to its
//! element-table index and [`crate::Structure::element_ref`] names an
//! index.

use std::fmt;

/// A named failable element of a deployment.
///
/// Its text grammar ([`ElementRef::parse`] and `Display`) is:
///
/// | form | element |
/// |---|---|
/// | `rack:IDX` | rack by topology index |
/// | `host:IDX` | host by topology index |
/// | `vm:IDX` | VM by topology index |
/// | `proc:ROLE/NODE/PROCESS` | controller process instance |
/// | `vproc:HOST/PROCESS` | per-host (vRouter) process on a compute host |
///
/// The derived order (variant, then fields in declaration order) is the
/// FMEA's tie-break between equally probable failure modes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ElementRef {
    /// A rack by topology index.
    Rack(usize),
    /// A host by topology index.
    Host(usize),
    /// A VM by topology index.
    Vm(usize),
    /// One process of a controller role on one node.
    Proc {
        /// Role name.
        role: String,
        /// Node index (0-based).
        node: usize,
        /// Process name.
        process: String,
    },
    /// One per-host process on one compute host.
    VProc {
        /// Compute-host index.
        host: usize,
        /// Process name.
        process: String,
    },
}

impl ElementRef {
    /// Controller process `process` of `role` on `node`.
    #[must_use]
    pub fn proc(role: &str, node: usize, process: &str) -> Self {
        ElementRef::Proc {
            role: role.to_owned(),
            node,
            process: process.to_owned(),
        }
    }

    /// Per-host process `process` on compute host `host`.
    #[must_use]
    pub fn vproc(host: usize, process: &str) -> Self {
        ElementRef::VProc {
            host,
            process: process.to_owned(),
        }
    }

    /// Parses the `kind:detail` grammar; `None` when `text` does not
    /// match it.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let (kind, rest) = text.split_once(':')?;
        match kind {
            "rack" => rest.parse().ok().map(ElementRef::Rack),
            "host" => rest.parse().ok().map(ElementRef::Host),
            "vm" => rest.parse().ok().map(ElementRef::Vm),
            "proc" => {
                let mut parts = rest.splitn(3, '/');
                let (role, node, process) = (parts.next()?, parts.next()?, parts.next()?);
                if role.is_empty() || process.is_empty() {
                    return None;
                }
                Some(ElementRef::proc(role, node.parse().ok()?, process))
            }
            "vproc" => {
                let (host, process) = rest.split_once('/')?;
                if process.is_empty() {
                    return None;
                }
                Some(ElementRef::vproc(host.parse().ok()?, process))
            }
            _ => None,
        }
    }

    /// The FMEA's 1-based human label: `rack-1`, `Config-2/config-api`,
    /// `compute-host/vrouter-agent`. The FMEA analyses one reference
    /// compute host, so a per-host process is labelled without its host.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ElementRef::Rack(i) => format!("rack-{}", i + 1),
            ElementRef::Host(i) => format!("host-{}", i + 1),
            ElementRef::Vm(i) => format!("vm-{}", i + 1),
            ElementRef::Proc {
                role,
                node,
                process,
            } => format!("{role}-{}/{process}", node + 1),
            ElementRef::VProc { process, .. } => format!("compute-host/{process}"),
        }
    }
}

impl fmt::Display for ElementRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElementRef::Rack(i) => write!(f, "rack:{i}"),
            ElementRef::Host(i) => write!(f, "host:{i}"),
            ElementRef::Vm(i) => write!(f, "vm:{i}"),
            ElementRef::Proc {
                role,
                node,
                process,
            } => write!(f, "proc:{role}/{node}/{process}"),
            ElementRef::VProc { host, process } => write!(f, "vproc:{host}/{process}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControllerSpec, Scenario, Structure, Topology};

    #[test]
    fn every_element_name_resolves_to_its_index_and_round_trips_as_text() {
        let paper = ControllerSpec::opencontrail_3x();
        let five = paper.scaled_cluster(5);
        for spec in [&paper, &five] {
            for topo in Topology::paper(spec) {
                for hosts in [1, 3] {
                    let s = Structure::new(spec, &topo, Scenario::SupervisorRequired, hosts)
                        .expect("paper topology fits");
                    for i in 0..s.len() {
                        let r = s.element_ref(i);
                        assert_eq!(s.element(&r), Some(i), "{r} on {}", topo.name());
                        assert_eq!(ElementRef::parse(&r.to_string()), Some(r));
                    }
                    let (racks, hw) = (topo.rack_count(), topo.host_count());
                    for missing in [
                        ElementRef::Rack(racks),
                        ElementRef::Host(hw),
                        ElementRef::Vm(topo.vm_count()),
                        ElementRef::proc("Control", spec.nodes as usize, "control"),
                        ElementRef::proc("NoRole", 0, "control"),
                        ElementRef::proc("Control", 0, "no-process"),
                        ElementRef::proc("vRouter", 0, "vrouter-agent"),
                        ElementRef::vproc(hosts, "vrouter-agent"),
                        ElementRef::vproc(0, "no-process"),
                        ElementRef::vproc(0, "control"),
                    ] {
                        assert_eq!(s.element(&missing), None, "{missing} on {}", topo.name());
                    }
                }
            }
        }
    }

    #[test]
    fn labels_are_one_based() {
        assert_eq!(ElementRef::Rack(0).label(), "rack-1");
        assert_eq!(
            ElementRef::proc("Config", 1, "schema").label(),
            "Config-2/schema"
        );
        assert_eq!(
            ElementRef::vproc(0, "vrouter-agent").label(),
            "compute-host/vrouter-agent"
        );
    }
}
