//! Failure-mode and effects analysis (FMEA) for distributed SDN
//! controllers.
//!
//! The paper's §III derives, by inspection of OpenContrail 3.x, which
//! process failures impact the SDN control plane and which impact the
//! per-host vRouter data plane (its Table I). This crate computes those
//! effects *behaviorally*: a [`Deployment`] names the elements of the
//! core element table ([`sdnav_core::Structure`], the structure function
//! the simulator runs too) and asks "is the CP up?" / "is a host's DP
//! up?" over arbitrary sets of failed elements (racks, hosts, VMs,
//! processes, supervisors), and the analysis layer enumerates failure
//! combinations, classifies their effects, and ranks dominant failure
//! modes by probability.
//!
//! Highlights:
//!
//! * [`derive_table1`] regenerates the paper's Table I from behavior rather
//!   than transcription — each process's "m of n" quorum class is found by
//!   failing instances until the plane goes down;
//! * [`enumerate`] lists minimal failure modes up to a chosen order with
//!   rare-event probabilities;
//! * [`dominant_modes`] reproduces the §VI.G dominant-failure-mode
//!   discussion quantitatively.
//!
//! ```
//! use sdnav_core::{ControllerSpec, Scenario, SwParams, Topology};
//! use sdnav_fmea::{Deployment, Element};
//!
//! let spec = ControllerSpec::opencontrail_3x();
//! let topo = Topology::small(&spec);
//! let dep = Deployment::new(&spec, &topo, SwParams::paper_defaults(),
//!                           Scenario::SupervisorNotRequired);
//!
//! // Losing two of three zookeeper instances breaks the CP quorum:
//! let failed = vec![
//!     Element::process("Database", 0, "zookeeper"),
//!     Element::process("Database", 1, "zookeeper"),
//! ];
//! assert!(!dep.cp_up(&failed));
//! // ... but the host data plane is unaffected:
//! assert!(dep.host_dp_up(&failed));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod criticality;
mod deployment;
mod table1;

pub use analysis::{
    dominant_modes, enumerate, enumerate_filtered, estimate_unavailability, FailureMode,
    PlaneImpact,
};
pub use criticality::{rank_elements, ElementCriticality};
pub use deployment::{Deployment, Element, ElementKind};
pub use table1::{derive_table1, Table1Row};
