//! Parametric failure-mode and availability models for distributed SDN
//! controllers.
//!
//! This crate is a faithful, extensible implementation of the modeling
//! framework of *"Distributed Software Defined Networking Controller Failure
//! Mode and Availability Analysis"* (Reeser, Tesseyre & Callaway, ISPASS
//! 2019). The paper's thesis is that a distributed SDN controller can be
//! fully encapsulated — for availability purposes — in two tables:
//!
//! * which processes exist in each role and how they restart
//!   (auto-restarted by a *supervisor* vs manual; the paper's Table II), and
//! * how many instances of each process a plane needs
//!   (`m`-of-`n` quorum requirements for the SDN control plane and the
//!   per-host vRouter data plane; the paper's Table III).
//!
//! Those tables are *data* here: [`ControllerSpec`] holds them, the bundled
//! [`ControllerSpec::opencontrail_3x`] reproduces the paper's OpenContrail
//! 3.x reference exactly, and any other controller (ONOS, ODL, …) can be
//! modeled by building a different spec.
//!
//! On top of the spec sit:
//!
//! * [`Topology`] — physical deployment layouts (racks → hosts → VMs → role
//!   assignments), with the paper's Small / Medium / Large references
//!   (§IV, Fig. 2) as constructors;
//! * [`HwModel`] — the HW-centric analysis of §V (Eqs. 1–8): roles as
//!   atomic elements, exact availability for *any* topology via conditional
//!   enumeration over shared hardware;
//! * [`SwModel`] — the SW-centric analysis of §VI (Eqs. 9–15):
//!   process-level quorums, supervisor-required vs not-required scenarios,
//!   and separate control-plane (CP) and per-host data-plane (DP)
//!   availabilities;
//! * [`Structure`] — the element table and the boolean CP/DP structure
//!   function that both the FMEA and the discrete-event simulator evaluate,
//!   as incremental tallies in an [`UpState`], with every element named
//!   by one [`ElementRef`];
//! * [`paper`] — direct transcriptions of the paper's closed-form equations
//!   for cross-validation against the general evaluator;
//! * [`approx`] — the paper's conclusions-section approximations;
//! * [`sweep`] — the parameter sweeps behind Figs. 3, 4 and 5.
//!
//! # Quickstart
//!
//! ```
//! use sdnav_core::{ControllerSpec, HwModel, HwParams, Topology};
//!
//! let spec = ControllerSpec::opencontrail_3x();
//! let params = HwParams::paper_defaults();
//!
//! let small = HwModel::try_new(&spec, &Topology::small(&spec), params).expect("valid HW model").availability();
//! let large = HwModel::try_new(&spec, &Topology::large(&spec), params).expect("valid HW model").availability();
//!
//! // Fig. 3: at the default parameters the Large topology reaches ~6.5
//! // nines while Small stays just below 5 nines.
//! assert!(small > 0.99998 && small < 0.99999);
//! assert!(large > 0.999999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approx;
pub mod consensus;
pub mod des;
mod element;
pub mod error;
mod eval;
pub mod hash;
mod hw;
pub mod paper;
mod params;
pub mod planner;
pub mod sensitivity;
mod spec;
pub mod state;
mod structure;
mod sw;
pub mod sweep;
mod topology;
mod units;

pub use consensus::{ConsensusError, ConsensusSpec, ElectionLatency, FaultMix};
pub use element::ElementRef;
pub use error::{ErrorKind, SdnavError};
pub use eval::ModelError;
pub use hw::HwModel;
pub use params::{HwParams, ParamError, ProcessParams, SwParams};
pub use spec::{
    ControllerSpec, Plane, ProcessSpec, QuorumCount, Requirement, RestartCount, RestartMode,
    RoleScope, RoleSpec, SpecError,
};
pub use state::{ModelState, PatchEffect};
pub use structure::{Component, ProcessElement, Quorum, Structure, UpState};
pub use sw::{Scenario, SwModel};
pub use topology::{HostId, RackId, Topology, TopologyError, VmId};
pub use units::{Quantity, RatePair, SpecRates, Unit, FIT_SCALE};
