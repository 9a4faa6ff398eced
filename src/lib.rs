//! # sdn-availability
//!
//! A production-quality Rust reproduction of *"Distributed Software Defined
//! Networking Controller Failure Mode and Availability Analysis"*
//! (Reeser, Tesseyre & Callaway, ISPASS 2019): parametric failure-mode and
//! availability models for distributed SDN controllers, with OpenContrail
//! 3.x as the bundled reference.
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`blocks`] — reliability-block-diagram algebra (Eq. 1, cut sets,
//!   importance measures);
//! * [`markov`] — CTMC availability models (GTH steady state,
//!   uniformization, repairable systems, the §VI.A supervisor arithmetic);
//! * [`core`] — the paper's contribution: controller specs (Tables I–III
//!   as data), deployment topologies (Fig. 2), and the HW-/SW-centric
//!   availability models (Eqs. 1–15);
//! * [`fmea`] — behavioral failure-mode and effects analysis;
//! * [`sim`] — the discrete-event Monte-Carlo simulator (the paper's
//!   stated future work);
//! * [`report`] — tables, terminal charts, CSV.
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use sdn_availability::{ControllerSpec, HwModel, HwParams, Topology};
//!
//! let spec = ControllerSpec::opencontrail_3x();
//! let topo = Topology::large(&spec);
//! let a = HwModel::try_new(&spec, &topo, HwParams::paper_defaults()).expect("valid HW model").availability();
//! assert!(a > 0.999999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sdnav_blocks as blocks;
pub use sdnav_core as core;
pub use sdnav_fmea as fmea;
pub use sdnav_markov as markov;
pub use sdnav_report as report;
pub use sdnav_sim as sim;

pub use sdnav_blocks::{Availability, Block, Downtime, System};
pub use sdnav_core::{
    ControllerSpec, ElementRef, HwModel, HwParams, Plane, ProcessParams, ProcessSpec, RestartMode,
    RoleScope, RoleSpec, Scenario, SwModel, SwParams, Topology,
};
pub use sdnav_fmea::{derive_table1, Deployment};
pub use sdnav_sim::{replicate, SimConfig, Simulation};
