//! Discrete-event Monte-Carlo availability simulator for distributed SDN
//! controllers.
//!
//! The ISPASS 2019 paper closes with: *"Future work includes simulating the
//! topologies to validate the conclusions."* This crate is that simulator.
//! It executes the failure/restart dynamics the paper describes in §III and
//! §VI.A as an event-driven simulation over a concrete
//! [`sdnav_core::Topology`]:
//!
//! * racks, hosts and VMs fail and are repaired independently
//!   (exponential time-to-failure, configurable repair distributions);
//!   children are unavailable while any ancestor is down;
//! * every controller process fails with MTBF `F` and restarts in `R`
//!   (auto, supervisor up), `R_S` (manual-restart processes, or any process
//!   whose supervisor is down), with the §VI.A supervisor semantics for
//!   both scenarios — including the scenario-1 "restart at the next
//!   maintenance window" behavior;
//! * compute hosts run vRouter processes and maintain the §III
//!   vrouter-agent ↔ control-node connection dynamics: each agent is
//!   connected to two Control nodes, re-discovering live nodes after a
//!   configurable delay when its connections die;
//! * control-plane and per-host data-plane availabilities are measured as
//!   time integrals, with batch-means confidence intervals and
//!   multi-replication aggregation.
//!
//! # Example
//!
//! ```
//! use sdnav_core::{ControllerSpec, Scenario, Topology};
//! use sdnav_sim::{SimConfig, Simulation};
//!
//! let spec = ControllerSpec::opencontrail_3x();
//! let topo = Topology::small(&spec);
//! let mut config = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
//! config.horizon_hours = 50_000.0;
//! let result = Simulation::try_new(&spec, &topo, config).expect("valid simulation").run(42);
//! assert!(result.cp_availability > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod injection;
mod replicate;
mod stats;

pub use config::{
    ConfigError, ConnectionModel, ElementRates, RepairShape, RestartModel, SimConfig,
    SimConfigBuilder,
};
pub use engine::{SimBuildError, SimResult, Simulation};
pub use injection::{
    AttributionLedger, Cause, CrewDiscipline, CrewPool, DpWindowRecord, InjectAction,
    InjectionPlan, OutageRecord, PlannedEvent,
};
pub use replicate::{replicate, ReplicatedResult};
pub use stats::{percentile, Estimate, Welford};
