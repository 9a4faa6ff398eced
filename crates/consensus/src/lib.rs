//! Consensus dynamics for the distributed SDN control plane.
//!
//! The source paper gates control-plane availability on a *static* k-of-n
//! quorum count: the CP is up whenever enough controller instances are up.
//! Sakic & Kellerer's RAFT study shows that is optimistic — every leader
//! crash opens an election window during which the control plane commits
//! nothing, and every quorum loss stalls log replication until a repaired
//! follower has caught up *and* a new leader has won. This crate models
//! those dynamics as a first-class subsystem:
//!
//! * [`ConsensusSim`] — a discrete-event layer on `sdnav_core::des::Des`,
//!   the core the `sdnav-sim` injection-hook engine also runs on,
//!   counting its events in [`ConsensusOutcome::events`]: per-controller
//!   exponential failure/repair processes, randomized (uniform) RAFT
//!   election timeouts, leader failover latency, log-replication stall on
//!   quorum loss (the leader steps down, as etcd's CheckQuorum does), and
//!   follower catch-up after repair. Every random draw comes from an
//!   identity-seeded SplitMix64 stream (keyed by node index or the
//!   election sequence, never by event arrival order), so results are
//!   byte-identical however the surrounding grid schedules the cells.
//! * An adaptive-BFT mode à la MORPH: when the declared
//!   [`sdnav_core::FaultMix`] includes Byzantine faults, the commit
//!   quorum is `2·F_BFT + F_crash + 1` and the declared number of
//!   Byzantine controllers is actually present (worst case): they hold
//!   cluster seats but never vote usefully and can never be elected.
//! * [`Injection`] hooks — scheduled kills, including
//!   [`InjectTarget::Leader`] which resolves *at event time* to whoever
//!   currently holds the lease, the primitive `sdnav chaos` leader-kill
//!   campaigns compile to.
//! * [`RackConfig`] — optional rack-level common-cause outages (every
//!   co-located controller falls together), which is what lets the bench
//!   re-test the paper's "one rack or three, but not two" placement claim
//!   with election latency in the loop.
//! * [`ctmc_availability`] — the `sdnav-markov` macro-state CTMC
//!   counterpart evaluated with the same parameters, for cross-validation.
//!
//! ```
//! use sdnav_consensus::{ConsensusParams, ConsensusSim};
//! use sdnav_core::ConsensusSpec;
//!
//! let sim = ConsensusSim::try_new(ConsensusSpec::raft_defaults(),
//!                                 ConsensusParams::paper_defaults()).unwrap();
//! let outcome = sim.run(42);
//! assert!(outcome.availability > 0.99 && outcome.availability < 1.0);
//! // Same seed, same bytes — whatever else ran in between.
//! assert_eq!(sim.run(42), outcome);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod des;

pub use des::{
    ConsensusOutcome, ConsensusSim, ConsensusSimError, InjectTarget, Injection, RackConfig,
};

use sdnav_core::ConsensusSpec;

/// Environment parameters of a consensus run: the per-controller
/// failure/repair process and the measurement horizon. These are the
/// knobs the paper's §V hardware layer owns; everything protocol-level
/// lives in [`sdnav_core::ConsensusSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsensusParams {
    /// Mean time between failures of one controller node, hours.
    pub node_mtbf_hours: f64,
    /// Mean time to repair one controller node, hours (dedicated repair).
    pub node_mttr_hours: f64,
    /// Simulated horizon per replication, hours.
    pub horizon_hours: f64,
}

impl ConsensusParams {
    /// Defaults matching the paper's §V working point: a controller node
    /// at `A_C ≈ 0.9995` (MTBF 2000 h, MTTR 1 h), measured over a
    /// 100 000-hour horizon.
    #[must_use]
    pub fn paper_defaults() -> Self {
        ConsensusParams {
            node_mtbf_hours: 2_000.0,
            node_mttr_hours: 1.0,
            horizon_hours: 100_000.0,
        }
    }

    /// The paper defaults with node failures `accelerate` times more
    /// frequent (repair unchanged) over `horizon_hours` — how grid cells
    /// and consensus campaign runs see failovers on short horizons.
    #[must_use]
    pub fn accelerated(horizon_hours: f64, accelerate: f64) -> Self {
        let defaults = Self::paper_defaults();
        ConsensusParams {
            node_mtbf_hours: defaults.node_mtbf_hours / accelerate,
            horizon_hours,
            ..defaults
        }
    }

    /// Per-hour failure rate `λ = 1 / MTBF`.
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        1.0 / self.node_mtbf_hours
    }

    /// Per-hour repair rate `μ = 1 / MTTR`.
    #[must_use]
    pub fn repair_rate(&self) -> f64 {
        1.0 / self.node_mttr_hours
    }

    /// Checks the parameters are finite and positive.
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusSimError::BadParams`] otherwise.
    pub fn validate(&self) -> Result<(), ConsensusSimError> {
        let ok = |v: f64| v.is_finite() && v > 0.0;
        if ok(self.node_mtbf_hours) && ok(self.node_mttr_hours) && ok(self.horizon_hours) {
            Ok(())
        } else {
            Err(ConsensusSimError::BadParams)
        }
    }
}

/// Steady-state control-plane availability of the crash-only macro-state
/// CTMC counterpart ([`sdnav_markov::ConsensusCtmc`]) under the same spec
/// and parameters — the analytic side of the DES cross-validation.
///
/// # Errors
///
/// [`ConsensusSimError::QuorumUnreachable`] when the declared fault mix
/// needs more votes than the cluster holds, [`ConsensusSimError::BadParams`]
/// for degenerate rates, and [`ConsensusSimError::Degenerate`] if the
/// chain's steady state cannot be solved.
pub fn ctmc_availability(
    spec: &ConsensusSpec,
    params: &ConsensusParams,
) -> Result<f64, ConsensusSimError> {
    params.validate()?;
    let model = sdnav_markov::ConsensusCtmc::new(spec, params.failure_rate(), params.repair_rate())
        .map_err(|e| match e {
            sdnav_markov::ConsensusModelError::QuorumUnreachable { .. } => {
                ConsensusSimError::QuorumUnreachable
            }
            _ => ConsensusSimError::BadParams,
        })?;
    model
        .availability()
        .map_err(|_| ConsensusSimError::Degenerate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctmc_counterpart_agrees_on_magnitude() {
        let spec = ConsensusSpec::raft_defaults();
        let params = ConsensusParams {
            node_mtbf_hours: 500.0,
            node_mttr_hours: 8.0,
            horizon_hours: 50_000.0,
        };
        let a = ctmc_availability(&spec, &params).unwrap();
        assert!(a > 0.99 && a < 1.0, "availability {a}");
    }

    #[test]
    fn ctmc_counterpart_rejects_unreachable_quorum() {
        let mut spec = ConsensusSpec::raft_defaults();
        spec.fault_mix = sdnav_core::FaultMix {
            byzantine: 2,
            crash: 0,
        };
        assert_eq!(
            ctmc_availability(&spec, &ConsensusParams::paper_defaults()),
            Err(ConsensusSimError::QuorumUnreachable)
        );
    }
}
