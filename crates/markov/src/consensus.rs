//! Macro-state CTMC of RAFT-style consensus availability: the analytic
//! counterpart of the `sdnav-consensus` discrete-event layer.
//!
//! The chain tracks `(up-count, phase)` where the phase is one of the
//! three macro-states the cross-validation cares about:
//!
//! * **leader-up** — a leader is elected and at least the commit quorum of
//!   caught-up controllers is reachable: the control plane serves writes;
//! * **election-in-progress** — the quorum is intact but the leader seat is
//!   empty (leader crashed, or quorum was just regained after a stall) and
//!   followers are racing randomized election timeouts;
//! * **quorum-lost** — fewer than the commit quorum of controllers are up:
//!   log replication stalls regardless of who calls themselves leader (the
//!   leader steps down, as etcd's CheckQuorum does).
//!
//! Transitions are per-controller exponential failure/repair rates plus an
//! election-completion rate derived from the spec's timeout distribution.
//! Availability is the steady-state probability mass of the leader-up
//! states, solved with the subtraction-free GTH algorithm so the
//! `1 - 10⁻⁹`-grade probabilities survive intact.

use std::error::Error;
use std::fmt;

use sdnav_core::ConsensusSpec;

use crate::{Ctmc, CtmcError};

/// Milliseconds per hour, for converting spec durations to CTMC rates.
const MS_PER_HOUR: f64 = 3_600_000.0;

/// Construction errors for a [`ConsensusCtmc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConsensusModelError {
    /// The commit quorum exceeds the cluster size: no up-count can ever
    /// satisfy it (the SA035 lint condition, fatal at model-build time).
    QuorumUnreachable {
        /// The required quorum.
        quorum: u32,
        /// The cluster size.
        cluster: u32,
    },
    /// A failure/repair rate was non-finite or non-positive.
    BadRate,
}

impl fmt::Display for ConsensusModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusModelError::QuorumUnreachable { quorum, cluster } => write!(
                f,
                "commit quorum {quorum} exceeds the {cluster}-node cluster"
            ),
            ConsensusModelError::BadRate => {
                write!(f, "failure/repair rates must be finite and positive")
            }
        }
    }
}

impl Error for ConsensusModelError {}

/// Steady-state probability of each consensus macro-state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroStateProbabilities {
    /// Leader elected and quorum intact: the control plane is available.
    pub leader_up: f64,
    /// Quorum intact but an election is racing.
    pub election: f64,
    /// Fewer than quorum controllers up: log replication stalled.
    pub quorum_lost: f64,
}

/// The consensus macro-state CTMC (see the module docs for the state
/// space).
#[derive(Debug, Clone)]
pub struct ConsensusCtmc {
    ctmc: Ctmc,
    n: u32,
    quorum: u32,
}

impl ConsensusCtmc {
    /// Builds the chain for `spec`'s cluster with per-controller
    /// exponential `failure_rate` and `repair_rate` (per hour, dedicated
    /// repair). The election-completion rate is `1 /` (mean randomized
    /// election timeout + one heartbeat round), matching the mean of the
    /// DES layer's uniform timeout draw — steady-state occupancy of an
    /// alternating renewal process depends only on the means, so the
    /// distribution-shape mismatch is immaterial.
    ///
    /// # Errors
    ///
    /// [`ConsensusModelError::QuorumUnreachable`] if the declared fault
    /// mix needs more votes than the cluster has members, or
    /// [`ConsensusModelError::BadRate`] for non-positive rates.
    pub fn new(
        spec: &ConsensusSpec,
        failure_rate: f64,
        repair_rate: f64,
    ) -> Result<Self, ConsensusModelError> {
        let n = spec.cluster_size;
        let quorum = spec.quorum();
        if quorum > n {
            return Err(ConsensusModelError::QuorumUnreachable { quorum, cluster: n });
        }
        let ok = |r: f64| r.is_finite() && r > 0.0;
        if !ok(failure_rate) || !ok(repair_rate) {
            return Err(ConsensusModelError::BadRate);
        }
        let election_ms = spec.mean_election_timeout_ms() + spec.heartbeat_interval_ms;
        let election_rate = MS_PER_HOUR / election_ms;

        // State layout: Lost(k) for k < quorum at index k, then for each
        // k in quorum..=n the pair Leader(k), Election(k).
        let lost = |k: u32| k as usize;
        let leader = |k: u32| (quorum + 2 * (k - quorum)) as usize;
        let election = |k: u32| leader(k) + 1;
        let states = quorum as usize + 2 * (n - quorum + 1) as usize;

        let mut ctmc = Ctmc::new(states);
        let lam = failure_rate;
        let mu = repair_rate;
        for k in 0..quorum {
            // Quorum-lost band: pure birth–death on the up-count.
            if k > 0 {
                ctmc.add_transition(lost(k), lost(k - 1), f64::from(k) * lam);
            }
            let repaired = k + 1;
            let to = if repaired >= quorum {
                // Regaining quorum re-opens the leader seat: the stepped-
                // down leader must win an election before serving again.
                election(repaired)
            } else {
                lost(repaired)
            };
            ctmc.add_transition(lost(k), to, f64::from(n - k) * mu);
        }
        for k in quorum..=n {
            let down = f64::from(n - k) * mu;
            if k > quorum {
                // A failure keeps the quorum: the leader survives with
                // probability (k-1)/k, otherwise an election starts.
                ctmc.add_transition(leader(k), leader(k - 1), f64::from(k - 1) * lam);
                ctmc.add_transition(leader(k), election(k - 1), lam);
                ctmc.add_transition(election(k), election(k - 1), f64::from(k) * lam);
            } else {
                // k == quorum: any failure stalls replication.
                ctmc.add_transition(leader(k), lost(k - 1), f64::from(k) * lam);
                ctmc.add_transition(election(k), lost(k - 1), f64::from(k) * lam);
            }
            if k < n {
                ctmc.add_transition(leader(k), leader(k + 1), down);
                ctmc.add_transition(election(k), election(k + 1), down);
            }
            ctmc.add_transition(election(k), leader(k), election_rate);
        }
        Ok(ConsensusCtmc { ctmc, n, quorum })
    }

    /// Steady-state control-plane availability: total probability of the
    /// leader-up macro-state.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`CtmcError`] if the chain is degenerate.
    pub fn availability(&self) -> Result<f64, CtmcError> {
        Ok(self.macro_states()?.leader_up)
    }

    /// Steady-state probability of each macro-state.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`CtmcError`] if the chain is degenerate.
    pub fn macro_states(&self) -> Result<MacroStateProbabilities, CtmcError> {
        let pi = self.ctmc.steady_state()?;
        let mut out = MacroStateProbabilities {
            leader_up: 0.0,
            election: 0.0,
            quorum_lost: 0.0,
        };
        for k in 0..self.quorum {
            out.quorum_lost += pi[k as usize];
        }
        for k in self.quorum..=self.n {
            let leader = (self.quorum + 2 * (k - self.quorum)) as usize;
            out.leader_up += pi[leader];
            out.election += pi[leader + 1];
        }
        Ok(out)
    }

    /// The underlying general CTMC.
    #[must_use]
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ConsensusSpec {
        ConsensusSpec::raft_defaults()
    }

    #[test]
    fn probabilities_sum_to_one() {
        let model = ConsensusCtmc::new(&spec(), 1.0 / 1000.0, 1.0 / 10.0).unwrap();
        let m = model.macro_states().unwrap();
        assert!((m.leader_up + m.election + m.quorum_lost - 1.0).abs() < 1e-12);
        assert!(m.leader_up > 0.99);
    }

    #[test]
    fn availability_below_quorum_intact_probability() {
        // Leader-up mass is strictly less than "quorum intact" mass: the
        // election phase carves out real downtime.
        let model = ConsensusCtmc::new(&spec(), 1.0 / 1000.0, 1.0 / 10.0).unwrap();
        let m = model.macro_states().unwrap();
        assert!(m.election > 0.0);
        assert!(m.leader_up < 1.0 - m.quorum_lost);
    }

    #[test]
    fn matches_two_state_bound_when_elections_are_instant() {
        // With a vanishingly short election, availability approaches the
        // plain k-of-n birth–death result.
        let mut s = spec();
        s.election_latency = sdnav_core::ElectionLatency::Uniform {
            min_ms: 1e-6,
            max_ms: 1e-6,
        };
        s.heartbeat_interval_ms = 1e-6;
        let lam = 1.0 / 2000.0;
        let mu = 1.0 / 4.0;
        let model = ConsensusCtmc::new(&s, lam, mu).unwrap();
        let a = model.availability().unwrap();
        let kofn = crate::repairable::KOfNRepairable::with_dedicated_crews(2, 3, lam, mu)
            .availability()
            .unwrap();
        assert!((a - kofn).abs() < 1e-9, "consensus {a} vs k-of-n {kofn}");
    }

    #[test]
    fn large_clusters_solve_at_paper_rates() {
        // At MTBF 2000 h and MTTR 1 h the weights anchored at the all-down
        // state grow like 2000^n and pass f64's range near n = 93.
        for n in [101, 255] {
            let mut s = spec();
            s.cluster_size = n;
            let model = ConsensusCtmc::new(&s, 1.0 / 2000.0, 1.0).unwrap();
            let pi = model.ctmc().steady_state().unwrap();
            assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12, "n = {n}");
            assert!(model.availability().unwrap() > 0.999_999, "n = {n}");
        }
    }

    #[test]
    fn slower_elections_cost_availability() {
        let lam = 1.0 / 1000.0;
        let mu = 1.0 / 10.0;
        let fast = ConsensusCtmc::new(&spec(), lam, mu).unwrap();
        let mut slow_spec = spec();
        slow_spec.election_latency = sdnav_core::ElectionLatency::Uniform {
            min_ms: 15_000.0,
            max_ms: 30_000.0,
        };
        let slow = ConsensusCtmc::new(&slow_spec, lam, mu).unwrap();
        assert!(slow.availability().unwrap() < fast.availability().unwrap());
    }

    #[test]
    fn bft_mix_raises_quorum_and_lowers_availability() {
        let lam = 1.0 / 500.0;
        let mu = 1.0 / 10.0;
        let crash = ConsensusCtmc::new(&spec(), lam, mu).unwrap();
        let mut bft_spec = spec();
        bft_spec.cluster_size = 5;
        bft_spec.fault_mix = sdnav_core::FaultMix {
            byzantine: 1,
            crash: 1,
        };
        // Quorum 4 of 5 is stricter than 2 of 3.
        let bft = ConsensusCtmc::new(&bft_spec, lam, mu).unwrap();
        assert!(bft.availability().unwrap() < crash.availability().unwrap());
    }

    #[test]
    fn rejects_unreachable_quorum_and_bad_rates() {
        let mut s = spec();
        s.fault_mix = sdnav_core::FaultMix {
            byzantine: 2,
            crash: 0,
        };
        // Quorum 5 > 3 nodes.
        assert!(matches!(
            ConsensusCtmc::new(&s, 1e-3, 1e-1),
            Err(ConsensusModelError::QuorumUnreachable {
                quorum: 5,
                cluster: 3
            })
        ));
        assert!(matches!(
            ConsensusCtmc::new(&spec(), 0.0, 1e-1),
            Err(ConsensusModelError::BadRate)
        ));
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = ConsensusModelError::QuorumUnreachable {
            quorum: 5,
            cluster: 3,
        };
        assert!(e.to_string().contains("quorum 5"));
    }
}
