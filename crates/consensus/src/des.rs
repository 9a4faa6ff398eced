//! The discrete-event consensus layer: an event-queue engine in the mold
//! of `sdnav-sim`'s injection-hook core, specialized to the controller
//! cluster's coordination dynamics.
//!
//! # Event types
//!
//! * `NodeFail` / `NodeRepair` / `CatchUp` — the per-controller life
//!   cycle: exponential failure and repair, then a fixed log-replay
//!   window before the node counts toward the commit quorum again.
//! * `ElectionDone` — completion of a leader election, scheduled one
//!   randomized timeout draw plus one heartbeat round after the seat
//!   opened.
//! * `RackFail` / `RackRepair` — optional rack-level common-cause
//!   outages: every co-located controller drops together and returns
//!   (catching up) when the rack does.
//! * `Injected` — externally scheduled kills, the hook `sdnav chaos`
//!   leader-targeted campaigns compile to; [`InjectTarget::Leader`]
//!   resolves at fire time.
//!
//! The loop runs on [`Des`], the discrete-event core both engines share:
//! each node and the election seat is a cancellation entity, and the core
//! drops cancelled events, ends the run at the horizon and counts the
//! events it delivers ([`ConsensusOutcome::events`]). A cluster of `n`
//! nodes keeps about `2n + 1` events pending, so a cluster of a few nodes
//! stays in the core's scanned-vector regime. The run keeps the count of Active honest nodes as nodes die and finish
//! catching up: the quorum check reads it, and an election walks to the
//! pick-th Active honest node instead of collecting candidates.
//!
//! All randomness flows from identity-seeded SplitMix64 streams: node `i`
//! owns stream `seed ⊕ mix64(i+1)`, racks and the election seat own
//! tagged streams of their own, so no draw ever depends on event arrival
//! order or thread scheduling.

use std::error::Error;
use std::fmt;

use sdnav_core::des::{Des, Event};
use sdnav_core::hash::{mix64, GOLDEN_GAMMA};
use sdnav_core::{ConsensusError, ConsensusSpec};

use crate::ConsensusParams;

/// Milliseconds per hour.
const MS_PER_HOUR: f64 = 3_600_000.0;

/// Stream tag for the election seat.
const ELECTION_TAG: u64 = 0xE1EC_7100_0000_0001;

/// Stream tag base for racks.
const RACK_TAG: u64 = 0x0AC0_0000_0000_0001;

/// An identity-seeded SplitMix64 draw stream.
#[derive(Debug, Clone, Copy)]
struct Stream {
    state: u64,
}

impl Stream {
    fn new(seed: u64, tag: u64) -> Self {
        Stream {
            state: mix64(seed ^ mix64(tag)),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Uniform draw in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential draw with the given per-hour rate.
    fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// What an [`Injection`] kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectTarget {
    /// Whichever controller holds the lease when the injection fires; a
    /// no-op (counted as skipped) if the seat is empty at that instant.
    Leader,
    /// A specific controller by cluster index.
    Node(usize),
}

/// One externally scheduled kill — the consensus layer's injection hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Simulation time of the kill, hours.
    pub at_hours: f64,
    /// Who dies.
    pub target: InjectTarget,
}

/// Optional rack-level common-cause configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RackConfig {
    /// Rack index of each controller, `placement.len() == cluster_size`.
    pub placement: Vec<usize>,
    /// Mean time between failures of one rack, hours.
    pub rack_mtbf_hours: f64,
    /// Mean time to repair one rack, hours.
    pub rack_mttr_hours: f64,
}

/// Aggregate measurements of one consensus replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsensusOutcome {
    /// Fraction of the horizon in the leader-up macro-state (the
    /// election-latency-aware control-plane availability).
    pub availability: f64,
    /// Fraction of the horizon spent electing.
    pub election_fraction: f64,
    /// Fraction of the horizon with log replication stalled (quorum
    /// lost).
    pub stall_fraction: f64,
    /// Completed leader elections.
    pub elections: u64,
    /// Entries into the quorum-lost stall state.
    pub stalls: u64,
    /// Injected kills that found a live target.
    pub injected_kills: u64,
    /// Injected kills that fired on an empty seat or dead node.
    pub skipped_injections: u64,
    /// Events processed: node and rack transitions, catch-ups, election
    /// completions and injections, not counting cancelled ones.
    pub events: u64,
    /// The measured horizon, hours.
    pub horizon_hours: f64,
}

/// Failure modes of building or running a [`ConsensusSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConsensusSimError {
    /// The consensus spec failed structural validation.
    BadSpec(ConsensusError),
    /// Non-finite or non-positive environment parameters.
    BadParams,
    /// The commit quorum exceeds the honest (non-Byzantine) membership:
    /// the cluster can never commit (the SA035 lint condition).
    QuorumUnreachable,
    /// An injection targets a node outside the cluster or a non-finite
    /// time.
    BadInjection,
    /// The rack placement does not cover the cluster or has degenerate
    /// rates.
    BadRacks,
    /// The CTMC counterpart could not solve its steady state.
    Degenerate,
}

impl fmt::Display for ConsensusSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusSimError::BadSpec(e) => write!(f, "consensus spec: {e}"),
            ConsensusSimError::BadParams => {
                write!(f, "consensus parameters must be finite and positive")
            }
            ConsensusSimError::QuorumUnreachable => write!(
                f,
                "commit quorum exceeds the honest membership: the cluster can never commit"
            ),
            ConsensusSimError::BadInjection => {
                write!(
                    f,
                    "injection targets a node outside the cluster or a non-finite time"
                )
            }
            ConsensusSimError::BadRacks => {
                write!(
                    f,
                    "rack placement must cover the cluster with positive rates"
                )
            }
            ConsensusSimError::Degenerate => write!(f, "consensus CTMC steady state is degenerate"),
        }
    }
}

impl Error for ConsensusSimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    NodeFail(usize),
    NodeRepair(usize),
    CatchUp(usize),
    ElectionDone,
    RackFail(usize),
    RackRepair(usize),
    Injected(usize),
}

/// The election seat's cancellation entity; node `i` is entity `1 + i`.
const SEAT: usize = 0;

/// Rack and injection events are never cancelled.
impl Event for EventKind {
    fn entity(&self) -> Option<usize> {
        match *self {
            EventKind::ElectionDone => Some(SEAT),
            EventKind::NodeFail(i) | EventKind::NodeRepair(i) | EventKind::CatchUp(i) => {
                Some(1 + i)
            }
            EventKind::RackFail(_) | EventKind::RackRepair(_) | EventKind::Injected(_) => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Active,
    CatchingUp,
    Down,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Led { leader: usize },
    Electing,
    Stall,
}

/// The consensus discrete-event simulator. Construction validates; each
/// [`ConsensusSim::run`] is an independent, deterministic replication.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusSim {
    spec: ConsensusSpec,
    params: ConsensusParams,
    racks: Option<RackConfig>,
}

struct RunState {
    des: Des<EventKind>,
    node_state: Vec<NodeState>,
    /// Active nodes among the honest membership, the low `n - byz`
    /// indices.
    honest_active: usize,
    held_by_rack: Vec<bool>,
    node_streams: Vec<Stream>,
    election_stream: Stream,
    rack_streams: Vec<Stream>,
    phase: Phase,
}

impl ConsensusSim {
    /// Builds a simulator for `spec` under `params`, no rack coupling.
    ///
    /// # Errors
    ///
    /// [`ConsensusSimError::BadSpec`]/[`ConsensusSimError::BadParams`] for
    /// structural problems, [`ConsensusSimError::QuorumUnreachable`] when
    /// the declared Byzantine count leaves fewer honest members than the
    /// commit quorum needs.
    pub fn try_new(
        spec: ConsensusSpec,
        params: ConsensusParams,
    ) -> Result<Self, ConsensusSimError> {
        Self::with_racks(spec, params, None)
    }

    /// Builds a simulator with optional rack-level common-cause outages.
    ///
    /// # Errors
    ///
    /// As [`ConsensusSim::try_new`], plus [`ConsensusSimError::BadRacks`]
    /// when the placement does not assign every controller a rack or the
    /// rack rates are degenerate.
    pub fn with_racks(
        spec: ConsensusSpec,
        params: ConsensusParams,
        racks: Option<RackConfig>,
    ) -> Result<Self, ConsensusSimError> {
        spec.validate().map_err(ConsensusSimError::BadSpec)?;
        params.validate()?;
        let honest = spec.cluster_size.saturating_sub(spec.fault_mix.byzantine);
        if spec.quorum() > honest {
            return Err(ConsensusSimError::QuorumUnreachable);
        }
        if let Some(r) = &racks {
            let ok = |v: f64| v.is_finite() && v > 0.0;
            if r.placement.len() != spec.cluster_size as usize
                || !ok(r.rack_mtbf_hours)
                || !ok(r.rack_mttr_hours)
            {
                return Err(ConsensusSimError::BadRacks);
            }
        }
        Ok(ConsensusSim {
            spec,
            params,
            racks,
        })
    }

    /// The spec this simulator runs.
    #[must_use]
    pub fn spec(&self) -> &ConsensusSpec {
        &self.spec
    }

    /// One fault-free-schedule replication (failures still occur — only
    /// injections are absent).
    #[must_use]
    pub fn run(&self, seed: u64) -> ConsensusOutcome {
        self.run_injected(seed, &[])
            .expect("empty injection plan is always valid")
    }

    /// One replication with externally scheduled kills.
    ///
    /// # Errors
    ///
    /// [`ConsensusSimError::BadInjection`] when a kill targets a node
    /// outside the cluster or carries a non-finite/negative time.
    pub fn run_injected(
        &self,
        seed: u64,
        injections: &[Injection],
    ) -> Result<ConsensusOutcome, ConsensusSimError> {
        let n = self.spec.cluster_size as usize;
        for inj in injections {
            let time_ok = inj.at_hours.is_finite() && inj.at_hours >= 0.0;
            let target_ok = match inj.target {
                InjectTarget::Leader => true,
                InjectTarget::Node(i) => i < n,
            };
            if !time_ok || !target_ok {
                return Err(ConsensusSimError::BadInjection);
            }
        }

        // The honest membership is the low `n - byz` indices: declared
        // Byzantine seats are pinned to the high indices, hold cluster
        // membership, but never vote usefully and are never electable.
        let honest = n - self.spec.fault_mix.byzantine as usize;
        let quorum = self.spec.quorum() as usize;
        let horizon = self.params.horizon_hours;
        let lam = self.params.failure_rate();
        let mu = self.params.repair_rate();
        let catch_up_h = self.spec.catch_up_ms / MS_PER_HOUR;

        let rack_count = self
            .racks
            .as_ref()
            .map_or(0, |r| r.placement.iter().max().map_or(0, |m| m + 1));
        let mut st = RunState {
            des: Des::new(1 + n, horizon),
            node_state: vec![NodeState::Active; n],
            honest_active: honest,
            held_by_rack: vec![false; n],
            node_streams: (0..n).map(|i| Stream::new(seed, (i as u64) + 1)).collect(),
            election_stream: Stream::new(seed, ELECTION_TAG),
            rack_streams: (0..rack_count)
                .map(|r| Stream::new(seed, RACK_TAG ^ ((r as u64) << 8)))
                .collect(),
            phase: Phase::Stall,
        };

        // Seed the initial schedules: node failures, rack failures, and
        // the injection plan (which is never cancelled).
        for i in 0..n {
            let t = st.node_streams[i].exp(lam);
            st.des.schedule(t, EventKind::NodeFail(i));
        }
        if let Some(racks) = &self.racks {
            for r in 0..rack_count {
                let t = st.rack_streams[r].exp(1.0 / racks.rack_mtbf_hours);
                st.des.schedule(t, EventKind::RackFail(r));
            }
        }
        for (idx, inj) in injections.iter().enumerate() {
            st.des.schedule(inj.at_hours, EventKind::Injected(idx));
        }

        // The run opens with an already-settled leader: the measurement
        // is of steady-state behavior, not cluster bootstrap.
        st.phase = Phase::Led {
            leader: (st.election_stream.next_u64() as usize) % honest.max(1),
        };

        let mut leader_time = 0.0;
        let mut election_time = 0.0;
        let mut stall_time = 0.0;
        let mut last_t = 0.0;
        let mut elections = 0u64;
        let mut stalls = 0u64;
        let mut injected_kills = 0u64;
        let mut skipped_injections = 0u64;

        macro_rules! account {
            ($t:expr) => {
                let dt = $t - std::mem::replace(&mut last_t, $t);
                match st.phase {
                    Phase::Led { .. } => leader_time += dt,
                    Phase::Electing => election_time += dt,
                    Phase::Stall => stall_time += dt,
                }
            };
        }
        macro_rules! start_election {
            ($t:expr) => {
                st.des.cancel(SEAT);
                let duration_ms = self
                    .spec
                    .election_latency
                    .sample_ms(st.election_stream.next_f64())
                    + self.spec.heartbeat_interval_ms;
                st.des
                    .schedule($t + duration_ms / MS_PER_HOUR, EventKind::ElectionDone);
                st.phase = Phase::Electing;
            };
        }
        // Re-derives the cluster phase after any membership change.
        macro_rules! recheck {
            ($t:expr) => {
                debug_assert_eq!(
                    st.honest_active,
                    st.node_state[..honest]
                        .iter()
                        .filter(|&&s| s == NodeState::Active)
                        .count()
                );
                let quorum_ok = st.honest_active >= quorum;
                match st.phase {
                    // CheckQuorum: the leader steps down the moment it
                    // cannot reach a commit quorum; an election stops too.
                    Phase::Led { .. } | Phase::Electing if !quorum_ok => {
                        account!($t);
                        st.des.cancel(SEAT);
                        st.phase = Phase::Stall;
                        stalls += 1;
                    }
                    Phase::Led { leader } if st.node_state[leader] != NodeState::Active => {
                        account!($t);
                        start_election!($t);
                    }
                    Phase::Stall if quorum_ok => {
                        account!($t);
                        start_election!($t);
                    }
                    _ => {}
                }
            };
        }
        // Node death from any cause: own failure, injected kill, or rack
        // outage (`schedule_repair = false` for the latter — the rack
        // brings the node back itself).
        macro_rules! kill_node {
            ($t:expr, $i:expr, $schedule_repair:expr) => {
                st.des.cancel(1 + $i);
                if $i < honest && st.node_state[$i] == NodeState::Active {
                    st.honest_active -= 1;
                }
                st.node_state[$i] = NodeState::Down;
                if $schedule_repair {
                    let dt = st.node_streams[$i].exp(mu);
                    st.des.schedule($t + dt, EventKind::NodeRepair($i));
                }
            };
        }
        // Node returning to service (repair or rack restoration): a
        // catch-up window, then the next failure draw.
        macro_rules! revive_node {
            ($t:expr, $i:expr) => {
                st.node_state[$i] = NodeState::CatchingUp;
                st.held_by_rack[$i] = false;
                st.des.schedule($t + catch_up_h, EventKind::CatchUp($i));
                let ttf = st.node_streams[$i].exp(lam);
                st.des.schedule($t + ttf, EventKind::NodeFail($i));
            };
        }

        // Kills cancel a node's pending events and quorum losses the
        // election in flight, so no live event meets a stale target.
        while let Some((t, kind)) = st.des.pop() {
            match kind {
                EventKind::NodeFail(i) => {
                    debug_assert_ne!(st.node_state[i], NodeState::Down);
                    kill_node!(t, i, true);
                    recheck!(t);
                }
                EventKind::NodeRepair(i) => {
                    revive_node!(t, i);
                }
                EventKind::CatchUp(i) => {
                    debug_assert_eq!(st.node_state[i], NodeState::CatchingUp);
                    st.node_state[i] = NodeState::Active;
                    if i < honest {
                        st.honest_active += 1;
                    }
                    recheck!(t);
                }
                EventKind::ElectionDone => {
                    debug_assert_eq!(st.phase, Phase::Electing);
                    // Electing implies the quorum is intact, so some
                    // honest node is Active; the leader is the pick-th.
                    let pick = (st.election_stream.next_u64() as usize) % st.honest_active;
                    let leader = (0..honest)
                        .filter(|&i| st.node_state[i] == NodeState::Active)
                        .nth(pick)
                        .expect("pick is below the honest Active count");
                    account!(t);
                    st.phase = Phase::Led { leader };
                    elections += 1;
                }
                EventKind::RackFail(r) => {
                    let racks = self.racks.as_ref().expect("rack event implies rack config");
                    let repair = st.rack_streams[r].exp(1.0 / racks.rack_mttr_hours);
                    st.des.schedule(t + repair, EventKind::RackRepair(r));
                    // A node already down for its own reasons stays down:
                    // the rack outage supersedes its pending repair.
                    for i in 0..n {
                        if racks.placement[i] == r {
                            kill_node!(t, i, false);
                            st.held_by_rack[i] = true;
                        }
                    }
                    recheck!(t);
                }
                EventKind::RackRepair(r) => {
                    let racks = self.racks.as_ref().expect("rack event implies rack config");
                    let next = st.rack_streams[r].exp(1.0 / racks.rack_mtbf_hours);
                    st.des.schedule(t + next, EventKind::RackFail(r));
                    for i in 0..n {
                        if racks.placement[i] == r && st.held_by_rack[i] {
                            revive_node!(t, i);
                        }
                    }
                }
                EventKind::Injected(idx) => {
                    let victim = match injections[idx].target {
                        InjectTarget::Leader => match st.phase {
                            Phase::Led { leader } => Some(leader),
                            _ => None,
                        },
                        InjectTarget::Node(i) => Some(i),
                    };
                    match victim {
                        Some(i) if st.node_state[i] != NodeState::Down => {
                            kill_node!(t, i, true);
                            injected_kills += 1;
                            recheck!(t);
                        }
                        _ => skipped_injections += 1,
                    }
                }
            }
        }
        account!(horizon);

        Ok(ConsensusOutcome {
            availability: leader_time / horizon,
            election_fraction: election_time / horizon,
            stall_fraction: stall_time / horizon,
            elections,
            stalls,
            injected_kills,
            skipped_injections,
            events: st.des.events(),
            horizon_hours: horizon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc_availability;

    fn sim() -> ConsensusSim {
        ConsensusSim::try_new(
            ConsensusSpec::raft_defaults(),
            ConsensusParams::paper_defaults(),
        )
        .unwrap()
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let s = sim();
        let a = s.run(7);
        assert_eq!(a, s.run(7));
        assert_ne!(a, s.run(8));
    }

    #[test]
    fn fractions_partition_the_horizon() {
        let o = sim().run(11);
        let total = o.availability + o.election_fraction + o.stall_fraction;
        assert!((total - 1.0).abs() < 1e-12, "fractions sum to {total}");
        assert!(o.availability > 0.99);
        assert!(o.elections > 0);
    }

    #[test]
    fn des_tracks_the_ctmc_counterpart() {
        // Crash-only cross-validation at an accelerated working point:
        // the DES mean over a few seeds must sit near the CTMC value.
        let spec = ConsensusSpec::raft_defaults();
        let params = ConsensusParams {
            node_mtbf_hours: 500.0,
            node_mttr_hours: 8.0,
            horizon_hours: 100_000.0,
        };
        let sim = ConsensusSim::try_new(spec.clone(), params).unwrap();
        let mean = (0..8).map(|s| sim.run(s).availability).sum::<f64>() / 8.0;
        let ctmc = ctmc_availability(&spec, &params).unwrap();
        assert!((mean - ctmc).abs() < 5e-4, "DES {mean} vs CTMC {ctmc}");
    }

    /// A RAFT cluster whose own failures fall past the horizon, so only
    /// injected kills move it.
    fn kills_only() -> ConsensusSim {
        let params = ConsensusParams {
            node_mtbf_hours: 1.0e9,
            node_mttr_hours: 0.05,
            horizon_hours: 10_000.0,
        };
        ConsensusSim::try_new(ConsensusSpec::raft_defaults(), params).unwrap()
    }

    /// 200 kills of `target`, one every 40 hours.
    fn kill_plan(target: InjectTarget) -> Vec<Injection> {
        (0..200)
            .map(|k| Injection {
                at_hours: 25.0 + 40.0 * f64::from(k),
                target,
            })
            .collect()
    }

    #[test]
    fn leader_kills_cost_more_than_follower_kills() {
        // Leader-targeted kills force an election each time; fixed-node
        // kills only do when they happen to hit the leader.
        let sim = kills_only();
        let leader = sim
            .run_injected(99, &kill_plan(InjectTarget::Leader))
            .unwrap();
        let node = sim
            .run_injected(99, &kill_plan(InjectTarget::Node(2)))
            .unwrap();
        assert_eq!(leader.injected_kills, 200);
        assert!(leader.elections >= 200);
        assert!(leader.availability < node.availability);
    }

    #[test]
    fn a_leader_kill_is_four_events() {
        // The kill, the repair, the catch-up and the election it forces;
        // a kill that finds the seat empty is the injection alone.
        let sim = kills_only();
        for seed in [1, 99, 12345] {
            let o = sim
                .run_injected(seed, &kill_plan(InjectTarget::Leader))
                .unwrap();
            assert_eq!(o.events, 4 * o.injected_kills + o.skipped_injections);
            assert_eq!(o.events, 800, "seed {seed}");
        }
    }

    #[test]
    fn byzantine_mix_needs_more_cluster() {
        let mut spec = ConsensusSpec::raft_defaults();
        spec.fault_mix = sdnav_core::FaultMix {
            byzantine: 1,
            crash: 0,
        };
        // Quorum 3, honest = 3 - 1 = 2: unreachable.
        assert_eq!(
            ConsensusSim::try_new(spec.clone(), ConsensusParams::paper_defaults()).unwrap_err(),
            ConsensusSimError::QuorumUnreachable
        );
        // Five nodes make it work, at lower availability than crash-only.
        spec.cluster_size = 5;
        let bft = ConsensusSim::try_new(spec, ConsensusParams::paper_defaults()).unwrap();
        let crash = sim();
        assert!(bft.run(3).availability < crash.run(3).availability + 1e-3);
    }

    #[test]
    fn rack_placement_two_is_the_worst_of_three() {
        // The paper's placement claim, election-latency-aware: identical
        // node/rack randomness (paired seeds), only the placement moves.
        let spec = ConsensusSpec::raft_defaults();
        let params = ConsensusParams {
            node_mtbf_hours: 2_000.0,
            node_mttr_hours: 1.0,
            horizon_hours: 200_000.0,
        };
        let run = |placement: Vec<usize>, seed| {
            ConsensusSim::with_racks(
                spec.clone(),
                params,
                Some(RackConfig {
                    placement,
                    rack_mtbf_hours: 4_000.0,
                    rack_mttr_hours: 2.0,
                }),
            )
            .unwrap()
            .run(seed)
            .availability
        };
        let mut one_vs_two = 0.0;
        let mut three_vs_two = 0.0;
        for seed in 0..6 {
            one_vs_two += run(vec![0, 0, 0], seed) - run(vec![0, 0, 1], seed);
            three_vs_two += run(vec![0, 1, 2], seed) - run(vec![0, 0, 1], seed);
        }
        assert!(one_vs_two > 0.0, "two racks beat one: {one_vs_two}");
        assert!(three_vs_two > 0.0, "two racks beat three: {three_vs_two}");
    }

    #[test]
    fn injection_validation() {
        let s = sim();
        assert_eq!(
            s.run_injected(
                1,
                &[Injection {
                    at_hours: 1.0,
                    target: InjectTarget::Node(3),
                }]
            )
            .unwrap_err(),
            ConsensusSimError::BadInjection
        );
        assert_eq!(
            s.run_injected(
                1,
                &[Injection {
                    at_hours: f64::NAN,
                    target: InjectTarget::Leader,
                }]
            )
            .unwrap_err(),
            ConsensusSimError::BadInjection
        );
    }

    #[test]
    fn rack_validation() {
        let bad = ConsensusSim::with_racks(
            ConsensusSpec::raft_defaults(),
            ConsensusParams::paper_defaults(),
            Some(RackConfig {
                placement: vec![0, 1], // 2 entries for 3 nodes
                rack_mtbf_hours: 1000.0,
                rack_mttr_hours: 1.0,
            }),
        );
        assert_eq!(bad.unwrap_err(), ConsensusSimError::BadRacks);
    }

    #[test]
    fn errors_display_meaningfully() {
        assert!(ConsensusSimError::QuorumUnreachable
            .to_string()
            .contains("quorum"));
        assert!(ConsensusSimError::BadRacks.to_string().contains("rack"));
    }
}
