//! Consensus-protocol configuration: the control-plane coordination layer
//! the paper abstracts away as a static k-of-n quorum count.
//!
//! Sakic & Kellerer ("Response Time and Availability Study of RAFT
//! Consensus in Distributed SDN Control Plane") show that leader election
//! and log-replication dynamics materially change control-plane
//! availability, and MORPH shows the crash-vs-Byzantine fault mix changes
//! the required cluster size itself. [`ConsensusSpec`] captures exactly the
//! parameters those dynamics need — election latency distribution,
//! heartbeat interval, cluster size, and declared fault mix — as *data*,
//! attachable to a [`crate::ControllerSpec`] via its optional `consensus`
//! block. The dynamics themselves live in the `sdnav-consensus` crate (a
//! discrete-event layer) and in `sdnav-markov` (the macro-state CTMC
//! counterpart).
//!
//! Election latency is a first-class *distribution* ([`ElectionLatency`]),
//! not a bare `[min, max]` pair: RAFT's prescribed uniform timeout is one
//! choice, but Sakic & Kellerer's measurements show real failover latency
//! is heavy-tailed — an [`ElectionLatency::Empirical`] quantile table
//! digitized from such measurements (or an [`ElectionLatency::LogNormal`]
//! fit) drops in without touching the simulators, which only ever draw
//! through the distribution's inverse CDF.

use std::error::Error;
use std::fmt;

use sdnav_json::{FromJson, Json, JsonError, ToJson};

/// Declared fault-tolerance mix, following MORPH's adaptive quorum model:
/// the cluster promises to mask `byzantine` arbitrary-behavior controllers
/// and `crash` fail-stop controllers simultaneously, and sizes its quorum
/// threshold as `2·byzantine + crash + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultMix {
    /// Number of Byzantine (arbitrary-behavior) faults to mask (`F_BFT`).
    pub byzantine: u32,
    /// Number of crash (fail-stop) faults to mask (`F_crash`).
    pub crash: u32,
}

impl FaultMix {
    /// Crash-only mix tolerating `crash` fail-stop faults (plain RAFT).
    #[must_use]
    pub fn crash_only(crash: u32) -> Self {
        FaultMix {
            byzantine: 0,
            crash,
        }
    }

    /// MORPH's adaptive quorum threshold: `2·F_BFT + F_crash + 1` votes
    /// are needed to commit under this declared mix. It saturates at
    /// `u32::MAX`, a count no cluster reaches.
    #[must_use]
    pub fn quorum(&self) -> u32 {
        self.byzantine
            .saturating_mul(2)
            .saturating_add(self.crash)
            .saturating_add(1)
    }

    /// Minimum cluster size that can both form the quorum and survive the
    /// declared crash count: `2·F_BFT + 2·F_crash + 1` (the quorum plus one
    /// spare per tolerated crash). It saturates like
    /// [`FaultMix::quorum`].
    #[must_use]
    pub fn min_cluster(&self) -> u32 {
        self.byzantine
            .saturating_mul(2)
            .saturating_add(self.crash.saturating_mul(2))
            .saturating_add(1)
    }

    /// The CLI/JSON spelling `B:C` (e.g. `0:1` for crash-only RAFT,
    /// `1:1` for one Byzantine plus one crash fault).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}:{}", self.byzantine, self.crash)
    }

    /// Parses the `B:C` spelling.
    #[must_use]
    pub fn parse(text: &str) -> Option<FaultMix> {
        let (b, c) = text.split_once(':')?;
        Some(FaultMix {
            byzantine: b.trim().parse().ok()?,
            crash: c.trim().parse().ok()?,
        })
    }
}

impl ToJson for FaultMix {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("byzantine", self.byzantine.to_json()),
            ("crash", self.crash.to_json()),
        ])
    }
}

impl FromJson for FaultMix {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(FaultMix {
            byzantine: value
                .field("byzantine")?
                .as_u32()
                .map_err(|e| e.ctx("byzantine"))?,
            crash: value.field("crash")?.as_u32().map_err(|e| e.ctx("crash"))?,
        })
    }
}

/// The probit (inverse standard-normal CDF), Acklam's rational
/// approximation: |relative error| < 1.15e-9 over (0, 1), std-only.
fn probit(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The quantile used as the effective distribution floor for unbounded
/// (log-normal) election latencies in SA033-style sanity checks.
const FLOOR_QUANTILE: f64 = 0.01;

/// The randomized election-latency distribution: how long a follower waits
/// before standing for election once the leader's heartbeats stop.
///
/// Every simulator draws through [`ElectionLatency::sample_ms`], the
/// inverse CDF applied to one uniform variate — so swapping the
/// distribution never changes how many random numbers a replication
/// consumes, and paired-seed comparisons across distributions stay paired.
#[derive(Debug, Clone, PartialEq)]
pub enum ElectionLatency {
    /// RAFT's prescribed uniform timeout over `[min_ms, max_ms]`.
    Uniform {
        /// Lower bound of the randomized timeout, milliseconds.
        min_ms: f64,
        /// Upper bound of the randomized timeout, milliseconds.
        max_ms: f64,
    },
    /// A measured quantile table `(q, ms)`, linearly interpolated between
    /// points. The table must start at `q = 0`, end at `q = 1`, and be
    /// non-decreasing in both coordinates — it *is* the inverse CDF.
    Empirical {
        /// `(quantile, latency_ms)` points, `q ∈ [0, 1]` ascending.
        quantiles: Vec<(f64, f64)>,
    },
    /// A log-normal fit: `ln(latency_ms) ~ Normal(mu, sigma²)`.
    LogNormal {
        /// Mean of `ln(latency_ms)`.
        mu: f64,
        /// Standard deviation of `ln(latency_ms)`, `≥ 0`.
        sigma: f64,
    },
}

impl ElectionLatency {
    /// The inverse CDF: maps one uniform variate `u ∈ [0, 1)` to a
    /// latency draw in milliseconds.
    ///
    /// For [`ElectionLatency::Uniform`] this is exactly
    /// `min + (max − min)·u` — bit-identical to the historical inline
    /// uniform draw, so existing seeded runs reproduce byte-for-byte.
    #[must_use]
    pub fn sample_ms(&self, u: f64) -> f64 {
        match self {
            ElectionLatency::Uniform { min_ms, max_ms } => min_ms + (max_ms - min_ms) * u,
            ElectionLatency::Empirical { quantiles } => {
                let first = quantiles.first().copied().unwrap_or((0.0, 0.0));
                let last = quantiles.last().copied().unwrap_or((1.0, 0.0));
                if u <= first.0 {
                    return first.1;
                }
                if u >= last.0 {
                    return last.1;
                }
                for pair in quantiles.windows(2) {
                    let (q0, v0) = pair[0];
                    let (q1, v1) = pair[1];
                    if u <= q1 {
                        // A vertical step (q0 == q1) jumps to the upper
                        // value; otherwise interpolate linearly.
                        if q1 <= q0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (u - q0) / (q1 - q0);
                    }
                }
                last.1
            }
            ElectionLatency::LogNormal { mu, sigma } => {
                // Clamp away from the endpoints: probit(0) = −∞.
                let u = u.clamp(1e-12, 1.0 - 1e-12);
                (mu + sigma * probit(u)).exp()
            }
        }
    }

    /// The distribution mean, milliseconds: midpoint for uniform,
    /// trapezoid integral of the quantile table for empirical,
    /// `exp(mu + sigma²/2)` for log-normal.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        match self {
            ElectionLatency::Uniform { min_ms, max_ms } => 0.5 * (min_ms + max_ms),
            ElectionLatency::Empirical { quantiles } => quantiles
                .windows(2)
                .map(|pair| 0.5 * (pair[0].1 + pair[1].1) * (pair[1].0 - pair[0].0))
                .sum(),
            ElectionLatency::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
        }
    }

    /// The effective lower edge of the distribution, milliseconds: the
    /// value SA033 compares against the heartbeat interval. Uniform → the
    /// min; empirical → the `q = 0` entry; log-normal → the p1 quantile
    /// (the support is unbounded below toward 0, so a low quantile stands
    /// in for the floor).
    #[must_use]
    pub fn floor_ms(&self) -> f64 {
        match self {
            ElectionLatency::Uniform { min_ms, .. } => *min_ms,
            ElectionLatency::Empirical { quantiles } => {
                quantiles.first().map_or(f64::NAN, |&(_, ms)| ms)
            }
            ElectionLatency::LogNormal { mu, sigma } => (mu + sigma * probit(FLOOR_QUANTILE)).exp(),
        }
    }

    /// Re-anchors the distribution so its floor sits at `floor_ms` while
    /// preserving its shape — the sweep-axis operation behind
    /// `consensus_election_timeouts_ms`. Uniform keeps its width,
    /// empirical shifts every quantile by the same offset, log-normal
    /// scales (a shift in `mu`).
    #[must_use]
    pub fn with_floor_ms(&self, floor_ms: f64) -> ElectionLatency {
        match self {
            ElectionLatency::Uniform { min_ms, max_ms } => ElectionLatency::Uniform {
                min_ms: floor_ms,
                max_ms: floor_ms + (max_ms - min_ms),
            },
            ElectionLatency::Empirical { quantiles } => {
                let shift = floor_ms - self.floor_ms();
                ElectionLatency::Empirical {
                    quantiles: quantiles.iter().map(|&(q, ms)| (q, ms + shift)).collect(),
                }
            }
            ElectionLatency::LogNormal { mu, sigma } => {
                let current = self.floor_ms();
                ElectionLatency::LogNormal {
                    mu: mu + (floor_ms / current).ln(),
                    sigma: *sigma,
                }
            }
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`ConsensusError::BadDuration`] for non-finite/non-positive bounds,
    /// [`ConsensusError::InvertedTimeoutRange`] when `max < min`,
    /// [`ConsensusError::BadQuantileTable`] for a malformed empirical
    /// table, [`ConsensusError::BadLogNormal`] for non-finite `mu` or a
    /// negative/non-finite `sigma`.
    pub fn validate(&self) -> Result<(), ConsensusError> {
        let finite_positive = |v: f64| v.is_finite() && v > 0.0;
        match self {
            ElectionLatency::Uniform { min_ms, max_ms } => {
                if !finite_positive(*min_ms) || !finite_positive(*max_ms) {
                    return Err(ConsensusError::BadDuration);
                }
                if max_ms < min_ms {
                    return Err(ConsensusError::InvertedTimeoutRange);
                }
                Ok(())
            }
            ElectionLatency::Empirical { quantiles } => {
                if quantiles.len() < 2 {
                    return Err(ConsensusError::BadQuantileTable);
                }
                let first = quantiles[0];
                let last = quantiles[quantiles.len() - 1];
                if first.0 != 0.0 || last.0 != 1.0 {
                    return Err(ConsensusError::BadQuantileTable);
                }
                for pair in quantiles.windows(2) {
                    let ((q0, v0), (q1, v1)) = (pair[0], pair[1]);
                    let ok = q0.is_finite()
                        && q1.is_finite()
                        && finite_positive(v0)
                        && finite_positive(v1)
                        && q1 >= q0
                        && v1 >= v0;
                    if !ok {
                        return Err(ConsensusError::BadQuantileTable);
                    }
                }
                Ok(())
            }
            ElectionLatency::LogNormal { mu, sigma } => {
                if !mu.is_finite() || !sigma.is_finite() || *sigma < 0.0 {
                    return Err(ConsensusError::BadLogNormal);
                }
                Ok(())
            }
        }
    }
}

impl ToJson for ElectionLatency {
    fn to_json(&self) -> Json {
        match self {
            ElectionLatency::Uniform { min_ms, max_ms } => Json::obj(vec![
                ("kind", Json::str("uniform")),
                ("min_ms", Json::Num(*min_ms)),
                ("max_ms", Json::Num(*max_ms)),
            ]),
            ElectionLatency::Empirical { quantiles } => Json::obj(vec![
                ("kind", Json::str("empirical")),
                (
                    "quantiles",
                    Json::Arr(
                        quantiles
                            .iter()
                            .map(|&(q, ms)| {
                                Json::obj(vec![("q", Json::Num(q)), ("ms", Json::Num(ms))])
                            })
                            .collect(),
                    ),
                ),
            ]),
            ElectionLatency::LogNormal { mu, sigma } => Json::obj(vec![
                ("kind", Json::str("log_normal")),
                ("mu", Json::Num(*mu)),
                ("sigma", Json::Num(*sigma)),
            ]),
        }
    }
}

impl FromJson for ElectionLatency {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let kind = value.field("kind")?.as_str().map_err(|e| e.ctx("kind"))?;
        match kind {
            "uniform" => Ok(ElectionLatency::Uniform {
                min_ms: value
                    .field("min_ms")?
                    .as_f64()
                    .map_err(|e| e.ctx("min_ms"))?,
                max_ms: value
                    .field("max_ms")?
                    .as_f64()
                    .map_err(|e| e.ctx("max_ms"))?,
            }),
            "empirical" => {
                let arr = value
                    .field("quantiles")?
                    .as_arr()
                    .map_err(|e| e.ctx("quantiles"))?;
                let mut quantiles = Vec::with_capacity(arr.len());
                for point in arr {
                    quantiles.push((
                        point.field("q")?.as_f64().map_err(|e| e.ctx("q"))?,
                        point.field("ms")?.as_f64().map_err(|e| e.ctx("ms"))?,
                    ));
                }
                Ok(ElectionLatency::Empirical { quantiles })
            }
            "log_normal" => Ok(ElectionLatency::LogNormal {
                mu: value.field("mu")?.as_f64().map_err(|e| e.ctx("mu"))?,
                sigma: value.field("sigma")?.as_f64().map_err(|e| e.ctx("sigma"))?,
            }),
            other => Err(JsonError::decode(format!(
                "unknown election latency kind {other:?} \
                 (want uniform, empirical, or log_normal)"
            ))),
        }
    }
}

/// Consensus-protocol parameters for the controller cluster's control
/// plane (RAFT-style, with MORPH's adaptive-BFT quorum when the declared
/// fault mix includes Byzantine faults).
///
/// All durations are in milliseconds; the availability models convert to
/// hours internally. Election latency is *randomized* per election, drawn
/// from the declared [`ElectionLatency`] distribution — RAFT's uniform
/// timeout by default, or a measured empirical table.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusSpec {
    /// The randomized election-latency distribution.
    pub election_latency: ElectionLatency,
    /// Leader heartbeat (AppendEntries keep-alive) interval.
    pub heartbeat_interval_ms: f64,
    /// Number of consensus participants (overrides nothing: the paper's
    /// controller cluster is `2N+1` nodes and this is that `n`).
    pub cluster_size: u32,
    /// Declared byzantine/crash fault-tolerance mix.
    pub fault_mix: FaultMix,
    /// Time a repaired follower spends replaying the log before it counts
    /// toward the commit quorum again (JSON default: `4×` heartbeat).
    pub catch_up_ms: f64,
}

impl ConsensusSpec {
    /// The largest cluster the consensus models accept. The macro-state
    /// CTMC is a dense chain of `q + 2(n − q + 1)` states, at most
    /// `2n + 1`, solved in cubic time; at 255 members that is at most 511
    /// states and about 2 MB. Controller clusters have a handful.
    pub const MAX_CLUSTER_SIZE: u32 = 255;

    /// RAFT-flavored defaults matching Sakic & Kellerer's measured etcd
    /// ranges: 150–300 ms randomized election timeout, 50 ms heartbeat,
    /// 3-node crash-only cluster.
    #[must_use]
    pub fn raft_defaults() -> Self {
        ConsensusSpec {
            election_latency: ElectionLatency::Uniform {
                min_ms: 150.0,
                max_ms: 300.0,
            },
            heartbeat_interval_ms: 50.0,
            cluster_size: 3,
            fault_mix: FaultMix::crash_only(1),
            catch_up_ms: 200.0,
        }
    }

    /// The effective commit quorum under the declared fault mix
    /// (`2·F_BFT + F_crash + 1`), never below a simple majority of the
    /// cluster — a RAFT cluster cannot commit on a minority whatever the
    /// declared mix.
    #[must_use]
    pub fn quorum(&self) -> u32 {
        self.fault_mix.quorum().max(self.cluster_size / 2 + 1)
    }

    /// Mean of the election-latency distribution, milliseconds.
    #[must_use]
    pub fn mean_election_timeout_ms(&self) -> f64 {
        self.election_latency.mean_ms()
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConsensusError`] for non-finite or non-positive
    /// durations, a malformed election-latency distribution, an empty
    /// cluster, or one above [`ConsensusSpec::MAX_CLUSTER_SIZE`]. Semantic
    /// misconfigurations (latency floor ≤ heartbeat, cluster too small for
    /// the mix, quorum unreachable) are deliberately *not* rejected here —
    /// they decode fine and are surfaced as SA033–SA035 lint findings
    /// instead.
    pub fn validate(&self) -> Result<(), ConsensusError> {
        let finite_positive = |v: f64| v.is_finite() && v > 0.0;
        self.election_latency.validate()?;
        let durations_ok = finite_positive(self.heartbeat_interval_ms)
            && self.catch_up_ms.is_finite()
            && self.catch_up_ms >= 0.0;
        if !durations_ok {
            return Err(ConsensusError::BadDuration);
        }
        if self.cluster_size == 0 {
            return Err(ConsensusError::EmptyCluster);
        }
        if self.cluster_size > Self::MAX_CLUSTER_SIZE {
            return Err(ConsensusError::ClusterTooLarge);
        }
        Ok(())
    }
}

impl ToJson for ConsensusSpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("election_latency", self.election_latency.to_json()),
            (
                "heartbeat_interval_ms",
                Json::Num(self.heartbeat_interval_ms),
            ),
            ("cluster_size", self.cluster_size.to_json()),
            ("fault_mix", self.fault_mix.to_json()),
            ("catch_up_ms", Json::Num(self.catch_up_ms)),
        ])
    }
}

impl FromJson for ConsensusSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let heartbeat = value
            .field("heartbeat_interval_ms")?
            .as_f64()
            .map_err(|e| e.ctx("heartbeat_interval_ms"))?;
        // New documents carry an `election_latency` object; legacy ones
        // carry the bare `election_timeout_min_ms`/`..._max_ms` pair,
        // decoded as the uniform distribution they always meant.
        let election_latency = match value.get("election_latency") {
            Some(v) if !matches!(v, Json::Null) => {
                ElectionLatency::from_json(v).map_err(|e| e.ctx("election_latency"))?
            }
            _ => ElectionLatency::Uniform {
                min_ms: value
                    .field("election_timeout_min_ms")?
                    .as_f64()
                    .map_err(|e| e.ctx("election_timeout_min_ms"))?,
                max_ms: value
                    .field("election_timeout_max_ms")?
                    .as_f64()
                    .map_err(|e| e.ctx("election_timeout_max_ms"))?,
            },
        };
        Ok(ConsensusSpec {
            election_latency,
            heartbeat_interval_ms: heartbeat,
            cluster_size: value
                .field("cluster_size")?
                .as_u32()
                .map_err(|e| e.ctx("cluster_size"))?,
            fault_mix: FaultMix::from_json(value.field("fault_mix")?)
                .map_err(|e| e.ctx("fault_mix"))?,
            catch_up_ms: match value.get("catch_up_ms") {
                None | Some(Json::Null) => 4.0 * heartbeat,
                Some(v) => v.as_f64().map_err(|e| e.ctx("catch_up_ms"))?,
            },
        })
    }
}

/// Validation errors for a [`ConsensusSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConsensusError {
    /// A duration was non-finite, negative, or (for the mandatory ones)
    /// zero.
    BadDuration,
    /// A uniform election latency with `max_ms < min_ms`.
    InvertedTimeoutRange,
    /// An empirical quantile table that is too short, does not span
    /// `q = 0..1`, or is not non-decreasing in both coordinates.
    BadQuantileTable,
    /// A log-normal election latency with non-finite `mu` or a
    /// negative/non-finite `sigma`.
    BadLogNormal,
    /// `cluster_size` was zero.
    EmptyCluster,
    /// `cluster_size` exceeds [`ConsensusSpec::MAX_CLUSTER_SIZE`].
    ClusterTooLarge,
}

impl fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusError::BadDuration => {
                write!(f, "consensus durations must be finite and positive")
            }
            ConsensusError::InvertedTimeoutRange => {
                write!(f, "election timeout range is inverted (max < min)")
            }
            ConsensusError::BadQuantileTable => write!(
                f,
                "empirical election latency needs a non-decreasing quantile \
                 table spanning q = 0..1 with positive latencies"
            ),
            ConsensusError::BadLogNormal => write!(
                f,
                "log-normal election latency needs finite mu and sigma >= 0"
            ),
            ConsensusError::EmptyCluster => {
                write!(f, "consensus cluster must have at least one node")
            }
            ConsensusError::ClusterTooLarge => write!(
                f,
                "consensus cluster must have at most {} nodes",
                ConsensusSpec::MAX_CLUSTER_SIZE
            ),
        }
    }
}

impl Error for ConsensusError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raft_defaults_validate() {
        let spec = ConsensusSpec::raft_defaults();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.quorum(), 2);
        assert_eq!(spec.mean_election_timeout_ms(), 225.0);
        assert_eq!(spec.election_latency.floor_ms(), 150.0);
    }

    #[test]
    fn morph_quorum_formula() {
        // MORPH: 2·F_BFT + F_crash + 1.
        assert_eq!(
            FaultMix {
                byzantine: 1,
                crash: 1
            }
            .quorum(),
            4
        );
        assert_eq!(FaultMix::crash_only(2).quorum(), 3);
        assert_eq!(
            FaultMix {
                byzantine: 1,
                crash: 1
            }
            .min_cluster(),
            5
        );
    }

    #[test]
    fn fault_mix_arithmetic_saturates() {
        // Unchecked, `--fault-mix 2147483648:0` overflows `2 * byzantine`.
        let huge = FaultMix {
            byzantine: 1 << 31,
            crash: 0,
        };
        assert_eq!(huge.quorum(), u32::MAX);
        assert_eq!(huge.min_cluster(), u32::MAX);
        let crashes = FaultMix::crash_only(u32::MAX);
        assert_eq!(crashes.quorum(), u32::MAX);
        assert_eq!(crashes.min_cluster(), u32::MAX);
        let spec = ConsensusSpec {
            fault_mix: huge,
            ..ConsensusSpec::raft_defaults()
        };
        assert_eq!(spec.quorum(), u32::MAX);
    }

    #[test]
    fn cluster_size_is_capped() {
        let mut spec = ConsensusSpec::raft_defaults();
        spec.cluster_size = ConsensusSpec::MAX_CLUSTER_SIZE;
        assert_eq!(spec.validate(), Ok(()));
        spec.cluster_size += 1;
        let err = spec.validate().unwrap_err();
        assert_eq!(err, ConsensusError::ClusterTooLarge);
        assert!(err.to_string().contains("at most 255 nodes"), "{err}");
    }

    #[test]
    fn quorum_never_below_majority() {
        // A degenerate declared mix (tolerate nothing) still needs a
        // majority of the cluster to commit.
        let mut spec = ConsensusSpec::raft_defaults();
        spec.fault_mix = FaultMix::crash_only(0);
        spec.cluster_size = 5;
        assert_eq!(spec.quorum(), 3);
    }

    #[test]
    fn fault_mix_label_round_trips() {
        for mix in [
            FaultMix::crash_only(1),
            FaultMix {
                byzantine: 2,
                crash: 1,
            },
        ] {
            assert_eq!(FaultMix::parse(&mix.label()), Some(mix));
        }
        assert_eq!(FaultMix::parse("nonsense"), None);
        assert_eq!(FaultMix::parse("1"), None);
    }

    #[test]
    fn json_round_trip_and_catch_up_default() {
        let spec = ConsensusSpec::raft_defaults();
        let json = sdnav_json::to_string_pretty(&spec);
        let back: ConsensusSpec = sdnav_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // Legacy JSON: a bare min/max pair decodes as Uniform, and a
        // missing catch_up_ms defaults to 4× heartbeat.
        let minimal = r#"{
            "election_timeout_min_ms": 150, "election_timeout_max_ms": 300,
            "heartbeat_interval_ms": 50, "cluster_size": 3,
            "fault_mix": {"byzantine": 0, "crash": 1}
        }"#;
        let p: ConsensusSpec = sdnav_json::from_str(minimal).unwrap();
        assert_eq!(p.catch_up_ms, 200.0);
        assert_eq!(
            p.election_latency,
            ElectionLatency::Uniform {
                min_ms: 150.0,
                max_ms: 300.0
            }
        );
    }

    #[test]
    fn latency_variants_round_trip_json() {
        for latency in [
            ElectionLatency::Uniform {
                min_ms: 10.0,
                max_ms: 20.0,
            },
            ElectionLatency::Empirical {
                quantiles: vec![(0.0, 100.0), (0.5, 180.0), (1.0, 900.0)],
            },
            ElectionLatency::LogNormal {
                mu: 5.2,
                sigma: 0.4,
            },
        ] {
            let json = sdnav_json::to_string_pretty(&latency);
            let back: ElectionLatency = sdnav_json::from_str(&json).unwrap();
            assert_eq!(latency, back);
        }
        let err = sdnav_json::from_str::<ElectionLatency>(r#"{"kind": "cauchy"}"#).unwrap_err();
        assert!(err.to_string().contains("cauchy"));
    }

    #[test]
    fn uniform_sampling_matches_the_legacy_draw() {
        // sample_ms must be exactly `min + (max − min)·u`, the historical
        // inline draw — bit-identical, not merely close.
        let latency = ElectionLatency::Uniform {
            min_ms: 150.0,
            max_ms: 300.0,
        };
        for u in [0.0, 0.125, 0.5, 0.999_999] {
            assert_eq!(
                latency.sample_ms(u).to_bits(),
                (150.0 + 150.0 * u).to_bits()
            );
        }
    }

    #[test]
    fn empirical_interpolates_its_table() {
        let latency = ElectionLatency::Empirical {
            quantiles: vec![(0.0, 100.0), (0.5, 200.0), (1.0, 1000.0)],
        };
        assert!(latency.validate().is_ok());
        assert_eq!(latency.sample_ms(0.0), 100.0);
        assert_eq!(latency.sample_ms(0.25), 150.0);
        assert_eq!(latency.sample_ms(0.5), 200.0);
        assert_eq!(latency.sample_ms(0.75), 600.0);
        assert_eq!(latency.floor_ms(), 100.0);
        // Trapezoid mean: 0.5·(100+200)·0.5 + 0.5·(200+1000)·0.5 = 375.
        assert_eq!(latency.mean_ms(), 375.0);
    }

    #[test]
    fn log_normal_quantiles_are_sane() {
        let latency = ElectionLatency::LogNormal {
            mu: 5.0,
            sigma: 0.5,
        };
        assert!(latency.validate().is_ok());
        // Median is exp(mu); mean is exp(mu + sigma²/2) > median.
        let median = latency.sample_ms(0.5);
        assert!((median - 5.0f64.exp()).abs() < 1e-6 * 5.0f64.exp());
        assert!(latency.mean_ms() > median);
        // Monotone inverse CDF.
        assert!(latency.sample_ms(0.9) > latency.sample_ms(0.1));
        assert!(latency.floor_ms() < median);
    }

    #[test]
    fn with_floor_preserves_shape() {
        let uniform = ElectionLatency::Uniform {
            min_ms: 150.0,
            max_ms: 300.0,
        };
        assert_eq!(
            uniform.with_floor_ms(600.0),
            ElectionLatency::Uniform {
                min_ms: 600.0,
                max_ms: 750.0
            }
        );
        let empirical = ElectionLatency::Empirical {
            quantiles: vec![(0.0, 100.0), (1.0, 500.0)],
        };
        let shifted = empirical.with_floor_ms(250.0);
        assert_eq!(shifted.floor_ms(), 250.0);
        assert_eq!(shifted.sample_ms(1.0), 650.0);
        let log_normal = ElectionLatency::LogNormal {
            mu: 5.0,
            sigma: 0.5,
        };
        let scaled = log_normal.with_floor_ms(2.0 * log_normal.floor_ms());
        assert!((scaled.floor_ms() - 2.0 * log_normal.floor_ms()).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut spec = ConsensusSpec::raft_defaults();
        spec.election_latency = ElectionLatency::Uniform {
            min_ms: 150.0,
            max_ms: 100.0,
        };
        assert_eq!(spec.validate(), Err(ConsensusError::InvertedTimeoutRange));
        spec = ConsensusSpec::raft_defaults();
        spec.heartbeat_interval_ms = f64::NAN;
        assert_eq!(spec.validate(), Err(ConsensusError::BadDuration));
        spec = ConsensusSpec::raft_defaults();
        spec.cluster_size = 0;
        assert_eq!(spec.validate(), Err(ConsensusError::EmptyCluster));
        // Semantically suspect but *valid* (lint territory, SA033).
        spec = ConsensusSpec::raft_defaults();
        spec.election_latency = ElectionLatency::Uniform {
            min_ms: 10.0,
            max_ms: 20.0,
        };
        assert!(spec.validate().is_ok());
        // Malformed quantile tables and log-normal parameters.
        for bad in [
            ElectionLatency::Empirical { quantiles: vec![] },
            ElectionLatency::Empirical {
                quantiles: vec![(0.1, 100.0), (1.0, 200.0)],
            },
            ElectionLatency::Empirical {
                quantiles: vec![(0.0, 300.0), (1.0, 200.0)],
            },
            ElectionLatency::LogNormal {
                mu: f64::NAN,
                sigma: 0.5,
            },
            ElectionLatency::LogNormal {
                mu: 5.0,
                sigma: -1.0,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn errors_display_meaningfully() {
        assert!(ConsensusError::InvertedTimeoutRange
            .to_string()
            .contains("inverted"));
        assert!(ConsensusError::BadQuantileTable
            .to_string()
            .contains("quantile"));
        assert!(ConsensusError::BadLogNormal.to_string().contains("sigma"));
    }
}
