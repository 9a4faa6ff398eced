//! Batched scenario-grid evaluation for the paper's models.
//!
//! The analytic sweeps (`sdnav_core::sweep`) and the discrete-event
//! simulator (`sdnav_sim`) each answer one question at a time. This crate
//! evaluates a whole *grid* of questions — figure × topology × parameter
//! point × method — in one run:
//!
//! 1. **Plan** ([`plan`]): expand a [`GridSpec`] into independent
//!    [`plan::WorkItem`]s in a canonical order, each with a deterministic,
//!    identity-derived RNG seed.
//! 2. **Execute** ([`pool`]): run the items on a std-only work-stealing
//!    thread pool. Results land in per-item slots, so the output is
//!    byte-identical for any `--threads` value.
//! 3. **Memoize** ([`cache`]): grid axes overlap — Fig. 4 and Fig. 5 need
//!    the same SW-model evaluations — so sub-model results are cached by
//!    bit-pattern keys and shared across items. An item reads its analytic
//!    values through the keys [`cache::SubModelKey::of`] lists, and each
//!    value is computed from its key alone, so the static cost model that
//!    walks the same list knows every hit and miss in advance.
//! 4. **Aggregate**: fold per-item outputs back into figure tables and
//!    simulation rows in plan order, streaming simulation replications
//!    through [`sdnav_sim::Welford`].
//!
//! Every entry point — [`evaluate`], [`evaluate_incremental`] and
//! [`evaluate_supervised`] — runs these stages through one code path that
//! executes each item under [`supervise`]'s panic isolation, and returns
//! the results plus a [`metrics::RunMetrics`] block (stage timings, cache
//! hit rates, steals, throughput). Results are reproducible; metrics are
//! not and are reported separately.
//!
//! ```
//! use sdnav_core::ControllerSpec;
//! use sdnav_grid::{evaluate, GridSpec};
//!
//! let spec = ControllerSpec::opencontrail_3x();
//! let grid = GridSpec::builder().points(5).build().expect("valid grid");
//! let outcome = evaluate(&spec, &grid).expect("grid evaluates");
//! assert_eq!(outcome.results.fig3.len(), 5);
//! assert!(outcome.metrics.cache_hits > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::error::Error;
use std::fmt;

use sdnav_consensus::{ConsensusParams, ConsensusSim};
use sdnav_core::sweep::{Fig3Row, SwSweepRow};
use sdnav_core::{
    ConsensusSpec, ControllerSpec, FaultMix, HwModel, HwParams, ModelError, ModelState, ParamError,
    Scenario, SdnavError, SwModel, SwParams, Topology,
};
use sdnav_json::{schema, FromJson, Json, JsonError, ToJson};
use sdnav_sim::{ConfigError, Estimate, SimBuildError, SimConfig, Simulation, Welford};

pub mod cache;
pub mod checkpoint;
pub mod metrics;
pub mod plan;
pub mod pool;
pub mod quarantine;
pub mod supervise;

use cache::SubModelKey;
use metrics::{RunMetrics, StageTimings};
use plan::{item_seed, Figure, SimTopology, WorkItem};
use sdnav_chaos::{ChaosSpec, CrewDiscipline, CrewSpec, InjectionKind};

pub use cache::EvalGraph;
pub use quarantine::{QuarantineRecord, QuarantineReport};
pub use supervise::{evaluate_supervised, SuperviseOptions, SupervisedOutcome};

/// What a grid run should cover. Build one with [`GridSpec::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Figures to sweep analytically.
    pub figures: Vec<Figure>,
    /// Samples per sweep axis.
    pub points: usize,
    /// Simulation replications per grid cell (0 disables simulation).
    pub replications: usize,
    /// Base RNG seed; per-item seeds are derived from it and the item's
    /// grid coordinates.
    pub seed: u64,
    /// Worker threads (0 = one per available CPU).
    pub threads: usize,
    /// Simulated horizon per replication, in hours.
    pub sim_horizon_hours: f64,
    /// Failure-rate acceleration factor for simulation cells.
    pub sim_accelerate: f64,
    /// Simulated compute hosts carrying vRouters.
    pub sim_compute_hosts: usize,
    /// Base chaos campaign for the campaign axes (`None` disables them).
    /// Each chaos cell clones it, overrides the crew count and every
    /// common-cause probability with the cell's coordinates, and runs
    /// `replications.max(1)` injected replications.
    pub chaos_campaign: Option<ChaosSpec>,
    /// Crew-count axis for chaos cells.
    pub chaos_crew_counts: Vec<usize>,
    /// Common-cause probability axis for chaos cells.
    pub chaos_ccf_probabilities: Vec<f64>,
    /// Base consensus spec for the consensus axes (`None` disables them).
    /// Each consensus cell clones it, overrides the election-timeout floor
    /// (keeping the randomized window width), cluster size, and fault mix
    /// with the cell's coordinates, and runs `replications.max(1)` DES
    /// replications next to the macro-state CTMC counterpart.
    pub consensus: Option<ConsensusSpec>,
    /// Election-timeout-floor axis (ms) for consensus cells.
    pub consensus_election_timeouts_ms: Vec<f64>,
    /// Cluster-size axis for consensus cells.
    pub consensus_cluster_sizes: Vec<u32>,
    /// Byzantine/crash fault-mix axis for consensus cells.
    pub consensus_fault_mixes: Vec<FaultMix>,
}

impl GridSpec {
    /// Checks the spec for nonsensical values — the same checks
    /// [`GridSpecBuilder::build`] applies, exposed separately so grids
    /// decoded from JSON (which deliberately skip validation for lint
    /// fixtures) can be gated before evaluation.
    ///
    /// # Errors
    ///
    /// Returns the first [`GridError::Spec`] of [`GridSpec::violations`].
    pub fn validate(&self) -> Result<(), GridError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Every nonsensical value, in check order, each a [`GridError::Spec`]
    /// (empty, with nothing allocated, for a valid grid).
    #[must_use]
    pub fn violations(&self) -> Vec<GridError> {
        let mut out = Vec::new();
        let mut fail = |what| out.push(GridError::Spec(what));
        if self.figures.is_empty() {
            fail("at least one figure is required");
        }
        if self.points == 0 {
            fail("points must be at least 1");
        }
        if self.sim_horizon_hours.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            fail("simulation horizon must be positive");
        }
        if self.sim_accelerate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            fail("simulation acceleration must be positive");
        }
        // An infinite horizon would never let a DES cell finish (NaN and
        // -inf already failed the positivity checks above).
        if self.sim_horizon_hours == f64::INFINITY {
            fail("simulation horizon must be finite");
        }
        if self.sim_accelerate == f64::INFINITY {
            fail("simulation acceleration must be finite");
        }
        if self.sim_compute_hosts == 0 {
            fail("need at least one simulated compute host");
        }
        if let Some(campaign) = &self.chaos_campaign {
            if campaign.try_validate().is_err() {
                fail("chaos campaign fails validation");
            }
            if self.chaos_crew_counts.is_empty() || self.chaos_crew_counts.contains(&0) {
                fail("chaos crew counts must be non-empty and positive");
            }
            let probabilities = &self.chaos_ccf_probabilities;
            if probabilities.is_empty() || probabilities.iter().any(|p| !(0.0..=1.0).contains(p)) {
                fail("chaos probabilities must be non-empty and in [0, 1]");
            }
        }
        if let Some(consensus) = &self.consensus {
            if consensus.validate().is_err() {
                fail("consensus base spec fails validation");
            }
            let timeouts = &self.consensus_election_timeouts_ms;
            if timeouts.is_empty() || timeouts.iter().any(|t| !(t.is_finite() && *t > 0.0)) {
                fail("consensus election timeouts must be non-empty, finite, and positive");
            }
            let sizes = &self.consensus_cluster_sizes;
            if sizes.is_empty() || sizes.contains(&0) {
                fail("consensus cluster sizes must be non-empty and positive");
            }
            // The literal is `ConsensusSpec::MAX_CLUSTER_SIZE`; a unit test
            // keeps the two in step.
            if sizes.iter().any(|&n| n > ConsensusSpec::MAX_CLUSTER_SIZE) {
                fail("consensus cluster sizes must be at most 255 nodes");
            }
            if self.consensus_fault_mixes.is_empty() {
                fail("consensus fault mixes must be non-empty");
            }
        }
        out
    }

    /// Starts a builder with the default grid: all three figures, 21
    /// points, no simulation, seed 7, auto thread count, and accelerated
    /// short-horizon simulation settings suitable for smoke-grade
    /// validation (20 000 h at 200× on 2 hosts).
    pub fn builder() -> GridSpecBuilder {
        GridSpecBuilder {
            spec: GridSpec {
                figures: vec![Figure::Fig3, Figure::Fig4, Figure::Fig5],
                points: 21,
                replications: 0,
                seed: 7,
                threads: 0,
                sim_horizon_hours: 20_000.0,
                sim_accelerate: 200.0,
                sim_compute_hosts: 2,
                chaos_campaign: None,
                chaos_crew_counts: vec![1, 2, 3, 4],
                chaos_ccf_probabilities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
                consensus: None,
                consensus_election_timeouts_ms: vec![150.0, 300.0, 600.0],
                consensus_cluster_sizes: vec![3, 5, 7],
                consensus_fault_mixes: vec![FaultMix::crash_only(1)],
            },
        }
    }
}

impl FromJson for GridSpec {
    /// Decodes a grid spec from JSON **without validation** — every field
    /// is optional and defaults to the builder's default. Lint passes
    /// deliberately accept grids `build()` would reject, so seeded
    /// fixtures for each diagnostic decode without tripping an earlier
    /// gate. Run the result through [`GridSpec::builder`]-equivalent
    /// validation before evaluating it.
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut spec = GridSpec::builder().spec;
        if let Some(v) = value.get("figures") {
            let mut figures = Vec::new();
            for (i, f) in v.as_arr().map_err(|e| e.ctx("figures"))?.iter().enumerate() {
                let name = f.as_str().map_err(|e| e.ctx("figures"))?;
                figures.push(Figure::parse(name).ok_or_else(|| {
                    JsonError::decode(format!(
                        "unknown figure {name:?} (want fig3, fig4, or fig5)"
                    ))
                    .ctx(&format!("figures[{i}]"))
                })?);
            }
            spec.figures = figures;
        }
        if let Some(v) = value.get("points") {
            spec.points = v.as_usize().map_err(|e| e.ctx("points"))?;
        }
        if let Some(v) = value.get("replications") {
            spec.replications = v.as_usize().map_err(|e| e.ctx("replications"))?;
        }
        if let Some(v) = value.get("seed") {
            spec.seed = v.as_usize().map_err(|e| e.ctx("seed"))? as u64;
        }
        if let Some(v) = value.get("threads") {
            spec.threads = v.as_usize().map_err(|e| e.ctx("threads"))?;
        }
        if let Some(v) = value.get("sim_horizon_hours") {
            spec.sim_horizon_hours = v.as_f64().map_err(|e| e.ctx("sim_horizon_hours"))?;
        }
        if let Some(v) = value.get("sim_accelerate") {
            spec.sim_accelerate = v.as_f64().map_err(|e| e.ctx("sim_accelerate"))?;
        }
        if let Some(v) = value.get("sim_compute_hosts") {
            spec.sim_compute_hosts = v.as_usize().map_err(|e| e.ctx("sim_compute_hosts"))?;
        }
        if let Some(v) = value.get("chaos_campaign") {
            spec.chaos_campaign =
                Some(ChaosSpec::from_json(v).map_err(|e| e.ctx("chaos_campaign"))?);
        }
        if let Some(v) = value.get("chaos_crew_counts") {
            spec.chaos_crew_counts = v
                .as_arr()
                .map_err(|e| e.ctx("chaos_crew_counts"))?
                .iter()
                .map(Json::as_usize)
                .collect::<Result<_, _>>()
                .map_err(|e| e.ctx("chaos_crew_counts"))?;
        }
        if let Some(v) = value.get("chaos_ccf_probabilities") {
            spec.chaos_ccf_probabilities = v
                .as_arr()
                .map_err(|e| e.ctx("chaos_ccf_probabilities"))?
                .iter()
                .map(Json::as_f64)
                .collect::<Result<_, _>>()
                .map_err(|e| e.ctx("chaos_ccf_probabilities"))?;
        }
        if let Some(v) = value.get("consensus") {
            spec.consensus = Some(ConsensusSpec::from_json(v).map_err(|e| e.ctx("consensus"))?);
        }
        if let Some(v) = value.get("consensus_election_timeouts_ms") {
            spec.consensus_election_timeouts_ms = v
                .as_arr()
                .map_err(|e| e.ctx("consensus_election_timeouts_ms"))?
                .iter()
                .map(Json::as_f64)
                .collect::<Result<_, _>>()
                .map_err(|e| e.ctx("consensus_election_timeouts_ms"))?;
        }
        if let Some(v) = value.get("consensus_cluster_sizes") {
            spec.consensus_cluster_sizes = v
                .as_arr()
                .map_err(|e| e.ctx("consensus_cluster_sizes"))?
                .iter()
                .map(Json::as_u32)
                .collect::<Result<_, _>>()
                .map_err(|e| e.ctx("consensus_cluster_sizes"))?;
        }
        if let Some(v) = value.get("consensus_fault_mixes") {
            spec.consensus_fault_mixes = v
                .as_arr()
                .map_err(|e| e.ctx("consensus_fault_mixes"))?
                .iter()
                .map(FaultMix::from_json)
                .collect::<Result<_, _>>()
                .map_err(|e| e.ctx("consensus_fault_mixes"))?;
        }
        Ok(spec)
    }
}

/// Step-by-step construction of a validated [`GridSpec`].
#[derive(Debug, Clone)]
#[must_use = "call `.build()` to obtain the validated GridSpec"]
pub struct GridSpecBuilder {
    spec: GridSpec,
}

impl GridSpecBuilder {
    /// The textual keys [`set`](Self::set) understands: the `sdnav sweep`
    /// flags without their dashes, and the `GET /v1/plan` query keys.
    pub const KEYS: [&'static str; 8] = [
        "figures",
        "points",
        "replications",
        "seed",
        "threads",
        "horizon",
        "accelerate",
        "compute-hosts",
    ];

    /// Sets the field a textual key names (one of [`KEYS`](Self::KEYS))
    /// from its textual value, e.g. `("figures", "fig3,fig4")`.
    ///
    /// # Errors
    ///
    /// A `Usage`-kind [`SdnavError`] for an unknown key or a value that
    /// does not parse; out-of-range values are left to [`build`](Self::build).
    pub fn set(self, key: &str, value: &str) -> Result<Self, SdnavError> {
        let bad = |what: &str| SdnavError::usage(format!("{key} expects {what}, got {value:?}"));
        let integer = || value.parse::<usize>().map_err(|_| bad("an integer"));
        let number = || value.parse::<f64>().map_err(|_| bad("a number"));
        Ok(match key {
            "figures" => {
                let figures: Option<Vec<Figure>> = value
                    .split(',')
                    .map(|name| Figure::parse(name.trim()))
                    .collect();
                self.figures(&figures.ok_or_else(|| bad("a comma list of fig3|fig4|fig5"))?)
            }
            "points" => self.points(integer()?),
            "replications" => self.replications(integer()?),
            "seed" => self.seed(value.parse().map_err(|_| bad("an integer"))?),
            "threads" => self.threads(integer()?),
            "horizon" => self.sim_horizon_hours(number()?),
            "accelerate" => self.sim_accelerate(number()?),
            "compute-hosts" => self.sim_compute_hosts(integer()?),
            other => return Err(SdnavError::usage(format!("unknown grid key {other:?}"))),
        })
    }

    /// Restricts the run to the given figures (deduplicated, order kept).
    pub fn figures(mut self, figures: &[Figure]) -> Self {
        let mut list: Vec<Figure> = Vec::new();
        for f in figures {
            if !list.contains(f) {
                list.push(*f);
            }
        }
        self.spec.figures = list;
        self
    }

    /// Sets the samples per sweep axis.
    pub fn points(mut self, points: usize) -> Self {
        self.spec.points = points;
        self
    }

    /// Sets the simulation replications per cell (0 disables simulation).
    pub fn replications(mut self, replications: usize) -> Self {
        self.spec.replications = replications;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the worker thread count (0 = one per available CPU).
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = threads;
        self
    }

    /// Sets the simulated horizon per replication, in hours.
    pub fn sim_horizon_hours(mut self, hours: f64) -> Self {
        self.spec.sim_horizon_hours = hours;
        self
    }

    /// Sets the failure-rate acceleration for simulation cells.
    pub fn sim_accelerate(mut self, factor: f64) -> Self {
        self.spec.sim_accelerate = factor;
        self
    }

    /// Sets the simulated compute-host count.
    pub fn sim_compute_hosts(mut self, hosts: usize) -> Self {
        self.spec.sim_compute_hosts = hosts;
        self
    }

    /// Enables the chaos-campaign axes with this base campaign.
    pub fn chaos_campaign(mut self, campaign: ChaosSpec) -> Self {
        self.spec.chaos_campaign = Some(campaign);
        self
    }

    /// Sets the crew-count axis for chaos cells.
    pub fn chaos_crew_counts(mut self, counts: &[usize]) -> Self {
        self.spec.chaos_crew_counts = counts.to_vec();
        self
    }

    /// Sets the common-cause probability axis for chaos cells.
    pub fn chaos_ccf_probabilities(mut self, probabilities: &[f64]) -> Self {
        self.spec.chaos_ccf_probabilities = probabilities.to_vec();
        self
    }

    /// Enables the consensus axes with this base spec.
    pub fn consensus(mut self, consensus: ConsensusSpec) -> Self {
        self.spec.consensus = Some(consensus);
        self
    }

    /// Sets the election-timeout-floor axis (ms) for consensus cells.
    pub fn consensus_election_timeouts_ms(mut self, timeouts: &[f64]) -> Self {
        self.spec.consensus_election_timeouts_ms = timeouts.to_vec();
        self
    }

    /// Sets the cluster-size axis for consensus cells.
    pub fn consensus_cluster_sizes(mut self, sizes: &[u32]) -> Self {
        self.spec.consensus_cluster_sizes = sizes.to_vec();
        self
    }

    /// Sets the fault-mix axis for consensus cells.
    pub fn consensus_fault_mixes(mut self, mixes: &[FaultMix]) -> Self {
        self.spec.consensus_fault_mixes = mixes.to_vec();
        self
    }

    /// Validates and returns the grid spec.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::Spec`] naming the first nonsensical value.
    pub fn build(self) -> Result<GridSpec, GridError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// A grid run that could not be planned or executed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GridError {
    /// The grid spec itself is nonsensical.
    Spec(&'static str),
    /// A model parameter set failed validation, or an analytic model
    /// could not be built.
    Model(ModelError),
    /// A simulation configuration failed validation.
    Config(ConfigError),
    /// A simulation could not be constructed.
    Sim(SimBuildError),
    /// The chaos campaign failed to compile against a grid cell's
    /// simulation (message from [`sdnav_chaos::CompileError`]).
    Campaign(String),
    /// A consensus cell could not be built or cross-validated (message
    /// from [`sdnav_consensus::ConsensusSimError`]).
    Consensus(String),
    /// The checkpoint WAL could not be written, replayed, or matched
    /// against this run's identity (see [`checkpoint`]).
    Checkpoint(String),
    /// A cell panicked and was quarantined (see [`supervise`]).
    Panicked(QuarantineRecord),
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Spec(what) => write!(f, "invalid grid spec: {what}"),
            GridError::Model(ModelError::Param(e)) => write!(f, "invalid model parameters: {e}"),
            GridError::Model(e) => write!(f, "cannot build the analytic model: {e}"),
            GridError::Config(e) => write!(f, "invalid simulation config: {e}"),
            GridError::Sim(e) => write!(f, "cannot build simulation: {e}"),
            GridError::Campaign(e) => write!(f, "cannot compile chaos campaign: {e}"),
            GridError::Consensus(e) => write!(f, "cannot evaluate consensus cell: {e}"),
            GridError::Checkpoint(e) => write!(f, "{e}"),
            GridError::Panicked(r) => write!(
                f,
                "{} panicked (seed {}): {}",
                r.label, r.seed, r.panic_message
            ),
        }
    }
}

impl Error for GridError {}

impl From<GridError> for SdnavError {
    fn from(e: GridError) -> Self {
        match &e {
            GridError::Checkpoint(_) => SdnavError::io(e.to_string()),
            GridError::Panicked(_) => SdnavError::analysis(e.to_string()),
            _ => SdnavError::model(e.to_string()),
        }
    }
}

impl From<ParamError> for GridError {
    fn from(e: ParamError) -> Self {
        GridError::Model(ModelError::Param(e))
    }
}

impl From<ModelError> for GridError {
    fn from(e: ModelError) -> Self {
        GridError::Model(e)
    }
}

impl From<ConfigError> for GridError {
    fn from(e: ConfigError) -> Self {
        GridError::Config(e)
    }
}

impl From<SimBuildError> for GridError {
    fn from(e: SimBuildError) -> Self {
        GridError::Sim(e)
    }
}

/// One simulated grid cell: replication-aggregated estimates next to the
/// matching analytic prediction (computed from the *accelerated* rates the
/// simulator actually ran).
#[derive(Debug, Clone, PartialEq)]
pub struct SimRow {
    /// Sweep x-position (orders of magnitude of process downtime removed).
    pub x: f64,
    /// Simulated deployment name (`Small` | `Large`).
    pub topology: &'static str,
    /// Whether the supervisor-required scenario applied.
    pub supervisor_required: bool,
    /// Replications aggregated into the estimates.
    pub replications: usize,
    /// Across-replication control-plane availability estimate.
    pub cp: Estimate,
    /// Across-replication per-host data-plane availability estimate.
    pub dp: Estimate,
    /// Total events processed across the replications.
    pub events: u64,
    /// Analytic CP availability at the simulated (accelerated) rates.
    pub analytic_cp: f64,
    /// Analytic per-host DP availability at the simulated rates.
    pub analytic_dp: f64,
}

impl ToJson for SimRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("x", Json::Num(self.x)),
            ("topology", Json::str(self.topology)),
            ("supervisor_required", Json::Bool(self.supervisor_required)),
            ("replications", Json::Num(self.replications as f64)),
            ("cp_mean", Json::Num(self.cp.mean)),
            ("cp_std_error", Json::Num(self.cp.std_error)),
            ("dp_mean", Json::Num(self.dp.mean)),
            ("dp_std_error", Json::Num(self.dp.std_error)),
            ("events", Json::Num(self.events as f64)),
            ("analytic_cp", Json::Num(self.analytic_cp)),
            ("analytic_dp", Json::Num(self.analytic_dp)),
        ])
    }
}

/// One chaos-campaign grid cell: the base campaign re-parameterized to one
/// `(crew count, common-cause probability, topology)` coordinate, with
/// replication-aggregated availability estimates and the mean attribution
/// split between injected and organic root causes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Repair crews available in this cell.
    pub crew_count: usize,
    /// Probability applied to every common-cause group member.
    pub ccf_probability: f64,
    /// Simulated deployment name (`Small` | `Large`).
    pub topology: &'static str,
    /// Replications aggregated into the estimates.
    pub replications: usize,
    /// Across-replication control-plane availability estimate.
    pub cp: Estimate,
    /// Across-replication per-host data-plane availability estimate.
    pub dp: Estimate,
    /// Mean CP outage-hours per replication rooted in campaign injections.
    pub injected_cp_hours_mean: f64,
    /// Mean CP outage-hours per replication rooted in organic failures.
    pub organic_cp_hours_mean: f64,
    /// Planned events applied, summed across the replications.
    pub injected_events: u64,
    /// Latent faults revealed by failovers, summed across the replications.
    pub revealed_latents: u64,
    /// Total events processed across the replications.
    pub events: u64,
}

impl ToJson for ChaosRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("crew_count", Json::Num(self.crew_count as f64)),
            ("ccf_probability", Json::Num(self.ccf_probability)),
            ("topology", Json::str(self.topology)),
            ("replications", Json::Num(self.replications as f64)),
            ("cp_mean", Json::Num(self.cp.mean)),
            ("cp_std_error", Json::Num(self.cp.std_error)),
            ("dp_mean", Json::Num(self.dp.mean)),
            ("dp_std_error", Json::Num(self.dp.std_error)),
            (
                "injected_cp_hours_mean",
                Json::Num(self.injected_cp_hours_mean),
            ),
            (
                "organic_cp_hours_mean",
                Json::Num(self.organic_cp_hours_mean),
            ),
            ("injected_events", Json::Num(self.injected_events as f64)),
            ("revealed_latents", Json::Num(self.revealed_latents as f64)),
            ("events", Json::Num(self.events as f64)),
        ])
    }
}

/// One consensus-dynamics grid cell: the base [`ConsensusSpec`]
/// re-parameterized to one `(election timeout, cluster size, fault mix)`
/// coordinate, with replication-aggregated DES availability next to the
/// macro-state CTMC counterpart evaluated at the same parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusRow {
    /// Election-timeout floor applied in this cell (ms).
    pub election_timeout_ms: f64,
    /// Consensus participants in this cell.
    pub cluster_size: u32,
    /// Declared Byzantine fault count (`F_BFT`).
    pub byzantine: u32,
    /// Declared crash fault count (`F_crash`).
    pub crash: u32,
    /// Effective commit quorum (`2·F_BFT + F_crash + 1`, floored at a
    /// simple majority).
    pub quorum: u32,
    /// DES replications aggregated into the estimate.
    pub replications: usize,
    /// Across-replication control-plane (leader-up) availability estimate.
    pub availability: Estimate,
    /// Mean fraction of the horizon spent in leader elections.
    pub election_fraction_mean: f64,
    /// Mean fraction of the horizon spent with the quorum lost.
    pub stall_fraction_mean: f64,
    /// Leader elections observed, summed across the replications.
    pub elections: u64,
    /// Steady-state availability of the macro-state CTMC counterpart.
    pub ctmc_availability: f64,
}

impl ToJson for ConsensusRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("election_timeout_ms", Json::Num(self.election_timeout_ms)),
            ("cluster_size", self.cluster_size.to_json()),
            ("byzantine", self.byzantine.to_json()),
            ("crash", self.crash.to_json()),
            ("quorum", self.quorum.to_json()),
            ("replications", Json::Num(self.replications as f64)),
            ("availability_mean", Json::Num(self.availability.mean)),
            (
                "availability_std_error",
                Json::Num(self.availability.std_error),
            ),
            (
                "election_fraction_mean",
                Json::Num(self.election_fraction_mean),
            ),
            ("stall_fraction_mean", Json::Num(self.stall_fraction_mean)),
            ("elections", Json::Num(self.elections as f64)),
            ("ctmc_availability", Json::Num(self.ctmc_availability)),
        ])
    }
}

/// The reproducible payload of a grid run.
///
/// Serialized as `sdnav-sweep-results/v1`. For a fixed spec and grid this
/// is byte-identical across thread counts and runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridResults {
    /// Fig. 3 rows (empty when the figure was not requested).
    pub fig3: Vec<Fig3Row>,
    /// Fig. 4 rows.
    pub fig4: Vec<SwSweepRow>,
    /// Fig. 5 rows.
    pub fig5: Vec<SwSweepRow>,
    /// Simulated cells (empty when `replications == 0`).
    pub sim: Vec<SimRow>,
    /// Chaos-campaign cells (empty when no campaign was set). Additive to
    /// the `sdnav-sweep-results/v1` schema.
    pub chaos: Vec<ChaosRow>,
    /// Consensus-dynamics cells (empty when no base consensus spec was
    /// set). Additive to the `sdnav-sweep-results/v1` schema; the key is
    /// omitted entirely when empty so pre-consensus output stays
    /// byte-identical.
    pub consensus: Vec<ConsensusRow>,
    /// Whether the run stopped short (graceful shutdown) or quarantined
    /// cells, leaving rows missing. Complete runs leave this `false` and
    /// omit the marker from the JSON.
    pub incomplete: bool,
}

impl ToJson for GridResults {
    fn to_json(&self) -> Json {
        let rows = |items: &[Fig3Row]| Json::Arr(items.iter().map(ToJson::to_json).collect());
        let sw_rows = |items: &[SwSweepRow]| Json::Arr(items.iter().map(ToJson::to_json).collect());
        let mut fields = vec![("schema", Json::str(schema::SWEEP_RESULTS))];
        if self.incomplete {
            // Additive marker: only partial output carries it, so complete
            // runs stay byte-compatible with pre-supervision consumers.
            fields.push(("incomplete", Json::Bool(true)));
        }
        fields.extend(vec![
            ("fig3", rows(&self.fig3)),
            ("fig4", sw_rows(&self.fig4)),
            ("fig5", sw_rows(&self.fig5)),
            (
                "sim",
                Json::Arr(self.sim.iter().map(ToJson::to_json).collect()),
            ),
            (
                "chaos",
                Json::Arr(self.chaos.iter().map(ToJson::to_json).collect()),
            ),
        ]);
        if !self.consensus.is_empty() {
            // Additive key: only runs with consensus axes carry it, so
            // pre-consensus result files keep their exact bytes.
            fields.push((
                "consensus",
                Json::Arr(self.consensus.iter().map(ToJson::to_json).collect()),
            ));
        }
        Json::obj(fields)
    }
}

/// Everything one grid run produces: the reproducible results and the
/// run-varying metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOutcome {
    /// The reproducible result payload.
    pub results: GridResults,
    /// Stage timings, cache counters, throughput for this particular run.
    pub metrics: RunMetrics,
}

/// Per-item output, folded back into [`GridResults`] in plan order.
#[derive(Debug)]
enum ItemOutput {
    Fig3(Fig3Row),
    Sw(Figure, SwSweepRow),
    Sim(SimRow),
    Chaos(ChaosRow),
    Consensus(ConsensusRow),
}

/// Shared read-only context for item evaluation.
struct EvalCtx<'a> {
    spec: &'a ControllerSpec,
    small: Topology,
    medium: Topology,
    large: Topology,
    hw_base: HwParams,
    sw_base: SwParams,
    /// HW-domain fingerprint ([`ModelState::hw_domain`]) addressing every
    /// [`SubModelKey::Hw`] entry this run reads.
    hw_fp: u64,
    /// SW-domain fingerprint addressing every [`SubModelKey::Sw`] entry.
    sw_fp: u64,
    grid: &'a GridSpec,
    graph: &'a EvalGraph,
}

impl EvalCtx<'_> {
    /// The deployment a simulated, chaos or SW cell runs on.
    fn topology(&self, which: SimTopology) -> &Topology {
        match which {
            SimTopology::Small => &self.small,
            SimTopology::Large => &self.large,
        }
    }

    /// The memoized value of one sub-model, computed on a miss from the
    /// key's own fields and the key kind's base parameters, whose domain
    /// fingerprint addresses it: `[small, medium, large]` HW
    /// availabilities for an HW key, `[cp, shared_dp, host_dp]` for an SW
    /// key (the evaluation Fig. 4 and Fig. 5 share).
    fn sub_model(&self, key: SubModelKey) -> [f64; 3] {
        match key {
            SubModelKey::Hw { a_c_bits } => self.graph.get_or_compute(self.hw_fp, key, || {
                let p = self.hw_base.with_a_c(f64::from_bits(a_c_bits));
                let avail = |topo: &Topology| {
                    HwModel::try_new(self.spec, topo, p)
                        .expect("build_ctx built every layout at valid base params")
                        .availability()
                };
                [avail(&self.small), avail(&self.medium), avail(&self.large)]
            }),
            SubModelKey::Sw {
                topology,
                scenario,
                x_bits,
            } => self.graph.get_or_compute(self.sw_fp, key, || {
                // Figure x = +1 means 10× less downtime → scale by 10^(−x).
                let params = self.sw_base.scale_process_downtime(-f64::from_bits(x_bits));
                let model = SwModel::try_new(self.spec, self.topology(topology), params, scenario)
                    .expect("build_ctx built every layout; scaling keeps the params in range");
                // The per-host DP is the shared DP times the local vRouter
                // term (`host_dp_availability`), so the DP plane is
                // enumerated once.
                let shared_dp = model.shared_dp_availability();
                [
                    model.cp_availability(),
                    shared_dp,
                    shared_dp * model.local_dp_availability(),
                ]
            }),
        }
    }

    fn eval(&self, item: &WorkItem) -> Result<ItemOutput, GridError> {
        let values: Vec<[f64; 3]> = SubModelKey::of(item)
            .into_iter()
            .map(|key| self.sub_model(key))
            .collect();
        match item {
            WorkItem::Fig3Point { a_c } => {
                let [small, medium, large] = values[0];
                Ok(ItemOutput::Fig3(Fig3Row {
                    a_c: *a_c,
                    small,
                    medium,
                    large,
                }))
            }
            WorkItem::SwPoint { figure, x } => {
                // Fig. 4 reads the CP availability (triple slot 0), Fig. 5
                // the per-host DP availability (slot 2), of the four §VI
                // options in key order.
                let slot = if *figure == Figure::Fig4 { 0 } else { 2 };
                Ok(ItemOutput::Sw(
                    *figure,
                    SwSweepRow {
                        x: *x,
                        a: self.sw_base.scale_process_downtime(-x).process.auto,
                        small_no_sup: values[0][slot],
                        small_sup: values[1][slot],
                        large_no_sup: values[2][slot],
                        large_sup: values[3][slot],
                    },
                ))
            }
            WorkItem::SimPoint {
                x,
                topology,
                scenario,
            } => self.eval_sim(item, *x, *topology, *scenario),
            WorkItem::ChaosPoint {
                crew_count,
                ccf_probability,
                topology,
            } => self.eval_chaos(item, *crew_count, *ccf_probability, *topology),
            WorkItem::ConsensusPoint {
                election_timeout_ms,
                cluster_size,
                fault_mix,
            } => self.eval_consensus(item, *election_timeout_ms, *cluster_size, *fault_mix),
        }
    }

    fn eval_consensus(
        &self,
        item: &WorkItem,
        election_timeout_ms: f64,
        cluster_size: u32,
        fault_mix: FaultMix,
    ) -> Result<ItemOutput, GridError> {
        let base = self
            .grid
            .consensus
            .as_ref()
            .expect("consensus items are only planned when a base spec is set");
        // Re-parameterize the base spec to this cell's coordinates: the
        // timeout axis re-anchors the latency distribution's floor at the
        // cell's value (preserving its shape — width for uniform, offsets
        // for empirical tables), the other axes replace their fields.
        let mut consensus = base.clone();
        consensus.election_latency = base.election_latency.with_floor_ms(election_timeout_ms);
        consensus.cluster_size = cluster_size;
        consensus.fault_mix = fault_mix;
        let quorum = consensus.quorum();

        // Node failure rates accelerate exactly like the simulation cells'.
        let params =
            ConsensusParams::accelerated(self.grid.sim_horizon_hours, self.grid.sim_accelerate);
        let sim = ConsensusSim::try_new(consensus.clone(), params)
            .map_err(|e| GridError::Consensus(e.to_string()))?;
        let ctmc_availability = sdnav_consensus::ctmc_availability(&consensus, &params)
            .map_err(|e| GridError::Consensus(e.to_string()))?;

        // Like chaos cells, a replications=0 grid still runs one DES
        // replication per cell: the consensus axes are the point.
        let replications = self.grid.replications.max(1);
        let base_seed = item_seed(self.grid.seed, item);
        let mut availability = Welford::new();
        let mut election_fraction = 0.0;
        let mut stall_fraction = 0.0;
        let mut elections = 0u64;
        for r in 0..replications {
            let outcome = sim.run(base_seed.wrapping_add(r as u64));
            availability.push(outcome.availability);
            election_fraction += outcome.election_fraction;
            stall_fraction += outcome.stall_fraction;
            elections += outcome.elections;
        }

        let n = replications as f64;
        Ok(ItemOutput::Consensus(ConsensusRow {
            election_timeout_ms,
            cluster_size,
            byzantine: fault_mix.byzantine,
            crash: fault_mix.crash,
            quorum,
            replications,
            availability: availability.estimate(),
            election_fraction_mean: election_fraction / n,
            stall_fraction_mean: stall_fraction / n,
            elections,
            ctmc_availability,
        }))
    }

    fn eval_chaos(
        &self,
        item: &WorkItem,
        crew_count: usize,
        ccf_probability: f64,
        topology: SimTopology,
    ) -> Result<ItemOutput, GridError> {
        let base = self
            .grid
            .chaos_campaign
            .as_ref()
            .expect("chaos items are only planned when a campaign is set");
        // Re-parameterize the base campaign to this cell's coordinates: the
        // crew axis replaces the pool size (keeping the declared discipline)
        // and the probability axis overrides every common-cause group.
        let mut campaign = base.clone();
        let discipline = campaign
            .crews
            .as_ref()
            .map_or(CrewDiscipline::Fifo, |c| c.discipline);
        campaign.crews = Some(CrewSpec {
            count: crew_count,
            discipline,
        });
        for injection in &mut campaign.injections {
            if let InjectionKind::CommonCause { probability, .. } = &mut injection.kind {
                *probability = ccf_probability;
            }
        }

        let config = SimConfig::builder(Scenario::SupervisorNotRequired)
            .horizon_hours(self.grid.sim_horizon_hours)
            .compute_hosts(self.grid.sim_compute_hosts)
            .accelerate(self.grid.sim_accelerate)
            .build()?;
        let sim = Simulation::try_new(self.spec, self.topology(topology), config)?;
        let plan = sdnav_chaos::compile(&campaign, &sim)
            .map_err(|e| GridError::Campaign(e.to_string()))?;

        // Even a replications=0 grid runs one chaos replication per cell:
        // the campaign axes are the point of a chaos sweep, not an add-on
        // to the figure replications.
        let replications = self.grid.replications.max(1);
        let base_seed = item_seed(self.grid.seed, item);
        let mut cp = Welford::new();
        let mut dp = Welford::new();
        let mut events = 0u64;
        let mut injected_events = 0u64;
        let mut revealed_latents = 0u64;
        let mut injected_hours = 0.0;
        let mut organic_hours = 0.0;
        for r in 0..replications {
            let result = sim.run_injected(base_seed.wrapping_add(r as u64), &plan);
            cp.push(result.cp_availability);
            dp.push(result.dp_availability);
            events += result.events;
            if let Some(ledger) = &result.ledger {
                injected_events += ledger.injected_events;
                revealed_latents += ledger.revealed_latents;
                let by_cause = ledger.cp_hours_by_cause();
                organic_hours += by_cause[0];
                injected_hours += by_cause[1..].iter().fold(0.0, |acc, h| acc + h);
            }
        }

        let n = replications as f64;
        Ok(ItemOutput::Chaos(ChaosRow {
            crew_count,
            ccf_probability,
            topology: topology.name(),
            replications,
            cp: cp.estimate(),
            dp: dp.estimate(),
            injected_cp_hours_mean: injected_hours / n,
            organic_cp_hours_mean: organic_hours / n,
            injected_events,
            revealed_latents,
            events,
        }))
    }

    fn eval_sim(
        &self,
        item: &WorkItem,
        x: f64,
        topology: SimTopology,
        scenario: Scenario,
    ) -> Result<ItemOutput, GridError> {
        // Map the figures' x-axis onto restart times: scale each process
        // unavailability by 10^(−x) at the paper's fixed F, so the
        // simulated cells line up with the analytic sweep positions.
        let defaults = SimConfig::paper_defaults(scenario);
        let f_mtbf = defaults.process_mtbf;
        let restart_for = |restart: f64| {
            let u = restart / (f_mtbf + restart) * 10f64.powf(-x);
            f_mtbf * u / (1.0 - u)
        };
        let config = SimConfig::builder(scenario)
            .auto_restart(restart_for(defaults.auto_restart))
            .manual_restart(restart_for(defaults.manual_restart))
            .horizon_hours(self.grid.sim_horizon_hours)
            .compute_hosts(self.grid.sim_compute_hosts)
            .accelerate(self.grid.sim_accelerate)
            .build()?;
        let topo = self.topology(topology);
        let sim = Simulation::try_new(self.spec, topo, config)?;

        // Replications run sequentially inside the item with seeds derived
        // from the item's identity — the stream (and thus every byte of the
        // estimates) is independent of scheduling.
        let base_seed = item_seed(self.grid.seed, item);
        let mut cp = Welford::new();
        let mut dp = Welford::new();
        let mut events = 0u64;
        for r in 0..self.grid.replications {
            let result = sim.run(base_seed.wrapping_add(r as u64));
            cp.push(result.cp_availability);
            dp.push(result.dp_availability);
            events += result.events;
        }

        // Analytic reference at the rates the simulator actually ran
        // (acceleration changes the implied availabilities, so this is not
        // the same evaluation as the figures' x-keyed cache entries).
        let analytic = SwModel::try_new(self.spec, topo, config.analytic_params(), scenario)?;

        Ok(ItemOutput::Sim(SimRow {
            x,
            topology: topology.name(),
            supervisor_required: scenario == Scenario::SupervisorRequired,
            replications: self.grid.replications,
            cp: cp.estimate(),
            dp: dp.estimate(),
            events,
            analytic_cp: analytic.cp_availability(),
            analytic_dp: analytic.host_dp_availability(),
        }))
    }
}

/// Resolves the worker-thread count (0 = one per available CPU).
fn resolve_threads(grid: &GridSpec) -> usize {
    if grid.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        grid.threads
    }
}

/// Validates the base parameter sets and assembles the shared evaluation
/// context, fingerprinting the state's HW and SW domains.
///
/// Every analytic model a planned cell builds enumerates the shared
/// hardware of its layout, whatever its parameters, so each layout `items`
/// read is built once here at the base HW parameters: a layout that does
/// not fit the spec or shares more than exact enumeration supports fails
/// the run with [`GridError::Model`] before any cell runs.
fn build_ctx<'a>(
    state: &'a ModelState,
    grid: &'a GridSpec,
    graph: &'a EvalGraph,
    items: &[WorkItem],
) -> Result<EvalCtx<'a>, GridError> {
    state.hw.try_validate()?;
    state.sw.try_validate()?;
    let spec = &state.spec;
    let ctx = EvalCtx {
        spec,
        small: Topology::small(spec),
        medium: Topology::medium(spec),
        large: Topology::large(spec),
        hw_base: state.hw,
        sw_base: state.sw,
        hw_fp: state.hw_domain(),
        sw_fp: state.sw_domain(),
        grid,
        graph,
    };
    // `[small, medium, large]`: whether a planned cell builds a model on it.
    let mut read = [false; 3];
    for item in items {
        match item {
            WorkItem::Fig3Point { .. } => read = [true; 3],
            WorkItem::SwPoint { .. } => {
                read[0] = true;
                read[2] = true;
            }
            WorkItem::SimPoint { topology, .. } => match topology {
                SimTopology::Small => read[0] = true,
                SimTopology::Large => read[2] = true,
            },
            WorkItem::ChaosPoint { .. } | WorkItem::ConsensusPoint { .. } => {}
        }
    }
    for (topology, read) in [&ctx.small, &ctx.medium, &ctx.large].into_iter().zip(read) {
        if read {
            HwModel::try_new(spec, topology, state.hw)?;
        }
    }
    Ok(ctx)
}

/// Folds one item output into the result tables (outputs must arrive in
/// plan order).
fn fold_output(results: &mut GridResults, output: ItemOutput) {
    match output {
        ItemOutput::Fig3(row) => results.fig3.push(row),
        ItemOutput::Sw(Figure::Fig4, row) => results.fig4.push(row),
        ItemOutput::Sw(_, row) => results.fig5.push(row),
        ItemOutput::Sim(row) => results.sim.push(row),
        ItemOutput::Chaos(row) => results.chaos.push(row),
        ItemOutput::Consensus(row) => results.consensus.push(row),
    }
}

impl RunMetrics {
    /// The metrics of one run, with the replication and event totals
    /// summed over every DES row of `results` (simulated, chaos and
    /// consensus cells).
    fn from_run(
        results: &GridResults,
        items: usize,
        stages: StageTimings,
        stats: pool::PoolStats,
        (cache_hits, cache_misses): (u64, u64),
        (quarantined, restored): (u64, u64),
    ) -> Self {
        let sim = results.sim.iter().map(|r| (r.replications, r.events));
        let chaos = results.chaos.iter().map(|r| (r.replications, r.events));
        let consensus = results.consensus.iter().map(|r| (r.replications, 0));
        let (sim_replications, sim_events) = sim
            .chain(chaos)
            .chain(consensus)
            .fold((0u64, 0u64), |(reps, events), (r, e)| {
                (reps + r as u64, events + e)
            });
        RunMetrics {
            threads: stats.workers,
            items,
            stages,
            items_per_sec: if stages.execute_ms > 0.0 {
                items as f64 / (stages.execute_ms / 1e3)
            } else {
                0.0
            },
            cache_hits,
            cache_misses,
            steals: stats.steals,
            sim_replications,
            sim_events,
            quarantined,
            restored,
        }
    }
}

/// Evaluates a grid: plans the items, executes them on the pool, and
/// aggregates results in plan order.
///
/// This is the one-shot form of [`evaluate_incremental`] (paper-default
/// parameters, fresh graph) and produces byte-identical results to it.
/// Long-running or interruption-tolerant callers use
/// [`evaluate_supervised`], which also journals a checkpoint and emits
/// partial results on shutdown.
///
/// # Errors
///
/// Returns the first [`GridError`] encountered (in plan order, regardless
/// of execution order), or [`GridError::Panicked`] for a cell that
/// panicked.
pub fn evaluate(spec: &ControllerSpec, grid: &GridSpec) -> Result<GridOutcome, GridError> {
    let state = ModelState::paper(spec.clone());
    let graph = EvalGraph::new();
    evaluate_incremental(&state, grid, &graph)
}

/// Evaluates a grid against `state`, memoizing sub-models in `graph`
/// across calls.
///
/// Sub-model entries are addressed by `(domain fingerprint, key)`, so a
/// graph can be reused across requests and across [`ModelState::patch`]
/// edits: only sub-models whose domain actually changed recompute, and a
/// warm evaluation is byte-identical to a cold one at any thread count —
/// entries key on f64 bit patterns, so a hit can never change a result
/// byte. Metrics report this run's hit/miss deltas, not the graph's
/// lifetime totals; concurrent runs sharing one graph would interleave
/// deltas, so callers serialize evaluations per graph.
///
/// Cells run under the default [`SuperviseOptions`]: a panicking cell is
/// quarantined at once and fails the whole evaluation.
///
/// # Errors
///
/// Returns the first [`GridError`] encountered (in plan order, regardless
/// of execution order), or [`GridError::Panicked`] naming the first
/// quarantined cell.
pub fn evaluate_incremental(
    state: &ModelState,
    grid: &GridSpec,
    graph: &EvalGraph,
) -> Result<GridOutcome, GridError> {
    let outcome = supervise::evaluate_with(state, grid, graph, &SuperviseOptions::default())?;
    if let Some(record) = outcome.quarantine.records.into_iter().next() {
        return Err(GridError::Panicked(record));
    }
    Ok(GridOutcome {
        results: outcome.results,
        metrics: outcome.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnav_chaos::{InjectionSpec, TargetRef};
    use sdnav_core::ElementRef;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    /// A rack-CCF campaign valid on both the Small and Large topologies.
    fn ccf_campaign() -> ChaosSpec {
        ChaosSpec {
            name: "grid-rack-ccf".into(),
            seed: 3,
            crews: None,
            injections: vec![InjectionSpec {
                label: "rack-ccf".into(),
                kind: InjectionKind::CommonCause {
                    trigger: TargetRef::Element(ElementRef::Rack(0)),
                    members: vec![
                        TargetRef::Element(ElementRef::Host(0)),
                        TargetRef::Element(ElementRef::Host(1)),
                    ],
                    probability: 0.5,
                    repair_hours: Some(8.0),
                },
                at: 500.0,
                every: Some(1_000.0),
            }],
        }
    }

    fn chaos_grid(threads: usize) -> GridSpec {
        GridSpec::builder()
            .figures(&[Figure::Fig3])
            .points(2)
            .replications(2)
            .threads(threads)
            .sim_horizon_hours(5_000.0)
            .sim_accelerate(500.0)
            .sim_compute_hosts(2)
            .chaos_campaign(ccf_campaign())
            .chaos_crew_counts(&[1, 2])
            .chaos_ccf_probabilities(&[0.0, 1.0])
            .build()
            .unwrap()
    }

    fn sim_grid(threads: usize) -> GridSpec {
        GridSpec::builder()
            .points(3)
            .replications(2)
            .threads(threads)
            .sim_horizon_hours(5_000.0)
            .sim_accelerate(500.0)
            .sim_compute_hosts(2)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_rows_match_core_sweeps_exactly() {
        let s = spec();
        let grid = GridSpec::builder().points(7).threads(2).build().unwrap();
        let outcome = evaluate(&s, &grid).unwrap();
        let fig3 = sdnav_core::sweep::fig3(&s, HwParams::paper_defaults(), 7);
        let fig4 = sdnav_core::sweep::fig4(&s, SwParams::paper_defaults(), 7);
        let fig5 = sdnav_core::sweep::fig5(&s, SwParams::paper_defaults(), 7);
        assert_eq!(outcome.results.fig3, fig3);
        assert_eq!(outcome.results.fig4, fig4);
        assert_eq!(outcome.results.fig5, fig5);
        assert!(outcome.results.sim.is_empty());
    }

    #[test]
    fn results_are_byte_identical_across_thread_counts() {
        let s = spec();
        let reference = sdnav_json::to_string(&evaluate(&s, &sim_grid(1)).unwrap().results);
        for threads in [2, 8] {
            let json = sdnav_json::to_string(&evaluate(&s, &sim_grid(threads)).unwrap().results);
            assert_eq!(json, reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn fig4_fig5_share_cached_sub_models() {
        let s = spec();
        let grid = GridSpec::builder()
            .figures(&[Figure::Fig4, Figure::Fig5])
            .points(5)
            .threads(1)
            .build()
            .unwrap();
        let outcome = evaluate(&s, &grid).unwrap();
        // Each x-point needs 4 (topology, scenario) triples; whichever
        // figure computes them first, the other's 4 lookups all hit.
        assert_eq!(outcome.metrics.cache_misses, 4 * 5);
        assert_eq!(outcome.metrics.cache_hits, 4 * 5);
    }

    #[test]
    fn incremental_sw_patch_recomputes_strictly_fewer_sub_models() {
        let s = spec();
        let grid = GridSpec::builder().points(5).threads(1).build().unwrap();
        let graph = EvalGraph::new();
        let mut state = ModelState::paper(s);

        let cold = evaluate_incremental(&state, &grid, &graph).unwrap();
        // 5 HW points + 4 (topology, scenario) triples × 5 x-points.
        assert_eq!(cold.metrics.cache_misses, 5 + 4 * 5);

        state.patch("sw.process.manual", 0.9997).unwrap();
        let dropped = graph.retain_domains(&[state.hw_domain(), state.sw_domain()]);
        assert_eq!(dropped, 4 * 5, "only the SW domain entries invalidate");

        let warm = evaluate_incremental(&state, &grid, &graph).unwrap();
        // Every HW entry survives the patch and hits; only SW recomputes.
        assert_eq!(warm.metrics.cache_misses, 4 * 5);
        assert!(warm.metrics.cache_misses < cold.metrics.cache_misses);
        assert_eq!(warm.results.fig3, cold.results.fig3);
        assert_ne!(warm.results.fig4, cold.results.fig4);
    }

    #[test]
    fn incremental_hw_patch_leaves_sw_entries_live() {
        let s = spec();
        let grid = GridSpec::builder().points(3).threads(1).build().unwrap();
        let graph = EvalGraph::new();
        let mut state = ModelState::paper(s);
        evaluate_incremental(&state, &grid, &graph).unwrap();

        state.patch("hw.a_c", 0.999).unwrap();
        let dropped = graph.retain_domains(&[state.hw_domain(), state.sw_domain()]);
        assert_eq!(dropped, 3, "only the HW domain entries invalidate");

        let warm = evaluate_incremental(&state, &grid, &graph).unwrap();
        assert_eq!(warm.metrics.cache_misses, 3);
        assert_eq!(warm.metrics.cache_hits, 4 * 3 + 4 * 3);
    }

    #[test]
    fn warm_incremental_results_match_a_cold_eval_byte_for_byte() {
        let s = spec();
        let grid = |threads| {
            GridSpec::builder()
                .points(4)
                .threads(threads)
                .build()
                .unwrap()
        };
        let graph = EvalGraph::new();
        let mut state = ModelState::paper(s);
        evaluate_incremental(&state, &grid(1), &graph).unwrap();
        state.patch("sw.a_h", 0.9998).unwrap();
        graph.retain_domains(&[state.hw_domain(), state.sw_domain()]);

        // A cold evaluation of the patched state, fresh graph.
        let cold = evaluate_incremental(&state, &grid(1), &EvalGraph::new()).unwrap();
        let reference = sdnav_json::to_string(&cold.results);
        // Warm evaluations on the shared graph must reproduce it exactly,
        // at any thread count.
        for threads in [1, 2, 8] {
            let warm = evaluate_incremental(&state, &grid(threads), &graph).unwrap();
            let json = sdnav_json::to_string(&warm.results);
            assert_eq!(json, reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn validate_matches_builder_checks() {
        let mut grid = GridSpec::builder().build().unwrap();
        assert!(grid.validate().is_ok());
        grid.points = 0;
        assert_eq!(
            grid.validate().unwrap_err(),
            GridError::Spec("points must be at least 1")
        );
    }

    #[test]
    fn a_seed_json_cannot_hold_exactly_is_a_decode_error() {
        // 2^53 + 1 parses to 2^53, so decoding it would evaluate a seed
        // other than the one `sdnav sweep --seed` takes.
        let err = sdnav_json::from_str::<GridSpec>(r#"{"seed": 9007199254740993}"#).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        assert_eq!(SdnavError::from(err).http_status(), 400);
    }

    #[test]
    fn a_panicked_cell_is_an_analysis_error() {
        let err = SdnavError::from(GridError::Panicked(QuarantineRecord {
            index: 3,
            label: "item 3: Sw".into(),
            seed: 11,
            panic_message: "boom".into(),
        }));
        assert_eq!(err.kind(), sdnav_core::ErrorKind::Analysis);
        assert_eq!(err.http_status(), 500);
        assert!(err.message().contains("item 3: Sw"), "{err}");
        assert!(err.message().contains("boom"), "{err}");
    }

    #[test]
    fn sim_rows_track_their_analytic_reference() {
        let s = spec();
        let outcome = evaluate(&s, &sim_grid(0)).unwrap();
        assert_eq!(outcome.results.sim.len(), 3 * 2 * 2);
        for row in &outcome.results.sim {
            assert_eq!(row.replications, 2);
            assert!(row.events > 0);
            // Loose sanity bound: accelerated short runs are noisy, but the
            // simulated CP availability must live in the same regime as the
            // analytic prediction.
            assert!(
                (row.cp.mean - row.analytic_cp).abs() < 0.05,
                "x={} {} sup={}: sim {} vs analytic {}",
                row.x,
                row.topology,
                row.supervisor_required,
                row.cp.mean,
                row.analytic_cp
            );
        }
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert_eq!(
            GridSpec::builder().points(0).build().unwrap_err(),
            GridError::Spec("points must be at least 1")
        );
        assert_eq!(
            GridSpec::builder().figures(&[]).build().unwrap_err(),
            GridError::Spec("at least one figure is required")
        );
        assert_eq!(
            GridSpec::builder().sim_accelerate(0.0).build().unwrap_err(),
            GridError::Spec("simulation acceleration must be positive")
        );
        assert_eq!(
            GridSpec::builder()
                .sim_horizon_hours(f64::INFINITY)
                .build()
                .unwrap_err(),
            GridError::Spec("simulation horizon must be finite")
        );
        assert_eq!(
            GridSpec::builder()
                .sim_accelerate(f64::INFINITY)
                .build()
                .unwrap_err(),
            GridError::Spec("simulation acceleration must be finite")
        );
        assert_eq!(
            GridSpec::builder()
                .sim_compute_hosts(0)
                .build()
                .unwrap_err(),
            GridError::Spec("need at least one simulated compute host")
        );
    }

    #[test]
    fn chaos_axes_produce_attributed_rows() {
        let s = spec();
        let outcome = evaluate(&s, &chaos_grid(2)).unwrap();
        // 2 crew counts × 2 probabilities × 2 topologies.
        assert_eq!(outcome.results.chaos.len(), 8);
        for row in &outcome.results.chaos {
            assert_eq!(row.replications, 2);
            assert!(row.events > 0);
            // The trigger rack always fails, so every cell injects events.
            assert!(row.injected_events > 0, "cell injected nothing: {row:?}");
            assert!(row.cp.mean > 0.0 && row.cp.mean <= 1.0);
        }
        // p=1.0 takes the correlated hosts down with the rack; p=0.0 only
        // the trigger. More injected events at p=1.0 for the same seeds.
        let events_at = |p: f64| {
            outcome
                .results
                .chaos
                .iter()
                .filter(|r| r.ccf_probability == p)
                .map(|r| r.injected_events)
                .sum::<u64>()
        };
        assert!(events_at(1.0) > events_at(0.0));
        let json = sdnav_json::to_string(&outcome.results);
        assert!(json.contains("\"chaos\""));
        assert!(json.contains("\"injected_cp_hours_mean\""));
    }

    #[test]
    fn chaos_rows_are_byte_identical_across_thread_counts() {
        let s = spec();
        let reference = sdnav_json::to_string(&evaluate(&s, &chaos_grid(1)).unwrap().results);
        for threads in [2, 8] {
            let json = sdnav_json::to_string(&evaluate(&s, &chaos_grid(threads)).unwrap().results);
            assert_eq!(json, reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn chaos_cells_run_even_without_figure_replications() {
        let s = spec();
        let grid = GridSpec::builder()
            .figures(&[Figure::Fig3])
            .points(2)
            .threads(1)
            .sim_horizon_hours(2_000.0)
            .sim_accelerate(500.0)
            .chaos_campaign(ccf_campaign())
            .chaos_crew_counts(&[1])
            .chaos_ccf_probabilities(&[1.0])
            .build()
            .unwrap();
        let outcome = evaluate(&s, &grid).unwrap();
        assert!(outcome.results.sim.is_empty());
        assert_eq!(outcome.results.chaos.len(), 2);
        for row in &outcome.results.chaos {
            assert_eq!(row.replications, 1);
        }
    }

    #[test]
    fn builder_rejects_bad_chaos_axes() {
        assert_eq!(
            GridSpec::builder()
                .chaos_campaign(ccf_campaign())
                .chaos_crew_counts(&[])
                .build()
                .unwrap_err(),
            GridError::Spec("chaos crew counts must be non-empty and positive")
        );
        assert_eq!(
            GridSpec::builder()
                .chaos_campaign(ccf_campaign())
                .chaos_ccf_probabilities(&[0.5, 1.5])
                .build()
                .unwrap_err(),
            GridError::Spec("chaos probabilities must be non-empty and in [0, 1]")
        );
        let mut broken = ccf_campaign();
        broken.name.clear();
        assert_eq!(
            GridSpec::builder()
                .chaos_campaign(broken)
                .build()
                .unwrap_err(),
            GridError::Spec("chaos campaign fails validation")
        );
        // Bad axes are fine while no campaign is set.
        assert!(GridSpec::builder().chaos_crew_counts(&[]).build().is_ok());
    }

    fn consensus_grid(threads: usize) -> GridSpec {
        GridSpec::builder()
            .figures(&[Figure::Fig3])
            .points(2)
            .replications(2)
            .threads(threads)
            .sim_horizon_hours(5_000.0)
            .sim_accelerate(500.0)
            .consensus(sdnav_core::ConsensusSpec::raft_defaults())
            .consensus_election_timeouts_ms(&[150.0, 600.0])
            .consensus_cluster_sizes(&[3, 5])
            .consensus_fault_mixes(&[FaultMix::crash_only(1)])
            .build()
            .unwrap()
    }

    #[test]
    fn consensus_axes_produce_cross_validated_rows() {
        let s = spec();
        let outcome = evaluate(&s, &consensus_grid(2)).unwrap();
        // 2 timeouts × 2 cluster sizes × 1 mix.
        assert_eq!(outcome.results.consensus.len(), 4);
        for row in &outcome.results.consensus {
            assert_eq!(row.replications, 2);
            assert!(row.elections > 0, "no failovers in {row:?}");
            // 500× acceleration drops node availability to 0.8, so the
            // cluster lives near 0.9 — loose regime bound only.
            assert!(row.availability.mean > 0.5 && row.availability.mean <= 1.0);
            // DES and CTMC live in the same availability regime.
            assert!(
                (row.availability.mean - row.ctmc_availability).abs() < 0.05,
                "DES {} vs CTMC {} diverged",
                row.availability.mean,
                row.ctmc_availability
            );
        }
        // Larger clusters with the same mix ride out more failures.
        let mean_at = |size: u32| {
            let rows: Vec<_> = outcome
                .results
                .consensus
                .iter()
                .filter(|r| r.cluster_size == size)
                .collect();
            rows.iter().map(|r| r.availability.mean).sum::<f64>() / rows.len() as f64
        };
        assert!(mean_at(5) > mean_at(3));
        let json = sdnav_json::to_string(&outcome.results);
        assert!(json.contains("\"consensus\""));
        assert!(json.contains("\"ctmc_availability\""));
    }

    #[test]
    fn consensus_rows_are_byte_identical_across_thread_counts() {
        let s = spec();
        let reference = sdnav_json::to_string(&evaluate(&s, &consensus_grid(1)).unwrap().results);
        for threads in [2, 8] {
            let json =
                sdnav_json::to_string(&evaluate(&s, &consensus_grid(threads)).unwrap().results);
            assert_eq!(json, reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn no_consensus_base_means_no_consensus_key_in_json() {
        let s = spec();
        let grid = GridSpec::builder().points(2).threads(1).build().unwrap();
        let outcome = evaluate(&s, &grid).unwrap();
        assert!(outcome.results.consensus.is_empty());
        let json = sdnav_json::to_string(&outcome.results);
        assert!(
            !json.contains("\"consensus\""),
            "empty consensus axes must not add a key: {json}"
        );
    }

    #[test]
    fn builder_rejects_bad_consensus_axes() {
        let base = sdnav_core::ConsensusSpec::raft_defaults();
        assert_eq!(
            GridSpec::builder()
                .consensus(base.clone())
                .consensus_election_timeouts_ms(&[])
                .build()
                .unwrap_err(),
            GridError::Spec("consensus election timeouts must be non-empty, finite, and positive")
        );
        assert_eq!(
            GridSpec::builder()
                .consensus(base.clone())
                .consensus_cluster_sizes(&[3, 0])
                .build()
                .unwrap_err(),
            GridError::Spec("consensus cluster sizes must be non-empty and positive")
        );
        let max = sdnav_core::ConsensusSpec::MAX_CLUSTER_SIZE;
        assert!(GridSpec::builder()
            .consensus(base.clone())
            .consensus_cluster_sizes(&[3, max])
            .build()
            .is_ok());
        let err = GridSpec::builder()
            .consensus(base.clone())
            .consensus_cluster_sizes(&[3, max + 1])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            GridError::Spec("consensus cluster sizes must be at most 255 nodes")
        );
        assert!(err.to_string().contains(&format!("at most {max} nodes")));
        assert_eq!(
            GridSpec::builder()
                .consensus(base.clone())
                .consensus_fault_mixes(&[])
                .build()
                .unwrap_err(),
            GridError::Spec("consensus fault mixes must be non-empty")
        );
        let mut broken = base;
        broken.cluster_size = 0;
        assert_eq!(
            GridSpec::builder().consensus(broken).build().unwrap_err(),
            GridError::Spec("consensus base spec fails validation")
        );
        // Bad axes are fine while no base spec is set.
        assert!(GridSpec::builder()
            .consensus_fault_mixes(&[])
            .build()
            .is_ok());
    }

    #[test]
    fn figures_deduplicate_but_keep_order() {
        let grid = GridSpec::builder()
            .figures(&[Figure::Fig5, Figure::Fig3, Figure::Fig5])
            .build()
            .unwrap();
        assert_eq!(grid.figures, vec![Figure::Fig5, Figure::Fig3]);
    }

    #[test]
    fn results_json_carries_schema_and_rows() {
        let s = spec();
        let grid = GridSpec::builder().points(2).threads(1).build().unwrap();
        let outcome = evaluate(&s, &grid).unwrap();
        let json = sdnav_json::to_string(&outcome.results);
        assert!(json.contains("sdnav-sweep-results/v1"));
        assert!(json.contains("\"fig3\""));
        assert!(json.contains("\"a_c\""));
        let metrics_json = sdnav_json::to_string(&outcome.metrics);
        assert!(metrics_json.contains("sdnav-sweep-metrics/v1"));
    }
}
