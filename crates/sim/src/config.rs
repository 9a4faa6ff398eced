//! Simulation configuration.

use std::error::Error;
use std::fmt;

use sdnav_core::{Component, Scenario};

/// A nonsensical [`SimConfig`] value.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A time or rate that must be strictly positive is not (field name
    /// in human-readable form, e.g. `process MTBF`).
    NonPositive(&'static str),
    /// A value that must be finite is infinite (field name in
    /// human-readable form, e.g. `horizon`).
    NonFinite(&'static str),
    /// `warmup_fraction` outside `[0, 1)`.
    BadWarmupFraction(f64),
    /// An availability outside `(0, 1]` (or NaN).
    BadAvailability(f64),
    /// Fewer than two batches — no batch-means confidence interval.
    TooFewBatches(usize),
    /// No compute hosts to carry vRouters.
    NoComputeHosts,
    /// A rack, host or VM MTTR that is negative or not finite (element
    /// class in human-readable form, e.g. `VM`, and the rejected value).
    BadMttr(&'static str, f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive(what) => write!(f, "{what} must be positive"),
            ConfigError::NonFinite(what) => write!(f, "{what} must be finite"),
            ConfigError::BadWarmupFraction(v) => {
                write!(f, "warmup fraction must be in [0, 1), got {v}")
            }
            ConfigError::BadAvailability(v) => {
                write!(f, "availability must be in (0, 1], got {v}")
            }
            ConfigError::TooFewBatches(_) => write!(f, "need at least two batches"),
            ConfigError::NoComputeHosts => write!(f, "need at least one compute host"),
            ConfigError::BadMttr(what, v) => {
                write!(f, "{what} MTTR must be finite and non-negative, got {v}")
            }
        }
    }
}

impl Error for ConfigError {}

impl From<ConfigError> for sdnav_core::SdnavError {
    fn from(e: ConfigError) -> Self {
        sdnav_core::SdnavError::model(e.to_string())
    }
}

/// MTBF/MTTR pair for a hardware element class, in hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementRates {
    /// Mean time between failures.
    pub mtbf: f64,
    /// Mean time to restore.
    pub mttr: f64,
}

impl ElementRates {
    /// Steady-state availability `MTBF/(MTBF+MTTR)`.
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.mtbf / (self.mtbf + self.mttr)
    }

    /// Rates with a given availability at a fixed MTBF
    /// (`MTTR = MTBF·(1−A)/A`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NonPositive`] if `mtbf` is not positive and
    /// [`ConfigError::BadAvailability`] if `availability` is outside
    /// `(0, 1]`.
    pub fn try_from_availability(mtbf: f64, availability: f64) -> Result<Self, ConfigError> {
        if mtbf.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ConfigError::NonPositive("MTBF"));
        }
        if !(availability > 0.0 && availability <= 1.0) {
            return Err(ConfigError::BadAvailability(availability));
        }
        Ok(ElementRates {
            mtbf,
            mttr: mtbf * (1.0 - availability) / availability,
        })
    }

    /// Shrinks both MTBF and MTTR by `factor`: the steady-state
    /// availability is unchanged but failure/repair cycles run `factor`×
    /// faster. Useful for statistically efficient validation runs when the
    /// element's outages are long and rare (e.g. multi-day rack events),
    /// whose raw lumpy statistics would dominate the estimator variance.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn scaled_time(self, factor: f64) -> Self {
        assert!(factor > 0.0, "factor must be positive");
        ElementRates {
            mtbf: self.mtbf / factor,
            mttr: self.mttr / factor,
        }
    }
}

/// The shape of repair/restart time distributions.
///
/// Steady-state availability of an alternating-renewal component depends
/// only on the *mean* up and down times, not the distribution shapes (the
/// classic insensitivity property) — which is why the paper can work with
/// `A = F/(F+R)` without distributional assumptions. The simulator makes
/// that property checkable: switch the shape and watch the long-run
/// availabilities stay put while transient metrics (outage-duration
/// percentiles) move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairShape {
    /// Exponential with the configured mean (memoryless).
    #[default]
    Exponential,
    /// Deterministic: exactly the configured mean.
    Deterministic,
    /// Uniform on `[0.5·mean, 1.5·mean]`.
    Uniform,
}

/// How a failed auto-restart process's restart time is chosen when its
/// supervisor happens to be down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartModel {
    /// §III's letter: "any process failures within that node-role require
    /// manual restart" while the supervisor is down — restart takes `R_S`
    /// instead of `R`. This couples process repair times to supervisor
    /// state; the effect is `O((1−A_S)·(R_S−R)/F)`, invisible at the
    /// paper's rates but measurable under acceleration.
    Faithful,
    /// The independence assumption the analytic models make: auto
    /// processes always restart in `R`. Use this when validating the
    /// closed forms at accelerated rates.
    AnalyticIndependence,
}

/// How vrouter-agent ↔ Control-node connectivity is modeled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConnectionModel {
    /// The analytic simplification: a host's shared DP is up whenever *any*
    /// Control node has its full `{control+dns+named}` block up
    /// (rediscovery is instantaneous). Matches [`sdnav_core::SwModel`].
    Analytic,
    /// The §III dynamics: each agent holds connections to two Control
    /// nodes; when both connected nodes lose their block, the host drops
    /// packets until rediscovery completes.
    Failover {
        /// Mean rediscovery delay in hours (the paper: "typically within a
        /// minute" ≈ 1/60 h).
        rediscovery_hours: f64,
    },
}

/// Full simulation configuration. All times in hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Supervisor mode of operation.
    pub scenario: Scenario,
    /// Process mean time between failures, `F`.
    pub process_mtbf: f64,
    /// Auto-restart time, `R`.
    pub auto_restart: f64,
    /// Manual restart time, `R_S`.
    pub manual_restart: f64,
    /// Scenario-1 supervisor maintenance window `W`: a dead supervisor is
    /// restarted (hitlessly) this long after failing.
    pub supervisor_window: f64,
    /// Rack failure/repair rates.
    pub rack: ElementRates,
    /// Host failure/repair rates.
    pub host: ElementRates,
    /// VM failure/repair rates.
    pub vm: ElementRates,
    /// Number of simulated compute hosts carrying vRouters.
    pub compute_hosts: usize,
    /// Connection model for the vRouter data plane.
    pub connection: ConnectionModel,
    /// Restart-time semantics for unsupervised auto processes.
    pub restart_model: RestartModel,
    /// Distribution shape of every repair/restart time (failure times stay
    /// exponential).
    pub repair_shape: RepairShape,
    /// Simulated horizon in hours.
    pub horizon_hours: f64,
    /// Initial fraction of the horizon discarded as warm-up.
    pub warmup_fraction: f64,
    /// Number of batches for batch-means confidence intervals.
    pub batches: usize,
}

impl SimConfig {
    /// The paper's §VI.A defaults: `F = 5000 h`, `R = 0.1 h`, `R_S = 1 h`,
    /// `W = 10 h`; hardware rates chosen so the steady-state availabilities
    /// equal the paper's (`A_V = 0.99995`, `A_H = 0.99990`,
    /// `A_R = 0.99999`) at field-realistic MTBFs (host ≈ 5 years, rack
    /// failure lasting two days, VM ≈ 2 months).
    #[must_use]
    pub fn paper_defaults(scenario: Scenario) -> Self {
        SimConfig {
            scenario,
            process_mtbf: 5000.0,
            auto_restart: 0.1,
            manual_restart: 1.0,
            supervisor_window: 10.0,
            // Rack: 48 h to deliver and re-rack; MTBF follows from A_R.
            rack: ElementRates {
                mtbf: 48.0 * 0.99999 / (1.0 - 0.99999),
                mttr: 48.0,
            },
            // Host: 5-year MTBF (§V.D, [16]); MTTR follows from A_H.
            host: ElementRates::try_from_availability(5.0 * 8766.0, 0.99990)
                .expect("paper defaults are valid"),
            // VM: 1440 h (~2 months) MTBF; MTTR follows from A_V.
            vm: ElementRates::try_from_availability(1440.0, 0.99995)
                .expect("paper defaults are valid"),
            compute_hosts: 6,
            connection: ConnectionModel::Analytic,
            restart_model: RestartModel::Faithful,
            repair_shape: RepairShape::Exponential,
            horizon_hours: 1_000_000.0,
            warmup_fraction: 0.05,
            batches: 20,
        }
    }

    /// A configuration with all failure rates inflated by `factor` (repair
    /// times unchanged), useful for statistically efficient validation runs:
    /// unavailability scales ≈ linearly with `factor` while event counts
    /// grow, so analytic-vs-simulated comparisons converge quickly.
    ///
    /// The scenario-1 supervisor maintenance window is scaled *down* by the
    /// same factor: the paper's analysis rests on `W ≪ F` ("process
    /// availability A is not measurably impacted"), and keeping `W` fixed
    /// while shrinking `F` would leave supervisors down a macroscopic
    /// fraction of the time — a different regime than the one being
    /// validated. (The simulator *can* explore that regime: set
    /// `supervisor_window` explicitly after accelerating.)
    #[must_use]
    pub fn accelerated(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "factor must be positive");
        self.process_mtbf /= factor;
        self.rack.mtbf /= factor;
        self.host.mtbf /= factor;
        self.vm.mtbf /= factor;
        self.supervisor_window /= factor;
        self
    }

    /// The equivalent analytic parameter set (steady-state availabilities
    /// implied by these rates), for sim-vs-model comparisons.
    #[must_use]
    pub fn analytic_params(&self) -> sdnav_core::SwParams {
        sdnav_core::SwParams {
            process: sdnav_core::ProcessParams {
                auto: self.process_mtbf / (self.process_mtbf + self.auto_restart),
                manual: self.process_mtbf / (self.process_mtbf + self.manual_restart),
            },
            a_v: self.vm.availability(),
            a_h: self.host.availability(),
            a_r: self.rack.availability(),
        }
    }

    /// Mean time to the next failure of a simulated element: its class's
    /// MTBF, over its downtime factor for a process.
    #[must_use]
    pub fn mtbf(&self, component: Component) -> f64 {
        match component {
            Component::Rack => self.rack.mtbf,
            Component::Host => self.host.mtbf,
            Component::Vm => self.vm.mtbf,
            Component::Process(p) => self.process_mtbf / p.downtime_factor.max(1e-12),
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] of [`SimConfig::violations`].
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Every nonsensical value, in check order (empty, with nothing
    /// allocated, for a valid config).
    #[must_use]
    pub fn violations(&self) -> Vec<ConfigError> {
        let mut out = Vec::new();
        let positives = [
            (self.process_mtbf, "process MTBF"),
            (self.auto_restart, "auto restart"),
            (self.manual_restart, "manual restart"),
            (self.supervisor_window, "window"),
            (self.horizon_hours, "horizon"),
            (self.rack.mtbf, "rack MTBF"),
            (self.host.mtbf, "host MTBF"),
            (self.vm.mtbf, "VM MTBF"),
        ];
        for (value, what) in positives {
            // NaN must fail too, so compare via the negation of `> 0`.
            if value.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                out.push(ConfigError::NonPositive(what));
            }
        }
        // The event loop runs until the horizon, so it must be reachable
        // (NaN and -inf already failed the positivity check above).
        if self.horizon_hours == f64::INFINITY {
            out.push(ConfigError::NonFinite("horizon"));
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            out.push(ConfigError::BadWarmupFraction(self.warmup_fraction));
        }
        if self.batches < 2 {
            out.push(ConfigError::TooFewBatches(self.batches));
        }
        if self.compute_hosts == 0 {
            out.push(ConfigError::NoComputeHosts);
        }
        if let ConnectionModel::Failover { rediscovery_hours } = self.connection {
            if rediscovery_hours.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                out.push(ConfigError::NonPositive("rediscovery"));
            }
        }
        // A NaN or negative repair time never completes a repair event.
        for (rates, element) in [(self.rack, "rack"), (self.host, "host"), (self.vm, "VM")] {
            if !rates.mttr.is_finite() || rates.mttr < 0.0 {
                out.push(ConfigError::BadMttr(element, rates.mttr));
            }
        }
        out
    }

    /// Starts a builder seeded with [`SimConfig::paper_defaults`] for the
    /// given scenario. [`SimConfigBuilder::build`] re-validates, so a
    /// config that parses is a config that runs:
    ///
    /// ```
    /// use sdnav_core::Scenario;
    /// use sdnav_sim::SimConfig;
    ///
    /// let config = SimConfig::builder(Scenario::SupervisorNotRequired)
    ///     .horizon_hours(50_000.0)
    ///     .accelerate(100.0)
    ///     .compute_hosts(3)
    ///     .build()
    ///     .expect("valid config");
    /// assert_eq!(config.compute_hosts, 3);
    /// ```
    pub fn builder(scenario: Scenario) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::paper_defaults(scenario),
            accelerate: 1.0,
        }
    }
}

/// Step-by-step construction of a validated [`SimConfig`].
///
/// Starts from the paper's defaults (via [`SimConfig::builder`]); every
/// setter overrides one field and [`SimConfigBuilder::build`] runs
/// [`SimConfig::try_validate`], so call sites cannot obtain an invalid
/// config without handling the error.
#[derive(Debug, Clone, Copy)]
#[must_use = "call `.build()` to obtain the validated SimConfig"]
pub struct SimConfigBuilder {
    config: SimConfig,
    accelerate: f64,
}

impl SimConfigBuilder {
    /// Sets the process MTBF `F` in hours.
    pub fn process_mtbf(mut self, hours: f64) -> Self {
        self.config.process_mtbf = hours;
        self
    }

    /// Sets the auto-restart time `R` in hours.
    pub fn auto_restart(mut self, hours: f64) -> Self {
        self.config.auto_restart = hours;
        self
    }

    /// Sets the manual restart time `R_S` in hours.
    pub fn manual_restart(mut self, hours: f64) -> Self {
        self.config.manual_restart = hours;
        self
    }

    /// Sets the scenario-1 supervisor maintenance window `W` in hours.
    pub fn supervisor_window(mut self, hours: f64) -> Self {
        self.config.supervisor_window = hours;
        self
    }

    /// Sets the rack failure/repair rates.
    pub fn rack(mut self, rates: ElementRates) -> Self {
        self.config.rack = rates;
        self
    }

    /// Sets the host failure/repair rates.
    pub fn host(mut self, rates: ElementRates) -> Self {
        self.config.host = rates;
        self
    }

    /// Sets the VM failure/repair rates.
    pub fn vm(mut self, rates: ElementRates) -> Self {
        self.config.vm = rates;
        self
    }

    /// Sets the number of simulated compute hosts.
    pub fn compute_hosts(mut self, hosts: usize) -> Self {
        self.config.compute_hosts = hosts;
        self
    }

    /// Sets the vRouter connection model.
    pub fn connection(mut self, model: ConnectionModel) -> Self {
        self.config.connection = model;
        self
    }

    /// Sets the restart-time semantics for unsupervised auto processes.
    pub fn restart_model(mut self, model: RestartModel) -> Self {
        self.config.restart_model = model;
        self
    }

    /// Sets the repair/restart time distribution shape.
    pub fn repair_shape(mut self, shape: RepairShape) -> Self {
        self.config.repair_shape = shape;
        self
    }

    /// Sets the simulated horizon in hours.
    pub fn horizon_hours(mut self, hours: f64) -> Self {
        self.config.horizon_hours = hours;
        self
    }

    /// Sets the warm-up fraction in `[0, 1)`.
    pub fn warmup_fraction(mut self, fraction: f64) -> Self {
        self.config.warmup_fraction = fraction;
        self
    }

    /// Sets the number of batch-means batches (≥ 2).
    pub fn batches(mut self, batches: usize) -> Self {
        self.config.batches = batches;
        self
    }

    /// Inflates all failure rates by `factor` (applied once at build time;
    /// see [`SimConfig::accelerated`]).
    pub fn accelerate(mut self, factor: f64) -> Self {
        self.accelerate = factor;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found (including a non-positive
    /// acceleration factor, reported as `NonPositive("acceleration")`).
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        if self.accelerate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ConfigError::NonPositive("acceleration"));
        }
        let config = if self.accelerate == 1.0 {
            self.config
        } else {
            self.config.accelerated(self.accelerate)
        };
        config.try_validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_recover_paper_availabilities() {
        let c = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        let p = c.analytic_params();
        assert!((p.process.auto - 0.99998).abs() < 1e-7);
        assert!((p.process.manual - 0.9998).abs() < 1e-6);
        assert!((p.a_v - 0.99995).abs() < 1e-10);
        assert!((p.a_h - 0.99990).abs() < 1e-10);
        assert!((p.a_r - 0.99999).abs() < 1e-10);
    }

    #[test]
    fn from_availability_round_trips() {
        let r = ElementRates::try_from_availability(1000.0, 0.999).unwrap();
        assert!((r.availability() - 0.999).abs() < 1e-12);
    }

    #[test]
    fn try_from_availability_rejects_bad_inputs() {
        assert_eq!(
            ElementRates::try_from_availability(0.0, 0.5),
            Err(ConfigError::NonPositive("MTBF"))
        );
        assert_eq!(
            ElementRates::try_from_availability(100.0, 0.0),
            Err(ConfigError::BadAvailability(0.0))
        );
        assert_eq!(
            ElementRates::try_from_availability(100.0, 1.5),
            Err(ConfigError::BadAvailability(1.5))
        );
        assert!(ElementRates::try_from_availability(100.0, f64::NAN).is_err());
    }

    #[test]
    fn builder_defaults_match_paper_defaults() {
        let built = SimConfig::builder(Scenario::SupervisorRequired)
            .build()
            .unwrap();
        assert_eq!(
            built,
            SimConfig::paper_defaults(Scenario::SupervisorRequired)
        );
    }

    #[test]
    fn builder_applies_overrides_and_acceleration() {
        let built = SimConfig::builder(Scenario::SupervisorNotRequired)
            .horizon_hours(10_000.0)
            .accelerate(100.0)
            .compute_hosts(2)
            .batches(10)
            .build()
            .unwrap();
        let by_hand = SimConfig::paper_defaults(Scenario::SupervisorNotRequired).accelerated(100.0);
        assert_eq!(built.process_mtbf, by_hand.process_mtbf);
        assert_eq!(built.horizon_hours, 10_000.0);
        assert_eq!(built.compute_hosts, 2);
        assert_eq!(built.batches, 10);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let err = SimConfig::builder(Scenario::SupervisorNotRequired)
            .batches(1)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::TooFewBatches(1));

        let err = SimConfig::builder(Scenario::SupervisorNotRequired)
            .accelerate(0.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::NonPositive("acceleration"));

        let err = SimConfig::builder(Scenario::SupervisorNotRequired)
            .horizon_hours(-1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::NonPositive("horizon"));
    }

    #[test]
    fn scaled_time_preserves_availability() {
        let r = ElementRates {
            mtbf: 4800.0,
            mttr: 48.0,
        };
        let fast = r.scaled_time(24.0);
        assert!((fast.availability() - r.availability()).abs() < 1e-15);
        assert_eq!(fast.mttr, 2.0);
    }

    #[test]
    fn accelerated_scales_unavailability_roughly_linearly() {
        let c = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        let fast = c.accelerated(10.0);
        let u0 = 1.0 - c.analytic_params().process.auto;
        let u1 = 1.0 - fast.analytic_params().process.auto;
        assert!((u1 / u0 - 10.0).abs() < 0.01);
    }

    #[test]
    fn try_validate_reports_problems() {
        let good = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        assert!(good.try_validate().is_ok());

        let mut c = good;
        c.batches = 1;
        assert_eq!(c.try_validate(), Err(ConfigError::TooFewBatches(1)));

        let mut c = good;
        c.warmup_fraction = 1.0;
        assert_eq!(c.try_validate(), Err(ConfigError::BadWarmupFraction(1.0)));

        let mut c = good;
        c.compute_hosts = 0;
        assert_eq!(c.try_validate(), Err(ConfigError::NoComputeHosts));

        let mut c = good;
        c.process_mtbf = 0.0;
        assert_eq!(
            c.try_validate().unwrap_err().to_string(),
            "process MTBF must be positive"
        );

        let mut c = good;
        c.horizon_hours = f64::INFINITY;
        assert_eq!(c.try_validate(), Err(ConfigError::NonFinite("horizon")));
        assert_eq!(
            c.try_validate().unwrap_err().to_string(),
            "horizon must be finite"
        );

        let mut c = good;
        c.connection = ConnectionModel::Failover {
            rediscovery_hours: 0.0,
        };
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::NonPositive("rediscovery"))
        );
    }

    #[test]
    fn try_validate_rejects_bad_element_mttrs() {
        for mttr in [f64::NAN, -48.0, f64::INFINITY] {
            let mut c = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
            c.host.mttr = mttr;
            match c.try_validate() {
                Err(ConfigError::BadMttr("host", value)) => {
                    assert_eq!(value.to_bits(), mttr.to_bits());
                }
                other => panic!("host MTTR {mttr}: {other:?}"),
            }
        }
        // An instant repair is a valid MTTR.
        let mut c = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        c.rack.mttr = 0.0;
        assert_eq!(c.try_validate(), Ok(()));
    }

    #[test]
    fn violations_lists_every_problem_in_check_order() {
        let mut c = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        assert!(c.violations().is_empty());
        c.vm.mttr = -1.0;
        c.compute_hosts = 0;
        c.batches = 1;
        assert_eq!(
            c.violations(),
            vec![
                ConfigError::TooFewBatches(1),
                ConfigError::NoComputeHosts,
                ConfigError::BadMttr("VM", -1.0),
            ]
        );
        assert_eq!(c.try_validate(), Err(ConfigError::TooFewBatches(1)));
    }

    #[test]
    fn try_validate_rejects_single_batch() {
        let mut c = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        c.batches = 1;
        let e = c.try_validate().unwrap_err();
        assert!(e.to_string().contains("two batches"), "{e}");
    }

    #[test]
    fn try_from_availability_rejects_zero() {
        assert_eq!(
            ElementRates::try_from_availability(1000.0, 0.0),
            Err(ConfigError::BadAvailability(0.0))
        );
    }
}
