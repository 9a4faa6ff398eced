//! Survive-or-attribute verdict over a generated campaign run
//! (`sdnav chaos run --verdict`).
//!
//! The gate holds the simulation to the FMEA's prediction records: after
//! running the generated campaign, the control plane must either
//! **survive** — its availability stays inside the 95% confidence
//! interval of an uninjected baseline over the same seeds — or every
//! excess outage must be **100% attributed** to the injected elements by
//! the [`AttributionLedger`]: adding the injection-attributed downtime
//! back must land the availability inside the same baseline interval.
//!
//! Per mode, the attribution must also be *clean*: every outage (CP) or
//! down-window (DP) whose root cause is one of the mode's injections must
//! start inside that mode's window, and no outage inside a window may be
//! root-caused to a different mode's injection. Organic outages are
//! background noise and are judged only through the baseline interval.
//! Anything else — cross-mode interference, injection effects leaking
//! outside their window, an unexplained availability deficit — is a
//! [`VerdictReport::violations`] entry and a hard failure.

use sdnav_json::{schema, Envelope, Json, ToJson};
use sdnav_sim::{Simulation, Welford};

use crate::generate::GeneratedCampaign;
use crate::{compile, Cause, CompileError};

/// Knobs for [`verdict`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictConfig {
    /// Baseline (uninjected) replications used to estimate the
    /// no-injection availability interval.
    pub replications: usize,
    /// Two-sided confidence multiplier (1.96 ≈ 95%).
    pub z: f64,
}

impl Default for VerdictConfig {
    fn default() -> Self {
        VerdictConfig {
            replications: 5,
            z: 1.96,
        }
    }
}

/// How one injected mode fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeVerdict {
    /// No CP outage was attributed to the mode's injections — the plane
    /// rode the injections out.
    Survived,
    /// The mode took the plane down and the ledger attributes the outage
    /// to its injections, inside its window.
    Attributed,
}

impl ModeVerdict {
    /// The JSON spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ModeVerdict::Survived => "survived",
            ModeVerdict::Attributed => "attributed",
        }
    }
}

/// Per-mode verdict record.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeOutcome {
    /// The expectation's mode label.
    pub label: String,
    /// Survive-or-attribute outcome.
    pub verdict: ModeVerdict,
    /// CP outage hours root-caused to this mode's injections.
    pub attributed_cp_hours: f64,
    /// CP outages root-caused to this mode's injections.
    pub attributed_cp_outages: usize,
    /// DP down-host-window hours caused by this mode's injections.
    pub attributed_dp_hours: f64,
    /// Did the plane the FMEA predicted actually register attributed
    /// downtime (informational — a probability-1 injection of a predicted
    /// CP cut should down the CP)?
    pub impact_confirmed: bool,
}

impl ToJson for ModeOutcome {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::str(self.label.clone())),
            ("verdict", Json::str(self.verdict.name())),
            ("attributed_cp_hours", Json::Num(self.attributed_cp_hours)),
            (
                "attributed_cp_outages",
                self.attributed_cp_outages.to_json(),
            ),
            ("attributed_dp_hours", Json::Num(self.attributed_dp_hours)),
            ("impact_confirmed", Json::Bool(self.impact_confirmed)),
        ])
    }
}

/// The full verdict over one injected run: the
/// `sdnav-chaos-verdict/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictReport {
    /// Campaign name.
    pub campaign: String,
    /// Baseline replications.
    pub replications: usize,
    /// Baseline mean CP availability over the uninjected runs.
    pub baseline_mean: f64,
    /// Half-width of the baseline interval (z · predictive sd).
    pub baseline_half_width: f64,
    /// Injected-run CP availability.
    pub cp_availability: f64,
    /// CP availability with the injection-attributed downtime added back.
    pub adjusted_cp_availability: f64,
    /// Total CP outage hours root-caused to injections.
    pub attributed_cp_hours: f64,
    /// Measured horizon of the injected run.
    pub simulated_hours: f64,
    /// Whether the raw availability already sat inside the baseline
    /// interval (the plane survived the whole campaign).
    pub survived: bool,
    /// Per-mode outcomes, in window order.
    pub modes: Vec<ModeOutcome>,
    /// Hard failures. Empty ⇔ the verdict passes.
    pub violations: Vec<String>,
}

impl VerdictReport {
    /// Did the gate pass?
    #[must_use]
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }

    /// The `sdnav-chaos-verdict/v1` document.
    #[must_use]
    pub fn to_doc(&self) -> Json {
        Envelope::wrap(
            schema::CHAOS_VERDICT,
            vec![
                ("campaign", Json::str(self.campaign.clone())),
                ("pass", Json::Bool(self.pass())),
                ("survived", Json::Bool(self.survived)),
                (
                    "baseline",
                    Json::obj(vec![
                        ("replications", self.replications.to_json()),
                        ("mean_cp_availability", Json::Num(self.baseline_mean)),
                        ("half_width", Json::Num(self.baseline_half_width)),
                    ]),
                ),
                (
                    "injected",
                    Json::obj(vec![
                        ("cp_availability", Json::Num(self.cp_availability)),
                        (
                            "adjusted_cp_availability",
                            Json::Num(self.adjusted_cp_availability),
                        ),
                        ("attributed_cp_hours", Json::Num(self.attributed_cp_hours)),
                        ("simulated_hours", Json::Num(self.simulated_hours)),
                    ]),
                ),
                ("modes", self.modes.to_json()),
                (
                    "violations",
                    Json::Arr(
                        self.violations
                            .iter()
                            .map(|v| Json::str(v.clone()))
                            .collect(),
                    ),
                ),
            ],
        )
    }
}

/// Runs the survive-or-attribute gate for `generated` on `sim` at `seed`.
///
/// Baseline replications run uninjected at `seed, seed+1, …` (wrapping
/// past `u64::MAX`); the injected run uses `seed` itself, so the
/// comparison is paired on the first replication's event stream.
///
/// # Errors
///
/// Propagates [`CompileError`] when the campaign does not resolve against
/// the simulation.
pub fn verdict(
    sim: &Simulation<'_>,
    generated: &GeneratedCampaign,
    seed: u64,
    config: &VerdictConfig,
) -> Result<VerdictReport, CompileError> {
    let campaign = &generated.campaign;
    let plan = compile(campaign, sim)?;

    // Baseline interval: mean ± z·sd·√(1 + 1/R), the predictive interval
    // for one further uninjected run.
    let replications = config.replications.max(2);
    let mut baseline = Welford::new();
    for r in 0..replications {
        baseline.push(sim.run(seed.wrapping_add(r as u64)).cp_availability);
    }
    let mean = baseline.mean();
    let sd = baseline.sample_variance().sqrt();
    // Floor the interval at 1e-9 availability (≈ 0.1 ms/day): below that,
    // the comparison would be judging last-ulp float accumulation, not
    // outage accounting.
    let half_width = (config.z * sd * (1.0 + 1.0 / replications as f64).sqrt()).max(1e-9);

    let result = sim.run_injected(seed, &plan);
    let ledger = result.ledger.as_ref().expect("injected run has a ledger");

    // Injection index → owning mode (expectation index), via labels.
    let owner: Vec<Option<usize>> = campaign
        .injections
        .iter()
        .map(|inj| {
            generated
                .expectations
                .iter()
                .position(|e| e.injection_labels.contains(&inj.label))
        })
        .collect();

    let mut violations = Vec::new();
    let mut attributed_cp_hours = vec![0.0; generated.expectations.len()];
    let mut attributed_cp_outages = vec![0usize; generated.expectations.len()];
    let mut attributed_dp_hours = vec![0.0; generated.expectations.len()];

    for outage in &ledger.cp_outages {
        let Cause::Injection(injection) = outage.root_cause else {
            // Organic background: judged only through the baseline CI.
            continue;
        };
        let label = &campaign.injections[injection].label;
        match owner.get(injection).copied().flatten() {
            None => violations.push(format!(
                "CP outage at {:.2} h is root-caused to non-mode injection {label:?}",
                outage.start
            )),
            Some(mode) => {
                let exp = &generated.expectations[mode];
                if outage.start < exp.window_start_hours || outage.start >= exp.window_end_hours {
                    violations.push(format!(
                        "{}: injection {label:?} caused a CP outage at {:.2} h, outside \
                         its window [{:.0}, {:.0})",
                        exp.label, outage.start, exp.window_start_hours, exp.window_end_hours
                    ));
                } else {
                    attributed_cp_hours[mode] += outage.duration();
                    attributed_cp_outages[mode] += 1;
                }
                // Cross-mode interference: a contributor from another
                // mode inside this outage means the stagger failed.
                for contributor in &outage.contributors {
                    let Cause::Injection(other) = contributor else {
                        continue;
                    };
                    if let Some(other_mode) = owner.get(*other).copied().flatten() {
                        if other_mode != mode {
                            violations.push(format!(
                                "CP outage at {:.2} h mixes injections of {} and {}",
                                outage.start,
                                generated.expectations[mode].label,
                                generated.expectations[other_mode].label
                            ));
                        }
                    }
                }
            }
        }
    }

    for window in &ledger.dp_windows {
        let Cause::Injection(injection) = window.cause else {
            continue;
        };
        let label = &campaign.injections[injection].label;
        match owner.get(injection).copied().flatten() {
            None => violations.push(format!(
                "DP window on host {} at {:.2} h is caused by non-mode injection {label:?}",
                window.host, window.start
            )),
            Some(mode) => {
                let exp = &generated.expectations[mode];
                if window.start < exp.window_start_hours || window.start >= exp.window_end_hours {
                    violations.push(format!(
                        "{}: injection {label:?} downed host {} DP at {:.2} h, outside \
                         its window [{:.0}, {:.0})",
                        exp.label,
                        window.host,
                        window.start,
                        exp.window_start_hours,
                        exp.window_end_hours
                    ));
                } else {
                    attributed_dp_hours[mode] += window.duration();
                }
            }
        }
    }

    let total_attributed: f64 = ledger
        .cp_hours_by_cause()
        .iter()
        .skip(1) // slot 0 is organic
        .sum();
    // Availability is time-averaged over the post-warmup measured window,
    // not the full horizon — add attributed downtime back on that basis.
    let measured_hours = sim.config().horizon_hours * (1.0 - sim.config().warmup_fraction);
    let adjusted = result.cp_availability + total_attributed / measured_hours;
    let survived = (result.cp_availability - mean).abs() <= half_width;
    if !survived && (adjusted - mean).abs() > half_width {
        violations.push(format!(
            "availability deficit is not fully attributed: injected {:.9}, attributed-adjusted \
             {:.9}, baseline {:.9} ± {:.2e}",
            result.cp_availability, adjusted, mean, half_width
        ));
    }

    let modes = generated
        .expectations
        .iter()
        .enumerate()
        .map(|(index, exp)| {
            let cp_hit = attributed_cp_outages[index] > 0;
            let dp_hit = attributed_dp_hours[index] > 0.0;
            let impact_confirmed =
                (!exp.impact.hits_cp() || cp_hit) && (!exp.impact.hits_dp() || dp_hit);
            ModeOutcome {
                label: exp.label.clone(),
                verdict: if cp_hit || dp_hit {
                    ModeVerdict::Attributed
                } else {
                    ModeVerdict::Survived
                },
                attributed_cp_hours: attributed_cp_hours[index],
                attributed_cp_outages: attributed_cp_outages[index],
                attributed_dp_hours: attributed_dp_hours[index],
                impact_confirmed,
            }
        })
        .collect();

    Ok(VerdictReport {
        campaign: campaign.name.clone(),
        replications,
        baseline_mean: mean,
        baseline_half_width: half_width,
        cp_availability: result.cp_availability,
        adjusted_cp_availability: adjusted,
        attributed_cp_hours: total_attributed,
        simulated_hours: result.simulated_hours,
        survived,
        modes,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GenerateConfig};
    use sdnav_core::{ControllerSpec, Scenario, SwParams, Topology};
    use sdnav_fmea::Deployment;
    use sdnav_sim::SimConfig;

    fn sim_config() -> SimConfig {
        let mut config = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        config.horizon_hours = 20_000.0;
        config
    }

    #[test]
    fn generated_small_campaign_passes_the_gate() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let d = Deployment::new(
            &spec,
            &topo,
            SwParams::paper_defaults(),
            Scenario::SupervisorNotRequired,
        );
        let generated = generate(
            &d,
            &GenerateConfig {
                top_k: 3,
                ..GenerateConfig::default()
            },
        )
        .unwrap();
        let sim = Simulation::try_new(&spec, &topo, sim_config()).unwrap();
        let report = verdict(&sim, &generated, 7, &VerdictConfig::default()).unwrap();
        assert!(report.pass(), "violations: {:?}", report.violations);
        assert!(
            report
                .modes
                .iter()
                .any(|m| m.verdict == ModeVerdict::Attributed),
            "probability-1 injections of CP cuts must register attributed downtime"
        );
        assert_eq!(report.modes.len(), generated.expectations.len());
        // The doc round-trips through the envelope check.
        let doc = report.to_doc();
        assert!(Envelope::expect(schema::CHAOS_VERDICT, &doc).is_ok());

        // The largest seed wraps to 0 for the second baseline replication.
        let report = verdict(&sim, &generated, u64::MAX, &VerdictConfig::default()).unwrap();
        assert!(report.pass(), "violations: {:?}", report.violations);
        assert_eq!(report.modes.len(), generated.expectations.len());
    }

    #[test]
    fn leaked_attribution_is_a_violation() {
        // Shrink a generated campaign's windows after the fact so its own
        // injections now fall outside them: the gate must fail.
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let d = Deployment::new(
            &spec,
            &topo,
            SwParams::paper_defaults(),
            Scenario::SupervisorNotRequired,
        );
        let mut generated = generate(
            &d,
            &GenerateConfig {
                top_k: 2,
                ..GenerateConfig::default()
            },
        )
        .unwrap();
        for exp in &mut generated.expectations {
            exp.window_start_hours += 500.0;
            exp.window_end_hours += 500.0;
        }
        let sim = Simulation::try_new(&spec, &topo, sim_config()).unwrap();
        let report = verdict(&sim, &generated, 7, &VerdictConfig::default()).unwrap();
        assert!(!report.pass());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("outside its window")));
    }
}
