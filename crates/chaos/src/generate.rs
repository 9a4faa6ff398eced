//! FMEA-driven campaign generation (`sdnav chaos generate`).
//!
//! [`generate`] compiles the top-K control-plane and data-plane dominant
//! failure modes of a [`Deployment`] into one injection campaign:
//!
//! * each mode gets its own **staggered window** (`start + i·spacing`)
//!   with the repair time far shorter than the spacing, so modes cannot
//!   interact and the campaign is clean under the SA027 overlap lint by
//!   construction;
//! * a multi-element mode becomes **simultaneous `fail` injections** (one
//!   per element, fired at the same instant) so the minimal cut actually
//!   trips instead of being repaired element by element;
//! * a rack-rooted mode becomes a **`common_cause` group** — the rack as
//!   trigger, its hosts as members at probability 1 — modeling the
//!   correlated host damage a rack loss implies;
//! * the optional **stress variant** starves the repair-crew pool (one
//!   FIFO crew) and arms a latent fault on every controller process the
//!   selected modes touch, so failovers land on damaged spares.
//!
//! Alongside the campaign, [`generate`] records one [`ModeExpectation`]
//! per mode: the FMEA's prediction (which plane goes down, at what
//! probability, inside which window) that the survive-or-attribute
//! verdict (`sdnav chaos run --verdict`) later checks the run against.
//!
//! The campaign seed is derived from the campaign's own identity (FNV-1a
//! over the name, finalized with SplitMix64), so regenerating the same
//! `(topology, scenario, K, order, stress)` tuple yields a byte-identical
//! document with no clock or RNG involved.

use std::error::Error;
use std::fmt;

use sdnav_core::hash::{fnv1a, splitmix64, FNV_OFFSET};
use sdnav_core::{ElementRef, HostId};
use sdnav_fmea::{dominant_modes, enumerate, Deployment, FailureMode, PlaneImpact};
use sdnav_json::{schema, Envelope, FromJson, Json, JsonError, ToJson};

use crate::{ChaosError, ChaosSpec, CrewSpec, InjectionKind, InjectionSpec, TargetRef};
use sdnav_sim::CrewDiscipline;

/// Knobs for [`generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerateConfig {
    /// How many dominant modes to take per plane (CP and DP lists are
    /// merged and deduplicated).
    pub top_k: usize,
    /// Maximum mode order (simultaneous element failures) to enumerate.
    pub max_order: usize,
    /// First injection window start, in hours.
    pub start_hours: f64,
    /// Spacing between consecutive mode windows, in hours.
    pub spacing_hours: f64,
    /// Fixed repair duration for every injected failure, in hours. Must
    /// be well below `spacing_hours` so windows cannot overlap.
    pub repair_hours: f64,
    /// Stress variant: one FIFO repair crew plus latent faults on every
    /// controller process the selected modes touch.
    pub stress: bool,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig {
            top_k: 5,
            max_order: 2,
            start_hours: 1_000.0,
            spacing_hours: 2_000.0,
            repair_hours: 48.0,
            stress: false,
        }
    }
}

/// Why [`generate`] refused.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GenerateError {
    /// A config knob is out of range.
    BadConfig {
        /// What is wrong with it.
        what: &'static str,
    },
    /// The enumeration found no failure mode at the requested order —
    /// there is nothing to inject.
    NoModes,
    /// The assembled campaign failed its own validation (internal bug —
    /// surfaced instead of panicking).
    Invalid(ChaosError),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::BadConfig { what } => write!(f, "bad generate config: {what}"),
            GenerateError::NoModes => write!(
                f,
                "no failure modes at this order — nothing to inject \
                 (raise --max-order)"
            ),
            GenerateError::Invalid(e) => write!(f, "generated campaign is invalid: {e}"),
        }
    }
}

impl Error for GenerateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GenerateError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChaosError> for GenerateError {
    fn from(e: ChaosError) -> Self {
        GenerateError::Invalid(e)
    }
}

impl GenerateConfig {
    fn validate(&self) -> Result<(), GenerateError> {
        let bad = |what| Err(GenerateError::BadConfig { what });
        if self.top_k == 0 {
            return bad("top_k must be >= 1");
        }
        if self.max_order == 0 {
            return bad("max_order must be >= 1");
        }
        if !self.start_hours.is_finite() || self.start_hours < 0.0 {
            return bad("start_hours must be finite and >= 0");
        }
        if !self.repair_hours.is_finite() || self.repair_hours <= 0.0 {
            return bad("repair_hours must be finite and > 0");
        }
        if !self.spacing_hours.is_finite() || self.spacing_hours <= self.repair_hours {
            return bad("spacing_hours must exceed repair_hours (windows must not overlap)");
        }
        Ok(())
    }
}

/// The FMEA's prediction record for one injected mode: what
/// `sdnav chaos run --verdict` holds the simulation to.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeExpectation {
    /// Mode label (`mode0`, `mode1`, …) — the window's identity.
    pub label: String,
    /// Which plane(s) the FMEA predicts go down.
    pub impact: PlaneImpact,
    /// The mode's elements in chaos target grammar.
    pub targets: Vec<String>,
    /// Labels of the campaign injections realizing this mode.
    pub injection_labels: Vec<String>,
    /// Rare-event probability of the mode (product of element
    /// unavailabilities).
    pub probability: f64,
    /// Mode order (simultaneous element failures).
    pub order: usize,
    /// Window start (the injections fire here), hours.
    pub window_start_hours: f64,
    /// Window end (exclusive; next mode's window starts here), hours.
    pub window_end_hours: f64,
}

fn impact_str(impact: PlaneImpact) -> &'static str {
    match impact {
        PlaneImpact::ControlPlaneOnly => "cp",
        PlaneImpact::DataPlaneOnly => "dp",
        PlaneImpact::Both => "both",
    }
}

fn impact_from_str(text: &str) -> Result<PlaneImpact, JsonError> {
    match text {
        "cp" => Ok(PlaneImpact::ControlPlaneOnly),
        "dp" => Ok(PlaneImpact::DataPlaneOnly),
        "both" => Ok(PlaneImpact::Both),
        other => Err(JsonError::decode(format!(
            "unknown impact {other:?} (want cp, dp, or both)"
        ))),
    }
}

impl ToJson for ModeExpectation {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::str(self.label.clone())),
            ("impact", Json::str(impact_str(self.impact))),
            ("targets", self.targets.to_json()),
            ("injection_labels", self.injection_labels.to_json()),
            ("probability", Json::Num(self.probability)),
            ("order", self.order.to_json()),
            ("window_start_hours", Json::Num(self.window_start_hours)),
            ("window_end_hours", Json::Num(self.window_end_hours)),
        ])
    }
}

impl FromJson for ModeExpectation {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ModeExpectation {
            label: String::from_json(value.field("label")?).map_err(|e| e.ctx("label"))?,
            impact: impact_from_str(
                value
                    .field("impact")?
                    .as_str()
                    .map_err(|e| e.ctx("impact"))?,
            )?,
            targets: Vec::from_json(value.field("targets")?).map_err(|e| e.ctx("targets"))?,
            injection_labels: Vec::from_json(value.field("injection_labels")?)
                .map_err(|e| e.ctx("injection_labels"))?,
            probability: value
                .field("probability")?
                .as_f64()
                .map_err(|e| e.ctx("probability"))?,
            order: value
                .field("order")?
                .as_usize()
                .map_err(|e| e.ctx("order"))?,
            window_start_hours: value
                .field("window_start_hours")?
                .as_f64()
                .map_err(|e| e.ctx("window_start_hours"))?,
            window_end_hours: value
                .field("window_end_hours")?
                .as_f64()
                .map_err(|e| e.ctx("window_end_hours"))?,
        })
    }
}

/// A campaign compiled from FMEA dominant modes, plus the per-mode
/// expectation records: the `sdnav-chaos-genspec/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedCampaign {
    /// Topology name the modes were enumerated on.
    pub topology: String,
    /// Supervisor scenario (`required` / `not-required`).
    pub scenario: String,
    /// The `top_k` the lists were cut at.
    pub top_k: usize,
    /// Maximum enumerated mode order.
    pub max_order: usize,
    /// Whether the stress variant (crew starvation + latents) is on.
    pub stress: bool,
    /// The runnable campaign.
    pub campaign: ChaosSpec,
    /// One expectation per injected mode, in window order.
    pub expectations: Vec<ModeExpectation>,
}

impl ToJson for GeneratedCampaign {
    fn to_json(&self) -> Json {
        Envelope::wrap(
            schema::CHAOS_GENSPEC,
            vec![
                ("topology", Json::str(self.topology.clone())),
                ("scenario", Json::str(self.scenario.clone())),
                ("top_k", self.top_k.to_json()),
                ("max_order", self.max_order.to_json()),
                ("stress", Json::Bool(self.stress)),
                ("campaign", self.campaign.to_json()),
                ("expectations", self.expectations.to_json()),
            ],
        )
    }
}

impl FromJson for GeneratedCampaign {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let value = Envelope::expect(schema::CHAOS_GENSPEC, value)?;
        Ok(GeneratedCampaign {
            topology: String::from_json(value.field("topology")?).map_err(|e| e.ctx("topology"))?,
            scenario: String::from_json(value.field("scenario")?).map_err(|e| e.ctx("scenario"))?,
            top_k: value
                .field("top_k")?
                .as_usize()
                .map_err(|e| e.ctx("top_k"))?,
            max_order: value
                .field("max_order")?
                .as_usize()
                .map_err(|e| e.ctx("max_order"))?,
            stress: value
                .field("stress")?
                .as_bool()
                .map_err(|e| e.ctx("stress"))?,
            campaign: ChaosSpec::from_json(value.field("campaign")?)
                .map_err(|e| e.ctx("campaign"))?,
            expectations: Vec::from_json(value.field("expectations")?)
                .map_err(|e| e.ctx("expectations"))?,
        })
    }
}

/// Compiles the deployment's top-K CP and DP dominant failure modes into
/// an injection campaign with per-mode expectation records.
///
/// # Errors
///
/// [`GenerateError::BadConfig`] for out-of-range knobs,
/// [`GenerateError::NoModes`] when enumeration finds nothing to inject,
/// and [`GenerateError::Invalid`] if the assembled campaign fails its own
/// validation (an internal invariant, surfaced rather than panicking).
pub fn generate(
    deployment: &Deployment<'_>,
    config: &GenerateConfig,
) -> Result<GeneratedCampaign, GenerateError> {
    config.validate()?;
    let modes = enumerate(deployment, config.max_order);
    let cp = dominant_modes(&modes, true, config.top_k);
    let dp = dominant_modes(&modes, false, config.top_k);
    let mut selected: Vec<FailureMode> = Vec::new();
    for mode in cp.into_iter().chain(dp) {
        if !selected.iter().any(|s| s.elements == mode.elements) {
            selected.push(mode);
        }
    }
    if selected.is_empty() {
        return Err(GenerateError::NoModes);
    }

    let topology = deployment.topology();
    let scenario = deployment.scenario().name();
    let name = format!(
        "fmea-{}-{}-k{}-o{}{}",
        topology.name().to_lowercase(),
        scenario,
        config.top_k,
        config.max_order,
        if config.stress { "-stress" } else { "" },
    );
    // The seed rides through JSON as an f64 number: keep it to 53 bits so
    // the document round-trips the exact value.
    let mut builder =
        ChaosSpec::builder(&name).seed(splitmix64(fnv1a(FNV_OFFSET, name.as_bytes())) >> 11);

    let mut expectations = Vec::with_capacity(selected.len());
    for (index, mode) in selected.iter().enumerate() {
        let at = config.start_hours + index as f64 * config.spacing_hours;
        let mode_label = format!("mode{index}");
        let mut injection_labels = Vec::with_capacity(mode.elements.len());
        for element in &mode.elements {
            let label = format!("{mode_label}-{element}");
            let target = TargetRef::Element(element.clone());
            let kind = match element {
                ElementRef::Rack(rack) => InjectionKind::CommonCause {
                    trigger: target,
                    members: rack_hosts(topology, *rack)
                        .into_iter()
                        .map(|host| TargetRef::Element(ElementRef::Host(host)))
                        .collect(),
                    probability: 1.0,
                    repair_hours: Some(config.repair_hours),
                },
                _ => InjectionKind::Fail {
                    target,
                    repair_hours: Some(config.repair_hours),
                },
            };
            builder = builder.injection(InjectionSpec {
                label: label.clone(),
                kind,
                at,
                every: None,
            });
            injection_labels.push(label);
        }
        expectations.push(ModeExpectation {
            label: mode_label,
            impact: mode.impact,
            targets: mode.elements.iter().map(ToString::to_string).collect(),
            injection_labels,
            probability: mode.probability,
            order: mode.order(),
            window_start_hours: at,
            window_end_hours: at + config.spacing_hours,
        });
    }

    if config.stress {
        builder = builder.crews(CrewSpec {
            count: 1,
            discipline: CrewDiscipline::Fifo,
        });
        // Latent faults only arm on controller processes; plant them well
        // before the first window so every failover inside a window lands
        // on damaged spares.
        let latent_at = config.start_hours * 0.5;
        let mut seen: Vec<&ElementRef> = Vec::new();
        for element in selected.iter().flat_map(|mode| &mode.elements) {
            if !matches!(element, ElementRef::Proc { .. }) || seen.contains(&element) {
                continue;
            }
            seen.push(element);
            builder = builder.injection(InjectionSpec {
                label: format!("latent-{element}"),
                kind: InjectionKind::Latent {
                    target: TargetRef::Element(element.clone()),
                },
                at: latent_at,
                every: None,
            });
        }
    }

    Ok(GeneratedCampaign {
        topology: topology.name().to_owned(),
        scenario: scenario.to_owned(),
        top_k: config.top_k,
        max_order: config.max_order,
        stress: config.stress,
        campaign: builder.build()?,
        expectations,
    })
}

/// The hosts of rack `rack` in topology index order.
fn rack_hosts(topology: &sdnav_core::Topology, rack: usize) -> Vec<usize> {
    (0..topology.host_count())
        .filter(|&host| topology.rack_of(HostId(host)).0 == rack)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnav_core::{ControllerSpec, Scenario, SwParams, Topology};

    fn deployment<'a>(
        spec: &'a ControllerSpec,
        topo: &'a Topology,
        scenario: Scenario,
    ) -> Deployment<'a> {
        Deployment::new(spec, topo, SwParams::paper_defaults(), scenario)
    }

    #[test]
    fn small_topology_rack_mode_becomes_a_common_cause_group() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let d = deployment(&spec, &topo, Scenario::SupervisorNotRequired);
        let generated = generate(&d, &GenerateConfig::default()).unwrap();
        let cc = generated
            .campaign
            .injections
            .iter()
            .find(|inj| matches!(inj.kind, InjectionKind::CommonCause { .. }))
            .expect("small topology has a rack-rooted dominant mode");
        let InjectionKind::CommonCause {
            trigger,
            members,
            probability,
            ..
        } = &cc.kind
        else {
            unreachable!()
        };
        assert_eq!(*trigger, TargetRef::Element(ElementRef::Rack(0)));
        // Every host sits in the single rack.
        assert_eq!(members.len(), topo.host_count());
        assert!((probability - 1.0).abs() < 1e-15);
    }

    #[test]
    fn windows_are_staggered_and_disjoint() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::large(&spec);
        let d = deployment(&spec, &topo, Scenario::SupervisorNotRequired);
        let config = GenerateConfig::default();
        let generated = generate(&d, &config).unwrap();
        for pair in generated.expectations.windows(2) {
            assert!(pair[0].window_end_hours <= pair[1].window_start_hours + 1e-9);
            assert!(
                pair[1].window_start_hours - pair[0].window_start_hours
                    >= config.spacing_hours - 1e-9
            );
        }
        // Every injection of a mode fires at its window start, and repairs
        // finish far inside the window.
        for exp in &generated.expectations {
            for label in &exp.injection_labels {
                let inj = generated
                    .campaign
                    .injections
                    .iter()
                    .find(|i| &i.label == label)
                    .expect("expectation labels resolve");
                assert!((inj.at - exp.window_start_hours).abs() < 1e-9);
                assert!(inj.every.is_none());
            }
            assert!(
                exp.window_start_hours + config.repair_hours < exp.window_end_hours,
                "repair must fit inside the window"
            );
        }
    }

    #[test]
    fn multi_element_modes_fire_simultaneously() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::large(&spec);
        let d = deployment(&spec, &topo, Scenario::SupervisorNotRequired);
        let generated = generate(&d, &GenerateConfig::default()).unwrap();
        let pair = generated
            .expectations
            .iter()
            .find(|e| e.order == 2)
            .expect("large topology has order-2 dominant modes");
        assert_eq!(pair.injection_labels.len(), 2);
        let times: Vec<f64> = pair
            .injection_labels
            .iter()
            .map(|label| {
                generated
                    .campaign
                    .injections
                    .iter()
                    .find(|i| &i.label == label)
                    .unwrap()
                    .at
            })
            .collect();
        assert_eq!(times[0].to_bits(), times[1].to_bits());
    }

    #[test]
    fn generation_is_deterministic_and_identity_seeded() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::medium(&spec);
        let d = deployment(&spec, &topo, Scenario::SupervisorRequired);
        let a = generate(&d, &GenerateConfig::default()).unwrap();
        let b = generate(&d, &GenerateConfig::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json().to_compact(), b.to_json().to_compact());
        // A different identity yields a different derived seed.
        let small = Topology::small(&spec);
        let d2 = deployment(&spec, &small, Scenario::SupervisorRequired);
        let c = generate(&d2, &GenerateConfig::default()).unwrap();
        assert_ne!(a.campaign.seed, c.campaign.seed);
    }

    #[test]
    fn stress_variant_starves_crews_and_arms_latents() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::large(&spec);
        let d = deployment(&spec, &topo, Scenario::SupervisorNotRequired);
        let config = GenerateConfig {
            stress: true,
            ..GenerateConfig::default()
        };
        let generated = generate(&d, &config).unwrap();
        let crews = generated.campaign.crews.expect("stress limits crews");
        assert_eq!(crews.count, 1);
        let latents: Vec<_> = generated
            .campaign
            .injections
            .iter()
            .filter(|inj| matches!(inj.kind, InjectionKind::Latent { .. }))
            .collect();
        assert!(!latents.is_empty(), "process modes arm latent faults");
        for latent in &latents {
            assert!(latent.at < generated.expectations[0].window_start_hours);
        }
    }

    #[test]
    fn genspec_round_trips_json() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let d = deployment(&spec, &topo, Scenario::SupervisorNotRequired);
        let generated = generate(&d, &GenerateConfig::default()).unwrap();
        let doc = generated.to_json();
        let back = GeneratedCampaign::from_json(&doc).unwrap();
        assert_eq!(generated, back);
        // The envelope is schema-checked.
        let bad = Envelope::wrap("sdnav-chaos-genspec/v9", vec![]);
        assert!(GeneratedCampaign::from_json(&bad).is_err());
    }

    #[test]
    fn bad_configs_are_refused() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let d = deployment(&spec, &topo, Scenario::SupervisorNotRequired);
        for config in [
            GenerateConfig {
                top_k: 0,
                ..GenerateConfig::default()
            },
            GenerateConfig {
                max_order: 0,
                ..GenerateConfig::default()
            },
            GenerateConfig {
                spacing_hours: 10.0,
                repair_hours: 48.0,
                ..GenerateConfig::default()
            },
        ] {
            assert!(matches!(
                generate(&d, &config),
                Err(GenerateError::BadConfig { .. })
            ));
        }
        let e = GenerateError::NoModes;
        assert!(e.to_string().contains("nothing to inject"));
    }
}
