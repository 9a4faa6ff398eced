//! Declarative fault-injection campaigns over the DES engine.
//!
//! A **campaign** ([`ChaosSpec`]) is a JSON document of typed injections
//! against a named deployment: scheduled faults (`at`/`every` on a
//! rack/host/VM/process target), common-cause groups (one trigger fails a
//! correlated member set with per-member probability), maintenance windows
//! (planned downtime with suppressed repair), a finite repair-crew pool,
//! and latent faults revealed only on failover.
//!
//! [`compile`] lowers a campaign against a prepared
//! [`sdnav_sim::Simulation`] into a deterministic
//! [`sdnav_sim::InjectionPlan`]: every occurrence is expanded and every
//! common-cause member draw is sampled up front (SplitMix64 keyed by the
//! campaign seed and the injection/occurrence/member identity), so the
//! simulation itself stays a pre-scheduled event stream — same campaign,
//! same seed, same ledger, byte for byte.
//!
//! ```
//! use sdnav_core::{ControllerSpec, Scenario, Topology};
//! use sdnav_sim::{SimConfig, Simulation};
//!
//! let spec = ControllerSpec::opencontrail_3x();
//! let topo = Topology::small(&spec);
//! let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
//! cfg.horizon_hours = 5_000.0;
//! let sim = Simulation::try_new(&spec, &topo, cfg).expect("valid simulation");
//!
//! let campaign: sdnav_chaos::ChaosSpec = sdnav_json::from_str(
//!     r#"{
//!         "name": "kill-rack0",
//!         "injections": [{
//!             "label": "rack0",
//!             "kind": "fail",
//!             "target": "rack:0",
//!             "at": 1000.0,
//!             "repair_hours": 48.0
//!         }]
//!     }"#,
//! )
//! .expect("valid campaign");
//! campaign.try_validate().expect("consistent campaign");
//! let plan = sdnav_chaos::compile(&campaign, &sim).expect("resolvable campaign");
//! let result = sim.run_injected(7, &plan);
//! let ledger = result.ledger.expect("attribution ledger");
//! assert_eq!(ledger.injected_events, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod digest;
mod generate;
mod verdict;

pub use digest::{digest_report, sha256_hex, DIGEST_ARRAY_KEEP, DIGEST_SCHEMA};
pub use generate::{generate, GenerateConfig, GenerateError, GeneratedCampaign, ModeExpectation};
pub use verdict::{verdict, ModeOutcome, ModeVerdict, VerdictConfig, VerdictReport};

use std::error::Error;
use std::fmt;

use sdnav_core::hash::splitmix64;
use sdnav_json::{FromJson, Json, JsonError, ToJson};
use sdnav_sim::{
    CrewPool, InjectAction, InjectTarget, InjectionPlan, PlannedEvent, SimResult, Simulation,
};

pub use sdnav_sim::{AttributionLedger, Cause, CrewDiscipline, OutageRecord};

/// Hard cap on expanded occurrences per injection — a `every` of minutes
/// over a decades-long horizon is almost certainly a unit slip, and the
/// compiler refuses to build a multi-million-event plan silently.
pub const MAX_OCCURRENCES: usize = 100_000;

/// A named injection target, resolved against the simulation at compile
/// time.
///
/// The textual grammar (used in campaign JSON) is:
///
/// | form | meaning |
/// |---|---|
/// | `rack:IDX` | rack by topology index |
/// | `host:IDX` | host by topology index |
/// | `vm:IDX` | VM by topology index |
/// | `proc:ROLE/NODE/PROCESS` | controller process instance |
/// | `vproc:HOST/PROCESS` | vRouter process on a compute host |
/// | `leader` | whichever controller holds the consensus lease at fire time |
///
/// `leader` is special: it names a *dynamic* element, so it only resolves
/// inside a consensus run (`sdnav chaos run --consensus-spec`), where the
/// DES looks up the current leaseholder at the injection's fire time. The
/// simulation-based [`compile`] path rejects it with a pointed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetRef {
    /// `leader` — resolved at event time by the consensus DES.
    Leader,
    /// `rack:IDX`
    Rack(usize),
    /// `host:IDX`
    Host(usize),
    /// `vm:IDX`
    Vm(usize),
    /// `proc:ROLE/NODE/PROCESS`
    Proc {
        /// Controller role name (e.g. `Control`).
        role: String,
        /// Node index within the role.
        node: usize,
        /// Process name within the role.
        process: String,
    },
    /// `vproc:HOST/PROCESS`
    VProc {
        /// Compute-host index.
        host: usize,
        /// vRouter process name.
        process: String,
    },
}

impl TargetRef {
    /// Parses the `kind:detail` target grammar.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::BadTarget`] when the string does not match
    /// the grammar.
    pub fn parse(text: &str) -> Result<TargetRef, ChaosError> {
        let bad = || ChaosError::BadTarget {
            target: text.to_owned(),
        };
        if text == "leader" {
            return Ok(TargetRef::Leader);
        }
        let (kind, rest) = text.split_once(':').ok_or_else(bad)?;
        match kind {
            "rack" => rest.parse().map(TargetRef::Rack).map_err(|_| bad()),
            "host" => rest.parse().map(TargetRef::Host).map_err(|_| bad()),
            "vm" => rest.parse().map(TargetRef::Vm).map_err(|_| bad()),
            "proc" => {
                let mut parts = rest.splitn(3, '/');
                let role = parts.next().ok_or_else(bad)?;
                let node = parts.next().ok_or_else(bad)?;
                let process = parts.next().ok_or_else(bad)?;
                if role.is_empty() || process.is_empty() {
                    return Err(bad());
                }
                Ok(TargetRef::Proc {
                    role: role.to_owned(),
                    node: node.parse().map_err(|_| bad())?,
                    process: process.to_owned(),
                })
            }
            "vproc" => {
                let (host, process) = rest.split_once('/').ok_or_else(bad)?;
                if process.is_empty() {
                    return Err(bad());
                }
                Ok(TargetRef::VProc {
                    host: host.parse().map_err(|_| bad())?,
                    process: process.to_owned(),
                })
            }
            _ => Err(bad()),
        }
    }
}

impl fmt::Display for TargetRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetRef::Leader => write!(f, "leader"),
            TargetRef::Rack(i) => write!(f, "rack:{i}"),
            TargetRef::Host(i) => write!(f, "host:{i}"),
            TargetRef::Vm(i) => write!(f, "vm:{i}"),
            TargetRef::Proc {
                role,
                node,
                process,
            } => write!(f, "proc:{role}/{node}/{process}"),
            TargetRef::VProc { host, process } => write!(f, "vproc:{host}/{process}"),
        }
    }
}

impl ToJson for TargetRef {
    fn to_json(&self) -> Json {
        Json::str(self.to_string())
    }
}

impl FromJson for TargetRef {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        TargetRef::parse(value.as_str()?).map_err(|e| JsonError::decode(e.to_string()))
    }
}

/// What one campaign injection does.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectionKind {
    /// Force `target` down; repaired after `repair_hours` (or an organic
    /// repair sample when `None`).
    Fail {
        /// The element to fail.
        target: TargetRef,
        /// Fixed repair duration, or `None` for an organic sample.
        repair_hours: Option<f64>,
    },
    /// Common-cause group: each occurrence fails `trigger` and,
    /// independently with `probability`, each of `members`.
    CommonCause {
        /// The always-failed trigger element.
        trigger: TargetRef,
        /// Correlated elements, each failed with `probability`.
        members: Vec<TargetRef>,
        /// Per-member conditional failure probability in `[0, 1]`.
        probability: f64,
        /// Fixed repair duration for trigger and members, or `None` for
        /// organic samples.
        repair_hours: Option<f64>,
    },
    /// Planned downtime of `target` for `duration_hours` with repair
    /// suppressed until the window closes.
    Maintenance {
        /// The element under maintenance.
        target: TargetRef,
        /// Window length in hours.
        duration_hours: f64,
    },
    /// Arm a latent fault on a controller process (`proc:` targets only),
    /// revealed at the first failover onto it.
    Latent {
        /// The process carrying the latent fault.
        target: TargetRef,
    },
}

/// One declarative injection of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionSpec {
    /// Unique human-readable label (the attribution name in ledgers).
    pub label: String,
    /// What the injection does.
    pub kind: InjectionKind,
    /// First occurrence time in hours.
    pub at: f64,
    /// Repetition period in hours (`None` = single occurrence).
    pub every: Option<f64>,
}

impl InjectionSpec {
    /// The occurrence times `at + k·every` (k = 0, 1, …) below `horizon`,
    /// in order; just `at` when `every` is unset or not a finite positive
    /// period. Unbounded for tiny periods: callers apply their own
    /// [`MAX_OCCURRENCES`] policy.
    pub fn occurrences(&self, horizon: f64) -> impl Iterator<Item = f64> {
        let at = self.at;
        let every = self.every.filter(|e| e.is_finite() && *e > 0.0);
        let count = if every.is_some() { usize::MAX } else { 1 };
        (0..count)
            .map(move |k| at + k as f64 * every.unwrap_or(0.0))
            .take_while(move |&time| time < horizon)
    }
}

/// Finite repair-crew pool declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrewSpec {
    /// Number of hardware repair crews.
    pub count: usize,
    /// Queueing discipline for waiting repairs.
    pub discipline: CrewDiscipline,
}

/// A declarative fault-injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Campaign name.
    pub name: String,
    /// Seed for common-cause member draws (independent of the simulation
    /// seed; default 0).
    pub seed: u64,
    /// Finite repair-crew pool (`None` = unlimited crews).
    pub crews: Option<CrewSpec>,
    /// The injections.
    pub injections: Vec<InjectionSpec>,
}

/// Why a [`ChaosSpec`] is inconsistent.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChaosError {
    /// The campaign name is empty.
    EmptyName,
    /// An injection label is empty or duplicated.
    BadLabel {
        /// The offending label (empty string for a missing one).
        label: String,
    },
    /// A target string does not match the grammar.
    BadTarget {
        /// The unparsable target text.
        target: String,
    },
    /// `at` is negative or not finite.
    BadTime {
        /// Offending injection label.
        label: String,
        /// The rejected value.
        value: f64,
    },
    /// `every` is non-positive or not finite.
    BadEvery {
        /// Offending injection label.
        label: String,
        /// The rejected value.
        value: f64,
    },
    /// A common-cause probability is outside `[0, 1]`.
    BadProbability {
        /// Offending injection label.
        label: String,
        /// The rejected value.
        value: f64,
    },
    /// A duration (`repair_hours` / `duration_hours`) is non-positive or
    /// not finite.
    BadDuration {
        /// Offending injection label.
        label: String,
        /// The rejected value.
        value: f64,
    },
    /// A latent fault targets something other than a controller process.
    LatentNotProc {
        /// Offending injection label.
        label: String,
    },
    /// A common-cause group has no members.
    EmptyGroup {
        /// Offending injection label.
        label: String,
    },
    /// The crew pool declares zero crews.
    ZeroCrews,
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::EmptyName => write!(f, "campaign name is empty"),
            ChaosError::BadLabel { label } if label.is_empty() => {
                write!(f, "injection label is empty")
            }
            ChaosError::BadLabel { label } => write!(f, "duplicate injection label {label:?}"),
            ChaosError::BadTarget { target } => {
                write!(f, "unparsable target {target:?} (want rack:IDX, host:IDX, vm:IDX, proc:ROLE/NODE/PROCESS, or vproc:HOST/PROCESS)")
            }
            ChaosError::BadTime { label, value } => {
                write!(
                    f,
                    "injection {label:?}: `at` must be finite and >= 0, got {value}"
                )
            }
            ChaosError::BadEvery { label, value } => {
                write!(
                    f,
                    "injection {label:?}: `every` must be finite and > 0, got {value}"
                )
            }
            ChaosError::BadProbability { label, value } => write!(
                f,
                "injection {label:?}: probability must be in [0, 1], got {value}"
            ),
            ChaosError::BadDuration { label, value } => write!(
                f,
                "injection {label:?}: duration must be finite and > 0, got {value}"
            ),
            ChaosError::LatentNotProc { label } => write!(
                f,
                "injection {label:?}: latent faults only apply to proc: targets"
            ),
            ChaosError::EmptyGroup { label } => {
                write!(f, "injection {label:?}: common-cause group has no members")
            }
            ChaosError::ZeroCrews => write!(f, "crew pool declares zero crews"),
        }
    }
}

impl Error for ChaosError {}

impl From<ChaosError> for sdnav_core::SdnavError {
    fn from(e: ChaosError) -> Self {
        sdnav_core::SdnavError::model(e.to_string())
    }
}

impl ChaosSpec {
    /// Starts a builder for a named campaign (seed 0, unlimited crews,
    /// no injections).
    pub fn builder(name: impl Into<String>) -> ChaosSpecBuilder {
        ChaosSpecBuilder {
            spec: ChaosSpec {
                name: name.into(),
                seed: 0,
                crews: None,
                injections: Vec::new(),
            },
        }
    }

    /// Checks the campaign for internal consistency (labels, times,
    /// probabilities, durations, crew counts).
    ///
    /// Note that target *resolution* needs a simulation and happens in
    /// [`compile`]; `sdnav-audit` reports unresolved targets as SA020
    /// without failing the whole document.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChaosError`] found.
    pub fn try_validate(&self) -> Result<(), ChaosError> {
        if self.name.trim().is_empty() {
            return Err(ChaosError::EmptyName);
        }
        if let Some(crews) = self.crews {
            if crews.count == 0 {
                return Err(ChaosError::ZeroCrews);
            }
        }
        let mut seen = Vec::new();
        for inj in &self.injections {
            let label = inj.label.clone();
            if label.trim().is_empty() || seen.contains(&label) {
                return Err(ChaosError::BadLabel { label });
            }
            seen.push(label.clone());
            if !inj.at.is_finite() || inj.at < 0.0 {
                return Err(ChaosError::BadTime {
                    label,
                    value: inj.at,
                });
            }
            if let Some(every) = inj.every {
                if !every.is_finite() || every <= 0.0 {
                    return Err(ChaosError::BadEvery {
                        label,
                        value: every,
                    });
                }
            }
            let check_dur = |d: Option<f64>| match d {
                Some(v) if !v.is_finite() || v <= 0.0 => Err(ChaosError::BadDuration {
                    label: inj.label.clone(),
                    value: v,
                }),
                _ => Ok(()),
            };
            match &inj.kind {
                InjectionKind::Fail { repair_hours, .. } => check_dur(*repair_hours)?,
                InjectionKind::CommonCause {
                    members,
                    probability,
                    repair_hours,
                    ..
                } => {
                    if members.is_empty() {
                        return Err(ChaosError::EmptyGroup { label });
                    }
                    if !(0.0..=1.0).contains(probability) {
                        return Err(ChaosError::BadProbability {
                            label,
                            value: *probability,
                        });
                    }
                    check_dur(*repair_hours)?;
                }
                InjectionKind::Maintenance { duration_hours, .. } => {
                    check_dur(Some(*duration_hours))?;
                }
                InjectionKind::Latent { target } => {
                    if !matches!(target, TargetRef::Proc { .. }) {
                        return Err(ChaosError::LatentNotProc { label });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Step-by-step construction of a validated [`ChaosSpec`].
#[derive(Debug, Clone)]
#[must_use = "call `.build()` to obtain the validated ChaosSpec"]
pub struct ChaosSpecBuilder {
    spec: ChaosSpec,
}

impl ChaosSpecBuilder {
    /// Sets the seed for common-cause member draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Limits the repair-crew pool.
    pub fn crews(mut self, crews: CrewSpec) -> Self {
        self.spec.crews = Some(crews);
        self
    }

    /// Appends one injection.
    pub fn injection(mut self, injection: InjectionSpec) -> Self {
        self.spec.injections.push(injection);
        self
    }

    /// Validates and returns the campaign.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChaosError`] [`ChaosSpec::try_validate`] finds.
    pub fn build(self) -> Result<ChaosSpec, ChaosError> {
        self.spec.try_validate()?;
        Ok(self.spec)
    }
}

impl ToJson for ChaosSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(self.name.clone())),
            ("seed", (self.seed as usize).to_json()),
        ];
        if let Some(crews) = self.crews {
            fields.push((
                "crews",
                Json::obj(vec![
                    ("count", crews.count.to_json()),
                    (
                        "discipline",
                        Json::str(match crews.discipline {
                            CrewDiscipline::Fifo => "fifo",
                            CrewDiscipline::Priority => "priority",
                        }),
                    ),
                ]),
            ));
        }
        let injections: Vec<Json> = self
            .injections
            .iter()
            .map(|inj| {
                let mut f = vec![("label", Json::str(inj.label.clone()))];
                match &inj.kind {
                    InjectionKind::Fail {
                        target,
                        repair_hours,
                    } => {
                        f.push(("kind", Json::str("fail")));
                        f.push(("target", target.to_json()));
                        if let Some(r) = repair_hours {
                            f.push(("repair_hours", r.to_json()));
                        }
                    }
                    InjectionKind::CommonCause {
                        trigger,
                        members,
                        probability,
                        repair_hours,
                    } => {
                        f.push(("kind", Json::str("common_cause")));
                        f.push(("trigger", trigger.to_json()));
                        f.push((
                            "members",
                            Json::Arr(members.iter().map(ToJson::to_json).collect()),
                        ));
                        f.push(("probability", probability.to_json()));
                        if let Some(r) = repair_hours {
                            f.push(("repair_hours", r.to_json()));
                        }
                    }
                    InjectionKind::Maintenance {
                        target,
                        duration_hours,
                    } => {
                        f.push(("kind", Json::str("maintenance")));
                        f.push(("target", target.to_json()));
                        f.push(("duration_hours", duration_hours.to_json()));
                    }
                    InjectionKind::Latent { target } => {
                        f.push(("kind", Json::str("latent")));
                        f.push(("target", target.to_json()));
                    }
                }
                f.push(("at", inj.at.to_json()));
                if let Some(every) = inj.every {
                    f.push(("every", every.to_json()));
                }
                Json::obj(f)
            })
            .collect();
        fields.push(("injections", Json::Arr(injections)));
        Json::obj(fields)
    }
}

impl FromJson for ChaosSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let name = value.field("name")?.as_str().map_err(|e| e.ctx("name"))?;
        let seed = match value.get("seed") {
            Some(v) => v.as_usize().map_err(|e| e.ctx("seed"))? as u64,
            None => 0,
        };
        let crews = match value.get("crews") {
            None => None,
            Some(v) => {
                let count = v
                    .field("count")?
                    .as_usize()
                    .map_err(|e| e.ctx("crews.count"))?;
                let discipline = match v.get("discipline").map(Json::as_str).transpose()? {
                    None | Some("fifo") => CrewDiscipline::Fifo,
                    Some("priority") => CrewDiscipline::Priority,
                    Some(other) => {
                        return Err(JsonError::decode(format!(
                            "unknown crew discipline {other:?} (want \"fifo\" or \"priority\")"
                        )))
                    }
                };
                Some(CrewSpec { count, discipline })
            }
        };
        let mut injections = Vec::new();
        for (i, inj) in value
            .field("injections")?
            .as_arr()
            .map_err(|e| e.ctx("injections"))?
            .iter()
            .enumerate()
        {
            let ctx = |e: JsonError| e.ctx(&format!("injections[{i}]"));
            let label = inj.field("label").map_err(ctx)?.as_str().map_err(ctx)?;
            let at = inj.field("at").map_err(ctx)?.as_f64().map_err(ctx)?;
            let every = inj
                .get("every")
                .map(Json::as_f64)
                .transpose()
                .map_err(ctx)?;
            let repair_hours = inj
                .get("repair_hours")
                .map(Json::as_f64)
                .transpose()
                .map_err(ctx)?;
            let target = |field: &str| -> Result<TargetRef, JsonError> {
                TargetRef::from_json(inj.field(field).map_err(ctx)?).map_err(ctx)
            };
            let kind = match inj.field("kind").map_err(ctx)?.as_str().map_err(ctx)? {
                "fail" => InjectionKind::Fail {
                    target: target("target")?,
                    repair_hours,
                },
                "common_cause" => InjectionKind::CommonCause {
                    trigger: target("trigger")?,
                    members: inj
                        .field("members")
                        .map_err(ctx)?
                        .as_arr()
                        .map_err(ctx)?
                        .iter()
                        .map(TargetRef::from_json)
                        .collect::<Result<_, _>>()
                        .map_err(ctx)?,
                    probability: inj
                        .field("probability")
                        .map_err(ctx)?
                        .as_f64()
                        .map_err(ctx)?,
                    repair_hours,
                },
                "maintenance" => InjectionKind::Maintenance {
                    target: target("target")?,
                    duration_hours: inj
                        .field("duration_hours")
                        .map_err(ctx)?
                        .as_f64()
                        .map_err(ctx)?,
                },
                "latent" => InjectionKind::Latent {
                    target: target("target")?,
                },
                other => {
                    return Err(ctx(JsonError::decode(format!(
                        "unknown injection kind {other:?} (want fail, common_cause, maintenance, or latent)"
                    ))))
                }
            };
            injections.push(InjectionSpec {
                label: label.to_owned(),
                kind,
                at,
                every,
            });
        }
        Ok(ChaosSpec {
            name: name.to_owned(),
            seed,
            crews,
            injections,
        })
    }
}

/// Why a campaign could not be compiled against a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The campaign itself is inconsistent.
    Invalid(ChaosError),
    /// A target does not exist in the simulated deployment.
    UnknownTarget {
        /// Offending injection label.
        label: String,
        /// The unresolvable target.
        target: String,
    },
    /// An injection expands to more than [`MAX_OCCURRENCES`] occurrences.
    TooManyOccurrences {
        /// Offending injection label.
        label: String,
    },
    /// A `leader` target in a plain (non-consensus) simulation: the
    /// deployment has no lease, so there is nothing to resolve against.
    LeaderTarget {
        /// Offending injection label.
        label: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Invalid(e) => write!(f, "invalid campaign: {e}"),
            CompileError::UnknownTarget { label, target } => {
                write!(
                    f,
                    "injection {label:?}: target {target} does not exist in the deployment"
                )
            }
            CompileError::TooManyOccurrences { label } => write!(
                f,
                "injection {label:?} expands to more than {MAX_OCCURRENCES} occurrences"
            ),
            CompileError::LeaderTarget { label } => write!(
                f,
                "injection {label:?}: the leader target only resolves in a consensus run \
                 (pass a spec with a consensus block via `chaos run --consensus-spec`)"
            ),
        }
    }
}

impl Error for CompileError {}

impl From<CompileError> for sdnav_core::SdnavError {
    fn from(e: CompileError) -> Self {
        sdnav_core::SdnavError::model(e.to_string())
    }
}

impl From<ChaosError> for CompileError {
    fn from(e: ChaosError) -> Self {
        CompileError::Invalid(e)
    }
}

/// Resolves a named target against a prepared simulation.
///
/// # Errors
///
/// Returns `Err(())` when the target's index or names do not exist in the
/// deployment; callers attach their own context (compile errors, SA020
/// diagnostics). [`TargetRef::Leader`] always errs here: the lease is a
/// consensus-run concept with no static counterpart in the deployment.
#[allow(clippy::result_unit_err)]
pub fn resolve_target(target: &TargetRef, sim: &Simulation<'_>) -> Result<InjectTarget, ()> {
    let s = sim.structure();
    match target {
        TargetRef::Leader => Err(()),
        TargetRef::Rack(i) => s.rack(*i).map(|_| InjectTarget::Rack(*i)).ok_or(()),
        TargetRef::Host(i) => s.host(*i).map(|_| InjectTarget::Host(*i)).ok_or(()),
        TargetRef::Vm(i) => s.vm(*i).map(|_| InjectTarget::Vm(*i)).ok_or(()),
        TargetRef::Proc {
            role,
            node,
            process,
        } => s
            .process_index(role, *node, process)
            .map(InjectTarget::Proc)
            .ok_or(()),
        TargetRef::VProc { host, process } => {
            if *host >= sim.config().compute_hosts {
                return Err(());
            }
            s.host_process_index(process)
                .map(|idx| InjectTarget::VProc(*host, idx))
                .ok_or(())
        }
    }
}

/// Deterministic Bernoulli draw for common-cause member `member` of
/// occurrence `occurrence` of injection `injection`, keyed only by
/// identity — never by position in the final event stream.
fn ccf_member_fails(
    seed: u64,
    injection: usize,
    occurrence: usize,
    member: usize,
    probability: f64,
) -> bool {
    if probability >= 1.0 {
        return true;
    }
    if probability <= 0.0 {
        return false;
    }
    let z = splitmix64(
        splitmix64(splitmix64(seed ^ injection as u64) ^ occurrence as u64) ^ member as u64,
    );
    // 53-bit uniform in [0, 1).
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    u < probability
}

/// Compiles a campaign against a prepared simulation into a deterministic
/// [`InjectionPlan`]: occurrences expanded to the simulation horizon,
/// common-cause members sampled, targets resolved to element indices,
/// events time-sorted (a group's trigger always precedes its members at
/// the same timestamp).
///
/// # Errors
///
/// Returns a [`CompileError`] when the campaign fails
/// [`ChaosSpec::try_validate`], names a target that does not exist in the
/// deployment, or expands past [`MAX_OCCURRENCES`].
pub fn compile(spec: &ChaosSpec, sim: &Simulation<'_>) -> Result<InjectionPlan, CompileError> {
    spec.try_validate()?;
    let horizon = sim.config().horizon_hours;
    let resolve = |label: &str, t: &TargetRef| -> Result<InjectTarget, CompileError> {
        if matches!(t, TargetRef::Leader) {
            return Err(CompileError::LeaderTarget {
                label: label.to_owned(),
            });
        }
        resolve_target(t, sim).map_err(|()| CompileError::UnknownTarget {
            label: label.to_owned(),
            target: t.to_string(),
        })
    };
    let mut events: Vec<PlannedEvent> = Vec::new();
    for (i, inj) in spec.injections.iter().enumerate() {
        // Occurrences at or past the horizon would never fire; dropping
        // them here keeps plans small (SA021 warns about fully-dead
        // injections).
        for (occurrence, time) in inj.occurrences(horizon).enumerate() {
            if occurrence >= MAX_OCCURRENCES {
                return Err(CompileError::TooManyOccurrences {
                    label: inj.label.clone(),
                });
            }
            let label = &inj.label;
            let mut emit = |target, action| {
                events.push(PlannedEvent {
                    time,
                    injection: i,
                    target,
                    action,
                });
            };
            match &inj.kind {
                InjectionKind::Fail {
                    target,
                    repair_hours,
                } => emit(
                    resolve(label, target)?,
                    InjectAction::Fail {
                        repair_hours: *repair_hours,
                    },
                ),
                InjectionKind::CommonCause {
                    trigger,
                    members,
                    probability,
                    repair_hours,
                } => {
                    // Trigger first; members keep declaration order. The
                    // stable sort below preserves this within a timestamp.
                    let fail = InjectAction::Fail {
                        repair_hours: *repair_hours,
                    };
                    emit(resolve(label, trigger)?, fail);
                    for (m, member) in members.iter().enumerate() {
                        let resolved = resolve(label, member)?;
                        if ccf_member_fails(spec.seed, i, occurrence, m, *probability) {
                            emit(resolved, fail);
                        }
                    }
                }
                InjectionKind::Maintenance {
                    target,
                    duration_hours,
                } => emit(
                    resolve(label, target)?,
                    InjectAction::Maintenance {
                        duration_hours: *duration_hours,
                    },
                ),
                InjectionKind::Latent { target } => {
                    emit(resolve(label, target)?, InjectAction::Latent);
                }
            }
        }
    }
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    Ok(InjectionPlan {
        labels: spec.injections.iter().map(|i| i.label.clone()).collect(),
        events,
        crews: spec.crews.map(|c| CrewPool {
            crews: c.count,
            discipline: c.discipline,
        }),
    })
}

/// Human/CI-facing name of a ledger cause under this campaign.
#[must_use]
pub fn cause_name(spec: &ChaosSpec, cause: Cause) -> String {
    match cause {
        Cause::Organic => "organic".to_owned(),
        Cause::Injection(i) => spec
            .injections
            .get(i)
            .map_or_else(|| format!("injection#{i}"), |inj| inj.label.clone()),
    }
}

/// Renders an injected run as the deterministic `sdnav-chaos-report/v1`
/// JSON document: overall availabilities and outage statistics plus the
/// full attribution ledger (per-cause root-caused CP hours, per-cause DP
/// host-hours, and the outage timeline used for golden diffing in CI).
#[must_use]
pub fn report(spec: &ChaosSpec, result: &SimResult) -> Json {
    let ledger = result.ledger.clone().unwrap_or_default();
    let causes: Vec<Cause> = std::iter::once(Cause::Organic)
        .chain((0..spec.injections.len()).map(Cause::Injection))
        .collect();
    let by_cause: Vec<Json> = causes
        .iter()
        .map(|&cause| {
            let slot = cause.slot();
            let root_outages = ledger
                .cp_outages
                .iter()
                .filter(|o| o.root_cause == cause)
                .count();
            // fold from +0.0: an empty `.sum::<f64>()` is -0.0, which
            // would leak a spurious "-0" into the golden report.
            let root_hours = ledger
                .cp_outages
                .iter()
                .filter(|o| o.root_cause == cause)
                .fold(0.0, |acc, o| acc + o.duration());
            Json::obj(vec![
                ("cause", Json::str(cause_name(spec, cause))),
                ("cp_root_outages", root_outages.to_json()),
                ("cp_root_hours", root_hours.to_json()),
                (
                    "dp_down_host_hours",
                    ledger
                        .dp_down_host_hours
                        .get(slot)
                        .copied()
                        .unwrap_or(0.0)
                        .to_json(),
                ),
            ])
        })
        .collect();
    let outages: Vec<Json> = ledger
        .cp_outages
        .iter()
        .map(|o| {
            Json::obj(vec![
                ("start", o.start.to_json()),
                ("end", o.end.to_json()),
                ("root_cause", Json::str(cause_name(spec, o.root_cause))),
                (
                    "contributors",
                    Json::Arr(
                        o.contributors
                            .iter()
                            .map(|&c| Json::str(cause_name(spec, c)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let dp_windows: Vec<Json> = ledger
        .dp_windows
        .iter()
        .map(|w| {
            Json::obj(vec![
                ("host", w.host.to_json()),
                ("start", w.start.to_json()),
                ("end", w.end.to_json()),
                ("cause", Json::str(cause_name(spec, w.cause))),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str(sdnav_json::schema::CHAOS_REPORT)),
        ("campaign", Json::str(spec.name.clone())),
        ("cp_availability", result.cp_availability.to_json()),
        ("dp_availability", result.dp_availability.to_json()),
        (
            "cp_outage_count",
            (result.cp_outage_count as usize).to_json(),
        ),
        // NaN (zero outages) serializes as null — sdnav-json's number
        // writer guarantees valid JSON for non-finite values.
        (
            "cp_outage_mean_hours",
            result.cp_outage_mean_hours.to_json(),
        ),
        ("events", (result.events as usize).to_json()),
        ("simulated_hours", result.simulated_hours.to_json()),
        (
            "ledger",
            Json::obj(vec![
                (
                    "injected_events",
                    (ledger.injected_events as usize).to_json(),
                ),
                (
                    "revealed_latents",
                    (ledger.revealed_latents as usize).to_json(),
                ),
                ("cp_outage_hours_total", ledger.cp_outage_hours().to_json()),
                ("by_cause", Json::Arr(by_cause)),
                ("outages", Json::Arr(outages)),
                ("dp_windows", Json::Arr(dp_windows)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnav_core::{ControllerSpec, Scenario, Topology};
    use sdnav_sim::SimConfig;

    fn sim_small() -> (ControllerSpec, Topology) {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        (spec, topo)
    }

    fn small_sim<'a>(spec: &'a ControllerSpec, topo: &'a Topology, horizon: f64) -> Simulation<'a> {
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        cfg.horizon_hours = horizon;
        cfg.compute_hosts = 2;
        Simulation::try_new(spec, topo, cfg).expect("valid simulation")
    }

    fn campaign(text: &str) -> ChaosSpec {
        sdnav_json::from_str(text).expect("valid campaign JSON")
    }

    #[test]
    fn target_grammar_round_trips() {
        for text in [
            "rack:0",
            "host:11",
            "vm:3",
            "proc:Control/2/contrail-control",
            "vproc:1/contrail-vrouter-agent",
            "leader",
        ] {
            let t = TargetRef::parse(text).expect("parses");
            assert_eq!(t.to_string(), text);
        }
        for bad in [
            "",
            "rack",
            "rack:",
            "rack:x",
            "disk:0",
            "proc:Control/2",
            "vproc:0/",
            "leader:0",
        ] {
            assert!(TargetRef::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = campaign(
            r#"{
                "name": "full",
                "seed": 9,
                "crews": {"count": 2, "discipline": "priority"},
                "injections": [
                    {"label": "a", "kind": "fail", "target": "rack:0", "at": 10.0,
                     "every": 100.0, "repair_hours": 5.0},
                    {"label": "b", "kind": "common_cause", "trigger": "rack:0",
                     "members": ["host:1", "vm:2"], "probability": 0.5, "at": 20.0},
                    {"label": "c", "kind": "maintenance", "target": "host:0",
                     "at": 30.0, "duration_hours": 4.0},
                    {"label": "d", "kind": "latent",
                     "target": "proc:Control/1/contrail-control", "at": 40.0}
                ]
            }"#,
        );
        spec.try_validate().expect("valid");
        let round: ChaosSpec =
            sdnav_json::from_str(&sdnav_json::to_string(&spec)).expect("round-trip");
        assert_eq!(spec, round);
    }

    #[test]
    fn validation_rejects_defects() {
        let base = r#"{"name": "x", "injections": []}"#;
        assert!(campaign(base).try_validate().is_ok());
        let cases = [
            (r#"{"name": " ", "injections": []}"#, "empty name"),
            (
                r#"{"name": "x", "crews": {"count": 0}, "injections": []}"#,
                "zero crews",
            ),
            (
                r#"{"name": "x", "injections": [
                    {"label": "a", "kind": "fail", "target": "rack:0", "at": -1.0}]}"#,
                "negative at",
            ),
            (
                r#"{"name": "x", "injections": [
                    {"label": "a", "kind": "fail", "target": "rack:0", "at": 0.0, "every": 0.0}]}"#,
                "zero every",
            ),
            (
                r#"{"name": "x", "injections": [
                    {"label": "a", "kind": "common_cause", "trigger": "rack:0",
                     "members": ["rack:1"], "probability": 1.5, "at": 0.0}]}"#,
                "probability out of range",
            ),
            (
                r#"{"name": "x", "injections": [
                    {"label": "a", "kind": "common_cause", "trigger": "rack:0",
                     "members": [], "probability": 0.5, "at": 0.0}]}"#,
                "empty group",
            ),
            (
                r#"{"name": "x", "injections": [
                    {"label": "a", "kind": "latent", "target": "rack:0", "at": 0.0}]}"#,
                "latent on hardware",
            ),
            (
                r#"{"name": "x", "injections": [
                    {"label": "a", "kind": "fail", "target": "rack:0", "at": 0.0},
                    {"label": "a", "kind": "fail", "target": "rack:0", "at": 1.0}]}"#,
                "duplicate label",
            ),
        ];
        for (text, why) in cases {
            assert!(campaign(text).try_validate().is_err(), "{why}");
        }
    }

    #[test]
    fn compile_expands_occurrences_and_sorts() {
        let (spec, topo) = sim_small();
        let sim = small_sim(&spec, &topo, 1_000.0);
        let c = campaign(
            r#"{"name": "x", "injections": [
                {"label": "late", "kind": "fail", "target": "vm:1", "at": 500.0},
                {"label": "tick", "kind": "fail", "target": "rack:0", "at": 100.0,
                 "every": 300.0, "repair_hours": 1.0}
            ]}"#,
        );
        let occurrences = |inj: usize, horizon: f64| -> Vec<f64> {
            c.injections[inj].occurrences(horizon).collect()
        };
        assert_eq!(occurrences(1, 1_000.0), vec![100.0, 400.0, 700.0]);
        assert_eq!(occurrences(1, 700.0), vec![100.0, 400.0]);
        assert_eq!(occurrences(0, 1_000.0), vec![500.0]);
        assert!(occurrences(0, 500.0).is_empty());
        let plan = compile(&c, &sim).expect("compiles");
        let times: Vec<f64> = plan.events.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![100.0, 400.0, 500.0, 700.0]);
        assert_eq!(plan.labels, vec!["late", "tick"]);
        // Beyond-horizon occurrences are dropped.
        assert!(plan.events.iter().all(|e| e.time < 1_000.0));
    }

    #[test]
    fn compile_rejects_unknown_targets() {
        let (spec, topo) = sim_small();
        let sim = small_sim(&spec, &topo, 1_000.0);
        for target in [
            "rack:9",
            "host:77",
            "vm:123",
            "proc:NoRole/0/x",
            "vproc:9/contrail-vrouter-agent",
        ] {
            let c = campaign(&format!(
                r#"{{"name": "x", "injections": [
                    {{"label": "a", "kind": "fail", "target": "{target}", "at": 1.0}}]}}"#
            ));
            match compile(&c, &sim) {
                Err(CompileError::UnknownTarget { .. }) => {}
                other => panic!("{target}: expected UnknownTarget, got {other:?}"),
            }
        }
    }

    #[test]
    fn fmea_elements_resolve_to_the_simulator_elements_they_name() {
        // Generated campaigns target FMEA elements by `target_str()`; the
        // verdict gate relies on each naming the same simulator element.
        let spec = ControllerSpec::opencontrail_3x();
        for topo in Topology::paper(&spec) {
            let deployment = sdnav_fmea::Deployment::new(
                &spec,
                &topo,
                sdnav_core::SwParams::paper_defaults(),
                Scenario::SupervisorNotRequired,
            );
            let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
            cfg.compute_hosts = 3;
            let sim = Simulation::try_new(&spec, &topo, cfg).expect("valid simulation");
            let (mut process, mut host_process) = (0, 0);
            for element in deployment.elements() {
                let target = TargetRef::parse(&element.target_str()).expect("target grammar");
                let resolved = resolve_target(&target, &sim).expect("element resolves");
                let expected = match element {
                    sdnav_fmea::Element::Rack { index } => InjectTarget::Rack(index),
                    sdnav_fmea::Element::Host { index } => InjectTarget::Host(index),
                    sdnav_fmea::Element::Vm { index } => InjectTarget::Vm(index),
                    sdnav_fmea::Element::Process { .. } => {
                        process += 1;
                        InjectTarget::Proc(process - 1)
                    }
                    sdnav_fmea::Element::HostProcess { .. } => {
                        host_process += 1;
                        InjectTarget::VProc(0, host_process - 1)
                    }
                };
                assert_eq!(resolved, expected, "{} on {}", element, topo.name());
            }
        }
    }

    #[test]
    fn compile_rejects_leader_target_with_pointed_error() {
        let (spec, topo) = sim_small();
        let sim = small_sim(&spec, &topo, 1_000.0);
        let c = campaign(
            r#"{"name": "x", "injections": [
                {"label": "kill-leader", "kind": "fail", "target": "leader", "at": 1.0}]}"#,
        );
        match compile(&c, &sim) {
            Err(e @ CompileError::LeaderTarget { .. }) => {
                assert!(e.to_string().contains("--consensus-spec"));
            }
            other => panic!("expected LeaderTarget, got {other:?}"),
        }
    }

    #[test]
    fn ccf_sampling_is_deterministic_and_identity_keyed() {
        let (spec, topo) = sim_small();
        let sim = small_sim(&spec, &topo, 10_000.0);
        let c = campaign(
            r#"{"name": "ccf", "seed": 4, "injections": [
                {"label": "g", "kind": "common_cause", "trigger": "host:0",
                 "members": ["host:1", "host:2"], "probability": 0.5,
                 "at": 50.0, "every": 100.0, "repair_hours": 2.0}
            ]}"#,
        );
        let a = compile(&c, &sim).expect("compiles");
        let b = compile(&c, &sim).expect("compiles");
        assert_eq!(a, b, "same campaign, same plan");
        // p=0.5 over ~100 occurrences × 2 members: both outcomes occur.
        let per_occurrence: Vec<usize> = {
            let mut counts = std::collections::BTreeMap::new();
            for e in &a.events {
                *counts.entry(e.time.to_bits()).or_insert(0usize) += 1;
            }
            counts.into_values().collect()
        };
        assert!(per_occurrence.iter().any(|&n| n > 1), "some members fail");
        assert!(per_occurrence.contains(&1), "some members survive");
        // A different campaign seed flips some draws.
        let mut c2 = c.clone();
        c2.seed = 5;
        let d = compile(&c2, &sim).expect("compiles");
        assert_ne!(a, d);
        // The trigger is always first within its occurrence.
        let first_at_50: &PlannedEvent = a
            .events
            .iter()
            .find(|e| e.time == 50.0)
            .expect("first occurrence");
        assert_eq!(first_at_50.target, InjectTarget::Host(0));
    }

    #[test]
    fn probability_bounds_are_exact() {
        let (spec, topo) = sim_small();
        let sim = small_sim(&spec, &topo, 1_000.0);
        for (p, members_each) in [(1.0, 3), (0.0, 1)] {
            let c = campaign(&format!(
                r#"{{"name": "x", "injections": [
                    {{"label": "g", "kind": "common_cause", "trigger": "host:0",
                     "members": ["host:1", "host:2"], "probability": {p:?},
                     "at": 10.0, "every": 50.0}}]}}"#
            ));
            let plan = compile(&c, &sim).expect("compiles");
            let at_10 = plan.events.iter().filter(|e| e.time == 10.0).count();
            assert_eq!(at_10, members_each, "p={p}");
        }
    }

    #[test]
    fn end_to_end_ledger_attributes_injected_outage() {
        let (spec, topo) = sim_small();
        let sim = small_sim(&spec, &topo, 5_000.0);
        let c = campaign(
            r#"{"name": "kill", "injections": [
                {"label": "rack0", "kind": "fail", "target": "rack:0",
                 "at": 3000.0, "repair_hours": 48.0}
            ]}"#,
        );
        let plan = compile(&c, &sim).expect("compiles");
        let result = sim.run_injected(7, &plan);
        let rendered = report(&c, &result);
        let ledger = result.ledger.expect("ledger");
        let injected: f64 = ledger
            .cp_outages
            .iter()
            .filter(|o| o.root_cause == Cause::Injection(0))
            .map(|o| o.duration())
            .sum();
        assert!((injected - 48.0).abs() < 1e-6, "injected={injected}");
        // The report names causes by label and totals consistently.
        let text = rendered.to_compact();
        assert!(text.contains("\"sdnav-chaos-report/v1\""));
        assert!(text.contains("\"rack0\""));
        assert!(text.contains("\"organic\""));
        // The ledger surfaces the per-host DP outage windows, including
        // windows opened by the injection.
        let windows = rendered
            .get("ledger")
            .and_then(|l| l.get("dp_windows"))
            .expect("dp_windows in report");
        match windows {
            Json::Arr(rows) => {
                assert!(!rows.is_empty(), "rack kill opens DP windows");
                assert!(rows
                    .iter()
                    .any(|w| w.get("cause").and_then(|c| c.as_str().ok()) == Some("rack0")));
            }
            other => panic!("dp_windows should be an array, got {other:?}"),
        }
        // Report is deterministic.
        let again = report(&c, &sim.run_injected(7, &plan));
        assert_eq!(text, again.to_compact());
        // Digesting collapses the timeline arrays but keeps scalars.
        let digest = digest_report(&rendered);
        let dtext = digest.to_compact();
        assert!(dtext.contains("\"sdnav-chaos-digest/v1\""));
        assert!(dtext.contains("\"source_schema\":\"sdnav-chaos-report/v1\""));
        assert_eq!(
            digest.get("cp_availability").map(Json::to_compact),
            rendered.get("cp_availability").map(Json::to_compact),
        );
    }

    #[test]
    fn occurrence_cap_is_enforced() {
        let (spec, topo) = sim_small();
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        cfg.horizon_hours = 200_000.0;
        cfg.compute_hosts = 2;
        let sim = Simulation::try_new(&spec, &topo, cfg).expect("valid simulation");
        let c = campaign(
            r#"{"name": "x", "injections": [
                {"label": "storm", "kind": "fail", "target": "vm:0",
                 "at": 0.0, "every": 0.001}]}"#,
        );
        match compile(&c, &sim) {
            Err(CompileError::TooManyOccurrences { .. }) => {}
            other => panic!("expected TooManyOccurrences, got {other:?}"),
        }
    }
}
