//! The semantic model IR: everything the audit passes analyze, derived
//! **once** per study instead of ad hoc inside each pass.
//!
//! Historically every pass re-derived its own view of the model —
//! `audit_model` built topologies and configs inline, the campaign pass
//! expanded maintenance windows privately, and a cost estimate would have
//! had to re-derive all of it again. The IR centralizes that derivation
//! into two typed graphs:
//!
//! * [`ModelIr`] — the per-spec study graph: reference topologies, the
//!   control-/data-plane RBDs, paper-default parameter sets, both
//!   scenarios' simulator configurations, and the named two-state
//!   failure/repair CTMC of every element class. Built by
//!   [`ModelIr::build`], consumed by [`crate::audit_ir`].
//! * [`ScheduleIr`] — the per-campaign schedule graph: each injection's
//!   resolved target plus every *statically provable* down-window
//!   (maintenance windows, and fail/common-cause-trigger windows with a
//!   fixed `repair_hours`), expanded across `every` repetitions up to the
//!   horizon. Consumed by the SA022 quorum check and the SA027–SA029
//!   schedule-interference checks in [`crate::schedule`].

use sdnav_chaos::{resolve_target, ChaosSpec, InjectionKind, MAX_OCCURRENCES};
use sdnav_core::{ControllerSpec, HwParams, Scenario, SwParams, Topology};
use sdnav_markov::Ctmc;
use sdnav_sim::{InjectTarget, SimConfig, Simulation};

use crate::rbd::{cp_rbd, dp_rbd};

/// A named element-class CTMC derived from a simulator configuration.
#[derive(Debug, Clone)]
pub struct ElementCtmc {
    /// Diagnostic path prefix, e.g. `ctmc/process`.
    pub origin: String,
    /// The two-state failure/repair chain.
    pub ctmc: Ctmc,
}

/// The typed study graph every whole-model audit pass walks: spec,
/// reference topologies, derived RBDs, paper-default parameters, both
/// scenarios' simulator configurations, and the element CTMCs they imply.
#[derive(Debug, Clone)]
pub struct ModelIr<'a> {
    /// The controller spec the study is built from.
    pub spec: &'a ControllerSpec,
    /// The paper's Small / Medium / Large reference topologies.
    pub topologies: Vec<Topology>,
    /// Control-plane reliability block diagram derived from the spec.
    pub cp_rbd: sdnav_blocks::Block,
    /// Data-plane reliability block diagram derived from the spec.
    pub dp_rbd: sdnav_blocks::Block,
    /// Paper-default hardware-model parameters.
    pub hw_params: HwParams,
    /// Paper-default software-model parameters.
    pub sw_params: SwParams,
    /// Paper-default simulator configurations, one per scenario, in
    /// `[SupervisorRequired, SupervisorNotRequired]` order.
    pub configs: Vec<SimConfig>,
    /// Per-config element CTMCs in config order (process, rack, host, vm
    /// for each config), skipping element classes whose rates are unusable.
    pub element_ctmcs: Vec<ElementCtmc>,
}

impl<'a> ModelIr<'a> {
    /// Derives the full study graph from a spec with the paper's default
    /// parameters. Derivation is total: element classes whose rates cannot
    /// form a CTMC are skipped here and reported by the config audit.
    #[must_use]
    pub fn build(spec: &'a ControllerSpec) -> Self {
        let configs: Vec<SimConfig> = [
            Scenario::SupervisorRequired,
            Scenario::SupervisorNotRequired,
        ]
        .into_iter()
        .map(SimConfig::paper_defaults)
        .collect();
        let element_ctmcs = configs.iter().flat_map(config_element_ctmcs).collect();
        ModelIr {
            spec,
            topologies: Topology::paper(spec).into(),
            cp_rbd: cp_rbd(spec),
            dp_rbd: dp_rbd(spec),
            hw_params: HwParams::paper_defaults(),
            sw_params: SwParams::paper_defaults(),
            configs,
            element_ctmcs,
        }
    }
}

/// Derives the named two-state failure/repair chains implied by a
/// simulator configuration, skipping element classes whose `(mtbf, mttr)`
/// pair cannot form a generator (those are SA008/SA011 findings, not IR).
#[must_use]
pub fn config_element_ctmcs(config: &SimConfig) -> Vec<ElementCtmc> {
    [
        ("process", config.process_mtbf, config.auto_restart),
        ("rack", config.rack.mtbf, config.rack.mttr),
        ("host", config.host.mtbf, config.host.mttr),
        ("vm", config.vm.mtbf, config.vm.mttr),
    ]
    .into_iter()
    .filter(|(_, mtbf, mttr)| mtbf.is_finite() && *mtbf > 0.0 && mttr.is_finite() && *mttr > 0.0)
    .map(|(name, mtbf, mttr)| {
        let mut ctmc = Ctmc::new(2);
        ctmc.add_transition(0, 1, 1.0 / mtbf);
        ctmc.add_transition(1, 0, 1.0 / mttr);
        ElementCtmc {
            origin: format!("ctmc/{name}"),
            ctmc,
        }
    })
    .collect()
}

/// What kind of statically provable down-window a schedule entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// A maintenance window: the target is administratively down for a
    /// declared `duration_hours`.
    Maintenance,
    /// A forced failure (or common-cause trigger) with a fixed
    /// `repair_hours`, so the outage duration is known statically.
    Repair,
}

/// One statically provable down-window of one injection occurrence.
#[derive(Debug, Clone)]
pub struct ScheduleWindow {
    /// Index of the injection in `campaign.injections`.
    pub injection: usize,
    /// Window start (hours).
    pub start: f64,
    /// Window end (hours, exclusive).
    pub end: f64,
    /// Maintenance or fixed-duration repair.
    pub kind: WindowKind,
    /// The resolved element the window takes down.
    pub target: InjectTarget,
    /// Distinct `(requirement, node)` CP member blocks the target takes
    /// down, from [`sdnav_core::Structure::cp_blocks_downed_by`].
    pub blocks: Vec<(usize, usize)>,
}

/// The per-campaign schedule graph: resolved targets and every statically
/// provable down-window, expanded across `every` repetitions up to the
/// horizon (capped at [`MAX_OCCURRENCES`] so the audit terminates even on
/// campaigns `compile()` would reject).
#[derive(Debug, Clone)]
pub struct ScheduleIr {
    /// Per-injection resolved primary target (`None` when unresolvable —
    /// an SA020 finding, reported separately).
    pub resolved: Vec<Option<InjectTarget>>,
    /// All provable down-windows, in injection order then occurrence order.
    pub windows: Vec<ScheduleWindow>,
}

impl ScheduleIr {
    /// Builds the schedule graph for `campaign` against the deployment
    /// `sim`, using `sim`'s horizon to bound occurrence expansion.
    #[must_use]
    pub fn build(campaign: &ChaosSpec, sim: &Simulation<'_>) -> Self {
        let horizon = sim.config().horizon_hours;
        let mut resolved = Vec::with_capacity(campaign.injections.len());
        let mut windows = Vec::new();
        for (i, inj) in campaign.injections.iter().enumerate() {
            let primary = match &inj.kind {
                InjectionKind::Fail { target, .. }
                | InjectionKind::Maintenance { target, .. }
                | InjectionKind::Latent { target } => resolve_target(target, sim).ok(),
                InjectionKind::CommonCause { trigger, .. } => resolve_target(trigger, sim).ok(),
            };
            resolved.push(primary);
            let (kind, duration) = match &inj.kind {
                InjectionKind::Maintenance { duration_hours, .. } => {
                    (WindowKind::Maintenance, Some(*duration_hours))
                }
                // Only a *fixed* repair time is statically provable; organic
                // repair (repair_hours: None) has stochastic duration.
                InjectionKind::Fail { repair_hours, .. }
                | InjectionKind::CommonCause { repair_hours, .. } => {
                    (WindowKind::Repair, *repair_hours)
                }
                InjectionKind::Latent { .. } => continue,
            };
            let (Some(target), Some(duration)) = (primary, duration) else {
                continue;
            };
            if !inj.at.is_finite() || !duration.is_finite() || duration <= 0.0 {
                continue;
            }
            let structure = sim.structure();
            let blocks = target
                .element(structure)
                .map_or_else(Vec::new, |elem| structure.cp_blocks_downed_by(elem));
            for start in inj.occurrences(horizon).take(MAX_OCCURRENCES) {
                windows.push(ScheduleWindow {
                    injection: i,
                    start,
                    end: start + duration,
                    kind,
                    target,
                    blocks: blocks.clone(),
                });
            }
        }
        ScheduleIr { resolved, windows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnav_core::ControllerSpec;

    fn small_sim<'a>(spec: &'a ControllerSpec, topo: &'a Topology) -> Simulation<'a> {
        let mut config = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        config.horizon_hours = 10_000.0;
        config.compute_hosts = 2;
        Simulation::try_new(spec, topo, config).expect("valid simulation")
    }

    #[test]
    fn model_ir_derives_everything_once() {
        let spec = ControllerSpec::opencontrail_3x();
        let ir = ModelIr::build(&spec);
        assert_eq!(ir.topologies.len(), 3);
        assert_eq!(ir.configs.len(), 2);
        // 4 element classes × 2 configs, all usable under paper defaults.
        assert_eq!(ir.element_ctmcs.len(), 8);
        assert!(ir.element_ctmcs.iter().any(|e| e.origin == "ctmc/rack"));
    }

    #[test]
    fn schedule_ir_expands_provable_windows_only() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        let c: ChaosSpec = sdnav_json::from_str(
            r#"{"name": "x", "injections": [
                {"label": "fixed", "kind": "fail", "target": "rack:0",
                 "at": 100.0, "repair_hours": 24.0},
                {"label": "organic", "kind": "fail", "target": "host:0",
                 "at": 200.0},
                {"label": "maint", "kind": "maintenance", "target": "vm:0",
                 "at": 1000.0, "every": 2000.0, "duration_hours": 4.0},
                {"label": "dormant", "kind": "latent", "target": "vm:1",
                 "at": 1.0}
            ]}"#,
        )
        .unwrap();
        let sched = ScheduleIr::build(&c, &sim);
        assert_eq!(sched.resolved.iter().filter(|r| r.is_some()).count(), 4);
        // One fixed repair window + 5 maintenance occurrences (1000, 3000,
        // 5000, 7000, 9000); the organic fail and the latent fault have no
        // provable duration.
        let repairs = sched
            .windows
            .iter()
            .filter(|w| w.kind == WindowKind::Repair)
            .count();
        let maints = sched
            .windows
            .iter()
            .filter(|w| w.kind == WindowKind::Maintenance)
            .count();
        assert_eq!((repairs, maints), (1, 5));
        let fixed = &sched.windows[0];
        assert_eq!((fixed.start, fixed.end), (100.0, 124.0));
        assert!(!fixed.blocks.is_empty(), "rack takes CP members down");
    }
}
