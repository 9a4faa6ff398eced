//! Checks over parameter sets, simulator configurations, and CTMC
//! generators.

use sdnav_core::{HwParams, ParamError, SwParams};
use sdnav_markov::Ctmc;
use sdnav_sim::{ConfigError, SimConfig};

use crate::ir::config_element_ctmcs;
use crate::{AuditReport, Diagnostic};

/// One SA008 error per parameter-set violation, under `prefix`.
fn param_report(prefix: &str, violations: Vec<ParamError>) -> AuditReport {
    let mut r = AuditReport::new();
    for e in violations {
        // `auto` and `manual` are the process availabilities.
        let nested = if matches!(e.field, "auto" | "manual") {
            "process/"
        } else {
            ""
        };
        r.push(Diagnostic::error(
            "SA008",
            format!("{prefix}/{nested}{}", e.field),
            e.to_string(),
            "availabilities are probabilities in [0, 1]",
        ));
    }
    r
}

/// Lints the HW-centric parameter set: every [`HwParams::violations`]
/// finding is an SA008 error.
#[must_use]
pub fn audit_hw_params(params: &HwParams) -> AuditReport {
    param_report("hw_params", params.violations())
}

/// Lints the SW-centric parameter set: every [`SwParams::violations`]
/// finding is an SA008 error.
#[must_use]
pub fn audit_sw_params(params: &SwParams) -> AuditReport {
    param_report("sw_params", params.violations())
}

/// Lints a simulator configuration:
///
/// * SA011 errors — every [`SimConfig::violations`] finding;
/// * SA009 warnings — MTTR ≥ MTBF on any element class, or a restart time
///   at or above the process MTBF (availability below 50%, almost always a
///   unit slip: hours where minutes were meant, or vice versa);
/// * SA011 warnings — statistical-quality smells: warm-up discarding half
///   the run or more, and batches shorter than 10× the slowest repair
///   (batch means would be strongly correlated, understating the
///   confidence interval).
#[must_use]
pub fn audit_sim_config(config: &SimConfig) -> AuditReport {
    let mut r = AuditReport::new();
    for e in config.violations() {
        let (path, hint) = match e {
            ConfigError::BadMttr(element, _) => (
                format!("sim/{}/mttr", element.to_ascii_lowercase()),
                "repair times must be finite and non-negative",
            ),
            _ => (
                "sim".to_owned(),
                "fix the configuration value; see SimConfig::try_validate",
            ),
        };
        r.push(Diagnostic::error("SA011", path, e.to_string(), hint));
    }
    let elements = [
        ("rack", config.rack),
        ("host", config.host),
        ("vm", config.vm),
    ];
    for (name, rates) in elements {
        if rates.mtbf > 0.0 && rates.mttr >= rates.mtbf && rates.mttr.is_finite() {
            r.push(Diagnostic::warn(
                "SA009",
                format!("sim/{name}"),
                format!(
                    "{name} MTTR ({} h) is at or above its MTBF ({} h): availability ≤ 50%",
                    rates.mttr, rates.mtbf
                ),
                "this is usually a unit slip (hours vs minutes); check both values",
            ));
        }
    }
    for (name, restart) in [
        ("auto_restart", config.auto_restart),
        ("manual_restart", config.manual_restart),
    ] {
        if config.process_mtbf.is_finite()
            && config.process_mtbf > 0.0
            && restart.is_finite()
            && restart >= config.process_mtbf
        {
            r.push(Diagnostic::warn(
                "SA009",
                format!("sim/{name}"),
                format!(
                    "{name} ({restart} h) is at or above the process MTBF \
                     ({} h): availability ≤ 50%",
                    config.process_mtbf
                ),
                "this is usually a unit slip (hours vs minutes); check both values",
            ));
        }
    }
    if (0.5..1.0).contains(&config.warmup_fraction) {
        r.push(Diagnostic::warn(
            "SA011",
            "sim/warmup_fraction",
            format!(
                "warm-up discards {:.0}% of the run",
                config.warmup_fraction * 100.0
            ),
            "steady state is usually reached well before 50% of the horizon; \
             lengthen the horizon instead of the warm-up",
        ));
    }
    if config.horizon_hours.is_finite() && config.horizon_hours > 0.0 && config.batches >= 2 {
        let measured = config.horizon_hours * (1.0 - config.warmup_fraction.clamp(0.0, 1.0));
        let batch_len = measured / config.batches as f64;
        let slowest_repair = [
            config.rack.mttr,
            config.host.mttr,
            config.vm.mttr,
            config.manual_restart,
            config.supervisor_window,
        ]
        .into_iter()
        .filter(|v| v.is_finite())
        .fold(0.0_f64, f64::max);
        if batch_len < 10.0 * slowest_repair {
            r.push(Diagnostic::warn(
                "SA011",
                "sim/batches",
                format!(
                    "batch length {batch_len:.1} h is under 10x the slowest repair \
                     ({slowest_repair:.1} h); batch means will be correlated"
                ),
                "lengthen the horizon or reduce the batch count",
            ));
        }
    }
    r
}

/// Lints a CTMC generator rooted at `origin`:
///
/// * SA010 errors — a negative or non-finite off-diagonal rate, or a
///   generator row whose entries do not sum to zero (with the implied
///   diagonal `q_ii = −Σ q_ij` this flags non-finite rows);
/// * SA010 warnings — absorbing states (zero exit rate) and unreachable
///   states (zero in-rate): both make steady-state availability undefined
///   or trivial, which is almost never intended in a repairable model.
#[must_use]
pub fn audit_ctmc(ctmc: &Ctmc, origin: &str) -> AuditReport {
    let mut r = AuditReport::new();
    let n = ctmc.len();
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i == j {
                continue;
            }
            let rate = ctmc.rate(i, j);
            if !rate.is_finite() || rate < 0.0 {
                r.push(Diagnostic::error(
                    "SA010",
                    format!("{origin}/state{i}"),
                    format!("rate {i} -> {j} is {rate}"),
                    "transition rates must be finite and non-negative",
                ));
            }
            row_sum += rate;
        }
        // With the implied diagonal the row sums to exactly zero whenever
        // the off-diagonals are finite; a non-finite sum is the residue.
        if !(row_sum - ctmc.exit_rate(i)).abs().eq(&0.0) || !row_sum.is_finite() {
            r.push(Diagnostic::error(
                "SA010",
                format!("{origin}/state{i}"),
                format!("generator row {i} does not sum to zero"),
                "check the row's rates for overflow or NaN",
            ));
        }
    }
    if n > 1 {
        for i in 0..n {
            if ctmc.exit_rate(i) == 0.0 {
                r.push(Diagnostic::warn(
                    "SA010",
                    format!("{origin}/state{i}"),
                    format!("state {i} is absorbing (zero exit rate)"),
                    "repairable availability models need every state to be \
                     left eventually; add a repair transition",
                ));
            }
            let in_rate: f64 = (0..n).filter(|&j| j != i).map(|j| ctmc.rate(j, i)).sum();
            if in_rate == 0.0 {
                r.push(Diagnostic::warn(
                    "SA010",
                    format!("{origin}/state{i}"),
                    format!("state {i} is unreachable (zero in-rate)"),
                    "the state can only matter as the initial state; is it intended?",
                ));
            }
        }
    }
    r
}

/// Audits the two-state failure/repair chains implied by a simulator
/// configuration's rates (process, rack, host, VM), as
/// [`config_element_ctmcs`] derives them: only for element classes with
/// usable rates, since broken rates are already flagged by
/// [`audit_sim_config`].
#[must_use]
pub fn audit_config_ctmcs(config: &SimConfig) -> AuditReport {
    let mut r = AuditReport::new();
    for element in config_element_ctmcs(config) {
        r.merge(audit_ctmc(&element.ctmc, &element.origin));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use sdnav_core::Scenario;
    use sdnav_sim::{ConnectionModel, ElementRates};

    fn config() -> SimConfig {
        SimConfig::paper_defaults(Scenario::SupervisorNotRequired)
    }

    #[test]
    fn sa008_bad_hw_and_sw_params() {
        let hw = HwParams {
            a_c: 1.5,
            a_v: f64::NAN,
            ..HwParams::paper_defaults()
        };
        let r = audit_hw_params(&hw);
        assert_eq!(r.error_count(), 2);
        assert!(r.diagnostics().iter().all(|d| d.code == "SA008"));
        assert!(r.diagnostics()[0].path.contains("a_c"));

        let mut sw = SwParams::paper_defaults();
        sw.process.manual = -0.1;
        let r = audit_sw_params(&sw);
        assert_eq!(r.error_count(), 1);
        assert!(r.diagnostics()[0].path.contains("process/manual"));
        assert!(audit_sw_params(&SwParams::paper_defaults()).is_clean());
    }

    #[test]
    fn sa009_mttr_at_or_above_mtbf() {
        let mut c = config();
        c.host = ElementRates {
            mtbf: 10.0,
            mttr: 20.0,
        };
        let r = audit_sim_config(&c);
        let d = r
            .diagnostics()
            .iter()
            .find(|d| d.code == "SA009")
            .expect("SA009 reported");
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.path.contains("host"));
        assert!(d.message.contains("unit slip") || d.hint.contains("unit slip"));
    }

    #[test]
    fn sa009_restart_above_process_mtbf() {
        let mut c = config();
        c.manual_restart = c.process_mtbf * 2.0;
        let r = audit_sim_config(&c);
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA009" && d.path.contains("manual_restart")));
    }

    #[test]
    fn sa011_config_errors_are_mapped() {
        let mut c = config();
        c.batches = 1;
        let r = audit_sim_config(&c);
        assert!(r.diagnostics().iter().any(|d| d.code == "SA011"
            && d.severity == Severity::Error
            && d.message.contains("two batches")));

        let mut c = config();
        c.connection = ConnectionModel::Failover {
            rediscovery_hours: 0.0,
        };
        assert!(audit_sim_config(&c).has_code("SA011"));

        let mut c = config();
        c.vm.mttr = f64::NAN;
        let r = audit_sim_config(&c);
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA011" && d.path == "sim/vm/mttr"));
    }

    #[test]
    fn sa011_reports_every_config_violation_in_check_order() {
        let mut c = config();
        c.warmup_fraction = 1.5;
        c.batches = 1;
        c.compute_hosts = 0;
        let r = audit_sim_config(&c);
        let errors: Vec<(&str, &str)> = r
            .diagnostics()
            .iter()
            .map(|d| (d.code, d.message.as_str()))
            .collect();
        assert_eq!(
            errors,
            [
                ("SA011", "warmup fraction must be in [0, 1), got 1.5"),
                ("SA011", "need at least two batches"),
                ("SA011", "need at least one compute host"),
            ],
            "{}",
            r.render()
        );
    }

    #[test]
    fn sa011_warmup_and_batch_length_warnings() {
        let mut c = config();
        c.warmup_fraction = 0.6;
        let r = audit_sim_config(&c);
        assert!(r.diagnostics().iter().any(|d| d.code == "SA011"
            && d.severity == Severity::Warn
            && d.path.contains("warmup")));

        let mut c = config();
        c.horizon_hours = 2000.0; // 20 batches x 95 h < 10 x 48 h rack repair
        let r = audit_sim_config(&c);
        assert!(r.diagnostics().iter().any(|d| d.code == "SA011"
            && d.severity == Severity::Warn
            && d.path.contains("batches")));
    }

    #[test]
    fn sa010_absorbing_and_unreachable_states() {
        let mut chain = Ctmc::new(2);
        chain.add_transition(0, 1, 1.0);
        let r = audit_ctmc(&chain, "ctmc/test");
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA010" && d.message.contains("absorbing")));
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA010" && d.message.contains("unreachable")));
        assert_eq!(r.warning_count(), 2);
        assert!(!r.has_errors());
    }

    #[test]
    fn sa010_healthy_chains_are_clean() {
        let mut chain = Ctmc::new(3);
        for i in 0..2 {
            chain.add_transition(i, i + 1, 0.5);
            chain.add_transition(i + 1, i, 2.0);
        }
        assert!(audit_ctmc(&chain, "ctmc/test").is_clean());
        // Single-state chains are trivially fine.
        assert!(audit_ctmc(&Ctmc::new(1), "ctmc/one").is_clean());
        assert!(audit_config_ctmcs(&config()).is_clean());
    }

    #[test]
    fn paper_config_audits_clean() {
        for scenario in [
            Scenario::SupervisorRequired,
            Scenario::SupervisorNotRequired,
        ] {
            let r = audit_sim_config(&SimConfig::paper_defaults(scenario));
            assert!(r.is_clean(), "{}", r.render());
        }
    }
}
