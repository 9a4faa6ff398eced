//! Parameter sensitivity analysis.
//!
//! The paper's purpose statement: the models are used to "predict
//! availability and quantify sensitivity to underlying platform and
//! process resiliency." This module makes that quantitative for any
//! topology/scenario: for each model parameter it computes
//!
//! * the **derivative** `∂A_sys/∂A_p` — how much system availability moves
//!   per unit of parameter availability (a Birnbaum-style measure), and
//! * the **downtime share** `(∂U_sys/∂U_p)·U_p/U_sys` — the fraction of
//!   current system downtime attributable to that parameter (a criticality
//!   measure). A share *above* 100% is meaningful: it marks a parameter a
//!   `k`-of-`n` quorum protects, where system downtime scales
//!   superlinearly (`U_sys ∝ U_p²` for 2-of-3, so the elasticity is ≈ 2).
//!
//! Rankings answer the operational question the paper closes with: *which
//! knob buys the most downtime reduction?*
//!
//! ```
//! use sdnav_core::sensitivity::hw;
//! use sdnav_core::{ControllerSpec, HwParams, Topology};
//!
//! let spec = ControllerSpec::opencontrail_3x();
//! // In the Small topology, the single rack owns ~90% of the downtime.
//! let ranking = hw(&spec, &Topology::small(&spec), HwParams::paper_defaults())
//!     .expect("valid HW model");
//! assert_eq!(ranking[0].parameter, "A_R");
//! assert!(ranking[0].downtime_share > 0.8);
//! ```

use crate::{ControllerSpec, HwModel, HwParams, ModelError, Scenario, SwModel, SwParams, Topology};

/// Sensitivity of the system metric to one parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSensitivity {
    /// Parameter name (`A_C`, `A`, `A_S`, `A_V`, `A_H`, `A_R`).
    pub parameter: String,
    /// The parameter's current value.
    pub value: f64,
    /// `∂A_sys/∂A_p` (central finite difference).
    pub derivative: f64,
    /// Fraction of system downtime attributable to this parameter:
    /// `derivative · (1−A_p) / (1−A_sys)`.
    pub downtime_share: f64,
}

fn central_difference(
    value: f64,
    eval: impl Fn(f64) -> Result<f64, ModelError>,
) -> Result<f64, ModelError> {
    // Step small relative to the parameter's distance from 1 (its
    // unavailability), but never denormal.
    let h = ((1.0 - value) * 0.01).clamp(1e-9, 1e-4);
    let hi = (value + h).min(1.0);
    let lo = value - h;
    Ok((eval(hi)? - eval(lo)?) / (hi - lo))
}

fn build(
    name: &str,
    value: f64,
    base_availability: f64,
    eval: impl Fn(f64) -> Result<f64, ModelError>,
) -> Result<ParamSensitivity, ModelError> {
    let derivative = central_difference(value, eval)?;
    let u_sys = 1.0 - base_availability;
    let downtime_share = if u_sys > 0.0 {
        derivative * (1.0 - value) / u_sys
    } else {
        0.0
    };
    Ok(ParamSensitivity {
        parameter: name.to_owned(),
        value,
        derivative,
        downtime_share,
    })
}

fn ranked(mut out: Vec<ParamSensitivity>) -> Vec<ParamSensitivity> {
    out.sort_by(|a, b| {
        b.downtime_share
            .partial_cmp(&a.downtime_share)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// Sensitivities of the HW-centric controller availability to
/// `A_C`, `A_V`, `A_H`, `A_R`, ranked by downtime share.
///
/// # Errors
///
/// The [`ModelError`] of [`HwModel::try_new`] at `params` or at a
/// perturbed parameter.
pub fn hw(
    spec: &ControllerSpec,
    topology: &Topology,
    params: HwParams,
) -> Result<Vec<ParamSensitivity>, ModelError> {
    let eval = |p: HwParams| Ok(HwModel::try_new(spec, topology, p)?.availability());
    let base = eval(params)?;
    Ok(ranked(vec![
        build("A_C", params.a_c, base, |v| {
            eval(HwParams { a_c: v, ..params })
        })?,
        build("A_V", params.a_v, base, |v| {
            eval(HwParams { a_v: v, ..params })
        })?,
        build("A_H", params.a_h, base, |v| {
            eval(HwParams { a_h: v, ..params })
        })?,
        build("A_R", params.a_r, base, |v| {
            eval(HwParams { a_r: v, ..params })
        })?,
    ]))
}

/// Which SW-centric metric to analyze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwMetric {
    /// SDN control-plane availability.
    ControlPlane,
    /// Per-host data-plane availability.
    HostDataPlane,
}

/// Sensitivities of a SW-centric metric to `A`, `A_S`, `A_V`, `A_H`,
/// `A_R`, ranked by downtime share.
///
/// # Errors
///
/// The [`ModelError`] of [`SwModel::try_new`] at `params` or at a
/// perturbed parameter.
pub fn sw(
    spec: &ControllerSpec,
    topology: &Topology,
    params: SwParams,
    scenario: Scenario,
    metric: SwMetric,
) -> Result<Vec<ParamSensitivity>, ModelError> {
    let eval = |p: SwParams| {
        let model = SwModel::try_new(spec, topology, p, scenario)?;
        Ok(match metric {
            SwMetric::ControlPlane => model.cp_availability(),
            SwMetric::HostDataPlane => model.host_dp_availability(),
        })
    };
    let base = eval(params)?;
    let with_auto = |v: f64| {
        let mut p = params;
        p.process.auto = v;
        p
    };
    let with_manual = |v: f64| {
        let mut p = params;
        p.process.manual = v;
        p
    };
    Ok(ranked(vec![
        build("A (auto)", params.process.auto, base, |v| {
            eval(with_auto(v))
        })?,
        build("A_S (manual)", params.process.manual, base, |v| {
            eval(with_manual(v))
        })?,
        build("A_V", params.a_v, base, |v| {
            eval(SwParams { a_v: v, ..params })
        })?,
        build("A_H", params.a_h, base, |v| {
            eval(SwParams { a_h: v, ..params })
        })?,
        build("A_R", params.a_r, base, |v| {
            eval(SwParams { a_r: v, ..params })
        })?,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    #[test]
    fn hw_small_is_rack_dominated() {
        // In the Small topology virtually all downtime is the single rack.
        let s = spec();
        let ranking = hw(&s, &Topology::small(&s), HwParams::paper_defaults()).unwrap();
        assert_eq!(ranking[0].parameter, "A_R");
        assert!(ranking[0].downtime_share > 0.8, "{:?}", ranking[0]);
    }

    #[test]
    fn hw_large_shifts_to_roles() {
        // With three racks the quorum protects against rack loss; the role
        // availability becomes the lever.
        let s = spec();
        let ranking = hw(&s, &Topology::large(&s), HwParams::paper_defaults()).unwrap();
        assert_eq!(ranking[0].parameter, "A_C");
        let rack = ranking.iter().find(|p| p.parameter == "A_R").unwrap();
        assert!(rack.downtime_share < 0.2, "{rack:?}");
    }

    #[test]
    fn derivatives_are_nonnegative() {
        let s = spec();
        for topo in [Topology::small(&s), Topology::large(&s)] {
            for p in hw(&s, &topo, HwParams::paper_defaults()).unwrap() {
                assert!(p.derivative >= 0.0, "{p:?}");
            }
            for metric in [SwMetric::ControlPlane, SwMetric::HostDataPlane] {
                for p in sw(
                    &s,
                    &topo,
                    SwParams::paper_defaults(),
                    Scenario::SupervisorRequired,
                    metric,
                )
                .unwrap()
                {
                    assert!(p.derivative >= 0.0, "{p:?}");
                }
            }
        }
    }

    #[test]
    fn dp_is_dominated_by_processes() {
        // §VI.G/§VII: the host DP's weak link is the vRouter software, so
        // process availability (A, and A_S when the supervisor is
        // required) must dominate the DP ranking.
        let s = spec();
        let ranking = sw(
            &s,
            &Topology::large(&s),
            SwParams::paper_defaults(),
            Scenario::SupervisorRequired,
            SwMetric::HostDataPlane,
        )
        .unwrap();
        assert_eq!(ranking[0].parameter, "A_S (manual)");
        assert!(ranking[0].downtime_share > 0.5);
        let second = &ranking[1];
        assert_eq!(second.parameter, "A (auto)");
    }

    #[test]
    fn cp_ranking_shifts_with_scenario() {
        // Requiring the supervisor increases the A_S share of CP downtime.
        let s = spec();
        let topo = Topology::large(&s);
        let share = |scenario| {
            sw(
                &s,
                &topo,
                SwParams::paper_defaults(),
                scenario,
                SwMetric::ControlPlane,
            )
            .unwrap()
            .into_iter()
            .find(|p| p.parameter == "A_S (manual)")
            .unwrap()
            .downtime_share
        };
        assert!(share(Scenario::SupervisorRequired) > share(Scenario::SupervisorNotRequired));
    }

    #[test]
    fn shares_roughly_partition_downtime() {
        // For near-series systems the downtime shares roughly partition
        // unity; each parameter drives several physical elements (3 VMs,
        // 3 hosts, 16 process groups, …), and quorum redundancy makes the
        // marginal effect superlinear, so the sum overshoots 1 by the
        // redundancy factor — about 10% here.
        let s = spec();
        let total: f64 = sw(
            &s,
            &Topology::small(&s),
            SwParams::paper_defaults(),
            Scenario::SupervisorNotRequired,
            SwMetric::ControlPlane,
        )
        .unwrap()
        .iter()
        .map(|p| p.downtime_share)
        .sum();
        assert!((total - 1.0).abs() < 0.2, "total={total}");
    }

    #[test]
    fn perfect_parameter_has_zero_share() {
        let s = spec();
        let p = HwParams {
            a_r: 1.0,
            ..HwParams::paper_defaults()
        };
        let ranking = hw(&s, &Topology::small(&s), p).unwrap();
        let rack = ranking.iter().find(|x| x.parameter == "A_R").unwrap();
        assert_eq!(rack.downtime_share, 0.0);
        // The derivative itself is still meaningful (>0: a rack *can* hurt).
        assert!(rack.derivative > 0.0);
    }
}
