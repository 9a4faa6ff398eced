//! Unit metadata for spec-level rate overrides.
//!
//! The paper's parameter tables mix three ways of writing the same physical
//! fact: mean times (hours), rates (per hour), and FIT counts (failures per
//! 10⁹ device-hours). A [`Quantity`] carries a value plus an optional
//! declared [`Unit`], and [`SpecRates`] attaches such quantities to a
//! [`ControllerSpec`](crate::ControllerSpec) so the audit layer can check
//! dimensional consistency end to end (spec → params → RBD → CTMC → sim
//! config) instead of trusting bare `f64`s.

use std::fmt;

use sdnav_json::{FromJson, Json, JsonError, ToJson};

/// Hours in 10⁹ device-hours: the FIT scale (1 FIT ⇔ MTBF of `1e9` hours).
pub const FIT_SCALE: f64 = 1.0e9;

/// Dimension of a numeric model parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Mean time (MTBF, MTTR, restart delay, horizon) in hours.
    Hours,
    /// An event rate per hour (`1/hours`).
    PerHour,
    /// Failures in time: failures per 10⁹ device-hours.
    Fit,
    /// A probability in `[0, 1]` (steady-state availability).
    Probability,
    /// A unitless scale factor (downtime multipliers, counts).
    Dimensionless,
}

impl Unit {
    /// The JSON spelling of the unit.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Hours => "hours",
            Unit::PerHour => "per_hour",
            Unit::Fit => "fit",
            Unit::Probability => "probability",
            Unit::Dimensionless => "dimensionless",
        }
    }

    /// Parses the JSON spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "hours" => Unit::Hours,
            "per_hour" => Unit::PerHour,
            "fit" => Unit::Fit,
            "probability" => Unit::Probability,
            "dimensionless" => Unit::Dimensionless,
            _ => return None,
        })
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for Unit {
    fn to_json(&self) -> Json {
        Json::str(self.as_str())
    }
}

impl FromJson for Unit {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let s = value.as_str()?;
        Unit::parse(s).ok_or_else(|| {
            JsonError::decode(format!(
                "unknown unit `{s}` (expected hours, per_hour, fit, probability, \
                 or dimensionless)"
            ))
        })
    }
}

/// A numeric parameter with an optionally declared unit.
///
/// In JSON a quantity is either a bare number (`5000.0`, unit undeclared —
/// the audit layer infers one) or an annotated object
/// (`{"value": 200.0, "unit": "fit"}`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantity {
    /// The numeric value, in `unit` if declared.
    pub value: f64,
    /// The declared unit, if the spec author annotated one.
    pub unit: Option<Unit>,
}

impl Quantity {
    /// A bare (unit-undeclared) quantity.
    #[must_use]
    pub fn bare(value: f64) -> Self {
        Quantity { value, unit: None }
    }

    /// A unit-annotated quantity.
    #[must_use]
    pub fn with_unit(value: f64, unit: Unit) -> Self {
        Quantity {
            value,
            unit: Some(unit),
        }
    }

    /// Converts a *declared* time-like quantity to hours: `hours` pass
    /// through, `fit` becomes `1e9 / value`, `per_hour` becomes
    /// `1 / value`. Returns `None` for undeclared or non-time units, or a
    /// non-positive value (no finite conversion exists).
    #[must_use]
    pub fn declared_hours(&self) -> Option<f64> {
        if !(self.value.is_finite() && self.value > 0.0) {
            return None;
        }
        match self.unit? {
            Unit::Hours => Some(self.value),
            Unit::Fit => Some(FIT_SCALE / self.value),
            Unit::PerHour => Some(1.0 / self.value),
            Unit::Probability | Unit::Dimensionless => None,
        }
    }
}

impl ToJson for Quantity {
    fn to_json(&self) -> Json {
        match self.unit {
            None => Json::Num(self.value),
            Some(u) => Json::obj(vec![
                ("value", Json::Num(self.value)),
                ("unit", u.to_json()),
            ]),
        }
    }
}

impl FromJson for Quantity {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Ok(n) = value.as_f64() {
            return Ok(Quantity::bare(n));
        }
        let v = value.field("value")?.as_f64().map_err(|e| e.ctx("value"))?;
        let unit = match value.get("unit") {
            None | Some(Json::Null) => None,
            Some(u) => Some(Unit::from_json(u).map_err(|e| e.ctx("unit"))?),
        };
        Ok(Quantity { value: v, unit })
    }
}

/// An MTBF/MTTR pair for one hardware layer, both optional.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RatePair {
    /// Mean time between failures.
    pub mtbf: Option<Quantity>,
    /// Mean time to repair.
    pub mttr: Option<Quantity>,
}

impl RatePair {
    /// Whether neither member is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mtbf.is_none() && self.mttr.is_none()
    }
}

impl ToJson for RatePair {
    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(q) = self.mtbf {
            fields.push(("mtbf", q.to_json()));
        }
        if let Some(q) = self.mttr {
            fields.push(("mttr", q.to_json()));
        }
        Json::obj(fields)
    }
}

impl FromJson for RatePair {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let opt = |name: &str| -> Result<Option<Quantity>, JsonError> {
            match value.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => Quantity::from_json(v).map(Some).map_err(|e| e.ctx(name)),
            }
        };
        Ok(RatePair {
            mtbf: opt("mtbf")?,
            mttr: opt("mttr")?,
        })
    }
}

/// Optional spec-level overrides of the paper's default rates, with unit
/// annotations.
///
/// Every field is optional; an absent field means "use the paper default".
/// The audit layer resolves each declared or inferred unit to the model's
/// canonical dimension (hours for times, probability for availabilities)
/// and flows the resolved values into the derived parameter set, RBD, CTMC
/// generator matrices, and simulator config it re-audits (SA013–SA019).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpecRates {
    /// Mean time between process failures (paper: `F = 5000 h`).
    pub process_mtbf: Option<Quantity>,
    /// Supervisor auto-restart delay (paper: `R = 0.1 h`).
    pub auto_restart: Option<Quantity>,
    /// Manual restart delay (paper: `R_S = 1 h`).
    pub manual_restart: Option<Quantity>,
    /// Rack failure/repair times.
    pub rack: Option<RatePair>,
    /// Host failure/repair times.
    pub host: Option<RatePair>,
    /// VM failure/repair times.
    pub vm: Option<RatePair>,
    /// VM availability override (paper: `A_V = 0.99995`).
    pub a_v: Option<Quantity>,
    /// Host availability override (paper: `A_H`).
    pub a_h: Option<Quantity>,
    /// Rack availability override (paper: `A_R = 0.99999`).
    pub a_r: Option<Quantity>,
    /// Simulation horizon override (hours).
    pub sim_horizon: Option<Quantity>,
}

impl SpecRates {
    /// Whether no override is present at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.process_mtbf.is_none()
            && self.auto_restart.is_none()
            && self.manual_restart.is_none()
            && self.rack.as_ref().is_none_or(RatePair::is_empty)
            && self.host.as_ref().is_none_or(RatePair::is_empty)
            && self.vm.as_ref().is_none_or(RatePair::is_empty)
            && self.a_v.is_none()
            && self.a_h.is_none()
            && self.a_r.is_none()
            && self.sim_horizon.is_none()
    }
}

impl ToJson for SpecRates {
    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        let quantities = [
            ("process_mtbf", &self.process_mtbf),
            ("auto_restart", &self.auto_restart),
            ("manual_restart", &self.manual_restart),
        ];
        for (name, v) in quantities {
            if let Some(q) = v {
                fields.push((name, q.to_json()));
            }
        }
        for (name, pair) in [("rack", &self.rack), ("host", &self.host), ("vm", &self.vm)] {
            if let Some(p) = pair {
                if !p.is_empty() {
                    fields.push((name, p.to_json()));
                }
            }
        }
        let trailing = [
            ("a_v", &self.a_v),
            ("a_h", &self.a_h),
            ("a_r", &self.a_r),
            ("sim_horizon", &self.sim_horizon),
        ];
        for (name, v) in trailing {
            if let Some(q) = v {
                fields.push((name, q.to_json()));
            }
        }
        Json::obj(fields)
    }
}

impl FromJson for SpecRates {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let opt_q = |name: &str| -> Result<Option<Quantity>, JsonError> {
            match value.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => Quantity::from_json(v).map(Some).map_err(|e| e.ctx(name)),
            }
        };
        let opt_pair = |name: &str| -> Result<Option<RatePair>, JsonError> {
            match value.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => RatePair::from_json(v).map(Some).map_err(|e| e.ctx(name)),
            }
        };
        Ok(SpecRates {
            process_mtbf: opt_q("process_mtbf")?,
            auto_restart: opt_q("auto_restart")?,
            manual_restart: opt_q("manual_restart")?,
            rack: opt_pair("rack")?,
            host: opt_pair("host")?,
            vm: opt_pair("vm")?,
            a_v: opt_q("a_v")?,
            a_h: opt_q("a_h")?,
            a_r: opt_q("a_r")?,
            sim_horizon: opt_q("sim_horizon")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_spellings_round_trip() {
        for u in [
            Unit::Hours,
            Unit::PerHour,
            Unit::Fit,
            Unit::Probability,
            Unit::Dimensionless,
        ] {
            assert_eq!(Unit::parse(u.as_str()), Some(u));
            let back: Unit = sdnav_json::from_str(&sdnav_json::to_string(&u)).unwrap();
            assert_eq!(back, u);
        }
        assert_eq!(Unit::parse("fortnights"), None);
    }

    #[test]
    fn quantity_json_forms() {
        let bare: Quantity = sdnav_json::from_str("5000.0").unwrap();
        assert_eq!(bare, Quantity::bare(5000.0));
        let annotated: Quantity =
            sdnav_json::from_str(r#"{"value": 200.0, "unit": "fit"}"#).unwrap();
        assert_eq!(annotated, Quantity::with_unit(200.0, Unit::Fit));
        // Bare quantities serialize back to bare numbers.
        assert_eq!(sdnav_json::to_string(&bare), "5000");
        let s = sdnav_json::to_string(&annotated);
        let back: Quantity = sdnav_json::from_str(&s).unwrap();
        assert_eq!(back, annotated);
    }

    #[test]
    fn declared_hours_conversions() {
        assert_eq!(
            Quantity::with_unit(5000.0, Unit::Hours).declared_hours(),
            Some(5000.0)
        );
        assert_eq!(
            Quantity::with_unit(200.0, Unit::Fit).declared_hours(),
            Some(5_000_000.0)
        );
        assert_eq!(
            Quantity::with_unit(0.0002, Unit::PerHour).declared_hours(),
            Some(5000.0)
        );
        assert_eq!(Quantity::bare(5000.0).declared_hours(), None);
        assert_eq!(
            Quantity::with_unit(0.99, Unit::Probability).declared_hours(),
            None
        );
        assert_eq!(Quantity::with_unit(0.0, Unit::Hours).declared_hours(), None);
        assert_eq!(Quantity::with_unit(-5.0, Unit::Fit).declared_hours(), None);
    }

    #[test]
    fn spec_rates_default_is_empty() {
        assert!(SpecRates::default().is_empty());
        let with_rack = SpecRates {
            rack: Some(RatePair {
                mtbf: Some(Quantity::bare(4.8e6)),
                mttr: None,
            }),
            ..SpecRates::default()
        };
        assert!(!with_rack.is_empty());
        // An empty pair does not count as an override.
        let empty_rack = SpecRates {
            rack: Some(RatePair::default()),
            ..SpecRates::default()
        };
        assert!(empty_rack.is_empty());
    }

    #[test]
    fn spec_rates_json_round_trip_omits_absent() {
        let rates = SpecRates {
            process_mtbf: Some(Quantity::with_unit(200_000.0, Unit::Fit)),
            host: Some(RatePair {
                mtbf: Some(Quantity::bare(43_830.0)),
                mttr: Some(Quantity::with_unit(4.383, Unit::Hours)),
            }),
            a_v: Some(Quantity::bare(0.99995)),
            ..SpecRates::default()
        };
        let s = sdnav_json::to_string_pretty(&rates);
        assert!(s.contains("process_mtbf"));
        assert!(!s.contains("manual_restart"));
        assert!(!s.contains("sim_horizon"));
        let back: SpecRates = sdnav_json::from_str(&s).unwrap();
        assert_eq!(back, rates);
    }
}
