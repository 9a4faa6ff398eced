//! Model parameter sets and the paper's default values.

use std::error::Error;
use std::fmt;

use sdnav_json::{FromJson, Json, JsonError, ToJson};

/// A parameter failed validation: the named field is NaN or outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamError {
    /// Name of the offending field (e.g. `a_c`).
    pub field: &'static str,
    /// The out-of-range value.
    pub value: f64,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{field} must lie in [0, 1], got {value}",
            field = self.field,
            value = self.value
        )
    }
}

impl Error for ParamError {}

fn try_unit(value: f64, field: &'static str) -> Result<f64, ParamError> {
    if value.is_nan() || !(0.0..=1.0).contains(&value) {
        Err(ParamError { field, value })
    } else {
        Ok(value)
    }
}

/// The fields of `fields` outside `[0, 1]`, in order.
fn unit_violations(fields: &[(&'static str, f64)]) -> Vec<ParamError> {
    fields
        .iter()
        .filter_map(|&(field, value)| try_unit(value, field).err())
        .collect()
}

fn check_unit(value: f64, name: &'static str) -> f64 {
    match try_unit(value, name) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Parameters of the HW-centric analysis (§V): per-element availabilities
/// with every controller role treated as an atomic element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwParams {
    /// Availability of one instance of any controller role, `A_C`.
    pub a_c: f64,
    /// Availability of a VM including its guest OS, `A_V`.
    pub a_v: f64,
    /// Availability of a host including host OS and hypervisor, `A_H`.
    pub a_h: f64,
    /// Availability of a rack (power, ToR switching, …), `A_R`.
    pub a_r: f64,
}

impl HwParams {
    /// The paper's §V.D rule-of-thumb values:
    /// `A_C = 0.9995`, `A_V = 0.99995`, `A_H = 0.99999`, `A_R = 0.99999`.
    ///
    /// (The Fig. 3 caption prints `A_H = 0.99990`, but only `0.99999`
    /// reproduces the quoted availabilities; see DESIGN.md.)
    #[must_use]
    pub fn paper_defaults() -> Self {
        HwParams {
            a_c: 0.9995,
            a_v: 0.99995,
            a_h: 0.99999,
            a_r: 0.99999,
        }
    }

    /// Returns a copy with a different role availability `A_C` (the Fig. 3
    /// sweep variable).
    #[must_use]
    pub fn with_a_c(self, a_c: f64) -> Self {
        HwParams {
            a_c: check_unit(a_c, "a_c"),
            ..self
        }
    }

    /// Checks all fields lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParamError`] of [`HwParams::violations`].
    pub fn try_validate(&self) -> Result<(), ParamError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Every field outside `[0, 1]` (or NaN), in field order.
    #[must_use]
    pub fn violations(&self) -> Vec<ParamError> {
        unit_violations(&[
            ("a_c", self.a_c),
            ("a_v", self.a_v),
            ("a_h", self.a_h),
            ("a_r", self.a_r),
        ])
    }
}

impl ToJson for HwParams {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("a_c", Json::Num(self.a_c)),
            ("a_v", Json::Num(self.a_v)),
            ("a_h", Json::Num(self.a_h)),
            ("a_r", Json::Num(self.a_r)),
        ])
    }
}

impl FromJson for HwParams {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(HwParams {
            a_c: value.field("a_c")?.as_f64().map_err(|e| e.ctx("a_c"))?,
            a_v: value.field("a_v")?.as_f64().map_err(|e| e.ctx("a_v"))?,
            a_h: value.field("a_h")?.as_f64().map_err(|e| e.ctx("a_h"))?,
            a_r: value.field("a_r")?.as_f64().map_err(|e| e.ctx("a_r"))?,
        })
    }
}

/// Per-process availability parameters for the SW-centric analysis (§VI.A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessParams {
    /// Availability `A` of a process auto-restarted by its supervisor
    /// (`F/(F+R)`; the paper's default `0.99998` from `F = 5000 h`,
    /// `R = 0.1 h`).
    pub auto: f64,
    /// Availability `A_S` of an unsupervised, manually restarted process —
    /// including the supervisor itself (`F/(F+R_S)`; the paper's default
    /// `0.99980` from `R_S = 1 h`).
    pub manual: f64,
}

impl ProcessParams {
    /// The paper's §VI.A defaults: `A = 0.99998`, `A_S = 0.99980`.
    #[must_use]
    pub fn paper_defaults() -> Self {
        ProcessParams {
            auto: 0.99998,
            manual: 0.99980,
        }
    }

    /// Availability of a process with the given restart mode.
    #[must_use]
    pub fn for_mode(&self, mode: crate::RestartMode) -> f64 {
        match mode {
            crate::RestartMode::Auto => self.auto,
            crate::RestartMode::Manual => self.manual,
        }
    }

    /// Availability of a specific process: the restart-mode baseline
    /// adjusted by the process's [`crate::ProcessSpec::downtime_factor`]
    /// (`u' = u · factor`, clamped into `[0, 1]`).
    #[must_use]
    pub fn for_spec(&self, process: &crate::ProcessSpec) -> f64 {
        let u = (1.0 - self.for_mode(process.restart)) * process.downtime_factor;
        (1.0 - u).clamp(0.0, 1.0)
    }

    /// The paper's Figs. 4–5 x-axis: scale both process *downtimes* by
    /// `10^delta`, in lock-step. `delta = 0` is the default point;
    /// `delta = −1` means 10× less downtime (more reliable);
    /// `delta = +1` means 10× more downtime.
    ///
    /// Note the paper's axis is labeled the other way around in the text
    /// (−1 = "1 order of magnitude less reliable"); [`crate::sweep`]
    /// handles the figure orientation — this function is the primitive.
    #[must_use]
    pub fn scale_downtime(&self, delta: f64) -> Self {
        let factor = 10f64.powf(delta);
        ProcessParams {
            auto: (1.0 - (1.0 - self.auto) * factor).clamp(0.0, 1.0),
            manual: (1.0 - (1.0 - self.manual) * factor).clamp(0.0, 1.0),
        }
    }

    /// Checks all fields lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParamError`] of [`ProcessParams::violations`].
    pub fn try_validate(&self) -> Result<(), ParamError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Every field outside `[0, 1]` (or NaN), in field order.
    #[must_use]
    pub fn violations(&self) -> Vec<ParamError> {
        unit_violations(&[("auto", self.auto), ("manual", self.manual)])
    }
}

impl ToJson for ProcessParams {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("auto", Json::Num(self.auto)),
            ("manual", Json::Num(self.manual)),
        ])
    }
}

impl FromJson for ProcessParams {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ProcessParams {
            auto: value.field("auto")?.as_f64().map_err(|e| e.ctx("auto"))?,
            manual: value
                .field("manual")?
                .as_f64()
                .map_err(|e| e.ctx("manual"))?,
        })
    }
}

/// Full parameter set for the SW-centric analysis: process availabilities
/// plus the platform availabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwParams {
    /// Process availabilities (`A`, `A_S`).
    pub process: ProcessParams,
    /// VM availability `A_V`.
    pub a_v: f64,
    /// Host availability `A_H`.
    pub a_h: f64,
    /// Rack availability `A_R`.
    pub a_r: f64,
}

impl SwParams {
    /// The paper's §VI defaults: `A = 0.99998`, `A_S = 0.99980`,
    /// `A_V = 0.99995`, `A_H = 0.99990`, `A_R = 0.99999`.
    ///
    /// `A_H` here is `0.99990` (not the HW-centric `0.99999`): only that
    /// value reproduces the quoted Fig. 4/5 downtime numbers; see DESIGN.md.
    #[must_use]
    pub fn paper_defaults() -> Self {
        SwParams {
            process: ProcessParams::paper_defaults(),
            a_v: 0.99995,
            a_h: 0.99990,
            a_r: 0.99999,
        }
    }

    /// Returns a copy with process downtimes scaled by `10^delta`
    /// (the Figs. 4–5 sweep).
    #[must_use]
    pub fn scale_process_downtime(self, delta: f64) -> Self {
        SwParams {
            process: self.process.scale_downtime(delta),
            ..self
        }
    }

    /// Checks all fields lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParamError`] of [`SwParams::violations`].
    pub fn try_validate(&self) -> Result<(), ParamError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Every field outside `[0, 1]` (or NaN): the process ones, then the rest.
    #[must_use]
    pub fn violations(&self) -> Vec<ParamError> {
        let mut out = self.process.violations();
        out.extend(unit_violations(&[
            ("a_v", self.a_v),
            ("a_h", self.a_h),
            ("a_r", self.a_r),
        ]));
        out
    }
}

impl ToJson for SwParams {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("process", self.process.to_json()),
            ("a_v", Json::Num(self.a_v)),
            ("a_h", Json::Num(self.a_h)),
            ("a_r", Json::Num(self.a_r)),
        ])
    }
}

impl FromJson for SwParams {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(SwParams {
            process: ProcessParams::from_json(value.field("process")?)
                .map_err(|e| e.ctx("process"))?,
            a_v: value.field("a_v")?.as_f64().map_err(|e| e.ctx("a_v"))?,
            a_h: value.field("a_h")?.as_f64().map_err(|e| e.ctx("a_h"))?,
            a_r: value.field("a_r")?.as_f64().map_err(|e| e.ctx("a_r"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5d_and_6a() {
        let hw = HwParams::paper_defaults();
        assert_eq!(hw.a_c, 0.9995);
        assert_eq!(hw.a_v, 0.99995);
        assert_eq!(hw.a_h, 0.99999);
        assert_eq!(hw.a_r, 0.99999);

        let sw = SwParams::paper_defaults();
        assert_eq!(sw.process.auto, 0.99998);
        assert_eq!(sw.process.manual, 0.99980);
        assert_eq!(sw.a_h, 0.99990);
    }

    #[test]
    fn defaults_derive_from_paper_mtbf_mttr() {
        // A = F/(F+R), F = 5000 h, R = 0.1 h; A_S with R_S = 1 h.
        let p = ProcessParams::paper_defaults();
        assert!((p.auto - 5000.0 / 5000.1).abs() < 2e-8);
        assert!((p.manual - 5000.0 / 5001.0).abs() < 2e-7);
    }

    #[test]
    fn downtime_scaling_is_exact_in_unavailability() {
        let p = ProcessParams::paper_defaults();
        let worse = p.scale_downtime(1.0);
        assert!((1.0 - worse.auto - 10.0 * (1.0 - p.auto)).abs() < 1e-12);
        assert!((1.0 - worse.manual - 10.0 * (1.0 - p.manual)).abs() < 1e-12);
        let better = p.scale_downtime(-1.0);
        assert!((1.0 - better.auto - 0.1 * (1.0 - p.auto)).abs() < 1e-12);
    }

    #[test]
    fn downtime_scaling_zero_is_identity() {
        let p = ProcessParams::paper_defaults();
        let same = p.scale_downtime(0.0);
        assert!((same.auto - p.auto).abs() < 1e-15);
        assert!((same.manual - p.manual).abs() < 1e-15);
    }

    #[test]
    fn downtime_scaling_clamps_at_extremes() {
        let p = ProcessParams {
            auto: 0.5,
            manual: 0.5,
        };
        let worse = p.scale_downtime(2.0);
        assert_eq!(worse.auto, 0.0);
    }

    #[test]
    #[should_panic(expected = "a_c must lie in [0, 1]")]
    fn with_a_c_validates() {
        let _ = HwParams::paper_defaults().with_a_c(1.2);
    }

    #[test]
    fn json_round_trip() {
        let hw = HwParams::paper_defaults();
        let json = sdnav_json::to_string(&hw);
        let back: HwParams = sdnav_json::from_str(&json).unwrap();
        assert_eq!(hw, back);

        let sw = SwParams::paper_defaults();
        let back: SwParams = sdnav_json::from_str(&sdnav_json::to_string(&sw)).unwrap();
        assert_eq!(sw, back);
    }

    #[test]
    fn try_validate_reports_field_and_value() {
        let bad = HwParams {
            a_c: 1.2,
            ..HwParams::paper_defaults()
        };
        let err = bad.try_validate().unwrap_err();
        assert_eq!(err.field, "a_c");
        assert_eq!(err.value, 1.2);
        assert!(HwParams::paper_defaults().try_validate().is_ok());
        assert!(SwParams::paper_defaults().try_validate().is_ok());
        assert!(ProcessParams::paper_defaults().try_validate().is_ok());
    }

    #[test]
    fn try_validate_rejects_nan() {
        let bad = SwParams {
            a_v: f64::NAN,
            ..SwParams::paper_defaults()
        };
        assert_eq!(bad.try_validate().unwrap_err().field, "a_v");
    }
}
