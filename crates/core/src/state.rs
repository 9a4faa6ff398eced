//! The mutable evaluator state behind `sdnav serve`: a resolved spec plus
//! parameter sets, content-addressed by FNV-1a domain fingerprints.
//!
//! The incremental evaluation graph in `sdnav-grid` keys every memoized
//! sub-model by `(domain fingerprint, sub-model key)`. [`ModelState`]
//! owns the inputs that fingerprint covers and exposes exactly two
//! domains:
//!
//! * [`ModelState::hw_domain`] — everything the HW-centric figures read:
//!   the spec document and [`HwParams`] bit patterns.
//! * [`ModelState::sw_domain`] — everything the SW-centric figures read:
//!   the spec document and [`SwParams`] bit patterns.
//!
//! [`ModelState::patch`] edits one named rate and returns which domains
//! changed; a patch to `sw.a_h` leaves `hw_domain` untouched, so every
//! HW sub-model stays addressable (and therefore cached) across the edit.
//! Fingerprints hash f64 *bit patterns*, never formatted decimals, so two
//! states compare equal exactly when they evaluate identically.

use sdnav_json::ToJson;

use crate::error::SdnavError;
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::{ControllerSpec, HwParams, SwParams};

/// Names every parameter [`ModelState::patch`] accepts, for error
/// messages and discoverability.
pub const PATCHABLE: &[&str] = &[
    "hw.a_c",
    "hw.a_v",
    "hw.a_h",
    "hw.a_r",
    "sw.a_v",
    "sw.a_h",
    "sw.a_r",
    "sw.process.auto",
    "sw.process.manual",
    "spec.<role>/<process>.downtime_factor",
];

/// Which fingerprint domains a patch touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchEffect {
    /// The HW-centric domain fingerprint changed.
    pub hw: bool,
    /// The SW-centric domain fingerprint changed.
    pub sw: bool,
}

/// A resolved controller spec plus the HW/SW parameter sets it is
/// evaluated under (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// The controller deployment under analysis.
    pub spec: ControllerSpec,
    /// HW-centric (§V) parameters.
    pub hw: HwParams,
    /// SW-centric (§VI) parameters.
    pub sw: SwParams,
}

impl ModelState {
    /// A state evaluating `spec` under the paper's default parameters —
    /// the configuration the one-shot CLI path uses.
    #[must_use]
    pub fn paper(spec: ControllerSpec) -> Self {
        ModelState {
            spec,
            hw: HwParams::paper_defaults(),
            sw: SwParams::paper_defaults(),
        }
    }

    /// Validates the spec and both parameter sets.
    ///
    /// # Errors
    ///
    /// Returns a `Model`-kind [`SdnavError`] naming the first violation.
    pub fn try_validate(&self) -> Result<(), SdnavError> {
        self.spec.validate()?;
        self.hw.try_validate()?;
        self.sw.try_validate()?;
        Ok(())
    }

    fn spec_fp(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.spec.to_json().to_compact().as_bytes())
    }

    /// Fingerprint of everything the HW-centric figures depend on.
    #[must_use]
    pub fn hw_domain(&self) -> u64 {
        let mut fp = fnv1a(self.spec_fp(), b"hw");
        for v in [self.hw.a_c, self.hw.a_v, self.hw.a_h, self.hw.a_r] {
            fp = fnv1a(fp, &v.to_bits().to_le_bytes());
        }
        fp
    }

    /// Fingerprint of everything the SW-centric figures depend on.
    #[must_use]
    pub fn sw_domain(&self) -> u64 {
        let mut fp = fnv1a(self.spec_fp(), b"sw");
        for v in [
            self.sw.process.auto,
            self.sw.process.manual,
            self.sw.a_v,
            self.sw.a_h,
            self.sw.a_r,
        ] {
            fp = fnv1a(fp, &v.to_bits().to_le_bytes());
        }
        fp
    }

    /// Sets the named rate or parameter to `value` and reports which
    /// domains changed.
    ///
    /// Accepted names are listed in [`PATCHABLE`]: `hw.*` and `sw.*`
    /// address the parameter sets; `spec.<role>/<process>.downtime_factor`
    /// addresses one process's downtime multiplier.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown name (the message lists valid names);
    /// `Model` when the patched state fails validation — the state is
    /// left unchanged in both cases.
    pub fn patch(&mut self, name: &str, value: f64) -> Result<PatchEffect, SdnavError> {
        let mut next = self.clone();
        let effect = match name {
            "hw.a_c" => set_hw(&mut next.hw.a_c, value),
            "hw.a_v" => set_hw(&mut next.hw.a_v, value),
            "hw.a_h" => set_hw(&mut next.hw.a_h, value),
            "hw.a_r" => set_hw(&mut next.hw.a_r, value),
            "sw.a_v" => set_sw(&mut next.sw.a_v, value),
            "sw.a_h" => set_sw(&mut next.sw.a_h, value),
            "sw.a_r" => set_sw(&mut next.sw.a_r, value),
            "sw.process.auto" => set_sw(&mut next.sw.process.auto, value),
            "sw.process.manual" => set_sw(&mut next.sw.process.manual, value),
            other => patch_spec(&mut next.spec, other, value)?,
        };
        next.try_validate()?;
        *self = next;
        Ok(effect)
    }
}

fn set_hw(slot: &mut f64, value: f64) -> PatchEffect {
    *slot = value;
    PatchEffect {
        hw: true,
        sw: false,
    }
}

fn set_sw(slot: &mut f64, value: f64) -> PatchEffect {
    *slot = value;
    PatchEffect {
        hw: false,
        sw: true,
    }
}

fn unknown_name(name: &str) -> SdnavError {
    SdnavError::not_found(format!(
        "unknown parameter {name:?}; valid names: {}",
        PATCHABLE.join(", ")
    ))
}

fn patch_spec(
    spec: &mut ControllerSpec,
    name: &str,
    value: f64,
) -> Result<PatchEffect, SdnavError> {
    // spec.<role>/<process>.downtime_factor — the spec document feeds
    // both domain fingerprints, so the whole graph invalidates.
    let path = name
        .strip_prefix("spec.")
        .and_then(|p| p.strip_suffix(".downtime_factor"))
        .ok_or_else(|| unknown_name(name))?;
    let (role_name, proc_name) = path.split_once('/').ok_or_else(|| unknown_name(name))?;
    let process = spec
        .roles
        .iter_mut()
        .find(|r| r.name == role_name)
        .and_then(|r| r.processes.iter_mut().find(|p| p.name == proc_name))
        .ok_or_else(|| {
            SdnavError::not_found(format!(
                "unknown process {role_name:?}/{proc_name:?} in spec"
            ))
        })?;
    process.downtime_factor = value;
    Ok(PatchEffect { hw: true, sw: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;

    fn state() -> ModelState {
        ModelState::paper(ControllerSpec::opencontrail_3x())
    }

    #[test]
    fn fingerprints_are_stable_and_domain_separated() {
        let s = state();
        assert_eq!(s.hw_domain(), state().hw_domain());
        assert_eq!(s.sw_domain(), state().sw_domain());
        assert_ne!(s.hw_domain(), s.sw_domain());
    }

    #[test]
    fn paper_fingerprints_are_pinned() {
        // A drift here would cold-start every `sdnav serve` cache.
        let s = state();
        assert_eq!(s.hw_domain(), 0x5370_3d5c_9bf5_57d7);
        assert_eq!(s.sw_domain(), 0x0cb9_b615_6eca_1721);
    }

    #[test]
    fn sw_patch_leaves_hw_domain_untouched() {
        let mut s = state();
        let (hw0, sw0) = (s.hw_domain(), s.sw_domain());
        let effect = s.patch("sw.a_h", 0.9998).unwrap();
        assert_eq!(
            effect,
            PatchEffect {
                hw: false,
                sw: true
            }
        );
        assert_eq!(s.hw_domain(), hw0);
        assert_ne!(s.sw_domain(), sw0);
    }

    #[test]
    fn hw_patch_leaves_sw_domain_untouched() {
        let mut s = state();
        let (hw0, sw0) = (s.hw_domain(), s.sw_domain());
        let effect = s.patch("hw.a_c", 0.999).unwrap();
        assert_eq!(
            effect,
            PatchEffect {
                hw: true,
                sw: false
            }
        );
        assert_ne!(s.hw_domain(), hw0);
        assert_eq!(s.sw_domain(), sw0);
    }

    #[test]
    fn downtime_factor_patch_changes_both_domains() {
        let mut s = state();
        let (hw0, sw0) = (s.hw_domain(), s.sw_domain());
        let role = s.spec.roles[0].name.clone();
        let proc_name = s.spec.roles[0].processes[0].name.clone();
        let effect = s
            .patch(&format!("spec.{role}/{proc_name}.downtime_factor"), 10.0)
            .unwrap();
        assert_eq!(effect, PatchEffect { hw: true, sw: true });
        assert_ne!(s.hw_domain(), hw0);
        assert_ne!(s.sw_domain(), sw0);
    }

    #[test]
    fn patch_back_to_original_restores_the_fingerprint() {
        let mut s = state();
        let hw0 = s.hw_domain();
        let original = s.hw.a_c;
        s.patch("hw.a_c", 0.999).unwrap();
        s.patch("hw.a_c", original).unwrap();
        assert_eq!(s.hw_domain(), hw0);
    }

    #[test]
    fn unknown_name_is_not_found_and_lists_valid_names() {
        let mut s = state();
        let err = s.patch("hw.bogus", 0.5).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        assert!(err.to_string().contains("hw.a_c"), "{err}");
        let err = s
            .patch("spec.nope/nothing.downtime_factor", 1.0)
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
    }

    #[test]
    fn invalid_value_is_model_error_and_state_is_unchanged() {
        let mut s = state();
        let before = s.clone();
        let err = s.patch("hw.a_c", 1.5).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Model);
        assert_eq!(s, before);
        let err = s.patch("sw.a_v", f64::NAN).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Model);
        assert_eq!(s, before);
    }
}
