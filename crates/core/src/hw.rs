//! HW-centric availability analysis (§V): roles as atomic elements.

use sdnav_blocks::kofn::k_of_n_heterogeneous;

use crate::eval::{Enumerator, PatternMemo};
use crate::{ControllerSpec, HwParams, Topology};

/// The paper's HW-centric controller availability model.
///
/// Each controller role instance is an atomic element with availability
/// `A_C`; a role is available when its `m`-of-`n` node quorum is met
/// (`1`-of-`3` for Config/Control/Analytics, `2`-of-`3` for Database,
/// derived from the spec); the controller is available when every role is.
/// Shared racks, hosts, and VMs correlate the role instances; the model
/// computes the *exact* availability for any [`Topology`] by conditional
/// enumeration, generalizing the paper's Eqs. (2)–(8).
///
/// ```
/// use sdnav_core::{ControllerSpec, HwModel, HwParams, Topology};
///
/// let spec = ControllerSpec::opencontrail_3x();
/// let model = HwModel::try_new(&spec, &Topology::small(&spec), HwParams::paper_defaults()).expect("valid HW model");
/// // §V.D: "with role availability A_C = 0.9995, Controller availability
/// // is 0.999989 for the Small ... topologies".
/// assert!((model.availability() - 0.999989).abs() < 1e-6);
/// ```
#[derive(Debug)]
pub struct HwModel<'a> {
    spec: &'a ControllerSpec,
    params: HwParams,
    enumerator: Enumerator,
}

impl<'a> HwModel<'a> {
    /// Builds the model, validating the parameters first.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::ParamError`] naming the first out-of-range
    /// availability. (Topology/spec mismatches still panic — run
    /// [`Topology::validate`] first for a proper error.)
    pub fn try_new(
        spec: &'a ControllerSpec,
        topology: &Topology,
        params: HwParams,
    ) -> Result<Self, crate::ParamError> {
        params.try_validate()?;
        let enumerator = Enumerator::new(spec, topology, params.a_v, params.a_h, params.a_r);
        Ok(HwModel {
            spec,
            params,
            enumerator,
        })
    }

    /// Exact controller availability.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let nodes = self.enumerator.nodes();
        // Per covered role: the atomic-role quorum m.
        let quorums: Vec<u32> = self
            .enumerator
            .role_indices()
            .iter()
            .map(|&ri| self.spec.roles[ri].hw_quorum())
            .collect();
        let a_c = self.params.a_c;
        let mut memo: Vec<PatternMemo> = quorums.iter().map(|_| self.enumerator.memo()).collect();
        let mut instance = Vec::with_capacity(nodes);
        self.enumerator.evaluate(|q, up| {
            let mut avail = 1.0;
            for (r, &m) in quorums.iter().enumerate() {
                if m == 0 {
                    continue;
                }
                avail *= memo[r].get_or_insert_with(up[r], || {
                    instance.clear();
                    instance.extend(q[r * nodes..(r + 1) * nodes].iter().map(|&p| p * a_c));
                    k_of_n_heterogeneous(m as usize, &instance)
                });
                if avail == 0.0 {
                    break;
                }
            }
            avail
        })
    }

    /// Controller unavailability (`1 −` [`HwModel::availability`]).
    #[must_use]
    pub fn unavailability(&self) -> f64 {
        1.0 - self.availability()
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> HwParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    fn defaults() -> HwParams {
        HwParams::paper_defaults()
    }

    #[test]
    fn try_new_rejects_bad_params_and_accepts_defaults() {
        let s = spec();
        let topo = Topology::small(&s);
        let bad = HwParams {
            a_c: 1.5,
            ..defaults()
        };
        let err = HwModel::try_new(&s, &topo, bad).unwrap_err();
        assert_eq!(err.field, "a_c");
        let model = HwModel::try_new(&s, &topo, defaults()).unwrap();
        assert!(model.availability() > 0.9999);
    }

    #[test]
    fn fig3_quoted_small_availability() {
        // §V.D: A_S = 0.999989 at A_C = 0.9995.
        let s = spec();
        let a = HwModel::try_new(&s, &Topology::small(&s), defaults())
            .expect("valid HW model")
            .availability();
        assert!((a - 0.999989).abs() < 1e-6, "got {a:.9}");
    }

    #[test]
    fn fig3_quoted_medium_availability() {
        // §V.D: Medium matches Small at 0.999989 (to printed precision).
        let s = spec();
        let a = HwModel::try_new(&s, &Topology::medium(&s), defaults())
            .expect("valid HW model")
            .availability();
        assert!((a - 0.999989).abs() < 1e-6, "got {a:.9}");
    }

    #[test]
    fn fig3_quoted_large_availability() {
        // §V.D: A_L = 0.9999990 at A_C = 0.9995.
        let s = spec();
        let a = HwModel::try_new(&s, &Topology::large(&s), defaults())
            .expect("valid HW model")
            .availability();
        assert!((a - 0.9999990).abs() < 2e-7, "got {a:.9}");
    }

    #[test]
    fn exact_matches_paper_eq3_for_small() {
        // Eq. (3) is exact, so the general enumerator must agree closely.
        let s = spec();
        for a_c in [0.999, 0.9995, 0.9999] {
            let p = defaults().with_a_c(a_c);
            let exact = HwModel::try_new(&s, &Topology::small(&s), p)
                .expect("valid HW model")
                .availability();
            let closed = paper::hw_small_eq3(p);
            assert!(
                (exact - closed).abs() < 1e-12,
                "a_c={a_c}: exact={exact:.12} eq3={closed:.12}"
            );
        }
    }

    #[test]
    fn exact_matches_paper_eq8_for_large() {
        let s = spec();
        for a_c in [0.999, 0.9995, 0.9999] {
            let p = defaults().with_a_c(a_c);
            let exact = HwModel::try_new(&s, &Topology::large(&s), p)
                .expect("valid HW model")
                .availability();
            let closed = paper::hw_large_eq8(p);
            assert!(
                (exact - closed).abs() < 1e-12,
                "a_c={a_c}: exact={exact:.12} eq8={closed:.12}"
            );
        }
    }

    #[test]
    fn paper_eq6_corrected_medium_is_a_close_approximation() {
        // Eq. (6) with its typo fixed (see `paper::hw_medium_eq6_printed`)
        // simplifies the exact Medium expression; the gap must be far below
        // the quantities of interest (< 1e-8) but may be nonzero.
        let s = spec();
        let p = defaults();
        let exact = HwModel::try_new(&s, &Topology::medium(&s), p)
            .expect("valid HW model")
            .availability();
        let closed = paper::hw_medium_eq6_corrected(p);
        assert!(
            (exact - closed).abs() < 1e-8,
            "exact={exact:.12} eq6={closed:.12}"
        );
    }

    #[test]
    fn two_racks_slightly_worse_than_one() {
        // §V.D: "adding a second rack (S→M) actually slightly reduces
        // availability".
        let s = spec();
        let small = HwModel::try_new(&s, &Topology::small(&s), defaults())
            .expect("valid HW model")
            .availability();
        let medium = HwModel::try_new(&s, &Topology::medium(&s), defaults())
            .expect("valid HW model")
            .availability();
        assert!(medium < small, "small={small:.9} medium={medium:.9}");
        // ... but only slightly.
        assert!(small - medium < 1e-5);
    }

    #[test]
    fn three_racks_beat_one() {
        let s = spec();
        let small = HwModel::try_new(&s, &Topology::small(&s), defaults())
            .expect("valid HW model")
            .availability();
        let large = HwModel::try_new(&s, &Topology::large(&s), defaults())
            .expect("valid HW model")
            .availability();
        assert!(large > small);
    }

    #[test]
    fn third_rack_saves_about_five_minutes_per_year() {
        // §V.D: "Controller availability increases from 0.999989 to
        // 0.9999990 (a savings of 5 minutes/year in downtime)".
        let s = spec();
        let small = HwModel::try_new(&s, &Topology::small(&s), defaults())
            .expect("valid HW model")
            .availability();
        let large = HwModel::try_new(&s, &Topology::large(&s), defaults())
            .expect("valid HW model")
            .availability();
        let minutes_saved = (large - small) * 525_960.0;
        assert!(
            (minutes_saved - 5.0).abs() < 0.5,
            "saved {minutes_saved:.2} m/y"
        );
    }

    #[test]
    fn availability_monotone_in_role_availability() {
        let s = spec();
        let topo = Topology::small(&s);
        let mut last = 0.0;
        for a_c in [0.999, 0.9993, 0.9996, 0.9999] {
            let a = HwModel::try_new(&s, &topo, defaults().with_a_c(a_c))
                .expect("valid HW model")
                .availability();
            assert!(a >= last);
            last = a;
        }
    }

    #[test]
    fn perfect_hardware_leaves_only_role_failures() {
        let s = spec();
        let p = HwParams {
            a_c: 0.9995,
            a_v: 1.0,
            a_h: 1.0,
            a_r: 1.0,
        };
        let a = HwModel::try_new(&s, &Topology::large(&s), p)
            .expect("valid HW model")
            .availability();
        // A = A_{1/3}³ · A_{2/3} at α = 0.9995.
        let a13 = sdnav_blocks::kofn::k_of_n(1, 3, 0.9995);
        let a23 = sdnav_blocks::kofn::k_of_n(2, 3, 0.9995);
        let expected = a13.powi(3) * a23;
        assert!((a - expected).abs() < 1e-12);
    }

    #[test]
    fn small_equals_large_when_racks_perfect() {
        // With A_R = 1, the Small and Large topologies differ only in rack
        // exposure... and in VM/host sharing, which the paper shows is
        // availability-neutral. Verify the near-equality quantitatively.
        let s = spec();
        let p = HwParams {
            a_r: 1.0,
            ..defaults()
        };
        let small = HwModel::try_new(&s, &Topology::small(&s), p)
            .expect("valid HW model")
            .availability();
        let large = HwModel::try_new(&s, &Topology::large(&s), p)
            .expect("valid HW model")
            .availability();
        assert!(
            (small - large).abs() < 1e-7,
            "small={small:.10} large={large:.10}"
        );
    }

    #[test]
    fn unavailability_complements() {
        let s = spec();
        let m = HwModel::try_new(&s, &Topology::small(&s), defaults()).expect("valid HW model");
        assert!((m.availability() + m.unavailability() - 1.0).abs() < 1e-15);
        assert_eq!(m.params(), defaults());
    }
}
