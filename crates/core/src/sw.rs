//! SW-centric availability analysis (§VI): process-level quorums, the
//! supervisor scenarios, and separate control-plane / data-plane results.

use crate::eval::{quorum_table, role_availability, Enumerator, PatternMemo};
use crate::{ControllerSpec, Plane, SwParams, Topology};

/// The two supervisor modes of operation analyzed in §VI.A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scenario {
    /// Optimistic upper bound: a node-role keeps operating after its
    /// supervisor fails (supervisor restarted at the next maintenance
    /// window, hitlessly).
    SupervisorNotRequired,
    /// Realistic lower bound: a supervisor failure kills its node-role;
    /// every process in it is down until the supervisor is manually
    /// restarted.
    SupervisorRequired,
}

impl Scenario {
    /// Parses the CLI/JSON spelling (`required` | `not-required`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Scenario> {
        match name {
            "required" => Some(Scenario::SupervisorRequired),
            "not-required" => Some(Scenario::SupervisorNotRequired),
            _ => None,
        }
    }

    /// The CLI/JSON spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scenario::SupervisorRequired => "required",
            Scenario::SupervisorNotRequired => "not-required",
        }
    }
}

/// The paper's SW-centric availability model (Eqs. 9–15), generalized to
/// any topology and controller spec.
///
/// Differences from the HW-centric [`crate::HwModel`]:
///
/// * roles are decomposed into processes with per-process quorum
///   requirements (Table III) and restart-mode-dependent availabilities
///   (`A` for auto-restarted, `A_S` for manual — Table II);
/// * the supervisor scenario is modeled: in
///   [`Scenario::SupervisorRequired`], a node-role survives only if its
///   supervisor is also up (the paper's `ρ`-weighted conditioning,
///   Eqs. 12–14);
/// * control-plane and data-plane availability are computed separately, the
///   latter split into the *shared* controller contribution `A_SDP` and the
///   *local* per-host vRouter contribution `A_LDP`.
///
/// ```
/// use sdnav_core::{ControllerSpec, Scenario, SwModel, SwParams, Topology};
///
/// let spec = ControllerSpec::opencontrail_3x();
/// let topo = Topology::small(&spec);
/// let model = SwModel::try_new(&spec, &topo, SwParams::paper_defaults(),
///                          Scenario::SupervisorNotRequired).expect("valid SW model");
/// // §VI.G: "A_CP exceeds 0.999987 for the Small topology".
/// assert!(model.cp_availability() > 0.999987);
/// ```
#[derive(Debug)]
pub struct SwModel<'a> {
    spec: &'a ControllerSpec,
    params: SwParams,
    scenario: Scenario,
    enumerator: Enumerator,
}

impl<'a> SwModel<'a> {
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
        params: SwParams,
        scenario: Scenario,
    ) -> Result<Self, crate::ParamError> {
        params.try_validate()?;
        let enumerator = Enumerator::new(spec, topology, params.a_v, params.a_h, params.a_r);
        Ok(SwModel {
            spec,
            params,
            scenario,
            enumerator,
        })
    }

    /// The scenario being analyzed.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> SwParams {
        self.params
    }

    /// SDN control-plane availability `A_CP`.
    #[must_use]
    pub fn cp_availability(&self) -> f64 {
        self.plane_availability(Plane::ControlPlane)
    }

    /// Shared data-plane availability `A_SDP`: the controller-side
    /// contribution that affects the DP of *every* host at once.
    #[must_use]
    pub fn shared_dp_availability(&self) -> f64 {
        self.plane_availability(Plane::DataPlane)
    }

    /// Local data-plane availability `A_LDP`: the per-host vRouter
    /// contribution — `A^K` (times `A_S` when the vRouter supervisor is
    /// required).
    #[must_use]
    pub fn local_dp_availability(&self) -> f64 {
        let mut a = 1.0;
        for p in self.spec.local_dp_processes() {
            a *= self.params.process.for_spec(p);
        }
        if self.scenario == Scenario::SupervisorRequired {
            if let Some(sup) = self.spec.per_host_roles().find_map(|r| r.supervisor()) {
                a *= self.params.process.for_spec(sup);
            }
        }
        a
    }

    /// Per-host data-plane availability
    /// `A_DP = A_SDP · A_LDP`.
    #[must_use]
    pub fn host_dp_availability(&self) -> f64 {
        self.shared_dp_availability() * self.local_dp_availability()
    }

    fn plane_availability(&self, plane: Plane) -> f64 {
        let nodes = self.enumerator.nodes();
        let reqs = self.spec.requirements(plane);
        // Per covered role: its quorum term by up count, or `None` when the
        // plane places no requirement on the role.
        let by_up: Vec<Option<Vec<f64>>> = self
            .enumerator
            .role_indices()
            .iter()
            .map(|&ri| {
                let role_reqs: Vec<(u32, f64)> = reqs
                    .iter()
                    .filter(|r| r.role_index == ri)
                    .map(|r| (r.required, r.instance_availability(&self.params.process)))
                    .collect();
                (!role_reqs.is_empty()).then(|| quorum_table(nodes, &role_reqs))
            })
            .collect();
        // In the supervisor-required scenario a node-role block survives
        // only if its supervisor is up: multiply the chain probability by
        // the supervisor's availability (the paper's ρ = A_S conditioning).
        let sup_factor: Vec<f64> = self
            .enumerator
            .role_indices()
            .iter()
            .map(|&ri| {
                if self.scenario == Scenario::SupervisorRequired {
                    self.spec.roles[ri]
                        .supervisor()
                        .map_or(1.0, |s| self.params.process.for_spec(s))
                } else {
                    1.0
                }
            })
            .collect();

        let mut memo: Vec<PatternMemo> = by_up.iter().map(|_| self.enumerator.memo()).collect();
        let mut probs = vec![0.0; nodes];
        self.enumerator.evaluate(|q, up| {
            let mut avail = 1.0;
            for (r, by_up) in by_up.iter().enumerate() {
                let Some(by_up) = by_up else {
                    continue;
                };
                avail *= memo[r].get_or_insert_with(up[r], || {
                    for (i, p) in probs.iter_mut().enumerate() {
                        *p = q[r * nodes + i] * sup_factor[r];
                    }
                    role_availability(&probs, by_up)
                });
                if avail == 0.0 {
                    break;
                }
            }
            avail
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINUTES_PER_YEAR: f64 = 525_960.0;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    fn defaults() -> SwParams {
        SwParams::paper_defaults()
    }

    fn downtime(a: f64) -> f64 {
        (1.0 - a) * MINUTES_PER_YEAR
    }

    #[test]
    fn try_new_rejects_bad_params_and_accepts_defaults() {
        let s = spec();
        let topo = Topology::small(&s);
        let bad = SwParams {
            a_v: -0.1,
            ..defaults()
        };
        let err = SwModel::try_new(&s, &topo, bad, Scenario::SupervisorNotRequired).unwrap_err();
        assert_eq!(err.field, "a_v");
        let model =
            SwModel::try_new(&s, &topo, defaults(), Scenario::SupervisorNotRequired).unwrap();
        assert!(model.cp_availability() > 0.999987);
    }

    #[test]
    fn scenario_names_round_trip() {
        for scenario in [
            Scenario::SupervisorRequired,
            Scenario::SupervisorNotRequired,
        ] {
            assert_eq!(Scenario::from_name(scenario.name()), Some(scenario));
        }
        assert_eq!(Scenario::SupervisorNotRequired.name(), "not-required");
        for bad in ["sometimes", "Required", ""] {
            assert_eq!(Scenario::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn cp_small_supervisor_not_required_is_5_9_minutes() {
        // §VI.G quotes 5.9 m/y for option 1S.
        let s = spec();
        let m = SwModel::try_new(
            &s,
            &Topology::small(&s),
            defaults(),
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model");
        let dt = downtime(m.cp_availability());
        assert!((dt - 5.9).abs() < 0.15, "got {dt:.2} m/y");
    }

    #[test]
    fn cp_small_supervisor_required_is_6_6_minutes() {
        let s = spec();
        let m = SwModel::try_new(
            &s,
            &Topology::small(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model");
        let dt = downtime(m.cp_availability());
        assert!((dt - 6.6).abs() < 0.25, "got {dt:.2} m/y");
    }

    #[test]
    fn cp_large_supervisor_not_required_is_0_7_minutes() {
        let s = spec();
        let m = SwModel::try_new(
            &s,
            &Topology::large(&s),
            defaults(),
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model");
        let dt = downtime(m.cp_availability());
        assert!((dt - 0.7).abs() < 0.15, "got {dt:.2} m/y");
    }

    #[test]
    fn cp_large_supervisor_required_is_1_4_minutes() {
        let s = spec();
        let m = SwModel::try_new(
            &s,
            &Topology::large(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model");
        let dt = downtime(m.cp_availability());
        assert!((dt - 1.4).abs() < 0.25, "got {dt:.2} m/y");
    }

    #[test]
    fn cp_exceeds_quoted_floors() {
        // §VI.G: "A_CP exceeds 0.999987 for the Small topology and
        // 0.999997 for the Large topology" (both scenarios at defaults).
        let s = spec();
        for scenario in [
            Scenario::SupervisorNotRequired,
            Scenario::SupervisorRequired,
        ] {
            let small = SwModel::try_new(&s, &Topology::small(&s), defaults(), scenario)
                .expect("valid SW model");
            assert!(small.cp_availability() > 0.999987, "{scenario:?}");
            let large = SwModel::try_new(&s, &Topology::large(&s), defaults(), scenario)
                .expect("valid SW model");
            assert!(large.cp_availability() > 0.999997, "{scenario:?}");
        }
    }

    #[test]
    fn dp_small_downtimes_match_paper() {
        // §VI.G: DP downtime "from 26 to 131 m/y in the Small topology".
        let s = spec();
        let without = SwModel::try_new(
            &s,
            &Topology::small(&s),
            defaults(),
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model");
        let with = SwModel::try_new(
            &s,
            &Topology::small(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model");
        let dt_without = downtime(without.host_dp_availability());
        let dt_with = downtime(with.host_dp_availability());
        assert!((dt_without - 26.0).abs() < 1.0, "got {dt_without:.1}");
        assert!((dt_with - 131.0).abs() < 2.0, "got {dt_with:.1}");
    }

    #[test]
    fn dp_large_downtimes_match_paper() {
        // §VI.G: "from 21 to 126 m/y in the Large topology".
        let s = spec();
        let without = SwModel::try_new(
            &s,
            &Topology::large(&s),
            defaults(),
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model");
        let with = SwModel::try_new(
            &s,
            &Topology::large(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model");
        let dt_without = downtime(without.host_dp_availability());
        let dt_with = downtime(with.host_dp_availability());
        assert!((dt_without - 21.0).abs() < 1.0, "got {dt_without:.1}");
        assert!((dt_with - 126.0).abs() < 2.0, "got {dt_with:.1}");
    }

    #[test]
    fn dp_floors_match_paper() {
        // §VI.G: A_DP = 0.99975+ with supervisor required, 0.99995+ without.
        let s = spec();
        for topo in [Topology::small(&s), Topology::large(&s)] {
            let with = SwModel::try_new(&s, &topo, defaults(), Scenario::SupervisorRequired)
                .expect("valid SW model");
            assert!(with.host_dp_availability() > 0.99975);
            let without = SwModel::try_new(&s, &topo, defaults(), Scenario::SupervisorNotRequired)
                .expect("valid SW model");
            assert!(without.host_dp_availability() > 0.99995);
        }
    }

    #[test]
    fn supervisor_required_is_always_worse() {
        let s = spec();
        for topo in [
            Topology::small(&s),
            Topology::medium(&s),
            Topology::large(&s),
        ] {
            let with = SwModel::try_new(&s, &topo, defaults(), Scenario::SupervisorRequired)
                .expect("valid SW model");
            let without = SwModel::try_new(&s, &topo, defaults(), Scenario::SupervisorNotRequired)
                .expect("valid SW model");
            assert!(
                with.cp_availability() < without.cp_availability(),
                "{}",
                topo.name()
            );
            assert!(
                with.host_dp_availability() < without.host_dp_availability(),
                "{}",
                topo.name()
            );
        }
    }

    #[test]
    fn local_dp_is_a_squared_without_supervisor() {
        let s = spec();
        let m = SwModel::try_new(
            &s,
            &Topology::small(&s),
            defaults(),
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model");
        let a = defaults().process.auto;
        assert!((m.local_dp_availability() - a * a).abs() < 1e-15);
    }

    #[test]
    fn local_dp_includes_supervisor_when_required() {
        let s = spec();
        let m = SwModel::try_new(
            &s,
            &Topology::small(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model");
        let p = defaults().process;
        assert!((m.local_dp_availability() - p.auto * p.auto * p.manual).abs() < 1e-15);
    }

    #[test]
    fn host_dp_is_product_of_shared_and_local() {
        let s = spec();
        let m = SwModel::try_new(
            &s,
            &Topology::large(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model");
        let product = m.shared_dp_availability() * m.local_dp_availability();
        assert!((m.host_dp_availability() - product).abs() < 1e-15);
    }

    #[test]
    fn dp_dominated_by_local_vrouter() {
        // §VI.G: "total DP availability is dominated by the identical host
        // vRouter LDP availability" — shared DP is much better than local.
        let s = spec();
        let m = SwModel::try_new(
            &s,
            &Topology::large(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model");
        assert!(m.shared_dp_availability() > m.local_dp_availability());
    }

    #[test]
    fn high_process_availability_converges_scenarios() {
        // §VI.G: at +1 order of magnitude the supervisor impact becomes
        // irrelevant; CP availabilities converge per topology, and the
        // Small topology becomes rack-limited. (The paper quotes limit
        // values of 0.999999/0.9999988 that are inconsistent with its own
        // A_R = 0.99999 rack floor; we assert the qualitative claims —
        // see EXPERIMENTS.md.)
        let s = spec();
        let params = defaults().scale_process_downtime(-1.0);
        let small_with = SwModel::try_new(
            &s,
            &Topology::small(&s),
            params,
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .cp_availability();
        let small_without = SwModel::try_new(
            &s,
            &Topology::small(&s),
            params,
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model")
        .cp_availability();
        assert!((small_with - small_without).abs() < 2e-7);
        // Small is dominated by its single rack: unavailability ≈ 1 − A_R.
        let u = 1.0 - small_with;
        assert!((u - 1e-5).abs() < 2e-6, "u={u:e}");
        // Rack separation becomes the key differentiator: Large beats
        // Small by roughly the rack unavailability.
        let large_with = SwModel::try_new(
            &s,
            &Topology::large(&s),
            params,
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .cp_availability();
        assert!(large_with - small_with > 8e-6);
    }

    #[test]
    fn low_process_availability_converges_topologies() {
        // §VI.G: at −1 order of magnitude rack separation becomes less
        // relevant; Small and Large begin to converge.
        let s = spec();
        let params = defaults().scale_process_downtime(1.0);
        let small = SwModel::try_new(
            &s,
            &Topology::small(&s),
            params,
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .cp_availability();
        let large = SwModel::try_new(
            &s,
            &Topology::large(&s),
            params,
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .cp_availability();
        let gap_low = small - large;
        let small0 = SwModel::try_new(
            &s,
            &Topology::small(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .cp_availability();
        let large0 = SwModel::try_new(
            &s,
            &Topology::large(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .cp_availability();
        let gap_default = small0 - large0;
        // The relative gap (as a share of unavailability) shrinks.
        assert!(gap_low.abs() / (1.0 - large) < gap_default.abs() / (1.0 - large0));
    }

    #[test]
    fn dp_low_availability_convergence_values() {
        // §VI.G: at −1 OoM, DP availabilities converge to ~0.9976 with the
        // supervisor required and ~0.9996 without.
        let s = spec();
        let params = defaults().scale_process_downtime(1.0);
        let with = SwModel::try_new(
            &s,
            &Topology::small(&s),
            params,
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .host_dp_availability();
        let without = SwModel::try_new(
            &s,
            &Topology::small(&s),
            params,
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model")
        .host_dp_availability();
        assert!((with - 0.9976).abs() < 3e-4, "got {with:.5}");
        assert!((without - 0.9996).abs() < 1e-4, "got {without:.5}");
    }

    #[test]
    fn dp_high_availability_convergence_values() {
        // §VI.G: at +1 OoM, DP converges to ~0.999976 (required) and
        // ~0.999996 (not required). Those values are the Large-topology
        // limits (Small keeps its ~1e-5 rack term in the SDP; the paper
        // notes "the difference is due to rack separation in the SDP").
        let s = spec();
        let params = defaults().scale_process_downtime(-1.0);
        let with = SwModel::try_new(
            &s,
            &Topology::large(&s),
            params,
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .host_dp_availability();
        let without = SwModel::try_new(
            &s,
            &Topology::large(&s),
            params,
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model")
        .host_dp_availability();
        assert!((with - 0.999976).abs() < 3e-6, "got {with:.7}");
        assert!((without - 0.999996).abs() < 3e-6, "got {without:.7}");
    }

    #[test]
    fn immature_quorum_process_hurts_far_more_than_immature_any_instance() {
        // §VI.A's "new vs mature code" extension: a 10x-worse 1-of-3
        // process costs almost nothing (its failures need two partners),
        // while a 10x-worse 2-of-3 Database process costs ~100x more
        // (quorum downtime is quadratic in process downtime).
        let degrade = |role: &str, process: &str| {
            let mut s = spec();
            let r = s.roles.iter_mut().find(|r| r.name == role).unwrap();
            let p = r.processes.iter_mut().find(|p| p.name == process).unwrap();
            p.downtime_factor = 10.0;
            s
        };
        let base_spec = spec();
        let topo = Topology::large(&base_spec);
        let cp = |s: &ControllerSpec| {
            SwModel::try_new(
                s,
                &Topology::large(s),
                defaults(),
                Scenario::SupervisorNotRequired,
            )
            .expect("valid SW model")
            .cp_availability()
        };
        let base = cp(&base_spec);
        let with_bad_config = cp(&degrade("Config", "ifmap"));
        let with_bad_db = cp(&degrade("Database", "zookeeper"));
        let cost_config = base - with_bad_config;
        let cost_db = base - with_bad_db;
        assert!(cost_config >= 0.0 && cost_db > 0.0);
        assert!(
            cost_db > 30.0 * cost_config.max(1e-15),
            "db={cost_db:e} config={cost_config:e}"
        );
        // Quadratic scaling: 10x downtime on a 2-of-3 process multiplies
        // its quorum-loss contribution by ~100.
        let zk_pair_base = 3.0 * (1.0 - defaults().process.manual).powi(2);
        assert!(
            (cost_db / zk_pair_base - 99.0).abs() < 20.0,
            "{}",
            cost_db / zk_pair_base
        );
        let _ = topo;
    }

    #[test]
    fn kernel_mode_vrouter_improves_dp_by_one_process() {
        // DESIGN.md extension: dropping vrouter-dpdk (kernel-mode
        // forwarding) raises A_LDP from A² to A.
        let dpdk = spec();
        let kernel = ControllerSpec::opencontrail_3x_kernel_mode();
        let topo_d = Topology::large(&dpdk);
        let topo_k = Topology::large(&kernel);
        let m_d = SwModel::try_new(&dpdk, &topo_d, defaults(), Scenario::SupervisorNotRequired)
            .expect("valid SW model");
        let m_k = SwModel::try_new(
            &kernel,
            &topo_k,
            defaults(),
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model");
        let a = defaults().process.auto;
        assert!((m_d.local_dp_availability() - a * a).abs() < 1e-15);
        assert!((m_k.local_dp_availability() - a).abs() < 1e-15);
        // ~10.5 m/y saved at the defaults.
        let saved = (m_k.host_dp_availability() - m_d.host_dp_availability()) * MINUTES_PER_YEAR;
        assert!((saved - 10.5).abs() < 0.2, "saved {saved:.2} m/y");
    }

    #[test]
    fn accessors() {
        let s = spec();
        let m = SwModel::try_new(
            &s,
            &Topology::small(&s),
            defaults(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model");
        assert_eq!(m.scenario(), Scenario::SupervisorRequired);
        assert_eq!(m.params(), defaults());
    }
}
