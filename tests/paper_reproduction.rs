//! Cross-crate integration tests: every number the paper quotes, checked
//! end-to-end through the public meta-crate API.

use sdn_availability::{
    ControllerSpec, HwModel, HwParams, Plane, Scenario, SwModel, SwParams, Topology,
};

const MINUTES_PER_YEAR: f64 = 525_960.0;

fn downtime(a: f64) -> f64 {
    (1.0 - a) * MINUTES_PER_YEAR
}

#[test]
fn abstract_claim_cp_high_dp_low() {
    // "the distributed control plane can achieve very high availability,
    // while the host data plane may achieve much lower availability due to
    // inherent single points of failure."
    let spec = ControllerSpec::opencontrail_3x();
    let topo = Topology::large(&spec);
    let model = SwModel::try_new(
        &spec,
        &topo,
        SwParams::paper_defaults(),
        Scenario::SupervisorRequired,
    )
    .unwrap();
    assert!(model.cp_availability() > 0.999997);
    assert!(model.host_dp_availability() < 0.9998);
    // The gap is two orders of magnitude of downtime.
    assert!(downtime(model.host_dp_availability()) > 50.0 * downtime(model.cp_availability()));
}

#[test]
fn fig3_quoted_values() {
    let spec = ControllerSpec::opencontrail_3x();
    let p = HwParams::paper_defaults();
    let small = HwModel::try_new(&spec, &Topology::small(&spec), p)
        .unwrap()
        .availability();
    let medium = HwModel::try_new(&spec, &Topology::medium(&spec), p)
        .unwrap()
        .availability();
    let large = HwModel::try_new(&spec, &Topology::large(&spec), p)
        .unwrap()
        .availability();
    assert!((small - 0.999989).abs() < 1e-6);
    assert!((medium - 0.999989).abs() < 1e-6);
    assert!((large - 0.9999990).abs() < 2e-7);
}

#[test]
fn fig4_fig5_quoted_downtimes() {
    let spec = ControllerSpec::opencontrail_3x();
    let params = SwParams::paper_defaults();
    let table: &[(&str, Scenario, f64, f64)] = &[
        ("small", Scenario::SupervisorNotRequired, 5.9, 26.0),
        ("small", Scenario::SupervisorRequired, 6.6, 131.0),
        ("large", Scenario::SupervisorNotRequired, 0.7, 21.0),
        ("large", Scenario::SupervisorRequired, 1.4, 126.0),
    ];
    for &(name, scenario, cp_m_y, dp_m_y) in table {
        let topo = if name == "small" {
            Topology::small(&spec)
        } else {
            Topology::large(&spec)
        };
        let model = SwModel::try_new(&spec, &topo, params, scenario).unwrap();
        let cp = downtime(model.cp_availability());
        let dp = downtime(model.host_dp_availability());
        assert!(
            (cp - cp_m_y).abs() < 0.3,
            "{name} {scenario:?} CP: {cp:.2} vs paper {cp_m_y}"
        );
        assert!(
            (dp - dp_m_y).abs() < 2.0,
            "{name} {scenario:?} DP: {dp:.2} vs paper {dp_m_y}"
        );
    }
}

#[test]
fn conclusion_formula_one_or_two_racks() {
    // §VII: "For a HW deployment on one or two racks ... A ≈ α²(3−2α)A_R,
    // where α = A_C·A_V·A_H."
    let spec = ControllerSpec::opencontrail_3x();
    let p = HwParams::paper_defaults();
    let alpha = p.a_c * p.a_v * p.a_h;
    let approx = alpha * alpha * (3.0 - 2.0 * alpha) * p.a_r;
    let small = HwModel::try_new(&spec, &Topology::small(&spec), p)
        .unwrap()
        .availability();
    assert!(downtime(approx) - downtime(small) < 0.2);
}

#[test]
fn conclusion_formula_three_racks() {
    // §VII: "For a HW deployment on three racks ... A ≈ α²(3−2α), where
    // α = A_C·A_V·A_H·A_R."
    let spec = ControllerSpec::opencontrail_3x();
    let p = HwParams::paper_defaults();
    let alpha = p.a_c * p.a_v * p.a_h * p.a_r;
    let approx = alpha * alpha * (3.0 - 2.0 * alpha);
    let large = HwModel::try_new(&spec, &Topology::large(&spec), p)
        .unwrap()
        .availability();
    assert!((downtime(approx) - downtime(large)).abs() < 0.2);
}

#[test]
fn fmea_and_models_agree_on_spofs() {
    // The FMEA engine and the SW model must tell the same story: the DP's
    // weak links are exactly the per-host vRouter processes.
    use sdn_availability::fmea::enumerate_filtered;
    use sdn_availability::{Deployment, ElementRef};

    let spec = ControllerSpec::opencontrail_3x();
    let topo = Topology::large(&spec);
    let params = SwParams::paper_defaults();
    let dep = Deployment::new(&spec, &topo, params, Scenario::SupervisorRequired);
    let spofs = enumerate_filtered(&dep, 1, |e| {
        matches!(e, ElementRef::Proc { .. } | ElementRef::VProc { .. })
    });
    let dp_spofs: Vec<String> = spofs
        .iter()
        .filter(|m| m.impact.hits_dp())
        .map(|m| m.elements[0].to_string())
        .collect();
    assert_eq!(dp_spofs.len(), 3); // agent, dpdk, vRouter supervisor

    // And their combined unavailability explains (almost all of) the gap
    // between the shared and total DP availability.
    let model = SwModel::try_new(&spec, &topo, params, Scenario::SupervisorRequired).unwrap();
    let local_u: f64 = 1.0 - model.local_dp_availability();
    let spof_u: f64 = spofs
        .iter()
        .filter(|m| m.impact.hits_dp())
        .map(|m| m.probability)
        .sum();
    assert!((local_u - spof_u).abs() / local_u < 0.01);
}

#[test]
fn derived_table1_matches_spec_declarations() {
    // The behavioral FMEA derivation and the declarative spec must agree
    // for every process in both planes.
    use sdn_availability::derive_table1;
    let spec = ControllerSpec::opencontrail_3x();
    let table = derive_table1(&spec);
    for role in &spec.roles {
        for p in &role.processes {
            let row = table
                .iter()
                .find(|r| r.role == role.name && r.process == p.name)
                .expect("row for every process");
            // In scenario 1, declared quorum == derived quorum (grouped DP
            // processes derive the group's requirement).
            assert_eq!(
                row.cp_required, p.cp_required,
                "{}/{} CP",
                role.name, p.name
            );
            assert_eq!(
                row.dp_required, p.dp_required,
                "{}/{} DP",
                role.name, p.name
            );
        }
    }
}

#[test]
fn blocks_markov_and_core_agree_on_database_quorum() {
    // Three independent substrates, one answer: the 2-of-3 Database quorum
    // availability from (a) the RBD algebra, (b) the birth-death Markov
    // model with dedicated repair crews, (c) the paper's Eq. (1).
    use sdn_availability::blocks::kofn::k_of_n;
    use sdn_availability::markov::repairable::KOfNRepairable;
    use sdn_availability::Block;

    let mtbf = 5000.0;
    let mttr = 1.0;
    let a = mtbf / (mtbf + mttr);

    let eq1 = k_of_n(2, 3, a);
    let rbd = Block::k_of_n(2, Block::unit("db", a).replicate(3)).availability();
    let markov = KOfNRepairable::with_dedicated_crews(2, 3, 1.0 / mtbf, 1.0 / mttr)
        .availability()
        .unwrap();

    assert!((eq1 - rbd).abs() < 1e-14);
    assert!((eq1 - markov).abs() < 1e-12);
}

#[test]
fn supervisor_arithmetic_feeds_the_sw_model() {
    // §VI.A's A and A_S derive from (F, R, R_S); the SW model defaults must
    // equal the Markov crate's arithmetic.
    use sdn_availability::markov::supervisor::SupervisorParams;
    let sup = SupervisorParams::paper_defaults();
    let params = SwParams::paper_defaults();
    assert!((sup.auto_availability() - params.process.auto).abs() < 1e-6);
    assert!((sup.manual_availability() - params.process.manual).abs() < 1e-6);
}

#[test]
fn spec_round_trips_through_json() {
    // The adoption path: specs are data. Serialize, reload, re-analyze —
    // identical results.
    let spec = ControllerSpec::opencontrail_3x();
    let json = sdnav_json::to_string(&spec);
    let reloaded: ControllerSpec = sdnav_json::from_str(&json).unwrap();
    assert_eq!(spec, reloaded);

    let p = HwParams::paper_defaults();
    let a1 = HwModel::try_new(&spec, &Topology::small(&spec), p)
        .unwrap()
        .availability();
    let a2 = HwModel::try_new(&reloaded, &Topology::small(&reloaded), p)
        .unwrap()
        .availability();
    assert_eq!(a1, a2);
}

#[test]
fn quorum_counts_document_the_paper_tables() {
    let spec = ControllerSpec::opencontrail_3x();
    let cp: (usize, usize) = spec
        .quorum_counts(Plane::ControlPlane)
        .iter()
        .fold((0, 0), |(m, n), c| (m + c.m, n + c.n));
    assert_eq!(cp, (4, 12));
    let dp: (usize, usize) = spec
        .quorum_counts(Plane::DataPlane)
        .iter()
        .fold((0, 0), |(m, n), c| (m + c.m, n + c.n));
    assert_eq!(dp, (0, 2));
}
