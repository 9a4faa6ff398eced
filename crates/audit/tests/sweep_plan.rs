//! Pins the `sdnav-sweep-plan/v1` document `SweepPlan::predict` writes for
//! `sdnav sweep --dry-run`: the four grid fixtures under `tests/fixtures/`
//! and one grid with every axis family (figures, simulation, a chaos
//! campaign with crew and common-cause axes, and consensus axes).
//!
//! Any byte of drift means the cost model changed what it predicts.
//! Regenerate the file only for a change that means to, with the command
//! in its header.

use sdnav_chaos::ChaosSpec;
use sdnav_core::{ConsensusSpec, ControllerSpec, FaultMix};
use sdnav_grid::GridSpec;

use sdnav_audit::SweepPlan;

const GOLDEN: &str = include_str!("golden/sweep_plan.golden.txt");

const HEADER: &str = "\
# Sweep-plan golden: SweepPlan::predict on the bundled spec
# (see crates/audit/tests/sweep_plan.rs).
# Regenerate: SDNAV_UPDATE_GOLDEN=1 cargo test -p sdnav-audit --test sweep_plan
";

const GRID_FIXTURES: [&str; 4] = [
    "clean_smoke.grid.json",
    "sa030_duplicate_cells.grid.json",
    "sa031_dominated_crews.grid.json",
    "sa032_cost_blowup.grid.json",
];

fn fixture(name: &str) -> String {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every axis family at once: Figs. 3–5, simulated cells, the clean
/// rack-fail campaign over crew and common-cause axes, and consensus axes.
fn every_axis_grid() -> GridSpec {
    let campaign: ChaosSpec =
        sdnav_json::from_str(&fixture("clean_rack_fail.campaign.json")).expect("campaign decodes");
    GridSpec::builder()
        .points(3)
        .replications(2)
        .chaos_campaign(campaign)
        .chaos_crew_counts(&[1, 3])
        .chaos_ccf_probabilities(&[0.0, 0.5])
        .consensus(ConsensusSpec::raft_defaults())
        .consensus_election_timeouts_ms(&[150.0, 600.0])
        .consensus_cluster_sizes(&[3, 5])
        .consensus_fault_mixes(&[
            FaultMix::crash_only(1),
            FaultMix {
                byzantine: 1,
                crash: 0,
            },
        ])
        .build()
        .expect("valid grid")
}

fn document() -> String {
    let spec = ControllerSpec::opencontrail_3x();
    let mut grids: Vec<(String, GridSpec)> = GRID_FIXTURES
        .iter()
        .map(|name| {
            let grid = sdnav_json::from_str(&fixture(name)).expect("grid decodes");
            ((*name).to_owned(), grid)
        })
        .collect();
    grids.push(("every axis".to_owned(), every_axis_grid()));
    let mut out = HEADER.to_owned();
    for (name, grid) in &grids {
        out.push_str(&format!("## {name}\n"));
        out.push_str(&sdnav_json::to_string_pretty(&SweepPlan::predict(
            &spec, grid,
        )));
        out.push('\n');
    }
    out
}

#[test]
fn sweep_plans_match_the_golden() {
    let doc = document();
    if std::env::var_os("SDNAV_UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/sweep_plan.golden.txt"
        );
        std::fs::write(path, &doc).expect("write the golden");
        return;
    }
    for (line, (want, got)) in GOLDEN.lines().zip(doc.lines()).enumerate() {
        assert_eq!(got, want, "golden line {}", line + 1);
    }
    assert_eq!(doc.lines().count(), GOLDEN.lines().count(), "line count");
}

#[test]
fn golden_covers_every_cell_kind() {
    // A golden without chaos or consensus cells pins nothing about how
    // the cost model prices them.
    for kind in ["fig3", "fig4", "fig5", "sim", "chaos", "consensus"] {
        assert!(
            GOLDEN.contains(&format!("\"kind\": \"{kind}\"")),
            "no {kind} cell in the golden"
        );
    }
}
