//! Harness-less timing benches for the analytic layers.
//!
//! Each case is timed with `std::time::Instant` over a fixed iteration
//! count (no external bench framework — the build environment is offline).
//! Run with `cargo bench -p sdnav-bench --bench analytic`.

use std::hint::black_box;
use std::time::Instant;

use sdnav_blocks::kofn::{k_of_n, k_of_n_heterogeneous};
use sdnav_blocks::Block;
use sdnav_core::{
    ControllerSpec, HwModel, HwParams, ModelState, Scenario, SwModel, SwParams, Topology,
};
use sdnav_grid::{EvalGraph, GridSpec};
use sdnav_markov::repairable::KOfNRepairable;
use sdnav_markov::Ctmc;

/// Times `f` over `iters` iterations (after a 10% warmup) and prints the
/// mean per-iteration cost.
fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    for _ in 0..iters / 10 + 1 {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed() / iters;
    println!("{name:<44} {per_iter:>12.2?}/iter  ({iters} iters)");
}

fn bench_kofn() {
    bench("kofn/identical_2_of_3", 100_000, || {
        k_of_n(black_box(2), black_box(3), black_box(0.9995))
    });
    let alphas: Vec<f64> = (0..32).map(|i| 0.99 + 0.0003 * i as f64).collect();
    bench("kofn/heterogeneous_16_of_32", 10_000, || {
        k_of_n_heterogeneous(black_box(16), black_box(&alphas))
    });
}

fn bench_blocks() {
    let spec_block = Block::series(vec![
        Block::k_of_n(2, Block::unit("db", 0.9995).replicate(3)),
        Block::k_of_n(1, Block::unit("cfg", 0.9995).replicate(3)),
        Block::unit("rack", 0.99999),
    ]);
    bench("blocks/availability", 100_000, || {
        black_box(&spec_block).availability()
    });
}

fn bench_markov() {
    bench("markov/gth_steady_state_20_states", 1_000, || {
        let mut chain = Ctmc::new(20);
        for i in 0..19 {
            chain.add_transition(i, i + 1, 0.5 + i as f64 * 0.01);
            chain.add_transition(i + 1, i, 1.0);
        }
        chain.steady_state().unwrap()
    });
    bench("markov/repairable_2_of_3", 10_000, || {
        KOfNRepairable::new(2, 3, black_box(1.0 / 5000.0), 10.0, 1)
            .availability()
            .unwrap()
    });
}

fn bench_models() {
    let spec = ControllerSpec::opencontrail_3x();
    let hw = HwParams::paper_defaults();
    let sw = SwParams::paper_defaults();
    for topo in [
        Topology::small(&spec),
        Topology::medium(&spec),
        Topology::large(&spec),
    ] {
        let name = topo.name().to_lowercase();
        bench(&format!("hw_model/{name}"), 10_000, || {
            HwModel::try_new(&spec, &topo, black_box(hw))
                .unwrap()
                .availability()
        });
        bench(
            &format!("sw_model/cp/{name}/supervisor_required"),
            1_000,
            || {
                SwModel::try_new(&spec, &topo, black_box(sw), Scenario::SupervisorRequired)
                    .unwrap()
                    .cp_availability()
            },
        );
        bench(
            &format!("sw_model/dp/{name}/supervisor_required"),
            1_000,
            || {
                SwModel::try_new(&spec, &topo, black_box(sw), Scenario::SupervisorRequired)
                    .unwrap()
                    .host_dp_availability()
            },
        );
    }
    let five = spec.scaled_cluster(5);
    let topo = Topology::small(&five);
    bench("sw_model/cp/small_5_nodes/supervisor_required", 100, || {
        SwModel::try_new(&five, &topo, black_box(sw), Scenario::SupervisorRequired)
            .unwrap()
            .cp_availability()
    });
}

fn bench_figures() {
    let spec = ControllerSpec::opencontrail_3x();
    bench("figures/fig3_21_points", 100, || {
        sdnav_core::sweep::fig3(&spec, HwParams::paper_defaults(), 21)
    });
    bench("figures/fig4_11_points", 100, || {
        sdnav_core::sweep::fig4(&spec, SwParams::paper_defaults(), 11)
    });
    bench("figures/fig5_11_points", 100, || {
        sdnav_core::sweep::fig5(&spec, SwParams::paper_defaults(), 11)
    });
    // The analytic half of a `sdnav serve` cold eval: every sub-model of
    // the paper grid at 41 points misses a fresh graph.
    let state = ModelState::paper(spec.clone());
    let grid = GridSpec::builder().points(41).threads(1).build().unwrap();
    bench("grid/cold_eval_41_points", 100, || {
        sdnav_grid::evaluate_incremental(&state, black_box(&grid), &EvalGraph::new()).unwrap()
    });
}

fn bench_extensions() {
    bench("markov/coupled_quorum_2of3_64_states", 100, || {
        sdnav_markov::quorum_coupling::coupled_quorum_availability(
            black_box(2),
            black_box(3),
            sdnav_markov::supervisor::SupervisorParams::paper_defaults(),
        )
        .unwrap()
    });
    let spec = ControllerSpec::opencontrail_3x();
    bench("planner/evaluate_18_candidates", 100, || {
        sdnav_core::planner::evaluate_candidates(
            &spec,
            SwParams::paper_defaults(),
            &sdnav_core::planner::CostModel::ballpark(),
        )
    });
    let topo = Topology::large(&spec);
    bench("sensitivity/sw_cp_large", 100, || {
        sdnav_core::sensitivity::sw(
            &spec,
            &topo,
            SwParams::paper_defaults(),
            Scenario::SupervisorRequired,
            sdnav_core::sensitivity::SwMetric::ControlPlane,
        )
    });
}

fn bench_fmea() {
    let spec = ControllerSpec::opencontrail_3x();
    let topo = Topology::large(&spec);
    let dep = sdnav_fmea::Deployment::new(
        &spec,
        &topo,
        SwParams::paper_defaults(),
        Scenario::SupervisorRequired,
    );
    bench("fmea/single_order_enumeration", 100, || {
        sdnav_fmea::enumerate(black_box(&dep), 1)
    });
    bench("fmea/table1_derivation", 1_000, || {
        sdnav_fmea::derive_table1(black_box(&spec))
    });
}

fn main() {
    bench_kofn();
    bench_blocks();
    bench_markov();
    bench_models();
    bench_figures();
    bench_fmea();
    bench_extensions();
}
