//! The committed RAFT failover-latency quantile fixture
//! (`tests/fixtures/consensus/raft_failover_quantiles.json`, digitized
//! from the Sakic & Kellerer controller failover measurements): it must
//! decode as an [`ElectionLatency::Empirical`], reproduce its own
//! quantiles through the inverse CDF, sit above the default heartbeat
//! (so SA033 stays quiet), and drive the consensus DES to bit-identical
//! results no matter which thread draws from it.

use sdnav_consensus::{ConsensusParams, ConsensusSim};
use sdnav_core::{ConsensusSpec, ElectionLatency};

fn fixture() -> ElectionLatency {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/consensus/raft_failover_quantiles.json"
    );
    let text = std::fs::read_to_string(path).expect("committed quantile fixture");
    sdnav_json::from_str(&text).expect("fixture decodes as an election latency")
}

#[test]
fn fixture_validates_and_reproduces_its_quantiles() {
    let latency = fixture();
    latency.validate().expect("fixture table is well-formed");
    let ElectionLatency::Empirical { ref quantiles } = latency else {
        panic!("fixture must be the empirical kind");
    };
    assert!(quantiles.len() >= 10, "digitized table has full coverage");
    // The inverse CDF evaluated at a knot returns that knot's latency.
    for &(q, ms) in quantiles {
        assert!(
            (latency.sample_ms(q) - ms).abs() < 1e-9,
            "sample_ms({q}) = {} != {ms}",
            latency.sample_ms(q)
        );
    }
    // Between knots it interpolates linearly: the p50→p75 midpoint.
    let mid = latency.sample_ms(0.625);
    assert!((mid - 362.5).abs() < 1e-9, "midpoint draw {mid}");
    // The trapezoid mean of the digitized table, computed by hand.
    assert!(
        (latency.mean_ms() - 348.65).abs() < 0.01,
        "mean {}",
        latency.mean_ms()
    );
    // Failover is slower on average than RAFT's prescribed uniform
    // timeout — the shift the empirical distribution exists to model.
    let default_mean = ConsensusSpec::raft_defaults().election_latency.mean_ms();
    assert!(latency.mean_ms() > default_mean);
}

#[test]
fn fixture_floor_clears_the_default_heartbeat() {
    // SA033 flags an election floor at or below the heartbeat interval;
    // the committed fixture must be clean against the default spec.
    let latency = fixture();
    let heartbeat = ConsensusSpec::raft_defaults().heartbeat_interval_ms;
    assert!(
        latency.floor_ms() > heartbeat,
        "floor {} must exceed heartbeat {heartbeat}",
        latency.floor_ms()
    );
}

#[test]
fn empirical_draws_are_bit_identical_across_threads() {
    let mut spec = ConsensusSpec::raft_defaults();
    spec.election_latency = fixture();
    let params = ConsensusParams {
        node_mtbf_hours: 500.0,
        node_mttr_hours: 8.0,
        horizon_hours: 20_000.0,
    };
    let run = |seed: u64| {
        let sim = ConsensusSim::try_new(spec.clone(), params).expect("valid sim");
        let outcome = sim.run(seed);
        (
            outcome.availability.to_bits(),
            outcome.election_fraction.to_bits(),
            outcome.elections,
        )
    };
    let reference: Vec<_> = (1..=4u64).map(run).collect();
    // The same seeds drawn concurrently from four threads must reproduce
    // the reference bit patterns: the empirical inverse CDF holds no
    // shared state and each replication owns its seeded streams.
    let run = &run;
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=4u64)
            .map(|seed| scope.spawn(move || run(seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replication thread"))
            .collect()
    });
    assert_eq!(reference, concurrent);
}
