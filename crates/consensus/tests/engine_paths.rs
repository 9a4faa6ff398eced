//! Pins the consensus DES's output bits: RAFT on 3 and 5 nodes and BFT
//! 1:0 on 5, under a log-normal and the committed empirical election
//! latency, with no racks, one rack, two racks and one rack per node, and
//! with no kills, leader kills and node kills.
//!
//! Each row of `golden/engine_paths.golden.txt` is one seeded
//! `run_injected`: its elections, stalls, injected and skipped kills, and
//! the bit patterns of the availability, election fraction and stall
//! fraction. Any drift, even in the last bit, means the engine changed a
//! simulated statistic. Regenerate the file only for a change that means
//! to, with the command in its header.

use sdnav_consensus::{ConsensusParams, ConsensusSim, InjectTarget, Injection, RackConfig};
use sdnav_core::{ConsensusSpec, ElectionLatency, FaultMix};

const GOLDEN: &str = include_str!("golden/engine_paths.golden.txt");

const HEADER: &str = "\
# Consensus engine-path golden: specs, election latencies, rack layouts
# and kill plans (see crates/consensus/tests/engine_paths.rs).
# Regenerate: SDNAV_UPDATE_GOLDEN=1 cargo test -p sdnav-consensus --test engine_paths
# spec latency racks kills seed elections stalls injected skipped availability_bits election_bits stall_bits
";

const SEEDS: [u64; 2] = [1, 2];

/// Failures frequent enough that second failures overlap repairs, so
/// quorum losses occur even without racks.
const PARAMS: ConsensusParams = ConsensusParams {
    node_mtbf_hours: 150.0,
    node_mttr_hours: 2.0,
    horizon_hours: 4_000.0,
};

fn specs() -> [(&'static str, ConsensusSpec); 3] {
    let with = |cluster_size, fault_mix| ConsensusSpec {
        cluster_size,
        fault_mix,
        ..ConsensusSpec::raft_defaults()
    };
    [
        ("raft3", ConsensusSpec::raft_defaults()),
        ("raft5", with(5, FaultMix::crash_only(2))),
        (
            "bft1:0/5",
            with(
                5,
                FaultMix {
                    byzantine: 1,
                    crash: 0,
                },
            ),
        ),
    ]
}

fn latencies() -> [(&'static str, ElectionLatency); 2] {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/consensus/raft_failover_quantiles.json"
    );
    let text = std::fs::read_to_string(path).expect("committed quantile fixture");
    [
        (
            "lognormal",
            ElectionLatency::LogNormal {
                mu: 5.5,
                sigma: 0.5,
            },
        ),
        (
            "empirical",
            sdnav_json::from_str(&text).expect("fixture decodes as an election latency"),
        ),
    ]
}

/// No racks, all nodes in one rack, a majority/minority split over two,
/// and one rack per node.
fn racks(n: usize) -> [(&'static str, Option<RackConfig>); 4] {
    let rack = |placement: Vec<usize>| {
        Some(RackConfig {
            placement,
            rack_mtbf_hours: 400.0,
            rack_mttr_hours: 3.0,
        })
    };
    [
        ("none", None),
        ("one", rack(vec![0; n])),
        ("two", rack((0..n).map(|i| 2 * i / n).collect())),
        ("per-node", rack((0..n).collect())),
    ]
}

/// Forty kills, one every 97 hours.
fn kills(target: Option<InjectTarget>) -> Vec<Injection> {
    let Some(target) = target else {
        return Vec::new();
    };
    (0..40)
        .map(|k| Injection {
            at_hours: 30.0 + 97.0 * f64::from(k),
            target,
        })
        .collect()
}

const KILLS: [(&str, Option<InjectTarget>); 3] = [
    ("none", None),
    ("leader", Some(InjectTarget::Leader)),
    ("node", Some(InjectTarget::Node(1))),
];

fn rows() -> String {
    let mut out = String::from(HEADER);
    for (spec_name, spec) in specs() {
        for (latency_name, latency) in latencies() {
            let spec = ConsensusSpec {
                election_latency: latency,
                ..spec.clone()
            };
            for (racks_name, racks) in racks(spec.cluster_size as usize) {
                let sim = ConsensusSim::with_racks(spec.clone(), PARAMS, racks)
                    .expect("valid simulation");
                for (kills_name, target) in KILLS {
                    let plan = kills(target);
                    for seed in SEEDS {
                        let o = sim.run_injected(seed, &plan).expect("valid plan");
                        out.push_str(&format!(
                            "{spec_name} {latency_name} {racks_name} {kills_name} {seed} \
                             {} {} {} {} {:#018x} {:#018x} {:#018x}\n",
                            o.elections,
                            o.stalls,
                            o.injected_kills,
                            o.skipped_injections,
                            o.availability.to_bits(),
                            o.election_fraction.to_bits(),
                            o.stall_fraction.to_bits(),
                        ));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn engine_paths_match_the_golden() {
    let rows = rows();
    if std::env::var_os("SDNAV_UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/engine_paths.golden.txt"
        );
        std::fs::write(path, &rows).expect("write the golden");
        return;
    }
    for (line, (want, got)) in GOLDEN.lines().zip(rows.lines()).enumerate() {
        assert_eq!(got, want, "golden line {}", line + 1);
    }
    assert_eq!(rows.lines().count(), GOLDEN.lines().count(), "row count");
}

#[test]
fn golden_exercises_every_path() {
    // A golden that never loses quorum or never fires a kill at an empty
    // seat or a dead node pins nothing about those paths.
    let data: Vec<Vec<&str>> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split(' ').collect())
        .collect();
    assert_eq!(data.len(), 3 * 2 * 4 * KILLS.len() * SEEDS.len());
    assert!(data.iter().any(|r| r[6] != "0"), "some run stalls");
    assert!(data.iter().any(|r| r[8] != "0"), "some kill is skipped");
    for kills in ["leader", "node"] {
        assert!(
            data.iter().filter(|r| r[3] == kills).all(|r| r[7] != "0"),
            "{kills}: kills land"
        );
    }
}
