//! `chaos_verdict`: for each reference topology, generate the FMEA-driven
//! campaign, build the simulation and gate it with the survive-or-attribute
//! verdict, single-threaded, as `sdnav chaos run --verdict` does.
//!
//! The traced run times each of those calls, then replays the verdict's
//! inner calls (FMEA enumeration, campaign compile, the baseline runs and
//! the injected run) so the verdict's own share and the attribution
//! ledger's cost per event show.

use sdnav_chaos::{compile, generate, verdict, GenerateConfig, VerdictConfig};
use sdnav_core::{ControllerSpec, Scenario, SwParams, Topology};
use sdnav_fmea::{enumerate, Deployment};
use sdnav_sim::{SimConfig, Simulation};

use crate::digest::sha256_hex;
use crate::metrics::{rate, Report, PER_LAYER};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Outcome, Passes, Run};

/// Pass `i` gates at verdict seed `seed + i % SEED_CYCLE`, so every pass
/// after the first cycle must reproduce an earlier pass byte for byte.
const SEED_CYCLE: usize = 5;

#[derive(Debug, Clone)]
pub struct ChaosVerdict {
    spec: ControllerSpec,
    topologies: Vec<Topology>,
    config: SimConfig,
    verdict: VerdictConfig,
    seed: u64,
    seed_cycle: usize,
}

impl ChaosVerdict {
    pub fn new(seed: u64, smoke: bool) -> Result<ChaosVerdict, String> {
        let spec = ControllerSpec::opencontrail_3x();
        let topologies = if smoke {
            vec![Topology::small(&spec)]
        } else {
            vec![
                Topology::small(&spec),
                Topology::medium(&spec),
                Topology::large(&spec),
            ]
        };
        let config = SimConfig::builder(Scenario::SupervisorNotRequired)
            .accelerate(100.0)
            .horizon_hours(if smoke { 5_000.0 } else { 20_000.0 })
            .compute_hosts(3)
            .build()
            .map_err(|e| e.to_string())?;
        Ok(ChaosVerdict {
            spec,
            topologies,
            config,
            verdict: VerdictConfig {
                replications: if smoke { 2 } else { 3 },
                ..VerdictConfig::default()
            },
            seed,
            seed_cycle: if smoke { 1 } else { SEED_CYCLE },
        })
    }

    fn deployment<'a>(&'a self, topo: &'a Topology) -> Deployment<'a> {
        Deployment::new(
            &self.spec,
            topo,
            SwParams::paper_defaults(),
            Scenario::SupervisorNotRequired,
        )
    }

    fn verdict_seed(&self, index: usize) -> u64 {
        self.seed + self.slot(index) as u64
    }

    /// One pass with a span per call: generate, build, verdict, encode.
    /// Returns the concatenated verdict documents, each exactly as
    /// `sdnav chaos run --verdict GENSPEC --format json` prints it, and how
    /// many verdicts passed.
    fn run_pass(&self, t: &mut Tracer, index: usize) -> Result<(String, usize), String> {
        let mut out = String::new();
        let mut passed = 0;
        for topo in &self.topologies {
            let deployment = self.deployment(topo);
            let generated = t
                .span("chaos.generate", |_| {
                    generate(&deployment, &GenerateConfig::default())
                })
                .map_err(|e| e.to_string())?;
            let sim = t
                .span("sim.build", |_| {
                    Simulation::try_new(&self.spec, topo, self.config)
                })
                .map_err(|e| e.to_string())?;
            let report = t
                .span("chaos.verdict", |_| {
                    verdict(&sim, &generated, self.verdict_seed(index), &self.verdict)
                })
                .map_err(|e| e.to_string())?;
            passed += usize::from(report.pass());
            t.span("json.encode", |_| {
                out.push_str(&report.to_doc().to_pretty());
                out.push('\n');
            });
        }
        Ok((out, passed))
    }
}

impl Passes for ChaosVerdict {
    fn pass(&self, index: usize) -> Result<String, String> {
        // One body for both modes: a throwaway tracer's dozen spans cost
        // microseconds against a pass of about a second.
        Ok(self.run_pass(&mut Tracer::new(), index)?.0)
    }

    fn slot(&self, index: usize) -> usize {
        index % self.seed_cycle
    }
}

/// Calls the verdict makes internally, replayed one by one.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Replayed {
    modes: usize,
    baseline_events: u64,
    injected_events: u64,
    planned_injections: u64,
    replications: u64,
}

impl ChaosVerdict {
    fn replay(&self, t: &mut Tracer, index: usize) -> Result<Replayed, String> {
        let mut out = Replayed::default();
        let seed = self.verdict_seed(index);
        for topo in &self.topologies {
            let deployment = self.deployment(topo);
            let defaults = GenerateConfig::default();
            t.span("fmea.enumerate", |_| {
                std::hint::black_box(enumerate(&deployment, defaults.max_order))
            });
            let generated = generate(&deployment, &defaults).map_err(|e| e.to_string())?;
            out.modes += generated.expectations.len();
            let sim =
                Simulation::try_new(&self.spec, topo, self.config).map_err(|e| e.to_string())?;
            let plan = t
                .span("chaos.compile", |_| compile(&generated.campaign, &sim))
                .map_err(|e| e.to_string())?;
            // `verdict` runs max(R, 2) baseline replications at seed, seed+1,
            // … and the injected run at `seed`.
            let replications = self.verdict.replications.max(2);
            for r in 0..replications {
                out.baseline_events += t.span("sim.run", |_| sim.run(seed + r as u64)).events;
            }
            let injected = t.span("sim.run_injected", |_| sim.run_injected(seed, &plan));
            out.injected_events += injected.events;
            out.planned_injections += injected
                .ledger
                .as_ref()
                .map_or(0, |ledger| ledger.injected_events);
            out.replications += replications as u64 + 1;
        }
        Ok(out)
    }
}

/// The traced run: passes (root span `pass`) each followed by the replay of
/// the verdict's inner calls (root span `replay`), until `run.seconds`.
pub fn traced(chaos: &ChaosVerdict, run: &Run, t: &mut Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(PER_LAYER);
    let mut first: Vec<Option<(String, Replayed)>> = vec![None; chaos.seed_cycle];
    let (mut bytes, mut baseline_events, mut injected_events) = (0.0, 0.0, 0.0);
    let mut verdicts_passed = None;
    let mut verdict_self_pct = Vec::new();
    for index in run.pacer() {
        t.set_request(index as u64);
        let mut problems = Vec::new();
        let pass_start = t.spans().len();
        let (json, pass_passed) = t.span("pass", |t| chaos.run_pass(t, index))?;
        let slot = chaos.slot(index);
        run.check_digest(slot, &sha256_hex(json.as_bytes()), &mut problems);

        let replay_start = t.spans().len();
        let replayed = t.span("replay", |t| chaos.replay(t, index))?;
        match &first[slot] {
            None => first[slot] = Some((json.clone(), replayed)),
            Some((json0, replayed0)) => {
                if json0 != &json || replayed0 != &replayed {
                    problems.push(format!(
                        "pass {index} differs from an earlier pass at slot {slot}"
                    ));
                }
            }
        }

        // The verdict's own share: its time minus the inner calls replayed
        // for this pass.
        let spans = t.spans();
        let ns = |range: &[crate::trace::Span], names: &[&str]| -> f64 {
            range
                .iter()
                .filter(|s| names.contains(&s.name))
                .map(|s| s.duration_ns() as f64)
                .sum()
        };
        let verdict_ns = ns(&spans[pass_start..replay_start], &["chaos.verdict"]);
        let inner_ns = ns(
            &spans[replay_start..],
            &["chaos.compile", "sim.run", "sim.run_injected"],
        );
        verdict_self_pct.push(100.0 * (verdict_ns - inner_ns) / verdict_ns);

        bytes += json.len() as f64;
        baseline_events += replayed.baseline_events as f64;
        injected_events += replayed.injected_events as f64;
        verdicts_passed.get_or_insert(pass_passed);
        outcome.record(problems);
    }
    let (json0, replayed0) = first[0].clone().ok_or("no traced pass ran")?;

    let baseline_rate = rate(baseline_events, t.busy_s("sim.run"));
    let injected_rate = rate(injected_events, t.busy_s("sim.run_injected"));
    let r: &mut Report = &mut outcome.report;
    r.set("trace.pass_ms", median(&t.durations_ms("pass")));
    r.set("json.bytes", json0.len() as f64);
    r.set(
        "json.encode_mb_per_s",
        rate(bytes / 1e6, t.busy_s("json.encode")),
    );
    r.set(
        "sim.events",
        (replayed0.baseline_events + replayed0.injected_events) as f64,
    );
    r.set("sim.replications", replayed0.replications as f64);
    r.set("sim.events_per_s", baseline_rate);
    r.set("sim.builds_per_s", t.calls_per_s("sim.build"));
    r.set("fmea.enumerations_per_s", t.calls_per_s("fmea.enumerate"));
    r.set("chaos.generates_per_s", t.calls_per_s("chaos.generate"));
    r.set("chaos.compiles_per_s", t.calls_per_s("chaos.compile"));
    r.set("chaos.modes", replayed0.modes as f64);
    r.set("chaos.injected_events", replayed0.planned_injections as f64);
    r.set("chaos.verdicts_passed", verdicts_passed.unwrap_or(0) as f64);
    // Cost per event of an injected run relative to an organic one.
    r.set(
        "chaos.ledger_cost_ratio",
        rate(baseline_rate, injected_rate),
    );
    r.set("chaos.verdict_self_pct", median(&verdict_self_pct));
    Ok(outcome)
}
