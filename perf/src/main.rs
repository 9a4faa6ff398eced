//! `sdnav-perf`: the sdnav benchmark harness (see `perf/README.md`).
//!
//! Tracing off (`--trace 0`) it measures the end-to-end metrics of one
//! workload, or of all four; tracing on (`--trace 1`) it times the calls
//! into each layer from this package and writes the spans to
//! `perf/out/trace/<workload>.jsonl`. Every run checks the outputs it
//! produced; any mismatch makes the command exit 1.

mod chaos;
mod child;
mod digest;
mod metrics;
mod serve;
mod stats;
mod sweeps;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sdnav_json::Json;

use crate::digest::Golden;
use crate::metrics::{Metric, Report};
use crate::trace::Tracer;

const USAGE: &str = "\
usage: bash perf/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]

  --workload W   sim_sweep | consensus_sweep | chaos_verdict | whatif_serve
                 (default: all four, one after another)
  --seed N       input seed (default 7; 1000 is the held-out seed)
  --seconds S    how long each workload measures (default 25)
  --trace 0|1    0: end-to-end metrics, tracing off; 1: per-layer metrics
                 from a traced run (default 0)
  --smoke        tiny sizes and two passes, both modes, every check
";

/// Passes each workload runs in `--smoke` mode.
const SMOKE_PASSES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimSweep,
    ConsensusSweep,
    ChaosVerdict,
    WhatifServe,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SimSweep,
        Workload::ConsensusSweep,
        Workload::ChaosVerdict,
        Workload::WhatifServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim_sweep",
            Workload::ConsensusSweep => "consensus_sweep",
            Workload::ChaosVerdict => "chaos_verdict",
            Workload::WhatifServe => "whatif_serve",
        }
    }

    fn parse(text: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == text)
    }

    fn golden_text(self) -> &'static str {
        match self {
            Workload::SimSweep => include_str!("../golden/sim_sweep.txt"),
            Workload::ConsensusSweep => include_str!("../golden/consensus_sweep.txt"),
            Workload::ChaosVerdict => include_str!("../golden/chaos_verdict.txt"),
            Workload::WhatifServe => include_str!("../golden/whatif_serve.txt"),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Internal: run one workload's passes and report to the parent.
    child: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 7,
            seconds: 25.0,
            trace: false,
            smoke: false,
            child: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    args.workload = Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => {
                    let v = value()?;
                    args.seed = v
                        .parse()
                        .map_err(|_| format!("--seed expects an integer, got {v:?}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    args.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds expects a positive number, got {v:?}"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                    };
                }
                "--smoke" => args.smoke = true,
                "--child" => args.child = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.child && args.workload.is_none() {
            return Err("--child needs --workload".into());
        }
        Ok(args)
    }
}

/// Everything one workload run needs to know.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    golden: Golden,
}

impl Run {
    fn new(workload: Workload, args: &Args) -> Result<Run, String> {
        // Smoke sizes differ from the committed ones, so no golden applies.
        let golden = if args.smoke {
            Golden::default()
        } else {
            Golden::parse(workload.golden_text(), args.seed)?
        };
        Ok(Run {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            golden,
        })
    }

    pub fn pacer(&self) -> Pacer {
        self.pacer_for(self.seconds)
    }

    pub fn pacer_for(&self, seconds: f64) -> Pacer {
        Pacer {
            seconds,
            fixed: self.smoke.then_some(SMOKE_PASSES),
            started: Instant::now(),
            last_start: None,
            last_s: 0.0,
            next_index: 0,
        }
    }

    /// Records a problem when a digest is committed for `index` and `hex`
    /// differs from it.
    pub fn check_digest(&self, index: usize, hex: &str, problems: &mut Vec<String>) {
        if self.golden.check(index, hex) == Some(false) {
            problems.push(format!(
                "output {index} at seed {} ({hex}) differs from perf/golden/{}.txt",
                self.seed,
                self.workload.name()
            ));
        }
    }
}

/// Decides whether another pass fits in the run: one always runs, and
/// another starts only if it should end (judging by the last one) within
/// the run's time. Smoke runs a fixed count instead.
#[derive(Debug)]
pub struct Pacer {
    seconds: f64,
    fixed: Option<usize>,
    started: Instant,
    last_start: Option<Instant>,
    last_s: f64,
    next_index: usize,
}

impl Iterator for Pacer {
    type Item = usize;

    /// The index of the next pass, or `None` when the run is over.
    fn next(&mut self) -> Option<usize> {
        let now = Instant::now();
        if let Some(last) = self.last_start {
            self.last_s = (now - last).as_secs_f64();
        }
        let go = match self.fixed {
            Some(n) => self.next_index < n,
            None => {
                self.next_index == 0
                    || (now - self.started).as_secs_f64() + self.last_s <= self.seconds
            }
        };
        if !go {
            return None;
        }
        self.last_start = Some(now);
        self.next_index += 1;
        Some(self.next_index - 1)
    }
}

/// A workload measured as repeated passes in a child process.
pub trait Passes {
    /// One timed pass; returns the output whose digest is checked.
    fn pass(&self, index: usize) -> Result<String, String>;
    /// Which earlier pass (and committed digest) pass `index` must equal.
    fn slot(&self, index: usize) -> usize;
}

/// Sets up the pass workload a child runs.
fn passes(run: &Run) -> Result<Box<dyn Passes>, String> {
    Ok(match run.workload {
        Workload::SimSweep => Box::new(sweeps::Sweep::new(sweeps::Kind::Sim, run.seed, run.smoke)),
        Workload::ConsensusSweep => Box::new(sweeps::Sweep::new(
            sweeps::Kind::Consensus,
            run.seed,
            run.smoke,
        )),
        Workload::ChaosVerdict => Box::new(chaos::ChaosVerdict::new(run.seed, run.smoke)?),
        Workload::WhatifServe => return Err("whatif_serve does not run in a child".into()),
    })
}

/// The checked result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
    /// Extra `metric value unit` lines for people, not in the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(catalogue: &'static [Metric]) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            report: Report::new(catalogue),
            notes: Vec::new(),
        }
    }

    /// Counts one operation, failed if it has any problem.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        for problem in problems {
            eprintln!("check failed: {problem}");
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.report.to_json()),
        ])
    }
}

/// The `sdnav` binary `perf/run.sh` builds (honouring `CARGO_TARGET_DIR`).
fn sdnav_binary() -> PathBuf {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the perf package sits inside the repository");
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    repo.join(target).join("release").join("sdnav")
}

fn execute(run: &Run, traced: bool) -> Result<Outcome, String> {
    if !traced {
        return match run.workload {
            Workload::WhatifServe => serve::measure(run, &sdnav_binary()),
            _ => child::measure(run),
        };
    }
    let mut t = Tracer::new();
    let outcome = match run.workload {
        Workload::SimSweep => sweeps::traced(
            &sweeps::Sweep::new(sweeps::Kind::Sim, run.seed, run.smoke),
            run,
            &mut t,
        ),
        Workload::ConsensusSweep => sweeps::traced(
            &sweeps::Sweep::new(sweeps::Kind::Consensus, run.seed, run.smoke),
            run,
            &mut t,
        ),
        Workload::ChaosVerdict => {
            chaos::traced(&chaos::ChaosVerdict::new(run.seed, run.smoke)?, run, &mut t)
        }
        Workload::WhatifServe => serve::traced(run, &sdnav_binary(), &mut t),
    }?;
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out/trace")
        .join(format!("{}.jsonl", run.workload.name()));
    t.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fail = |e: String| {
        eprintln!("error: {e}");
        ExitCode::from(1)
    };

    if args.child {
        let workload = args.workload.expect("checked by Args::parse");
        return match Run::new(workload, &args).and_then(|run| child::child_main(&run)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(e),
        };
    }

    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let modes = if args.smoke {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let mut all_correct = true;
    let mut last = None;
    for workload in workloads {
        for &traced in &modes {
            let outcome = match Run::new(workload, &args).and_then(|run| execute(&run, traced)) {
                Ok(outcome) => outcome,
                Err(e) => return fail(format!("{}: {e}", workload.name())),
            };
            let name = workload.name();
            for (metric, value) in outcome.report.iter() {
                println!("{name} {} {value} {}", metric.name, metric.unit);
            }
            for note in &outcome.notes {
                println!("{name} {note}");
            }
            println!(
                "{name} checks {} attempted, {} failed",
                outcome.attempted, outcome.failed
            );
            all_correct &= outcome.failed == 0;
            last = Some(outcome);
        }
    }
    // The one-line result is per workload and mode.
    if let (Some(outcome), Some(_), false) = (&last, args.workload, args.smoke) {
        println!("{}", outcome.to_json().to_compact());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn command_line_arguments_parse() {
        let args = parse("--workload chaos_verdict --seed 1000 --seconds 25 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::ChaosVerdict));
        assert_eq!((args.seed, args.seconds, args.trace), (1000, 25.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--child").is_err());
    }

    #[test]
    fn committed_goldens_parse() {
        for w in Workload::ALL {
            for seed in [7, 1000] {
                let golden = Golden::parse(w.golden_text(), seed).unwrap();
                assert!(
                    !golden.is_empty(),
                    "{} has no digest at seed {seed}",
                    w.name()
                );
            }
        }
    }
}
