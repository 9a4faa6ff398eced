//! Child processes. A pass workload runs in a fresh child of this binary
//! with tracing off, so its peak RSS is its own; the parent collects the
//! set-up time, pass timings and output digests over a line protocol, and
//! checks them.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use crate::digest::sha256_hex;
use crate::metrics::END_TO_END;
use crate::stats::median;
use crate::{Outcome, Run};

/// The child builds its workload this many times before every pass and
/// reports the median build time over the whole run as the set-up time.
/// Builds spread across the run see the same mix of host load as the
/// passes; a few microseconds of builds timed back to back would catch
/// only one instant of it. Process start is left out: in a VM it costs
/// about a millisecond with a bimodal jitter far larger than the set-up
/// work itself.
const BUILDS_PER_PASS: usize = 5;

/// A child process that is killed (if still running) and reaped when
/// dropped, on every path out of the code that started it.
#[derive(Debug)]
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `VmHWM` (peak resident set) of process `pid` (or `self`), in kB.
pub fn peak_rss_kb(pid: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

fn bad_line(line: &str) -> String {
    format!("unexpected line from the child: {line:?}")
}

/// Parent side: runs the workload's passes in a child and checks every
/// pass's digest.
pub fn measure(run: &Run) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", run.workload.name()])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if run.smoke {
        cmd.arg("--smoke");
    }
    let mut child = Reaped(
        cmd.spawn()
            .map_err(|e| format!("cannot start a child: {e}"))?,
    );
    let stdout = child.0.stdout.take().expect("stdout is piped");

    let (mut setup_s, mut rss_kb, mut passes) = (None, None, Vec::new());
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read the child's report: {e}"))?;
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["setup", secs] => setup_s = Some(secs.parse::<f64>().map_err(|_| bad_line(&line))?),
            ["pass", slot, secs, hex] => passes.push((
                slot.parse::<usize>().map_err(|_| bad_line(&line))?,
                secs.parse::<f64>().map_err(|_| bad_line(&line))?,
                (*hex).to_owned(),
            )),
            ["rss", kb] => rss_kb = Some(kb.parse::<u64>().map_err(|_| bad_line(&line))?),
            _ => return Err(bad_line(&line)),
        }
    }
    let status = child
        .0
        .wait()
        .map_err(|e| format!("cannot wait for the child: {e}"))?;
    if !status.success() {
        return Err(format!("the child failed: {status}"));
    }
    let setup_s = setup_s.ok_or("the child did not report its set-up time")?;
    let rss_kb = rss_kb.ok_or("the child did not report its peak RSS")?;

    let mut outcome = Outcome::new(END_TO_END);
    let mut seen: BTreeMap<usize, String> = BTreeMap::new();
    for (index, (slot, _, hex)) in passes.iter().enumerate() {
        let mut problems = Vec::new();
        match seen.get(slot) {
            None => {
                outcome.notes.push(format!("digest {slot} {hex}"));
                seen.insert(*slot, hex.clone());
            }
            Some(first) if first == hex => {}
            Some(first) => problems.push(format!(
                "pass {index} digest {hex} differs from {first}, the first at slot {slot}"
            )),
        }
        run.check_digest(*slot, hex, &mut problems);
        outcome.record(problems);
    }
    let pass_s: Vec<f64> = passes.iter().map(|(_, secs, _)| *secs).collect();
    if pass_s.is_empty() {
        return Err("the child ran no pass".into());
    }
    outcome.report.set("setup_s", setup_s);
    outcome.report.set("pass_s", median(&pass_s));
    outcome.report.set("peak_rss_mb", rss_kb as f64 / 1024.0);
    outcome.notes.push(format!("passes {}", pass_s.len()));
    Ok(outcome)
}

/// Child side: before every pass builds the workload `BUILDS_PER_PASS`
/// times (timing each build), runs the pass on the last build and reports
/// `pass <slot> <seconds> <sha256>`; once the run's time is up reports
/// `setup <median build seconds>` and `rss <kB>`.
pub fn child_main(run: &Run) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    let mut report = |line: String| {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot report to the parent: {e}"))
    };
    let mut setup_s = Vec::new();
    for index in run.pacer() {
        let mut job = None;
        for _ in 0..BUILDS_PER_PASS {
            drop(job.take());
            let started = Instant::now();
            job = Some(crate::passes(run)?);
            setup_s.push(started.elapsed().as_secs_f64());
        }
        let job = job.expect("BUILDS_PER_PASS is positive");
        let started = Instant::now();
        let doc = job.pass(index)?;
        let secs = started.elapsed().as_secs_f64();
        report(format!(
            "pass {} {secs} {}",
            job.slot(index),
            sha256_hex(doc.as_bytes())
        ))?;
    }
    report(format!("setup {}", median(&setup_s)))?;
    report(format!("rss {}", peak_rss_kb("self")?))
}
