//! End-to-end tests of the `sdnav` binary.

use std::process::Command;

fn sdnav_raw(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sdnav"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn sdnav(args: &[&str]) -> (bool, String, String) {
    let out = sdnav_raw(args);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Exit code of a run (the CLI contract: 0 success, 1 failure, 2 usage).
fn sdnav_code(args: &[&str]) -> i32 {
    sdnav_raw(args).status.code().expect("exit code")
}

/// Runs a command with little output, failing the test if it has not
/// exited within `secs` seconds: a hang fails here instead of stalling.
fn sdnav_within(secs: u64, args: &[&str]) -> std::process::Output {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_sdnav"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill the stuck child");
            child.wait().expect("reap the stuck child");
            panic!("sdnav {} did not finish in {secs} s", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = sdnav(&["help"]);
    assert!(ok);
    for cmd in ["tables", "fig3", "fmea", "simulate", "sensitivity"] {
        assert!(stdout.contains(cmd), "help is missing {cmd}");
    }
    // The synopsis is the option declaration, so every option a handler
    // reads is listed on its command.
    for (cmd, option) in [
        ("fig3", "--threads"),
        ("importance", "--order"),
        ("simulate", "--compute-hosts"),
    ] {
        let entry = stdout
            .lines()
            .skip_while(|line| !line.starts_with(&format!("  {cmd} ")))
            .take_while(|line| line.starts_with(&format!("  {cmd} ")) || line.starts_with("   "))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            entry.contains(option),
            "help for {cmd} is missing {option}:\n{entry}"
        );
    }
}

#[test]
fn no_subcommand_shows_help() {
    let (ok, stdout, _) = sdnav(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, stderr) = sdnav(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn tables_render_paper_tables() {
    let (ok, stdout, _) = sdnav(&["tables"]);
    assert!(ok);
    assert!(stdout.contains("Table I"));
    assert!(stdout.contains("zookeeper"));
    assert!(stdout.contains("2 of 3"));
    assert!(stdout.contains("Table III"));
}

#[test]
fn hw_reports_three_topologies() {
    let (ok, stdout, _) = sdnav(&["hw"]);
    assert!(ok);
    for name in ["Small", "Medium", "Large"] {
        assert!(stdout.contains(name));
    }
    // The Fig. 3 headline value.
    assert!(stdout.contains("0.999989"));
}

#[test]
fn hw_rejects_bad_a_c() {
    let (ok, _, stderr) = sdnav(&["hw", "--a-c", "1.5"]);
    assert!(!ok || stderr.contains("a_c"), "should reject a_c=1.5");
}

#[test]
fn sw_scenario_flag() {
    let (ok, stdout, _) = sdnav(&["sw", "--scenario", "required"]);
    assert!(ok);
    assert!(stdout.contains("SupervisorRequired"));
    let (ok, _, stderr) = sdnav(&["sw", "--scenario", "sometimes"]);
    assert!(!ok);
    assert!(stderr.contains("scenario"));
}

#[test]
fn fig3_csv_is_parseable() {
    let (ok, stdout, _) = sdnav(&["fig3", "--points", "5", "--csv"]);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6); // header + 5 rows
    assert!(lines[0].starts_with("A_C,"));
    for line in &lines[1..] {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 4);
        for f in fields {
            let _: f64 = f.parse().expect("numeric CSV cell");
        }
    }
}

#[test]
fn fmea_sw_only_filters_hardware() {
    let (ok, stdout, _) = sdnav(&[
        "fmea",
        "--layout",
        "large",
        "--sw-only",
        "--scenario",
        "required",
    ]);
    assert!(ok);
    assert!(stdout.contains("Database"));
    assert!(!stdout.contains("rack-"), "hardware leaked into --sw-only");
}

#[test]
fn importance_ranks_vrouter_supervisor() {
    let (ok, stdout, _) = sdnav(&["importance", "--layout", "large", "--scenario", "required"]);
    assert!(ok);
    assert!(stdout.contains("compute-host/supervisor"));
}

#[test]
fn nodes_flag_scales_cluster() {
    let (ok, stdout, _) = sdnav(&[
        "sw",
        "--layout",
        "large",
        "--nodes",
        "5",
        "--scenario",
        "required",
    ]);
    assert!(ok);
    // 5-node Large CP downtime is far below the 3-node 1.4 m/y.
    assert!(stdout.contains("Large"));
    let (ok, _, stderr) = sdnav(&["sw", "--nodes", "4"]);
    assert!(!ok);
    assert!(stderr.contains("odd"));
}

/// Runs `command` at 11 nodes, where the Small layout shares 2N + 1 = 23
/// hardware elements, and checks that it exits 1 naming the shared count
/// and the exact-enumeration limit instead of panicking.
fn refuses_past_the_enumeration_limit(command: &str) {
    let out = sdnav_raw(&[command, "--nodes", "11"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
    assert!(
        stderr.contains("23 shared elements") && stderr.contains("at most 20"),
        "{command}: {stderr}"
    );
}

#[test]
fn hw_refuses_past_the_enumeration_limit() {
    refuses_past_the_enumeration_limit("hw");
}

#[test]
fn sw_refuses_past_the_enumeration_limit() {
    refuses_past_the_enumeration_limit("sw");
}

#[test]
fn simulate_refuses_past_the_enumeration_limit() {
    refuses_past_the_enumeration_limit("simulate");
}

#[test]
fn sensitivity_refuses_past_the_enumeration_limit() {
    refuses_past_the_enumeration_limit("sensitivity");
}

#[test]
fn plan_refuses_past_the_enumeration_limit() {
    refuses_past_the_enumeration_limit("plan");
}

#[test]
fn fmea_runs_past_the_enumeration_limit() {
    // The FMEA flips elements of the table; it enumerates no shared
    // hardware, so the limit does not apply.
    assert_eq!(sdnav_code(&["fmea", "--nodes", "11"]), 0);
}

#[test]
fn spec_round_trips_through_file() {
    let dir = std::env::temp_dir().join("sdnav-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    let path_str = path.to_str().unwrap();

    let (ok, _, _) = sdnav(&["spec", "--out", path_str]);
    assert!(ok);
    let (ok, stdout, _) = sdnav(&["hw", "--spec", path_str]);
    assert!(ok);
    assert!(stdout.contains("0.999989"));

    // A corrupt spec is rejected cleanly.
    std::fs::write(&path, "{not json").unwrap();
    let (ok, _, stderr) = sdnav(&["hw", "--spec", path_str]);
    assert!(!ok);
    assert!(stderr.contains("cannot parse"));
}

#[test]
fn plan_frontier_and_target() {
    let (ok, stdout, _) = sdnav(&["plan", "--target", "2.0"]);
    assert!(ok);
    assert!(stdout.contains("Pareto frontier"));
    // The rack-separated Small dominates both Medium AND the paper's Large.
    assert!(stdout.contains("Small-3R"));
    assert!(
        !stdout.contains("Medium"),
        "Medium must not be Pareto optimal"
    );
    assert!(!stdout.contains("Large"), "Large is dominated by Small-3R");
    assert!(stdout.contains("cheapest meeting"));
}

#[test]
fn harden_answers_and_refuses() {
    let (ok, stdout, _) = sdnav(&[
        "harden",
        "--target",
        "1.0",
        "--layout",
        "large",
        "--scenario",
        "required",
    ]);
    assert!(ok);
    assert!(stdout.contains("required auto-restart process availability"));
    // The Small rack floor makes 1 m/y unreachable.
    let (ok, stdout, _) = sdnav(&["harden", "--target", "1.0", "--layout", "small"]);
    assert!(ok);
    assert!(stdout.contains("out of reach"));
    // Missing target is an error.
    let (ok, _, stderr) = sdnav(&["harden"]);
    assert!(!ok);
    assert!(stderr.contains("--target"));
}

#[test]
fn bundled_onos_spec_loads() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/onos-like.json"
    );
    let (ok, stdout, stderr) = sdnav(&["sw", "--spec", path, "--scenario", "required"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Small"));
    let (ok, stdout, _) = sdnav(&["tables", "--spec", path]);
    assert!(ok);
    assert!(stdout.contains("atomix"));
    assert!(stdout.contains("2 of 3"));
}

#[test]
fn usage_errors_exit_2_failures_exit_1() {
    // Malformed invocations → 2.
    assert_eq!(sdnav_code(&["frobnicate"]), 2);
    assert_eq!(sdnav_code(&["sweep", "--figures", "fig9"]), 2);
    assert_eq!(sdnav_code(&["fig3", "--points", "abc"]), 2);
    assert_eq!(sdnav_code(&["simulate", "--scenario", "sometimes"]), 2);
    assert_eq!(sdnav_code(&["sweep", "--format", "yaml"]), 2);
    // Options a command does not declare, missing or stray values, and
    // repeats are refused instead of analysing something else.
    for (argv, option) in [
        (&["sweep", "--thread", "4"][..], "--thread"),
        (&["hw", "--a-c=0.5"], "--a-c"),
        (&["sw", "--scenario=required"], "--scenario"),
        (&["hw", "--spec"], "--spec"),
        (&["sweep", "--format"], "--format"),
        (&["fig3", "--csv", "yes"], "--csv"),
        (&["fig3", "--points", "2", "--points", "3"], "--points"),
    ] {
        let out = sdnav_raw(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains(option), "{argv:?}: {stderr}");
    }
    // Well-formed requests that fail → 1.
    assert_eq!(sdnav_code(&["lint", "--spec", "/no/such/file.json"]), 1);
    assert_eq!(sdnav_code(&["fig4", "--points", "0"]), 1);
    // Success → 0.
    assert_eq!(sdnav_code(&["help"]), 0);
}

#[test]
fn closed_stdout_ends_the_process_cleanly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // ~450 KB of JSON: far more than a pipe buffer holds.
    let mut child = Command::new(env!("CARGO_BIN_EXE_sdnav"))
        .args([
            "sweep",
            "--figures",
            "fig3",
            "--points",
            "3000",
            "--format",
            "json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read first line");
    assert_eq!(first, "{\n");
    // The reader is gone: the next write sees a closed pipe.
    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sweep_results_are_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        sdnav_raw(&[
            "sweep",
            "--points",
            "3",
            "--replications",
            "2",
            "--horizon",
            "2000",
            "--accelerate",
            "500",
            "--threads",
            threads,
            "--format",
            "json",
        ])
    };
    let one = run("1");
    assert!(
        one.status.success(),
        "{}",
        String::from_utf8_lossy(&one.stderr)
    );
    let four = run("4");
    assert!(four.status.success());
    assert_eq!(
        one.stdout, four.stdout,
        "sweep results must not depend on --threads"
    );
    // Run-varying metrics go to stderr, never into the result payload.
    let metrics = String::from_utf8_lossy(&four.stderr);
    assert!(metrics.contains("sdnav-sweep-metrics/v1"), "{metrics}");
    let results = String::from_utf8_lossy(&one.stdout);
    assert!(results.contains("sdnav-sweep-results/v1"));
    assert!(!results.contains("execute_ms"));
}

#[test]
fn sweep_human_output_renders_requested_figures() {
    let (ok, stdout, stderr) = sdnav(&["sweep", "--figures", "fig3,fig5", "--points", "3"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Fig. 3"));
    assert!(!stdout.contains("Fig. 4"));
    assert!(stdout.contains("Fig. 5"));
    assert!(stderr.contains("sweep metrics"));
    assert!(stderr.contains("cache"));
}

#[test]
fn lint_topology_flags_broken_and_accepts_valid() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/sa012_unassigned_role.topo.json"
    );
    let out = sdnav_raw(&["lint", "--topology", fixture]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("SA012"));

    // A faithful Small topology audits clean through the same path.
    let spec = sdnav_core::ControllerSpec::opencontrail_3x();
    let path = std::env::temp_dir().join("sdnav_cli_test_small.topo.json");
    let topo = sdnav_core::Topology::small(&spec);
    std::fs::write(&path, sdnav_json::to_string(&topo)).unwrap();
    let out = sdnav_raw(&["lint", "--topology", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

fn fixture(name: &str) -> String {
    format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Copies a fixture into a scratch dir so `--fix` can rewrite it.
fn scratch_copy(name: &str, tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sdnav-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let dest = dir.join(format!("{tag}_{name}"));
    std::fs::copy(fixture(name), &dest).unwrap();
    dest
}

#[test]
fn lint_reports_sa014_with_fix_hint_in_json() {
    let (ok, stdout, _) = sdnav(&[
        "lint",
        "--spec",
        &fixture("sa014_fit_magnitude_slip.json"),
        "--format",
        "json",
    ]);
    assert!(ok, "SA014 is warn-level; exit 0 without --deny-warnings");
    assert!(stdout.contains("\"SA014\""), "{stdout}");
    assert!(stdout.contains("lint --fix"), "hint must mention the fixer");
    // The gate mode rejects it.
    assert_eq!(
        sdnav_code(&[
            "lint",
            "--deny-warnings",
            "--spec",
            &fixture("sa014_fit_magnitude_slip.json"),
        ]),
        1
    );
}

#[test]
fn lint_fix_rewrites_and_relints_clean() {
    let path = scratch_copy("sa014_fit_magnitude_slip.json", "apply");
    let path = path.to_str().unwrap();
    let (ok, stdout, stderr) = sdnav(&["lint", "--fix", "--spec", path]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("fix[SA014]"), "{stdout}");
    assert!(stderr.contains("rewrote"), "{stderr}");
    // The rewritten spec carries the unit annotation and re-lints clean
    // even under the strictest gate.
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.contains("\"unit\": \"hours\""), "{text}");
    let (ok, stdout, _) = sdnav(&["lint", "--deny-warnings", "--spec", path]);
    assert!(ok, "{stdout}");
    assert!(!stdout.contains("SA014"));
    // Fixing a fixed file is a no-op.
    let before = std::fs::read(path).unwrap();
    let (ok, stdout, _) = sdnav(&["lint", "--fix", "--spec", path]);
    assert!(ok);
    assert!(stdout.contains("nothing auto-fixable"), "{stdout}");
    assert_eq!(before, std::fs::read(path).unwrap());
}

#[test]
fn lint_fix_dry_run_leaves_file_byte_identical_and_gates() {
    let path = scratch_copy("sa014_fit_magnitude_slip.json", "dry");
    let path = path.to_str().unwrap();
    let before = std::fs::read(path).unwrap();
    let out = sdnav_raw(&["lint", "--fix", "--dry-run", "--spec", path]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Pending fixes make --fix --dry-run exit nonzero, so CI can use it
    // as a "would anything change?" gate.
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(
        stderr.contains("auto-fixable finding(s) pending"),
        "{stderr}"
    );
    assert!(stdout.contains("fix[SA014]"), "plan must be printed");
    assert_eq!(
        before,
        std::fs::read(path).unwrap(),
        "--dry-run must not write"
    );
}

#[test]
fn lint_fix_dry_run_clean_spec_exits_zero() {
    let path = scratch_copy("clean_fit_annotated.json", "drygate");
    let path = path.to_str().unwrap();
    let (ok, _, stderr) = sdnav(&["lint", "--fix", "--dry-run", "--spec", path]);
    assert!(ok, "nothing to fix must exit 0: {stderr}");
}

#[test]
fn lint_ctmc_runs_structural_passes() {
    let (ok, stdout, _) = sdnav(&["lint", "--ctmc", &fixture("sa025_transient_trap.ctmc.json")]);
    assert!(ok, "warnings alone must not fail lint");
    assert!(stdout.contains("SA025"), "{stdout}");
    assert_eq!(
        sdnav_code(&[
            "lint",
            "--ctmc",
            &fixture("sa025_transient_trap.ctmc.json"),
            "--deny-warnings",
        ]),
        1
    );
    let (ok, _, _) = sdnav(&["lint", "--ctmc", &fixture("clean_repairable.ctmc.json")]);
    assert!(ok);
}

#[test]
fn lint_grid_flags_duplicate_cells() {
    let (ok, stdout, _) = sdnav(&[
        "lint",
        "--grid",
        &fixture("sa030_duplicate_cells.grid.json"),
    ]);
    assert!(!ok, "SA030 is an error");
    assert!(stdout.contains("SA030"), "{stdout}");
    let (ok, _, stderr) = sdnav(&["lint", "--grid", &fixture("clean_smoke.grid.json")]);
    assert!(ok, "{stderr}");
}

#[test]
fn sweep_dry_run_emits_plan_without_running() {
    let (ok, stdout, stderr) = sdnav(&[
        "sweep",
        "--dry-run",
        "--figures",
        "fig4,fig5",
        "--points",
        "5",
        "--replications",
        "3",
    ]);
    assert!(ok, "{stderr}");
    let plan = sdnav_json::Json::parse(&stdout).expect("plan is JSON");
    assert_eq!(
        plan.get("schema").and_then(|s| s.as_str().ok()),
        Some("sdnav-sweep-plan/v1")
    );
    // fig4 and fig5 share all four cache keys per x point, so the static
    // model predicts exactly half the lookups hit.
    let cache = plan.get("predicted_cache").expect("predicted_cache");
    let hit_rate = cache.get("hit_rate").unwrap().as_f64().unwrap();
    assert!((hit_rate - 0.5).abs() < 1e-12, "hit_rate = {hit_rate}");
    assert!(
        stderr.is_empty(),
        "clean grid must audit silently: {stderr}"
    );
}

#[test]
fn lint_sarif_output_is_valid() {
    let (ok, stdout, _) = sdnav(&[
        "lint",
        "--spec",
        &fixture("sa014_fit_magnitude_slip.json"),
        "--format",
        "sarif",
    ]);
    assert!(ok);
    let sarif = sdnav_json::Json::parse(&stdout).expect("SARIF output parses as JSON");
    sdnav_audit::validate_sarif(&sarif).expect("SARIF output validates");
    assert!(stdout.contains("\"ruleId\": \"SA014\""), "{stdout}");
    assert!(
        stdout.contains("sa014_fit_magnitude_slip.json"),
        "artifact uri must point at the linted file"
    );
    // A clean model still emits a valid (empty-results) log.
    let (ok, stdout, _) = sdnav(&["lint", "--format", "sarif"]);
    assert!(ok);
    let sarif = sdnav_json::Json::parse(&stdout).unwrap();
    sdnav_audit::validate_sarif(&sarif).unwrap();
}

#[test]
fn lint_spec_set_flags_unit_drift() {
    let out = sdnav_raw(&[
        "lint",
        "--deny-warnings",
        "--spec-set",
        &fixture("sa018_unit_drift.set.json"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("SA018"));
}

#[test]
fn lint_block_audits_and_fixes_standalone_rbds() {
    let out = sdnav_raw(&["lint", "--block", &fixture("sa006_k_exceeds_n.block.json")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("SA006"));

    // A trivially-simplifiable k=n group is rewritten in place.
    let dir = std::env::temp_dir().join("sdnav-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("k_equals_n.block.json");
    std::fs::write(
        &path,
        r#"{"kind": "k_of_n", "k": 2, "children": [
            {"kind": "unit", "name": "a", "availability": 0.999},
            {"kind": "unit", "name": "b", "availability": 0.999}
        ]}"#,
    )
    .unwrap();
    let path = path.to_str().unwrap();
    let (ok, stdout, _) = sdnav(&["lint", "--fix", "--block", path]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fix[SA006]"), "{stdout}");
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.contains("\"series\""), "{text}");
    let (ok, _, _) = sdnav(&["lint", "--deny-warnings", "--block", path]);
    assert!(ok);
}

#[test]
fn lint_flag_combinations_are_usage_checked() {
    // Mutually exclusive artifact selectors.
    assert_eq!(sdnav_code(&["lint", "--spec", "a", "--block", "b"]), 2);
    // --dry-run without --fix.
    assert_eq!(sdnav_code(&["lint", "--dry-run"]), 2);
    // --fix cannot target a whole sweep grid or combine with --topology.
    assert_eq!(
        sdnav_code(&[
            "lint",
            "--fix",
            "--spec-set",
            &fixture("sa018_unit_drift.set.json"),
        ]),
        2
    );
    assert_eq!(sdnav_code(&["lint", "--fix", "--topology", "t.json"]), 2);
    // Unknown formats.
    assert_eq!(sdnav_code(&["lint", "--format", "yaml"]), 2);
}

#[test]
fn lint_campaign_fixtures_round_trip() {
    // Seeded campaign defects trip their codes through `--campaign`.
    let out = sdnav_raw(&[
        "lint",
        "--campaign",
        &fixture("sa020_unknown_target.campaign.json"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("SA020"));
    // The clean campaign passes even under the strict gate.
    let (ok, stdout, _) = sdnav(&[
        "lint",
        "--deny-warnings",
        "--campaign",
        &fixture("clean_rack_fail.campaign.json"),
    ]);
    assert!(ok, "{stdout}");
    // `--fix` cannot rewrite campaigns; `--campaign` is exclusive with
    // the other artifact selectors.
    assert_eq!(
        sdnav_code(&[
            "lint",
            "--fix",
            "--campaign",
            &fixture("clean_rack_fail.campaign.json"),
        ]),
        2
    );
    assert_eq!(sdnav_code(&["lint", "--spec", "a", "--campaign", "b"]), 2);
}

#[test]
fn chaos_run_reports_attribution() {
    let (ok, stdout, stderr) = sdnav(&[
        "chaos",
        "run",
        "--campaign",
        &fixture("clean_rack_fail.campaign.json"),
        "--horizon",
        "20000",
        "--seed",
        "3",
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("rack0-outage"), "{stdout}");
    assert!(stdout.contains("organic"), "{stdout}");
    // Usage contract: the action is required, unknown actions are refused,
    // and a campaign file is mandatory.
    assert_eq!(sdnav_code(&["chaos"]), 2);
    assert_eq!(sdnav_code(&["chaos", "stop"]), 2);
    assert_eq!(sdnav_code(&["chaos", "run"]), 2);
    // A structurally broken campaign is a failure, not a usage error.
    assert_eq!(
        sdnav_code(&[
            "chaos",
            "run",
            "--campaign",
            &fixture("sa023_zero_crews.campaign.json"),
        ]),
        1
    );
}

#[test]
fn chaos_json_report_is_valid_and_serializes_nan_as_null() {
    // A horizon this short sees no organic CP outage and the campaign's
    // first injection lies beyond it, so cp_outage_mean_hours is NaN —
    // which must serialize as null, never as `NaN` (invalid JSON).
    let (ok, stdout, stderr) = sdnav(&[
        "chaos",
        "run",
        "--campaign",
        &fixture("clean_rack_fail.campaign.json"),
        "--horizon",
        "100",
        "--accelerate",
        "1",
        "--format",
        "json",
    ]);
    assert!(ok, "{stdout}{stderr}");
    let report = sdnav_json::Json::parse(&stdout).expect("chaos report must be valid JSON");
    assert!(
        stdout.contains("\"cp_outage_mean_hours\": null"),
        "{stdout}"
    );
    assert_eq!(
        report.field("schema").unwrap().as_str().unwrap(),
        "sdnav-chaos-report/v1"
    );
    // Ledger totals account for 100% of the reported outage-hours.
    let ledger = report.field("ledger").unwrap();
    let total = ledger
        .field("cp_outage_hours_total")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(total, 0.0);
}

#[test]
fn sweep_campaign_json_is_valid_and_parseable() {
    let (ok, stdout, stderr) = sdnav(&[
        "sweep",
        "--figures",
        "fig3",
        "--points",
        "2",
        "--replications",
        "1",
        "--horizon",
        "2000",
        "--accelerate",
        "500",
        "--campaign",
        &fixture("clean_rack_fail.campaign.json"),
        "--crews",
        "1,2",
        "--ccf",
        "0,1",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    let results = sdnav_json::Json::parse(&stdout).expect("sweep results must be valid JSON");
    let chaos = results.field("chaos").unwrap().as_arr().unwrap();
    assert_eq!(chaos.len(), 2 * 2 * 2, "crews × ccf × topologies");
    // The axes flags are rejected without a campaign.
    assert_eq!(sdnav_code(&["sweep", "--crews", "1,2"]), 2);
    assert_eq!(sdnav_code(&["sweep", "--ccf", "0.5"]), 2);
}

/// Scratch path unique to this test binary run.
fn scratch_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sdnav-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}_{name}", std::process::id()))
}

/// The small supervised-sweep workload shared by the robustness tests.
const SMALL_SWEEP: &[&str] = &[
    "sweep",
    "--figures",
    "fig4",
    "--points",
    "2",
    "--replications",
    "1",
    "--horizon",
    "2000",
    "--accelerate",
    "500",
    "--format",
    "json",
];

#[test]
fn sweep_quarantines_injected_panic_and_exits_partial() {
    let partial = scratch_path("quarantine_partial.json");
    let quarantine = scratch_path("quarantine_report.json");
    let out = sdnav_raw(
        &[
            SMALL_SWEEP,
            &[
                "--inject-panic",
                "1",
                "--out",
                partial.to_str().unwrap(),
                "--quarantine-out",
                quarantine.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    // Partial success: quarantined cells ⇒ documented exit code 3.
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("partial:"), "{stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");

    // The rest of the grid still produced results, marked incomplete.
    let results = std::fs::read_to_string(&partial).unwrap();
    assert!(results.contains("\"incomplete\": true"), "{results}");
    assert!(results.contains("sdnav-sweep-results/v1"));

    // The quarantine report names the cell, its seed, and the panic.
    let report = std::fs::read_to_string(&quarantine).unwrap();
    assert!(
        report.contains("\"schema\": \"sdnav-quarantine/v1\""),
        "{report}"
    );
    assert!(report.contains("injected panic"), "{report}");
    for p in [partial, quarantine] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn sweep_checkpoint_resume_is_byte_identical_across_threads() {
    let wal = scratch_path("resume.wal");
    std::fs::remove_file(&wal).ok();
    let golden = sdnav_raw(SMALL_SWEEP);
    assert!(golden.status.success());

    // Interrupt after one fresh cell on one thread...
    let partial = sdnav_raw(
        &[
            SMALL_SWEEP,
            &[
                "--threads",
                "1",
                "--checkpoint",
                wal.to_str().unwrap(),
                "--cancel-after-cells",
                "1",
            ],
        ]
        .concat(),
    );
    assert_eq!(partial.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&partial.stderr);
    assert!(stderr.contains("resume with --checkpoint"), "{stderr}");
    assert!(
        String::from_utf8_lossy(&partial.stdout).contains("\"incomplete\": true"),
        "partial results must carry the incomplete marker"
    );

    // ...and resume on four: byte-identical to the uninterrupted run.
    let resumed = sdnav_raw(
        &[
            SMALL_SWEEP,
            &[
                "--threads",
                "4",
                "--checkpoint",
                wal.to_str().unwrap(),
                "--resume",
            ],
        ]
        .concat(),
    );
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, golden.stdout);
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains("\"restored\""),
        "metrics must report replayed cells"
    );
    std::fs::remove_file(&wal).ok();
}

#[test]
fn sweep_supervision_flags_are_usage_checked() {
    assert_eq!(sdnav_code(&["sweep", "--resume"]), 2);
    assert_eq!(sdnav_code(&["sweep", "--inject-panic", "-1"]), 2);
    assert_eq!(sdnav_code(&["sweep", "--inject-panic", "abc"]), 2);
}

/// Whether checkpoint WAL `bytes` hold a record after the header: each
/// record is a little-endian `u32` payload length, a `u32` checksum and
/// the payload, and only cells are appended before the final seal.
#[cfg(unix)]
fn wal_has_a_cell(bytes: &[u8]) -> bool {
    bytes.get(..4).is_some_and(|len| {
        let header = 8 + u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        bytes.len() > header
    })
}

#[cfg(unix)]
#[test]
fn sweep_sigint_drains_seals_wal_and_exits_partial() {
    let wal = scratch_path("sigint.wal");
    let out_file = scratch_path("sigint_partial.json");
    std::fs::remove_file(&wal).ok();
    // A workload long enough that SIGINT lands mid-run even on fast hosts.
    let mut child = Command::new(env!("CARGO_BIN_EXE_sdnav"))
        .args([
            "sweep",
            "--points",
            "5",
            "--replications",
            "6",
            "--horizon",
            "50000",
            "--accelerate",
            "100",
            "--threads",
            "2",
            "--format",
            "json",
            "--checkpoint",
            wal.to_str().unwrap(),
            "--out",
            out_file.to_str().unwrap(),
        ])
        .spawn()
        .expect("binary spawns");
    // Interrupt once the WAL holds a cell record beyond its header: the
    // handler is installed and the sweep is under way, with most of it
    // left to run.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !std::fs::read(&wal).is_ok_and(|bytes| wal_has_a_cell(&bytes)) {
        assert!(
            std::time::Instant::now() < deadline,
            "no cell was journaled within 60 s"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let interrupted = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs")
        .success();
    assert!(interrupted, "SIGINT delivery failed");
    let status = child.wait().expect("child exits");
    // Graceful shutdown: partial-success exit, sealed WAL, partial output
    // with the incomplete marker.
    assert_eq!(status.code(), Some(3), "expected partial-success exit");
    assert!(wal.metadata().map(|m| m.len() > 0).unwrap_or(false));
    let results = std::fs::read_to_string(&out_file).unwrap();
    assert!(results.contains("\"incomplete\": true"), "{results}");
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&out_file).ok();
}

#[test]
fn chaos_digest_format_summarizes_report() {
    let (ok, stdout, stderr) = sdnav(&[
        "chaos",
        "run",
        "--campaign",
        &fixture("clean_rack_fail.campaign.json"),
        "--horizon",
        "100",
        "--accelerate",
        "1",
        "--format",
        "digest",
    ]);
    assert!(ok, "{stdout}{stderr}");
    let digest = sdnav_json::Json::parse(&stdout).expect("digest must be valid JSON");
    assert_eq!(
        digest.field("schema").unwrap().as_str().unwrap(),
        "sdnav-chaos-digest/v1"
    );
    assert_eq!(
        digest.field("source_schema").unwrap().as_str().unwrap(),
        "sdnav-chaos-report/v1"
    );
    assert_eq!(sdnav_code(&["chaos", "run", "--format", "yaml"]), 2);
}

#[test]
fn simulate_smoke() {
    let (ok, stdout, _) = sdnav(&[
        "simulate",
        "--horizon",
        "5000",
        "--replications",
        "2",
        "--accelerate",
        "100",
        "--compute-hosts",
        "2",
        // The second replication's seed wraps to 0.
        "--seed",
        "18446744073709551615",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("CP  simulated"));
    assert!(stdout.contains("analytic"));
}

#[test]
fn simulate_finishes_when_a_batch_boundary_rounds_down() {
    // At this horizon a batch end, recomputed from a time that sits on it,
    // floors back into the batch ending there; the batch split used to
    // spin forever on every seed.
    let out = sdnav_within(
        120,
        &[
            "simulate",
            "--horizon",
            "8371",
            "--replications",
            "1",
            "--accelerate",
            "200",
        ],
    );
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("CP  simulated"));
}

#[test]
fn a_non_finite_horizon_is_rejected_instead_of_run_forever() {
    // "inf" and "1e999" both parse to +inf; the event loop would never
    // reach that horizon.
    for horizon in ["inf", "1e999"] {
        for command in [
            "sweep --figures fig3 --points 1 --replications 1",
            "simulate --replications 1",
        ] {
            let command = format!("{command} --horizon {horizon}");
            let args: Vec<&str> = command.split(' ').collect();
            let out = sdnav_within(60, &args);
            assert_eq!(out.status.code(), Some(1), "sdnav {command}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("finite"), "{stderr}");
        }
    }
}

#[test]
fn an_overflowing_fault_mix_is_an_unreachable_quorum() {
    // Unchecked, `2 * 2147483648` overflows u32: a debug build panics in
    // the cell (exit 3) and a release build wraps.
    let out = sdnav_within(
        60,
        &[
            "sweep",
            "--figures",
            "fig3",
            "--points",
            "1",
            "--cluster-size",
            "3",
            "--fault-mix",
            "2147483648:0",
            "--election-timeout-ms",
            "150",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("commit quorum exceeds the honest membership"),
        "{stderr}"
    );
}

#[test]
fn consensus_cluster_sizes_stop_at_the_cap() {
    // `--dry-run` validates the grid without building a chain or a DES.
    let sweep = |size: &str| {
        sdnav_within(
            60,
            &[
                "sweep",
                "--dry-run",
                "--figures",
                "fig3",
                "--points",
                "1",
                "--cluster-size",
                size,
            ],
        )
    };
    assert_eq!(sweep("255").status.code(), Some(0));
    let out = sweep("256");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("at most 255 nodes"), "{stderr}");
}

#[test]
fn one_replication_estimates_print_without_nan() {
    // One replication has no standard error: the human tables mark it
    // `±n/a` instead of printing `±NaN`, and the JSON keeps `null`.
    let sim: &[&str] = &[
        "sweep",
        "--figures",
        "fig3",
        "--points",
        "1",
        "--replications",
        "1",
        "--horizon",
        "200",
        "--accelerate",
        "50",
    ];
    let consensus: &[&str] = &[
        "sweep",
        "--figures",
        "fig3",
        "--points",
        "1",
        "--cluster-size",
        "90",
        "--election-timeout-ms",
        "150",
        "--accelerate",
        "1",
        "--horizon",
        "1000",
    ];
    for (args, null_fields) in [
        (
            sim,
            &["\"cp_std_error\": null", "\"dp_std_error\": null"][..],
        ),
        (consensus, &["\"availability_std_error\": null"][..]),
    ] {
        let out = sdnav_within(60, args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let table = String::from_utf8_lossy(&out.stdout);
        assert!(!table.contains("NaN"), "{table}");
        assert!(table.contains("±n/a"), "{table}");

        let out = sdnav_within(60, &[args, &["--format", "json"]].concat());
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let json = String::from_utf8_lossy(&out.stdout);
        assert!(!json.contains("NaN"), "{json}");
        for field in null_fields {
            assert!(json.contains(field), "{field} in {json}");
        }
    }
}

#[test]
fn large_consensus_clusters_solve_at_paper_rates() {
    // Unscaled, the consensus CTMC's weights outgrew f64 near 93 nodes at
    // the paper's MTBF 2000 h and MTTR 1 h (×1), and the cell failed.
    let sweep = |size: &str| {
        sdnav_within(
            60,
            &[
                "sweep",
                "--figures",
                "fig3",
                "--points",
                "1",
                "--cluster-size",
                size,
                "--election-timeout-ms",
                "150",
                "--accelerate",
                "1",
                "--horizon",
                "1000",
                "--format",
                "json",
            ],
        )
    };
    let out = sweep("90");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"ctmc_availability\": 0.9999999618055572"),
        "{stdout}"
    );
    for size in ["101", "255"] {
        let out = sweep(size);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{size}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// `sdnav serve` boots, answers over HTTP byte-identically to the
/// one-shot sweep path, and SIGTERM drains it to a clean exit 0.
#[cfg(unix)]
#[test]
fn serve_answers_http_and_sigterm_drains() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_sdnav"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");

    // The bound (ephemeral) address is announced on stderr.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .expect("banner names the address")
        .to_owned();

    // One real request/response round-trip, checked for parity against
    // the CLI sweep path on the same grid.
    let body = r#"{"points": 3, "replications": 2, "seed": 9}"#;
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to server");
    write!(
        stream,
        "POST /v1/eval HTTP/1.1\r\nhost: sdnav\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read full response");
    let (head, http_body) = response.split_once("\r\n\r\n").expect("head/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    let (ok, sweep_stdout, sweep_stderr) = sdnav(&[
        "sweep",
        "--points",
        "3",
        "--replications",
        "2",
        "--seed",
        "9",
        "--format",
        "json",
    ]);
    assert!(ok, "{sweep_stderr}");
    assert_eq!(
        http_body, sweep_stdout,
        "serve and sweep must agree byte-for-byte"
    );

    // SIGTERM: drain and exit 0.
    let terminated = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs")
        .success();
    assert!(terminated, "SIGTERM delivery failed");
    let status = child.wait().expect("child exits");
    assert_eq!(status.code(), Some(0), "drained shutdown must exit 0");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("drain stderr");
    assert!(rest.contains("drained"), "{rest}");
}

// ---- lint --source (detlint) ----

#[test]
fn lint_source_seeded_fixture_exits_one_with_span() {
    let path = fixture("source/dl001_hashmap_iter.rs");
    let out = sdnav_raw(&["lint", "--source", &path]);
    assert_eq!(out.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DL001"), "{stdout}");
    assert!(
        stdout.contains("dl001_hashmap_iter.rs:8"),
        "finding must carry its file:line span:\n{stdout}"
    );
}

#[test]
fn lint_source_clean_fixture_exits_zero() {
    let path = fixture("source/clean_btreemap_emit.rs");
    let (ok, stdout, stderr) = sdnav(&["lint", "--source", &path]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("clean"), "{stdout}");
    assert!(stderr.contains("scanned 1 file"), "{stderr}");
}

#[test]
fn lint_source_workspace_is_clean() {
    // The acceptance bar, end to end through the binary: the workspace
    // itself must scan clean against the committed baseline.
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let (ok, stdout, stderr) = sdnav(&["lint", "--source", &root]);
    assert!(ok, "workspace must lint clean:\n{stdout}{stderr}");
}

#[test]
fn lint_source_emits_json_and_valid_sarif() {
    let path = fixture("source/dl009_wal_cast.rs");
    let out = sdnav_raw(&["lint", "--source", &path, "--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let doc = sdnav_json::Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let text = doc.to_pretty();
    assert!(text.contains("DL009"), "{text}");

    let out = sdnav_raw(&["lint", "--source", &path, "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(1));
    let sarif = sdnav_json::Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    sdnav_audit::validate_sarif(&sarif).expect("valid SARIF");
    let pretty = sarif.to_pretty();
    assert!(pretty.contains("\"ruleId\": \"DL009\""), "{pretty}");
    assert!(pretty.contains("startLine"), "{pretty}");
}

#[test]
fn lint_source_usage_errors_exit_two() {
    // --source is mutually exclusive with model selectors...
    assert_eq!(
        sdnav_code(&[
            "lint",
            "--source",
            "--spec",
            &fixture("sa003_quorum_too_large.json")
        ]),
        2
    );
    // ...and with the autofixer.
    assert_eq!(sdnav_code(&["lint", "--source", "--fix"]), 2);
    // Bad formats follow the shared contract.
    assert_eq!(
        sdnav_code(&[
            "lint",
            "--source",
            &fixture("source/clean_suppressed.rs"),
            "--format",
            "yaml"
        ]),
        2
    );
}

#[test]
fn lint_source_stale_allow_is_an_error() {
    let path = fixture("source/dl000_stale_allow.rs");
    let out = sdnav_raw(&["lint", "--source", &path]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DL000"), "{stdout}");
    assert!(stdout.contains("matches no finding"), "{stdout}");
}
