//! `sdnav` — command-line interface for distributed SDN controller
//! failure-mode and availability analysis (ISPASS 2019 reproduction).

mod args;
mod signals;

use std::process::ExitCode;

use args::{Args, Command, Run};
use sdnav_core::sweep::{Fig3Row, SwSweepRow};
use sdnav_core::{
    ConsensusSpec, ControllerSpec, ElementRef, ErrorKind, FaultMix, HwModel, HwParams, Plane,
    Scenario, SdnavError, SwModel, SwParams, Topology,
};
use sdnav_fmea::{derive_table1, dominant_modes, enumerate_filtered, Deployment};
use sdnav_grid::plan::Figure;
use sdnav_grid::{GridSpec, GridSpecBuilder, SimRow, SuperviseOptions};
use sdnav_report::{minutes_per_year, Chart, Series, Table};
use sdnav_sim::{replicate, Estimate, SimConfig};

/// `print!`/`println!` for every handler below: a closed stdout
/// (`sdnav sweep … | head -1`) ends the process quietly with exit 0
/// instead of panicking. `sdnav serve` answers on sockets, where a client
/// that hangs up stays an error for that connection only.
macro_rules! print {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!($($arg)*)) };
}

macro_rules! println {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

fn write_stdout(text: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::Write::write_fmt(&mut std::io::stdout(), text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Every command, in help order. Each synopsis is both the help text and
/// the option declaration the parser enforces (see `args`).
const COMMANDS: &[Command] = &[
    Command {
        synopsis: "tables",
        about: "print Tables I-III (derived from the spec)",
        run: Run::Spec(tables),
    },
    Command {
        synopsis: "topology [--layout L]",
        about: "print deployment layouts (small|medium|large|all)",
        run: Run::Spec(topology_cmd),
    },
    Command {
        synopsis: "hw [--a-c X]",
        about: "HW-centric availability for all topologies",
        run: Run::Spec(hw),
    },
    Command {
        synopsis: "sw [--scenario S]",
        about: "SW-centric CP/DP availability (required|not-required)",
        run: Run::Spec(sw),
    },
    Command {
        synopsis: "fig3 [--points N] [--threads T] [--csv]",
        about: "regenerate Fig. 3",
        run: Run::Spec(|spec, args| figure(spec, args, Figure::Fig3)),
    },
    Command {
        synopsis: "fig4 [--points N] [--threads T] [--csv]",
        about: "regenerate Fig. 4",
        run: Run::Spec(|spec, args| figure(spec, args, Figure::Fig4)),
    },
    Command {
        synopsis: "fig5 [--points N] [--threads T] [--csv]",
        about: "regenerate Fig. 5",
        run: Run::Spec(|spec, args| figure(spec, args, Figure::Fig5)),
    },
    Command {
        synopsis: "sweep [--figures F,..] [--points N] [--replications R] [--threads T]\n\
                   [--seed S] [--horizon H] [--accelerate F] [--compute-hosts N]\n\
                   [--campaign FILE] [--crews N,..] [--ccf P,..]\n\
                   [--election-timeout-ms MS,..] [--cluster-size N,..] [--fault-mix B:C,..]\n\
                   [--checkpoint FILE] [--resume] [--quarantine-out FILE]\n\
                   [--format json] [--out FILE] [--dry-run]\n\
                   [--inject-panic N] [--cancel-after-cells N]",
        about: "batch-evaluate a whole scenario grid (figures\n\
                and optional simulation cells) in parallel;\n\
                --campaign adds chaos cells sweeping the\n\
                campaign over crew-count × common-cause\n\
                probability axes (default 1,2,3,4 ×\n\
                0,0.25,0.5,0.75,1); run metrics go to stderr.\n\
                A spec `consensus` block — or any of\n\
                --election-timeout-ms/--cluster-size/\n\
                --fault-mix (defaults 150,300,600 × 3,5,7 ×\n\
                0:1) — adds consensus DES cells, each\n\
                cross-validated against the CTMC macro-state\n\
                model.\n\
                Cells run supervised: a panicking cell is\n\
                quarantined (report to --quarantine-out or\n\
                stderr) without killing the sweep; cells are\n\
                pure functions of their seeds, so none is\n\
                retried. --checkpoint journals finished\n\
                cells to an fsync'd WAL; --resume replays it\n\
                and recomputes only the rest, byte-identical\n\
                to an uninterrupted run. SIGINT/SIGTERM drain\n\
                in-flight cells, seal the WAL and emit the\n\
                partial results with an `incomplete` marker.\n\
                --dry-run evaluates nothing: it prints the\n\
                static sdnav-sweep-plan/v1 cost prediction\n\
                (per-cell cost units, predicted cache hit\n\
                rate, skippable cells) and any SA030-SA032\n\
                grid findings, then exits (--inject-panic and\n\
                --cancel-after-cells are test hooks)",
        run: Run::Spec(sweep),
    },
    Command {
        synopsis: "serve [--addr HOST:PORT]",
        about: "run the persistent evaluator service\n\
                (default 127.0.0.1:8423; port 0 binds an\n\
                ephemeral port, printed to stderr). HTTP/1.1\n\
                + JSON: POST /v1/eval evaluates a grid spec\n\
                byte-identically to `sweep --format json`,\n\
                PATCH /v1/spec edits one rate and\n\
                invalidates only dependent cached\n\
                sub-models, GET /v1/plan predicts sweep\n\
                cost, GET /v1/metrics reports cache\n\
                counters, GET /v1/healthz liveness.\n\
                SIGINT/SIGTERM drain in-flight requests,\n\
                then exit 0",
        run: Run::Spec(serve),
    },
    Command {
        synopsis: "fmea [--order N] [--scenario S] [--layout L] [--sw-only]",
        about: "enumerate minimal failure modes",
        run: Run::Spec(fmea),
    },
    Command {
        synopsis: "importance [--scenario S] [--layout L] [--order N]",
        about: "rank elements by share of failure-mode probability",
        run: Run::Spec(importance),
    },
    Command {
        synopsis: "sensitivity [--layout L] [--scenario S]",
        about: "rank parameters by share of downtime",
        run: Run::Spec(sensitivity),
    },
    Command {
        synopsis: "plan [--target M]",
        about: "Pareto cost:resiliency analysis; optional\n\
                CP downtime target in minutes/year",
        run: Run::Spec(plan),
    },
    Command {
        synopsis: "harden --target M [--layout L] [--scenario S]",
        about: "process availability needed for a CP target",
        run: Run::Spec(harden),
    },
    Command {
        synopsis: "simulate [--layout L] [--scenario S] [--horizon H] [--replications R]\n\
                   [--accelerate F] [--seed S] [--compute-hosts N]",
        about: "Monte-Carlo validation run",
        run: Run::Spec(simulate),
    },
    Command {
        synopsis: "spec [--out FILE]",
        about: "dump the OpenContrail 3.x spec as JSON",
        run: Run::Spec(dump_spec),
    },
    Command {
        synopsis: "chaos generate [--layout L] [--scenario S] [--top-k K] [--max-order N]\n\
                   [--start H] [--spacing H] [--repair H] [--stress]\n\
                   [--format json] [--out FILE]",
        about: "compile the deployment's top-K CP/DP\n\
                dominant FMEA failure modes into an\n\
                injection campaign: one staggered window\n\
                per mode, simultaneous fails for\n\
                multi-element modes, rack common-cause\n\
                groups for rack-rooted modes; --stress\n\
                starves the crew pool and arms latent\n\
                faults; --format json emits the\n\
                sdnav-chaos-genspec/v1 document (campaign\n\
                + per-mode expectation records) consumed\n\
                by `chaos run --verdict`",
        run: Run::Spec(chaos_generate),
    },
    Command {
        synopsis: "chaos run --campaign FILE [--layout L] [--scenario S] [--seed S]\n\
                   [--horizon H] [--accelerate F] [--compute-hosts N]\n\
                   [--format json|digest] [--out FILE]\n\
                   [--consensus-spec FILE]\n\
                   [--verdict GENSPEC [--replications R]]",
        about: "run a declarative fault-injection campaign\n\
                (scheduled faults, common-cause groups,\n\
                maintenance windows, crew pools, latent\n\
                faults) and print the outage-attribution\n\
                ledger; --format json emits the\n\
                deterministic sdnav-chaos-report/v1 document\n\
                and --format digest the compact\n\
                sdnav-chaos-digest/v1 summary (per-array\n\
                SHA-256 + first/last rows) used for golden\n\
                diffing in CI; --consensus-spec runs the\n\
                campaign's fail injections (incl. the\n\
                event-time `leader` target) against the\n\
                consensus DES of that spec's consensus\n\
                block; --verdict replays a generated\n\
                genspec and gates it on the\n\
                survive-or-attribute check — CP\n\
                availability inside the uninjected\n\
                baseline's 95% CI, or every excess outage\n\
                100% attributed to the injected mode in\n\
                its window (exit 1 otherwise)",
        run: Run::Spec(chaos_run),
    },
    Command {
        synopsis: "lint [--format json|sarif] [--deny-warnings] [--topology FILE]\n\
                   [--block FILE] [--spec-set FILE] [--campaign FILE]\n\
                   [--ctmc FILE] [--grid FILE] [--fix] [--dry-run]\n\
                   [--source [PATH]] [--spec FILE] [--layout L] [--scenario S]\n\
                   [--horizon H] [--accelerate F] [--compute-hosts N]",
        about: "statically audit the model (SA001..SA035);\n\
                accepts broken specs via --spec, standalone\n\
                RBD JSON via --block, sweep-grid spec arrays\n\
                via --spec-set, user topology JSON via\n\
                --topology, chaos campaigns via --campaign\n\
                (SA020..SA023 and SA027..SA029, linted\n\
                against the built-in deployment at\n\
                --layout/--scenario/--horizon/--accelerate/\n\
                --compute-hosts), CTMC generators via\n\
                --ctmc (SA010 + structural SA024..SA026),\n\
                and sweep-grid specs via --grid\n\
                (SA030..SA032); --fix rewrites auto-fixable\n\
                findings in place (--dry-run prints the edit\n\
                plan without writing and exits 1 if any edit\n\
                is pending); --source runs the detlint\n\
                determinism scan (DL001..DL010) over the\n\
                workspace source — bare --source walks up to\n\
                the workspace root, --source DIR scans that\n\
                workspace, --source FILE.rs scans one file;\n\
                suppressions come from inline\n\
                `detlint::allow(DLxxx): reason` comments and\n\
                the detlint.allow baseline, and stale allows\n\
                are themselves errors (DL000)",
        // `lint` bypasses `load_spec`: its whole point is to accept specs
        // that `validate()` would reject and explain what is wrong.
        run: Run::Raw(lint),
    },
    Command {
        synopsis: "help",
        about: "show this help",
        run: Run::Raw(help),
    },
];

/// The options every `Run::Spec` command takes, declared like a synopsis.
const COMMON_OPTIONS: &[(&str, &str)] = &[
    ("--spec FILE", "analyze a custom controller spec (JSON)"),
    ("--nodes N", "scale the cluster to 2N+1 = N nodes (odd)"),
    ("--layout small|medium|large", "(default: small)"),
    (
        "--scenario required|not-required",
        "(default: not-required)",
    ),
];

fn help(_: &Args) -> Result<(), SdnavError> {
    print!(
        "sdnav — distributed SDN controller availability analysis\n\n\
         USAGE: sdnav <command> [options]\n\n\
         {}\n\
         EXIT CODES: 0 success, 1 analysis/input failure, 2 usage error,\n            \
         3 partial results (sweep interrupted or cells quarantined)\n",
        args::help(COMMANDS, COMMON_OPTIONS)
    );
    Ok(())
}

// How a run fails maps onto the process exit code through the shared
// `sdnav_core::error` taxonomy (the same one `sdnav serve` maps onto HTTP
// statuses): bad invocations (unknown commands, malformed option values)
// exit 2; well-formed requests that fail (unreadable files, invalid
// models, lint findings) exit 1; a supervised sweep that still emitted
// (partial) results — interrupted by SIGINT/SIGTERM, or with panicking
// cells quarantined — exits 3 so callers can
// distinguish "resume me" from "broken".

fn usage(message: impl Into<String>) -> SdnavError {
    SdnavError::usage(message)
}

fn failure(message: impl Into<String>) -> SdnavError {
    SdnavError::analysis(message)
}

fn main() -> ExitCode {
    match Args::parse(COMMANDS, COMMON_OPTIONS, std::env::args().skip(1)).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if e.kind() == ErrorKind::Partial {
                eprintln!("partial: {e}");
            } else {
                eprintln!("error: {e}");
            }
            if e.kind() == ErrorKind::Usage {
                eprintln!("try `sdnav help`");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

fn run((run, args): (Run, Args)) -> Result<(), SdnavError> {
    match run {
        Run::Spec(run) => run(&load_spec(&args)?, &args),
        Run::Raw(run) => run(&args),
    }
}

fn load_spec(args: &Args) -> Result<ControllerSpec, SdnavError> {
    let mut spec = match args.get("spec") {
        None => ControllerSpec::opencontrail_3x(),
        Some(path) => read_json(path)?,
    };
    spec.validate().map_err(|e| failure(e.to_string()))?;
    if let Some(nodes) = args.value::<u32>("nodes", "an integer")? {
        if nodes == 0 || nodes % 2 == 0 {
            return Err(usage(format!("--nodes must be odd (2N+1), got {nodes}")));
        }
        spec = spec.scaled_cluster(nodes);
    }
    Ok(spec)
}

fn scenario(args: &Args) -> Result<Scenario, SdnavError> {
    let name = args.get("scenario").unwrap_or("not-required");
    Scenario::from_name(name).ok_or_else(|| {
        usage(format!(
            "--scenario must be `required` or `not-required`, got {name:?}"
        ))
    })
}

fn layout(spec: &ControllerSpec, args: &Args) -> Result<Topology, SdnavError> {
    let name = args.get("layout").unwrap_or("small");
    Topology::named(spec, name).ok_or_else(|| {
        usage(format!(
            "--layout must be small, medium or large, got {name:?}"
        ))
    })
}

/// Writes a result document to `--out FILE` (announced on stderr) or to
/// stdout.
fn write_out(args: &Args, json: &str) -> Result<(), SdnavError> {
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| failure(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Applies the given sweep-flag options (`GridSpecBuilder::KEYS`).
fn grid_flags(args: &Args, builder: GridSpecBuilder) -> Result<GridSpecBuilder, SdnavError> {
    args.values()
        .filter(|(key, _)| GridSpecBuilder::KEYS.contains(key))
        .try_fold(builder, |builder, (key, value)| builder.set(key, value))
}

fn tables(spec: &ControllerSpec, _: &Args) -> Result<(), SdnavError> {
    println!("Table I — process failure modes (derived behaviorally):\n");
    let mut t1 = Table::new(vec!["Role", "Process", "SDN CP", "Host DP"]);
    for row in derive_table1(spec) {
        t1.row(vec![row.role, row.process, row.cp, row.dp]);
    }
    print!("{t1}");

    println!("\nTable II — required processes by restart mode:\n");
    let mut t2 = Table::new(vec!["Role", "Auto", "Manual"]);
    for c in spec.restart_counts() {
        t2.row(vec![c.role, c.auto.to_string(), c.manual.to_string()]);
    }
    print!("{t2}");

    println!("\nTable III — quorum requirement counts:\n");
    let mut t3 = Table::new(vec!["Role", "CP M", "CP N", "DP M", "DP N"]);
    let cp = spec.quorum_counts(Plane::ControlPlane);
    let dp = spec.quorum_counts(Plane::DataPlane);
    for (c, d) in cp.iter().zip(&dp) {
        t3.row(vec![
            c.role.clone(),
            c.m.to_string(),
            c.n.to_string(),
            d.m.to_string(),
            d.n.to_string(),
        ]);
    }
    print!("{t3}");
    Ok(())
}

fn topology_cmd(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    match args.get("layout").unwrap_or("all") {
        "all" => {
            for t in Topology::paper(spec) {
                println!("{}", t.describe());
            }
        }
        _ => println!("{}", layout(spec, args)?.describe()),
    }
    Ok(())
}

fn hw(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let a_c = args.get_f64("a-c", 0.9995)?;
    if !(0.0..=1.0).contains(&a_c) {
        return Err(usage(format!(
            "--a-c must be an availability in [0, 1], got {a_c}"
        )));
    }
    let params = HwParams::paper_defaults().with_a_c(a_c);
    let mut table = Table::new(vec!["topology", "availability", "downtime"]);
    for topo in Topology::paper(spec) {
        let a = HwModel::try_new(spec, &topo, params)
            .map_err(|e| failure(e.to_string()))?
            .availability();
        table.row(vec![
            topo.name().to_owned(),
            format!("{a:.9}"),
            minutes_per_year(a),
        ]);
    }
    print!("{table}");
    Ok(())
}

fn sw(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let scenario = scenario(args)?;
    let params = SwParams::paper_defaults();
    let mut table = Table::new(vec!["topology", "A_CP", "A_SDP", "A_DP", "CP DT", "DP DT"]);
    for topo in Topology::paper(spec) {
        let m =
            SwModel::try_new(spec, &topo, params, scenario).map_err(|e| failure(e.to_string()))?;
        table.row(vec![
            topo.name().to_owned(),
            format!("{:.9}", m.cp_availability()),
            format!("{:.9}", m.shared_dp_availability()),
            format!("{:.9}", m.host_dp_availability()),
            minutes_per_year(m.cp_availability()),
            minutes_per_year(m.host_dp_availability()),
        ]);
    }
    println!("scenario: {scenario:?}");
    print!("{table}");
    Ok(())
}

/// `fig3`/`fig4`/`fig5`: a single-figure grid on the engine `sweep` uses,
/// printed as a table and an ASCII chart, or as CSV.
fn figure(spec: &ControllerSpec, args: &Args, figure: Figure) -> Result<(), SdnavError> {
    let grid = grid_flags(args, GridSpec::builder().figures(&[figure]))?
        .build()
        .map_err(|e| failure(e.to_string()))?;
    let results = sdnav_grid::evaluate(spec, &grid)
        .map_err(|e| failure(e.to_string()))?
        .results;
    let (table, chart) = if figure == Figure::Fig3 {
        let rows = &results.fig3;
        let series = |name, y: fn(&Fig3Row) -> f64| {
            Series::new(name, rows.iter().map(|r| (r.a_c, y(r))).collect())
        };
        let chart = Chart::new(60, 14)
            .series(series("Small", |r| r.small))
            .series(series("Medium", |r| r.medium))
            .series(series("Large", |r| r.large))
            .labels("A_C", "availability");
        (fig3_table(rows), chart)
    } else {
        let (rows, y_label) = if figure == Figure::Fig4 {
            (&results.fig4, "A_CP")
        } else {
            (&results.fig5, "A_DP")
        };
        let series = |name, y: fn(&SwSweepRow) -> f64| {
            Series::new(name, rows.iter().map(|r| (r.x, y(r))).collect())
        };
        let chart = Chart::new(60, 14)
            .series(series("1S", |r| r.small_no_sup))
            .series(series("2S", |r| r.small_sup))
            .series(series("1L", |r| r.large_no_sup))
            .series(series("2L", |r| r.large_sup))
            .labels("orders of magnitude of downtime removed", y_label);
        (sw_table(rows), chart)
    };
    if args.has("csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{table}{chart}");
    }
    Ok(())
}

fn fig3_table(rows: &[Fig3Row]) -> Table {
    let mut table = Table::new(vec!["A_C", "Small", "Medium", "Large"]);
    for r in rows {
        table.row(vec![
            format!("{:.5}", r.a_c),
            format!("{:.9}", r.small),
            format!("{:.9}", r.medium),
            format!("{:.9}", r.large),
        ]);
    }
    table
}

fn sw_table(rows: &[SwSweepRow]) -> Table {
    let mut table = Table::new(vec!["x", "A", "1S", "2S", "1L", "2L"]);
    for r in rows {
        table.row(vec![
            format!("{:+.2}", r.x),
            format!("{:.6}", r.a),
            format!("{:.9}", r.small_no_sup),
            format!("{:.9}", r.small_sup),
            format!("{:.9}", r.large_no_sup),
            format!("{:.9}", r.large_sup),
        ]);
    }
    table
}

/// A simulated estimate as `mean ±std_error`. One replication has no
/// standard error, so a non-finite one prints as `±n/a`.
fn estimate(e: &Estimate) -> String {
    if e.std_error.is_finite() {
        format!("{:.6} ±{:.6}", e.mean, e.std_error)
    } else {
        format!("{:.6} ±n/a", e.mean)
    }
}

fn sim_table(rows: &[SimRow]) -> Table {
    let mut table = Table::new(vec![
        "x",
        "topology",
        "scenario",
        "CP sim",
        "CP analytic",
        "DP sim",
        "DP analytic",
    ]);
    for r in rows {
        table.row(vec![
            format!("{:+.2}", r.x),
            r.topology.to_owned(),
            if r.supervisor_required {
                "required".to_owned()
            } else {
                "not-required".to_owned()
            },
            estimate(&r.cp),
            format!("{:.6}", r.analytic_cp),
            estimate(&r.dp),
            format!("{:.6}", r.analytic_dp),
        ]);
    }
    table
}

fn chaos_table(rows: &[sdnav_grid::ChaosRow]) -> Table {
    let mut table = Table::new(vec![
        "crews",
        "CCF p",
        "topology",
        "CP sim",
        "DP sim",
        "injected CP h",
        "organic CP h",
        "injections",
    ]);
    for r in rows {
        table.row(vec![
            r.crew_count.to_string(),
            format!("{:.2}", r.ccf_probability),
            r.topology.to_owned(),
            estimate(&r.cp),
            estimate(&r.dp),
            format!("{:.2}", r.injected_cp_hours_mean),
            format!("{:.2}", r.organic_cp_hours_mean),
            r.injected_events.to_string(),
        ]);
    }
    table
}

fn consensus_table(rows: &[sdnav_grid::ConsensusRow]) -> Table {
    let mut table = Table::new(vec![
        "timeout ms",
        "cluster",
        "mix B:C",
        "quorum",
        "DES avail",
        "CTMC avail",
        "election frac",
        "stall frac",
        "elections",
    ]);
    for r in rows {
        table.row(vec![
            format!("{:.0}", r.election_timeout_ms),
            r.cluster_size.to_string(),
            format!("{}:{}", r.byzantine, r.crash),
            r.quorum.to_string(),
            estimate(&r.availability),
            format!("{:.6}", r.ctmc_availability),
            format!("{:.2e}", r.election_fraction_mean),
            format!("{:.2e}", r.stall_fraction_mean),
            r.elections.to_string(),
        ]);
    }
    table
}

fn sweep(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let json = args.choice("format", &["json"])?.is_some();
    let mut builder = grid_flags(args, GridSpec::builder())?;
    if let Some(path) = args.get("campaign") {
        let campaign: sdnav_chaos::ChaosSpec = read_json(path)?;
        campaign
            .try_validate()
            .map_err(|e| failure(format!("{path}: {e}")))?;
        builder = builder.chaos_campaign(campaign);
        if let Some(crews) = args.list("crews", "counts", |s| s.parse().ok())? {
            builder = builder.chaos_crew_counts(&crews);
        }
        if let Some(ccf) = args.list("ccf", "probabilities", |s| s.parse().ok())? {
            builder = builder.chaos_ccf_probabilities(&ccf);
        }
    } else if args.has("crews") || args.has("ccf") {
        return Err(usage("--crews and --ccf require --campaign"));
    }
    let timeouts = args.list("election-timeout-ms", "milliseconds", |s| s.parse().ok())?;
    let sizes = args.list("cluster-size", "node counts", |s| s.parse().ok())?;
    let mixes = args.list(
        "fault-mix",
        "BYZANTINE:CRASH counts (e.g. 0:1,1:1)",
        FaultMix::parse,
    )?;
    if spec.consensus.is_some() || timeouts.is_some() || sizes.is_some() || mixes.is_some() {
        // The spec's consensus block is the base; the flags enable the
        // axes on a plain spec with RAFT defaults as the base.
        let base = spec
            .consensus
            .clone()
            .unwrap_or_else(ConsensusSpec::raft_defaults);
        builder = builder.consensus(base);
        if let Some(timeouts) = timeouts {
            builder = builder.consensus_election_timeouts_ms(&timeouts);
        }
        if let Some(sizes) = sizes {
            builder = builder.consensus_cluster_sizes(&sizes);
        }
        if let Some(mixes) = mixes {
            builder = builder.consensus_fault_mixes(&mixes);
        }
    }
    let grid = builder.build().map_err(|e| failure(e.to_string()))?;

    if args.has("dry-run") {
        // Static cost prediction only: print the sdnav-sweep-plan/v1
        // document (stdout / --out) and any SA030-SA032 grid findings
        // (stderr), without evaluating a single cell.
        let plan = sdnav_audit::SweepPlan::predict(spec, &grid);
        write_out(args, &sdnav_json::to_string_pretty(&plan))?;
        let findings = sdnav_audit::audit_grid(spec, &grid);
        if !findings.is_clean() {
            eprint!("{}", findings.render());
        }
        if findings.has_errors() {
            return Err(failure(format!(
                "grid audit found {} error(s)",
                findings.error_count()
            )));
        }
        return Ok(());
    }

    let checkpoint = args.get("checkpoint").map(std::path::PathBuf::from);
    if args.has("resume") && checkpoint.is_none() {
        return Err(usage("--resume requires --checkpoint <file>"));
    }
    let inject_panic = args.value("inject-panic", "an integer")?;
    let cancel_after_cells = args.value("cancel-after-cells", "an integer")?;
    signals::install();
    let opts = SuperviseOptions {
        checkpoint: checkpoint.as_deref(),
        resume: args.has("resume"),
        shutdown: Some(&signals::SHUTDOWN),
        inject_panic,
        cancel_after_cells,
    };
    let outcome =
        sdnav_grid::evaluate_supervised(spec, &grid, &opts).map_err(|e| failure(e.to_string()))?;

    // Results (reproducible) go to stdout / --out; metrics (run-varying
    // timings) go to stderr so byte-comparing two runs' outputs works.
    if json {
        write_out(args, &sdnav_json::to_string_pretty(&outcome.results))?;
        eprintln!("{}", sdnav_json::to_string_pretty(&outcome.metrics));
    } else {
        let r = &outcome.results;
        if !r.fig3.is_empty() {
            println!("Fig. 3 — HW-centric availability vs A_C:\n");
            print!("{}", fig3_table(&r.fig3));
        }
        if !r.fig4.is_empty() {
            println!("\nFig. 4 — SW-centric CP availability:\n");
            print!("{}", sw_table(&r.fig4));
        }
        if !r.fig5.is_empty() {
            println!("\nFig. 5 — SW-centric per-host DP availability:\n");
            print!("{}", sw_table(&r.fig5));
        }
        if !r.sim.is_empty() {
            println!("\nSimulated cells (accelerated rates):\n");
            print!("{}", sim_table(&r.sim));
        }
        if !r.chaos.is_empty() {
            println!("\nChaos campaign cells (crew count × CCF probability):\n");
            print!("{}", chaos_table(&r.chaos));
        }
        if !r.consensus.is_empty() {
            println!("\nConsensus cells (election timeout × cluster size × fault mix):\n");
            print!("{}", consensus_table(&r.consensus));
        }
        eprint!("{}", outcome.metrics.render());
    }

    if !outcome.quarantine.is_empty() {
        let json = sdnav_json::to_string_pretty(&outcome.quarantine);
        match args.get("quarantine-out") {
            Some(path) => {
                std::fs::write(path, format!("{json}\n"))
                    .map_err(|e| failure(format!("cannot write {path}: {e}")))?;
                eprintln!("wrote quarantine report to {path}");
            }
            None => eprintln!("{json}"),
        }
    }
    if outcome.interrupted || !outcome.quarantine.is_empty() {
        let mut reasons = Vec::new();
        if outcome.interrupted {
            reasons.push(
                "sweep interrupted before every cell ran \
                 (resume with --checkpoint <file> --resume)"
                    .to_owned(),
            );
        }
        if !outcome.quarantine.is_empty() {
            reasons.push(format!(
                "{} cell(s) quarantined after a panic",
                outcome.quarantine.len()
            ));
        }
        return Err(SdnavError::partial(reasons.join("; ")));
    }
    Ok(())
}

/// `sdnav serve`: run the persistent evaluator service until
/// SIGINT/SIGTERM, then drain in-flight requests and exit 0.
fn serve(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:8423");
    let config = sdnav_serve::ServeConfig::builder(spec.clone())
        .addr(addr)
        .build()?;
    let server = sdnav_serve::Server::bind(config)?;
    signals::install();
    // The bound address goes to stderr so scripts binding port 0 can
    // discover the ephemeral port without scraping response bodies.
    eprintln!("sdnav serve: listening on http://{}", server.local_addr()?);
    server.run(&signals::SHUTDOWN)?;
    eprintln!("sdnav serve: drained, shutting down");
    Ok(())
}

fn fmea(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let order = args.get_usize("order", 2)?;
    let scenario = scenario(args)?;
    let topo = layout(spec, args)?;
    let sw_only = args.has("sw-only");
    let dep = Deployment::new(spec, &topo, SwParams::paper_defaults(), scenario);
    let modes = enumerate_filtered(&dep, order, |e| {
        !sw_only || matches!(e, ElementRef::Proc { .. } | ElementRef::VProc { .. })
    });
    println!(
        "{} minimal failure modes up to order {order} ({}, {:?}):",
        modes.len(),
        topo.name(),
        scenario
    );
    println!("\nmost probable CP-impacting modes:");
    for m in dominant_modes(&modes, true, 8) {
        println!("  {m}");
    }
    println!("\nmost probable DP-impacting modes:");
    for m in dominant_modes(&modes, false, 8) {
        println!("  {m}");
    }
    Ok(())
}

fn importance(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let scenario = scenario(args)?;
    let topo = layout(spec, args)?;
    let order = args.get_usize("order", 2)?;
    let dep = Deployment::new(spec, &topo, SwParams::paper_defaults(), scenario);
    let modes = enumerate_filtered(&dep, order, |e| {
        matches!(e, ElementRef::Proc { .. } | ElementRef::VProc { .. })
    });
    let ranking = sdnav_fmea::rank_elements(&modes);
    println!(
        "software element criticality ({}, {:?}, order ≤ {order}):\n",
        topo.name(),
        scenario
    );
    let mut table = Table::new(vec!["element", "CP share", "DP share"]);
    for c in ranking.iter().take(15) {
        table.row(vec![
            c.element.label(),
            format!("{:5.1}%", c.cp_share * 100.0),
            format!("{:5.1}%", c.dp_share * 100.0),
        ]);
    }
    print!("{table}");
    Ok(())
}

fn sensitivity(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let scenario = scenario(args)?;
    let topo = layout(spec, args)?;
    use sdnav_core::sensitivity::{hw as hw_sens, sw as sw_sens, SwMetric};
    println!("HW-centric parameter sensitivity ({}):\n", topo.name());
    let mut table = Table::new(vec!["parameter", "value", "dA/dA_p", "downtime share"]);
    for s in hw_sens(spec, &topo, HwParams::paper_defaults()).map_err(|e| failure(e.to_string()))? {
        table.row(vec![
            s.parameter,
            format!("{:.5}", s.value),
            format!("{:.4}", s.derivative),
            format!("{:5.1}%", s.downtime_share * 100.0),
        ]);
    }
    print!("{table}");
    for (label, metric) in [
        ("control plane", SwMetric::ControlPlane),
        ("host data plane", SwMetric::HostDataPlane),
    ] {
        println!("\nSW-centric sensitivity, {label} ({:?}):\n", scenario);
        let mut table = Table::new(vec!["parameter", "value", "dA/dA_p", "downtime share"]);
        for s in sw_sens(spec, &topo, SwParams::paper_defaults(), scenario, metric)
            .map_err(|e| failure(e.to_string()))?
        {
            table.row(vec![
                s.parameter,
                format!("{:.5}", s.value),
                format!("{:.4}", s.derivative),
                format!("{:5.1}%", s.downtime_share * 100.0),
            ]);
        }
        print!("{table}");
    }
    Ok(())
}

fn plan(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    use sdnav_core::planner::{cheapest_meeting, evaluate_candidates, pareto_frontier, CostModel};
    let points = evaluate_candidates(spec, SwParams::paper_defaults(), &CostModel::ballpark())
        .map_err(|e| failure(e.to_string()))?;
    println!("Pareto frontier (cost vs CP downtime):\n");
    let mut table = Table::new(vec![
        "cost",
        "CP m/y",
        "topology",
        "scenario",
        "maintenance",
    ]);
    for p in pareto_frontier(&points) {
        table.row(vec![
            format!("{:.0}", p.cost),
            format!("{:.2}", p.cp_downtime_m_y),
            p.topology.clone(),
            format!("{:?}", p.scenario),
            p.tier.name().to_owned(),
        ]);
    }
    print!("{table}");
    if let Some(target) = args.value::<f64>("target", "minutes/year")? {
        match cheapest_meeting(&points, target) {
            Some(p) => println!(
                "\ncheapest meeting ≤ {target} m/y: cost {:.0} — {} / {:?} / {}",
                p.cost,
                p.topology,
                p.scenario,
                p.tier.name()
            ),
            None => println!("\nno candidate meets ≤ {target} m/y"),
        }
    }
    Ok(())
}

fn harden(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let scenario = scenario(args)?;
    let topo = layout(spec, args)?;
    let target = args
        .value::<f64>("target", "minutes/year")?
        .ok_or_else(|| usage("harden requires --target <minutes/year>"))?;
    let base = SwParams::paper_defaults();
    match sdnav_core::sweep::required_process_availability(spec, &topo, base, scenario, target) {
        Some(a) => {
            let dt_scale = (1.0 - a) / (1.0 - base.process.auto);
            println!(
                "to reach ≤ {target} m/y of CP downtime on {} ({scenario:?}):",
                topo.name()
            );
            println!("  required auto-restart process availability A ≥ {a:.7}");
            println!(
                "  i.e. process downtime must change by ×{dt_scale:.2} from the default A = {:.5}",
                base.process.auto
            );
        }
        None => println!(
            "target {target} m/y is out of reach on {} by process hardening alone \
             (hardware floor, or already met at 10x worse processes)",
            topo.name()
        ),
    }
    Ok(())
}

fn simulate(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let scenario = scenario(args)?;
    let topo = layout(spec, args)?;
    let accel = args.get_f64("accelerate", 100.0)?;
    let config = SimConfig::builder(scenario)
        .accelerate(accel)
        .horizon_hours(args.get_f64("horizon", 200_000.0)?)
        .compute_hosts(args.get_usize("compute-hosts", 3)?)
        .build()
        .map_err(|e| failure(e.to_string()))?;
    let replications = args.get_usize("replications", 4)?;
    if replications == 0 {
        return Err(usage("--replications must be at least 1"));
    }
    let seed = args.get_usize("seed", 1)? as u64;

    let model = SwModel::try_new(spec, &topo, config.analytic_params(), scenario)
        .map_err(|e| failure(e.to_string()))?;
    let result = replicate(spec, &topo, config, seed, replications);
    println!(
        "simulated {} replications × {:.0} h on {} ({:?}, rates ×{accel})",
        replications,
        config.horizon_hours,
        topo.name(),
        scenario
    );
    println!("  events processed : {}", result.total_events);
    println!("  CP  simulated    : {}", result.cp);
    println!("  CP  analytic     : {:.9}", model.cp_availability());
    println!("  DP  simulated    : {}", result.dp);
    println!("  DP  analytic     : {:.9}", model.host_dp_availability());
    if result.cp_outages > 0 {
        println!(
            "  CP outages       : {} (mean duration {:.2} h, one per {:.0} h)",
            result.cp_outages,
            result.cp_outage_mean_hours,
            result.total_hours / result.cp_outages as f64
        );
    } else {
        println!("  CP outages       : none observed");
    }
    Ok(())
}

/// Builds the simulation configuration shared by `chaos run` and
/// `lint --campaign` from the common options.
fn chaos_config(args: &Args) -> Result<SimConfig, SdnavError> {
    SimConfig::builder(scenario(args)?)
        .accelerate(args.get_f64("accelerate", 100.0)?)
        .horizon_hours(args.get_f64("horizon", 100_000.0)?)
        .compute_hosts(args.get_usize("compute-hosts", 3)?)
        .build()
        .map_err(|e| failure(e.to_string()))
}

/// `sdnav chaos run`: run a declarative fault-injection campaign and print
/// its outage-attribution ledger.
fn chaos_run(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    if let Some(genspec_path) = args.get("verdict") {
        return chaos_verdict(spec, genspec_path, args);
    }
    let format = args.choice("format", &["json", "digest"])?;
    let path = args
        .get("campaign")
        .ok_or_else(|| usage("chaos run requires --campaign <file>"))?;
    let campaign: sdnav_chaos::ChaosSpec = read_json(path)?;
    campaign
        .try_validate()
        .map_err(|e| failure(format!("{path}: {e}")))?;
    if let Some(consensus_path) = args.get("consensus-spec") {
        return chaos_consensus(&campaign, consensus_path, args);
    }
    let topo = layout(spec, args)?;
    let config = chaos_config(args)?;
    let sim =
        sdnav_sim::Simulation::try_new(spec, &topo, config).map_err(|e| failure(e.to_string()))?;
    let plan =
        sdnav_chaos::compile(&campaign, &sim).map_err(|e| failure(format!("{path}: {e}")))?;
    let seed = args.get_usize("seed", 1)? as u64;
    let result = sim.run_injected(seed, &plan);
    let report = sdnav_chaos::report(&campaign, &result);

    match format {
        Some("digest") => write_out(args, &sdnav_chaos::digest_report(&report).to_pretty())?,
        Some(_) => write_out(args, &report.to_pretty())?,
        None => {
            let ledger = result.ledger.as_ref().expect("injected run has a ledger");
            println!(
                "campaign {:?} on {} ({:?}): {} planned event(s), {} fired, {} latent(s) revealed",
                campaign.name,
                topo.name(),
                config.scenario,
                plan.events.len(),
                ledger.injected_events,
                ledger.revealed_latents,
            );
            println!(
                "  CP availability : {:.9} ({} outage(s), {:.4} h total)",
                result.cp_availability,
                result.cp_outage_count,
                ledger.cp_outage_hours()
            );
            println!("  DP availability : {:.9}", result.dp_availability);
            println!("\noutage attribution (root cause):\n");
            let mut table = Table::new(vec!["cause", "CP outages", "CP hours", "DP host-hours"]);
            let causes = std::iter::once(sdnav_chaos::Cause::Organic)
                .chain((0..campaign.injections.len()).map(sdnav_chaos::Cause::Injection));
            for cause in causes {
                let outages: Vec<_> = ledger
                    .cp_outages
                    .iter()
                    .filter(|o| o.root_cause == cause)
                    .collect();
                table.row(vec![
                    sdnav_chaos::cause_name(&campaign, cause),
                    outages.len().to_string(),
                    format!(
                        "{:.4}",
                        outages.iter().fold(0.0, |acc, o| acc + o.duration())
                    ),
                    format!(
                        "{:.4}",
                        ledger
                            .dp_down_host_hours
                            .get(cause.slot())
                            .copied()
                            .unwrap_or(0.0)
                    ),
                ]);
            }
            print!("{table}");
        }
    }
    Ok(())
}

/// `sdnav chaos generate`: compile the deployment's FMEA dominant modes
/// into an injection campaign with per-mode expectation records.
fn chaos_generate(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    let topo = layout(spec, args)?;
    let deployment = Deployment::new(spec, &topo, SwParams::paper_defaults(), scenario(args)?);
    let defaults = sdnav_chaos::GenerateConfig::default();
    let config = sdnav_chaos::GenerateConfig {
        top_k: args.get_usize("top-k", defaults.top_k)?,
        max_order: args.get_usize("max-order", defaults.max_order)?,
        start_hours: args.get_f64("start", defaults.start_hours)?,
        spacing_hours: args.get_f64("spacing", defaults.spacing_hours)?,
        repair_hours: args.get_f64("repair", defaults.repair_hours)?,
        stress: args.has("stress"),
    };
    let json = args.choice("format", &["json"])?.is_some();
    let generated =
        sdnav_chaos::generate(&deployment, &config).map_err(|e| failure(e.to_string()))?;

    if json {
        write_out(args, &sdnav_json::ToJson::to_json(&generated).to_pretty())?;
    } else {
        println!(
            "campaign {:?}: {} mode(s), {} injection(s), seed {}",
            generated.campaign.name,
            generated.expectations.len(),
            generated.campaign.injections.len(),
            generated.campaign.seed,
        );
        let mut table = Table::new(vec!["mode", "impact", "p", "window (h)", "targets"]);
        for exp in &generated.expectations {
            table.row(vec![
                exp.label.clone(),
                match exp.impact {
                    sdnav_fmea::PlaneImpact::ControlPlaneOnly => "CP".to_owned(),
                    sdnav_fmea::PlaneImpact::DataPlaneOnly => "DP".to_owned(),
                    sdnav_fmea::PlaneImpact::Both => "CP+DP".to_owned(),
                },
                format!("{:.3e}", exp.probability),
                format!(
                    "[{:.0}, {:.0})",
                    exp.window_start_hours, exp.window_end_hours
                ),
                exp.targets.join(" + "),
            ]);
        }
        print!("{table}");
        eprintln!("hint: --format json emits the sdnav-chaos-genspec/v1 document");
    }
    Ok(())
}

/// `sdnav chaos run --verdict GENSPEC`: replay a generated campaign and
/// gate it on the survive-or-attribute check against its expectations.
fn chaos_verdict(spec: &ControllerSpec, genspec_path: &str, args: &Args) -> Result<(), SdnavError> {
    let json = args.choice("format", &["json"])?.is_some();
    let generated: sdnav_chaos::GeneratedCampaign = read_json(genspec_path)?;
    let topo = layout(spec, args)?;
    if !topo.name().eq_ignore_ascii_case(&generated.topology) {
        return Err(failure(format!(
            "{genspec_path}: genspec was generated on the {} topology, but --layout selects {} \
             (pass --layout {})",
            generated.topology,
            topo.name(),
            generated.topology.to_lowercase()
        )));
    }
    let config = chaos_config(args)?;
    let sim =
        sdnav_sim::Simulation::try_new(spec, &topo, config).map_err(|e| failure(e.to_string()))?;
    let seed = args.get_usize("seed", 1)? as u64;
    let verdict_config = sdnav_chaos::VerdictConfig {
        replications: args.get_usize("replications", 5)?,
        ..sdnav_chaos::VerdictConfig::default()
    };
    let report = sdnav_chaos::verdict(&sim, &generated, seed, &verdict_config)
        .map_err(|e| failure(format!("{genspec_path}: {e}")))?;

    if json {
        write_out(args, &report.to_doc().to_pretty())?;
    } else {
        println!(
            "verdict for {:?} on {} (seed {seed}): baseline CP {:.9} ± {:.2e}, \
             injected {:.9} (attribution-adjusted {:.9})",
            report.campaign,
            topo.name(),
            report.baseline_mean,
            report.baseline_half_width,
            report.cp_availability,
            report.adjusted_cp_availability,
        );
        let mut table = Table::new(vec![
            "mode",
            "verdict",
            "CP outages",
            "CP hours",
            "DP host-hours",
            "FMEA confirmed",
        ]);
        for mode in &report.modes {
            table.row(vec![
                mode.label.clone(),
                mode.verdict.name().to_owned(),
                mode.attributed_cp_outages.to_string(),
                format!("{:.4}", mode.attributed_cp_hours),
                format!("{:.4}", mode.attributed_dp_hours),
                if mode.impact_confirmed { "yes" } else { "no" }.to_owned(),
            ]);
        }
        print!("{table}");
        for violation in &report.violations {
            eprintln!("violation: {violation}");
        }
    }
    if !report.pass() {
        return Err(failure(format!(
            "survive-or-attribute verdict failed with {} violation(s)",
            report.violations.len()
        )));
    }
    Ok(())
}

/// Runs a campaign's fail injections against the consensus DES instead of
/// the deployment simulator: `leader` resolves at event time to the
/// current leaseholder, `host:IDX` maps onto controller node `IDX`.
fn chaos_consensus(
    campaign: &sdnav_chaos::ChaosSpec,
    consensus_path: &str,
    args: &Args,
) -> Result<(), SdnavError> {
    let cspec: ControllerSpec = read_json(consensus_path)?;
    let consensus = cspec.consensus.clone().ok_or_else(|| {
        failure(format!(
            "{consensus_path}: spec has no consensus block — a consensus run needs one"
        ))
    })?;
    let horizon = args.get_f64("horizon", 100_000.0)?;
    let params =
        sdnav_consensus::ConsensusParams::accelerated(horizon, args.get_f64("accelerate", 100.0)?);

    // Map the campaign's fail injections onto consensus kill hooks.
    let mut injections = Vec::new();
    for inj in &campaign.injections {
        let target = match &inj.kind {
            sdnav_chaos::InjectionKind::Fail { target, .. } => match target {
                sdnav_chaos::TargetRef::Leader => sdnav_consensus::InjectTarget::Leader,
                sdnav_chaos::TargetRef::Element(ElementRef::Host(i)) => {
                    sdnav_consensus::InjectTarget::Node(*i)
                }
                other => {
                    return Err(failure(format!(
                        "injection {:?}: target {other} is not representable in a consensus \
                         run (use `leader` or `host:IDX` for controller node IDX)",
                        inj.label
                    )))
                }
            },
            _ => {
                return Err(failure(format!(
                    "injection {:?}: only `fail` injections apply to a consensus run",
                    inj.label
                )))
            }
        };
        for (occurrence, at_hours) in inj.occurrences(horizon).enumerate() {
            if occurrence >= sdnav_chaos::MAX_OCCURRENCES {
                let label = inj.label.clone();
                return Err(failure(
                    sdnav_chaos::CompileError::TooManyOccurrences { label }.to_string(),
                ));
            }
            injections.push(sdnav_consensus::Injection { at_hours, target });
        }
    }

    let sim = sdnav_consensus::ConsensusSim::try_new(consensus, params)
        .map_err(|e| failure(format!("{consensus_path}: {e}")))?;
    let seed = args.get_usize("seed", 1)? as u64;
    let outcome = sim
        .run_injected(seed, &injections)
        .map_err(|e| failure(e.to_string()))?;

    let spec = sim.spec();
    println!(
        "campaign {:?} on a {}-node consensus cluster (quorum {}, mix {}): \
         {} planned kill(s), {} fired, {} skipped",
        campaign.name,
        spec.cluster_size,
        spec.quorum(),
        spec.fault_mix.label(),
        injections.len(),
        outcome.injected_kills,
        outcome.skipped_injections,
    );
    println!(
        "  CP availability   : {:.9} (leader up, election-latency aware)",
        outcome.availability
    );
    println!(
        "  election fraction : {:.3e} ({} election(s))",
        outcome.election_fraction, outcome.elections
    );
    println!(
        "  stall fraction    : {:.3e} ({} quorum-loss stall(s))",
        outcome.stall_fraction, outcome.stalls
    );
    Ok(())
}

/// What `lint` is auditing (and, with `--fix`, rewriting).
enum LintTarget {
    Spec(Box<ControllerSpec>),
    Block(sdnav_blocks::Block),
    Set(Vec<ControllerSpec>),
    Campaign(sdnav_chaos::ChaosSpec),
    Ctmc(sdnav_markov::Ctmc),
    Grid(Box<GridSpec>),
}

fn read_json<T: sdnav_json::FromJson>(path: &str) -> Result<T, SdnavError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| failure(format!("cannot read {path}: {e}")))?;
    sdnav_json::from_str(&text).map_err(|e| failure(format!("cannot parse {path}: {e}")))
}

/// Writes via a sibling temp file + rename so an interrupted `--fix` never
/// leaves a half-written artifact behind.
fn write_atomic(path: &str, contents: &str) -> Result<(), SdnavError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| failure(format!("cannot write {tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| failure(format!("cannot replace {path}: {e}")))
}

/// Walks up from the current directory to the first `Cargo.toml` declaring
/// a `[workspace]` — the root `sdnav lint --source` (bare) scans.
fn find_workspace_root() -> Result<std::path::PathBuf, SdnavError> {
    let mut dir = std::env::current_dir()
        .map_err(|e| failure(format!("cannot resolve current directory: {e}")))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| failure(format!("cannot read {}: {e}", manifest.display())))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(failure(
                "no workspace Cargo.toml found above the current directory; pass --source DIR",
            ));
        }
    }
}

/// `lint --source`: the detlint determinism/concurrency scan over Rust
/// source, sharing the model lint's output formats and exit contract
/// (0 clean / 1 findings / 2 usage).
fn lint_source(args: &Args, format: Option<&str>) -> Result<(), SdnavError> {
    if args.has("fix") || args.has("topology") {
        return Err(usage(
            "--source cannot be combined with --fix or --topology",
        ));
    }
    let (report, scanned) = match args.get("source") {
        Some(path) if path.ends_with(".rs") => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| failure(format!("cannot read {path}: {e}")))?;
            (sdnav_detlint::scan_source(path, &text), 1)
        }
        Some(path) => {
            let summary = sdnav_detlint::scan_workspace(std::path::Path::new(path))
                .map_err(|e| failure(format!("cannot scan workspace {path}: {e}")))?;
            (summary.report, summary.files_scanned)
        }
        None => {
            let root = find_workspace_root()?;
            let summary = sdnav_detlint::scan_workspace(&root)
                .map_err(|e| failure(format!("cannot scan workspace {}: {e}", root.display())))?;
            (summary.report, summary.files_scanned)
        }
    };
    match format {
        Some("json") => println!("{}", sdnav_json::to_string_pretty(&report)),
        Some(_sarif) => println!("{}", sdnav_audit::to_sarif(&report, None).to_pretty()),
        None => {
            print!("{}", report.render());
            eprintln!("detlint: scanned {scanned} file(s)");
        }
    }
    if report.has_errors() {
        return Err(failure(format!(
            "detlint found {} error(s)",
            report.error_count()
        )));
    }
    Ok(())
}

fn lint(args: &Args) -> Result<(), SdnavError> {
    let format = args.choice("format", &["json", "sarif"])?;
    let selectors = [
        "spec", "block", "spec-set", "campaign", "ctmc", "grid", "source",
    ];
    if selectors.iter().filter(|key| args.has(key)).count() > 1 {
        return Err(usage(
            "--spec, --block, --spec-set, --campaign, --ctmc, --grid and --source are mutually exclusive",
        ));
    }
    if args.has("source") {
        return lint_source(args, format);
    }
    let (target, path) = if let Some(path) = args.get("block") {
        (LintTarget::Block(read_json(path)?), Some(path))
    } else if let Some(path) = args.get("spec-set") {
        (LintTarget::Set(read_json(path)?), Some(path))
    } else if let Some(path) = args.get("campaign") {
        (LintTarget::Campaign(read_json(path)?), Some(path))
    } else if let Some(path) = args.get("ctmc") {
        (LintTarget::Ctmc(read_json(path)?), Some(path))
    } else if let Some(path) = args.get("grid") {
        (LintTarget::Grid(Box::new(read_json(path)?)), Some(path))
    } else if let Some(path) = args.get("spec") {
        (LintTarget::Spec(Box::new(read_json(path)?)), Some(path))
    } else {
        (
            LintTarget::Spec(Box::new(ControllerSpec::opencontrail_3x())),
            None,
        )
    };

    let fix = args.has("fix");
    let dry_run = args.has("dry-run");
    if dry_run && !fix {
        return Err(usage("--dry-run only makes sense with --fix"));
    }
    if fix && !matches!(target, LintTarget::Spec(_) | LintTarget::Block(_)) {
        return Err(usage("--fix supports a single --spec or --block"));
    }
    if fix && args.has("topology") {
        return Err(usage("--fix cannot be combined with --topology"));
    }

    let audit = |target: &LintTarget| -> Result<sdnav_audit::AuditReport, SdnavError> {
        match target {
            LintTarget::Spec(spec) => {
                let mut report = sdnav_audit::audit_model(spec);
                if let Some(topo_path) = args.get("topology") {
                    let topo: Topology = read_json(topo_path)?;
                    report.merge(sdnav_audit::audit_topology(spec, &topo));
                }
                Ok(report)
            }
            LintTarget::Block(block) => Ok(sdnav_audit::audit_block(block, "rbd")),
            LintTarget::Set(specs) => Ok(sdnav_audit::audit_spec_set(specs)),
            LintTarget::Campaign(campaign) => {
                // Campaigns are linted against the deployment they will run
                // on: the built-in spec at --layout/--scenario, with the
                // same config options `chaos run` takes.
                let spec = ControllerSpec::opencontrail_3x();
                let topo = layout(&spec, args)?;
                let config = chaos_config(args)?;
                let sim = sdnav_sim::Simulation::try_new(&spec, &topo, config)
                    .map_err(|e| failure(e.to_string()))?;
                Ok(sdnav_audit::audit_campaign(campaign, &sim))
            }
            LintTarget::Ctmc(ctmc) => {
                let mut report = sdnav_audit::audit_ctmc(ctmc, "ctmc");
                report.merge(sdnav_audit::audit_ctmc_structure(ctmc, "ctmc"));
                Ok(report)
            }
            LintTarget::Grid(grid) => Ok(sdnav_audit::audit_grid(
                &ControllerSpec::opencontrail_3x(),
                grid,
            )),
        }
    };

    let mut report = audit(&target)?;
    let mut pending_fixes = 0usize;
    if fix {
        let (fixed, plan) = match &target {
            LintTarget::Spec(spec) => {
                let (spec, plan) = sdnav_audit::fix_spec(spec);
                (LintTarget::Spec(Box::new(spec)), plan)
            }
            LintTarget::Block(block) => {
                let (block, plan) = sdnav_audit::fix_block(block);
                (LintTarget::Block(block), plan)
            }
            LintTarget::Set(_)
            | LintTarget::Campaign(_)
            | LintTarget::Ctmc(_)
            | LintTarget::Grid(_) => unreachable!("rejected above"),
        };
        print!("{}", plan.render());
        if dry_run {
            pending_fixes = plan.edits.len();
        }
        if !dry_run && !plan.is_empty() {
            let path = path.ok_or_else(|| {
                usage("--fix needs a file to rewrite; pass --spec FILE or --block FILE")
            })?;
            let json = match &fixed {
                LintTarget::Spec(spec) => sdnav_json::to_string_pretty(spec.as_ref()),
                LintTarget::Block(block) => sdnav_json::to_string_pretty(block),
                LintTarget::Set(_)
                | LintTarget::Campaign(_)
                | LintTarget::Ctmc(_)
                | LintTarget::Grid(_) => unreachable!("rejected above"),
            };
            write_atomic(path, &format!("{json}\n"))?;
            eprintln!("fix: rewrote {path}");
            // Exit-code semantics follow the artifact now on disk.
            report = audit(&fixed)?;
        }
    }

    match format {
        Some("json") => println!("{}", sdnav_json::to_string_pretty(&report)),
        Some(_sarif) => println!("{}", sdnav_audit::to_sarif(&report, path).to_pretty()),
        None => print!("{}", report.render()),
    }
    if pending_fixes > 0 {
        // `--fix --dry-run` is a gate: a nonzero exit means re-running
        // without --dry-run would rewrite the file.
        return Err(failure(format!(
            "{pending_fixes} auto-fixable finding(s) pending (--fix --dry-run)"
        )));
    }
    if report.has_errors() {
        return Err(failure(format!(
            "lint found {} error(s)",
            report.error_count()
        )));
    }
    if args.has("deny-warnings") && report.warning_count() > 0 {
        return Err(failure(format!(
            "lint found {} warning(s) (--deny-warnings)",
            report.warning_count()
        )));
    }
    Ok(())
}

fn dump_spec(spec: &ControllerSpec, args: &Args) -> Result<(), SdnavError> {
    write_out(args, &sdnav_json::to_string_pretty(spec))
}
