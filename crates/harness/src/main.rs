//! `union-exp` — regenerate the paper's tables and figures.
//!
//! Run it with no arguments for the commands and flags: that text is
//! `RunSpec::usage`, rendered from the flag table every command line is
//! parsed against, and README.md embeds the same text (a unit test in
//! `harness::run` keeps the copy verbatim) — there is no third copy here
//! to drift.
//!
//! Every command that simulates (`phold`, `mix`, the sweeps) is one
//! `RunSpec`: parsed and validated once, executed by `harness::run`.
//! This file dispatches, prints reports, and is the one place that maps
//! a failure to an exit code: 2 for a command line that cannot be run as
//! written, 1 for a run that failed.

use harness::report;
use harness::run::{Model, RunReport};
use harness::sweep::{self, SweepConfig};
use harness::{run, RunError, RunSpec};
use std::str::FromStr;
use union_core::{codegen, RankVm, SkeletonInstance, Validation};
use workloads::Profile;

/// A command's own exit code (0, or 1 when it reported findings itself),
/// or why it produced no result — [`RunError::Input`] for a command line
/// that cannot be run as written. [`main`] is the one place that turns
/// either into the process's exit code.
type Outcome = Result<i32, RunError>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    let outcome = match cmd {
        "table1" => table1(rest),
        "table2" => {
            print!("{}", report::table2());
            Ok(0)
        }
        "validate" | "table4" | "table5" | "fig6" => validate(cmd, rest),
        "fig7" | "fig8" | "fig9" | "table6" | "all" | "phold" | "mix" => run_cmd(cmd, rest),
        "skeleton" => skeleton(rest),
        "lint" => lint_cmd(rest),
        "trace" => trace_cmd(rest),
        "top" => top_cmd(rest),
        _ => {
            eprint!("{}", RunSpec::usage());
            Ok(2)
        }
    };
    std::process::exit(match outcome {
        Ok(code) => code,
        Err(RunError::Input(msg)) => {
            eprintln!("union-exp: {msg}");
            2
        }
        Err(RunError::Failed(msg)) => {
            eprintln!("union-exp: {msg}");
            1
        }
    });
}

/// The value of `flag` among a non-run command's arguments, or `default`
/// when absent. A flag without a value or with a malformed one is a
/// usage error — `--ranks many` must not silently run with the default.
fn opt<T: FromStr>(rest: &[String], flag: &str, default: T) -> Result<T, RunError> {
    match flag_value(rest, flag)? {
        Some(v) => v.parse().map_err(|_| RunError::Input(format!("bad value `{v}` for {flag}"))),
        None => Ok(default),
    }
}

/// `--ranks`, or `default` when absent. A job has at most one rank per
/// node of the largest modelled system (the paper's 8,448-node
/// dragonflies), so a larger value is a usage error before anything is
/// read or built.
fn ranks_opt(rest: &[String], default: u32) -> Result<u32, RunError> {
    use dragonfly::DragonflyConfig;
    let ranks: u32 = opt(rest, "--ranks", default)?;
    let max = DragonflyConfig::dragonfly_1d()
        .total_nodes()
        .max(DragonflyConfig::dragonfly_2d().total_nodes());
    if ranks > max {
        return Err(RunError::Input(format!(
            "--ranks {ranks} exceeds {max}, the node count of the largest modelled system"
        )));
    }
    Ok(ranks)
}

fn flag_value<'a>(rest: &'a [String], flag: &str) -> Result<Option<&'a String>, RunError> {
    let Some(i) = rest.iter().position(|a| a == flag) else { return Ok(None) };
    rest.get(i + 1).map(Some).ok_or_else(|| RunError::Input(format!("flag {flag} needs a value")))
}

/// Table I: quantify the trace-replay vs Union comparison on one
/// workload: artifact sizes, preparation cost, and result equivalence.
fn table1(rest: &[String]) -> Outcome {
    use std::sync::Arc;
    use union_core::Trace;
    let ranks = ranks_opt(rest, 64)?;
    let iters: i64 = opt(rest, "--iters", 5)?;
    let cfg = workloads::app(workloads::AppKind::NearestNeighbor, Profile::Quick, iters, 16);
    let args: Vec<&str> = cfg.args.iter().map(|s| s.as_str()).collect();
    let inst = SkeletonInstance::new(&cfg.skeleton, ranks, &args).map_err(RunError::Input)?;

    let t0 = std::time::Instant::now();
    let trace = Arc::new(Trace::record(&inst, 1));
    let record_s = t0.elapsed().as_secs_f64();
    let skeleton_size = serde_json::to_vec(&cfg.skeleton).unwrap().len() as u64;
    let trace_size = trace.jsonl_size();

    // A run's identity: its final-state fingerprint and committed events.
    let run = |b: codes::SimulationBuilder| -> Result<((u64, u64), f64), RunError> {
        let mut sim = b.build().map_err(RunError::Input)?;
        let t = std::time::Instant::now();
        let r = sim.run(ross::Scheduler::Sequential, ross::SimTime::MAX);
        Ok(((sim.state_fingerprint(), r.stats.committed), t.elapsed().as_secs_f64()))
    };
    let mk = || codes::SimulationBuilder::new(dragonfly::DragonflyConfig::small_1d()).seed(2);
    let (skel, t_skel) =
        run(mk().job(cfg.name(), (0..ranks).map(|r| RankVm::new(inst.clone(), r, 1)).collect()))?;
    let (replay, t_trace) = run(mk().job_trace(cfg.name(), &trace))?;

    println!("Table I — workload mechanisms compared on NN ({ranks} ranks, {iters} iters)");
    println!("| Feature | Trace Replay | Union |");
    println!("|---|---|---|");
    println!("| Trace collection | Yes ({record_s:.3}s app run) | No |");
    println!(
        "| Workload artifact size | {} (JSONL, {} records) | {} (skeleton) |",
        metrics::fmt_bytes(trace_size as f64),
        trace.len(),
        metrics::fmt_bytes(skeleton_size as f64),
    );
    println!("| Scaling application size | re-trace per size | rebind num_tasks |");
    println!("| Automatic skeletonization | n/a | Yes (translator) |");
    println!("| Integration to CODES | file ingest | automated registry |");
    println!("| Simulation wall time | {t_trace:.2}s | {t_skel:.2}s |");
    let show = |(fp, committed): (u64, u64)| format!("fingerprint {fp:016x}, {committed} events");
    if skel != replay {
        return Err(RunError::Failed(format!(
            "trace replay diverged from the skeleton run: {} vs {}",
            show(replay),
            show(skel)
        )));
    }
    println!("| Identical simulation results | yes (verified: {}) |  |", show(skel));
    Ok(0)
}

/// Tables IV & V and Fig 6: AlexNet application vs Union skeleton.
fn validate(cmd: &str, rest: &[String]) -> Outcome {
    let ranks = ranks_opt(rest, 512)?;
    let skel = workloads::alexnet();
    let inst = SkeletonInstance::new(&skel, ranks, &[]).map_err(RunError::Input)?;
    eprintln!("collecting AlexNet skeleton + reference streams at {ranks} ranks…");
    let skel_v = Validation::collect(ranks, |r| RankVm::new(inst.clone(), r, 1));
    let app_v =
        Validation::collect(ranks, |r| workloads::alexnet_reference::ops(r, ranks).into_iter());

    if cmd == "validate" || cmd == "table4" {
        println!("Table IV — AlexNet MPI event count (application vs Union skeleton)");
        print!("{}", Validation::table4(&app_v, &skel_v));
        println!();
    }
    if cmd == "validate" || cmd == "table5" {
        println!("Table V — AlexNet bytes transmitted by each rank");
        print!("{}", Validation::table5(&app_v, &skel_v));
        println!();
    }
    if cmd == "validate" || cmd == "fig6" {
        println!("Fig 6 — control flow (first 16 events of rank 0):");
        println!(
            "  application : {}",
            app_v.control_flow[..16.min(app_v.control_flow.len())].join(" -> ")
        );
        println!(
            "  skeleton    : {}",
            skel_v.control_flow[..16.min(skel_v.control_flow.len())].join(" -> ")
        );
        println!(
            "  full control flow match over {} events: {}",
            app_v.control_flow.len(),
            app_v.control_flow == skel_v.control_flow
        );
    }
    let ok = skel_v.matches(&app_v);
    println!("\nvalidation {}", if ok { "PASSED" } else { "FAILED" });
    Ok(if ok { 0 } else { 1 })
}

/// `union-exp trace --analyze FILE` — critical-path analysis of an
/// exported Chrome trace. Prints per-run DAG metrics and causality
/// fingerprints; exits 1 if any structural invariant fails, 2 on usage
/// or read errors.
fn trace_cmd(rest: &[String]) -> Outcome {
    let Some(path) = flag_value(rest, "--analyze")? else {
        return Err(RunError::Input("usage: union-exp trace --analyze FILE.json".to_string()));
    };
    let json = std::fs::read_to_string(path)
        .map_err(|e| RunError::Input(format!("cannot read `{path}`: {e}")))?;
    let runs =
        harness::parse_chrome(&json).map_err(|e| RunError::Failed(format!("{path}: {e}")))?;
    if runs.is_empty() {
        // Diagnostic, not analysis output: stdout stays machine-clean.
        eprintln!("{path}: no runs recorded");
        return Ok(0);
    }
    let analyses: Vec<harness::RunAnalysis> = runs.iter().map(harness::analyze).collect();
    print!("{}", harness::trace_analysis::render(&analyses));
    for r in &runs {
        println!("run {} causality fingerprint: {:016x}", r.run, harness::causality_fingerprint(r));
    }
    let mut sound = true;
    for a in &analyses {
        for v in a.check_invariants() {
            eprintln!("union-exp: run {}: invariant violated: {v}", a.run);
            sound = false;
        }
    }
    Ok(if sound { 0 } else { 1 })
}

/// Every command that simulates: one spec, parsed and validated once,
/// one runner; what differs per command is how its report prints.
fn run_cmd(cmd: &str, rest: &[String]) -> Outcome {
    let spec = RunSpec::parse(cmd, rest)?;
    spec.validate()?;
    let report = run(&spec)?;
    match &spec.model {
        Model::Codes(cfg) if cmd != "mix" => {
            match cmd {
                "fig8" => print_fig8(cfg, &report),
                _ => print_sweep(cmd, &spec, &report)?,
            }
            // What the sinks add to a sweep's tables: the telemetry
            // summary (with the critical-path block when the run was
            // traced too), or that block alone.
            match &report.telemetry {
                Some(rec) => {
                    print!("{}", report::telemetry_summary_with_trace(rec, &report.analyses))
                }
                None if !report.analyses.is_empty() => {
                    print!("{}", report::critical_path_block(&report.analyses, &[]))
                }
                None => {}
            }
        }
        _ => print_single(cmd, &report),
    }
    report.hold();
    Ok(0)
}

/// `phold` / `mix`: per-app progress and the state fingerprint.
fn print_single(cmd: &str, report: &RunReport) {
    let Some(fingerprint) = report.fingerprint else { return };
    for a in report.records.iter().flat_map(|r| &r.results).flat_map(|r| &r.apps) {
        let (ranks, done) = (a.finished_at_ns.len(), a.all_done());
        eprintln!("app {}: {ranks} ranks, done={done}, bytes {}", a.name, a.bytes_sent);
    }
    println!("{cmd} fingerprint {fingerprint:016x}");
    println!("{cmd} committed {}", report.committed);
}

fn print_sweep(cmd: &str, spec: &RunSpec, report: &RunReport) -> Result<(), RunError> {
    let records = &report.records;
    if cmd == "fig7" || cmd == "all" {
        print!("{}", report::fig7(records));
        println!();
    }
    if cmd == "fig9" || cmd == "all" {
        print!("{}", report::fig9(records));
        println!();
    }
    if cmd == "table6" || cmd == "all" {
        print!("{}", report::table6(records));
        println!();
    }
    if cmd == "all" {
        print!("{}", report::engine_stats(records));
    }
    if let Some(path) = &spec.out.json {
        dump_json(path, records)?;
    }
    Ok(())
}

/// Fig 8: Workload3 on 1D with adaptive routing; compare the byte series
/// on AlexNet's routers under RG vs RR placement.
fn print_fig8(cfg: &SweepConfig, report: &RunReport) {
    for r in &report.records {
        let Some(results) = &r.results else { continue };
        // Routers serving AlexNet (app id 1 in Workload3).
        let topo = dragonfly::Topology::build(r.key.net.config(cfg.profile));
        let apps = workloads::workload(3, cfg.profile, cfg.iters, cfg.scale);
        let alexnet_idx =
            apps.iter().position(|a| a.name() == "AlexNet").expect("AlexNet in W3") as u32;
        // Recompute the layout used by the run to find AlexNet's routers.
        let requests: Vec<placement::JobRequest> =
            apps.iter().map(|a| placement::JobRequest::new(a.name(), a.ranks)).collect();
        let layout = placement::Layout::place(&topo, &requests, r.key.placement, cfg.seed)
            .expect("the run placed the same jobs");
        let routers = layout.routers_of_job(&topo, alexnet_idx);
        let series = results.series_over(&routers, cfg.window_ns);
        let names: Vec<String> = apps.iter().map(|a| a.name().to_string()).collect();
        println!("{}", report::fig8(&r.key.label(), cfg.window_ns, &series, &names));
        // Peak interference from other applications on AlexNet's routers.
        let other_peak: u64 = (0..names.len())
            .filter(|&i| i != alexnet_idx as usize)
            .map(|i| series.peak(i))
            .max()
            .unwrap_or(0);
        println!(
            "peak bytes/window from other apps on AlexNet routers ({}): {}\n",
            r.key.placement.label(),
            metrics::fmt_bytes(other_peak as f64)
        );
    }
}

/// Print the generated Fig-5-style C skeleton of a registered workload.
fn skeleton(rest: &[String]) -> Outcome {
    let name = rest.first().map(|s| s.as_str()).unwrap_or("alexnet");
    let reg = workloads::registry();
    match reg.get(name) {
        Some(s) => print!("{}", codegen::render_c(s)),
        None => {
            let names = reg.names();
            return Err(RunError::Input(format!(
                "unknown skeleton `{name}`; available: {names:?}"
            )));
        }
    }
    Ok(0)
}

/// `union-exp lint` — run `union-lint`'s static analysis without
/// simulating anything. Default: every bundled workload skeleton at the
/// configuration a sweep would instantiate, plus the lookahead windows
/// the model derives on each network.
/// `--fixture NAME` lints a seeded-bug fixture; `--file PROG.ncptl` lints
/// a DSL program.
/// Exit codes: 0 = clean (infos allowed), 1 = findings at Warning or
/// above, 2 = usage error.
fn lint_cmd(rest: &[String]) -> Outcome {
    use union_lint::{fixtures, LintOptions, Severity};
    let opts = LintOptions::default();
    let mut reports: Vec<(String, union_lint::Report)> = Vec::new();
    if let Some(name) = flag_value(rest, "--fixture")? {
        let r = fixtures::lint(name, &opts).ok_or_else(|| {
            RunError::Input(format!("unknown fixture `{name}`; available: {:?}", fixtures::NAMES))
        })?;
        reports.push((format!("fixture {name}"), r));
    } else if let Some(path) = flag_value(rest, "--file")? {
        let ranks = ranks_opt(rest, 4)?;
        let src = std::fs::read_to_string(path)
            .map_err(|e| RunError::Input(format!("cannot read `{path}`: {e}")))?;
        reports.push((
            format!("{path} ({ranks} ranks)"),
            union_lint::lint_source(&src, path, ranks, &[], &opts),
        ));
    } else {
        let spec = RunSpec::parse("lint", rest)?;
        let Model::Codes(cfg) = &spec.model else { unreachable!("lint parses as a sweep") };
        for kind in workloads::AppKind::ALL {
            let app = workloads::app(kind, cfg.profile, cfg.iters, cfg.scale);
            let args: Vec<&str> = app.args.iter().map(|s| s.as_str()).collect();
            let r = union_lint::lint_skeleton(&app.skeleton, app.ranks, &args, &opts);
            reports.push((format!("{} ({} ranks)", app.name(), app.ranks), r));
        }
        let windows = harness::lint::window_report(cfg);
        reports.push(("model/lookahead".to_string(), windows));
    }
    let mut worst = None;
    for (label, r) in &reports {
        match r.max_severity() {
            None => println!("{label}: clean"),
            some => {
                print!("{label}:\n{r}");
                worst = worst.max(some);
            }
        }
    }
    Ok(if worst >= Some(Severity::Warning) { 1 } else { 0 })
}

/// `union-exp top ADDR|FILE` — one-screen summary of a live run: from a
/// running endpoint's `/snapshot` route, or from the last snapshot
/// record in a JSONL file written by `--telemetry` + `--live`.
fn top_cmd(rest: &[String]) -> Outcome {
    let Some(target) = rest.first() else {
        return Err(RunError::Input("usage: union-exp top ADDR|FILE".to_string()));
    };
    let snap = if std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target)
            .map_err(|e| RunError::Input(format!("cannot read `{target}`: {e}")))?;
        harness::live::last_snapshot_in_jsonl(&text)
            .ok_or_else(|| RunError::Failed(format!("no snapshot records in `{target}`")))?
    } else if target.contains(':') {
        harness::live::fetch_snapshot(target).map_err(RunError::Failed)?
    } else {
        let msg = format!("`{target}` is neither a readable file nor an ADDR:PORT");
        return Err(RunError::Input(msg));
    };
    print!("{}", harness::live::render_top(&snap));
    Ok(0)
}

fn dump_json(path: &str, records: &[sweep::RunRecord]) -> Result<(), RunError> {
    #[derive(serde::Serialize)]
    struct Rec<'a> {
        net: &'a str,
        workload: String,
        placement: &'a str,
        routing: &'a str,
        apps: &'a [sweep::AppOutcome],
        global_bytes: u64,
        local_bytes: u64,
        committed_events: u64,
        wall_seconds: f64,
    }
    let out: Vec<Rec> = records
        .iter()
        .map(|r| Rec {
            net: r.key.net.label(),
            workload: r.key.workload.label(),
            placement: r.key.placement.label(),
            routing: r.key.routing.label(),
            apps: &r.apps,
            global_bytes: r.link_load.global_bytes,
            local_bytes: r.link_load.local_bytes,
            committed_events: r.stats.committed,
            wall_seconds: r.stats.wall_seconds,
        })
        .collect();
    let json = serde_json::to_string_pretty(&out).expect("run records serialize");
    std::fs::write(path, json)
        .map_err(|e| RunError::Failed(format!("cannot write `{path}`: {e}")))?;
    eprintln!("wrote {path}");
    Ok(())
}
