//! `union-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! union-exp table2                      # system configurations
//! union-exp validate [--ranks 512]     # Tables IV & V + Fig 6 (AlexNet)
//! union-exp fig7 [sweep opts]          # message-latency boxplots
//! union-exp fig9 [sweep opts]          # communication times
//! union-exp fig8 [sweep opts]          # router time series (RG vs RR)
//! union-exp table6 [sweep opts]        # link loads (1D vs 2D)
//! union-exp all [sweep opts]           # everything above
//! union-exp skeleton <name>            # print the generated C skeleton
//! union-exp lint [--fixture N|--file F] # static analysis (union-lint);
//!                                       # exit 0 clean / 1 findings / 2 usage
//! union-exp trace --analyze F.json     # critical-path analysis of an
//!                                       # exported Chrome trace
//!
//! sweep opts:
//!   --profile quick|paper   (default quick)
//!   --iters N               iterations per app (default 2)
//!   --scale N               payload divisor (default 16)
//!   --seed N
//!   --sched seq|opt:T[:B:I]|par:T:L|async:T:L
//!                                       (par = conservative-parallel,
//!                                       async = barrier-free conservative,
//!                                       T threads, L ns lookahead window;
//!                                       opt:T:B:I = batch B, snapshot
//!                                       interval I)
//!   --queue heap|ladder     pending-event queue (default ladder)
//!   --nets 1d,2d  --placements RN,RR,RG  --routings MIN,ADP
//!   --workloads 1,2,3  --no-baselines
//!   --json FILE             dump records as JSON
//!   --telemetry FILE        write run telemetry as JSONL and print a
//!                           summary (first record is the run manifest)
//!   --trace FILE[:RATE]     record a causal event trace and export it as
//!                           Chrome trace-event JSON (Perfetto-loadable);
//!                           RATE samples handler durations every RATE-th
//!                           event (default 1 = every event)
//! ```

use dragonfly::Routing;
use harness::report;
use harness::sweep::{self, Net, SweepConfig};
use placement::Placement;
use ross::Scheduler;
use union_core::{codegen, RankVm, SkeletonInstance, Validation};
use workloads::Profile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    match cmd {
        "table1" => table1(rest),
        "table2" => print!("{}", report::table2()),
        "validate" | "table4" | "table5" | "fig6" => validate(cmd, rest),
        "fig7" | "fig9" | "table6" | "all" => sweep_cmd(cmd, rest),
        "fig8" => fig8(rest),
        "skeleton" => skeleton(rest),
        "lint" => lint_cmd(rest),
        "trace" => trace_cmd(rest),
        "phold" => phold_cmd(rest),
        "mix" => mix_cmd(rest),
        "top" => top_cmd(rest),
        _ => {
            eprintln!(
                "usage: union-exp <table1|table2|validate|fig7|fig8|fig9|table6|all|skeleton|lint|trace|phold|mix|top> [opts]\n\
                 sweep opts: --profile quick|paper  --iters N  --scale N  --seed N\n\
                 \x20           --sched seq|opt:T[:B:I]|par:T:L|async:T:L  (T threads,\n\
                 \x20           L ns lookahead, B batch, I snapshot interval)\n\
                 \x20           --queue heap|ladder  (pending-event queue, default ladder)\n\
                 \x20           --nets 1d,2d  --placements RN,RR,RG  --routings MIN,ADP\n\
                 \x20           --workloads 1,2,3  --no-baselines  --json FILE  --allow-lint\n\
                 \x20           --telemetry FILE  (JSONL run telemetry + summary)\n\
                 \x20           --trace FILE[:RATE]  (Chrome trace-event export; RATE = duration\n\
                 \x20           sampling divisor, default 1)\n\
                 lint opts:  [--fixture NAME | --file PROG.ncptl [--ranks N] | sweep opts]\n\
                 \x20           exit 0 = clean, 1 = findings, 2 = usage error\n\
                 trace opts: --analyze FILE.json  (critical path, speedup bound, wasted work)\n\
                 phold opts: --sched seq|shard:N:T:L  --lps N  --horizon-us U  --seed N\n\
                 \x20           --queue heap|ladder  --until-us U  --checkpoint FILE[:EVERY_US]\n\
                 \x20           --restore FILE  --shard-no-verify  --telemetry FILE\n\
                 \x20           --live ADDR [--live-hold MS] [--live-interval MS]\n\
                 \x20           (exposition endpoint: GET /metrics Prometheus text,\n\
                 \x20           /snapshot JSON; gang runs serve one aggregated endpoint)\n\
                 mix opts:   --sched seq|shard:N:T:L  --workload W  --net 1d|2d\n\
                 \x20           --placement RN|RR|RG  --routing MIN|ADP  [sweep opts]\n\
                 \x20           --shard-no-verify  --telemetry FILE  --live ADDR\n\
                 top:        union-exp top ADDR|FILE  (live summary table from a\n\
                 \x20           running endpoint or a snapshot JSONL file)"
            );
            std::process::exit(2);
        }
    }
}

/// Table I: quantify the trace-replay vs Union comparison on one
/// workload: artifact sizes, preparation cost, and result equivalence.
fn table1(rest: &[String]) {
    use std::sync::Arc;
    use union_core::Trace;
    let ranks: u32 = opt(rest, "--ranks", 64);
    let iters: i64 = opt(rest, "--iters", 5);
    let cfg = workloads::app(workloads::AppKind::NearestNeighbor, Profile::Quick, iters, 16);
    let args: Vec<&str> = cfg.args.iter().map(|s| s.as_str()).collect();
    let inst = SkeletonInstance::new(&cfg.skeleton, ranks, &args).expect("instance");

    let t0 = std::time::Instant::now();
    let trace = Arc::new(Trace::record(&inst, 1));
    let record_s = t0.elapsed().as_secs_f64();
    let skeleton_size = serde_json::to_vec(&cfg.skeleton).unwrap().len() as u64;
    let trace_size = trace.jsonl_size();

    let run = |b: codes::SimulationBuilder| {
        let mut sim = b.build().unwrap();
        let t = std::time::Instant::now();
        let r = sim.run(ross::Scheduler::Sequential, ross::SimTime::MAX);
        (r, t.elapsed().as_secs_f64())
    };
    let mk = || codes::SimulationBuilder::new(dragonfly::DragonflyConfig::small_1d()).seed(2);
    let (r_skel, t_skel) =
        run(mk().job(cfg.name(), (0..ranks).map(|r| RankVm::new(inst.clone(), r, 1)).collect()));
    let (r_trace, t_trace) = run(mk().job_trace(cfg.name(), &trace));

    let lat = |r: &codes::SimResults| r.apps[0].latency.iter().map(|l| l.sum_ns).sum::<u64>();
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
    println!(
        "| Identical simulation results | {} |  |",
        if lat(&r_skel) == lat(&r_trace) { "yes (verified)" } else { "NO (bug!)" }
    );
}

/// Parse the value of `flag`, or `default` when the flag is absent.
/// A present-but-malformed value is a usage error (exit 2), matching
/// the strict `--sched`/`--queue` convention — `--iters abc` must not
/// silently run with the default.
fn opt<T: std::str::FromStr>(rest: &[String], flag: &str, default: T) -> T {
    let Some(i) = rest.iter().position(|a| a == flag) else { return default };
    let Some(v) = rest.get(i + 1) else {
        eprintln!("union-exp: flag {flag} needs a value");
        std::process::exit(2);
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("union-exp: bad value `{v}` for {flag}");
        std::process::exit(2);
    })
}

fn opt_str<'a>(rest: &'a [String], flag: &str, default: &'a str) -> &'a str {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or(default)
}

fn has(rest: &[String], flag: &str) -> bool {
    rest.iter().any(|a| a == flag)
}

/// Parse a `--sched` spec: `seq`, `opt:T` or `opt:T:B:I`, `par:T:L`,
/// or `async:T:L` where `T` is the worker-thread count, `L`
/// the lookahead in ns (`par:4:500` = 4 workers, 500 ns windows;
/// `async:4:500` = the barrier-free scheduler with the same lookahead
/// promise), `B` the optimistic batch size and `I` the snapshot interval
/// (`opt:4:32:4` = 4 workers, 32-event batches, snapshot every 4 events).
/// Malformed specs are reported, not silently defaulted; so is the
/// retired `cons:T` (YAWNS is `par:T:0`).
fn parse_sched(s: &str) -> Result<Scheduler, String> {
    fn threads(t: &str, spec: &str) -> Result<usize, String> {
        t.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad thread count `{t}` in scheduler spec `{spec}`"))
    }
    if s == "seq" {
        Ok(Scheduler::Sequential)
    } else if let Some(t) = s.strip_prefix("cons:") {
        Err(format!(
            "`{s}`: the YAWNS scheduler is now the zero-window case of the parallel one — \
             use par:{t}:0"
        ))
    } else if let Some(rest) = s.strip_prefix("opt:") {
        let mut parts = rest.split(':');
        let t = threads(parts.next().unwrap_or(""), s)?;
        match (parts.next(), parts.next(), parts.next()) {
            (None, ..) => {
                Ok(Scheduler::Optimistic { threads: t, config: ross::OptimisticConfig::default() })
            }
            (Some(b), Some(i), None) => {
                let batch = b
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad batch `{b}` in scheduler spec `{s}`"))?;
                let snapshot_interval =
                    i.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("bad snapshot interval `{i}` in scheduler spec `{s}`")
                    })?;
                Ok(Scheduler::Optimistic {
                    threads: t,
                    config: ross::OptimisticConfig { batch, snapshot_interval },
                })
            }
            _ => Err(format!(
                "scheduler spec `{s}` must be opt:<threads> or opt:<threads>:<batch>:<interval>"
            )),
        }
    } else if let Some(rest) = s.strip_prefix("par:") {
        let (t, l) = rest
            .split_once(':')
            .ok_or_else(|| format!("scheduler spec `{s}` must be par:<threads>:<lookahead-ns>"))?;
        let lookahead_ns: u64 =
            l.parse().map_err(|_| format!("bad lookahead `{l}` in scheduler spec `{s}`"))?;
        Ok(Scheduler::ConservativeParallel {
            threads: threads(t, s)?,
            lookahead: ross::SimDuration::from_ns(lookahead_ns),
        })
    } else if let Some(rest) = s.strip_prefix("async:") {
        let (t, l) = rest.split_once(':').ok_or_else(|| {
            format!("scheduler spec `{s}` must be async:<threads>:<lookahead-ns>")
        })?;
        let lookahead_ns: u64 =
            l.parse().map_err(|_| format!("bad lookahead `{l}` in scheduler spec `{s}`"))?;
        Ok(Scheduler::ConservativeAsync {
            threads: threads(t, s)?,
            lookahead: ross::SimDuration::from_ns(lookahead_ns),
        })
    } else if s.starts_with("shard:") {
        Err(format!(
            "`{s}`: multi-process sharding is supported by the `phold` and `mix` commands, \
             not by the sweep commands"
        ))
    } else {
        Err(format!(
            "unknown scheduler `{s}` (expected seq, opt:T, opt:T:B:I, par:T:L, or async:T:L)"
        ))
    }
}

/// Parse sweep options and validate them with `union-lint` before any
/// simulation starts: a `par:T:L` or `async:T:L` lookahead exceeding the
/// statically computed minimum cross-partition delay is rejected here
/// (exit 2) rather than panicking mid-run. `--allow-lint` overrides.
fn sweep_config(rest: &[String]) -> SweepConfig {
    let cfg = parse_sweep(rest);
    let r = harness::lint::check_sched_lookahead(&cfg);
    if !r.is_empty() {
        eprint!("{r}");
        if r.has_errors() && !has(rest, "--allow-lint") {
            eprintln!(
                "union-exp: parallel schedule rejected by union-lint \
                 (use --allow-lint to override)"
            );
            std::process::exit(2);
        }
    }
    cfg
}

fn parse_sweep(rest: &[String]) -> SweepConfig {
    let mut cfg = SweepConfig::quick();
    cfg.profile = match opt_str(rest, "--profile", "quick") {
        "paper" => Profile::Paper,
        _ => Profile::Quick,
    };
    if cfg.profile == Profile::Paper {
        cfg.scale = 1;
    }
    cfg.iters = opt(rest, "--iters", cfg.iters);
    cfg.scale = opt(rest, "--scale", cfg.scale);
    cfg.seed = opt(rest, "--seed", cfg.seed);
    cfg.sched = parse_sched(opt_str(rest, "--sched", "seq")).unwrap_or_else(|e| {
        eprintln!("union-exp: {e}");
        std::process::exit(2);
    });
    cfg.queue =
        ross::QueueKind::parse(opt_str(rest, "--queue", ross::QueueKind::default().label()))
            .unwrap_or_else(|e| {
                eprintln!("union-exp: {e}");
                std::process::exit(2);
            });
    if opt_str(rest, "--flow", "busy") == "credit" {
        cfg.flow = dragonfly::FlowControl::credit_default();
    }
    cfg.baselines = !has(rest, "--no-baselines");
    cfg.nets = opt_str(rest, "--nets", "1d,2d")
        .split(',')
        .filter_map(|s| match s.trim() {
            "1d" | "1D" => Some(Net::OneD),
            "2d" | "2D" => Some(Net::TwoD),
            _ => None,
        })
        .collect();
    cfg.placements = opt_str(rest, "--placements", "RN,RR,RG")
        .split(',')
        .filter_map(|s| match s.trim() {
            "RN" => Some(Placement::RandomNodes),
            "RR" => Some(Placement::RandomRouters),
            "RG" => Some(Placement::RandomGroups),
            _ => None,
        })
        .collect();
    cfg.routings = opt_str(rest, "--routings", "MIN,ADP")
        .split(',')
        .filter_map(|s| match s.trim() {
            "MIN" => Some(Routing::Minimal),
            "ADP" => Some(Routing::Adaptive),
            _ => None,
        })
        .collect();
    cfg.workloads = opt_str(rest, "--workloads", "1,2,3")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    cfg
}

/// Tables IV & V and Fig 6: AlexNet application vs Union skeleton.
fn validate(cmd: &str, rest: &[String]) {
    let ranks: u32 = opt(rest, "--ranks", 512);
    let skel = workloads::alexnet();
    let inst = SkeletonInstance::new(&skel, ranks, &[]).expect("alexnet instance");
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
    if !ok {
        std::process::exit(1);
    }
}

/// `git describe` of the working tree for the run manifest, or `unknown`
/// when git (or the repository) is unavailable.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// When `--telemetry FILE` is given: create a recorder, emit the run
/// manifest as its first record, attach it to the sweep, and return it
/// with the output path for [`telemetry_finish`].
fn telemetry_setup(
    cmd: &str,
    rest: &[String],
    cfg: &mut SweepConfig,
) -> Option<(std::sync::Arc<telemetry::Recorder>, String)> {
    let path = rest.iter().position(|a| a == "--telemetry").and_then(|i| rest.get(i + 1))?.clone();
    let rec = std::sync::Arc::new(telemetry::Recorder::new());
    let sched = opt_str(rest, "--sched", "seq");
    let mut manifest =
        telemetry::ManifestRecord::new(cmd, rest.to_vec(), cfg.seed, sched, &git_describe());
    manifest.config = serde::Value::Object(vec![
        (
            "profile".to_string(),
            serde::Value::Str(
                match cfg.profile {
                    Profile::Paper => "paper",
                    Profile::Quick => "quick",
                }
                .to_string(),
            ),
        ),
        ("iters".to_string(), serde::Value::Int(cfg.iters)),
        ("scale".to_string(), serde::Value::Int(cfg.scale)),
        ("queue".to_string(), serde::Value::Str(cfg.queue.label().to_string())),
        (
            "nets".to_string(),
            serde::Value::Array(
                cfg.nets.iter().map(|n| serde::Value::Str(n.label().to_string())).collect(),
            ),
        ),
        (
            "workloads".to_string(),
            serde::Value::Array(
                cfg.workloads.iter().map(|&w| serde::Value::Int(w as i64)).collect(),
            ),
        ),
        ("baselines".to_string(), serde::Value::Bool(cfg.baselines)),
    ]);
    rec.emit(&manifest);
    cfg.telemetry = Some(rec.clone());
    Some((rec, path))
}

/// Close out a telemetry run: stamp the total wall time, write the JSONL
/// file, and print the summary table (with the critical-path block when
/// the run was traced too).
fn telemetry_finish(
    telem: Option<(std::sync::Arc<telemetry::Recorder>, String)>,
    analyses: &[harness::RunAnalysis],
) {
    let Some((rec, path)) = telem else { return };
    rec.emit(&telemetry::PhaseRecord::new("total", rec.elapsed_ns()));
    if let Err(e) = rec.write_jsonl(std::path::Path::new(&path)) {
        eprintln!("union-exp: cannot write telemetry file `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path} ({} records)", rec.len());
    print!("{}", report::telemetry_summary_with_trace(&rec, analyses));
}

/// When `--trace FILE[:RATE]` is given: create a causal tracer sampling
/// handler durations on every `RATE`-th event (default 1 = all), attach
/// it to the sweep, and return it with the output path for
/// [`trace_finish`].
fn trace_setup(
    rest: &[String],
    cfg: &mut SweepConfig,
) -> Option<(std::sync::Arc<ross::Tracer>, String)> {
    let i = rest.iter().position(|a| a == "--trace")?;
    let Some(spec) = rest.get(i + 1) else {
        eprintln!("union-exp: flag --trace needs a value");
        std::process::exit(2);
    };
    let spec = spec.clone();
    // A trailing `:N` is the sampling rate; any other `:` stays in the
    // path.
    let (path, rate) = match spec.rsplit_once(':') {
        Some((p, r)) if !p.is_empty() && r.parse::<u32>().is_ok() => {
            let rate = r.parse::<u32>().expect("checked above");
            if rate == 0 {
                eprintln!("union-exp: --trace sample rate must be >= 1 in `{spec}`");
                std::process::exit(2);
            }
            (p.to_string(), rate)
        }
        _ => (spec, 1),
    };
    let tracer = std::sync::Arc::new(ross::Tracer::new(rate));
    cfg.tracer = Some(tracer.clone());
    Some((tracer, path))
}

/// Close out a traced run: export the Chrome trace JSON, note the export
/// in the telemetry stream (if any), and return the per-run
/// critical-path analyses for the summary block.
fn trace_finish(
    trace: Option<(std::sync::Arc<ross::Tracer>, String)>,
    telem: Option<&telemetry::Recorder>,
) -> Vec<harness::RunAnalysis> {
    let Some((tr, path)) = trace else { return Vec::new() };
    let json = tr.to_chrome_json();
    let write = || -> std::io::Result<()> {
        let mut w = telemetry::StreamWriter::create(std::path::Path::new(&path))?;
        w.write_str(&json)?;
        w.finish()
    };
    if let Err(e) = write() {
        eprintln!("union-exp: cannot write trace file `{path}`: {e}");
        std::process::exit(1);
    }
    let dropped = tr.events_dropped();
    eprintln!(
        "wrote {path} ({} trace events{})",
        tr.event_count(),
        if dropped > 0 { format!(", {dropped} dropped at the cap") } else { String::new() }
    );
    if let Some(rec) = telem {
        rec.emit(&telemetry::TraceExportRecord::new(
            &path,
            tr.event_count() as u64,
            dropped,
            tr.spans_dropped(),
        ));
    }
    match harness::parse_chrome(&json) {
        Ok(runs) => runs.iter().map(harness::analyze).collect(),
        Err(e) => {
            eprintln!("union-exp: exported trace failed to re-parse: {e}");
            Vec::new()
        }
    }
}

/// `union-exp trace --analyze FILE` — critical-path analysis of an
/// exported Chrome trace. Prints per-run DAG metrics and causality
/// fingerprints; exits 1 if any structural invariant fails, 2 on usage
/// or read errors.
fn trace_cmd(rest: &[String]) {
    let Some(path) = rest.iter().position(|a| a == "--analyze").and_then(|i| rest.get(i + 1))
    else {
        eprintln!("usage: union-exp trace --analyze FILE.json");
        std::process::exit(2);
    };
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("union-exp: cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    let runs = harness::parse_chrome(&json).unwrap_or_else(|e| {
        eprintln!("union-exp: {path}: {e}");
        std::process::exit(1);
    });
    if runs.is_empty() {
        // Diagnostic, not analysis output: stdout stays machine-clean.
        eprintln!("{path}: no runs recorded");
        return;
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
    if !sound {
        std::process::exit(1);
    }
}

fn sweep_cmd(cmd: &str, rest: &[String]) {
    let mut cfg = sweep_config(rest);
    let telem = telemetry_setup(cmd, rest, &mut cfg);
    let trace = trace_setup(rest, &mut cfg);
    let records = sweep::run_sweep(&cfg, |label| eprintln!("running {label}…"));
    if cmd == "fig7" || cmd == "all" {
        print!("{}", report::fig7(&records));
        println!();
    }
    if cmd == "fig9" || cmd == "all" {
        print!("{}", report::fig9(&records));
        println!();
    }
    if cmd == "table6" || cmd == "all" {
        print!("{}", report::table6(&records));
        println!();
    }
    if cmd == "all" {
        print!("{}", report::engine_stats(&records));
    }
    if let Some(path) = rest.iter().position(|a| a == "--json").and_then(|i| rest.get(i + 1)) {
        dump_json(path, &records);
    }
    let analyses = trace_finish(trace, telem.as_ref().map(|(r, _)| r.as_ref()));
    if telem.is_none() && !analyses.is_empty() {
        print!("{}", report::critical_path_block(&analyses, &[]));
    }
    telemetry_finish(telem, &analyses);
}

/// Fig 8: Workload3 on 1D with adaptive routing; compare the byte series
/// on AlexNet's routers under RG vs RR placement.
fn fig8(rest: &[String]) {
    let mut cfg = sweep_config(rest);
    cfg.window_ns = 500_000; // the paper's 0.5 ms window
    cfg.keep_results = true;
    cfg.baselines = false;
    cfg.workloads = vec![3];
    cfg.nets = vec![Net::OneD];
    cfg.routings = vec![Routing::Adaptive];
    cfg.placements = vec![Placement::RandomGroups, Placement::RandomRouters];
    let telem = telemetry_setup("fig8", rest, &mut cfg);
    let trace = trace_setup(rest, &mut cfg);
    let records = sweep::run_sweep(&cfg, |label| eprintln!("running {label}…"));
    for r in &records {
        let Some(results) = &r.results else { continue };
        // Routers serving AlexNet (app id 1 in Workload3).
        let topo = dragonfly::Topology::build(r.key.net.config(cfg.profile));
        let apps = workloads::workload(3, cfg.profile, cfg.iters, cfg.scale);
        let alexnet_idx =
            apps.iter().position(|a| a.name() == "AlexNet").expect("AlexNet in W3") as u32;
        // Recompute the layout used by the run to find AlexNet's routers.
        let requests: Vec<placement::JobRequest> =
            apps.iter().map(|a| placement::JobRequest::new(a.name(), a.ranks)).collect();
        let layout = placement::Layout::place(&topo, &requests, r.key.placement, cfg.seed).unwrap();
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
    let analyses = trace_finish(trace, telem.as_ref().map(|(r, _)| r.as_ref()));
    if telem.is_none() && !analyses.is_empty() {
        print!("{}", report::critical_path_block(&analyses, &[]));
    }
    telemetry_finish(telem, &analyses);
}

/// Print the generated Fig-5-style C skeleton of a registered workload.
fn skeleton(rest: &[String]) {
    let name = rest.first().map(|s| s.as_str()).unwrap_or("alexnet");
    let reg = workloads::registry();
    match reg.get(name) {
        Some(s) => print!("{}", codegen::render_c(s)),
        None => {
            eprintln!("unknown skeleton `{name}`; available: {:?}", reg.names());
            std::process::exit(2);
        }
    }
}

/// `union-exp lint` — run `union-lint`'s static analysis without
/// simulating anything. Default: every bundled workload skeleton at the
/// configuration a sweep would instantiate, plus the model-level
/// lookahead check when `--sched par:T:L` or `async:T:L` is given.
/// `--fixture NAME`
/// lints a seeded-bug fixture; `--file PROG.ncptl` lints a DSL program.
/// Exit codes: 0 = clean (infos allowed), 1 = findings at Warning or
/// above, 2 = usage error.
fn lint_cmd(rest: &[String]) {
    use union_lint::{fixtures, LintOptions, Severity};
    let opts = LintOptions::default();
    let mut reports: Vec<(String, union_lint::Report)> = Vec::new();
    if let Some(name) = rest.iter().position(|a| a == "--fixture").and_then(|i| rest.get(i + 1)) {
        match fixtures::lint(name, &opts) {
            Some(r) => reports.push((format!("fixture {name}"), r)),
            None => {
                eprintln!("unknown fixture `{name}`; available: {:?}", fixtures::NAMES);
                std::process::exit(2);
            }
        }
    } else if let Some(path) = rest.iter().position(|a| a == "--file").and_then(|i| rest.get(i + 1))
    {
        let ranks: u32 = opt(rest, "--ranks", 4);
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("union-exp: cannot read `{path}`: {e}");
            std::process::exit(2);
        });
        reports.push((
            format!("{path} ({ranks} ranks)"),
            union_lint::lint_source(&src, path, ranks, &[], &opts),
        ));
    } else {
        let cfg = parse_sweep(rest);
        for kind in workloads::AppKind::ALL {
            let app = workloads::app(kind, cfg.profile, cfg.iters, cfg.scale);
            let args: Vec<&str> = app.args.iter().map(|s| s.as_str()).collect();
            let r = union_lint::lint_skeleton(&app.skeleton, app.ranks, &args, &opts);
            reports.push((format!("{} ({} ranks)", app.name(), app.ranks), r));
        }
        reports.push(("model/lookahead".to_string(), harness::lint::check_sched_lookahead(&cfg)));
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
    if worst >= Some(Severity::Warning) {
        std::process::exit(1);
    }
}

/// Parse `--checkpoint FILE[:EVERY_US]` (default interval 5 µs of
/// virtual time) and `--restore FILE`.
fn parse_checkpoint_flags(
    rest: &[String],
) -> (Option<ross::shard::CheckpointSpec>, Option<std::path::PathBuf>) {
    let checkpoint = rest.iter().position(|a| a == "--checkpoint").map(|i| {
        let Some(spec) = rest.get(i + 1) else {
            eprintln!("union-exp: flag --checkpoint needs a value (FILE[:EVERY_US])");
            std::process::exit(2);
        };
        let (path, every_us) = match spec.rsplit_once(':') {
            Some((p, n)) if !p.is_empty() && n.parse::<u64>().is_ok() => {
                let every = n.parse::<u64>().expect("checked above");
                if every == 0 {
                    eprintln!("union-exp: --checkpoint interval must be >= 1 µs in `{spec}`");
                    std::process::exit(2);
                }
                (p.to_string(), every)
            }
            _ => (spec.clone(), 5),
        };
        ross::shard::CheckpointSpec {
            path: std::path::PathBuf::from(path),
            every: ross::SimDuration::from_us(every_us),
        }
    });
    let restore = rest.iter().position(|a| a == "--restore").map(|i| match rest.get(i + 1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            eprintln!("union-exp: flag --restore needs a value");
            std::process::exit(2);
        }
    });
    (checkpoint, restore)
}

/// Minimal telemetry setup for the single-run commands (`phold`, `mix`):
/// recorder + manifest when `--telemetry FILE` is present.
fn single_run_telemetry(
    cmd: &str,
    rest: &[String],
    seed: u64,
) -> Option<(std::sync::Arc<telemetry::Recorder>, String)> {
    let path = rest.iter().position(|a| a == "--telemetry").and_then(|i| rest.get(i + 1))?.clone();
    let rec = std::sync::Arc::new(telemetry::Recorder::new());
    let sched = opt_str(rest, "--sched", "seq");
    rec.emit(&telemetry::ManifestRecord::new(cmd, rest.to_vec(), seed, sched, &git_describe()));
    Some((rec, path))
}

fn single_run_telemetry_finish(telem: Option<(std::sync::Arc<telemetry::Recorder>, String)>) {
    let Some((rec, path)) = telem else { return };
    rec.emit(&telemetry::PhaseRecord::new("total", rec.elapsed_ns()));
    if let Err(e) = rec.write_jsonl(std::path::Path::new(&path)) {
        eprintln!("union-exp: cannot write telemetry file `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path} ({} records)", rec.len());
}

/// Parse `--live ADDR [--live-hold MS] [--live-interval MS]`.
fn parse_live_flags(rest: &[String]) -> Option<harness::live::LiveOpts> {
    let i = rest.iter().position(|a| a == "--live")?;
    let Some(addr) = rest.get(i + 1) else {
        eprintln!("union-exp: flag --live needs a bind address (e.g. 127.0.0.1:0)");
        std::process::exit(2);
    };
    Some(harness::live::LiveOpts {
        addr: addr.clone(),
        hold_ms: opt(rest, "--live-hold", 0),
        interval_ms: opt(rest, "--live-interval", 250),
    })
}

/// Registry + sampler + exposition endpoint for a single-process
/// `--live` run. [`LivePlane::finish`] is the orderly teardown: final
/// exact snapshot, optional hold for scrapers, endpoint shutdown.
struct LivePlane {
    registry: std::sync::Arc<telemetry::live::MetricsRegistry>,
    sampler: Option<telemetry::live::Sampler>,
    server: telemetry::live::Server,
    hold_ms: u64,
}

fn live_plane_start(lo: &harness::live::LiveOpts) -> LivePlane {
    use telemetry::live::{MetricsRegistry, MetricsSource, Sampler, Server};
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let server =
        Server::bind(&lo.addr, MetricsSource::Registry(registry.clone())).unwrap_or_else(|e| {
            eprintln!("union-exp: cannot bind live endpoint `{}`: {e}", lo.addr);
            std::process::exit(2);
        });
    eprintln!("live endpoint on http://{}/metrics", server.local_addr());
    let sampler = Sampler::start(
        registry.clone(),
        std::time::Duration::from_millis(lo.interval_ms.max(1)),
        harness::live::RING_CAP,
        None,
    );
    LivePlane { registry, sampler: Some(sampler), server, hold_ms: lo.hold_ms }
}

impl LivePlane {
    /// Stop sampling (the stop takes one final snapshot, so the ring's
    /// last entry has exact end-of-run totals), append the ring to the
    /// telemetry stream when one is attached, hold, shut down.
    fn finish(mut self, telemetry: Option<&telemetry::Recorder>) {
        if let Some(s) = self.sampler.take() {
            let ring = s.stop();
            if let Some(rec) = telemetry {
                for snap in &ring {
                    rec.emit(snap);
                }
            }
        }
        if self.hold_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.hold_ms));
        }
        self.server.shutdown();
    }
}

/// Gang aggregator + exposition endpoint on the launcher: workers stream
/// snapshots over the control socket, this endpoint serves the merged
/// view (counter-sum, gauge-max, histogram-merge).
struct GangLivePlane {
    agg: std::sync::Arc<telemetry::live::GangAggregator>,
    server: telemetry::live::Server,
    hold_ms: u64,
}

fn gang_live_start(lo: &harness::live::LiveOpts) -> GangLivePlane {
    use telemetry::live::{GangAggregator, MetricsSource, Server};
    let agg = std::sync::Arc::new(GangAggregator::new());
    let server = Server::bind(&lo.addr, MetricsSource::Gang(agg.clone())).unwrap_or_else(|e| {
        eprintln!("union-exp: cannot bind live endpoint `{}`: {e}", lo.addr);
        std::process::exit(2);
    });
    eprintln!("live endpoint on http://{}/metrics (gang-aggregated)", server.local_addr());
    GangLivePlane { agg, server, hold_ms: lo.hold_ms }
}

impl GangLivePlane {
    /// Record the final merged snapshot, hold for scrapers, shut down.
    fn finish(self, telemetry: Option<&telemetry::Recorder>) {
        if let Some(rec) = telemetry {
            rec.emit(&self.agg.aggregate());
        }
        if self.hold_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.hold_ms));
        }
        self.server.shutdown();
    }
}

/// `union-exp top ADDR|FILE` — one-screen summary of a live run: from a
/// running endpoint's `/snapshot` route, or from the last snapshot
/// record in a JSONL file written by `--telemetry` + `--live`.
fn top_cmd(rest: &[String]) {
    let Some(target) = rest.first() else {
        eprintln!("usage: union-exp top ADDR|FILE");
        std::process::exit(2);
    };
    let snap = if std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target).unwrap_or_else(|e| {
            eprintln!("union-exp: cannot read `{target}`: {e}");
            std::process::exit(2);
        });
        harness::live::last_snapshot_in_jsonl(&text).unwrap_or_else(|| {
            eprintln!("union-exp: no snapshot records in `{target}`");
            std::process::exit(1);
        })
    } else if target.contains(':') {
        harness::live::fetch_snapshot(target).unwrap_or_else(|e| {
            eprintln!("union-exp: {e}");
            std::process::exit(1);
        })
    } else {
        eprintln!("union-exp: `{target}` is neither a readable file nor an ADDR:PORT");
        std::process::exit(2);
    };
    print!("{}", harness::live::render_top(&snap));
}

/// `union-exp phold` — the sharding/checkpoint demonstration model: a
/// deterministic PHOLD whose full state (explicit RNG included) is
/// checkpointable. `--sched shard:N:T:L` runs it across N OS processes;
/// the launcher verifies the merged result against an in-process
/// sequential run unless `--shard-no-verify` is given.
fn phold_cmd(rest: &[String]) {
    use harness::shard::{self, PholdParams, ShardSpec, PHOLD_MIN_DELAY_NS};
    let lps: u32 = opt(rest, "--lps", 16);
    if lps == 0 {
        eprintln!("union-exp: --lps must be >= 1");
        std::process::exit(2);
    }
    let horizon_us: u64 = opt(rest, "--horizon-us", 30);
    let seed: u64 = opt(rest, "--seed", 42);
    let until_us: u64 = opt(rest, "--until-us", 0);
    let queue =
        ross::QueueKind::parse(opt_str(rest, "--queue", ross::QueueKind::default().label()))
            .unwrap_or_else(|e| {
                eprintln!("union-exp: {e}");
                std::process::exit(2);
            });
    let params = PholdParams { lps, horizon_ns: horizon_us * 1_000, seed, queue };
    let until = if until_us == 0 { ross::SimTime::MAX } else { ross::SimTime::from_us(until_us) };
    let (checkpoint, restore) = parse_checkpoint_flags(rest);
    let live_opts = parse_live_flags(rest);
    let sched = opt_str(rest, "--sched", "seq");

    let spec = match ShardSpec::parse(sched) {
        Some(Ok(spec)) => {
            if spec.lookahead_ns > PHOLD_MIN_DELAY_NS {
                eprintln!(
                    "union-exp: phold's minimum event delay is {PHOLD_MIN_DELAY_NS} ns; \
                     a {} ns lookahead window would violate causality",
                    spec.lookahead_ns
                );
                std::process::exit(2);
            }
            Some(spec)
        }
        Some(Err(e)) => {
            eprintln!("union-exp: {e}");
            std::process::exit(2);
        }
        None if sched == "seq" => None,
        None => {
            eprintln!("union-exp: phold supports --sched seq or shard:N:T:L, not `{sched}`");
            std::process::exit(2);
        }
    };

    let Some(spec) = spec else {
        // Single process. Checkpoint/restore still work: they ride on the
        // sharded runner's GVT fence, so route through a 1-shard mesh.
        let mut sim = shard::build_phold(&params);
        let live = live_opts.as_ref().map(live_plane_start);
        if let Some(lp) = &live {
            sim.set_live(Some(lp.registry.clone()));
        }
        let stats = if checkpoint.is_some() || restore.is_some() {
            let mut mesh = ross::shard::loopback_mesh::<u64>(1);
            let mut t = mesh.pop().expect("1-shard mesh");
            let opts = ross::shard::ShardRun {
                threads: 1,
                window: ross::SimDuration::from_ns(PHOLD_MIN_DELAY_NS),
                checkpoint,
                restore,
                codec: Some(&shard::PholdCodec),
                on_checkpoint: None,
            };
            sim.run_sharded(&mut t, opts, until).unwrap_or_else(|e| {
                eprintln!("union-exp: phold: {e}");
                std::process::exit(if matches!(e, ross::shard::ShardError::Format(_)) {
                    2
                } else {
                    1
                });
            })
        } else {
            sim.run_sequential(until)
        };
        println!("phold fingerprint {:016x}", shard::phold_fingerprint(&sim, 0, 1));
        println!("phold committed {}", stats.committed);
        if let Some(lp) = live {
            lp.finish(None);
        }
        return;
    };

    if let Some((me, n, ctrl)) = shard::worker_role() {
        if n != spec.shards {
            eprintln!("union-exp: shard worker env disagrees with --sched {sched}");
            std::process::exit(1);
        }
        let run = || -> Result<harness::shard::WorkerReport, String> {
            let (mut link, listener) = shard::WorkerLink::connect(me, n, &ctrl)?;
            let peers = link.peers()?;
            let rec = std::sync::Arc::new(telemetry::Recorder::new());
            // Workers never bind an endpoint: they stream snapshots to
            // the launcher over the control socket instead.
            let live_reg = live_opts
                .as_ref()
                .map(|_| std::sync::Arc::new(telemetry::live::MetricsRegistry::new()));
            let sampler = live_opts.as_ref().zip(live_reg.as_ref()).map(|(lo, reg)| {
                telemetry::live::Sampler::start(
                    reg.clone(),
                    std::time::Duration::from_millis(lo.interval_ms.max(1)),
                    harness::live::RING_CAP,
                    Some(link.snapshot_sink()),
                )
            });
            let out = shard::phold_worker_run(
                me,
                n,
                listener,
                &peers,
                &params,
                &spec,
                checkpoint.clone(),
                restore.clone(),
                until,
                Some(rec.clone()),
                live_reg,
            );
            // Stop before reporting: the stop tick streams the exact
            // end-of-run snapshot ahead of the report line.
            if let Some(s) = sampler {
                s.stop();
            }
            let report = match out {
                Ok((fingerprint, stats)) => harness::shard::WorkerReport {
                    shard: me as u64,
                    ok: true,
                    error: None,
                    fingerprint,
                    committed: stats.committed,
                    cross_shard_events: stats.cross_shard_events,
                    rounds: stats.rounds,
                    telemetry: rec.lines(),
                },
                Err(e) => harness::shard::WorkerReport {
                    shard: me as u64,
                    ok: false,
                    error: Some(e.to_string()),
                    fingerprint: 0,
                    committed: 0,
                    cross_shard_events: 0,
                    rounds: 0,
                    telemetry: rec.lines(),
                },
            };
            link.report(&report);
            Ok(report)
        };
        match run() {
            Ok(r) if r.ok => std::process::exit(0),
            Ok(_) => std::process::exit(1),
            Err(e) => {
                eprintln!("union-exp: shard {me}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Launcher.
    let telem = single_run_telemetry("phold", rest, seed);
    let gang_live = live_opts.as_ref().map(gang_live_start);
    let outcome = harness::shard::launch_gang(
        &spec,
        telem.as_ref().map(|(r, _)| r.as_ref()),
        gang_live.as_ref().map(|g| g.agg.as_ref()),
    )
    .unwrap_or_else(|e| {
        eprintln!("union-exp: {e}");
        std::process::exit(1);
    });
    for r in &outcome.reports {
        eprintln!(
            "shard {}: committed {} cross-shard {} rounds {}",
            r.shard, r.committed, r.cross_shard_events, r.rounds
        );
    }
    println!("phold fingerprint {:016x}", outcome.fingerprint);
    println!("phold committed {}", outcome.committed);
    println!("phold cross-shard events {}", outcome.cross_shard_events);
    if !has(rest, "--shard-no-verify") {
        let mut sim = shard::build_phold(&params);
        let stats = sim.run_sequential(until);
        let want = shard::phold_fingerprint(&sim, 0, 1);
        // A restored run only commits the events after the cut; the cut's
        // metadata records how many the interrupted run had committed.
        let base_committed = match &restore {
            Some(path) => {
                let meta = ross::shard::checkpoint::read_file(path)
                    .and_then(|b| ross::shard::checkpoint::parse_file(&b).map(|(m, _)| m));
                match meta {
                    Ok(m) => m.committed,
                    Err(e) => {
                        eprintln!("union-exp: cannot re-read restore file for verify: {e}");
                        std::process::exit(1);
                    }
                }
            }
            None => 0,
        };
        if want == outcome.fingerprint && stats.committed == outcome.committed + base_committed {
            println!("phold verify sequential match");
        } else {
            eprintln!(
                "union-exp: sharded run diverged from sequential \
                 (fingerprint {:016x} vs {:016x}, committed {}+{} vs {})",
                outcome.fingerprint, want, outcome.committed, base_committed, stats.committed
            );
            std::process::exit(1);
        }
    }
    if let Some(g) = gang_live {
        g.finish(telem.as_ref().map(|(r, _)| r.as_ref()));
    }
    single_run_telemetry_finish(telem);
}

/// The model parameters of one `union-exp mix` run; every shard worker
/// rebuilds the identical simulation from these.
struct MixSetup {
    workload: u8,
    profile: Profile,
    iters: i64,
    scale: i64,
    seed: u64,
    queue: ross::QueueKind,
    net: Net,
    placement: Placement,
    routing: Routing,
}

fn parse_mix(rest: &[String]) -> MixSetup {
    let profile = match opt_str(rest, "--profile", "quick") {
        "paper" => Profile::Paper,
        _ => Profile::Quick,
    };
    MixSetup {
        workload: opt(rest, "--workload", 3),
        profile,
        iters: opt(rest, "--iters", 2),
        scale: opt(rest, "--scale", if profile == Profile::Paper { 1 } else { 16 }),
        seed: opt(rest, "--seed", 42),
        queue: ross::QueueKind::parse(opt_str(rest, "--queue", ross::QueueKind::default().label()))
            .unwrap_or_else(|e| {
                eprintln!("union-exp: {e}");
                std::process::exit(2);
            }),
        net: match opt_str(rest, "--net", "1d") {
            "1d" | "1D" => Net::OneD,
            "2d" | "2D" => Net::TwoD,
            other => {
                eprintln!("union-exp: unknown net `{other}` (expected 1d or 2d)");
                std::process::exit(2);
            }
        },
        placement: match opt_str(rest, "--placement", "RG") {
            "RN" => Placement::RandomNodes,
            "RR" => Placement::RandomRouters,
            "RG" => Placement::RandomGroups,
            other => {
                eprintln!("union-exp: unknown placement `{other}` (expected RN, RR, or RG)");
                std::process::exit(2);
            }
        },
        routing: match opt_str(rest, "--routing", "ADP") {
            "MIN" => Routing::Minimal,
            "ADP" => Routing::Adaptive,
            other => {
                eprintln!("union-exp: unknown routing `{other}` (expected MIN or ADP)");
                std::process::exit(2);
            }
        },
    }
}

fn build_mix(
    m: &MixSetup,
    telemetry: Option<std::sync::Arc<telemetry::Recorder>>,
) -> codes::CodesSim {
    let apps = workloads::workload(m.workload, m.profile, m.iters, m.scale);
    let mut b = codes::SimulationBuilder::new(m.net.config(m.profile))
        .routing(m.routing)
        .placement(m.placement)
        .seed(m.seed)
        .queue(m.queue);
    if let Some(rec) = telemetry {
        b = b.telemetry(rec);
    }
    for a in &apps {
        b = b.job(
            a.name(),
            a.vms(m.seed).unwrap_or_else(|e| {
                eprintln!("union-exp: {e}");
                std::process::exit(2);
            }),
        );
    }
    b.build().unwrap_or_else(|e| {
        eprintln!("union-exp: {e}");
        std::process::exit(2);
    })
}

/// `union-exp mix` — run ONE Union workload mix (no sweep) under `seq`
/// or, with `--sched shard:N:T:L`, across N OS processes; the launcher
/// verifies the merged state fingerprint against an in-process
/// sequential run of the same model.
fn mix_cmd(rest: &[String]) {
    use harness::shard::{self, ShardSpec};
    if has(rest, "--checkpoint") || has(rest, "--restore") {
        eprintln!(
            "union-exp: checkpoint/restart is supported for the phold model only \
             (CODES rank-VM state has no snapshot codec)"
        );
        std::process::exit(2);
    }
    let m = parse_mix(rest);
    let until_us: u64 = opt(rest, "--until-us", 0);
    let until = if until_us == 0 { ross::SimTime::MAX } else { ross::SimTime::from_us(until_us) };
    let live_opts = parse_live_flags(rest);
    let sched = opt_str(rest, "--sched", "seq");

    let spec = match ShardSpec::parse(sched) {
        Some(Ok(spec)) => Some(spec),
        Some(Err(e)) => {
            eprintln!("union-exp: {e}");
            std::process::exit(2);
        }
        None if sched == "seq" => None,
        None => {
            eprintln!("union-exp: mix supports --sched seq or shard:N:T:L, not `{sched}`");
            std::process::exit(2);
        }
    };

    let Some(spec) = spec else {
        let telem = single_run_telemetry("mix", rest, m.seed);
        let mut sim = build_mix(&m, telem.as_ref().map(|(r, _)| r.clone()));
        let live = live_opts.as_ref().map(live_plane_start);
        if let Some(lp) = &live {
            sim.set_live(Some(lp.registry.clone()));
        }
        let results = sim.run(Scheduler::Sequential, until);
        for a in &results.apps {
            if a.failed() {
                eprintln!("union-exp: {}: MPI protocol failure: {}", a.name, a.errors.join("; "));
                std::process::exit(1);
            }
            eprintln!(
                "app {}: {} ranks, done={}, bytes {}",
                a.name,
                a.finished_at_ns.len(),
                a.all_done(),
                a.bytes_sent
            );
        }
        println!("mix fingerprint {:016x}", sim.state_fingerprint());
        println!("mix committed {}", results.stats.committed);
        if let Some(lp) = live {
            lp.finish(telem.as_ref().map(|(r, _)| r.as_ref()));
        }
        single_run_telemetry_finish(telem);
        return;
    };

    // Validate the lookahead window against the model before spawning
    // anything. The check mirrors the runtime exactly: shards own whole
    // partition blocks, so only cross-shard edges bind the window — plus
    // intra-shard cross-block edges when each shard runs several worker
    // threads. (A flat par-style check would spuriously reject windows
    // that `shard:N:1:L` handles fine.)
    {
        let mut cfg = SweepConfig::quick();
        cfg.profile = m.profile;
        cfg.iters = m.iters;
        cfg.scale = m.scale;
        cfg.seed = m.seed;
        cfg.queue = m.queue;
        cfg.nets = vec![m.net];
        cfg.placements = vec![m.placement];
        cfg.routings = vec![m.routing];
        cfg.workloads = vec![m.workload];
        cfg.baselines = false;
        let r = harness::lint::check_shard_lookahead(
            &cfg,
            spec.shards,
            spec.threads,
            spec.lookahead_ns,
        );
        if !r.is_empty() {
            eprint!("{r}");
            if r.has_errors() && !has(rest, "--allow-lint") {
                eprintln!(
                    "union-exp: shard lookahead rejected by union-lint \
                     (use --allow-lint to override)"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some((me, n, ctrl)) = shard::worker_role() {
        if n != spec.shards {
            eprintln!("union-exp: shard worker env disagrees with --sched {sched}");
            std::process::exit(1);
        }
        let run = || -> Result<harness::shard::WorkerReport, String> {
            let (mut link, listener) = shard::WorkerLink::connect(me, n, &ctrl)?;
            let peers = link.peers()?;
            let rec = std::sync::Arc::new(telemetry::Recorder::new());
            let mut sim = build_mix(&m, Some(rec.clone()));
            let live_reg = live_opts
                .as_ref()
                .map(|_| std::sync::Arc::new(telemetry::live::MetricsRegistry::new()));
            let sampler = live_opts.as_ref().zip(live_reg.as_ref()).map(|(lo, reg)| {
                telemetry::live::Sampler::start(
                    reg.clone(),
                    std::time::Duration::from_millis(lo.interval_ms.max(1)),
                    harness::live::RING_CAP,
                    Some(link.snapshot_sink()),
                )
            });
            sim.set_live(live_reg);
            let mut transport = ross::shard::TcpTransport::mesh(
                me,
                listener,
                &peers,
                std::sync::Arc::new(codes::CodesEventCodec),
            )
            .map_err(|e| e.to_string())?;
            let out = sim.run_sharded(
                &mut transport,
                spec.threads,
                ross::SimDuration::from_ns(spec.lookahead_ns),
                until,
            );
            // Exact final snapshot streams before the report line.
            if let Some(s) = sampler {
                s.stop();
            }
            let report = match out {
                Ok(stats) => harness::shard::WorkerReport {
                    shard: me as u64,
                    ok: true,
                    error: None,
                    fingerprint: sim.shard_fingerprint(me, n),
                    committed: stats.committed,
                    cross_shard_events: stats.cross_shard_events,
                    rounds: stats.rounds,
                    telemetry: rec.lines(),
                },
                Err(e) => harness::shard::WorkerReport {
                    shard: me as u64,
                    ok: false,
                    error: Some(e.to_string()),
                    fingerprint: 0,
                    committed: 0,
                    cross_shard_events: 0,
                    rounds: 0,
                    telemetry: rec.lines(),
                },
            };
            link.report(&report);
            Ok(report)
        };
        match run() {
            Ok(r) if r.ok => std::process::exit(0),
            Ok(_) => std::process::exit(1),
            Err(e) => {
                eprintln!("union-exp: shard {me}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Launcher.
    let telem = single_run_telemetry("mix", rest, m.seed);
    let gang_live = live_opts.as_ref().map(gang_live_start);
    let outcome = harness::shard::launch_gang(
        &spec,
        telem.as_ref().map(|(r, _)| r.as_ref()),
        gang_live.as_ref().map(|g| g.agg.as_ref()),
    )
    .unwrap_or_else(|e| {
        eprintln!("union-exp: {e}");
        std::process::exit(1);
    });
    for r in &outcome.reports {
        eprintln!(
            "shard {}: committed {} cross-shard {} rounds {}",
            r.shard, r.committed, r.cross_shard_events, r.rounds
        );
    }
    println!("mix fingerprint {:016x}", outcome.fingerprint);
    println!("mix committed {}", outcome.committed);
    println!("mix cross-shard events {}", outcome.cross_shard_events);
    if !has(rest, "--shard-no-verify") {
        let mut sim = build_mix(&m, None);
        let results = sim.run(Scheduler::Sequential, until);
        let want = sim.state_fingerprint();
        if want == outcome.fingerprint && results.stats.committed == outcome.committed {
            println!("mix verify sequential match");
        } else {
            eprintln!(
                "union-exp: sharded run diverged from sequential \
                 (fingerprint {:016x} vs {:016x}, committed {} vs {})",
                outcome.fingerprint, want, outcome.committed, results.stats.committed
            );
            std::process::exit(1);
        }
    }
    if let Some(g) = gang_live {
        g.finish(telem.as_ref().map(|(r, _)| r.as_ref()));
    }
    single_run_telemetry_finish(telem);
}

fn dump_json(path: &str, records: &[sweep::RunRecord]) {
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
    std::fs::write(path, serde_json::to_string_pretty(&out).unwrap()).unwrap();
    eprintln!("wrote {path}");
}
