//! Observability contract for the causal tracer: the recorded causality
//! is deterministic per seed and identical across schedulers, the Chrome
//! export is valid JSON with monotonic timestamps per track, and the
//! critical-path analysis obeys its invariants on real traces.

use codes::SimulationBuilder;
use dragonfly::{DragonflyConfig, Routing};
use harness::{analyze, causality_fingerprint, parse_chrome, TraceRun};
use placement::Placement;
use ross::{Scheduler, SimDuration, SimTime, Tracer};
use std::sync::Arc;
use workloads::{app, AppKind, Profile};

/// Run the tiny two-job mix under `sched` with a fresh tracer at the
/// given sample rate, returning the parsed trace runs and raw JSON.
fn traced_run(sched: Scheduler, rate: u32) -> (Vec<TraceRun>, String) {
    let tracer = Arc::new(Tracer::new(rate));
    let mut b = SimulationBuilder::new(DragonflyConfig::tiny_1d())
        .routing(Routing::Adaptive)
        .placement(Placement::RandomGroups)
        .seed(11)
        .tracer(tracer.clone());
    for (kind, ranks) in [(AppKind::UniformRandom, 16), (AppKind::NearestNeighbor, 8)] {
        let mut cfg = app(kind, Profile::Quick, 1, 64);
        cfg.ranks = ranks;
        if kind == AppKind::NearestNeighbor {
            cfg.args.extend(["--nx", "2", "--ny", "2", "--nz", "2"].iter().map(|s| s.to_string()));
        }
        b = b.job(cfg.name(), cfg.vms(1).unwrap());
    }
    let mut sim = b.build().unwrap();
    let r = sim.run(sched, SimTime::MAX);
    assert!(r.stats.committed > 0, "empty run under {sched:?}");
    let json = tracer.to_chrome_json();
    let runs = parse_chrome(&json).expect("export must parse");
    assert_eq!(runs.len(), 1, "one scheduler run traced");
    (runs, json)
}

/// `par:3`: CODES runs it at the model's block window (the lookahead
/// field is unused).
fn par3() -> Scheduler {
    Scheduler::ConservativeParallel { threads: 3, lookahead: SimDuration::ZERO }
}

/// `async:3`, at the same block window.
fn async3() -> Scheduler {
    Scheduler::ConservativeAsync { threads: 3, lookahead: SimDuration::ZERO }
}

/// Same seed + same scheduler ⇒ byte-identical causal structure, and the
/// committed causality must not depend on the scheduler or sample rate
/// (durations are sampled wall-clock noise and are excluded by design).
#[test]
fn causality_fingerprint_is_deterministic_and_scheduler_independent() {
    let (seq_a, _) = traced_run(Scheduler::Sequential, 1);
    let (seq_b, _) = traced_run(Scheduler::Sequential, 1);
    let reference = causality_fingerprint(&seq_a[0]);
    assert_eq!(reference, causality_fingerprint(&seq_b[0]), "same seed, same fingerprint");

    let (sampled, _) = traced_run(Scheduler::Sequential, 64);
    assert_eq!(reference, causality_fingerprint(&sampled[0]), "sample rate changed causality");

    for sched in [par3(), async3()] {
        let (runs, _) = traced_run(sched, 1);
        assert_eq!(
            reference,
            causality_fingerprint(&runs[0]),
            "committed causality under {sched:?} differs from sequential"
        );
    }
}

/// The Chrome export must be one valid JSON object whose `traceEvents`
/// have non-decreasing `ts` within every (pid, tid) track — the property
/// Perfetto relies on to lay out tracks without re-sorting.
#[test]
fn chrome_export_is_valid_json_with_monotonic_tracks() {
    let (_, json) = traced_run(par3(), 4);
    let v: serde::Value = serde_json::from_str(&json).expect("chrome export must be valid JSON");
    let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    let mut complete = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        if ph != "X" {
            continue;
        }
        complete += 1;
        let pid = ev.get("pid").and_then(|p| p.as_u64()).expect("pid");
        let tid = ev.get("tid").and_then(|t| t.as_u64()).expect("tid");
        let ts = ev.get("ts").and_then(|t| t.as_f64()).expect("ts");
        let dur = ev.get("dur").and_then(|d| d.as_f64()).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0, "negative ts/dur");
        let prev = last.insert((pid, tid), ts);
        if let Some(prev) = prev {
            assert!(ts >= prev, "track ({pid},{tid}) went backwards: {prev} -> {ts}");
        }
    }
    assert!(complete > 0, "no complete events exported");
}

/// Critical-path invariants on real traces from every scheduler: the
/// path is no longer than the committed event count, no heavier than the
/// committed work, and the speedup bound is at least 1.
#[test]
fn critical_path_invariants_hold_on_real_traces() {
    for sched in [Scheduler::Sequential, par3(), async3()] {
        let (runs, _) = traced_run(sched, 1);
        let a = analyze(&runs[0]);
        let violations = a.check_invariants();
        assert!(violations.is_empty(), "{sched:?}: {violations:?}");
        assert!(a.critical_path_len <= a.committed_events, "{sched:?} path too long");
        assert!(a.critical_path_ns <= a.committed_work_ns, "{sched:?} path too heavy");
        assert!(a.speedup_bound >= 1.0, "{sched:?} bound below 1");
    }
}

/// Satellite: malformed numeric flag values must exit with code 2 and a
/// clear message, not silently fall back to the default.
#[test]
fn malformed_numeric_flag_exits_two() {
    let cases: &[&[&str]] = &[
        &["fig7", "--profile", "quick", "--iters", "abc"],
        &["fig7", "--profile", "quick", "--seed", "1.5"],
        &["table1", "--ranks", "many"],
        &["fig7", "--profile", "quick", "--trace"],
    ];
    for args in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_union-exp"))
            .args(*args)
            .output()
            .expect("spawn union-exp");
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("union-exp"), "{args:?} stderr lacks context: {err}");
    }
}

/// The retired YAWNS spelling is a usage error that names its
/// replacement, not a silently accepted alias.
#[test]
fn retired_cons_sched_exits_two_naming_par() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_union-exp"))
        .args(["fig7", "--profile", "quick", "--sched", "cons:4"])
        .output()
        .expect("spawn union-exp");
    assert_eq!(out.status.code(), Some(2), "cons:4 should exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("union-exp") && err.contains("use par:4"), "unhelpful message: {err}");
}
