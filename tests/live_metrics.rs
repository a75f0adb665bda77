//! End-to-end tests of the live metrics plane: a shard gang run with
//! `--live` must expose ONE aggregated endpoint whose gang-wide
//! `events_committed` equals the merged end-of-run total exactly, the
//! exposition formats must parse, `union-exp top` must render from both
//! an endpoint and a snapshot JSONL file, and the CLI's exit-2 paths
//! must keep stdout clean (diagnostics go to stderr).

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_union-exp")
}

fn run(args: &[&str]) -> Output {
    Command::new(exe()).args(args).output().expect("spawn union-exp")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("union-live-{}-{name}", std::process::id()))
}

/// Pull `prefix N` off a stdout dump.
fn number_after(text: &str, prefix: &str) -> Option<u64> {
    text.lines().find_map(|l| l.strip_prefix(prefix)?.trim().parse().ok())
}

/// The acceptance test: a 4-shard PHOLD gang with `--live` serves one
/// aggregated endpoint; after the run the endpoint's gang-wide
/// `events_committed` matches the merged total exactly, and both
/// exposition formats are well-formed.
#[test]
fn gang_endpoint_matches_merged_total_exactly() {
    let mut child = Command::new(exe())
        .args([
            "phold",
            "--lps",
            "32",
            "--horizon-us",
            "200",
            "--sched",
            "shard:4:2",
            "--shard-no-verify",
            "--live",
            "127.0.0.1:0",
            "--live-hold",
            "30000",
            "--live-interval",
            "25",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gang");

    // The launcher prints the bound address to stderr before spawning
    // workers, then the run output to stdout before the hold window.
    let mut errs = std::io::BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(errs.read_line(&mut line).expect("read stderr") > 0, "endpoint line never came");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split('/').next().unwrap().trim().to_string();
        }
    };
    let mut outs = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
    let committed = loop {
        let mut line = String::new();
        assert!(outs.read_line(&mut line).expect("read stdout") > 0, "committed line never came");
        if let Some(n) = number_after(&line, "phold committed") {
            break n;
        }
    };

    // JSON snapshot: gang-wide committed equals the merged total.
    let snap = harness::live::fetch_snapshot(&addr).expect("snapshot");
    assert_eq!(snap.counter_total("events_committed"), Some(committed), "endpoint != merged");
    assert!(snap.counter_total("cross_shard_events").unwrap_or(0) > 0, "gang saw no traffic?");
    assert!(harness::live::snapshot_buckets_valid(&snap));
    // In-flight quantiles are served from merged histograms.
    let h = snap.histogram("commit_batch").expect("commit_batch histogram");
    assert!(h.count > 0);
    assert!(h.quantile(0.5) <= h.max);

    // Prometheus text: the counter line carries the same exact value.
    let prom = telemetry::live::http_get(&addr, "/metrics").expect("metrics");
    assert!(prom.contains("# TYPE union_events_committed counter"), "{prom}");
    assert!(prom.contains(&format!("union_events_committed {committed}")), "{prom}");

    // `top ADDR` renders the live table.
    let top = run(&["top", &addr]);
    assert!(top.status.success(), "{}", stderr(&top));
    assert!(stdout(&top).contains("events_committed"), "{}", stdout(&top));

    child.kill().ok();
    child.wait().ok();
}

/// `--telemetry` + `--live` on a gang run lands the final aggregated
/// snapshot in the JSONL file, and `top FILE` renders it.
#[test]
fn top_renders_final_snapshot_from_telemetry_file() {
    let tf = temp_path("gang.jsonl");
    std::fs::remove_file(&tf).ok();
    let tf_s = tf.to_str().unwrap().to_string();
    let gang = run(&[
        "phold",
        "--lps",
        "16",
        "--horizon-us",
        "100",
        "--sched",
        "shard:2:1",
        "--shard-no-verify",
        "--live",
        "127.0.0.1:0",
        "--live-interval",
        "25",
        "--telemetry",
        &tf_s,
    ]);
    assert!(gang.status.success(), "{}", stderr(&gang));
    let committed = number_after(&stdout(&gang), "phold committed").expect("committed line");

    let text = std::fs::read_to_string(&tf).expect("telemetry file");
    let snap = harness::live::last_snapshot_in_jsonl(&text).expect("snapshot in JSONL");
    assert_eq!(snap.counter_total("events_committed"), Some(committed));

    let top = run(&["top", &tf_s]);
    assert!(top.status.success(), "{}", stderr(&top));
    let out = stdout(&top);
    assert!(out.contains("events_committed"), "{out}");
    assert!(out.contains("commit_batch"), "{out}");
    std::fs::remove_file(&tf).ok();
}

/// Single-process `--live`: the sequential scheduler feeds the same
/// registry, and the endpoint total matches the run's committed count.
#[test]
fn sequential_live_endpoint_matches_run() {
    let mut child = Command::new(exe())
        .args([
            "phold",
            "--lps",
            "16",
            "--horizon-us",
            "500",
            "--live",
            "127.0.0.1:0",
            "--live-hold",
            "30000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn phold");
    let mut errs = std::io::BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(errs.read_line(&mut line).expect("read stderr") > 0, "endpoint line never came");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split('/').next().unwrap().trim().to_string();
        }
    };
    let mut outs = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
    let committed = loop {
        let mut line = String::new();
        assert!(outs.read_line(&mut line).expect("read stdout") > 0, "committed line never came");
        if let Some(n) = number_after(&line, "phold committed") {
            break n;
        }
    };
    let snap = harness::live::fetch_snapshot(&addr).expect("snapshot");
    assert_eq!(snap.counter_total("events_committed"), Some(committed));
    child.kill().ok();
    child.wait().ok();
}

/// Exit-2 (usage error) paths must never write to stdout: scripts pipe
/// stdout, and diagnostics belong on stderr.
#[test]
fn exit2_paths_keep_stdout_clean() {
    let cases: &[&[&str]] = &[
        &["trace"],
        &["trace", "--analyze", "/nonexistent/trace.json"],
        &["lint", "--fixture", "no-such-fixture"],
        &["lint", "--file", "/nonexistent/prog.ncptl"],
        &["phold", "--lps", "0"],
        &["phold", "--sched", "bogus:1:2:3"],
        &["top"],
        &["no-such-command"],
    ];
    for args in cases {
        let o = run(args);
        assert_eq!(o.status.code(), Some(2), "args {args:?}: {}", stderr(&o));
        assert!(
            o.stdout.is_empty(),
            "args {args:?} wrote to stdout on a usage error: {}",
            stdout(&o)
        );
        assert!(!o.stderr.is_empty(), "args {args:?}: exit 2 with no diagnostic");
    }
}

/// An analyzable-but-empty trace is a diagnostic on stderr, success on
/// exit, and a clean stdout.
#[test]
fn empty_trace_diagnostic_goes_to_stderr() {
    let tf = temp_path("empty-trace.json");
    std::fs::write(&tf, "{\"traceEvents\":[]}").expect("write trace");
    let o = run(&["trace", "--analyze", tf.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(o.stdout.is_empty(), "diagnostic leaked to stdout: {}", stdout(&o));
    assert!(stderr(&o).contains("no runs recorded"), "{}", stderr(&o));
    std::fs::remove_file(&tf).ok();
}
