//! End-to-end tests of the live metrics plane: a run with `--live` on
//! more than one worker must expose an endpoint whose `events_committed`
//! equals the run's end-of-run total exactly, the exposition formats must
//! parse, `union-exp top` must render from both an endpoint and a
//! snapshot JSONL file, a scraper that trickles its request must not keep
//! the run from exiting, and the CLI's exit-2 paths must keep stdout clean
//! (diagnostics go to stderr).

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

/// The mix `--live` runs use: W3 at a small scale on two workers.
const PAR_MIX: [&str; 9] =
    ["mix", "--workload", "3", "--iters", "1", "--scale", "64", "--sched", "par:2"];

/// The acceptance test: a `par:2` mix with `--live` serves its endpoint;
/// after the run the endpoint's `events_committed` matches the run's
/// committed total exactly, and both exposition formats are well-formed.
#[test]
fn parallel_endpoint_matches_the_run_total_exactly() {
    let mut child = Command::new(exe())
        .args(PAR_MIX)
        .args(["--live", "127.0.0.1:0", "--live-hold", "30000", "--live-interval", "25"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mix");

    // The run prints the bound address to stderr before it starts, then
    // the run output to stdout before the hold window.
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
        if let Some(n) = number_after(&line, "mix committed") {
            break n;
        }
    };

    // JSON snapshot: the endpoint's committed equals the run's.
    let snap = harness::live::fetch_snapshot(&addr).expect("snapshot");
    assert_eq!(snap.counter_total("events_committed"), Some(committed), "endpoint != run");
    assert!(snap.counter_total("remote_events").unwrap_or(0) > 0, "no cross-worker traffic?");
    assert!(harness::live::snapshot_buckets_valid(&snap));
    // Quantiles are served from the registry's histograms.
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

/// `--telemetry` + `--live` on a `par:2` run lands the final snapshot in
/// the JSONL file, and `top FILE` renders it.
#[test]
fn top_renders_final_snapshot_from_telemetry_file() {
    let tf = temp_path("par.jsonl");
    std::fs::remove_file(&tf).ok();
    let tf_s = tf.to_str().unwrap().to_string();
    let live = ["--live", "127.0.0.1:0", "--live-interval", "25", "--telemetry", &tf_s];
    let par = run(&[&PAR_MIX[..], &live[..]].concat());
    assert!(par.status.success(), "{}", stderr(&par));
    let committed = number_after(&stdout(&par), "mix committed").expect("committed line");

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

/// A scraper that connects during `--live-hold` and sends one byte every
/// 100 ms without ever ending its request is cut off at the endpoint's
/// request deadline: the run still exits soon after its hold window.
#[test]
fn a_trickling_scraper_cannot_hold_the_run_open() {
    let t0 = std::time::Instant::now();
    let mut child = Command::new(exe())
        .args(["phold", "--lps", "16", "--horizon-us", "200"])
        .args(["--live", "127.0.0.1:0", "--live-hold", "1000"])
        .stdout(Stdio::null())
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
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop = std::sync::Arc::clone(&done);
    let trickler = std::thread::spawn(move || {
        use std::io::Write;
        let Ok(mut stream) = std::net::TcpStream::connect(&addr) else { return };
        // Up to 20 s of trickling, far past the hold and the deadline.
        for _ in 0..200 {
            if stop.load(std::sync::atomic::Ordering::Relaxed) || stream.write_all(b"G").is_err() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
    });
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on phold") {
            break Some(status);
        }
        if t0.elapsed() > std::time::Duration::from_secs(10) {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    trickler.join().unwrap();
    let status = status.expect("a trickling scraper kept the run from exiting within 10 s");
    assert!(status.success(), "{status}");
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
