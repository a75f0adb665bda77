//! End-to-end tests of the `union-exp` multi-process shard launcher: a
//! gang of real worker processes over TCP must reproduce the sequential
//! fingerprint, and bad command lines must end in exit code 1 or 2 and a
//! clear message — never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_union-exp")
}

fn phold(args: &[&str]) -> Output {
    Command::new(exe()).arg("phold").args(args).output().expect("spawn union-exp")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// The `phold fingerprint …` line, which every successful run prints.
fn fingerprint_line(o: &Output) -> String {
    stdout(o)
        .lines()
        .find(|l| l.starts_with("phold fingerprint "))
        .unwrap_or_else(|| panic!("no fingerprint line in:\n{}{}", stdout(o), stderr(o)))
        .to_string()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("union-shard-cli-{}-{name}", std::process::id()))
}

#[test]
fn gang_matches_sequential() {
    let seq = phold(&[]);
    assert!(seq.status.success(), "sequential run failed: {}", stderr(&seq));
    let want = fingerprint_line(&seq);

    // Two real worker processes over TCP; the launcher's own verify pass
    // re-runs sequentially.
    let gang = phold(&["--sched", "shard:2:1"]);
    assert!(gang.status.success(), "gang run failed: {}", stderr(&gang));
    assert_eq!(fingerprint_line(&gang), want, "gang fingerprint diverged");
    assert!(stdout(&gang).contains("phold verify sequential match"));
}

/// Every bad command line of `tests/bad_input.txt` ends in its expected
/// exit code with a one-line `union-exp: …` message naming the problem —
/// never 0, never a panic backtrace (exit 101).
#[test]
fn bad_input_is_a_message_and_an_exit_code_never_a_panic() {
    let table = include_str!("bad_input.txt");
    let rows: Vec<&str> = table.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(rows.len() >= 25, "bad-input table went missing");
    for row in rows {
        let cols: Vec<&str> = row.splitn(3, " | ").collect();
        let (code, needle, args) = (cols[0].parse::<i32>().unwrap(), cols[1], cols[2]);
        let out = Command::new(exe()).args(args.split_whitespace()).output().expect("spawn");
        let msg = stderr(&out);
        assert_eq!(out.status.code(), Some(code), "`{args}`: {msg}");
        assert!(!msg.contains("panicked"), "`{args}` panicked: {msg}");
        assert!(msg.contains("union-exp: "), "`{args}` message lacks the prefix: {msg}");
        assert!(msg.to_lowercase().contains(needle), "`{args}` does not mention {needle:?}: {msg}");
    }
}

/// `mix` runs under every in-process scheduler the sweeps accept, and as
/// one shard of two threads, with the sequential result. All three run
/// at the model's block window.
#[test]
fn mix_under_par_matches_sequential() {
    let mix = |sched: &str| {
        let args = ["mix", "--workload", "3", "--iters", "1", "--scale", "64", "--sched", sched];
        let out = Command::new(exe()).args(args).output().expect("spawn union-exp");
        assert!(out.status.success(), "mix --sched {sched} failed: {}", stderr(&out));
        let lines: Vec<String> = stdout(&out).lines().map(str::to_string).collect();
        assert!(lines[0].starts_with("mix fingerprint "), "{lines:?}");
        assert!(lines[1].starts_with("mix committed "), "{lines:?}");
        lines
    };
    let seq = mix("seq");
    assert_eq!(mix("par:2"), seq);
    assert_eq!(mix("async:2"), seq);
    // A one-shard gang runs the round loop; its launcher prints the
    // merged fingerprint, then verifies it against `seq`.
    let shard = mix("shard:1:2");
    assert_eq!(shard[..2], seq[..2]);
    assert!(shard.iter().any(|l| l == "mix verify sequential match"), "{shard:?}");
}

/// Single-process `phold --telemetry` writes the manifest (whose config
/// is the serialized spec), the scheduler record and the total phase.
#[test]
fn single_process_phold_writes_telemetry() {
    let tf = temp_path("phold.jsonl");
    std::fs::remove_file(&tf).ok();
    let out = phold(&["--telemetry", tf.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&tf).expect("telemetry file written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"record\":\"manifest\""), "{text}");
    assert!(lines[0].contains("\"model\":\"phold\"") && lines[0].contains("\"lps\":16"), "{text}");
    assert!(lines.iter().any(|l| l.contains("\"record\":\"scheduler\"")), "{text}");
    assert!(lines.last().unwrap().contains("\"phase\":\"total\""), "{text}");
    std::fs::remove_file(&tf).ok();
}

#[test]
fn bad_shard_specs_are_usage_errors() {
    for (args, needle) in [
        (vec!["--sched", "shard:0:1"], "shard"),
        (vec!["--sched", "shard:2"], "shard:<shards>:<threads>"),
        (vec!["--sched", "shard:2:1:50"], "shard:<shards>:<threads>"),
        (vec!["--sched", "optimistic"], "phold supports"),
    ] {
        let out = phold(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).to_lowercase().contains(needle),
            "{args:?} message does not mention {needle:?}: {}",
            stderr(&out)
        );
    }
}
