//! End-to-end tests of the `union-exp` command line: bad command lines
//! end in exit code 1 or 2 and a clear message — never a panic — and the
//! simulating commands print the sequential result under every scheduler
//! they accept.

use std::path::PathBuf;
use std::process::{Command, Output};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_union-exp")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("union-cli-{}-{name}", std::process::id()))
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

/// `mix` runs under every scheduler the sweeps accept with the sequential
/// result, each at the model's block window.
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
}

/// `phold --telemetry` writes the manifest (whose config is the
/// serialized spec), the scheduler record and the total phase.
#[test]
fn single_process_phold_writes_telemetry() {
    let tf = temp_path("phold.jsonl");
    std::fs::remove_file(&tf).ok();
    let out = Command::new(exe())
        .args(["phold", "--telemetry", tf.to_str().unwrap()])
        .output()
        .expect("spawn union-exp");
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&tf).expect("telemetry file written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"record\":\"manifest\""), "{text}");
    assert!(lines[0].contains("\"model\":\"phold\"") && lines[0].contains("\"lps\":16"), "{text}");
    assert!(lines.iter().any(|l| l.contains("\"record\":\"scheduler\"")), "{text}");
    assert!(lines.last().unwrap().contains("\"phase\":\"total\""), "{text}");
    std::fs::remove_file(&tf).ok();
}
