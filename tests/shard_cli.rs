//! End-to-end tests of the `union-exp` multi-process shard launcher:
//! a gang of real worker processes over TCP must reproduce the
//! sequential fingerprint, a checkpoint taken at an intermediate GVT
//! must restore to the same final state, and damaged checkpoint files
//! must be rejected with exit code 2 and a clear message — never a
//! panic.

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

/// FNV-1a matching `ross::shard::wire::fnv1a`, so the wrong-version test
/// below can forge a file whose checksum is valid.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn gang_checkpoint_and_restore_all_match_sequential() {
    let ck = temp_path("roundtrip.ckpt");
    std::fs::remove_file(&ck).ok();
    let ck_s = ck.to_str().unwrap().to_string();

    let seq = phold(&[]);
    assert!(seq.status.success(), "sequential run failed: {}", stderr(&seq));
    let want = fingerprint_line(&seq);

    // Two real worker processes, checkpointing every 5 µs of virtual
    // time; the launcher's own verify pass re-runs sequentially.
    let ckpt_arg = format!("{ck_s}:5");
    let gang = phold(&["--sched", "shard:2:1", "--checkpoint", &ckpt_arg]);
    assert!(gang.status.success(), "gang run failed: {}", stderr(&gang));
    assert_eq!(fingerprint_line(&gang), want, "gang fingerprint diverged");
    assert!(stdout(&gang).contains("phold verify sequential match"));
    assert!(ck.exists(), "no checkpoint written");

    // Fresh gang restored from the intermediate cut must converge to the
    // same final state (verify accounts for the pre-cut committed count).
    let restored = phold(&["--sched", "shard:2:1", "--restore", &ck_s]);
    assert!(restored.status.success(), "restore run failed: {}", stderr(&restored));
    assert_eq!(fingerprint_line(&restored), want, "restored fingerprint diverged");
    assert!(stdout(&restored).contains("phold verify sequential match"));

    std::fs::remove_file(&ck).ok();
}

#[test]
fn damaged_checkpoints_exit_2_with_a_clear_message() {
    let ck = temp_path("reject.ckpt");
    std::fs::remove_file(&ck).ok();
    let ck_s = ck.to_str().unwrap().to_string();

    // Produce a valid single-process checkpoint to damage.
    let ckpt_arg = format!("{ck_s}:5");
    let made = phold(&["--checkpoint", &ckpt_arg]);
    assert!(made.status.success(), "checkpointing run failed: {}", stderr(&made));
    let good = std::fs::read(&ck).unwrap();
    assert!(good.len() > 32, "implausibly small checkpoint");

    let reject = |bytes: &[u8], expect_in_msg: &str| {
        let bad = temp_path("damaged.ckpt");
        std::fs::write(&bad, bytes).unwrap();
        let out = phold(&["--restore", bad.to_str().unwrap()]);
        let msg = stderr(&out);
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected exit 2 for {expect_in_msg:?}, got {:?}: {msg}",
            out.status.code()
        );
        assert!(!msg.contains("panicked"), "panicked instead of erroring: {msg}");
        assert!(
            msg.to_lowercase().contains(expect_in_msg),
            "message does not mention {expect_in_msg:?}: {msg}"
        );
        std::fs::remove_file(&bad).ok();
    };

    // Truncated: half the file, and a file shorter than the header.
    reject(&good[..good.len() / 2], "checksum");
    reject(&good[..4], "truncated");
    reject(b"", "truncated");

    // Corrupt: one byte flipped mid-file breaks the checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    reject(&flipped, "checksum");

    // Not a checkpoint at all.
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    reject(&bad_magic, "magic");

    // Unsupported format version, with a valid checksum so the version
    // check itself is what rejects it.
    let mut body = good[8..good.len() - 8].to_vec();
    body[0] = 99;
    let mut wrong_version = Vec::new();
    wrong_version.extend_from_slice(&good[..8]);
    wrong_version.extend_from_slice(&body);
    wrong_version.extend_from_slice(&fnv1a(&body).to_le_bytes());
    reject(&wrong_version, "version");

    // Missing file is a run failure (exit 1), not a format error — and
    // still not a panic.
    let missing = temp_path("does-not-exist.ckpt");
    let out = phold(&["--restore", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "missing file: {}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"));
    assert!(stderr(&out).contains("cannot read checkpoint"));

    std::fs::remove_file(&ck).ok();
}

/// Restoring a checkpoint into a different shard count must be refused
/// up front — shard rebalancing from a cut is not implemented (ROADMAP
/// item 2) — with a format error (exit 2, never a panic) that names both
/// counts and the file so the operator can relaunch correctly.
#[test]
fn restore_with_mismatched_shard_count_exits_2_naming_both_counts() {
    let ck = temp_path("mismatch.ckpt");
    std::fs::remove_file(&ck).ok();
    let ck_s = ck.to_str().unwrap().to_string();

    // Take a valid cut with a 2-shard gang…
    let ckpt_arg = format!("{ck_s}:5");
    let gang = phold(&["--sched", "shard:2:1", "--checkpoint", &ckpt_arg]);
    assert!(gang.status.success(), "gang checkpoint run failed: {}", stderr(&gang));
    assert!(ck.exists(), "no checkpoint written");

    // …then try to restore it into a single-process (1-shard) run.
    let out = phold(&["--restore", &ck_s]);
    let msg = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "expected exit 2: {msg}");
    assert!(!msg.contains("panicked"), "panicked instead of erroring: {msg}");
    assert!(msg.contains("2 shards"), "message does not name the checkpoint's count: {msg}");
    assert!(msg.contains("into 1"), "message does not name the requested count: {msg}");
    assert!(msg.contains(&ck_s), "message does not name the file: {msg}");
    assert!(msg.contains("rebalancing"), "message does not point at the rebalancing gap: {msg}");
    assert!(msg.contains("shard:2:T)"), "message does not say how to relaunch: {msg}");

    std::fs::remove_file(&ck).ok();
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

/// `mix` runs under every in-process scheduler the sweeps accept, with
/// the sequential result.
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
    assert_eq!(mix("par:2"), mix("seq"));
    assert_eq!(mix("async:2"), mix("seq"));
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
        (vec!["--checkpoint"], "--checkpoint"),
        (vec!["--checkpoint", "x:0"], "interval"),
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
