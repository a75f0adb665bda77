//! Crash/recover drill for the shard launcher: SIGKILL one worker
//! process mid-run (right after it helps commit a checkpoint), watch the
//! gang fail, then restart the whole gang from that checkpoint and
//! assert the final fingerprint is identical to an uninterrupted run.

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

fn fingerprint_line(o: &Output) -> String {
    stdout(o)
        .lines()
        .find(|l| l.starts_with("phold fingerprint "))
        .unwrap_or_else(|| panic!("no fingerprint line in:\n{}{}", stdout(o), stderr(o)))
        .to_string()
}

#[test]
fn killed_worker_fails_the_gang_and_restart_recovers_the_run() {
    let ck = std::env::temp_dir().join(format!("union-shard-fault-{}.ckpt", std::process::id()));
    std::fs::remove_file(&ck).ok();
    let ck_s = ck.to_str().unwrap().to_string();

    // Uninterrupted reference.
    let seq = Command::new(exe()).arg("phold").output().unwrap();
    assert!(seq.status.success(), "sequential run failed: {}", stderr(&seq));
    let want = fingerprint_line(&seq);

    // Gang of two workers; shard 1 SIGKILLs itself immediately after the
    // first checkpoint round commits. The launcher must notice the death
    // and fail the run — it cannot produce a result with a dead shard.
    let ckpt_arg = format!("{ck_s}:5");
    let faulted = Command::new(exe())
        .args(["phold", "--sched", "shard:2:1", "--checkpoint", &ckpt_arg])
        .env("UNION_SHARD_FAULT", "kill-after-ckpt:1")
        .output()
        .unwrap();
    assert!(
        !faulted.status.success(),
        "gang reported success despite a SIGKILLed worker:\n{}",
        stdout(&faulted)
    );
    assert!(
        !stdout(&faulted).contains("phold verify sequential match"),
        "a failed gang must not claim verification"
    );

    // The fault fires only after the checkpoint is durably on disk, so a
    // consistent cut survives the crash.
    assert!(ck.exists(), "no checkpoint survived the crash: {}", stderr(&faulted));

    // Restart the gang from that cut: it must finish and match the
    // uninterrupted run bit-for-bit (the launcher's verify pass also
    // checks the committed-event count against the cut's metadata).
    let recovered = Command::new(exe())
        .args(["phold", "--sched", "shard:2:1", "--restore", &ck_s])
        .output()
        .unwrap();
    assert!(recovered.status.success(), "recovery run failed: {}", stderr(&recovered));
    assert_eq!(fingerprint_line(&recovered), want, "recovered run diverged");
    assert!(stdout(&recovered).contains("phold verify sequential match"));

    std::fs::remove_file(&ck).ok();
}
