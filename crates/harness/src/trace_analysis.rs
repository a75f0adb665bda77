//! Critical-path analysis over exported Chrome traces.
//!
//! [`parse_chrome`] rebuilds per-run event and span records from the
//! JSON `ross::Tracer::to_chrome_json` writes (the `args` carry the
//! exact integers; `ts`/`dur` round-trip through microseconds with
//! nanosecond precision). [`analyze`] then reconstructs the committed
//! event dependency DAG — an event depends on the execution that sent it
//! (uid-range linkage) and on the previous committed event of its LP —
//! and reports the longest weighted causal chain, the resulting upper
//! bound on parallel speedup, and per-LP / per-kind critical-path
//! residency.

use serde::Value;
use std::collections::HashMap;
use std::fmt::Write;

/// One executed-event record rebuilt from a Chrome export.
#[derive(Clone, Debug)]
pub struct TracedEvent {
    /// Executing (destination) LP.
    pub lp: u32,
    /// Sending LP.
    pub src: u32,
    /// Model kind tag; `kind_name` is its display name.
    pub kind: u16,
    pub kind_name: String,
    pub recv_ns: u64,
    pub send_ns: u64,
    /// Event uid (sender LP, sender-local sequence number).
    pub uid_src: u32,
    pub uid_seq: u64,
    /// The events this execution sent carry uids
    /// `(lp, child_lo..child_lo + children)`.
    pub child_lo: u64,
    pub children: u64,
    /// Sampled handler wall time.
    pub dur_ns: u64,
}

/// One scheduler-phase span rebuilt from a Chrome export.
#[derive(Clone, Debug)]
pub struct TracedSpan {
    pub worker: u32,
    /// The phase label, e.g. `barrier`.
    pub kind: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One traced run: metadata plus every event/span record.
#[derive(Clone, Debug, Default)]
pub struct TraceRun {
    pub run: u32,
    pub label: String,
    pub sched: String,
    pub threads: u64,
    pub wall_ns: u64,
    pub end_ns: u64,
    pub sample_rate: u64,
    /// LP id → track name (from `thread_name` metadata).
    pub lp_names: HashMap<u32, String>,
    pub events: Vec<TracedEvent>,
    pub spans: Vec<TracedSpan>,
}

/// Chrome `ts`/`dur` microseconds (3-decimal) back to nanoseconds.
fn to_ns(us: f64) -> u64 {
    (us * 1000.0).round().max(0.0) as u64
}

fn req_u64(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("{what}: missing `{key}`"))
}

/// Parse a Chrome trace-event JSON document written by
/// `ross::Tracer::to_chrome_json` back into per-run records. Unknown
/// records (metadata Perfetto adds, foreign phases) are skipped; a
/// malformed document is an error, not a partial result.
pub fn parse_chrome(json: &str) -> Result<Vec<TraceRun>, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("no `traceEvents` array — not a Chrome trace")?;
    let mut runs: HashMap<u32, TraceRun> = HashMap::new();
    let run_of = |runs: &mut HashMap<u32, TraceRun>, pid: u64| -> u32 {
        let id = (pid / 2) as u32;
        runs.entry(id).or_insert_with(|| TraceRun { run: id, ..TraceRun::default() });
        id
    };
    for (i, ev) in events.iter().enumerate() {
        let what = format!("traceEvents[{i}]");
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
        let Some(pid) = ev.get("pid").and_then(Value::as_u64) else { continue };
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
        match ph {
            "M" => {
                let id = run_of(&mut runs, pid);
                let run = runs.get_mut(&id).expect("just inserted");
                match name {
                    "union_run" => {
                        let a = ev.get("args").ok_or_else(|| format!("{what}: no args"))?;
                        run.label =
                            a.get("label").and_then(Value::as_str).unwrap_or("").to_string();
                        run.sched =
                            a.get("sched").and_then(Value::as_str).unwrap_or("?").to_string();
                        run.threads = req_u64(a, "threads", &what)?;
                        run.wall_ns = req_u64(a, "wall_ns", &what)?;
                        run.end_ns = req_u64(a, "end_ns", &what)?;
                        run.sample_rate = req_u64(a, "sample_rate", &what)?.max(1);
                    }
                    "thread_name" if pid % 2 == 0 => {
                        if let Some(n) =
                            ev.get("args").and_then(|a| a.get("name")).and_then(Value::as_str)
                        {
                            run.lp_names.insert(tid as u32, n.to_string());
                        }
                    }
                    _ => {}
                }
            }
            "X" => {
                let ts = ev.get("ts").and_then(Value::as_f64).ok_or(format!("{what}: no ts"))?;
                let dur = ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
                let id = run_of(&mut runs, pid);
                let run = runs.get_mut(&id).expect("just inserted");
                if pid % 2 == 0 {
                    let a = ev.get("args").ok_or_else(|| format!("{what}: event without args"))?;
                    run.events.push(TracedEvent {
                        lp: tid as u32,
                        src: req_u64(a, "src", &what)? as u32,
                        kind: req_u64(a, "k", &what)? as u16,
                        kind_name: name.to_string(),
                        recv_ns: to_ns(ts),
                        send_ns: req_u64(a, "st", &what)?,
                        uid_src: req_u64(a, "us", &what)? as u32,
                        uid_seq: req_u64(a, "q", &what)?,
                        child_lo: req_u64(a, "lo", &what)?,
                        children: req_u64(a, "nc", &what)?,
                        dur_ns: to_ns(dur),
                    });
                } else {
                    run.spans.push(TracedSpan {
                        worker: tid as u32,
                        kind: name.to_string(),
                        start_ns: to_ns(ts),
                        dur_ns: to_ns(dur),
                    });
                }
            }
            _ => {}
        }
    }
    let mut out: Vec<TraceRun> = runs.into_values().collect();
    out.sort_by_key(|r| r.run);
    Ok(out)
}

/// Name + how much of the critical path it accounts for.
#[derive(Clone, Debug)]
pub struct Residency {
    pub name: String,
    pub events: u64,
    pub ns: u64,
}

/// Everything the critical-path analyzer derives from one run.
#[derive(Clone, Debug)]
pub struct RunAnalysis {
    pub run: u32,
    pub label: String,
    pub sched: String,
    pub threads: u64,
    pub wall_ns: u64,
    pub end_ns: u64,
    pub sample_rate: u64,
    pub committed_events: u64,
    /// Σ sampled handler time over committed executions.
    pub committed_work_ns: u64,
    /// Longest weighted chain through the committed dependency DAG.
    pub critical_path_len: u64,
    pub critical_path_ns: u64,
    /// `committed_work_ns / critical_path_ns` — no scheduler can beat it.
    pub speedup_bound: f64,
    /// Critical-path residency, descending by time.
    pub lp_residency: Vec<Residency>,
    pub kind_residency: Vec<Residency>,
    /// Scheduler-phase totals: (kind, count, Σ ns).
    pub span_totals: Vec<(String, u64, u64)>,
}

impl RunAnalysis {
    /// Structural invariants every well-formed analysis satisfies;
    /// returns human-readable violations (empty = sound). Used by the CI
    /// smoke step and the observability tests.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut bad = Vec::new();
        if self.critical_path_len > self.committed_events {
            bad.push(format!(
                "critical path has {} events but only {} committed",
                self.critical_path_len, self.committed_events
            ));
        }
        if self.critical_path_ns > self.committed_work_ns {
            bad.push(format!(
                "critical path {} ns exceeds total committed work {} ns",
                self.critical_path_ns, self.committed_work_ns
            ));
        }
        if self.committed_events > 0 && self.speedup_bound < 1.0 {
            bad.push(format!("speedup bound {:.3} below 1", self.speedup_bound));
        }
        if self.committed_events > 0 && self.critical_path_len == 0 {
            bad.push("committed events but an empty critical path".to_string());
        }
        let path_lp_ns: u64 = self.lp_residency.iter().map(|r| r.ns).sum();
        if path_lp_ns != self.critical_path_ns {
            bad.push(format!(
                "LP residency sums to {} ns, critical path is {} ns",
                path_lp_ns, self.critical_path_ns
            ));
        }
        bad
    }
}

/// Group (name → events/ns) accumulation, returned descending by ns.
fn residency_table(items: impl Iterator<Item = (String, u64)>) -> Vec<Residency> {
    let mut by_name: HashMap<String, (u64, u64)> = HashMap::new();
    for (name, ns) in items {
        let e = by_name.entry(name).or_insert((0, 0));
        e.0 += 1;
        e.1 += ns;
    }
    let mut out: Vec<Residency> =
        by_name.into_iter().map(|(name, (events, ns))| Residency { name, events, ns }).collect();
    out.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.name.cmp(&b.name)));
    out
}

/// Reconstruct the committed dependency DAG of `run` and measure it.
pub fn analyze(run: &TraceRun) -> RunAnalysis {
    // Committed events in deterministic execution order: recv time first,
    // then the same tiebreak coordinates the engine orders equal-time
    // events by.
    let mut committed: Vec<&TracedEvent> = run.events.iter().collect();
    committed.sort_by_key(|e| (e.recv_ns, e.send_ns, e.uid_src, e.uid_seq, e.lp));
    let n = committed.len();

    // Parent lookup: an event with uid (s, q) was sent by the committed
    // execution on LP s whose child range covers q. Ranges on one LP are
    // disjoint (the uid counter only grows), so binary search works.
    let mut ranges: HashMap<u32, Vec<(u64, u64, usize)>> = HashMap::new();
    for (i, e) in committed.iter().enumerate() {
        if e.children > 0 {
            ranges.entry(e.lp).or_default().push((e.child_lo, e.child_lo + e.children, i));
        }
    }
    for v in ranges.values_mut() {
        v.sort_unstable_by_key(|&(lo, ..)| lo);
    }
    let parent_of = |e: &TracedEvent| -> Option<usize> {
        let v = ranges.get(&e.uid_src)?;
        let at = v.partition_point(|&(lo, ..)| lo <= e.uid_seq);
        let &(lo, hi, i) = v.get(at.checked_sub(1)?)?;
        (lo <= e.uid_seq && e.uid_seq < hi).then_some(i)
    };

    // Per-event dependencies: the sending execution and the previous
    // committed execution on the same LP (LPs are sequential).
    let mut deps: Vec<[Option<usize>; 2]> = vec![[None, None]; n];
    let mut last_on_lp: HashMap<u32, usize> = HashMap::new();
    for (i, e) in committed.iter().enumerate() {
        deps[i][0] = parent_of(e).filter(|&p| p != i);
        deps[i][1] = last_on_lp.insert(e.lp, i).filter(|&p| p != i);
    }

    // Longest weighted path via Kahn ordering (robust to any recording
    // order; a malformed cyclic input degrades to partial finishes
    // instead of hanging).
    let mut indeg = vec![0u32; n];
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, d) in deps.iter().enumerate() {
        for p in d.iter().flatten() {
            indeg[i] += 1;
            rev[*p].push(i);
        }
    }
    let mut finish = vec![0u64; n];
    let mut best_dep: Vec<Option<usize>> = vec![None; n];
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while let Some(i) = ready.pop() {
        let e = committed[i];
        let (start, from) =
            deps[i].iter().flatten().map(|&p| (finish[p], Some(p))).max().unwrap_or((0, None));
        finish[i] = start + e.dur_ns;
        best_dep[i] = from;
        for &c in &rev[i] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                ready.push(c);
            }
        }
    }

    // Recover the path ending at the globally latest finish.
    let mut path: Vec<usize> = Vec::new();
    if let Some(end) = (0..n).max_by_key(|&i| (finish[i], std::cmp::Reverse(i))) {
        let mut cur = Some(end);
        while let Some(i) = cur {
            path.push(i);
            cur = best_dep[i];
        }
        path.reverse();
    }

    let committed_work_ns: u64 = committed.iter().map(|e| e.dur_ns).sum();
    let critical_path_ns: u64 = path.iter().map(|&i| committed[i].dur_ns).sum();
    let lp_name = |lp: u32| run.lp_names.get(&lp).cloned().unwrap_or_else(|| format!("lp {lp}"));
    let speedup_bound = if critical_path_ns == 0 {
        1.0
    } else {
        (committed_work_ns as f64 / critical_path_ns as f64).max(1.0)
    };
    RunAnalysis {
        run: run.run,
        label: run.label.clone(),
        sched: run.sched.clone(),
        threads: run.threads,
        wall_ns: run.wall_ns,
        end_ns: run.end_ns,
        sample_rate: run.sample_rate,
        committed_events: n as u64,
        committed_work_ns,
        critical_path_len: path.len() as u64,
        critical_path_ns,
        speedup_bound,
        lp_residency: residency_table(
            path.iter().map(|&i| (lp_name(committed[i].lp), committed[i].dur_ns)),
        ),
        kind_residency: residency_table(
            path.iter().map(|&i| (committed[i].kind_name.clone(), committed[i].dur_ns)),
        ),
        span_totals: {
            let t = residency_table(run.spans.iter().map(|s| (s.kind.clone(), s.dur_ns)));
            t.into_iter().map(|r| (r.name, r.events, r.ns)).collect()
        },
    }
}

/// A stable fingerprint of a run's committed causal structure: equal
/// seeds and schedulers must produce equal fingerprints regardless of
/// thread interleaving or wall-clock noise (durations are excluded).
pub fn causality_fingerprint(run: &TraceRun) -> u64 {
    let mut committed: Vec<&TracedEvent> = run.events.iter().collect();
    committed.sort_by_key(|e| (e.recv_ns, e.send_ns, e.uid_src, e.uid_seq, e.lp));
    // FNV-1a over the causal coordinates of every committed event.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    mix(committed.len() as u64);
    for e in committed {
        mix(e.lp as u64);
        mix(e.src as u64);
        mix(e.recv_ns);
        mix(e.send_ns);
        mix(e.uid_src as u64);
        mix(e.uid_seq);
        mix(e.children);
        mix(e.kind as u64);
    }
    h
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2} s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} us", v / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn write_residency(out: &mut String, title: &str, rows: &[Residency], total_ns: u64, top: usize) {
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(out, "  {title}:");
    let _ = writeln!(out, "  | where | events | time | share |");
    let _ = writeln!(out, "  |---|---|---|---|");
    for r in rows.iter().take(top) {
        let share = if total_ns == 0 { 0.0 } else { 100.0 * r.ns as f64 / total_ns as f64 };
        let _ = writeln!(out, "  | {} | {} | {} | {:.1}% |", r.name, r.events, fmt_ns(r.ns), share);
    }
    if rows.len() > top {
        let _ = writeln!(out, "  | … {} more | | | |", rows.len() - top);
    }
}

/// Render a full analysis report (one block per run).
pub fn render(analyses: &[RunAnalysis]) -> String {
    let mut out = String::new();
    for a in analyses {
        let label = if a.label.is_empty() { "run".to_string() } else { a.label.clone() };
        let _ = writeln!(
            out,
            "Critical path — run {} · {label} · {}:{} (sample rate {})",
            a.run, a.sched, a.threads, a.sample_rate
        );
        let _ = writeln!(
            out,
            "  committed: {} events, {} of handler time; wall {} to virtual t={}",
            a.committed_events,
            fmt_ns(a.committed_work_ns),
            fmt_ns(a.wall_ns),
            fmt_ns(a.end_ns),
        );
        let _ = writeln!(
            out,
            "  critical path: {} events, {}",
            a.critical_path_len,
            fmt_ns(a.critical_path_ns)
        );
        let _ = writeln!(out, "  max parallel speedup bound: {:.2}x", a.speedup_bound);
        write_residency(
            &mut out,
            "critical-path residency by LP",
            &a.lp_residency,
            a.critical_path_ns,
            8,
        );
        write_residency(
            &mut out,
            "critical-path residency by kind",
            &a.kind_residency,
            a.critical_path_ns,
            8,
        );
        if !a.span_totals.is_empty() {
            let joined: Vec<String> = a
                .span_totals
                .iter()
                .map(|(k, c, ns)| format!("{k} ×{c} {}", fmt_ns(*ns)))
                .collect();
            let _ = writeln!(out, "  scheduler phases: {}", joined.join(", "));
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn ev(
        lp: u32,
        src: u32,
        recv: u64,
        send: u64,
        uid: (u32, u64),
        lo: u64,
        nc: u64,
        dur: u64,
    ) -> TracedEvent {
        TracedEvent {
            lp,
            src,
            kind: 0,
            kind_name: "net".to_string(),
            recv_ns: recv,
            send_ns: send,
            uid_src: uid.0,
            uid_seq: uid.1,
            child_lo: lo,
            children: nc,
            dur_ns: dur,
        }
    }

    /// A two-LP chain: root on LP0 sends to LP1; a second independent
    /// root on LP0. Critical path = root + child.
    #[test]
    fn chain_beats_independent_work() {
        let run = TraceRun {
            events: vec![
                ev(0, 0, 10, 0, (0, 0), 0, 1, 100),
                ev(1, 0, 20, 10, (0, 0), 0, 0, 50),
                ev(0, 0, 15, 0, (9, 7), 5, 0, 60),
            ],
            ..TraceRun::default()
        };
        let a = analyze(&run);
        assert_eq!(a.committed_events, 3);
        // Chain 100 + 50 = 150 vs the lone 60+... LP0 serializes the
        // independent event after the root: 100 + 60 = 160; the path end
        // is LP0's second event.
        assert_eq!(a.critical_path_ns, 160);
        assert_eq!(a.critical_path_len, 2);
        assert!((a.speedup_bound - 210.0 / 160.0).abs() < 1e-9);
        assert!(a.check_invariants().is_empty(), "{:?}", a.check_invariants());
    }

    #[test]
    fn parent_linkage_crosses_lps() {
        // Root (lp0) sends two children to lp1 and lp2; each child is
        // cheap, so the path is root + one child and the bound ~3x... but
        // LP-order serializes nothing extra here.
        let run = TraceRun {
            events: vec![
                ev(0, 0, 10, 0, (0, 0), 0, 2, 90),
                ev(1, 0, 30, 10, (0, 0), 0, 0, 10),
                ev(2, 0, 30, 10, (0, 1), 0, 0, 10),
            ],
            ..TraceRun::default()
        };
        let a = analyze(&run);
        assert_eq!(a.critical_path_ns, 100);
        assert_eq!(a.critical_path_len, 2);
        assert!(a.check_invariants().is_empty());
    }

    #[test]
    fn fingerprint_ignores_durations_and_order() {
        let mut run = TraceRun {
            events: vec![ev(0, 0, 10, 0, (0, 0), 0, 1, 100), ev(1, 0, 20, 10, (0, 0), 0, 0, 50)],
            ..TraceRun::default()
        };
        let f1 = causality_fingerprint(&run);
        run.events.reverse();
        for e in &mut run.events {
            e.dur_ns *= 3;
        }
        assert_eq!(causality_fingerprint(&run), f1);
        run.events[0].recv_ns += 1;
        assert_ne!(causality_fingerprint(&run), f1);
    }

    #[test]
    fn parses_tracer_export() {
        use ross::Tracer;
        let tr = Tracer::new(1);
        tr.label_next_run("unit");
        tr.stage_kind_names(vec!["net".into()]);
        tr.stage_lp_names(vec!["node 0".into(), "node 1".into()]);
        let run = tr.open_run("sequential", 1);
        let mut buf = tr.buf(run, 0);
        for i in 0..4u64 {
            let t0 = buf.event_start();
            let env = ross::Envelope {
                recv_time: ross::SimTime(1000 * (i + 1)),
                send_time: ross::SimTime(1000 * i),
                src: 0,
                dst: 0,
                tiebreak: i,
                uid: ross::EventUid { src: 0, seq: i },
                payload: (),
            };
            // Execution of uid (0, i) sends uid (0, i+1): the sender's
            // counter sits one past its own uid when the handler runs.
            buf.record(&env, i + 1, u32::from(i < 3), 0, t0);
        }
        tr.submit(buf);
        tr.close_run(run, 12_345, 4000);
        let runs = parse_chrome(&tr.to_chrome_json()).expect("parse");
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(r.label, "unit");
        assert_eq!(r.sched, "sequential");
        assert_eq!(r.wall_ns, 12_345);
        assert_eq!(r.events.len(), 4);
        assert_eq!(r.lp_names.get(&0).map(String::as_str), Some("node 0"));
        let a = analyze(r);
        assert_eq!(a.committed_events, 4);
        // seq 0..3 chain through the uid ranges: every event's child
        // range is [i, i+1), so event i+1 is event i's child.
        assert_eq!(a.critical_path_len, 4);
        assert!(a.check_invariants().is_empty(), "{:?}", a.check_invariants());
    }
}
