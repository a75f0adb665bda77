//! Report formatters: print the same rows/series the paper's figures and
//! tables report.

use crate::sweep::{baseline_of, Net, RunRecord, Workload};
use crate::trace_analysis::{fmt_ns, RunAnalysis};
use metrics::fmt_bytes;
use std::fmt::Write;

/// Table II: the two system configurations.
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Topology | Radix | #Groups | #Routers/Group | #Nodes/Router | #Nodes/Group | #Global/Router | System |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for (name, cfg) in [
        ("1D dragonfly", dragonfly::DragonflyConfig::dragonfly_1d()),
        ("2D dragonfly", dragonfly::DragonflyConfig::dragonfly_2d()),
    ] {
        let _ = writeln!(
            out,
            "| {name} | 48 | {} | {} | {} | {} | {} | {} |",
            cfg.groups,
            cfg.routers_per_group(),
            cfg.nodes_per_router,
            cfg.nodes_per_group(),
            cfg.global_per_router,
            cfg.total_nodes(),
        );
    }
    out
}

/// Fig 7: message-latency boxes per application, workload, placement,
/// routing, network — plus the slowdown of the per-rank average versus
/// the matching baseline.
pub fn fig7(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 7 — maximum message latency per rank (us): min/q1/median/q3/max, mean, \
         and avg-latency slowdown vs baseline"
    );
    let _ = writeln!(
        out,
        "| Net | App | Workload | Plc | Rt | min | q1 | med | q3 | max | mean | avg-slowdown |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|");
    for r in records {
        for a in &r.apps {
            let b = r.key;
            let base = baseline_of(records, b.net, &a.name, b.placement, b.routing);
            let slow = match (&b.workload, base) {
                (Workload::Mix(_), Some(base)) if base.overall_avg_latency_ns > 0.0 => {
                    format!("{:.2}x", a.overall_avg_latency_ns / base.overall_avg_latency_ns)
                }
                _ => "-".to_string(),
            };
            let x = &a.max_latency;
            let us = 1e3;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {} |",
                b.net.label(),
                a.name,
                b.workload.label(),
                b.placement.label(),
                b.routing.label(),
                x.min / us,
                x.q1 / us,
                x.median / us,
                x.q3 / us,
                x.max / us,
                x.mean / us,
                slow,
            );
        }
    }
    out
}

/// Fig 9: communication-time distributions per app/config, with slowdown
/// of the mean versus the matching baseline.
pub fn fig9(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 9 — communication time per rank (ms): min/median/max, mean, slowdown vs baseline"
    );
    let _ =
        writeln!(out, "| Net | App | Workload | Plc | Rt | min | med | max | mean | slowdown |");
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    for r in records {
        for a in &r.apps {
            let b = r.key;
            let base = baseline_of(records, b.net, &a.name, b.placement, b.routing);
            let slow = match (&b.workload, base) {
                (Workload::Mix(_), Some(base)) if base.comm_time.mean > 0.0 => {
                    format!("{:.2}x", a.comm_time.mean / base.comm_time.mean)
                }
                _ => "-".to_string(),
            };
            let x = &a.comm_time;
            let ms = 1e6;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {} |",
                b.net.label(),
                a.name,
                b.workload.label(),
                b.placement.label(),
                b.routing.label(),
                x.min / ms,
                x.median / ms,
                x.max / ms,
                x.mean / ms,
                slow,
            );
        }
    }
    out
}

/// Table VI: global/local link loads for a set of records (the paper uses
/// Workload3 with RG placement and adaptive routing, on both networks).
pub fn table6(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table VI — link loads (Workload3, RG placement, adaptive routing)");
    let _ = writeln!(
        out,
        "| Dragonfly | Glink Load | Llink Load | per Glink | per Llink | global share |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for net in [Net::OneD, Net::TwoD] {
        let Some(r) = records.iter().find(|r| {
            r.key.net == net
                && matches!(r.key.workload, Workload::Mix(3))
                && r.key.placement == placement::Placement::RandomGroups
                && r.key.routing == dragonfly::Routing::Adaptive
        }) else {
            continue;
        };
        let l = &r.link_load;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {:.1}% |",
            net.label(),
            fmt_bytes(l.global_bytes as f64),
            fmt_bytes(l.local_bytes as f64),
            fmt_bytes(l.per_global_link()),
            fmt_bytes(l.per_local_link()),
            100.0 * l.global_fraction(),
        );
    }
    out
}

/// Fig 8: windowed per-app bytes over the routers serving one job.
/// `series[w][app]` in bytes; apps named by `names`.
pub fn fig8(label: &str, window_ns: u64, series: &metrics::TimeSeries, names: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 8 — bytes received per {:.1} ms window on the routers serving AlexNet ({label})",
        window_ns as f64 / 1e6
    );
    let mut head = String::from("| window(ms) |");
    for n in names {
        head.push_str(&format!(" {n} |"));
    }
    let _ = writeln!(out, "{head}");
    let _ = writeln!(out, "|{}", "---|".repeat(names.len() + 1));
    for (w, apps) in series.bytes.iter().enumerate() {
        let mut row = format!("| {:.2} |", (w as f64) * window_ns as f64 / 1e6);
        for a in 0..names.len() {
            row.push_str(&format!(" {} |", fmt_bytes(apps.get(a).copied().unwrap_or(0) as f64)));
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// End-of-run telemetry summary: one row per scheduler record, network
/// totals, and phase timings — parsed back out of the recorder's JSONL
/// buffer so this renders exactly what the file will contain.
pub fn telemetry_summary(rec: &telemetry::Recorder) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Telemetry — {} records, {} dropped", rec.len(), rec.dropped());
    // Degraded-capture warnings must be impossible to miss in the
    // summary: dropped records mean the cap was hit, serialization
    // errors mean some records silently turned into trailer notes.
    if rec.dropped() > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} telemetry records dropped at the record cap — totals below undercount",
            rec.dropped()
        );
    }
    if rec.serialization_errors() > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} records failed to serialize and were replaced by trailer notes",
            rec.serialization_errors()
        );
    }
    let _ = writeln!(
        out,
        "| Scheduler | Thr | Queue | Committed | Rounds | Q-ops | Q-max | Steals | Stall ms | \
         Lag ns | Wall ms |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|");
    let mut nets = (0u64, 0u64, 0u64, 0u64);
    let mut phases: Vec<(String, u64)> = Vec::new();
    for line in rec.lines() {
        let Ok(v) = serde_json::from_str::<serde::Value>(&line) else { continue };
        let g = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
        match v.get("record").and_then(|r| r.as_str()) {
            Some("scheduler") => {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {:.1} | {} | {:.1} |",
                    v.get("scheduler").and_then(|s| s.as_str()).unwrap_or("?"),
                    g("threads"),
                    v.get("queue").and_then(|s| s.as_str()).unwrap_or("?"),
                    g("committed"),
                    g("rounds"),
                    g("queue_ops"),
                    g("queue_max_len"),
                    g("steals"),
                    g("horizon_stall_ns") as f64 / 1e6,
                    g("horizon_lag_max"),
                    g("wall_ns") as f64 / 1e6,
                );
            }
            Some("network") => {
                nets.0 += g("packets_injected");
                nets.1 += g("packets_delivered");
                nets.2 += g("bytes_injected");
                nets.3 += g("credit_stalls");
            }
            Some("phase") => {
                let name = v.get("phase").and_then(|p| p.as_str()).unwrap_or("?").to_string();
                phases.push((name, g("wall_ns")));
            }
            _ => {}
        }
    }
    let _ = writeln!(
        out,
        "network: {} packets injected, {} delivered, {} on the wire, {} credit stalls",
        nets.0,
        nets.1,
        fmt_bytes(nets.2 as f64),
        nets.3,
    );
    if let Some((name, wall)) = phases.last().filter(|(n, _)| n == "total") {
        let _ = writeln!(
            out,
            "{} phases, {name} wall time {:.2} s",
            phases.len().saturating_sub(1),
            *wall as f64 / 1e9
        );
    }
    out
}

/// Measured parallelism of every `scheduler` telemetry record, in
/// emission order: Σ per-thread busy time ÷ wall time (1.0 = serial,
/// `None` when the record carries no usable timing). Runs emit one
/// scheduler record each, in the same order the tracer numbers runs, so
/// this aligns with trace analyses by index.
fn measured_speedups(rec: &telemetry::Recorder) -> Vec<Option<f64>> {
    let mut out = Vec::new();
    for line in rec.lines() {
        let Ok(v) = serde_json::from_str::<serde::Value>(&line) else { continue };
        if v.get("record").and_then(|r| r.as_str()) != Some("scheduler") {
            continue;
        }
        let wall = v.get("wall_ns").and_then(|x| x.as_u64()).unwrap_or(0);
        let busy: u64 = v
            .get("per_thread")
            .and_then(|t| t.as_array())
            .map(|threads| {
                threads.iter().filter_map(|t| t.get("busy_ns").and_then(|b| b.as_u64())).sum()
            })
            .unwrap_or(0);
        out.push((wall > 0 && busy > 0).then(|| busy as f64 / wall as f64));
    }
    out
}

/// The achievable-vs-achieved parallelism table: the critical-path bound
/// from the traced event DAG next to the speedup the scheduler actually
/// measured (Σ busy / wall from telemetry), one row per traced run.
pub fn critical_path_block(analyses: &[RunAnalysis], measured: &[Option<f64>]) -> String {
    let mut out = String::new();
    if analyses.is_empty() {
        return out;
    }
    let _ = writeln!(out, "Critical path — achievable vs achieved parallelism");
    let _ = writeln!(
        out,
        "| Run | Label | Sched | Thr | Committed | Path | Path time | Bound | Measured |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for (i, a) in analyses.iter().enumerate() {
        let m = match measured.get(i) {
            Some(Some(s)) => format!("{s:.2}x"),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.2}x | {} |",
            a.run,
            if a.label.is_empty() { "-" } else { &a.label },
            a.sched,
            a.threads,
            a.committed_events,
            a.critical_path_len,
            fmt_ns(a.critical_path_ns),
            a.speedup_bound,
            m,
        );
    }
    out
}

/// [`telemetry_summary`] plus the critical-path block when the run was
/// traced: the speedup bound the event DAG allows, side by side with the
/// parallelism the scheduler achieved.
pub fn telemetry_summary_with_trace(rec: &telemetry::Recorder, analyses: &[RunAnalysis]) -> String {
    let mut out = telemetry_summary(rec);
    if !analyses.is_empty() {
        out.push_str(&critical_path_block(analyses, &measured_speedups(rec)));
    }
    out
}

/// Engine run statistics summary (events, wall time, rates).
pub fn engine_stats(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| Run | events | wall(s) | ev/s |");
    let _ = writeln!(out, "|---|---|---|---|");
    for r in records {
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {:.0} |",
            r.key.label(),
            r.stats.committed,
            r.stats.wall_seconds,
            r.stats.event_rate(),
        );
    }
    out
}
