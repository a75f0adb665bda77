//! `union-exp` side of the live metrics plane: the `--live ADDR` endpoint
//! of a run and the `union-exp top` summary renderer.
//!
//! The heavy machinery (registry, sampler, endpoint) lives in
//! [`telemetry::live`]; this module owns what is CLI-shaped —
//! standing the endpoint up and tearing it down around a run, fetching a
//! snapshot from an endpoint or a JSONL file, and rendering the
//! one-screen summary table.

use std::sync::Arc;
use std::time::Duration;
use telemetry::live::{bucket_bounds, MetricsRegistry, Sampler, Server, SnapshotRecord};

/// Parsed `--live ADDR [--live-hold MS] [--live-interval MS]` flags.
#[derive(Clone, Debug)]
pub struct LiveOpts {
    /// Bind address for the exposition endpoint, e.g. `127.0.0.1:9464`
    /// (port 0 picks a free port; the bound address goes to stderr).
    pub addr: String,
    /// Keep the endpoint up this long after the run finishes so scrapers
    /// (CI, a human with curl) can read final totals.
    pub hold_ms: u64,
    /// Sampler tick interval.
    pub interval_ms: u64,
}

/// Snapshots kept in the sampler ring — enough for a few minutes of
/// history at the default interval without unbounded growth.
pub const RING_CAP: usize = 512;

/// The exposition endpoint of one `--live` run and what feeds it.
pub(crate) struct LivePlane {
    /// What the run reports into; sampled and served.
    pub(crate) registry: Arc<MetricsRegistry>,
    sampler: Option<Sampler>,
    server: Server,
    hold_ms: u64,
}

impl LivePlane {
    /// Bind the endpoint, announce its address on stderr and start
    /// sampling at the `--live-interval` cadence.
    pub(crate) fn start(opts: &LiveOpts) -> std::io::Result<LivePlane> {
        let registry = Arc::new(MetricsRegistry::new());
        let server = Server::bind(&opts.addr, registry.clone())?;
        eprintln!("live endpoint on http://{}/metrics", server.local_addr());
        let interval = Duration::from_millis(opts.interval_ms.max(1));
        let sampler = Some(Sampler::start(registry.clone(), interval, RING_CAP));
        Ok(LivePlane { registry, sampler, server, hold_ms: opts.hold_ms })
    }

    /// End of run: stop sampling (the stop takes one final snapshot, so
    /// the last entry has exact end-of-run totals) and append the
    /// sampler ring to the telemetry stream when one is attached. The
    /// endpoint keeps serving.
    pub(crate) fn finish(&mut self, telemetry: Option<&telemetry::Recorder>) {
        let snapshots = self.sampler.take().map(Sampler::stop).unwrap_or_default();
        if let Some(rec) = telemetry {
            snapshots.iter().for_each(|snap| rec.emit(snap));
        }
    }

    /// Keep the endpoint up for `--live-hold` so scrapers can read the
    /// final totals, then shut it down.
    pub(crate) fn hold(self) {
        if self.hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.hold_ms));
        }
        self.server.shutdown();
    }
}

/// Fetch the JSON snapshot from a live endpoint.
pub fn fetch_snapshot(addr: &str) -> Result<SnapshotRecord, String> {
    let body = telemetry::live::http_get(addr, "/snapshot")
        .map_err(|e| format!("cannot fetch snapshot from {addr}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("bad snapshot from {addr}: {e}"))
}

/// The last snapshot record in a JSONL stream (telemetry files mix
/// snapshots with other record types; non-snapshot lines are skipped).
pub fn last_snapshot_in_jsonl(text: &str) -> Option<SnapshotRecord> {
    text.lines().rev().filter(|l| !l.trim().is_empty()).find_map(|l| {
        match serde_json::from_str::<SnapshotRecord>(l) {
            Ok(s) if s.record == "snapshot" => Some(s),
            _ => None,
        }
    })
}

fn fmt_count(v: u64) -> String {
    if v >= 10_000_000 {
        format!("{:.1}M", v as f64 / 1e6)
    } else if v >= 10_000 {
        format!("{:.1}k", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}

/// Render the `union-exp top` summary: throughput header, counter table
/// (cumulative + last-interval delta), gauges, and histogram quantiles.
pub fn render_top(snap: &SnapshotRecord) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "live snapshot #{} at {:.1}s (interval {} ms) — {:.0} events/s",
        snap.seq,
        snap.wall_ms as f64 / 1000.0,
        snap.interval_ms,
        snap.events_per_sec(),
    );
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "\n  {:<28} {:>12} {:>12}", "counter", "total", "delta");
        for c in &snap.counters {
            let _ = writeln!(out, "  {:<28} {:>12} {:>12}", c.name, fmt_count(c.total), c.delta);
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "\n  {:<28} {:>12}", "gauge", "value");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "  {:<28} {:>12}", name, v);
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "\n  {:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        for hs in &snap.histograms {
            let h = hs.to_histogram();
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
                hs.name,
                fmt_count(hs.count),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                hs.max,
            );
        }
    }
    out
}

/// Sanity check exercised by the CI smoke: every sparse histogram bucket
/// index in a snapshot must be a valid registry bucket.
pub fn snapshot_buckets_valid(snap: &SnapshotRecord) -> bool {
    snap.histograms.iter().all(|h| {
        h.buckets.iter().all(|&(i, _)| {
            let (lo, hi) = bucket_bounds(i as usize);
            lo <= hi
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use telemetry::live::MetricsRegistry;

    fn sample_snapshot() -> SnapshotRecord {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("events_committed").add(5000);
        reg.gauge("gvt_ns").set(123_456);
        let h = reg.histogram("commit_batch");
        for v in [1u64, 100, 10_000] {
            h.record(v);
        }
        let mut snap = reg.snapshot();
        snap.interval_ms = 1000;
        snap.counters[0].delta = 2500;
        snap
    }

    #[test]
    fn top_renders_counters_gauges_and_quantiles() {
        let s = sample_snapshot();
        let out = render_top(&s);
        assert!(out.contains("events_committed"), "{out}");
        assert!(out.contains("gvt_ns"), "{out}");
        assert!(out.contains("commit_batch"), "{out}");
        assert!(out.contains("2500 events/s"), "{out}");
        assert!(snapshot_buckets_valid(&s));
    }

    #[test]
    fn last_snapshot_skips_foreign_lines_and_picks_newest() {
        let s1 = serde_json::to_string(&sample_snapshot()).unwrap();
        let mut newer = sample_snapshot();
        newer.seq = 7;
        let s2 = serde_json::to_string(&newer).unwrap();
        let text = format!("{{\"record\":\"manifest\"}}\n{s1}\n{s2}\n{{\"not\":\"json\"");
        let got = last_snapshot_in_jsonl(&text).expect("snapshot found");
        assert_eq!(got.seq, 7);
        assert!(last_snapshot_in_jsonl("{\"record\":\"manifest\"}\n").is_none());
    }
}
