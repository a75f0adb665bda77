//! # telemetry
//!
//! Run-telemetry for the simulation stack: a bounded JSONL sink of
//! self-describing records, plus the live metrics plane ([`live`]). The
//! schedulers in `ross`, the network layer in `codes`, and the `harness`
//! CLI all write into one [`Recorder`]; the harness dumps it as one JSON
//! object per line (`--telemetry <path>`).
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** Everything hangs off an
//!    `Option<Arc<Recorder>>`; with `None` the schedulers skip even the
//!    clock reads.
//! 2. **Cheap when enabled.** Counters are plain `u64`s in worker-local or
//!    LP-local state, folded into one record per run at its end; timing
//!    uses a handful of `Instant` reads per round. The live registry reads
//!    the same worker counters at synchronization points, never per event.
//! 3. **Bounded.** The sink holds at most `capacity` records; overflow is
//!    counted in [`Recorder::dropped`] rather than growing without limit.
//!
//! Records are self-describing: every one carries a `record` field naming
//! its schema (`manifest`, `scheduler`, `network`, `phase`). The first
//! record of a harness run is always the [`ManifestRecord`], so an
//! experiment is reproducible from its telemetry file alone.

pub mod live;

use parking_lot::Mutex;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default bound on the number of buffered records.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The bounded JSONL sink. Records are serialized eagerly (one compact
/// JSON object per line) so emitting never borrows the caller's state past
/// the call, and the buffer is a flat `Vec<String>` behind one mutex —
/// contended only at run boundaries, not during event processing.
pub struct Recorder {
    start: Instant,
    capacity: usize,
    lines: Mutex<Vec<String>>,
    dropped: AtomicU64,
    ser_errors: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("records", &self.lines.lock().len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::with_capacity(DEFAULT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            start: Instant::now(),
            capacity,
            lines: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            ser_errors: AtomicU64::new(0),
        }
    }

    /// Serialize `rec` and append it as one JSONL line. Over capacity
    /// the record is counted in [`Recorder::dropped`]; a record that
    /// fails to serialize yields `Err` and buffers nothing. Use this on
    /// paths that can report the error (a bad record must not kill a
    /// long run); fire-and-forget callers use [`Recorder::emit`].
    pub fn try_emit<T: Serialize>(&self, rec: &T) -> std::io::Result<()> {
        let line = serde_json::to_string(rec).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("telemetry record serialization: {e}"),
            )
        })?;
        let mut lines = self.lines.lock();
        if lines.len() < self.capacity {
            lines.push(line);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Serialize `rec` and append it as one JSONL line. Over capacity the
    /// record is counted in [`Recorder::dropped`] instead. Serialization
    /// failures never panic: they are counted in
    /// [`Recorder::serialization_errors`] and surfaced as a trailer line
    /// by [`Recorder::write_jsonl`].
    pub fn emit<T: Serialize>(&self, rec: &T) {
        if self.try_emit(rec).is_err() {
            self.ser_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.lines.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.lock().is_empty()
    }

    /// Records rejected because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records lost because they failed to serialize (see
    /// [`Recorder::emit`]).
    pub fn serialization_errors(&self) -> u64 {
        self.ser_errors.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the recorder was created (phase timing base).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Snapshot of the buffered lines, in emission order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().clone()
    }

    /// The whole buffer as one JSONL document (trailing newline included
    /// when non-empty).
    pub fn to_jsonl(&self) -> String {
        let lines = self.lines.lock();
        let mut out = String::new();
        for l in lines.iter() {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Write the buffer to `path` as JSONL, creating missing parent
    /// directories. When records were dropped a final
    /// `{"type":"drops","count":N}` line makes the truncation visible in
    /// the file itself, not just in-process.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = StreamWriter::create(path)?;
        w.write_str(&self.to_jsonl())?;
        let dropped = self.dropped();
        if dropped > 0 {
            w.write_str(&format!("{{\"type\":\"drops\",\"count\":{dropped}}}\n"))?;
        }
        let ser_errors = self.serialization_errors();
        if ser_errors > 0 {
            w.write_str(&format!(
                "{{\"type\":\"serialization_errors\",\"count\":{ser_errors}}}\n"
            ))?;
        }
        w.finish()
    }
}

/// A buffered file sink that creates missing parent directories — the
/// write path for telemetry JSONL and Chrome-trace exports, which can
/// run to hundreds of megabytes and should not be assembled via
/// `fs::write` of throwaway intermediate copies.
pub struct StreamWriter {
    inner: std::io::BufWriter<std::fs::File>,
}

impl StreamWriter {
    /// Open `path` for writing (truncating), creating parent directories.
    pub fn create(path: &std::path::Path) -> std::io::Result<StreamWriter> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        Ok(StreamWriter { inner: std::io::BufWriter::new(std::fs::File::create(path)?) })
    }

    pub fn write_str(&mut self, s: &str) -> std::io::Result<()> {
        use std::io::Write;
        self.inner.write_all(s.as_bytes())
    }

    /// Flush and close.
    pub fn finish(mut self) -> std::io::Result<()> {
        use std::io::Write;
        self.inner.flush()
    }
}

/// First record of every harness run: everything needed to reproduce the
/// experiment.
#[derive(Clone, Debug, Serialize)]
pub struct ManifestRecord {
    pub record: String,
    /// Harness subcommand (`sweep`, `fig8`, ...).
    pub cmd: String,
    /// Full command-line arguments as given.
    pub args: Vec<String>,
    pub seed: u64,
    /// Scheduler spec string (`seq`, `par:T`, `async:T`).
    pub sched: String,
    /// `git describe --always --dirty` of the working tree, or `unknown`.
    pub git: String,
    /// Logical cores on the host that produced this file — per-thread
    /// busy/blocked numbers are meaningless without it.
    pub host_cores: u64,
    /// Free-form configuration summary (profile, networks, workloads...).
    pub config: serde::Value,
}

impl ManifestRecord {
    pub fn new(cmd: &str, args: Vec<String>, seed: u64, sched: &str, git: &str) -> ManifestRecord {
        ManifestRecord {
            record: "manifest".to_string(),
            cmd: cmd.to_string(),
            args,
            seed,
            sched: sched.to_string(),
            git: git.to_string(),
            host_cores: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
            config: serde::Value::Null,
        }
    }
}

/// Per-thread detail inside a [`SchedulerRecord`].
#[derive(Clone, Debug, Default, Serialize)]
pub struct ThreadRecord {
    pub thread: usize,
    /// Events this thread executed.
    pub events: u64,
    /// Wall time spent executing events.
    pub busy_ns: u64,
    /// Wall time spent waiting at barriers / for peer horizons.
    pub blocked_ns: u64,
    /// Wall time not accounted busy or blocked (drains, bookkeeping).
    pub idle_ns: u64,
    /// Largest single mailbox drain observed by this thread.
    pub mailbox_high_water: u64,
}

/// One scheduler run: counters every scheduler reports, plus the
/// parallel-only ones (zero where not applicable).
#[derive(Clone, Debug, Serialize)]
pub struct SchedulerRecord {
    pub record: String,
    /// `sequential`, `conservative-parallel` or `conservative-async`.
    pub scheduler: String,
    pub threads: usize,
    /// Pending-event queue implementation: `heap` or `ladder`.
    pub queue: String,
    /// Push + pop operations this run performed (summed over per-thread
    /// queues for the parallel schedulers).
    pub queue_ops: u64,
    /// Queue length high-water mark (max over per-thread queues). A
    /// lifetime maximum: the sequential scheduler's pending queue may have
    /// served earlier legs, or a parallel worker whose queue it adopted.
    pub queue_max_len: u64,
    /// Envelope-pool population high-water mark (max over per-thread
    /// queues): the slab never grows past this many live events. A
    /// lifetime maximum, like `queue_max_len`.
    pub pool_high_water: u64,
    /// Envelope-pool slot reuses this run (summed over per-thread
    /// queues): pushes served from the free list instead of fresh
    /// allocation.
    pub pool_recycled: u64,
    /// Bytes per envelope-pool slot: `pool_high_water × pool_slot_bytes`
    /// is the pending set's slab size.
    pub pool_slot_bytes: u64,
    /// Bytes of one LP's state in the LP slab (`size_of` the model's LP
    /// type): the step prefetches this much per upcoming event.
    pub lp_bytes: u64,
    pub committed: u64,
    pub remote_events: u64,
    /// Synchronization rounds (conservative windows).
    pub rounds: u64,
    /// Total nanoseconds workers spent stalled waiting for peer horizons
    /// to advance (conservative-async scheduler only).
    pub horizon_stall_ns: u64,
    /// Max observed gap between the most- and least-advanced published
    /// safe-horizons (conservative-async scheduler only).
    pub horizon_lag_max: u64,
    pub end_time_ns: u64,
    pub wall_ns: u64,
    pub per_thread: Vec<ThreadRecord>,
}

impl SchedulerRecord {
    pub fn new(scheduler: &str, threads: usize) -> SchedulerRecord {
        SchedulerRecord {
            record: "scheduler".to_string(),
            scheduler: scheduler.to_string(),
            threads,
            queue: String::new(),
            queue_ops: 0,
            queue_max_len: 0,
            pool_high_water: 0,
            pool_recycled: 0,
            pool_slot_bytes: 0,
            lp_bytes: 0,
            committed: 0,
            remote_events: 0,
            rounds: 0,
            horizon_stall_ns: 0,
            horizon_lag_max: 0,
            end_time_ns: 0,
            wall_ns: 0,
            per_thread: Vec::new(),
        }
    }
}

/// Per-application progress inside a [`NetworkRecord`].
#[derive(Clone, Debug, Default, Serialize)]
pub struct AppProgressRecord {
    pub app: String,
    pub ranks: u64,
    pub ranks_finished: u64,
    pub bytes_sent: u64,
    pub ops_executed: u64,
    /// Simulated finish time of the slowest rank, if every rank finished.
    pub makespan_ns: Option<u64>,
}

/// Network-layer counters harvested from LP state after a `codes` run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct NetworkRecord {
    pub record: String,
    pub packets_injected: u64,
    pub packets_delivered: u64,
    pub bytes_injected: u64,
    /// Packets that queued waiting for VC credits at routers.
    pub credit_stalls: u64,
    pub apps: Vec<AppProgressRecord>,
}

impl NetworkRecord {
    pub fn new() -> NetworkRecord {
        NetworkRecord { record: "network".to_string(), ..Default::default() }
    }
}

/// Where a causal trace was exported and how complete it is — emitted
/// into the telemetry stream when a run records both.
#[derive(Clone, Debug, Serialize)]
pub struct TraceExportRecord {
    pub record: String,
    pub path: String,
    /// Executed-event records stored across all runs.
    pub events: u64,
    /// Event/span records lost to the tracer's capacity caps.
    pub events_dropped: u64,
    pub spans_dropped: u64,
}

impl TraceExportRecord {
    pub fn new(path: &str, events: u64, events_dropped: u64, spans_dropped: u64) -> Self {
        TraceExportRecord {
            record: "trace".to_string(),
            path: path.to_string(),
            events,
            events_dropped,
            spans_dropped,
        }
    }
}

/// Wall time of one harness phase (one sweep run, report generation...).
#[derive(Clone, Debug, Serialize)]
pub struct PhaseRecord {
    pub record: String,
    pub phase: String,
    pub wall_ns: u64,
}

impl PhaseRecord {
    pub fn new(phase: &str, wall_ns: u64) -> PhaseRecord {
        PhaseRecord { record: "phase".to_string(), phase: phase.to_string(), wall_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_emits_jsonl_with_discriminators() {
        let r = Recorder::new();
        r.emit(&ManifestRecord::new("sweep", vec!["--iters".into(), "1".into()], 42, "seq", "g0"));
        let mut sched = SchedulerRecord::new("sequential", 1);
        sched.committed = 10;
        r.emit(&sched);
        r.emit(&PhaseRecord::new("sweep", 1234));
        assert_eq!(r.len(), 3);
        let doc = r.to_jsonl();
        let mut kinds = Vec::new();
        for line in doc.lines() {
            let v: serde::Value = serde_json::from_str(line).expect("valid JSON line");
            kinds.push(v.get("record").and_then(|r| r.as_str()).unwrap().to_string());
        }
        assert_eq!(kinds, ["manifest", "scheduler", "phase"]);
    }

    #[test]
    fn recorder_is_bounded() {
        let r = Recorder::with_capacity(2);
        for i in 0..5u64 {
            r.emit(&PhaseRecord::new("p", i));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn write_jsonl_creates_parents_and_records_drops() {
        let r = Recorder::with_capacity(1);
        r.emit(&PhaseRecord::new("kept", 1));
        r.emit(&PhaseRecord::new("lost", 2));
        let dir = std::env::temp_dir().join(format!("telemetry-jsonl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.jsonl");
        r.write_jsonl(&path).expect("parent directories are created");
        let doc = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kept\""));
        assert_eq!(lines[1], "{\"type\":\"drops\",\"count\":1}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_config() {
        let mut m = ManifestRecord::new("fig8", vec![], 7, "par:4", "abc123");
        m.config = serde::Value::Object(vec![(
            "profile".to_string(),
            serde::Value::Str("quick".to_string()),
        )]);
        let line = serde_json::to_string(&m).unwrap();
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(7));
        assert_eq!(
            v.get("config").and_then(|c| c.get("profile")).and_then(|p| p.as_str()),
            Some("quick")
        );
    }
}
