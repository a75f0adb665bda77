//! Event-level causal tracing.
//!
//! A [`Tracer`] records, for every executed event, enough metadata to
//! rebuild the event dependency DAG after the run: the executing LP, the
//! event's `(recv_time, send_time, src)` coordinates, its uid, the range
//! of uid sequence numbers handed to the events it sent (its children),
//! a model-supplied kind tag ([`crate::Lp::trace_kind`]) and a sampled
//! handler duration. Scheduler phases (barrier waits) are recorded as
//! wall-clock spans per worker thread.
//!
//! ## Parent linkage
//!
//! Envelopes are not widened for tracing. Instead each execution record
//! stores `child_lo` — the sender's tiebreak counter *before* the
//! handler ran — and `children`, the number of sends sealed by that
//! execution. A child event with uid `(src, seq)` belongs to the
//! execution of `src` whose `[child_lo, child_lo + children)` range
//! contains `seq`.
//!
//! ## Cost model
//!
//! With no tracer attached schedulers pay one `Option` test per event.
//! When attached, each worker owns a [`TraceBuf`] and pays two `Vec`
//! pushes plus (every `sample_rate` events) two clock reads; buffers
//! drain into the shared [`Tracer`] once per run. Capacity is bounded:
//! worker buffers draw event/span budget from shared atomics in chunks,
//! and once the budget is gone records are counted as dropped rather
//! than allocated.

use crate::event::Envelope;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default cap on stored event records across the tracer's lifetime.
pub const DEFAULT_EVENT_CAP: u64 = 1 << 20;
/// Default cap on stored span records across the tracer's lifetime.
pub const DEFAULT_SPAN_CAP: u64 = 1 << 18;
/// Budget is drawn from the shared counters in chunks so the hot path
/// touches an atomic once per `CHUNK` records, not once per record.
const EVENT_CHUNK: u64 = 4096;
const SPAN_CHUNK: u64 = 256;

/// One executed-event record. All times are nanoseconds; virtual times
/// (`recv_ns`, `send_ns`) come from the simulation clock, `dur_ns` from
/// the wall clock (sampled — see [`Tracer::new`]).
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Executing (destination) LP.
    pub lp: u32,
    /// Sending LP.
    pub src: u32,
    /// Model-defined kind tag ([`crate::Lp::trace_kind`]).
    pub kind: u16,
    /// Virtual receive time.
    pub recv_ns: u64,
    /// Virtual send time.
    pub send_ns: u64,
    /// Event uid (sender LP, the sender's tiebreak).
    pub uid_src: u32,
    pub uid_seq: u64,
    /// Sender-side tiebreak counter before the handler ran: the events this
    /// execution sent carry seqs in `[child_lo, child_lo + children)`.
    pub child_lo: u64,
    /// Number of events this execution sent.
    pub children: u32,
    /// Handler duration (measured every `sample_rate` events; in between,
    /// the thread's last measured value is carried forward).
    pub dur_ns: u64,
}

/// Scheduler phases recorded as wall-clock spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Barrier wait (conservative rounds, async horizon stalls).
    Barrier,
}

impl SpanKind {
    /// Stable lowercase label used in the Chrome export.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Barrier => "barrier",
        }
    }

    /// Chrome trace-viewer colour name.
    fn cname(self) -> &'static str {
        match self {
            SpanKind::Barrier => "bad",
        }
    }
}

/// One scheduler-phase span, wall-clock, relative to the tracer epoch.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpan {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-run metadata kept by the tracer.
struct RunMeta {
    label: String,
    sched: String,
    threads: usize,
    wall_ns: u64,
    end_ns: u64,
    /// Per-LP track names (index = LP id); empty → "lp N".
    lp_names: Vec<String>,
    /// Kind-tag names (index = kind); empty → "event".
    kind_names: Vec<String>,
}

/// A worker buffer handed back to the tracer at the end of a run.
struct SubmittedBuf {
    run: u32,
    thread: u32,
    events: Vec<TraceEvent>,
    spans: Vec<TraceSpan>,
}

#[derive(Default)]
struct Inner {
    runs: Vec<RunMeta>,
    bufs: Vec<SubmittedBuf>,
    /// Staged by the model layer, consumed by the next `open_run`.
    next_label: Option<String>,
    next_lp_names: Vec<String>,
    next_kind_names: Vec<String>,
}

/// Shared causal-event tracer. Attach with
/// [`crate::Simulation::set_tracer`]; export with
/// [`Tracer::to_chrome_json`].
pub struct Tracer {
    sample_rate: u32,
    start: Instant,
    event_budget: Arc<AtomicI64>,
    span_budget: Arc<AtomicI64>,
    events_dropped: AtomicU64,
    spans_dropped: AtomicU64,
    next_run: AtomicU32,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sample_rate", &self.sample_rate)
            .field("events", &self.event_count())
            .field("events_dropped", &self.events_dropped())
            .finish()
    }
}

impl Tracer {
    /// A tracer measuring handler duration on every `sample_rate`-th
    /// event per thread (1 = every event) with default capacity caps.
    pub fn new(sample_rate: u32) -> Self {
        Tracer::with_caps(sample_rate, DEFAULT_EVENT_CAP, DEFAULT_SPAN_CAP)
    }

    /// [`Tracer::new`] with explicit event/span record caps. Once a cap
    /// is reached further records are counted in
    /// [`Tracer::events_dropped`] / [`Tracer::spans_dropped`] and the
    /// Chrome export carries the counts in `otherData`.
    pub fn with_caps(sample_rate: u32, event_cap: u64, span_cap: u64) -> Self {
        Tracer {
            sample_rate: sample_rate.max(1),
            start: Instant::now(),
            event_budget: Arc::new(AtomicI64::new(event_cap.min(i64::MAX as u64) as i64)),
            span_budget: Arc::new(AtomicI64::new(span_cap.min(i64::MAX as u64) as i64)),
            events_dropped: AtomicU64::new(0),
            spans_dropped: AtomicU64::new(0),
            next_run: AtomicU32::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Duration-sampling divisor (≥ 1).
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Stage a human-readable label (e.g. a sweep key) for the next run.
    pub fn label_next_run(&self, label: &str) {
        self.inner.lock().next_label = Some(label.to_string());
    }

    /// Stage per-LP track names for the next run (index = LP id).
    pub fn stage_lp_names(&self, names: Vec<String>) {
        self.inner.lock().next_lp_names = names;
    }

    /// Stage kind-tag names for the next run (index = kind tag).
    pub fn stage_kind_names(&self, names: Vec<String>) {
        self.inner.lock().next_kind_names = names;
    }

    /// Replace the LP track names of the most recently opened run — lets
    /// a model refresh labels with end-of-run state (e.g. a rank that
    /// finished vs. one that blocked).
    pub fn refresh_lp_names(&self, names: Vec<String>) {
        let mut inner = self.inner.lock();
        if let Some(run) = inner.runs.last_mut() {
            run.lp_names = names;
        }
    }

    /// Called by a scheduler at run start; consumes any staged label and
    /// names. Returns the run id workers pass to [`Tracer::buf`].
    pub fn open_run(&self, sched: &str, threads: usize) -> u32 {
        let run = self.next_run.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let label = inner.next_label.take().unwrap_or_default();
        let lp_names = std::mem::take(&mut inner.next_lp_names);
        let kind_names = std::mem::take(&mut inner.next_kind_names);
        inner.runs.push(RunMeta {
            label,
            sched: sched.to_string(),
            threads,
            wall_ns: 0,
            end_ns: 0,
            lp_names,
            kind_names,
        });
        run
    }

    /// Called by a scheduler after all workers submitted their buffers.
    pub fn close_run(&self, run: u32, wall_ns: u64, end_ns: u64) {
        let mut inner = self.inner.lock();
        if let Some(meta) = inner.runs.get_mut(run as usize) {
            meta.wall_ns = wall_ns;
            meta.end_ns = end_ns;
        }
    }

    /// A fresh per-worker buffer for `run`. Cheap: two `Arc` clones.
    pub fn buf(&self, run: u32, thread: u32) -> TraceBuf {
        TraceBuf {
            run,
            thread,
            start: self.start,
            rate: self.sample_rate,
            countdown: 1,
            dry: false,
            last_dur: 0,
            event_credit: 0,
            span_credit: 0,
            dropped_events: 0,
            dropped_spans: 0,
            event_budget: Arc::clone(&self.event_budget),
            span_budget: Arc::clone(&self.span_budget),
            events: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Hand a worker buffer back. Folds the worker's drop counters into
    /// the tracer totals.
    pub fn submit(&self, buf: TraceBuf) {
        self.events_dropped.fetch_add(buf.dropped_events, Ordering::Relaxed);
        self.spans_dropped.fetch_add(buf.dropped_spans, Ordering::Relaxed);
        self.inner.lock().bufs.push(SubmittedBuf {
            run: buf.run,
            thread: buf.thread,
            events: buf.events,
            spans: buf.spans,
        });
    }

    /// Event records lost to the capacity cap.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped.load(Ordering::Relaxed)
    }

    /// Span records lost to the capacity cap.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped.load(Ordering::Relaxed)
    }

    /// Total stored event records across all runs.
    pub fn event_count(&self) -> usize {
        self.inner.lock().bufs.iter().map(|b| b.events.len()).sum()
    }

    /// Nanoseconds since the tracer was created (the span epoch).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Export everything recorded so far as Chrome trace-event JSON
    /// (loadable in Perfetto / chrome://tracing).
    ///
    /// Each run becomes two processes: pid `2*run` holds one track per
    /// LP on the *virtual* timeline (`ts` = recv time), pid `2*run + 1`
    /// holds one track per worker thread on the *wall* timeline with the
    /// scheduler-phase spans. A `union_run` metadata record per run
    /// carries the label, scheduler, thread count, wall time, final
    /// virtual time and sample rate.
    pub fn to_chrome_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out =
            String::with_capacity(256 + inner.bufs.iter().map(buf_estimate).sum::<usize>());
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (run, meta) in inner.runs.iter().enumerate() {
            let run = run as u32;
            let mut bufs: Vec<&SubmittedBuf> = inner.bufs.iter().filter(|b| b.run == run).collect();
            bufs.sort_by_key(|b| b.thread);
            let vpid = 2 * run;
            let spid = 2 * run + 1;
            let label = if meta.label.is_empty() { "run".to_string() } else { meta.label.clone() };

            // Process / thread metadata.
            push_meta(
                &mut out,
                &mut first,
                vpid,
                0,
                "process_name",
                &format!("run {run} · {label} · {}:{} · virtual time", meta.sched, meta.threads),
            );
            push_meta(
                &mut out,
                &mut first,
                spid,
                0,
                "process_name",
                &format!("run {run} · {label} · scheduler (wall)"),
            );
            let mut lp_seen: Vec<u32> =
                bufs.iter().flat_map(|b| b.events.iter().map(|e| e.lp)).collect();
            lp_seen.sort_unstable();
            lp_seen.dedup();
            for &lp in &lp_seen {
                let name =
                    meta.lp_names.get(lp as usize).cloned().unwrap_or_else(|| format!("lp {lp}"));
                push_meta(&mut out, &mut first, vpid, lp, "thread_name", &name);
            }
            for b in &bufs {
                if !b.spans.is_empty() {
                    push_meta(
                        &mut out,
                        &mut first,
                        spid,
                        b.thread,
                        "thread_name",
                        &format!("worker {}", b.thread),
                    );
                }
            }
            // Run descriptor (read back by the critical-path analyzer).
            sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":{vpid},\"tid\":0,\"name\":\"union_run\",\"args\":{{\
                 \"run\":{run},\"label\":\"{}\",\"sched\":\"{}\",\"threads\":{},\
                 \"wall_ns\":{},\"end_ns\":{},\"sample_rate\":{}}}}}",
                escape(&label),
                escape(&meta.sched),
                meta.threads,
                meta.wall_ns,
                meta.end_ns,
                self.sample_rate,
            ));

            // LP tracks: sort by (lp, recv, stable index) so `ts` is
            // monotonic per track whatever order the workers recorded in.
            let mut order: Vec<(usize, usize)> = Vec::new();
            for (bi, b) in bufs.iter().enumerate() {
                for ei in 0..b.events.len() {
                    order.push((bi, ei));
                }
            }
            order.sort_by_key(|&(bi, ei)| {
                let e = &bufs[bi].events[ei];
                (e.lp, e.recv_ns, bi, ei)
            });
            for (bi, ei) in order {
                let e = &bufs[bi].events[ei];
                let name =
                    meta.kind_names.get(e.kind as usize).map(String::as_str).unwrap_or("event");
                sep(&mut out, &mut first);
                out.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":{vpid},\"tid\":{},\"name\":\"{}\",\
                     \"ts\":{},\"dur\":{}",
                    e.lp,
                    escape(name),
                    micros(e.recv_ns),
                    micros(e.dur_ns),
                ));
                out.push_str(&format!(
                    ",\"args\":{{\"src\":{},\"st\":{},\"us\":{},\"q\":{},\"lo\":{},\
                     \"nc\":{},\"k\":{}}}}}",
                    e.src, e.send_ns, e.uid_src, e.uid_seq, e.child_lo, e.children, e.kind,
                ));
            }

            // Scheduler-phase spans, wall clock, one track per worker.
            for b in &bufs {
                let mut spans: Vec<&TraceSpan> = b.spans.iter().collect();
                spans.sort_by_key(|s| s.start_ns);
                for s in spans {
                    sep(&mut out, &mut first);
                    out.push_str(&format!(
                        "{{\"ph\":\"X\",\"pid\":{spid},\"tid\":{},\"name\":\"{}\",\
                         \"ts\":{},\"dur\":{},\"cname\":\"{}\",\"args\":{{}}}}",
                        b.thread,
                        s.kind.label(),
                        micros(s.start_ns),
                        micros(s.dur_ns),
                        s.kind.cname(),
                    ));
                }
            }
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"tool\":\"union-exp\",\
             \"events_dropped\":{},\"spans_dropped\":{}}}}}",
            self.events_dropped(),
            self.spans_dropped(),
        ));
        out
    }
}

/// Rough per-buffer JSON size for the export's initial allocation.
fn buf_estimate(b: &SubmittedBuf) -> usize {
    b.events.len() * 160 + b.spans.len() * 120
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn push_meta(out: &mut String, first: &mut bool, pid: u32, tid: u32, kind: &str, name: &str) {
    sep(out, first);
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    ));
}

/// Nanoseconds → microseconds with nanosecond precision (3 decimals),
/// the unit Chrome trace `ts`/`dur` fields use.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Per-worker trace buffer. Created with [`Tracer::buf`], filled on the
/// scheduler hot path, handed back with [`Tracer::submit`].
pub struct TraceBuf {
    run: u32,
    thread: u32,
    start: Instant,
    rate: u32,
    countdown: u32,
    /// Shared event budget hit zero: stop reading the clock.
    dry: bool,
    last_dur: u64,
    event_credit: u64,
    span_credit: u64,
    dropped_events: u64,
    dropped_spans: u64,
    event_budget: Arc<AtomicI64>,
    span_budget: Arc<AtomicI64>,
    events: Vec<TraceEvent>,
    spans: Vec<TraceSpan>,
}

impl TraceBuf {
    /// The run this buffer records into.
    pub fn run(&self) -> u32 {
        self.run
    }

    /// Call before the handler runs: returns a start instant on the
    /// events whose duration is measured this time (every
    /// `sample_rate`-th per thread), `None` otherwise. Once the shared
    /// event budget is exhausted (it never refills) the clock is not
    /// read at all — records would be dropped anyway, and on hosts
    /// without a vDSO clock two reads per event dominate tracing cost.
    #[inline]
    pub fn event_start(&mut self) -> Option<Instant> {
        if self.dry {
            return None;
        }
        if self.rate <= 1 {
            return Some(Instant::now());
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.rate;
            Some(Instant::now())
        } else {
            None
        }
    }

    /// The shared event budget ran out: no further event is recorded.
    #[inline]
    pub(crate) fn is_dry(&self) -> bool {
        self.dry
    }

    /// Count every one of the `offered` executed events that was not
    /// recorded as dropped: a worker stops offering events to a dry buffer.
    pub(crate) fn settle(&mut self, offered: u64) {
        self.dropped_events = offered.saturating_sub(self.events.len() as u64);
    }

    /// Record one executed event. `uid_lo` is the destination LP's
    /// tiebreak counter before the handler ran, `children` the number of sends
    /// it sealed, `t0` the instant from [`TraceBuf::event_start`].
    #[inline]
    pub fn record<E>(
        &mut self,
        env: &Envelope<E>,
        uid_lo: u64,
        children: u32,
        kind: u16,
        t0: Option<Instant>,
    ) {
        if self.dry {
            self.dropped_events += 1;
            return;
        }
        let dur_ns = match t0 {
            Some(t0) => {
                let d = t0.elapsed().as_nanos() as u64;
                self.last_dur = d;
                d
            }
            None => self.last_dur,
        };
        if !self.take_event_credit() {
            return;
        }
        self.events.push(TraceEvent {
            lp: env.dst,
            src: env.src,
            kind,
            recv_ns: env.recv_time.as_ns(),
            send_ns: env.send_time.as_ns(),
            uid_src: env.uid.src,
            uid_seq: env.uid.seq,
            child_lo: uid_lo,
            children,
            dur_ns,
        });
    }

    /// Record a scheduler-phase span started at `t0` and ending now.
    #[inline]
    pub fn end_span(&mut self, kind: SpanKind, t0: Instant) {
        if !self.take_span_credit() {
            return;
        }
        let start_ns = t0.duration_since(self.start).as_nanos() as u64;
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.spans.push(TraceSpan { kind, start_ns, dur_ns });
    }

    #[inline]
    fn take_event_credit(&mut self) -> bool {
        if self.event_credit > 0 {
            self.event_credit -= 1;
            return true;
        }
        if self.event_budget.fetch_sub(EVENT_CHUNK as i64, Ordering::Relaxed) > 0 {
            self.event_credit = EVENT_CHUNK - 1;
            true
        } else {
            self.dry = true;
            self.dropped_events += 1;
            false
        }
    }

    #[inline]
    fn take_span_credit(&mut self) -> bool {
        if self.span_credit > 0 {
            self.span_credit -= 1;
            return true;
        }
        if self.span_budget.fetch_sub(SPAN_CHUNK as i64, Ordering::Relaxed) > 0 {
            self.span_credit = SPAN_CHUNK - 1;
            true
        } else {
            self.dropped_spans += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventUid;
    use crate::time::SimTime;

    fn env(dst: u32, src: u32, recv: u64, send: u64, seq: u64) -> Envelope<()> {
        Envelope {
            recv_time: SimTime(recv),
            send_time: SimTime(send),
            src,
            dst,
            tiebreak: seq,
            uid: EventUid { src, seq },
            payload: (),
        }
    }

    #[test]
    fn records_and_exports_one_run() {
        let tr = Tracer::new(1);
        tr.label_next_run("demo");
        tr.stage_kind_names(vec!["net".into(), "comm".into()]);
        let run = tr.open_run("sequential", 1);
        let mut buf = tr.buf(run, 0);
        let t0 = buf.event_start();
        buf.record(&env(0, 0, 10, 0, 0), 0, 1, 1, t0);
        let t0 = buf.event_start();
        buf.record(&env(1, 0, 20, 10, 0), 1, 0, 0, t0);
        tr.submit(buf);
        tr.close_run(run, 1000, 20);
        let json = tr.to_chrome_json();
        assert!(json.contains("\"union_run\""), "{json}");
        assert!(json.contains("\"comm\""), "{json}");
        assert!(json.contains("\"sched\":\"sequential\""), "{json}");
        assert!(json.contains("\"nc\":1,\"k\":1}"), "{json}");
        assert_eq!(tr.events_dropped(), 0);
    }

    #[test]
    fn event_cap_counts_drops() {
        let tr = Tracer::with_caps(1, 2, 1);
        let run = tr.open_run("sequential", 1);
        let mut buf = tr.buf(run, 0);
        for i in 0..10 {
            let t0 = buf.event_start();
            buf.record(&env(0, 0, i, 0, i), i, 0, 0, t0);
        }
        tr.submit(buf);
        // The first chunk grant covers all 10 (chunked budgeting
        // overshoots by at most one chunk); a second buffer gets nothing.
        let mut buf2 = tr.buf(run, 1);
        for i in 0..5 {
            let t0 = buf2.event_start();
            buf2.record(&env(1, 1, i, 0, i), i, 0, 0, t0);
        }
        tr.submit(buf2);
        assert_eq!(tr.events_dropped(), 5);
        assert!(tr.to_chrome_json().contains("\"events_dropped\":5"));
    }

    #[test]
    fn sampling_carries_last_measured_duration() {
        let tr = Tracer::new(4);
        let run = tr.open_run("sequential", 1);
        let mut buf = tr.buf(run, 0);
        let mut measured = 0;
        for i in 0..8 {
            let t0 = buf.event_start();
            measured += usize::from(t0.is_some());
            buf.record(&env(0, 0, i, 0, i), i, 0, 0, t0);
        }
        assert_eq!(measured, 2, "rate 4 over 8 events measures twice");
        tr.submit(buf);
    }

    #[test]
    fn chrome_ts_is_monotonic_per_track_even_when_recorded_out_of_order() {
        let tr = Tracer::new(1);
        let run = tr.open_run("conservative-async", 1);
        let mut buf = tr.buf(run, 0);
        // t=100µs recorded before t=50µs: the track must still come out
        // in timestamp order.
        let t0 = buf.event_start();
        buf.record(&env(0, 1, 100_000, 0, 9), 0, 0, 0, t0);
        let t0 = buf.event_start();
        buf.record(&env(0, 1, 50_000, 0, 8), 0, 0, 0, t0);
        tr.submit(buf);
        let json = tr.to_chrome_json();
        let i50 = json.find("\"ts\":50.000").expect("t=50 event");
        let i100 = json.find("\"ts\":100.000").expect("t=100 event");
        assert!(i50 < i100, "events must be sorted by ts per track");
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
