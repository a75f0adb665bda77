//! # telemetry::live — the live metrics plane
//!
//! Everything in the parent module is *post-hoc*: records buffer until the
//! run exits. This module is the *in-flight* counterpart — the substrate a
//! long-running `union-exp serve` (ROADMAP item 5) will stream to clients:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and log-bucketed
//!   HDR-style [`Histogram`]s: one `AtomicU64` per counter and gauge, one
//!   mutex-guarded [`Histogram`] per histogram name, shared by every clone
//!   of a handle ([`CounterHandle`], [`GaugeHandle`], [`HistogramHandle`]).
//!   The engine records at most once per scheduler round, or once per
//!   8 192 commits, per worker — from counters the workers keep anyway
//!   (`ross::live`) — so there is no per-event traffic to spread.
//! * [`Sampler`] — a background thread that takes periodic **delta
//!   snapshots** of the registry into a bounded ring of timestamped
//!   [`SnapshotRecord`]s, and optionally forwards each snapshot to a sink
//!   (the shard gang streams them over its JSONL control socket).
//! * [`Server`] — a tiny exposition endpoint over a std `TcpListener`
//!   (no new deps): `GET /metrics` serves Prometheus text format,
//!   `GET /snapshot` a JSON snapshot.
//! * [`GangAggregator`] — merges per-worker snapshots (counter-sum,
//!   gauge-max, histogram-merge) so one endpoint observes a whole shard
//!   gang.
//!
//! ## Delta semantics
//!
//! Handles only ever *add*; the registry state is cumulative and monotone.
//! A [`SnapshotRecord`] carries both the cumulative `total` and the
//! since-last-snapshot `delta` per counter, so consecutive deltas sum back
//! to the cumulative value bit-exactly (property-tested). Histograms are
//! snapshotted cumulatively with **sparse** nonzero buckets, which makes
//! gang aggregation lossless: merging two snapshots is bucket-wise
//! addition, the same operation as [`Histogram::merge`].

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Histogram: log-bucketed, lossless merge, quantiles
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave, i.e. values in
/// the same bucket differ by at most ~3.1%.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32

/// Total bucket count covering the full `u64` range: values `0..32` get
/// exact unit buckets, every octave above contributes 32 sub-buckets.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize - 1) * SUB + 2 * SUB; // 1984

/// Map a value to its bucket index. Exact below 32; above, the bucket is
/// `[top << s, (top+1) << s)` where `top` keeps the leading `SUB_BITS+1`
/// bits of the value.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let m = 63 - v.leading_zeros(); // m >= SUB_BITS
        let s = m - SUB_BITS;
        let top = (v >> s) as usize; // in [SUB, 2*SUB)
        (s as usize) * SUB + top
    }
}

/// Inclusive `[lo, hi]` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        (index as u64, index as u64)
    } else {
        // bucket_index gives index = s*SUB + top with top in [SUB, 2*SUB).
        let s = index / SUB - 1;
        let top = (index - s * SUB) as u64; // in [SUB, 2*SUB)
        let lo = top << s;
        let hi = lo + ((1u64 << s) - 1);
        (lo, hi)
    }
}

/// A plain (non-atomic) log-bucketed histogram: the value type snapshots,
/// merges, and property tests operate on. Merge is bucket-wise addition —
/// associative, commutative, and lossless (count and sum are preserved
/// bit-exactly; `wrapping_add` keeps even pathological sums associative).
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: vec![0; NUM_BUCKETS] }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bucket-wise merge: lossless, associative, commutative.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// The `q`-quantile (`0.0..=1.0`): the upper bound of the bucket
    /// holding the `ceil(q·count)`-th smallest recorded value, clamped to
    /// the observed max. The result therefore lands in the **same log
    /// bucket** as the exact quantile — within ~3.1% relative error.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Nonzero `(bucket_index, count)` pairs, ascending — the wire format.
    pub fn sparse(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Rebuild from the wire format produced by [`Histogram::sparse`].
    pub fn from_sparse(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        sparse: &[(u32, u64)],
    ) -> Histogram {
        let mut h = Histogram::new();
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        for &(i, c) in sparse {
            if (i as usize) < NUM_BUCKETS {
                h.buckets[i as usize] += c;
            }
        }
        h
    }
}

// ---------------------------------------------------------------------------
// Live storage: one cell per metric
// ---------------------------------------------------------------------------

/// Counter handle: one relaxed `fetch_add` per call. Clones share the
/// cell, so any number of threads may record through them.
#[derive(Clone)]
pub struct CounterHandle {
    inner: Arc<AtomicU64>,
}

impl CounterHandle {
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    pub fn total(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// Gauge handle: a single atomic. `set` stores the latest value,
/// `observe_max` keeps a running high-water mark — both wait-free.
#[derive(Clone)]
pub struct GaugeHandle {
    inner: Arc<AtomicU64>,
}

impl GaugeHandle {
    #[inline]
    pub fn set(&self, v: u64) {
        self.inner.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn observe_max(&self, v: u64) {
        self.inner.fetch_max(v, Ordering::Relaxed);
    }
}

/// Histogram handle: a [`Histogram`] behind a mutex. Clones share it.
#[derive(Clone)]
pub struct HistogramHandle {
    inner: Arc<Mutex<Histogram>>,
}

impl HistogramHandle {
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.lock().record(v);
    }

    pub fn read(&self) -> Histogram {
        self.inner.lock().clone()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Shared registry of named live metrics. Registration (name → metric)
/// takes a mutex; counters and gauges then record through one atomic
/// each, histograms through their own mutex. Names may carry
/// Prometheus-style labels (`app_ops{app="AlexNet"}`) — the exposition
/// renderer splits them out.
pub struct MetricsRegistry {
    start: Instant,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counters.lock().len())
            .field("gauges", &self.gauges.lock().len())
            .field("histograms", &self.histograms.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            start: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Milliseconds since the registry was created — the snapshot clock.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Get-or-register a counter.
    pub fn counter(&self, name: &str) -> CounterHandle {
        let mut map = self.counters.lock();
        CounterHandle { inner: Arc::clone(map.entry(name.to_string()).or_default()) }
    }

    pub fn gauge(&self, name: &str) -> GaugeHandle {
        let mut map = self.gauges.lock();
        GaugeHandle { inner: Arc::clone(map.entry(name.to_string()).or_default()) }
    }

    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut map = self.histograms.lock();
        HistogramHandle { inner: Arc::clone(map.entry(name.to_string()).or_default()) }
    }

    /// Cumulative snapshot of every registered metric (deltas zero — see
    /// [`Sampler`] for delta computation against a previous snapshot).
    pub fn snapshot(&self) -> SnapshotRecord {
        let mut snap = SnapshotRecord::empty(self.elapsed_ms());
        for (name, c) in self.counters.lock().iter() {
            let total = c.load(Ordering::Relaxed);
            snap.counters.push(CounterPoint { name: name.clone(), total, delta: total });
        }
        for (name, g) in self.gauges.lock().iter() {
            snap.gauges.push((name.clone(), g.load(Ordering::Relaxed)));
        }
        for (name, h) in self.histograms.lock().iter() {
            snap.histograms.push(HistogramSnapshot::from_histogram(name, &h.lock()));
        }
        snap
    }
}

// ---------------------------------------------------------------------------
// Snapshot records
// ---------------------------------------------------------------------------

/// One counter in a snapshot: cumulative `total` plus the since-last-
/// snapshot `delta`. Consecutive deltas sum back to `total` bit-exactly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CounterPoint {
    pub name: String,
    pub total: u64,
    pub delta: u64,
}

/// Cumulative histogram state with sparse nonzero buckets — lossless to
/// merge (bucket-wise add) and cheap to ship.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Nonzero `(bucket_index, count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    pub fn from_histogram(name: &str, h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: h.sparse(),
        }
    }

    pub fn to_histogram(&self) -> Histogram {
        Histogram::from_sparse(self.count, self.sum, self.min, self.max, &self.buckets)
    }
}

/// One timestamped observation of the whole registry. `record` is always
/// `"snapshot"` so the JSONL stream stays self-describing next to
/// telemetry records.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SnapshotRecord {
    pub record: String,
    /// Monotone sequence number within the emitting sampler.
    pub seq: u64,
    /// Milliseconds since the registry was created.
    pub wall_ms: u64,
    /// Milliseconds covered by the deltas (0 on the first snapshot).
    pub interval_ms: u64,
    pub counters: Vec<CounterPoint>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl SnapshotRecord {
    pub fn empty(wall_ms: u64) -> SnapshotRecord {
        SnapshotRecord {
            record: "snapshot".to_string(),
            seq: 0,
            wall_ms,
            interval_ms: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    pub fn counter_total(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.total)
    }

    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms.iter().find(|h| h.name == name).map(|h| h.to_histogram())
    }

    /// Events per second over the snapshot interval, from the
    /// `events_committed` counter delta.
    pub fn events_per_sec(&self) -> f64 {
        if self.interval_ms == 0 {
            return 0.0;
        }
        let delta =
            self.counters.iter().find(|c| c.name == "events_committed").map_or(0, |c| c.delta);
        delta as f64 * 1000.0 / self.interval_ms as f64
    }
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// Callback invoked with every snapshot the sampler takes (shard workers
/// use it to stream snapshots over the gang control socket).
pub type SnapshotSink = Box<dyn Fn(&SnapshotRecord) + Send + Sync>;

struct SamplerShared {
    registry: Arc<MetricsRegistry>,
    ring: Mutex<VecDeque<SnapshotRecord>>,
    ring_cap: usize,
    prev: Mutex<Option<SnapshotRecord>>,
    seq: AtomicU64,
    stop: AtomicBool,
    sink: Option<SnapshotSink>,
}

impl SamplerShared {
    /// Take one snapshot: cumulative read, delta against the previous
    /// snapshot, push into the bounded ring, forward to the sink.
    fn tick(&self) -> SnapshotRecord {
        let mut snap = self.registry.snapshot();
        snap.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut prev = self.prev.lock();
        if let Some(p) = prev.as_ref() {
            snap.interval_ms = snap.wall_ms.saturating_sub(p.wall_ms);
            for c in snap.counters.iter_mut() {
                let before = p.counter_total(&c.name).unwrap_or(0);
                c.delta = c.total.saturating_sub(before);
            }
        } else {
            snap.interval_ms = snap.wall_ms;
        }
        *prev = Some(snap.clone());
        drop(prev);
        {
            let mut ring = self.ring.lock();
            if ring.len() == self.ring_cap {
                ring.pop_front();
            }
            ring.push_back(snap.clone());
        }
        if let Some(sink) = &self.sink {
            sink(&snap);
        }
        snap
    }
}

/// Periodic snapshotter: a background thread calling
/// [`SamplerShared::tick`] every `interval` until stopped. Stop takes one
/// final snapshot so the last ring entry always reflects end-of-run
/// totals exactly.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    pub fn start(
        registry: Arc<MetricsRegistry>,
        interval: Duration,
        ring_cap: usize,
        sink: Option<SnapshotSink>,
    ) -> Sampler {
        let shared = Arc::new(SamplerShared {
            registry,
            ring: Mutex::new(VecDeque::new()),
            ring_cap: ring_cap.max(1),
            prev: Mutex::new(None),
            seq: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            sink,
        });
        let s2 = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("live-sampler".to_string())
            .spawn(move || {
                // Sleep in short slices so stop() never waits a full
                // interval behind a long sampling period.
                let slice = Duration::from_millis(interval.as_millis().clamp(1, 50) as u64);
                let mut next = Instant::now() + interval;
                while !s2.stop.load(Ordering::Relaxed) {
                    if Instant::now() >= next {
                        s2.tick();
                        next = Instant::now() + interval;
                    }
                    std::thread::sleep(slice);
                }
            })
            .expect("spawn live-sampler thread");
        Sampler { shared, thread: Some(thread) }
    }

    /// Take a snapshot immediately (outside the periodic cadence).
    pub fn sample_now(&self) -> SnapshotRecord {
        self.shared.tick()
    }

    /// Contents of the bounded ring, oldest first.
    pub fn ring(&self) -> Vec<SnapshotRecord> {
        self.shared.ring.lock().iter().cloned().collect()
    }

    /// Stop the thread, take one final snapshot, and return the ring.
    pub fn stop(mut self) -> Vec<SnapshotRecord> {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.shared.tick();
        self.ring()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Gang aggregation
// ---------------------------------------------------------------------------

/// Merges the latest snapshot from each gang worker into one gang-wide
/// view: counters sum, gauges take the max, histograms merge bucket-wise
/// (lossless — the same operation as [`Histogram::merge`]).
#[derive(Default)]
pub struct GangAggregator {
    workers: Mutex<BTreeMap<u64, SnapshotRecord>>,
}

impl GangAggregator {
    pub fn new() -> GangAggregator {
        GangAggregator::default()
    }

    /// Record `snap` as worker `worker`'s latest state (snapshots carry
    /// cumulative values, so only the newest per worker matters).
    pub fn ingest(&self, worker: u64, snap: SnapshotRecord) {
        let mut map = self.workers.lock();
        match map.get(&worker) {
            Some(old) if old.seq > snap.seq => {} // stale reordering — keep newest
            _ => {
                map.insert(worker, snap);
            }
        }
    }

    /// The gang-wide snapshot: counter-sum, gauge-max, histogram-merge.
    pub fn aggregate(&self) -> SnapshotRecord {
        let map = self.workers.lock();
        let mut counters: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
        let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
        let mut out = SnapshotRecord::empty(0);
        for snap in map.values() {
            out.wall_ms = out.wall_ms.max(snap.wall_ms);
            out.interval_ms = out.interval_ms.max(snap.interval_ms);
            out.seq += snap.seq;
            for c in &snap.counters {
                let e = counters.entry(c.name.clone()).or_insert((0, 0));
                e.0 += c.total;
                e.1 += c.delta;
            }
            for (name, v) in &snap.gauges {
                let e = gauges.entry(name.clone()).or_insert(0);
                *e = (*e).max(*v);
            }
            for h in &snap.histograms {
                hists.entry(h.name.clone()).or_default().merge(&h.to_histogram());
            }
        }
        out.counters = counters
            .into_iter()
            .map(|(name, (total, delta))| CounterPoint { name, total, delta })
            .collect();
        out.gauges = gauges.into_iter().collect();
        out.histograms =
            hists.iter().map(|(name, h)| HistogramSnapshot::from_histogram(name, h)).collect();
        out
    }
}

// ---------------------------------------------------------------------------
// Exposition rendering
// ---------------------------------------------------------------------------

/// Split `app_ops{app="AlexNet"}` into (`app_ops`, `{app="AlexNet"}`).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Sanitize a metric base name for Prometheus (`[a-zA-Z_][a-zA-Z0-9_]*`)
/// and prefix the exporter namespace.
fn prom_name(base: &str) -> String {
    let mut s = String::with_capacity(base.len() + 6);
    s.push_str("union_");
    for ch in base.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            s.push(ch);
        } else {
            s.push('_');
        }
    }
    s
}

/// Splice extra labels into an existing `{...}` suffix (or create one).
fn with_extra_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        // "{app=\"x\"}" -> "{app=\"x\",le=\"...\"}"
        format!("{},{}}}", &labels[..labels.len() - 1], extra)
    }
}

/// Render a snapshot in the Prometheus text exposition format
/// (text/plain; version=0.0.4): `# TYPE` lines, cumulative `_bucket`
/// series with `le` labels, `_sum` and `_count` per histogram.
pub fn render_prometheus(snap: &SnapshotRecord) -> String {
    let mut out = String::new();
    let mut typed: BTreeMap<String, &str> = BTreeMap::new();
    for c in &snap.counters {
        let (base, labels) = split_labels(&c.name);
        let pname = prom_name(base);
        if typed.insert(pname.clone(), "counter").is_none() {
            out.push_str(&format!("# TYPE {pname} counter\n"));
        }
        out.push_str(&format!("{pname}{labels} {}\n", c.total));
    }
    for (name, v) in &snap.gauges {
        let (base, labels) = split_labels(name);
        let pname = prom_name(base);
        if typed.insert(pname.clone(), "gauge").is_none() {
            out.push_str(&format!("# TYPE {pname} gauge\n"));
        }
        out.push_str(&format!("{pname}{labels} {v}\n"));
    }
    for h in &snap.histograms {
        let (base, labels) = split_labels(&h.name);
        let pname = prom_name(base);
        if typed.insert(pname.clone(), "histogram").is_none() {
            out.push_str(&format!("# TYPE {pname} histogram\n"));
        }
        let mut cum = 0u64;
        for &(i, c) in &h.buckets {
            cum += c;
            let le = bucket_bounds(i as usize).1;
            let lab = with_extra_label(labels, &format!("le=\"{le}\""));
            out.push_str(&format!("{pname}_bucket{lab} {cum}\n"));
        }
        let lab = with_extra_label(labels, "le=\"+Inf\"");
        out.push_str(&format!("{pname}_bucket{lab} {}\n", h.count));
        out.push_str(&format!("{pname}_sum{labels} {}\n", h.sum));
        out.push_str(&format!("{pname}_count{labels} {}\n", h.count));
    }
    out
}

// ---------------------------------------------------------------------------
// Exposition endpoint
// ---------------------------------------------------------------------------

/// Where the endpoint reads from: a single process's registry or a gang
/// aggregator. Both produce a fresh [`SnapshotRecord`] per request so
/// quantiles are live, not stale.
pub enum MetricsSource {
    Registry(Arc<MetricsRegistry>),
    Gang(Arc<GangAggregator>),
}

impl MetricsSource {
    pub fn snapshot(&self) -> SnapshotRecord {
        match self {
            MetricsSource::Registry(r) => r.snapshot(),
            MetricsSource::Gang(g) => g.aggregate(),
        }
    }
}

/// The in-process exposition endpoint: a std `TcpListener` accept loop on
/// its own thread. `GET /metrics` serves Prometheus text format,
/// `GET /snapshot` the JSON [`SnapshotRecord`]. One request per
/// connection (`Connection: close`) — scrape-shaped, not a web server.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `source`. The bound address is in [`Server::local_addr`].
    pub fn bind(addr: &str, source: MetricsSource) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread =
            std::thread::Builder::new().name("live-endpoint".to_string()).spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Serve inline: requests are tiny and scrapers are
                    // few; a thread pool would be ceremony.
                    let _ = serve_one(stream, &source);
                }
            })?;
        Ok(Server { addr: local, stop, thread: Some(thread) })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a wake-up connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_one(mut stream: TcpStream, source: &MetricsSource) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request = String::new();
    reader.read_line(&mut request)?;
    let path = request.split_whitespace().nth(1).unwrap_or("/");
    // Drain headers so well-behaved clients see a clean close.
    let mut line = String::new();
    while reader.read_line(&mut line)? > 2 {
        line.clear();
    }
    let (status, ctype, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(&source.snapshot()),
        ),
        "/snapshot" => (
            "200 OK",
            "application/json",
            serde_json::to_string(&source.snapshot()).unwrap_or_else(|_| "{}".to_string()),
        ),
        _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// One-shot client for [`Server`]: fetch `path` from `addr` and return the
/// response body (status line checked for 200).
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
    let mut stream = TcpStream::connect_timeout(&sock, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"));
    };
    if !head.starts_with("HTTP/1.1 200") && !head.starts_with("HTTP/1.0 200") {
        let status = head.lines().next().unwrap_or("").to_string();
        return Err(std::io::Error::other(format!("endpoint returned {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, u64::MAX / 3, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} idx={i} lo={lo} hi={hi}");
            assert!(i < NUM_BUCKETS);
        }
        // Buckets tile the line: consecutive buckets touch.
        for i in 0..2000usize.min(NUM_BUCKETS - 1) {
            let (_, hi) = bucket_bounds(i);
            let (lo2, _) = bucket_bounds(i + 1);
            assert_eq!(hi.wrapping_add(1), lo2, "gap between buckets {i} and {}", i + 1);
        }
    }

    #[test]
    fn histogram_records_and_queries() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.sum, 500_500);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        let p50 = h.quantile(0.5);
        assert_eq!(bucket_index(p50), bucket_index(500), "p50 {p50} not in 500's bucket");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), bucket_bounds(bucket_index(1)).1.min(h.max));
    }

    #[test]
    fn sharded_handles_merge_reads() {
        let reg = MetricsRegistry::new();
        let (c, h) = (reg.counter("events_committed"), reg.histogram("lat"));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..1000u64 {
                        c.add(t + 1);
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(c.total(), 1000 * (1 + 2 + 3 + 4));
        assert_eq!(reg.counter("events_committed").total(), c.total());
        let merged = reg.histogram("lat").read();
        assert_eq!(merged.count, 4000);
        assert_eq!(merged.sum, (0..4000u64).sum::<u64>());
        assert_eq!(merged.min, 0);
        assert_eq!(merged.max, 3999);
    }

    #[test]
    fn registry_snapshot_round_trips_json() {
        let reg = MetricsRegistry::new();
        reg.counter("events_committed").add(42);
        reg.gauge("gvt_ns").set(777);
        reg.histogram("commit_batch").record(9);
        let snap = reg.snapshot();
        let line = serde_json::to_string(&snap).unwrap();
        let back: SnapshotRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.counter_total("events_committed"), Some(42));
        assert_eq!(back.gauge("gvt_ns"), Some(777));
        let h = back.histogram("commit_batch").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 9);
    }

    #[test]
    fn gang_aggregation_rules() {
        let agg = GangAggregator::new();
        let reg_a = MetricsRegistry::new();
        reg_a.counter("events_committed").add(10);
        reg_a.gauge("gvt_ns").set(100);
        reg_a.histogram("commit_batch").record(8);
        let reg_b = MetricsRegistry::new();
        reg_b.counter("events_committed").add(32);
        reg_b.gauge("gvt_ns").set(70);
        reg_b.histogram("commit_batch").record(64);
        agg.ingest(0, reg_a.snapshot());
        agg.ingest(1, reg_b.snapshot());
        let g = agg.aggregate();
        assert_eq!(g.counter_total("events_committed"), Some(42)); // sum
        assert_eq!(g.gauge("gvt_ns"), Some(100)); // max
        let h = g.histogram("commit_batch").unwrap(); // merge
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 72);
        // A stale (lower-seq) re-ingest must not regress the worker.
        let mut stale = reg_b.snapshot();
        stale.seq = 0;
        stale.counters.clear();
        let mut fresh = reg_b.snapshot();
        fresh.seq = 5;
        agg.ingest(1, fresh);
        agg.ingest(1, stale);
        assert_eq!(agg.aggregate().counter_total("events_committed"), Some(42));
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("events_committed").add(7);
        reg.counter("app_ops{app=\"AlexNet\"}").add(3);
        reg.gauge("queue_depth").set(12);
        let h = reg.histogram("commit_batch");
        h.record(1);
        h.record(40);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE union_events_committed counter\n"));
        assert!(text.contains("union_events_committed 7\n"));
        assert!(text.contains("union_app_ops{app=\"AlexNet\"} 3\n"));
        assert!(text.contains("# TYPE union_queue_depth gauge\n"));
        assert!(text.contains("# TYPE union_commit_batch histogram\n"));
        assert!(text.contains("union_commit_batch_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("union_commit_batch_sum 41\n"));
        assert!(text.contains("union_commit_batch_count 2\n"));
        // Cumulative le buckets: the le="1" bucket holds 1, +Inf holds 2.
        assert!(text.contains("union_commit_batch_bucket{le=\"1\"} 1\n"));
    }

    #[test]
    fn endpoint_serves_metrics_and_snapshot() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("events_committed").add(99);
        let server =
            Server::bind("127.0.0.1:0", MetricsSource::Registry(Arc::clone(&reg))).unwrap();
        let addr = server.local_addr().to_string();
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.contains("union_events_committed 99"));
        let snap_json = http_get(&addr, "/snapshot").unwrap();
        let snap: SnapshotRecord = serde_json::from_str(&snap_json).unwrap();
        assert_eq!(snap.counter_total("events_committed"), Some(99));
        assert!(http_get(&addr, "/nope").is_err());
        server.shutdown();
    }

    #[test]
    fn sampler_ring_is_bounded_and_final_snapshot_is_exact() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("events_committed");
        let sampler = Sampler::start(Arc::clone(&reg), Duration::from_millis(5), 4, None);
        for i in 0..10u64 {
            c.add(i);
            std::thread::sleep(Duration::from_millis(3));
        }
        let ring = sampler.stop();
        assert!(ring.len() <= 4);
        let last = ring.last().unwrap();
        assert_eq!(last.counter_total("events_committed"), Some(45));
    }
}
