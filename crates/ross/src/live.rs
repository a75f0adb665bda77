//! Wiring between the schedulers and the live metrics plane
//! ([`telemetry::live`]).
//!
//! Schedulers never touch the registry on per-event hot paths: each worker
//! thread owns a [`LiveTap`] — plain local counters plus shard-private
//! handles — and flushes it at the scheduler's natural synchronization
//! cadence (per window/round/shard fence, or every
//! [`FLUSH_EVERY`] committed events on the sequential path). A detached
//! registry costs one `Option` branch at those same coarse points, which
//! is what keeps the <2% overhead guard honest.

use std::sync::Arc;
use telemetry::live::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};

/// Sequential-scheduler flush cadence in committed events. Parallel
/// schedulers flush at their own sync points instead.
pub(crate) const FLUSH_EVERY: u64 = 8192;

/// Sharded handles for every engine metric the schedulers feed. One per
/// run; [`LiveHandles::tap`] clones it onto a worker's shard.
pub(crate) struct LiveHandles {
    committed: CounterHandle,
    remote_events: CounterHandle,
    cross_shard_events: CounterHandle,
    rounds: CounterHandle,
    steals: CounterHandle,
    gvt_ns: GaugeHandle,
    horizon_lag_ns: GaugeHandle,
    queue_depth: GaugeHandle,
    pool_high_water: GaugeHandle,
    workers: GaugeHandle,
    commit_batch: HistogramHandle,
    queue_depth_hist: HistogramHandle,
}

impl LiveHandles {
    pub(crate) fn new(reg: &MetricsRegistry, threads: usize) -> Arc<LiveHandles> {
        let h = LiveHandles {
            committed: reg.counter("events_committed"),
            remote_events: reg.counter("remote_events"),
            cross_shard_events: reg.counter("cross_shard_events"),
            rounds: reg.counter("rounds"),
            steals: reg.counter("steals"),
            gvt_ns: reg.gauge("gvt_ns"),
            horizon_lag_ns: reg.gauge("horizon_lag_ns"),
            queue_depth: reg.gauge("queue_depth"),
            pool_high_water: reg.gauge("pool_high_water"),
            workers: reg.gauge("workers"),
            commit_batch: reg.histogram("commit_batch"),
            queue_depth_hist: reg.histogram("queue_depth"),
        };
        h.workers.set(threads as u64);
        Arc::new(h)
    }

    /// From a simulation's optional registry: handles for a run about to
    /// start on `threads` workers.
    pub(crate) fn from_sim(
        reg: &Option<Arc<MetricsRegistry>>,
        threads: usize,
    ) -> Option<Arc<LiveHandles>> {
        reg.as_ref().map(|r| LiveHandles::new(r, threads))
    }

    /// A worker-private tap recording through shard `shard`.
    pub(crate) fn tap(self: &Arc<LiveHandles>, shard: usize) -> LiveTap {
        LiveTap {
            committed: self.committed.for_shard(shard),
            remote_events: self.remote_events.for_shard(shard),
            cross_shard_events: self.cross_shard_events.for_shard(shard),
            rounds: self.rounds.for_shard(shard),
            steals: self.steals.for_shard(shard),
            gvt_ns: self.gvt_ns.clone(),
            horizon_lag_ns: self.horizon_lag_ns.clone(),
            queue_depth: self.queue_depth.clone(),
            pool_high_water: self.pool_high_water.clone(),
            commit_batch: self.commit_batch.for_shard(shard),
            queue_depth_hist: self.queue_depth_hist.for_shard(shard),
            d: PendingDeltas::default(),
        }
    }
}

/// Local deltas accumulated between flushes — plain integers, no atomics.
#[derive(Default)]
struct PendingDeltas {
    committed: u64,
    remote_events: u64,
    cross_shard_events: u64,
    rounds: u64,
    steals: u64,
}

/// One worker thread's view of the live registry. All mutation lands in
/// [`PendingDeltas`]; [`LiveTap::flush`] pushes the deltas through the
/// shard-private wait-free handles.
pub(crate) struct LiveTap {
    committed: CounterHandle,
    remote_events: CounterHandle,
    cross_shard_events: CounterHandle,
    rounds: CounterHandle,
    steals: CounterHandle,
    gvt_ns: GaugeHandle,
    horizon_lag_ns: GaugeHandle,
    queue_depth: GaugeHandle,
    pool_high_water: GaugeHandle,
    commit_batch: HistogramHandle,
    queue_depth_hist: HistogramHandle,
    d: PendingDeltas,
}

impl LiveTap {
    #[inline]
    pub(crate) fn commit(&mut self, n: u64) {
        self.d.committed += n;
    }

    /// Committed events accumulated since the last flush (the sequential
    /// scheduler's flush trigger).
    #[inline]
    pub(crate) fn pending_committed(&self) -> u64 {
        self.d.committed
    }

    pub(crate) fn remote(&mut self, n: u64) {
        self.d.remote_events += n;
    }

    pub(crate) fn cross_shard(&mut self, n: u64) {
        self.d.cross_shard_events += n;
    }

    pub(crate) fn round(&mut self) {
        self.d.rounds += 1;
    }

    pub(crate) fn steal(&mut self, n: u64) {
        self.d.steals += n;
    }

    /// Latest global clock (window floor / horizon) — leader only.
    pub(crate) fn gvt(&self, ns: u64) {
        self.gvt_ns.set(ns);
    }

    /// High-water of (max published horizon − min published horizon).
    pub(crate) fn lag(&self, ns: u64) {
        self.horizon_lag_ns.observe_max(ns);
    }

    /// Current pending-queue depth: latest-value gauge plus distribution.
    pub(crate) fn queue_depth(&mut self, len: u64) {
        self.queue_depth.set(len);
        self.queue_depth_hist.record(len);
    }

    pub(crate) fn pool_high_water(&self, v: u64) {
        self.pool_high_water.observe_max(v);
    }

    /// Push accumulated deltas through the handles and reset them. The
    /// committed delta also lands in the `commit_batch` histogram — the
    /// distribution of work per flush window.
    pub(crate) fn flush(&mut self) {
        let d = std::mem::take(&mut self.d);
        if d.committed > 0 {
            self.committed.add(d.committed);
            self.commit_batch.record(d.committed);
        }
        if d.remote_events > 0 {
            self.remote_events.add(d.remote_events);
        }
        if d.cross_shard_events > 0 {
            self.cross_shard_events.add(d.cross_shard_events);
        }
        if d.rounds > 0 {
            self.rounds.add(d.rounds);
        }
        if d.steals > 0 {
            self.steals.add(d.steals);
        }
    }
}

impl Drop for LiveTap {
    /// A tap that goes out of scope flushes its remainder, so end-of-run
    /// totals are exact on every exit path.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_flushes_deltas_and_drop_flushes_remainder() {
        let reg = Arc::new(MetricsRegistry::with_shards(2));
        let handles = LiveHandles::from_sim(&Some(Arc::clone(&reg)), 2).unwrap();
        let mut a = handles.tap(0);
        let mut b = handles.tap(1);
        a.commit(10);
        a.round();
        a.flush();
        b.commit(32);
        drop(b); // drop must flush the un-flushed 32
        drop(a);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("events_committed"), Some(42));
        assert_eq!(snap.counter_total("rounds"), Some(1));
        assert_eq!(snap.gauge("workers"), Some(2));
        let h = snap.histogram("commit_batch").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 42);
    }
}
