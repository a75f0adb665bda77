//! Wiring between the schedulers and the live metrics plane
//! ([`telemetry::live`]).
//!
//! The live plane keeps no counts of its own. A worker's run counters —
//! the same fields that fold into [`RunStats`](crate::RunStats) and the
//! `scheduler` telemetry record — are the only accumulators:
//! `Worker::live_flush` adds their growth since its previous flush
//! ([`Counts`]) to the run's [`LiveHandles`] at the scheduler's
//! synchronization cadence (per round on the barrier schedulers, every
//! [`FLUSH_EVERY`] commits on the sequential and async paths), and the
//! run's counter fold flushes the remainder, so end-of-run totals are
//! exact on every exit path. Nothing touches the registry per event: a
//! detached registry costs one `Option` branch at those same coarse
//! points, which is what keeps the <2% overhead guard honest.

use std::sync::Arc;
use telemetry::live::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};

/// Flush cadence in committed events on the sequential and async paths.
/// The barrier schedulers flush once per round instead.
pub(crate) const FLUSH_EVERY: u64 = 8192;

/// A worker's cumulative run counters, as the live plane reads them.
#[derive(Clone, Copy, Default)]
pub(crate) struct Counts {
    pub(crate) committed: u64,
    pub(crate) remote: u64,
    pub(crate) cross: u64,
    pub(crate) rounds: u64,
    pub(crate) steals: u64,
}

/// The registry cells of every engine metric the schedulers feed. One per
/// run, shared by its workers.
pub(crate) struct LiveHandles {
    committed: CounterHandle,
    remote_events: CounterHandle,
    cross_shard_events: CounterHandle,
    rounds: CounterHandle,
    steals: CounterHandle,
    /// The global clock: window floor, async horizon, end time.
    pub(crate) gvt_ns: GaugeHandle,
    /// High-water of (max published horizon − min published horizon).
    pub(crate) horizon_lag_ns: GaugeHandle,
    queue_depth: GaugeHandle,
    pub(crate) pool_high_water: GaugeHandle,
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

    /// Add one worker's counter growth from `then` to `now`. The committed
    /// growth also lands in the `commit_batch` histogram — the
    /// distribution of work per flush.
    pub(crate) fn add(&self, now: Counts, then: Counts) {
        let committed = now.committed - then.committed;
        if committed > 0 {
            self.committed.add(committed);
            self.commit_batch.record(committed);
        }
        for (cell, n) in [
            (&self.remote_events, now.remote - then.remote),
            (&self.cross_shard_events, now.cross - then.cross),
            (&self.rounds, now.rounds - then.rounds),
            (&self.steals, now.steals - then.steals),
        ] {
            if n > 0 {
                cell.add(n);
            }
        }
    }

    /// Current pending-queue depth: latest-value gauge plus distribution.
    pub(crate) fn queue_depth(&self, len: u64) {
        self.queue_depth.set(len);
        self.queue_depth_hist.record(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, Envelope, Lp, SimDuration, Simulation};

    /// An LP that ignores its events.
    struct Quiet;

    impl Lp for Quiet {
        type Event = ();
        fn handle(&mut self, _ev: &Envelope<()>, _ctx: &mut Ctx<'_, ()>) {}
    }

    /// A worker's flush adds the growth since its previous one; the run's
    /// counter fold adds what no flush has pushed yet.
    #[test]
    fn tap_flushes_deltas_and_drop_flushes_remainder() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut sim = Simulation::new(vec![Quiet, Quiet], SimDuration::from_ns(1));
        sim.set_live(Some(Arc::clone(&reg)));
        let report = crate::worker::Report::open(&sim, "test", 2, std::time::Instant::now());
        let queue = || sim.queue_kind().new_queue();
        let mut a = report.worker(0, vec![0], vec![Quiet], Vec::new(), queue(), &[]);
        let mut b = report.worker(1, vec![1], vec![Quiet], Vec::new(), queue(), &[]);
        (a.committed, a.rounds) = (10, 1);
        a.live_flush(Some(5));
        (b.committed, b.rounds, b.steals) = (32, 1, 3);
        let mut tally = crate::worker::Tally::default();
        report.fold(&mut tally, &mut b); // must flush the un-flushed 32
        a.committed += 7;
        report.fold(&mut tally, &mut a);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("events_committed"), Some(49));
        // The run's round count is worker 0's, not the sum over workers.
        assert_eq!(snap.counter_total("rounds"), Some(1));
        assert_eq!(snap.counter_total("steals"), Some(3));
        assert_eq!(snap.gauge("gvt_ns"), Some(5));
        assert_eq!(snap.gauge("workers"), Some(2));
        let h = snap.histogram("commit_batch").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 49);
    }

    // The runs below are multi-threaded; under `union_check` the shimmed
    // primitives need a model-checking context.
    #[cfg(not(union_check))]
    const SCHEDS: [crate::Scheduler; 3] = [
        crate::Scheduler::Sequential,
        crate::Scheduler::ConservativeParallel { threads: 2, lookahead: SimDuration(50) },
        crate::Scheduler::ConservativeAsync { threads: 2, lookahead: SimDuration(50) },
    ];

    /// PHOLD under `sched` with a recorder and a registry attached: the
    /// final snapshot, and the run's `scheduler` records.
    #[cfg(not(union_check))]
    fn both_renderings(
        sched: crate::Scheduler,
    ) -> (telemetry::live::SnapshotRecord, Vec<serde::Value>) {
        let (rec, reg) = (Arc::new(telemetry::Recorder::new()), Arc::new(MetricsRegistry::new()));
        let mut sim = crate::parallel::tests::phold_sim(64, 9);
        sim.set_telemetry(Some(Arc::clone(&rec)));
        sim.set_live(Some(Arc::clone(&reg)));
        sched.run(&mut sim, crate::SimTime::MAX);
        let records = rec
            .lines()
            .iter()
            .map(|l| serde_json::from_str::<serde::Value>(l).unwrap())
            .filter(|v| v.get("record").and_then(|r| r.as_str()) == Some("scheduler"))
            .collect();
        (reg.snapshot(), records)
    }

    /// `field` summed over `records`.
    #[cfg(not(union_check))]
    fn sum(records: &[serde::Value], field: &str) -> u64 {
        records.iter().map(|r| r.get(field).and_then(|v| v.as_u64()).unwrap()).sum()
    }

    /// Every scheduler leaves a round count and a global clock in the live
    /// plane, the clock within the run's virtual time.
    #[cfg(not(union_check))]
    #[test]
    fn final_snapshot_reports_rounds_and_gvt() {
        for sched in SCHEDS {
            let (snap, records) = both_renderings(sched);
            let end = sum(&records, "end_time_ns");
            assert!(snap.counter_total("rounds").unwrap() > 0, "{sched:?}");
            let gvt = snap.gauge("gvt_ns").unwrap();
            assert!(0 < gvt && gvt <= end, "{sched:?}: gvt_ns {gvt}, end_time_ns {end}");
        }
    }

    /// The live counters and the `scheduler` records render one set of
    /// worker counters. Async's live `rounds` is the leader's scheduling
    /// iterations, the record's the most any worker ran.
    #[cfg(not(union_check))]
    #[test]
    fn live_totals_equal_the_scheduler_records() {
        for sched in SCHEDS {
            let (snap, records) = both_renderings(sched);
            assert_eq!(records.len(), 1, "{sched:?}");
            let mut pairs = vec![
                ("events_committed", "committed"),
                ("remote_events", "remote_events"),
                ("cross_shard_events", "cross_shard_events"),
                ("steals", "steals"),
            ];
            if !matches!(sched, crate::Scheduler::ConservativeAsync { .. }) {
                pairs.push(("rounds", "rounds"));
            }
            for (live, field) in pairs {
                let want = sum(&records, field);
                assert_eq!(snap.counter_total(live), Some(want), "{sched:?}: {live} vs {field}");
            }
        }
    }
}
