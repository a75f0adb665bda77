//! PDES engine ablation: the same PHOLD workload under the sequential,
//! optimistic, and conservative-parallel schedulers — the
//! scheduler trade-off the ROSS substrate exposes (the paper runs CODES
//! in optimistic mode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ross::{OptimisticConfig, QueueKind, SimDuration, SimTime};
use std::sync::Arc;
use union_bench::{phold, phold_sized};

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/phold-64lp");
    g.sample_size(10);
    g.bench_function(BenchmarkId::from_parameter("sequential"), |b| {
        b.iter(|| {
            let mut sim = phold(64);
            sim.run_sequential(SimTime::MAX).committed
        })
    });
    for threads in [2usize, 4] {
        g.bench_function(BenchmarkId::new("optimistic", threads), |b| {
            b.iter(|| {
                let mut sim = phold(64);
                sim.run_optimistic(threads, OptimisticConfig::default(), SimTime::MAX).committed
            })
        });
        // PHOLD's minimum send delay is 100 ns, so 100 ns windows are the
        // widest the conservative-parallel scheduler can safely use here.
        g.bench_function(BenchmarkId::new("conservative-parallel", threads), |b| {
            b.iter(|| {
                let mut sim = phold(64);
                sim.run_conservative_parallel(threads, SimDuration::from_ns(100), SimTime::MAX)
                    .committed
            })
        });
    }
    g.finish();
}

fn bench_snapshot_interval(c: &mut Criterion) {
    // Time Warp state-saving ablation: snapshot every event vs sparser
    // checkpoints with coast-forward.
    let mut g = c.benchmark_group("engine/snapshot-interval");
    g.sample_size(10);
    for interval in [1u64, 4, 16] {
        g.bench_function(BenchmarkId::from_parameter(interval), |b| {
            b.iter(|| {
                let mut sim = phold(32);
                sim.run_optimistic(
                    4,
                    OptimisticConfig { batch: 256, snapshot_interval: interval },
                    SimTime::MAX,
                )
                .committed
            })
        });
    }
    g.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // The telemetry layer's cost contract: attaching a recorder must be
    // nearly free (counters are plain u64s, timing scopes only fire when a
    // recorder is present). Compare these series — "on" must stay within
    // ~2% of "off"; the ignored `telemetry_overhead_under_two_percent`
    // test in the crate enforces that bound.
    let mut g = c.benchmark_group("engine/telemetry-overhead");
    g.sample_size(10);
    for (label, telemetry) in [("off", false), ("on", true)] {
        g.bench_function(BenchmarkId::new("sequential", label), |b| {
            b.iter(|| {
                let mut sim = phold(64);
                if telemetry {
                    sim.set_telemetry(Some(Arc::new(telemetry::Recorder::new())));
                }
                sim.run_sequential(SimTime::MAX).committed
            })
        });
    }
    g.finish();
}

fn bench_queues(c: &mut Criterion) {
    // Pending-event queue ablation: binary heap (O(log n) per op) vs
    // ladder (O(1) amortized). The gap only shows once the pending set
    // is large, so this group sweeps the PHOLD population; the committed
    // numbers are BENCHMARK.json's `ross.queue.*_ns_per_op` probes.
    let mut g = c.benchmark_group("engine/queue");
    g.sample_size(10);
    for n_lps in [64u32, 4096] {
        for queue in [QueueKind::Heap, QueueKind::Ladder] {
            g.bench_function(BenchmarkId::new(queue.label(), n_lps), |b| {
                b.iter(|| {
                    let mut sim = phold_sized(n_lps, SimTime::from_us(50), queue);
                    sim.run_sequential(SimTime::MAX).committed
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_snapshot_interval,
    bench_telemetry_overhead,
    bench_queues
);
criterion_main!(benches);
