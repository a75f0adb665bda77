//! PDES engine ablation: the same PHOLD workload under the sequential
//! and conservative-parallel schedulers, and the cost of an attached
//! telemetry recorder. The committed engine numbers are BENCHMARK.json's
//! `phold-seq` workload and `ross.*` probes; these groups are for local
//! A/B runs under `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ross::{SimDuration, SimTime};
use std::sync::Arc;
use union_bench::phold;

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

criterion_group!(benches, bench_schedulers, bench_telemetry_overhead);
criterion_main!(benches);
