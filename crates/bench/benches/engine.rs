//! PDES engine ablation: the cost of an attached telemetry recorder on a
//! sequential PHOLD run. The committed engine numbers are BENCHMARK.json's
//! `phold-seq` workload and `ross.*` probes; this group is for local A/B
//! runs under `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ross::SimTime;
use std::sync::Arc;
use union_bench::phold;

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

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
