//! Property tests for the live metrics plane's log-bucketed histogram
//! and the sampler's delta semantics.
//!
//! Lossless histogram merging rests on three algebraic facts about
//! [`Histogram::merge`] — associativity, commutativity, and bit-exact
//! count/sum preservation — plus the quantile error bound (the served
//! quantile lands in the same log bucket as the exact order statistic).
//! Each is checked over random value streams here rather than assumed.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use telemetry::live::{bucket_index, Histogram, MetricsRegistry, Sampler};

/// Deterministic splitmix64 so a case's value stream derives from one
/// seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A stream mixing magnitudes: raw 64-bit values alone almost never
/// exercise the low buckets, so shift each draw by a random amount.
fn stream(seed: u64, len: usize) -> Vec<u64> {
    let mut rng = Mix(seed | 1);
    (0..len)
        .map(|_| {
            let v = rng.next();
            v >> (rng.next() % 64)
        })
        .collect()
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge is commutative and associative: any grouping/order of
    /// per-worker histograms yields the identical aggregate.
    #[test]
    fn merge_commutes_and_associates(seed in 0u64..u64::MAX, n in 1usize..200) {
        let (a, b, c) = (
            hist_of(&stream(seed, n)),
            hist_of(&stream(seed ^ 0xdead_beef, n / 2 + 1)),
            hist_of(&stream(seed ^ 0x5a5a_5a5a, n / 3 + 1)),
        );
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
    }

    /// count survives merge exactly and sum survives with wrapping
    /// addition (the same arithmetic recording them one-by-one uses).
    #[test]
    fn count_and_sum_survive_merge_bit_exactly(seed in 0u64..u64::MAX, n in 1usize..300) {
        let values = stream(seed, n);
        let (left, right) = values.split_at(n / 2);
        let mut merged = hist_of(left);
        merged.merge(&hist_of(right));
        let whole = hist_of(&values);
        prop_assert_eq!(merged.count, whole.count);
        prop_assert_eq!(merged.sum, whole.sum);
        prop_assert_eq!(merged.min, whole.min);
        prop_assert_eq!(merged.max, whole.max);
        prop_assert_eq!(&merged, &whole);
    }

    /// Served quantiles sit in the same log bucket as the exact order
    /// statistic of the recorded stream, for a spread of probes.
    #[test]
    fn quantiles_within_one_log_bucket_of_exact(seed in 0u64..u64::MAX, n in 1usize..400) {
        let mut values = stream(seed, n);
        let h = hist_of(&values);
        values.sort_unstable();
        for &q in &[0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let served = h.quantile(q);
            prop_assert!(
                bucket_index(served) == bucket_index(exact),
                "q={} exact={} served={}",
                q,
                exact,
                served
            );
            // And never above the observed maximum.
            prop_assert!(served <= *values.last().unwrap());
        }
    }

    /// Round trip through the sparse wire form is lossless.
    #[test]
    fn sparse_round_trip_is_lossless(seed in 0u64..u64::MAX, n in 0usize..200) {
        let h = hist_of(&stream(seed, n));
        let back = Histogram::from_sparse(h.count, h.sum, h.min, h.max, &h.sparse());
        prop_assert_eq!(&h, &back);
    }
}

/// Consecutive snapshot deltas sum back to the cumulative counter: the
/// sampler's delta stream is lossless no matter where the ticks land
/// relative to the recording.
#[test]
fn snapshot_deltas_sum_to_cumulative_counters() {
    let reg = Arc::new(MetricsRegistry::new());
    let c = reg.counter("events_committed");
    // Long interval: ticks are driven manually via sample_now so the
    // test is deterministic, and stop() adds the final exact tick.
    let sampler = Sampler::start(Arc::clone(&reg), Duration::from_secs(3600), 64);
    let mut rng = Mix(7);
    let mut total = 0u64;
    for _ in 0..10 {
        let burst = rng.next() % 10_000;
        c.add(burst);
        total += burst;
        sampler.sample_now();
    }
    c.add(17);
    total += 17;
    let ring = sampler.stop();
    assert!(ring.len() >= 11, "ring too short: {}", ring.len());
    let delta_sum: u64 = ring
        .iter()
        .map(|s| s.counters.iter().find(|p| p.name == "events_committed").map_or(0, |p| p.delta))
        .sum();
    let last = ring.last().unwrap();
    assert_eq!(last.counter_total("events_committed"), Some(total));
    assert_eq!(delta_sum, total, "deltas must sum back to the cumulative total");
    // Sequence numbers are strictly increasing.
    for w in ring.windows(2) {
        assert!(w[1].seq > w[0].seq);
    }
}
