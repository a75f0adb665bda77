//! Criterion benchmark crate; see `benches/`.
//!
//! The PHOLD model lives here so the engine benches and the telemetry
//! overhead guard test share one definition.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ross::{Ctx, Envelope, Lp, SimDuration, SimTime, Simulation};

/// The classic PHOLD stress model: every event reschedules one event to a
/// uniformly random LP after a random delay, until a virtual-time horizon.
#[derive(Clone)]
pub struct Phold {
    rng: SmallRng,
    n_lps: u32,
    horizon: SimTime,
    pub hits: u64,
}

impl Lp for Phold {
    type Event = u32;
    fn handle(&mut self, _ev: &Envelope<u32>, ctx: &mut Ctx<'_, u32>) {
        self.hits += 1;
        if ctx.now() < self.horizon {
            let dst = self.rng.gen_range(0..self.n_lps);
            let delay = SimDuration::from_ns(self.rng.gen_range(100..1000));
            ctx.send(dst, delay, 0);
        }
    }
}

/// A fresh PHOLD simulation with one initial event per LP and a 500 us
/// horizon (the configuration the engine benches and overhead guards use).
pub fn phold(n_lps: u32) -> Simulation<Phold> {
    let horizon = SimTime::from_us(500);
    let lps = (0..n_lps)
        .map(|i| Phold { rng: SmallRng::seed_from_u64(i as u64), n_lps, horizon, hits: 0 })
        .collect();
    let mut sim = Simulation::new(lps, SimDuration::from_ns(100));
    for i in 0..n_lps {
        sim.schedule(i, SimTime::from_ns(i as u64), 0);
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::phold;
    use ross::SimTime;
    use std::sync::Arc;
    use std::time::Instant;

    /// The telemetry acceptance guard: counters and timing scopes must cost
    /// under 2% of PHOLD wall time when a recorder is attached. Ignored by
    /// default because it needs quiet, repeated timing runs; CI and local
    /// checks run it explicitly with
    /// `cargo test -p union-bench --release -- --ignored telemetry_overhead`.
    #[test]
    #[ignore = "timing-sensitive; run explicitly in release"]
    fn telemetry_overhead_under_two_percent() {
        let time_one = |telemetry: bool| {
            let mut sim = phold(64);
            if telemetry {
                sim.set_telemetry(Some(Arc::new(telemetry::Recorder::new())));
            }
            let t0 = Instant::now();
            let stats = sim.run_sequential(SimTime::MAX);
            let dt = t0.elapsed();
            (dt, stats.committed)
        };
        // Warm up, then interleave paired runs and compare the *minimum*
        // times: scheduler noise only ever adds time, so the minima are
        // the cleanest estimate of each configuration's true cost.
        time_one(false);
        time_one(true);
        let (mut off, mut on) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..20 {
            let (d_off, c_off) = time_one(false);
            let (d_on, c_on) = time_one(true);
            assert_eq!(c_off, c_on, "telemetry changed the event count");
            off = off.min(d_off);
            on = on.min(d_on);
        }
        let ratio = on.as_secs_f64() / off.as_secs_f64();
        assert!(
            ratio < 1.02,
            "telemetry overhead {:.2}% exceeds 2% (on={on:?}, off={off:?})",
            (ratio - 1.0) * 100.0
        );
    }

    /// The tracing acceptance guard: with tracing disabled the scheduler
    /// hot path must stay within 2% of baseline. The disabled path is a
    /// single `Option` test per event, which cannot be A/B-measured
    /// inside one binary, so this compares against a tracer attached
    /// with a zero event budget: that path (kind lookup, dry check,
    /// drop counter) is a strict superset of the disabled path, making
    /// the measured ratio a conservative upper bound. Run explicitly
    /// with `cargo test -p union-bench --release -- --ignored overhead`.
    #[test]
    #[ignore = "timing-sensitive; run explicitly in release"]
    fn tracing_overhead_when_disabled_under_two_percent() {
        let time_one = |traced: bool| {
            let mut sim = phold(64);
            if traced {
                sim.set_tracer(Some(Arc::new(ross::Tracer::with_caps(1, 0, 0))));
            }
            let t0 = Instant::now();
            let stats = sim.run_sequential(SimTime::MAX);
            (t0.elapsed(), stats.committed)
        };
        time_one(false);
        time_one(true);
        let (mut off, mut on) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..20 {
            let (d_off, c_off) = time_one(false);
            let (d_on, c_on) = time_one(true);
            assert_eq!(c_off, c_on, "tracing changed the event count");
            off = off.min(d_off);
            on = on.min(d_on);
        }
        let ratio = on.as_secs_f64() / off.as_secs_f64();
        assert!(
            ratio < 1.02,
            "tracing-disabled overhead bound {:.2}% exceeds 2% (on={on:?}, off={off:?})",
            (ratio - 1.0) * 100.0
        );
    }

    /// The live metrics acceptance guard: the scheduler hot path pays a
    /// single `Option` branch when no registry is attached, and batched
    /// sharded-handle flushes every 8192 commits when one is. The
    /// attached configuration is a strict superset of the detached one,
    /// so bounding attached-vs-baseline under 2% bounds the detached
    /// branch too. Run explicitly with
    /// `cargo test -p union-bench --release -- --ignored overhead`.
    #[test]
    #[ignore = "timing-sensitive; run explicitly in release"]
    fn live_metrics_overhead_under_two_percent() {
        let time_one = |live: bool| {
            let mut sim = phold(64);
            if live {
                sim.set_live(Some(Arc::new(telemetry::live::MetricsRegistry::new())));
            }
            let t0 = Instant::now();
            let stats = sim.run_sequential(SimTime::MAX);
            (t0.elapsed(), stats.committed)
        };
        time_one(false);
        time_one(true);
        let (mut off, mut on) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..20 {
            let (d_off, c_off) = time_one(false);
            let (d_on, c_on) = time_one(true);
            assert_eq!(c_off, c_on, "live metrics changed the event count");
            off = off.min(d_off);
            on = on.min(d_on);
        }
        let ratio = on.as_secs_f64() / off.as_secs_f64();
        assert!(
            ratio < 1.02,
            "live metrics overhead {:.2}% exceeds 2% (on={on:?}, off={off:?})",
            (ratio - 1.0) * 100.0
        );
    }
}
