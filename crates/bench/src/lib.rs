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
    use super::{phold, Phold};
    use ross::{SimTime, Simulation};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    /// Guards running side by side would time each other: they take turns.
    static TURN: Mutex<()> = Mutex::new(());

    /// PHOLD LPs per timed sample: about 0.9M events, 65-150 ms of
    /// sequential run on a shared 2-core x86 host — long enough that timer
    /// resolution and per-run setup vanish below 2%.
    const SAMPLE_LPS: u32 = 1024;
    /// Paired samples per guard.
    const PAIRS: usize = 120;

    /// The acceptance guard of every instrumentation plane: the sequential
    /// PHOLD run with `attach` applied must cost under 2% more wall time
    /// than without it. Runs with and without alternate (which goes first
    /// alternates too), and the estimate is the interquartile mean of the
    /// paired on/off log-ratios. On a shared host, identical runs spread by
    /// ±25% and drift over seconds: the minimum of 40 runs per side still
    /// differed by up to 13% between two identical configurations, while
    /// this estimate stayed within 1%. Ignored by default because it needs
    /// about 20 s of repeated timing runs; CI runs all three with
    /// `cargo test -p union-bench --release -- --ignored overhead`.
    fn assert_overhead_under_two_percent(what: &str, attach: impl Fn(&mut Simulation<Phold>)) {
        let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let time_one = |on: bool| {
            let mut sim = phold(SAMPLE_LPS);
            if on {
                attach(&mut sim);
            }
            let t0 = Instant::now();
            let stats = sim.run_sequential(SimTime::MAX);
            (t0.elapsed().as_secs_f64(), stats.committed)
        };
        time_one(false);
        time_one(true);
        let mut log_ratios: Vec<f64> = (0..PAIRS)
            .map(|i| {
                let ((off, c_off), (on, c_on)) = if i % 2 == 0 {
                    (time_one(false), time_one(true))
                } else {
                    let on = time_one(true);
                    (time_one(false), on)
                };
                assert_eq!(c_off, c_on, "{what} changed the event count");
                (on / off).ln()
            })
            .collect();
        log_ratios.sort_by(f64::total_cmp);
        let mid = &log_ratios[PAIRS / 4..PAIRS - PAIRS / 4];
        let overhead = (mid.iter().sum::<f64>() / mid.len() as f64).exp() - 1.0;
        assert!(
            overhead < 0.02,
            "{what} overhead {:.2}% exceeds 2% (interquartile mean of {PAIRS} paired ratios)",
            overhead * 100.0
        );
    }

    /// Counters and timing scopes, with a recorder attached.
    #[test]
    #[ignore = "timing-sensitive; run explicitly in release"]
    fn telemetry_overhead_under_two_percent() {
        assert_overhead_under_two_percent("telemetry", |sim| {
            sim.set_telemetry(Some(Arc::new(telemetry::Recorder::new())))
        });
    }

    /// Tracing disabled is a single `Option` test per event, which cannot
    /// be A/B-measured inside one binary, so this attaches a tracer with a
    /// zero event budget: that path (kind lookup, dry check, drop counter)
    /// is a strict superset of the disabled one, making the ratio a
    /// conservative upper bound.
    #[test]
    #[ignore = "timing-sensitive; run explicitly in release"]
    fn tracing_overhead_when_disabled_under_two_percent() {
        assert_overhead_under_two_percent("tracing-disabled bound", |sim| {
            sim.set_tracer(Some(Arc::new(ross::Tracer::with_caps(1, 0, 0))))
        });
    }

    /// Live metrics: one `Option` branch per event when no registry is
    /// attached, batched counter flushes every 8192 commits when one
    /// is. Attached is a strict superset of detached, so this bounds the
    /// detached branch too.
    #[test]
    #[ignore = "timing-sensitive; run explicitly in release"]
    fn live_metrics_overhead_under_two_percent() {
        assert_overhead_under_two_percent("live metrics", |sim| {
            sim.set_live(Some(Arc::new(telemetry::live::MetricsRegistry::new())))
        });
    }
}
