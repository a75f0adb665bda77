//! The benchmark's own PHOLD model.
//!
//! A copy, not `union_bench::phold`: nothing outside this directory may
//! change what the `phold-seq` workload and the null-handler probe
//! measure. The RNG is local for the same reason. Each LP holds one ball;
//! every event forwards it to a uniformly random LP after a uniform
//! 100..1000 ns delay until the horizon, so the handler does almost
//! nothing and the queue, the envelope pool and the sequential loop do
//! nearly all the work.

use ross::{Ctx, Envelope, Lp, QueueKind, SimDuration, SimTime, Simulation};

/// xorshift64* — small, fast, and fixed here for good.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 of the seed, so that nearby seeds give unrelated
        // streams; `| 1` keeps the xorshift state non-zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() >> 32) * n) >> 32
    }
}

#[derive(Clone)]
pub struct Phold {
    rng: Rng,
    n_lps: u32,
    horizon: SimTime,
    hits: u64,
    checksum: u64,
}

impl Lp for Phold {
    type Event = u32;
    fn handle(&mut self, ev: &Envelope<u32>, ctx: &mut Ctx<'_, u32>) {
        self.hits += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(ev.recv_time.as_ns() ^ u64::from(ev.payload));
        if ctx.now() < self.horizon {
            let dst = self.rng.below(u64::from(self.n_lps)) as u32;
            let delay = SimDuration::from_ns(100 + self.rng.below(900));
            ctx.send(dst, delay, ev.payload.wrapping_add(1));
        }
    }
}

/// A fresh PHOLD simulation on the ladder queue: `n_lps` LPs, one initial
/// event each, LP `i` seeded from `(seed, i)`.
pub fn build(n_lps: u32, horizon_ns: u64, seed: u64) -> Simulation<Phold> {
    let horizon = SimTime::from_ns(horizon_ns);
    let lps = (0..n_lps)
        .map(|i| Phold {
            rng: Rng::new(seed.wrapping_mul(0x1_0000_0001).wrapping_add(u64::from(i))),
            n_lps,
            horizon,
            hits: 0,
            checksum: 0,
        })
        .collect();
    let mut sim = Simulation::with_queue(lps, SimDuration::from_ns(100), QueueKind::Ladder);
    for i in 0..n_lps {
        sim.schedule(i, SimTime::from_ns(u64::from(i) % 1000), i);
    }
    sim
}

/// FNV-1a over every LP's (hits, checksum), in LP order.
pub fn fingerprint(sim: &Simulation<Phold>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for lp in sim.lps() {
        for word in [lp.hits, lp.checksum] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_run_and_other_seed_other_run() {
        let run = |seed| {
            let mut sim = build(64, 5_000, seed);
            let stats = sim.run_sequential(SimTime::MAX);
            (stats.committed, fingerprint(&sim))
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1);
        assert!(run(42).0 > 64 * 5);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(0);
        assert!((0..10_000).all(|_| r.below(900) < 900));
    }
}
