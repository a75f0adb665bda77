//! The PHOLD demonstration model of `union-exp phold`.

use ross::digest::{fnv1a, put_u64};
use ross::{Ctx, Envelope, Lp, SimDuration, SimTime, Simulation};

/// PHOLD's minimum event delay.
const MIN_DELAY_NS: u64 = 50;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// PHOLD over an explicit-state xorshift RNG, whose stream the pinned
/// `phold` fingerprint depends on.
#[derive(Clone)]
pub struct PholdLp {
    rng: u64,
    n_lps: u32,
    hits: u64,
    checksum: u64,
    horizon_ns: u64,
}

impl Lp for PholdLp {
    type Event = u64;
    fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        self.hits += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(6364136223846793005)
            .wrapping_add(ev.payload ^ ev.recv_time.as_ns());
        if ctx.now().as_ns() < self.horizon_ns {
            let dst = (xorshift(&mut self.rng) % self.n_lps as u64) as u32;
            let delay = MIN_DELAY_NS + xorshift(&mut self.rng) % 451;
            ctx.send(dst, SimDuration::from_ns(delay), self.checksum);
        }
    }
}

/// Parameters of a PHOLD run.
#[derive(Clone, Copy, Debug)]
pub struct PholdParams {
    pub lps: u32,
    pub horizon_ns: u64,
    pub seed: u64,
}

pub fn build_phold(p: &PholdParams) -> Simulation<PholdLp> {
    let lps = (0..p.lps)
        .map(|i| PholdLp {
            rng: (p.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(i as u64)) | 1,
            n_lps: p.lps,
            hits: 0,
            checksum: 0,
            horizon_ns: p.horizon_ns,
        })
        .collect();
    let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
    for i in 0..p.lps {
        sim.schedule(i, SimTime::from_ns(i as u64 % 7), i as u64);
    }
    sim
}

/// Order-independent digest of the PHOLD LPs' final state, like
/// [`codes::CodesSim::state_fingerprint`]: the wrapping sum of one
/// [`fnv1a`] per LP.
pub fn phold_fingerprint(sim: &Simulation<PholdLp>) -> u64 {
    sim.lps().iter().enumerate().fold(0u64, |acc, (g, lp)| {
        let mut buf = Vec::with_capacity(24);
        put_u64(&mut buf, g as u64);
        put_u64(&mut buf, lp.hits);
        put_u64(&mut buf, lp.checksum);
        acc.wrapping_add(fnv1a(&buf))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `union-exp phold` at its defaults: the pinned fingerprint and count.
    #[test]
    fn default_run_is_pinned() {
        let mut sim = build_phold(&PholdParams { lps: 16, horizon_ns: 30_000, seed: 42 });
        let stats = sim.run_sequential(SimTime::MAX);
        assert_eq!((phold_fingerprint(&sim), stats.committed), (0x1057cf032323d5ae, 1729));
    }
}
