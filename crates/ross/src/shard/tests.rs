//! Sharded-run integration tests: loopback and TCP meshes must be
//! bit-identical to the sequential reference for any shard/thread/queue
//! combination.

use super::transport::{loopback_mesh, EventCodec, TcpTransport};
use super::wire::{put_u64, ByteReader};
use super::{shard_owner_map, ShardError};
use crate::queue::QueueKind;
use crate::{Ctx, Envelope, Lp, SimDuration, SimTime, Simulation};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Explicit-state RNG, so every shard of a run draws the same stream.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// PHOLD with a 50 ns minimum delay so a 50 ns window is legal.
#[derive(Clone)]
struct Phold {
    rng: u64,
    n_lps: u32,
    hits: u64,
    checksum: u64,
    horizon_ns: u64,
}

impl Lp for Phold {
    type Event = u64;
    fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        self.hits += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(6364136223846793005)
            .wrapping_add(ev.payload ^ ev.recv_time.as_ns());
        if ctx.now().as_ns() < self.horizon_ns {
            let dst = (xorshift(&mut self.rng) % self.n_lps as u64) as u32;
            let delay = 50 + xorshift(&mut self.rng) % 451;
            ctx.send(dst, SimDuration::from_ns(delay), self.checksum);
        }
    }
}

struct PholdCodec;

impl EventCodec<u64> for PholdCodec {
    fn encode(&self, ev: &u64, out: &mut Vec<u8>) {
        put_u64(out, *ev);
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> Result<u64, ShardError> {
        r.u64()
    }
}

const N_LPS: u32 = 16;
const WINDOW_NS: u64 = 50;

/// Every shard process must rebuild the identical simulation; this is
/// that shared launch recipe.
fn phold_sim(seed: u64, queue: QueueKind) -> Simulation<Phold> {
    let lps = (0..N_LPS)
        .map(|i| Phold {
            rng: (seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(i as u64)) | 1,
            n_lps: N_LPS,
            hits: 0,
            checksum: 0,
            horizon_ns: 30_000,
        })
        .collect();
    let mut sim = Simulation::with_queue(lps, SimDuration::from_ns(1), queue);
    for i in 0..N_LPS {
        sim.schedule(i, SimTime::from_ns(i as u64 % 7), i as u64);
    }
    sim
}

fn fingerprint(sim: &Simulation<Phold>) -> Vec<(u64, u64)> {
    sim.lps().iter().map(|l| (l.hits, l.checksum)).collect()
}

fn sequential_reference(seed: u64) -> (Vec<(u64, u64)>, u64) {
    let mut sim = phold_sim(seed, QueueKind::Ladder);
    let stats = sim.run_sequential(SimTime::MAX);
    (fingerprint(&sim), stats.committed)
}

/// Run one simulation across `n_shards` loopback "processes" (threads
/// here), then merge each shard's owned LP state into one fingerprint —
/// the same merge the process-level harness does with real shards.
fn run_loopback(
    n_shards: usize,
    threads: usize,
    seed: u64,
    queue: QueueKind,
) -> (Vec<(u64, u64)>, u64) {
    let mesh = loopback_mesh::<u64>(n_shards);
    let handles: Vec<_> = mesh
        .into_iter()
        .map(|mut t| {
            std::thread::spawn(move || {
                let mut sim = phold_sim(seed, queue);
                let window = SimDuration::from_ns(WINDOW_NS);
                let stats = sim.run_sharded(&mut t, threads, window, SimTime::MAX).unwrap();
                (sim, stats)
            })
        })
        .collect();
    merge(handles, n_shards)
}

fn merge(
    handles: Vec<std::thread::JoinHandle<(Simulation<Phold>, crate::RunStats)>>,
    n_shards: usize,
) -> (Vec<(u64, u64)>, u64) {
    let shard_of = shard_owner_map(None, N_LPS as usize, n_shards);
    let mut merged = vec![(0u64, 0u64); N_LPS as usize];
    let mut committed = 0;
    for (s, h) in handles.into_iter().enumerate() {
        let (sim, stats) = h.join().unwrap();
        committed += stats.committed;
        for (g, lp) in sim.lps().iter().enumerate() {
            if shard_of[g] == s as u32 {
                merged[g] = (lp.hits, lp.checksum);
            }
        }
    }
    (merged, committed)
}

#[test]
fn loopback_matches_sequential_across_shards_threads_and_queues() {
    let (want, want_committed) = sequential_reference(2024);
    for n_shards in [1, 2, 4] {
        for threads in [1, 2] {
            for queue in [QueueKind::Heap, QueueKind::Ladder] {
                let (got, committed) = run_loopback(n_shards, threads, 2024, queue);
                assert_eq!(
                    got, want,
                    "diverged at {n_shards} shards x {threads} threads ({queue:?})"
                );
                assert_eq!(committed, want_committed);
            }
        }
    }
}

#[test]
fn sharded_run_reports_cross_shard_traffic() {
    let mesh = loopback_mesh::<u64>(2);
    let handles: Vec<_> = mesh
        .into_iter()
        .map(|mut t| {
            std::thread::spawn(move || {
                let mut sim = phold_sim(7, QueueKind::Ladder);
                sim.run_sharded(&mut t, 2, SimDuration::from_ns(WINDOW_NS), SimTime::MAX).unwrap()
            })
        })
        .collect();
    let stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let cross: u64 = stats.iter().map(|s| s.cross_shard_events).sum();
    assert!(cross > 0, "PHOLD across 2 shards must exchange events: {stats:?}");
    assert!(stats.iter().all(|s| s.rounds > 0));
}

#[test]
fn tcp_mesh_matches_sequential() {
    let (want, want_committed) = sequential_reference(55);
    let n_shards = 2;
    let listeners: Vec<TcpListener> =
        (0..n_shards).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(me, listener)| {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let mut t = TcpTransport::mesh(me, listener, &addrs, Arc::new(PholdCodec)).unwrap();
                let mut sim = phold_sim(55, QueueKind::Ladder);
                let window = SimDuration::from_ns(WINDOW_NS);
                let stats = sim.run_sharded(&mut t, 2, window, SimTime::MAX).unwrap();
                (sim, stats)
            })
        })
        .collect();
    let (got, committed) = merge(handles, n_shards);
    assert_eq!(got, want, "TCP sharded run diverged from sequential");
    assert_eq!(committed, want_committed);
}

/// Ring-forwarding LP that panics on its `boom_on`-th event.
#[derive(Clone)]
struct PanickyRing {
    hits: u64,
    boom_on: u64,
}

impl Lp for PanickyRing {
    type Event = u64;
    fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        self.hits += 1;
        if self.hits == self.boom_on {
            panic!("model LP blew up on event {}", self.hits);
        }
        ctx.send((ev.dst + 1) % N_LPS, SimDuration::from_ns(WINDOW_NS), ev.payload + 1);
    }
}

/// A panic in `Lp::handle` under the shard round loop used to unwind one
/// worker while the leader and its siblings sat in `barrier.wait()`
/// forever (`std::sync::Barrier` does not poison). The shared latch now
/// parks the payload, winds the rounds down and re-raises it on the
/// caller. Only shard 0's LPs blow up: the halted shard keeps fencing
/// with `u64::MAX`, so its healthy peer drains and finishes cleanly.
#[test]
fn shard_worker_panic_propagates_instead_of_deadlocking() {
    let shard_of = shard_owner_map(None, N_LPS as usize, 2);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut handles = Vec::new();
    for (me, mut t) in loopback_mesh::<u64>(2).into_iter().enumerate() {
        let (tx, shard_of) = (tx.clone(), shard_of.clone());
        handles.push(std::thread::spawn(move || {
            let boom_on = |g: usize| if shard_of[g] == 0 { 40 } else { u64::MAX };
            let lps =
                (0..N_LPS as usize).map(|g| PanickyRing { hits: 0, boom_on: boom_on(g) }).collect();
            let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
            for i in 0..N_LPS {
                sim.schedule(i, SimTime::from_ns(i as u64), i as u64);
            }
            let window = SimDuration::from_ns(WINDOW_NS);
            let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_sharded(&mut t, 2, window, SimTime::MAX)
            }));
            let raised = raised.map(|r| r.map(|s| s.committed).map_err(|e| e.to_string()));
            tx.send((me, raised)).ok();
        }));
    }
    let mut outcomes = [None, None];
    for _ in 0..2 {
        let (me, raised) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("run_sharded hung on a panicking LP");
        outcomes[me] = Some(raised);
    }
    handles.into_iter().for_each(|h| h.join().expect("shard thread ends after reporting"));
    let [panicked, healthy] = outcomes.map(Option::unwrap);
    let payload = panicked.expect_err("run_sharded swallowed the LP panic");
    let msg = payload.downcast_ref::<String>().expect("original String payload");
    assert!(msg.contains("model LP blew up on event 40"), "wrong payload: {msg}");
    let healthy = healthy.unwrap_or_else(|_| panic!("the healthy shard panicked"));
    assert!(healthy.is_ok(), "the healthy shard failed: {healthy:?}");
}

/// The shard runner gets its tracer wiring and stall accounting from the
/// shared `Worker`, like every other conservative scheduler: each
/// shard's tracer records exactly the events that shard committed, and
/// the barrier waits show up as stall time.
#[test]
fn sharded_run_feeds_the_tracer_and_reports_stall_time() {
    let handles: Vec<_> = loopback_mesh::<u64>(2)
        .into_iter()
        .map(|mut t| {
            std::thread::spawn(move || {
                let mut sim = phold_sim(11, QueueKind::Ladder);
                let tracer = Arc::new(crate::Tracer::new(1));
                sim.set_tracer(Some(tracer.clone()));
                let window = SimDuration::from_ns(WINDOW_NS);
                let stats = sim.run_sharded(&mut t, 2, window, SimTime::MAX).unwrap();
                (stats, tracer.event_count() as u64)
            })
        })
        .collect();
    let (mut committed, mut traced) = (0, 0);
    for h in handles {
        let (stats, events) = h.join().unwrap();
        assert!(stats.horizon_stall_ns > 0, "no stall time reported: {stats:?}");
        committed += stats.committed;
        traced += events;
    }
    assert!(committed > 0);
    assert_eq!(traced, committed, "tracers must record every executed event exactly once");
}
