//! Sharded-run integration tests: loopback and TCP meshes must be
//! bit-identical to the sequential reference for any shard/thread/queue
//! combination, and a run that checkpoints mid-flight (or restarts from
//! such a checkpoint) must converge to the same final state.

use super::checkpoint::ShardCodec;
use super::transport::{loopback_mesh, EventCodec, TcpTransport};
use super::wire::{put_u64, ByteReader};
use super::{shard_owner_map, CheckpointSpec, ShardError, ShardRun};
use crate::queue::QueueKind;
use crate::{Ctx, Envelope, Lp, SimDuration, SimTime, Simulation};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;

/// Explicit-state RNG so the whole LP is checkpointable byte-for-byte
/// (the workspace `SmallRng` shim keeps its state private).
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

impl ShardCodec<Phold> for PholdCodec {
    fn save_lp(&self, lp: &Phold, out: &mut Vec<u8>) {
        put_u64(out, lp.rng);
        put_u64(out, lp.hits);
        put_u64(out, lp.checksum);
    }
    fn load_lp(&self, lp: &mut Phold, r: &mut ByteReader<'_>) -> Result<(), ShardError> {
        lp.rng = r.u64()?;
        lp.hits = r.u64()?;
        lp.checksum = r.u64()?;
        Ok(())
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
    checkpoint: Option<CheckpointSpec>,
    restore: Option<PathBuf>,
) -> (Vec<(u64, u64)>, u64) {
    let mesh = loopback_mesh::<u64>(n_shards);
    let handles: Vec<_> = mesh
        .into_iter()
        .map(|mut t| {
            let checkpoint = checkpoint.clone();
            let restore = restore.clone();
            std::thread::spawn(move || {
                let mut sim = phold_sim(seed, queue);
                let opts = ShardRun {
                    threads,
                    window: SimDuration::from_ns(WINDOW_NS),
                    checkpoint,
                    restore,
                    codec: Some(&PholdCodec),
                    on_checkpoint: None,
                };
                let stats = sim.run_sharded(&mut t, opts, SimTime::MAX).unwrap();
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

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ross-shard-{}-{name}", std::process::id()))
}

#[test]
fn loopback_matches_sequential_across_shards_threads_and_queues() {
    let (want, want_committed) = sequential_reference(2024);
    for n_shards in [1, 2, 4] {
        for threads in [1, 2] {
            for queue in [QueueKind::Heap, QueueKind::Ladder] {
                let (got, committed) = run_loopback(n_shards, threads, 2024, queue, None, None);
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
                let opts = ShardRun::new(2, SimDuration::from_ns(WINDOW_NS));
                sim.run_sharded(&mut t, opts, SimTime::MAX).unwrap()
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
                let opts = ShardRun::new(2, SimDuration::from_ns(WINDOW_NS));
                let stats = sim.run_sharded(&mut t, opts, SimTime::MAX).unwrap();
                (sim, stats)
            })
        })
        .collect();
    let (got, committed) = merge(handles, n_shards);
    assert_eq!(got, want, "TCP sharded run diverged from sequential");
    assert_eq!(committed, want_committed);
}

#[test]
fn checkpointing_run_is_undisturbed_and_restore_reaches_the_same_state() {
    let (want, _) = sequential_reference(99);
    let path = temp_path("roundtrip.ckpt");
    std::fs::remove_file(&path).ok();

    // A run that checkpoints every 5 µs of virtual time must still be
    // bit-identical to the uninterrupted reference.
    let spec = CheckpointSpec { path: path.clone(), every: SimDuration::from_ns(5_000) };
    let (got, _) = run_loopback(2, 2, 99, QueueKind::Ladder, Some(spec), None);
    assert_eq!(got, want, "checkpointing perturbed the run");

    // The file on disk is from an intermediate GVT, not the end state.
    let bytes = super::checkpoint::read_file(&path).unwrap();
    let (meta, sections) = super::checkpoint::parse_file(&bytes).unwrap();
    assert_eq!(meta.n_shards, 2);
    assert_eq!(meta.n_lps, N_LPS);
    assert_eq!(sections.len(), 2);
    assert!(meta.gvt_ns >= 5_000, "checkpoint taken before the first interval");

    // Fresh processes restored from that cut must converge to the same
    // final state as the uninterrupted run.
    let (restored, _) = run_loopback(2, 2, 99, QueueKind::Ladder, None, Some(path.clone()));
    assert_eq!(restored, want, "restored run diverged from uninterrupted run");

    std::fs::remove_file(&path).ok();
}

#[test]
fn restore_rejects_mismatched_shard_count() {
    let path = temp_path("mismatch.ckpt");
    std::fs::remove_file(&path).ok();
    let spec = CheckpointSpec { path: path.clone(), every: SimDuration::from_ns(5_000) };
    run_loopback(2, 1, 42, QueueKind::Ladder, Some(spec), None);

    let mut mesh = loopback_mesh::<u64>(1);
    let mut t = mesh.pop().unwrap();
    let mut sim = phold_sim(42, QueueKind::Ladder);
    let opts = ShardRun {
        threads: 1,
        window: SimDuration::from_ns(WINDOW_NS),
        checkpoint: None,
        restore: Some(path.clone()),
        codec: Some(&PholdCodec),
        on_checkpoint: None,
    };
    let err = sim.run_sharded(&mut t, opts, SimTime::MAX).unwrap_err();
    match err {
        ShardError::Format(m) => assert!(m.contains("shards"), "unhelpful message: {m}"),
        other => panic!("expected a format error, got {other}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_without_codec_is_refused() {
    let mut mesh = loopback_mesh::<u64>(1);
    let mut t = mesh.pop().unwrap();
    let mut sim = phold_sim(1, QueueKind::Ladder);
    let mut opts = ShardRun::new(1, SimDuration::from_ns(WINDOW_NS));
    opts.checkpoint =
        Some(CheckpointSpec { path: temp_path("nocodec.ckpt"), every: SimDuration::from_ns(1) });
    assert!(sim.run_sharded(&mut t, opts, SimTime::MAX).is_err());
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

// `PholdCodec` already carries the `u64` payload.
impl ShardCodec<PanickyRing> for PholdCodec {
    fn save_lp(&self, lp: &PanickyRing, out: &mut Vec<u8>) {
        put_u64(out, lp.hits);
    }
    fn load_lp(&self, lp: &mut PanickyRing, r: &mut ByteReader<'_>) -> Result<(), ShardError> {
        lp.hits = r.u64()?;
        Ok(())
    }
}

/// A panic in `Lp::handle` under the shard round loop used to unwind one
/// worker while the leader and its siblings sat in `barrier.wait()`
/// forever (`std::sync::Barrier` does not poison). The shared latch now
/// parks the payload, winds the rounds down and re-raises it on the
/// caller. The `CheckpointSpec` + codec force the round loop (a plain
/// 1-shard run delegates to the async scheduler). This covers the
/// panicking shard only: notifying *peer* shards of the abort stays with
/// ROADMAP item 4 — loopback endpoints hold a sender to themselves, so a
/// peer cannot observe a hang-up yet.
#[test]
fn shard_worker_panic_propagates_instead_of_deadlocking() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let lps = (0..N_LPS).map(|_| PanickyRing { hits: 0, boom_on: 40 }).collect();
        let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
        for i in 0..N_LPS {
            sim.schedule(i, SimTime::from_ns(i as u64), i as u64);
        }
        let mut t = loopback_mesh::<u64>(1).pop().unwrap();
        let opts = ShardRun {
            threads: 2,
            window: SimDuration::from_ns(WINDOW_NS),
            checkpoint: Some(CheckpointSpec {
                path: temp_path("panic.ckpt"),
                every: SimDuration::from_ns(1_000_000),
            }),
            restore: None,
            codec: Some(&PholdCodec),
            on_checkpoint: None,
        };
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_sharded(&mut t, opts, SimTime::MAX)
        }));
        tx.send(raised.map(|r| r.map(|s| s.committed).map_err(|e| e.to_string()))).ok();
    });
    let raised = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("run_sharded hung on a panicking LP");
    let payload = raised.expect_err("run_sharded swallowed the LP panic");
    let msg = payload.downcast_ref::<String>().expect("original String payload");
    assert!(msg.contains("model LP blew up on event 40"), "wrong payload: {msg}");
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
                let opts = ShardRun::new(2, SimDuration::from_ns(WINDOW_NS));
                let stats = sim.run_sharded(&mut t, opts, SimTime::MAX).unwrap();
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
