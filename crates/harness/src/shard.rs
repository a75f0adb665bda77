//! Multi-process sharded execution for `union-exp`.
//!
//! `--sched shard:N:T` turns one `union-exp` invocation into a gang of
//! `N` OS processes, each running `T` worker threads. The parent re-execs
//! its own argv `N` times with a hidden worker role in the environment;
//! workers rebuild the identical simulation from that argv — and so
//! derive the identical lookahead window from it — form a TCP mesh, and
//! run their shard via [`ross::Simulation::run_sharded`]. The parent
//! merges per-shard fingerprints, committed-event counts, and telemetry,
//! and (unless told otherwise) verifies the merged fingerprint against an
//! in-process sequential run of the same model.
//!
//! Control protocol (JSONL over one TCP connection per worker):
//!
//! 1. worker → parent  `{"hello": id, "addr": "ip:port"}` — the worker's
//!    data-mesh listener address;
//! 2. parent → worker  `{"peers": ["ip:port", ...]}` — all `N` data
//!    addresses in shard order;
//! 3. worker → parent  zero or more `{"record":"snapshot", ...}` live
//!    metric snapshots (when the gang runs with `--live`), then one
//!    [`WorkerReport`] line, then exit.
//!
//! A worker that dies mid-run (a crash, a kill) closes its control
//! connection; the parent then kills the rest of the gang and
//! reports which shard was lost.

use crate::run::RunSpec;
use ross::shard::wire::{fnv1a, put_u64, ByteReader};
use ross::shard::{shard_owner_map, EventCodec, ShardError, ShardTransport, TcpTransport};
use ross::{Ctx, Envelope, Lp, QueueKind, RunStats, SimDuration, SimTime, Simulation};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use telemetry::live::{GangAggregator, MetricsRegistry, SnapshotRecord, SnapshotSink};

/// Environment of a spawned worker process.
pub const ENV_ROLE: &str = "UNION_SHARD_ROLE";
pub const ENV_ID: &str = "UNION_SHARD_ID";
pub const ENV_N: &str = "UNION_SHARD_N";
pub const ENV_CONTROL: &str = "UNION_SHARD_CONTROL";

/// A parsed `shard:N:T` scheduler spec (grammar: [`crate::run::Sched::parse`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    pub shards: usize,
    pub threads: usize,
}

/// The worker role of this process, if the launcher spawned it:
/// `(shard id, gang size, control address)`.
pub fn worker_role() -> Option<(usize, usize, String)> {
    if std::env::var(ENV_ROLE).ok()?.as_str() != "worker" {
        return None;
    }
    let id = std::env::var(ENV_ID).ok()?.parse().ok()?;
    let n = std::env::var(ENV_N).ok()?.parse().ok()?;
    let ctrl = std::env::var(ENV_CONTROL).ok()?;
    Some((id, n, ctrl))
}

/// What each worker sends back on its control connection.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkerReport {
    pub shard: u64,
    pub ok: bool,
    /// Present when `ok` is false.
    pub error: Option<String>,
    /// Order-independent digest of the owned LPs' final state; gang
    /// fingerprints merge by wrapping addition.
    pub fingerprint: u64,
    pub committed: u64,
    pub cross_shard_events: u64,
    pub rounds: u64,
    /// The worker's telemetry lines (JSONL), merged into the parent's
    /// recorder.
    pub telemetry: Vec<String>,
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// A worker's connection to the launcher. The writer is shared: the
/// live sampler thread streams snapshot lines through it concurrently
/// with (strictly before, by the sampler-stop ordering) the final
/// report, and the mutex keeps lines whole.
pub struct WorkerLink {
    reader: BufReader<TcpStream>,
    writer: Arc<Mutex<TcpStream>>,
    pub me: usize,
    pub n: usize,
}

impl WorkerLink {
    /// Connect to the launcher, bind the data-mesh listener, and say
    /// hello. Returns the link and the listener to pass to
    /// [`TcpTransport::mesh`].
    pub fn connect(
        me: usize,
        n: usize,
        control: &str,
    ) -> Result<(WorkerLink, TcpListener), String> {
        let stream = TcpStream::connect(control)
            .map_err(|e| format!("shard {me}: cannot reach launcher at {control}: {e}"))?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("shard {me}: cannot bind data listener: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let writer = Arc::new(Mutex::new(stream.try_clone().map_err(|e| e.to_string())?));
        let link = WorkerLink { reader: BufReader::new(stream), writer, me, n };
        let hello = serde::Value::Object(vec![
            ("hello".to_string(), serde::Value::UInt(me as u64)),
            ("addr".to_string(), serde::Value::Str(addr.to_string())),
        ]);
        write_line(
            &mut link.writer.lock().expect("control writer"),
            &serde_json::to_string(&hello).expect("hello json"),
        )
        .map_err(|e| format!("shard {me}: hello failed: {e}"))?;
        Ok((link, listener))
    }

    /// Receive the full gang's data addresses, in shard order.
    pub fn peers(&mut self) -> Result<Vec<SocketAddr>, String> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("shard {}: reading peer list: {e}", self.me))?;
        let v: serde::Value = serde_json::from_str(line.trim())
            .map_err(|e| format!("shard {}: bad peer list: {e}", self.me))?;
        let peers = v
            .get("peers")
            .and_then(|p| p.as_array())
            .ok_or_else(|| format!("shard {}: peer list missing `peers`", self.me))?;
        let addrs: Option<Vec<SocketAddr>> =
            peers.iter().map(|a| a.as_str()?.parse().ok()).collect();
        addrs
            .filter(|a| a.len() == self.n)
            .ok_or_else(|| format!("shard {}: malformed peer list", self.me))
    }

    /// Send the final report. Errors are ignored deliberately: if the
    /// launcher is already gone there is nobody left to tell.
    pub fn report(&mut self, report: &WorkerReport) {
        if let Ok(json) = serde_json::to_string(report) {
            let _ = write_line(&mut self.writer.lock().expect("control writer"), &json);
        }
    }

    /// A sampler sink streaming every snapshot to the launcher as one
    /// JSONL line. Send failures are swallowed: a gang with a dead
    /// launcher is already doomed, and the run's correctness never
    /// depends on live metrics arriving.
    pub fn snapshot_sink(&self) -> SnapshotSink {
        let writer = Arc::clone(&self.writer);
        Box::new(move |snap: &SnapshotRecord| {
            if let Ok(json) = serde_json::to_string(snap) {
                let _ = write_line(&mut writer.lock().expect("control writer"), &json);
            }
        })
    }
}

/// The worker role: join the gang at `control`, form the data mesh, let
/// `run` execute shard `me` of its model over it — every worker rebuilds
/// the identical simulation from the same argv, reporting into the
/// recorder and live registry it is handed — and send the launcher one
/// report carrying `run`'s shard fingerprint and engine counters. `Err`
/// is what ended the run (also in the report, if the launcher was there).
pub(crate) fn run_worker<E: Clone + Send + 'static>(
    (me, n, control): (usize, usize, String),
    spec: &RunSpec,
    codec: Arc<dyn EventCodec<E>>,
    run: impl FnOnce(
        Arc<telemetry::Recorder>,
        Option<Arc<MetricsRegistry>>,
        &mut dyn ShardTransport<E>,
    ) -> Result<(u64, RunStats), ShardError>,
) -> Result<(), String> {
    let (mut link, listener) = WorkerLink::connect(me, n, &control)?;
    let peers = link.peers()?;
    let rec = Arc::new(telemetry::Recorder::new());
    // Workers never bind an endpoint: they stream snapshots to the
    // launcher over the control socket instead.
    let registry = spec.out.live.as_ref().map(|_| Arc::new(MetricsRegistry::new()));
    let sampler = spec.out.live.as_ref().zip(registry.clone()).map(|(opts, registry)| {
        crate::live::start_sampler(opts, registry, Some(link.snapshot_sink()))
    });
    let outcome = TcpTransport::mesh(me, listener, &peers, codec)
        .and_then(|mut transport| run(rec.clone(), registry, &mut transport));
    // Stop before reporting: the stop tick streams the exact end-of-run
    // snapshot ahead of the report line.
    if let Some(s) = sampler {
        s.stop();
    }
    let mut report =
        WorkerReport { shard: me as u64, telemetry: rec.lines(), ..WorkerReport::default() };
    match outcome {
        Ok((fingerprint, stats)) => {
            report.ok = true;
            report.fingerprint = fingerprint;
            report.committed = stats.committed;
            report.cross_shard_events = stats.cross_shard_events;
            report.rounds = stats.rounds;
        }
        Err(e) => report.error = Some(e.to_string()),
    }
    link.report(&report);
    report.error.map_or(Ok(()), Err)
}

// ---------------------------------------------------------------------------
// Launcher side
// ---------------------------------------------------------------------------

/// The merged outcome of a successful gang run.
#[derive(Clone, Debug)]
pub struct GangOutcome {
    /// Wrapping sum of the per-shard fingerprints — comparable to the
    /// same model's sequential fingerprint.
    pub fingerprint: u64,
    pub committed: u64,
    pub cross_shard_events: u64,
    pub reports: Vec<WorkerReport>,
}

fn kill_all(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
    }
    for c in children.iter_mut() {
        let _ = c.wait();
    }
}

/// Spawn `spec.shards` copies of this binary with the same argv, broker
/// the data mesh, and collect one report per worker. `telemetry`
/// receives every worker's telemetry lines in shard order; `live`
/// ingests the snapshot lines workers stream mid-run so one endpoint
/// observes the whole gang.
pub fn launch_gang(
    spec: &ShardSpec,
    telemetry: Option<&telemetry::Recorder>,
    live: Option<&GangAggregator>,
) -> Result<GangOutcome, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind control socket: {e}"))?;
    let control = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut children: Vec<Child> = Vec::with_capacity(spec.shards);
    for i in 0..spec.shards {
        let child = Command::new(&exe)
            .args(&args)
            .env(ENV_ROLE, "worker")
            .env(ENV_ID, i.to_string())
            .env(ENV_N, spec.shards.to_string())
            .env(ENV_CONTROL, &control)
            .stdin(Stdio::null())
            // Workers inherit stdout/stderr so a panic is visible.
            .spawn()
            .map_err(|e| format!("cannot spawn shard worker {i}: {e}"));
        match child {
            Ok(c) => children.push(c),
            Err(e) => {
                kill_all(&mut children);
                return Err(e);
            }
        }
    }

    let out = broker_and_collect(spec, &listener, &mut children, live);
    if out.is_err() {
        kill_all(&mut children);
    } else {
        for c in children.iter_mut() {
            let _ = c.wait();
        }
    }
    let reports = out?;

    if let Some(rec) = telemetry {
        for r in &reports {
            for line in &r.telemetry {
                rec.emit_raw(line.clone());
            }
        }
    }
    let mut outcome = GangOutcome { fingerprint: 0, committed: 0, cross_shard_events: 0, reports };
    for r in &outcome.reports {
        outcome.fingerprint = outcome.fingerprint.wrapping_add(r.fingerprint);
        outcome.committed += r.committed;
        outcome.cross_shard_events += r.cross_shard_events;
    }
    Ok(outcome)
}

/// Accept all workers, relay the peer list, and gather reports. Any
/// worker dying (connection EOF before its report) fails the gang.
/// Snapshot lines arriving before a worker's report go to `live`.
fn broker_and_collect(
    spec: &ShardSpec,
    listener: &TcpListener,
    children: &mut [Child],
    live: Option<&GangAggregator>,
) -> Result<Vec<WorkerReport>, String> {
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    // Accept one control connection per worker; poll child liveness so a
    // worker that dies before saying hello doesn't hang the launcher.
    let mut conns: Vec<Option<(BufReader<TcpStream>, TcpStream)>> = Vec::new();
    conns.resize_with(spec.shards, || None);
    let mut addrs: Vec<Option<String>> = vec![None; spec.shards];
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while conns.iter().any(|c| c.is_none()) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                let writer = stream.try_clone().map_err(|e| e.to_string())?;
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                reader.read_line(&mut line).map_err(|e| format!("worker hello: {e}"))?;
                let v: serde::Value = serde_json::from_str(line.trim())
                    .map_err(|e| format!("bad worker hello `{}`: {e}", line.trim()))?;
                let id = v
                    .get("hello")
                    .and_then(|h| h.as_u64())
                    .ok_or_else(|| format!("worker hello without id: {}", line.trim()))?
                    as usize;
                let addr = v
                    .get("addr")
                    .and_then(|a| a.as_str())
                    .ok_or_else(|| format!("worker hello without addr: {}", line.trim()))?;
                if id >= spec.shards || conns[id].is_some() {
                    return Err(format!("unexpected hello from shard {id}"));
                }
                addrs[id] = Some(addr.to_string());
                conns[id] = Some((reader, writer));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for (i, c) in children.iter_mut().enumerate() {
                    if conns[i].is_none() {
                        if let Ok(Some(status)) = c.try_wait() {
                            return Err(format!(
                                "shard worker {i} exited ({status}) before joining the gang"
                            ));
                        }
                    }
                }
                if std::time::Instant::now() > deadline {
                    return Err("timed out waiting for shard workers to join".to_string());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(format!("control accept: {e}")),
        }
    }

    let peer_line = {
        let list: Vec<serde::Value> = addrs
            .iter()
            .map(|a| serde::Value::Str(a.clone().expect("all addrs collected")))
            .collect();
        let v = serde::Value::Object(vec![("peers".to_string(), serde::Value::Array(list))]);
        serde_json::to_string(&v).expect("peers json")
    };
    for c in conns.iter_mut().flatten() {
        write_line(&mut c.1, &peer_line).map_err(|e| format!("sending peer list: {e}"))?;
    }

    // One blocking reader thread per worker: reports arrive in any order,
    // and a dead worker surfaces as EOF on its own connection.
    let results: Vec<Result<WorkerReport, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let (reader, _) = c.as_mut().expect("all conns collected");
                scope.spawn(move || -> Result<WorkerReport, String> {
                    // Drain the stream: snapshot lines feed the gang
                    // aggregator, the first non-snapshot line is the
                    // worker's final report.
                    let mut line = String::new();
                    loop {
                        line.clear();
                        let n = reader
                            .read_line(&mut line)
                            .map_err(|e| format!("shard {i}: report read failed: {e}"))?;
                        if n == 0 {
                            return Err(format!("shard {i} died before reporting"));
                        }
                        if let Ok(snap) = serde_json::from_str::<SnapshotRecord>(line.trim()) {
                            if snap.record == "snapshot" {
                                if let Some(agg) = live {
                                    agg.ingest(i as u64, snap);
                                }
                                continue;
                            }
                        }
                        return serde_json::from_str::<WorkerReport>(line.trim())
                            .map_err(|e| format!("shard {i}: bad report: {e}"));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("report reader panicked")).collect()
    });

    let mut reports = Vec::with_capacity(spec.shards);
    for r in results {
        let r = r?;
        if !r.ok {
            return Err(format!(
                "shard {} failed: {}",
                r.shard,
                r.error.as_deref().unwrap_or("unknown error")
            ));
        }
        reports.push(r);
    }
    reports.sort_by_key(|r| r.shard);
    Ok(reports)
}

// ---------------------------------------------------------------------------
// The PHOLD demonstration model
// ---------------------------------------------------------------------------

/// PHOLD over an explicit-state xorshift RNG, whose stream the pinned
/// `phold` fingerprint depends on. The minimum event delay is
/// [`PHOLD_MIN_DELAY_NS`], which is therefore PHOLD's shard window.
pub const PHOLD_MIN_DELAY_NS: u64 = 50;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

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
            let delay = PHOLD_MIN_DELAY_NS + xorshift(&mut self.rng) % 451;
            ctx.send(dst, SimDuration::from_ns(delay), self.checksum);
        }
    }
}

/// Wire codec for [`PholdLp`]'s `u64` events.
pub struct PholdCodec;

impl EventCodec<u64> for PholdCodec {
    fn encode(&self, ev: &u64, out: &mut Vec<u8>) {
        put_u64(out, *ev);
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> Result<u64, ShardError> {
        r.u64()
    }
}

/// Parameters of a PHOLD run; every shard builds the identical model
/// from these.
#[derive(Clone, Copy, Debug)]
pub struct PholdParams {
    pub lps: u32,
    pub horizon_ns: u64,
    pub seed: u64,
    pub queue: QueueKind,
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
    let mut sim = Simulation::with_queue(lps, SimDuration::from_ns(1), p.queue);
    for i in 0..p.lps {
        sim.schedule(i, SimTime::from_ns(i as u64 % 7), i as u64);
    }
    sim
}

/// Order-independent digest of the PHOLD LPs shard `me` of `n_shards`
/// owns (all of them for `n_shards == 1`): per-shard values sum to the
/// sequential fingerprint, exactly like [`codes::CodesSim::shard_fingerprint`].
pub fn phold_fingerprint(sim: &Simulation<PholdLp>, me: usize, n_shards: usize) -> u64 {
    let shard_of = shard_owner_map(None, sim.lps().len(), n_shards);
    sim.lps().iter().enumerate().filter(|(g, _)| shard_of[*g] == me as u32).fold(
        0u64,
        |acc, (g, lp)| {
            let mut buf = Vec::with_capacity(32);
            put_u64(&mut buf, g as u64);
            put_u64(&mut buf, lp.hits);
            put_u64(&mut buf, lp.checksum);
            acc.wrapping_add(fnv1a(&buf))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_report_round_trips_through_json() {
        let r = WorkerReport {
            shard: 3,
            ok: true,
            error: None,
            fingerprint: u64::MAX - 7,
            committed: 123,
            cross_shard_events: 45,
            rounds: 6,
            telemetry: vec!["{\"type\":\"scheduler\"}".to_string()],
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: WorkerReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shard, 3);
        assert!(back.ok);
        assert_eq!(back.fingerprint, u64::MAX - 7);
        assert_eq!(back.telemetry.len(), 1);
    }

    #[test]
    fn phold_shard_fingerprints_sum_to_the_whole() {
        let p = PholdParams { lps: 16, horizon_ns: 0, seed: 9, queue: QueueKind::Ladder };
        let mut sim = build_phold(&p);
        sim.run_sequential(SimTime::MAX);
        let whole = phold_fingerprint(&sim, 0, 1);
        for n in [2usize, 3, 4] {
            let sum = (0..n).fold(0u64, |acc, s| acc.wrapping_add(phold_fingerprint(&sim, s, n)));
            assert_eq!(sum, whole, "{n} shards");
        }
    }
}
