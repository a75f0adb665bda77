//! Cross-shard transports: how envelopes and GVT tokens move between the
//! N OS processes of a sharded run.
//!
//! Two implementations of [`ShardTransport`]:
//!
//! * [`loopback_mesh`] — in-process `mpsc` channels passing frames by
//!   value. No serialization at all, so it works for any event type and
//!   gives deterministic multi-shard runs inside one test process.
//! * [`TcpTransport`] — a full mesh of TCP connections with
//!   length-prefixed frames (the same `[u32 len][bytes]` idiom as
//!   `telemetry::StreamWriter`'s buffered-file framing, applied to a
//!   socket). Event payloads cross the wire through a model-supplied
//!   [`EventCodec`].
//!
//! Both preserve per-sender FIFO order, which the Mattern-style token
//! fence in [`super`] relies on (a `Gvt` broadcast must not overtake the
//! token that produced it).

use super::wire::{put_bytes, put_u32, put_u64, put_u8, ByteReader};
use super::ShardError;
use crate::event::{Envelope, EventUid};
// The loopback mesh rides the `union_check` seam so checked builds can
// model-check whole multi-shard runs; the TCP transport keeps plain std
// channels (its reader threads are real OS threads either way).
use crate::sync::mpsc;
use crate::time::SimTime;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc as std_mpsc;
use std::sync::Arc;

/// Encode/decode one model event payload for the wire. Implementations
/// must be pure: `decode(encode(e))` reproduces `e` exactly, on any host.
pub trait EventCodec<E>: Send + Sync {
    fn encode(&self, ev: &E, out: &mut Vec<u8>);
    fn decode(&self, r: &mut ByteReader<'_>) -> Result<E, ShardError>;
}

/// The GVT token circulated around the shard ring during a fence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// Minimum pending timestamp seen so far (ns).
    pub min: u64,
    /// Σ (sent − received) over the shards visited so far. Zero on a
    /// complete ring pass means every cross-shard event has been
    /// absorbed and `min` is the true GVT.
    pub in_flight: i64,
    /// Wave number within one fence (retries until `in_flight == 0`).
    pub wave: u32,
    /// The synchronization round this fence belongs to.
    pub epoch: u64,
}

/// One transport message.
#[derive(Clone)]
pub enum Frame<E> {
    /// A batch of cross-shard events sent during processing round
    /// `epoch`. The epoch tag is this design's stand-in for Mattern's
    /// white/red coloring: no sends happen during a fence, so a frame
    /// tagged with a different epoch than the fence in progress is a
    /// protocol violation, not a color to wait out.
    Events { epoch: u64, batch: Vec<Envelope<E>> },
    /// GVT reduction token (ring order).
    Token(Token),
    /// Fence result broadcast by shard 0.
    Gvt { gvt: u64 },
}

// Hand-written so protocol errors can describe any frame without an
// `E: Debug` bound; payloads are summarized, not dumped.
impl<E> std::fmt::Debug for Frame<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Frame::Events { epoch, batch } => f
                .debug_struct("Events")
                .field("epoch", epoch)
                .field("batch_len", &batch.len())
                .finish(),
            Frame::Token(t) => f.debug_tuple("Token").field(t).finish(),
            Frame::Gvt { gvt } => f.debug_struct("Gvt").field("gvt", gvt).finish(),
        }
    }
}

/// Moves frames between the shards of one run. `send` may buffer;
/// `recv` blocks until a frame arrives. Implementations must preserve
/// per-sender FIFO order.
pub trait ShardTransport<E: Clone + Send>: Send {
    /// This shard's id in `0..n_shards`.
    fn me(&self) -> usize;
    /// Total number of shards.
    fn n_shards(&self) -> usize;
    /// Send one frame to shard `to`.
    fn send(&mut self, to: usize, frame: Frame<E>) -> Result<(), ShardError>;
    /// Block until a frame arrives; returns `(sender, frame)`.
    fn recv(&mut self) -> Result<(usize, Frame<E>), ShardError>;
}

// ---------------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------------

/// A frame tagged with its sending shard, as queued between endpoints.
type TaggedFrame<E> = (usize, Frame<E>);

/// In-process transport endpoint produced by [`loopback_mesh`].
pub struct LoopbackTransport<E> {
    me: usize,
    n: usize,
    txs: Vec<mpsc::Sender<TaggedFrame<E>>>,
    rx: mpsc::Receiver<TaggedFrame<E>>,
}

/// Build `n` connected loopback endpoints; endpoint `i` is shard `i`.
/// Frames pass by value — no codec, no serialization.
pub fn loopback_mesh<E: Clone + Send>(n: usize) -> Vec<LoopbackTransport<E>> {
    let pairs: Vec<_> = (0..n).map(|_| mpsc::channel::<(usize, Frame<E>)>()).collect();
    let txs: Vec<_> = pairs.iter().map(|(tx, _)| tx.clone()).collect();
    pairs
        .into_iter()
        .enumerate()
        .map(|(me, (_, rx))| LoopbackTransport { me, n, txs: txs.clone(), rx })
        .collect()
}

impl<E: Clone + Send> ShardTransport<E> for LoopbackTransport<E> {
    fn me(&self) -> usize {
        self.me
    }

    fn n_shards(&self) -> usize {
        self.n
    }

    fn send(&mut self, to: usize, frame: Frame<E>) -> Result<(), ShardError> {
        let tx = (self.txs.get(to))
            .ok_or_else(|| ShardError::Protocol(format!("send to unknown shard {to}")))?;
        tx.send((self.me, frame)).map_err(|_| ShardError::Protocol(format!("shard {to} hung up")))
    }

    fn recv(&mut self) -> Result<(usize, Frame<E>), ShardError> {
        self.rx.recv().map_err(|_| ShardError::Protocol("all peer shards hung up".to_string()))
    }
}

// ---------------------------------------------------------------------------
// Frame wire format (TCP)
// ---------------------------------------------------------------------------

const TAG_EVENTS: u8 = 0;
const TAG_TOKEN: u8 = 1;
const TAG_GVT: u8 = 2;

/// Largest frame body a reader accepts: 64 MiB, room for a full `Events`
/// frame of 256 events with payloads of up to about 256 KiB each. A longer
/// length prefix is a corrupt stream, refused before allocating.
const MAX_FRAME_BYTES: usize = 64 << 20;

/// Encode a frame body (everything after the `[u32 len]` prefix). An
/// event's uid is not sent: it is `(src, tiebreak)`.
pub(super) fn encode_frame<E>(frame: &Frame<E>, codec: &dyn EventCodec<E>, out: &mut Vec<u8>) {
    match frame {
        Frame::Events { epoch, batch } => {
            put_u8(out, TAG_EVENTS);
            put_u64(out, *epoch);
            put_u32(out, batch.len() as u32);
            let mut payload = Vec::new();
            for env in batch {
                put_u64(out, env.recv_time.0);
                put_u64(out, env.send_time.0);
                put_u32(out, env.src);
                put_u32(out, env.dst);
                put_u64(out, env.tiebreak);
                payload.clear();
                codec.encode(&env.payload, &mut payload);
                put_bytes(out, &payload);
            }
        }
        Frame::Token(t) => {
            put_u8(out, TAG_TOKEN);
            put_u64(out, t.min);
            put_u64(out, t.in_flight as u64);
            put_u32(out, t.wave);
            put_u64(out, t.epoch);
        }
        Frame::Gvt { gvt } => {
            put_u8(out, TAG_GVT);
            put_u64(out, *gvt);
        }
    }
}

/// Decode a frame body produced by [`encode_frame`].
pub(super) fn decode_frame<E>(
    body: &[u8],
    codec: &dyn EventCodec<E>,
) -> Result<Frame<E>, ShardError> {
    let mut r = ByteReader::new(body);
    let frame = match r.u8()? {
        TAG_EVENTS => {
            let epoch = r.u64()?;
            let count = r.u32()? as usize;
            let mut batch = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let recv_time = SimTime(r.u64()?);
                let send_time = SimTime(r.u64()?);
                let src = r.u32()?;
                let dst = r.u32()?;
                let tiebreak = r.u64()?;
                let payload_bytes = r.bytes()?;
                let mut pr = ByteReader::new(payload_bytes);
                let payload = codec.decode(&mut pr)?;
                batch.push(Envelope {
                    recv_time,
                    send_time,
                    src,
                    dst,
                    tiebreak,
                    uid: EventUid { src, seq: tiebreak },
                    payload,
                });
            }
            Frame::Events { epoch, batch }
        }
        TAG_TOKEN => Frame::Token(Token {
            min: r.u64()?,
            in_flight: r.u64()? as i64,
            wave: r.u32()?,
            epoch: r.u64()?,
        }),
        TAG_GVT => Frame::Gvt { gvt: r.u64()? },
        tag => return Err(ShardError::Format(format!("unknown frame tag {tag}"))),
    };
    if r.remaining() != 0 {
        return Err(ShardError::Format(format!("{} trailing bytes after frame", r.remaining())));
    }
    Ok(frame)
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// Full-mesh TCP transport. One duplex connection per peer pair; for
/// the pair `(i, j)` with `i < j`, shard `j` dials shard `i`'s
/// listener. One reader thread per peer decodes frames into a shared
/// channel, so [`ShardTransport::recv`] observes frames in arrival
/// order while per-peer FIFO order is preserved by TCP itself. A frame
/// that fails to decode reaches `recv` as [`ShardError::Format`] naming
/// the sending shard.
pub struct TcpTransport<E> {
    me: usize,
    n: usize,
    /// Write half per peer (`None` at index `me`).
    writers: Vec<Option<TcpStream>>,
    rx: std_mpsc::Receiver<Decoded<E>>,
    codec: Arc<dyn EventCodec<E>>,
    scratch: Vec<u8>,
}

impl<E: Clone + Send + 'static> TcpTransport<E> {
    /// Connect the mesh. `listener` is this shard's pre-bound listener
    /// (whose address peers were told); `addrs[j]` is shard `j`'s
    /// listener address. Blocks until all `n-1` connections are up.
    pub fn mesh(
        me: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        codec: Arc<dyn EventCodec<E>>,
    ) -> Result<TcpTransport<E>, ShardError> {
        let n = addrs.len();
        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        // Dial every lower-numbered peer, announcing our id.
        for (j, addr) in addrs.iter().enumerate().take(me) {
            let mut s = TcpStream::connect(addr)?;
            s.set_nodelay(true).ok();
            s.write_all(&(me as u32).to_le_bytes())?;
            streams[j] = Some(s);
        }
        // Accept every higher-numbered peer; they identify themselves.
        for _ in me + 1..n {
            let (mut s, _) = listener.accept()?;
            s.set_nodelay(true).ok();
            let mut id = [0u8; 4];
            s.read_exact(&mut id)?;
            let j = u32::from_le_bytes(id) as usize;
            if j <= me || j >= n || streams[j].is_some() {
                return Err(ShardError::Protocol(format!("bad hello from peer {j}")));
            }
            streams[j] = Some(s);
        }

        let (tx, rx) = std_mpsc::channel();
        let mut writers: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        for (j, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else { continue };
            let reader = stream.try_clone()?;
            writers[j] = Some(stream);
            let tx = tx.clone();
            let codec = Arc::clone(&codec);
            std::thread::Builder::new()
                .name(format!("shard-rx-{j}"))
                .spawn(move || read_loop(j, reader, codec, tx))
                .map_err(ShardError::Io)?;
        }
        Ok(TcpTransport { me, n, writers, rx, codec, scratch: Vec::new() })
    }
}

/// One peer's next frame, or why its stream could not be decoded.
type Decoded<E> = (usize, Result<Frame<E>, ShardError>);

/// Per-peer reader: length-prefixed frames until EOF or the first frame
/// that is too long or fails to decode, which is forwarded to `recv` (the
/// stream is out of step from there on). EOF is silent: a finished peer
/// legitimately closes its sockets while others still dequeue the final
/// `Gvt`.
fn read_loop<E: Clone + Send>(
    from: usize,
    mut stream: TcpStream,
    codec: Arc<dyn EventCodec<E>>,
    tx: std_mpsc::Sender<Decoded<E>>,
) {
    let mut len_buf = [0u8; 4];
    let mut body = Vec::new();
    loop {
        if stream.read_exact(&mut len_buf).is_err() {
            return; // peer closed; the process-level launcher notices
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let frame = if len > MAX_FRAME_BYTES {
            Err(ShardError::Format(format!("length {len} exceeds {MAX_FRAME_BYTES} bytes")))
        } else {
            body.resize(len, 0);
            if stream.read_exact(&mut body).is_err() {
                return;
            }
            decode_frame(&body, codec.as_ref())
        };
        let corrupt = frame.is_err();
        if tx.send((from, frame)).is_err() || corrupt {
            return; // transport dropped, or the stream is out of step
        }
    }
}

impl<E: Clone + Send + 'static> ShardTransport<E> for TcpTransport<E> {
    fn me(&self) -> usize {
        self.me
    }

    fn n_shards(&self) -> usize {
        self.n
    }

    fn send(&mut self, to: usize, frame: Frame<E>) -> Result<(), ShardError> {
        self.scratch.clear();
        encode_frame(&frame, self.codec.as_ref(), &mut self.scratch);
        let w = self
            .writers
            .get_mut(to)
            .and_then(|w| w.as_mut())
            .ok_or_else(|| ShardError::Protocol(format!("send to unknown shard {to}")))?;
        w.write_all(&(self.scratch.len() as u32).to_le_bytes())?;
        w.write_all(&self.scratch)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<(usize, Frame<E>), ShardError> {
        match self.rx.recv() {
            Ok((from, Ok(frame))) => Ok((from, frame)),
            Ok((from, Err(ShardError::Format(m)))) => {
                Err(ShardError::Format(format!("frame from shard {from}: {m}")))
            }
            Ok((_, Err(e))) => Err(e),
            Err(_) => Err(ShardError::Protocol("all peer connections closed".to_string())),
        }
    }
}

// Loopback tests use the shimmed channels outside a model-checking
// context, so production cfg only (see `tests/union_check_oracle.rs`
// for the checked-build coverage).
#[cfg(all(test, not(union_check)))]
mod tests {
    use super::*;

    struct U64Codec;
    impl EventCodec<u64> for U64Codec {
        fn encode(&self, ev: &u64, out: &mut Vec<u8>) {
            put_u64(out, *ev);
        }
        fn decode(&self, r: &mut ByteReader<'_>) -> Result<u64, ShardError> {
            r.u64()
        }
    }

    fn env(recv: u64, payload: u64) -> Envelope<u64> {
        Envelope {
            recv_time: SimTime(recv),
            send_time: SimTime(recv.saturating_sub(1)),
            src: 3,
            dst: 9,
            tiebreak: 17,
            uid: EventUid { src: 3, seq: 17 },
            payload,
        }
    }

    #[test]
    fn frames_round_trip_through_the_wire_format() {
        let frames = vec![
            Frame::Events { epoch: 42, batch: vec![env(10, 77), env(11, 0)] },
            Frame::Token(Token { min: 5, in_flight: -2, wave: 1, epoch: 42 }),
            Frame::Gvt { gvt: u64::MAX },
        ];
        for f in frames {
            let mut buf = Vec::new();
            encode_frame(&f, &U64Codec, &mut buf);
            let back = decode_frame(&buf, &U64Codec).unwrap();
            match (&f, &back) {
                (Frame::Events { epoch: a, batch: ba }, Frame::Events { epoch: b, batch: bb }) => {
                    // Tag, epoch, count; then per event recv, send, src,
                    // dst, tiebreak and the length-prefixed payload — no uid.
                    assert_eq!(buf.len(), 1 + 8 + 4 + 2 * (8 + 8 + 4 + 4 + 8 + 4 + 8));
                    assert_eq!(a, b);
                    assert_eq!(ba, bb);
                    for (x, y) in ba.iter().zip(bb) {
                        assert_eq!((x.dst, x.uid, x.payload), (y.dst, y.uid, y.payload));
                    }
                }
                (Frame::Token(a), Frame::Token(b)) => assert_eq!(a, b),
                (Frame::Gvt { gvt: a }, Frame::Gvt { gvt: b }) => assert_eq!(a, b),
                _ => panic!("frame kind changed in round trip"),
            }
        }
    }

    #[test]
    fn corrupt_frames_error_cleanly() {
        assert!(decode_frame::<u64>(&[], &U64Codec).is_err());
        assert!(decode_frame::<u64>(&[99], &U64Codec).is_err());
        let mut buf = Vec::new();
        encode_frame(&Frame::Gvt::<u64> { gvt: 7 }, &U64Codec, &mut buf);
        buf.push(0); // trailing garbage
        assert!(decode_frame::<u64>(&buf, &U64Codec).is_err());
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Deterministic frame with arbitrary content derived from `seed`:
    /// `Events` batches of 0-4 envelopes with extreme field values,
    /// `Token`s and `Gvt`s all appear over the proptest case budget.
    fn random_frame(seed: u64, kind: u8, n_events: usize) -> Frame<u64> {
        let mut s = seed | 1;
        match kind {
            0 => Frame::Events {
                epoch: xorshift(&mut s),
                batch: (0..n_events)
                    .map(|_| {
                        let (src, tiebreak) = (xorshift(&mut s) as u32, xorshift(&mut s));
                        Envelope {
                            recv_time: SimTime(xorshift(&mut s)),
                            send_time: SimTime(xorshift(&mut s)),
                            src,
                            dst: xorshift(&mut s) as u32,
                            tiebreak,
                            uid: EventUid { src, seq: tiebreak },
                            payload: xorshift(&mut s),
                        }
                    })
                    .collect(),
            },
            1 => Frame::Token(Token {
                min: xorshift(&mut s),
                in_flight: xorshift(&mut s) as i64,
                wave: xorshift(&mut s) as u32,
                epoch: xorshift(&mut s),
            }),
            _ => Frame::Gvt { gvt: xorshift(&mut s) },
        }
    }

    fn encode(frame: &Frame<u64>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(frame, &U64Codec, &mut buf);
        buf
    }

    // Frames are the only untrusted bytes a shard decodes.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The encoding writes every field, so re-encoding the decoded
        /// frame byte-for-byte is an exact round trip.
        #[test]
        fn random_frames_round_trip(
            seed in 0u64..1_000_000_000,
            kind in 0u8..3,
            n_events in 0usize..5,
        ) {
            let good = encode(&random_frame(seed, kind, n_events));
            let back = decode_frame::<u64>(&good, &U64Codec).unwrap();
            assert_eq!(encode(&back), good);
        }

        #[test]
        fn corrupt_or_truncated_frames_error_and_never_panic(
            seed in 0u64..1_000_000_000,
            kind in 0u8..3,
            n_events in 0usize..5,
        ) {
            let good = encode(&random_frame(seed, kind, n_events));
            for cut in 0..good.len() {
                assert!(
                    matches!(decode_frame::<u64>(&good[..cut], &U64Codec), Err(ShardError::Format(_))),
                    "truncation to {cut} bytes went undetected"
                );
            }
            // Frames carry no checksum, so a flipped byte may still decode;
            // either way it must not panic.
            let mut s = seed ^ 0xdead_beef;
            let pos = (xorshift(&mut s) % good.len() as u64) as usize;
            let mut flipped = good;
            flipped[pos] ^= 1 + (xorshift(&mut s) % 255) as u8;
            let _ = decode_frame::<u64>(&flipped, &U64Codec);
        }
    }

    #[test]
    fn loopback_mesh_routes_and_tags_senders() {
        let mut mesh = loopback_mesh::<u64>(3);
        let mut t2 = mesh.pop().unwrap();
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        t0.send(2, Frame::Gvt { gvt: 1 }).unwrap();
        t1.send(2, Frame::Gvt { gvt: 2 }).unwrap();
        let mut got = [t2.recv().unwrap(), t2.recv().unwrap()];
        got.sort_by_key(|(from, _)| *from);
        assert!(matches!(got[0], (0, Frame::Gvt { gvt: 1 })));
        assert!(matches!(got[1], (1, Frame::Gvt { gvt: 2 })));
    }

    #[test]
    fn tcp_mesh_carries_frames_between_threads() {
        let n = 3;
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut handles = Vec::new();
        for (me, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            handles.push(std::thread::spawn(move || {
                let mut t = TcpTransport::mesh(me, listener, &addrs, Arc::new(U64Codec)).unwrap();
                // Everyone sends one Events frame to every peer, then
                // receives n-1 frames back.
                for j in 0..n {
                    if j != me {
                        t.send(
                            j,
                            Frame::Events {
                                epoch: me as u64,
                                batch: vec![env(100 + me as u64, me as u64)],
                            },
                        )
                        .unwrap();
                    }
                }
                let mut seen = Vec::new();
                for _ in 0..n - 1 {
                    let (from, frame) = t.recv().unwrap();
                    match frame {
                        Frame::Events { epoch, batch } => {
                            assert_eq!(epoch, from as u64);
                            assert_eq!(batch[0].payload, from as u64);
                            seen.push(from);
                        }
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
                seen.sort_unstable();
                let expect: Vec<usize> = (0..n).filter(|&j| j != me).collect();
                assert_eq!(seen, expect);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Shard 2 writes `raw` to shard 0 over a 3-shard TCP mesh; returns
    /// what shard 0's `recv` reports within 5 s. With three shards the
    /// other peer's reader keeps the channel open, so a reader that
    /// dropped the error (or waited for a body) would hang `recv`.
    fn recv_after_raw_write(raw: &[u8]) -> Result<usize, ShardError> {
        let listeners: Vec<TcpListener> =
            (0..3).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        // Higher shards dial lower ones and the listeners queue the
        // connections, so building the mesh top-down on one thread never
        // blocks.
        let mut mesh: Vec<TcpTransport<u64>> = (listeners.into_iter().enumerate().rev())
            .map(|(me, l)| TcpTransport::mesh(me, l, &addrs, Arc::new(U64Codec)).unwrap())
            .collect();
        let mut t0 = mesh.pop().unwrap();
        mesh[0].writers[0].as_mut().unwrap().write_all(raw).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || tx.send(t0.recv().map(|(from, _)| from)));
        let got = rx.recv_timeout(std::time::Duration::from_secs(5)).expect("recv hung");
        reader.join().expect("shard 0 ends after reporting").ok();
        got
    }

    /// A frame that fails to decode is a format error naming its sender.
    #[test]
    fn corrupt_tcp_frame_is_a_format_error_naming_the_sender() {
        match recv_after_raw_write(&[1, 0, 0, 0, 99]) {
            Err(ShardError::Format(m)) => {
                assert!(m.contains("frame from shard 2") && m.contains("99"), "{m}")
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// A length prefix past the frame limit is refused before the reader
    /// allocates for it (or waits for 4 GiB that never come).
    #[test]
    fn oversized_length_prefix_is_a_format_error_naming_the_sender() {
        match recv_after_raw_write(&u32::MAX.to_le_bytes()) {
            Err(ShardError::Format(m)) => {
                assert!(m.contains("frame from shard 2: length 4294967295 exceeds"), "{m}")
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }
}
