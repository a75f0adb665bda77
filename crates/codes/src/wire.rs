//! Wire codec for the composed CODES [`Event`]: lets a sharded run move
//! events between OS processes through a [`ross::shard`] transport.
//!
//! The encoding is a fixed-layout little-endian format (tag byte, then
//! the variant's fields in declaration order), so every shard of a run —
//! always the same binary, re-exec'd by the launcher — agrees on it.
//! It is a transport format, not an archive format.

use crate::event::Event;
use dragonfly::Packet;
use ross::shard::wire::{put_u32, put_u64, put_u8, ByteReader};
use ross::shard::{EventCodec, ShardError};
use ross::SimTime;

const TAG_START: u8 = 0;
const TAG_ROUTER_PKT: u8 = 1;
const TAG_NODE_PKT: u8 = 2;
const TAG_NIC_PULSE: u8 = 3;
const TAG_COMPUTE_DONE: u8 = 4;
const TAG_LOCAL_MSG: u8 = 5;
const TAG_CREDIT: u8 = 6;

/// `Option<u32>` on the wire: a presence byte, then the value (packet
/// fields like `up_router` legitimately use `u32::MAX`, so a sentinel
/// encoding is not available).
fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(x) => {
            put_u8(out, 1);
            put_u32(out, x);
        }
        None => put_u8(out, 0),
    }
}

fn read_opt_u32(r: &mut ByteReader<'_>) -> Result<Option<u32>, ShardError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u32()?)),
        b => Err(ShardError::Format(format!("bad Option<u32> presence byte {b}"))),
    }
}

fn put_packet(out: &mut Vec<u8>, p: &Packet) {
    put_u8(out, p.app);
    put_u8(out, p.kind);
    put_u32(out, p.tag);
    put_u64(out, p.aux);
    put_u32(out, p.src_node);
    put_u32(out, p.dst_node);
    put_u32(out, p.bytes);
    put_u64(out, p.msg_id);
    put_u64(out, p.msg_bytes);
    put_u64(out, p.created.as_ns());
    put_opt_u32(out, p.intermediate);
    put_opt_u32(out, p.gateway);
    put_u8(out, p.routed as u8);
    put_u8(out, p.hops);
    put_u32(out, p.up_router);
    put_u32(out, p.up_port as u32);
    put_u8(out, p.vc);
}

fn read_packet(r: &mut ByteReader<'_>) -> Result<Packet, ShardError> {
    Ok(Packet {
        app: r.u8()?,
        kind: r.u8()?,
        tag: r.u32()?,
        aux: r.u64()?,
        src_node: r.u32()?,
        dst_node: r.u32()?,
        bytes: r.u32()?,
        msg_id: r.u64()?,
        msg_bytes: r.u64()?,
        created: SimTime::from_ns(r.u64()?),
        intermediate: read_opt_u32(r)?,
        gateway: read_opt_u32(r)?,
        routed: match r.u8()? {
            0 => false,
            1 => true,
            b => return Err(ShardError::Format(format!("bad bool byte {b}"))),
        },
        hops: r.u8()?,
        up_router: r.u32()?,
        up_port: {
            let v = r.u32()?;
            u16::try_from(v)
                .map_err(|_| ShardError::Format(format!("port {v} does not fit in u16")))?
        },
        vc: r.u8()?,
    })
}

/// The codec itself; stateless, shared by every transport thread.
pub struct CodesEventCodec;

impl EventCodec<Event> for CodesEventCodec {
    fn encode(&self, ev: &Event, out: &mut Vec<u8>) {
        match ev {
            Event::Start => put_u8(out, TAG_START),
            Event::RouterPkt(p) => {
                put_u8(out, TAG_ROUTER_PKT);
                put_packet(out, p);
            }
            Event::NodePkt(p) => {
                put_u8(out, TAG_NODE_PKT);
                put_packet(out, p);
            }
            Event::NicPulse => put_u8(out, TAG_NIC_PULSE),
            Event::ComputeDone => put_u8(out, TAG_COMPUTE_DONE),
            Event::LocalMsg(p) => {
                put_u8(out, TAG_LOCAL_MSG);
                put_packet(out, p);
            }
            Event::Credit { port, vc } => {
                put_u8(out, TAG_CREDIT);
                put_u32(out, *port as u32);
                put_u8(out, *vc);
            }
        }
    }

    fn decode(&self, r: &mut ByteReader<'_>) -> Result<Event, ShardError> {
        Ok(match r.u8()? {
            TAG_START => Event::Start,
            TAG_ROUTER_PKT => Event::RouterPkt(read_packet(r)?),
            TAG_NODE_PKT => Event::NodePkt(read_packet(r)?),
            TAG_NIC_PULSE => Event::NicPulse,
            TAG_COMPUTE_DONE => Event::ComputeDone,
            TAG_LOCAL_MSG => Event::LocalMsg(read_packet(r)?),
            TAG_CREDIT => {
                let port = r.u32()?;
                let port = u16::try_from(port)
                    .map_err(|_| ShardError::Format(format!("port {port} does not fit in u16")))?;
                Event::Credit { port, vc: r.u8()? }
            }
            t => return Err(ShardError::Format(format!("unknown CODES event tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: &Event) -> Event {
        let codec = CodesEventCodec;
        let mut buf = Vec::new();
        codec.encode(ev, &mut buf);
        let mut r = ByteReader::new(&buf);
        let out = codec.decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes after {ev:?}");
        out
    }

    fn sample_packet() -> Packet {
        Packet {
            app: 2,
            kind: 1,
            tag: 0xDEAD_BEEF,
            aux: u64::MAX - 1,
            src_node: 7,
            dst_node: 40,
            bytes: 4096,
            msg_id: 123_456_789,
            msg_bytes: 1 << 33,
            created: SimTime::from_ns(987_654_321),
            intermediate: Some(u32::MAX),
            gateway: None,
            routed: true,
            hops: 3,
            up_router: u32::MAX,
            up_port: 65_535,
            vc: 2,
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let events = [
            Event::Start,
            Event::RouterPkt(sample_packet()),
            Event::NodePkt(sample_packet()),
            Event::NicPulse,
            Event::ComputeDone,
            Event::LocalMsg(sample_packet()),
            Event::Credit { port: 65_535, vc: 255 },
        ];
        for ev in &events {
            let back = roundtrip(ev);
            // Event has no PartialEq; compare via debug formatting, which
            // prints every field.
            assert_eq!(format!("{ev:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn truncated_packet_is_an_error_not_a_panic() {
        let codec = CodesEventCodec;
        let mut buf = Vec::new();
        codec.encode(&Event::RouterPkt(sample_packet()), &mut buf);
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(codec.decode(&mut r).is_err(), "cut at {cut} decoded");
        }
    }

    /// xorshift64: the fuzz inputs come from a seed, since the proptest
    /// strategies available here are integer ranges.
    fn next(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    fn random_packet(s: &mut u64) -> Packet {
        let opt = |s: &mut u64| next(s).is_multiple_of(2).then(|| next(s) as u32);
        Packet {
            app: next(s) as u8,
            kind: next(s) as u8,
            tag: next(s) as u32,
            aux: next(s),
            src_node: next(s) as u32,
            dst_node: next(s) as u32,
            bytes: next(s) as u32,
            msg_id: next(s),
            msg_bytes: next(s),
            created: SimTime::from_ns(next(s)),
            intermediate: opt(s),
            gateway: opt(s),
            routed: next(s).is_multiple_of(2),
            hops: next(s) as u8,
            up_router: next(s) as u32,
            up_port: next(s) as u16,
            vc: next(s) as u8,
        }
    }

    fn random_event(s: &mut u64) -> Event {
        match next(s) % 7 {
            0 => Event::Start,
            1 => Event::RouterPkt(random_packet(s)),
            2 => Event::NodePkt(random_packet(s)),
            3 => Event::NicPulse,
            4 => Event::ComputeDone,
            5 => Event::LocalMsg(random_packet(s)),
            _ => Event::Credit { port: next(s) as u16, vc: next(s) as u8 },
        }
    }

    /// Decode `buf`; an `Ok` must re-encode to exactly the bytes it
    /// consumed (the format has one encoding per event).
    fn check_decode(buf: &[u8]) {
        let codec = CodesEventCodec;
        let mut r = ByteReader::new(buf);
        if let Ok(ev) = codec.decode(&mut r) {
            let mut again = Vec::new();
            codec.encode(&ev, &mut again);
            assert_eq!(again, buf[..buf.len() - r.remaining()], "{ev:?} from {buf:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Untrusted bytes from a peer shard: a valid encoding with any
        /// one byte flipped, every prefix of one, and random bytes.
        /// Decoding returns an error or an event and never panics.
        #[test]
        fn decode_never_panics_and_accepts_only_canonical_bytes(seed in 1u64..u64::MAX) {
            let mut s = seed;
            let mut good = Vec::new();
            CodesEventCodec.encode(&random_event(&mut s), &mut good);
            for at in 0..good.len() {
                let mut flipped = good.clone();
                flipped[at] ^= 1 + (next(&mut s) % 255) as u8;
                check_decode(&flipped);
            }
            for cut in 0..=good.len() {
                check_decode(&good[..cut]);
            }
            let mut noise: Vec<u8> = (0..next(&mut s) % 96).map(|_| next(&mut s) as u8).collect();
            // Most random tags are unknown; keep half on a real one.
            if !noise.is_empty() && next(&mut s).is_multiple_of(2) {
                noise[0] %= TAG_CREDIT + 1;
            }
            check_decode(&noise);
        }
    }
}
