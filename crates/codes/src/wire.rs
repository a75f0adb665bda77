//! Wire codec for the composed CODES [`Event`]: lets a sharded run move
//! events between OS processes through a [`ross::shard`] transport.
//!
//! The encoding is a fixed-layout little-endian format (tag byte, then
//! the variant's fields in declaration order), so every shard of a run —
//! always the same binary, re-exec'd by the launcher — agrees on it.
//! It is a transport format, not an archive format.

use crate::event::{code_kind, Event, Pkt, NO_ID};
use ross::shard::wire::{put_u32, put_u64, put_u8, ByteReader};
use ross::shard::{EventCodec, ShardError};

const TAG_START: u8 = 0;
const TAG_PKT: u8 = 1;
const TAG_NIC_PULSE: u8 = 2;
const TAG_COMPUTE_DONE: u8 = 3;
const TAG_CREDIT: u8 = 4;

/// A group id on the wire: a presence byte, then the value. In flight
/// [`NO_ID`] means none, so a present `NO_ID` is refused: it would
/// re-encode as absent.
fn put_opt_u32(out: &mut Vec<u8>, v: u32) {
    if v == NO_ID {
        put_u8(out, 0);
    } else {
        put_u8(out, 1);
        put_u32(out, v);
    }
}

fn read_opt_u32(r: &mut ByteReader<'_>) -> Result<u32, ShardError> {
    match r.u8()? {
        0 => Ok(NO_ID),
        1 => match r.u32()? {
            NO_ID => Err(ShardError::Format(format!("present group id {NO_ID}"))),
            x => Ok(x),
        },
        b => Err(ShardError::Format(format!("bad Option<u32> presence byte {b}"))),
    }
}

fn put_packet(out: &mut Vec<u8>, p: &Pkt) {
    put_u8(out, p.app);
    put_u8(out, p.kind);
    put_u32(out, p.tag);
    put_u64(out, p.aux);
    put_u32(out, p.src_node);
    put_u32(out, p.dst_node);
    put_u32(out, p.bytes);
    put_u64(out, p.msg_id);
    put_u64(out, p.msg_bytes);
    put_u64(out, p.created_ns);
    put_opt_u32(out, p.intermediate);
    put_opt_u32(out, p.gateway);
    put_u8(out, p.routed as u8);
    put_u8(out, p.hops);
    put_u32(out, p.up_router);
    put_u32(out, p.up_port as u32);
    put_u8(out, p.vc);
}

fn read_packet(r: &mut ByteReader<'_>) -> Result<Pkt, ShardError> {
    Ok(Pkt {
        app: r.u8()?,
        kind: match r.u8()? {
            k if code_kind(k).is_some() => k,
            k => return Err(ShardError::Format(format!("unknown message kind code {k}"))),
        },
        tag: r.u32()?,
        aux: r.u64()?,
        src_node: r.u32()?,
        dst_node: r.u32()?,
        bytes: r.u32()?,
        msg_id: r.u64()?,
        msg_bytes: r.u64()?,
        created_ns: r.u64()?,
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
            Event::Pkt(p) => {
                put_u8(out, TAG_PKT);
                put_packet(out, p);
            }
            Event::NicPulse => put_u8(out, TAG_NIC_PULSE),
            Event::ComputeDone => put_u8(out, TAG_COMPUTE_DONE),
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
            TAG_PKT => Event::Pkt(read_packet(r)?),
            TAG_NIC_PULSE => Event::NicPulse,
            TAG_COMPUTE_DONE => Event::ComputeDone,
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
pub(crate) mod tests {
    use super::*;
    use dragonfly::Packet;
    use ross::SimTime;

    fn roundtrip(ev: &Event) -> Event {
        let codec = CodesEventCodec;
        let mut buf = Vec::new();
        codec.encode(ev, &mut buf);
        let mut r = ByteReader::new(&buf);
        let out = codec.decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes after {ev:?}");
        out
    }

    pub(crate) fn sample_packet() -> Packet {
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
            intermediate: Some(u32::MAX - 1),
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
            Event::Pkt(sample_packet().into()),
            Event::NicPulse,
            Event::ComputeDone,
            Event::Credit { port: 65_535, vc: 255 },
        ];
        for ev in &events {
            let back = roundtrip(ev);
            // Event has no PartialEq; compare via debug formatting, which
            // prints every field.
            assert_eq!(format!("{ev:?}"), format!("{back:?}"));
        }
    }

    /// The byte layout of a packet event: the tag, then `Packet`'s fields
    /// in declaration order with each group id as presence byte + value.
    #[test]
    fn packet_layout_is_pinned() {
        let mut buf = Vec::new();
        CodesEventCodec.encode(&Event::Pkt(sample_packet().into()), &mut buf);
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 3 * 4 + 3 * 8 + 5 + 1 + 2 + 4 + 4 + 1);
        assert_eq!(buf[..3], [TAG_PKT, 2, 1]);
        // `intermediate` present, `gateway` absent.
        let at = 1 + 2 + 4 + 8 + 3 * 4 + 3 * 8;
        assert_eq!(buf[at..at + 6], [1, 0xFE, 0xFF, 0xFF, 0xFF, 0]);
    }

    #[test]
    fn truncated_packet_is_an_error_not_a_panic() {
        let codec = CodesEventCodec;
        let mut buf = Vec::new();
        codec.encode(&Event::Pkt(sample_packet().into()), &mut buf);
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(codec.decode(&mut r).is_err(), "cut at {cut} decoded");
        }
    }

    /// A peer shard's corrupt `kind` byte fails the frame here instead of
    /// panicking the node LP that would receive the packet.
    #[test]
    fn unknown_message_kind_is_an_error() {
        let codec = CodesEventCodec;
        let mut good = Vec::new();
        codec.encode(&Event::Pkt(sample_packet().into()), &mut good);
        for kind in 5..=u8::MAX {
            let mut buf = good.clone();
            buf[2] = kind;
            let err = codec.decode(&mut ByteReader::new(&buf)).unwrap_err();
            assert!(matches!(err, ShardError::Format(_)), "kind {kind}: {err:?}");
        }
    }

    #[test]
    fn present_u32_max_group_id_is_refused() {
        let codec = CodesEventCodec;
        let mut buf = Vec::new();
        codec.encode(&Event::Pkt(sample_packet().into()), &mut buf);
        let at = 1 + 2 + 4 + 8 + 3 * 4 + 3 * 8 + 1;
        buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = codec.decode(&mut ByteReader::new(&buf)).unwrap_err();
        assert!(matches!(err, ShardError::Format(_)), "{err:?}");
    }

    /// xorshift64: the fuzz inputs come from a seed, since the proptest
    /// strategies available here are integer ranges.
    fn next(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// A packet with a valid message kind and group ids below `u32::MAX`
    /// (the in-flight `None`); every other field is arbitrary.
    pub(crate) fn random_packet(s: &mut u64) -> Packet {
        let opt =
            |s: &mut u64| next(s).is_multiple_of(2).then(|| (next(s) % u32::MAX as u64) as u32);
        Packet {
            app: next(s) as u8,
            kind: (next(s) % 5) as u8,
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
        match next(s) % 5 {
            0 => Event::Start,
            1 => Event::Pkt(random_packet(s).into()),
            2 => Event::NicPulse,
            3 => Event::ComputeDone,
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
