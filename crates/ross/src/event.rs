//! Event envelopes and their total order.
//!
//! Every event carries a **tiebreak**: a send counter that is part of the
//! sending LP's engine state and travels with the LP. Every scheduler
//! advances it identically, so the (recv, send, src, tiebreak) sort key —
//! and hence the committed event order — is identical across all
//! schedulers. The event's **uid**, which the causal tracer uses to link
//! it to the execution that sent it, is derived: `(src, tiebreak)`.

use crate::time::SimTime;
use std::cmp::Ordering;

/// Identifies a logical process within a simulation. LP ids are dense
/// indices `0..n_lps`.
pub type LpId = u32;

/// Globally unique event identity (for causal tracing): always the
/// envelope's `(src, tiebreak)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventUid {
    /// Sending LP.
    pub src: LpId,
    /// The sender's tiebreak counter when it sent the event.
    pub seq: u64,
}

/// A scheduled event: payload plus routing and ordering metadata.
#[derive(Clone, Debug)]
pub struct Envelope<E> {
    /// Virtual time at which the destination LP processes the event.
    pub recv_time: SimTime,
    /// Virtual time at which the source LP sent the event.
    pub send_time: SimTime,
    /// Sending LP (events injected before the run start use the destination).
    pub src: LpId,
    /// Destination LP.
    pub dst: LpId,
    /// Deterministic per-sender counter (engine state of the sending LP).
    pub tiebreak: u64,
    /// Unique identity for causal tracing: `(src, tiebreak)`.
    pub uid: EventUid,
    /// Model-defined payload.
    pub payload: E,
}

impl<E> Envelope<E> {
    /// The deterministic total-order key. Two committed events never share a
    /// key: an LP's tiebreak counter increments on every send.
    #[inline]
    pub fn key(&self) -> EventKey {
        EventKey {
            recv_time: self.recv_time,
            send_time: self.send_time,
            src: self.src,
            tiebreak: self.tiebreak,
        }
    }
}

/// The comparable portion of an [`Envelope`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EventKey {
    pub recv_time: SimTime,
    pub send_time: SimTime,
    pub src: LpId,
    pub tiebreak: u64,
}

impl<E> PartialEq for Envelope<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Envelope<E> {}

impl<E> PartialOrd for Envelope<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Envelope<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(recv: u64, send: u64, src: LpId, tb: u64) -> Envelope<()> {
        Envelope {
            recv_time: SimTime(recv),
            send_time: SimTime(send),
            src,
            dst: 0,
            tiebreak: tb,
            uid: EventUid { src, seq: tb },
            payload: (),
        }
    }

    #[test]
    fn order_is_recv_then_send_then_src_then_tiebreak() {
        let a = env(10, 5, 1, 0);
        let b = env(10, 5, 1, 1);
        let c = env(10, 5, 2, 0);
        let d = env(10, 6, 0, 0);
        let e = env(11, 0, 0, 0);
        assert!(a < b && b < c && c < d && d < e);
    }
}
