//! Property test for the pluggable event queues: the ladder queue must
//! dequeue in **bit-identical** order to the reference binary heap for
//! any stream of envelopes — including equal-`recv_time` collisions that
//! fall through to the `(send_time, src, tiebreak)` tiebreaks, and
//! interleaved push/pop patterns that exercise the ladder's frontier
//! (insertions below, inside, and above the current era).

use proptest::prelude::*;
use ross::queue::{BinaryHeapQueue, LadderQueue};
use ross::{Envelope, EventQueue, QueueKind, SimTime};

/// Deterministic splitmix64 stream for building event batches.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A random envelope. `time_span` controls recv-time density: small spans
/// force many equal-`recv_time` collisions, and with eight senders and
/// send times within 4 ns of receipt many full `(recv_time, send_time,
/// src)` collisions, so the ordering decision falls to the tiebreak. As in
/// the engine, each sender draws its tiebreak from its own counter
/// (`sends[src]`) and the uid is `(src, tiebreak)`: no two events share a
/// key. A non-zero `far_one_in` skews the stream: one event in that many
/// lands up to 2^20 spans ahead, so an era is a dense band in a few
/// multi-chunk buckets plus a sparse tail of near-empty ones.
fn env(
    rng: &mut Mix,
    sends: &mut [u64; 8],
    base: u64,
    time_span: u64,
    far_one_in: u64,
) -> Envelope<u64> {
    let mut recv = base + rng.below(time_span);
    if far_one_in > 0 && rng.below(far_one_in) == 0 {
        recv += time_span * rng.below(1 << 20);
    }
    let src = (rng.below(8)) as u32;
    let tiebreak = sends[src as usize];
    sends[src as usize] += 1;
    Envelope {
        recv_time: SimTime(recv),
        // send_time ≤ recv_time as in a real run; collide often.
        send_time: SimTime(recv.saturating_sub(rng.below(4))),
        src,
        dst: (rng.below(8)) as u32,
        tiebreak,
        uid: ross::EventUid { src, seq: tiebreak },
        payload: rng.next(),
    }
}

/// Identity of one dequeued event, payload included: equal fingerprints
/// mean the queues returned the *same event object*, not merely an
/// equally-keyed one.
fn print(e: &Envelope<u64>) -> (u64, u64, u32, u64, u32, u64, u64) {
    (e.recv_time.0, e.send_time.0, e.src, e.tiebreak, e.uid.src, e.uid.seq, e.payload)
}

/// Every field of an envelope, the ones a queue rebuilds (`dst`, `uid`)
/// included.
fn fields(e: &Envelope<u64>) -> (u64, u64, u32, u32, u64, u32, u64, u64) {
    (e.recv_time.0, e.send_time.0, e.src, e.dst, e.tiebreak, e.uid.src, e.uid.seq, e.payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feed the identical random stream — mixed bulk pushes, interleaved
    /// pops, and occasional full drains — into both queues; every pop
    /// must agree, bit for bit.
    #[test]
    fn ladder_and_heap_dequeue_identically(
        seed in 0u64..u64::MAX,
        n_ops in 50usize..400,
        time_span in 1u64..2000,
        skew in 0u64..64,
    ) {
        // Half the cases keep the uniform shape, half are skewed.
        let far_one_in = if skew % 2 == 0 { 0 } else { skew };
        let mut rng = Mix(seed);
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        let mut sends = [0u64; 8];
        let mut base = 0u64; // drifts forward like simulation time
        for _ in 0..n_ops {
            match rng.below(10) {
                // Bulk push: a batch lands at once (window seal pattern).
                0..=4 => {
                    for _ in 0..rng.below(20) + 1 {
                        let e = env(&mut rng, &mut sends, base, time_span, far_one_in);
                        heap.push(e.clone());
                        ladder.push(e);
                    }
                }
                // Interleaved pops below the frontier.
                5..=8 => {
                    for _ in 0..rng.below(8) + 1 {
                        let h = heap.pop();
                        let l = ladder.pop();
                        prop_assert_eq!(h.as_ref().map(print), l.as_ref().map(print));
                        if let Some(e) = h {
                            // Later pushes may land at or before this time:
                            // keep `base` honest but allow stragglers.
                            base = e.recv_time.0.saturating_sub(time_span / 2);
                        }
                    }
                }
                // Rarely: drain to empty, forcing a fresh era on refill.
                _ => {
                    loop {
                        let (h, l) = (heap.pop(), ladder.pop());
                        prop_assert_eq!(h.as_ref().map(print), l.as_ref().map(print));
                        if h.is_none() { break; }
                    }
                }
            }
            prop_assert_eq!(heap.len(), ladder.len());
            prop_assert_eq!(heap.peek(), ladder.peek());
        }
        // Final drain: whatever is left must come out in the same order.
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            prop_assert_eq!(h.as_ref().map(print), l.as_ref().map(print));
            if h.is_none() { break; }
        }
    }

    /// Pool-recycling hygiene: with the hot/cold split, envelope payloads
    /// live in an `EventPool` slab whose slots are recycled on pop and
    /// `drain_each`. Stamp every payload as a pure function of its `uid`
    /// and check the identity on every event that comes back out — a
    /// recycled slot serving a *stale* payload (wrong take/insert pairing
    /// anywhere in the rung/bottom/top plumbing) breaks it immediately.
    #[test]
    fn recycled_slots_never_serve_stale_payloads(
        seed in 0u64..u64::MAX,
        n_ops in 50usize..300,
        time_span in 1u64..500,
    ) {
        fn stamp(uid: ross::EventUid) -> u64 {
            (uid.seq ^ 0xa076_1d64_78bd_642f)
                .wrapping_mul(0xe703_7ed1_a0b4_28db)
                ^ uid.src as u64
        }
        let mut rng = Mix(seed);
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        let mut sends = [0u64; 8];
        let mut base = 0u64;
        let mut live = 0usize;
        for _ in 0..n_ops {
            match rng.below(10) {
                0..=4 => {
                    for _ in 0..rng.below(20) + 1 {
                        let mut e = env(&mut rng, &mut sends, base, time_span, 0);
                        e.payload = stamp(e.uid);
                        live += 1;
                        heap.push(e.clone());
                        ladder.push(e);
                    }
                }
                5..=7 => {
                    for _ in 0..rng.below(8) + 1 {
                        let (h, l) = (heap.pop(), ladder.pop());
                        for e in h.iter().chain(l.iter()) {
                            prop_assert_eq!(e.payload, stamp(e.uid));
                        }
                        if let Some(e) = h {
                            live -= 1;
                            base = e.recv_time.0.saturating_sub(time_span / 2);
                        }
                    }
                }
                // Bulk eviction through `drain_each` (the `set_queue`
                // and leg hand-off path) — recycles every slot at once,
                // then the queues refill into reused storage.
                _ => {
                    let (mut hd, mut ld) = (Vec::new(), Vec::new());
                    heap.drain_each(|e| hd.push(e));
                    ladder.drain_each(|e| ld.push(e));
                    prop_assert_eq!(hd.len(), live);
                    prop_assert_eq!(ld.len(), live);
                    for e in hd.iter().chain(ld.iter()) {
                        prop_assert_eq!(e.payload, stamp(e.uid));
                    }
                    live = 0;
                }
            }
        }
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            for e in h.iter().chain(l.iter()) {
                prop_assert_eq!(e.payload, stamp(e.uid));
            }
            if h.is_none() && l.is_none() { break; }
        }
    }

    /// Degenerate streams — every event at the *same* timestamp (the
    /// single-timestamp-era special case, including `u64::MAX`).
    #[test]
    fn identical_timestamps_fall_through_to_tiebreaks(
        seed in 0u64..u64::MAX,
        ts in 0u64..3,
    ) {
        let ts = [0, 12345, u64::MAX][ts as usize];
        let mut rng = Mix(seed);
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        let mut sends = [0u64; 8];
        for _ in 0..200 {
            let mut e = env(&mut rng, &mut sends, 0, 1, 0);
            e.recv_time = SimTime(ts);
            e.send_time = SimTime(ts.saturating_sub(rng.below(3)));
            heap.push(e.clone());
            ladder.push(e);
        }
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            prop_assert_eq!(h.as_ref().map(print), l.as_ref().map(print));
            if h.is_none() { break; }
        }
    }

    /// The rebuild contract: a queue keeps only part of an event in its
    /// pool and rebuilds the envelope at `pop`, so each pop, checked
    /// against a plain list of what was pushed, must be the least
    /// remaining envelope in `Envelope::cmp` order, equal field for field.
    #[test]
    fn every_pop_rebuilds_the_least_pushed_envelope(
        seed in 0u64..u64::MAX,
        n_ops in 50usize..400,
        time_span in 1u64..500,
    ) {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut rng = Mix(seed);
            let mut q = kind.new_queue();
            let mut pushed: Vec<Envelope<u64>> = Vec::new();
            let mut sends = [0u64; 8];
            let mut base = 0u64;
            // Random pushes and pops, then pops until both run dry.
            for op in 0.. {
                if op < n_ops && rng.below(3) != 0 {
                    let e = env(&mut rng, &mut sends, base, time_span, 0);
                    pushed.push(e.clone());
                    q.push(e);
                    continue;
                }
                let least = (0..pushed.len()).min_by(|&a, &b| pushed[a].cmp(&pushed[b]));
                let want = least.map(|i| pushed.swap_remove(i));
                let got = q.pop();
                prop_assert_eq!(got.as_ref().map(fields), want.as_ref().map(fields));
                match got {
                    Some(e) => base = e.recv_time.0.saturating_sub(time_span / 2),
                    None if op >= n_ops => break,
                    None => {}
                }
            }
            prop_assert!(pushed.is_empty() && q.is_empty());
        }
    }

    /// The parallel gather's merge: a worker's ladder, popped partway to
    /// `t` as a bounded leg leaves it, takes in a second worker's queue —
    /// itself popped to `t`, so everything it still holds is at or after
    /// `t` — streamed through `drain_each`. From then on the ladder must
    /// pop exactly what a heap holding both remainders pops, field for
    /// field. The second queue's events land in every tier of the first,
    /// below its bottom frontier included.
    #[test]
    fn streaming_a_queue_into_a_popped_ladder_keeps_its_order(
        seed in 0u64..u64::MAX,
        n_a in 1usize..400,
        n_b in 1usize..400,
        time_span in 1u64..2000,
        skew in 0u64..64,
        b_ladder in 0u64..2,
    ) {
        let far_one_in = if skew < 32 { 0 } else { skew };
        let mut rng = Mix(seed);
        let mut sends = [0u64; 8];
        let t = rng.below(time_span);
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        for _ in 0..n_a {
            let e = env(&mut rng, &mut sends, 0, time_span, far_one_in);
            heap.push(e.clone());
            ladder.push(e);
        }
        let kind = if b_ladder == 1 { QueueKind::Ladder } else { QueueKind::Heap };
        let mut other = kind.new_queue();
        for _ in 0..n_b {
            let e = env(&mut rng, &mut sends, 0, time_span, far_one_in);
            if e.recv_time.0 >= t {
                heap.push(e.clone());
            }
            other.push(e);
        }
        while other.peek_time().is_some_and(|ts| ts.0 < t) {
            other.pop();
        }
        while ladder.peek_time().is_some_and(|ts| ts.0 < t) {
            let (h, l) = (heap.pop(), ladder.pop());
            prop_assert_eq!(h.as_ref().map(fields), l.as_ref().map(fields));
        }
        other.drain_each(|e| ladder.push(e));
        prop_assert!(other.is_empty());
        prop_assert_eq!(heap.len(), ladder.len());
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            prop_assert_eq!(h.as_ref().map(fields), l.as_ref().map(fields));
            if h.is_none() { break; }
        }
    }
}
