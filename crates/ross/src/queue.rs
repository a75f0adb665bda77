//! Pluggable pending-event queues.
//!
//! Every scheduler keeps its runnable events in an [`EventQueue`]: a
//! priority queue over [`Envelope`]s whose dequeue order is **exactly** the
//! total order defined by `Envelope::cmp` — `(recv_time, send_time, src,
//! tiebreak)`, unique per event. Two implementations share that contract:
//!
//! * [`BinaryHeapQueue`] — `std::collections::BinaryHeap<Reverse<_>>`, the
//!   original reference implementation. O(log n) push/pop, no bookkeeping.
//! * [`LadderQueue`] — a timestamp-bucketed multi-tier queue in the spirit
//!   of Tang/Goh/Thng's ladder queue, the structure real ROSS-class
//!   simulators use for their pending-event sets. O(1) amortized push/pop:
//!   events are thrown into coarse buckets and only the bucket currently
//!   being drained is ever sorted. Far-future events sit unsorted in a
//!   *top* tier; dequeue-front events sit fully sorted in a *bottom* tier;
//!   between them a stack of *rungs* subdivides time ever more finely,
//!   spawning a child rung whenever a bucket is too large to sort cheaply.
//!
//! ## Hot/cold split
//!
//! Neither structure moves whole envelopes around. On `push` what the hot
//! entry lacks — tiebreak, destination, payload — parks in a per-queue
//! [`EventPool`] slab (recycled slots, zero steady-state allocation — see
//! `pool.rs`) and only a small **hot entry** travels through the tiers:
//!
//! * the ladder scatters 24-byte `HotEntry { recv, send, src, slot }`
//!   records through its rungs and sorts those in `bottom` — only full
//!   `(recv, send, src)` collisions (rare: same sender, same times) fall
//!   through to the pooled tiebreak;
//! * the heap sifts 32-byte self-ordering `HeapEntry` records carrying the
//!   full key, ordered exactly like `Envelope::cmp`.
//!
//! `pop` then rebuilds the [`Envelope`] from hot and cold with one slab
//! lookup; the uid is derived (`(src, tiebreak)`). The payload is
//! touched exactly twice per queue residency (park, reclaim) no matter how
//! many rung spills, era conversions or heap sifts the entry goes through.
//!
//! ## Bucket storage: one chunk arena per ladder
//!
//! A rung bucket (and the top tier) is not a vector but `{ head, tail,
//! len }`, twelve bytes, naming a chain of 512-byte chunks — 21 hot
//! entries and a `next` index — in a per-queue arena of 64 KiB slabs with
//! a LIFO free list. Pushing writes into the tail chunk and links a fresh
//! one behind it when it is full; scattering a bucket into a child rung,
//! or copying it into `bottom` to be sorted, walks the chain from the head
//! and frees each chunk as it empties it. Chains are FIFO, so a bucket
//! holds its entries in push order, and the engine pushes in
//! nondecreasing send time: reversed, a bucket whose entries share one
//! `recv_time` (a 1 ns bucket) is nearly sorted for `bottom`'s descending
//! order, and an insertion sort finishes it in about one pass.
//!
//! Timestamps in a network model are skewed — packets parked
//! far ahead behind busy ports stretch an era, so the near band lands in
//! a few buckets of 10^5 entries beside thousands of near-empty ones —
//! and with the arena that costs nothing: a bucket never reallocates or
//! copies as it grows, no capacity outlives the entries that needed it,
//! and the ladder's hot storage is its live entries plus at most one
//! partial chunk per non-empty bucket.
//!
//! Determinism: bucketing partitions events by `recv_time` only, which is
//! the major key of the envelope order, and every bucket is sorted with a
//! comparator equivalent to the full `Envelope` `Ord` before it is drained —
//! so equal-`recv_time` collisions dequeue in exactly the order the binary
//! heap produces. The scheduler-equivalence suites assert
//! this bit for bit; `tests/queue_equivalence.rs` property-tests it on
//! adversarial streams, including payload identity through slot recycling.
//!
//! Both queues maintain two plain-`u64` telemetry counters (total push/pop
//! ops and the length high-water mark) plus the pool counters
//! ([`PoolStats`]: population high-water, recycled slots). They are local,
//! non-atomic and branch-free, so the cost is a couple of register ops per
//! event; the schedulers only read them when a telemetry recorder is
//! attached.

use crate::event::{Envelope, LpId};
use crate::pool::{EventPool, PoolStats};
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::mem::MaybeUninit;

/// The least pending event's receive time and destination: what a
/// scheduler reads to decide whether, and on which LP, to run it next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Head {
    pub recv_time: SimTime,
    pub dst: LpId,
}

/// The pending-event-set contract shared by all schedulers.
///
/// `peek` takes `&mut self` because the ladder queue materializes (sorts)
/// its front bucket lazily on first access; observable state never changes.
pub trait EventQueue<E> {
    /// Insert an event.
    fn push(&mut self, env: Envelope<E>);
    /// Remove and return the least event in the full envelope order.
    fn pop(&mut self) -> Option<Envelope<E>>;
    /// [`pop`](EventQueue::pop) into a cell the caller owns: write the
    /// least event into `out` and return `true`, or return `false`, with
    /// `out` untouched, when the queue is empty. `out` is overwritten,
    /// never dropped. The ladder rebuilds the envelope in `out` itself
    /// instead of passing it back through an `Option` (the worker step's
    /// path); the default, which the heap keeps, goes through `pop`.
    fn pop_into(&mut self, out: &mut MaybeUninit<Envelope<E>>) -> bool {
        match self.pop() {
            Some(env) => {
                out.write(env);
                true
            }
            None => false,
        }
    }
    /// The least event's head, without removing it.
    fn peek(&mut self) -> Option<Head>;
    /// The head of the event after the least one, when the queue holds it
    /// in order already (the ladder's sorted bottom tier) — never worth a
    /// refill or a sift, because the schedulers only use it as a prefetch
    /// hint. `None` otherwise, and always for the heap.
    fn peek_second(&self) -> Option<Head> {
        None
    }
    /// Number of queued events.
    fn len(&self) -> usize;
    /// Hand every queued event to `each`, one at a time, and reset. The
    /// order is unspecified but latest-first at bucket granularity, so a
    /// ladder fed this stream inserts its stragglers largest-first: each
    /// shifts only entries of its own bucket, not all the ones before it.
    fn drain_each(&mut self, each: impl FnMut(Envelope<E>));
    /// Total push + pop operations performed (telemetry).
    fn ops(&self) -> u64;
    /// Length high-water mark (telemetry).
    fn max_len(&self) -> u64;
    /// Envelope-pool counters (population high-water, recycled slots).
    fn pool_stats(&self) -> PoolStats;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `recv_time` of the least event.
    fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|h| h.recv_time)
    }
}

/// Which [`EventQueue`] implementation a simulation (and the per-thread
/// queues its parallel schedulers create) should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// `std::collections::BinaryHeap` — the reference implementation.
    Heap,
    /// Timestamp-bucketed ladder queue — O(1) amortized, the default.
    #[default]
    Ladder,
}

impl QueueKind {
    /// Stable name, used in `--queue` specs and telemetry records.
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::Heap => "heap",
            QueueKind::Ladder => "ladder",
        }
    }

    /// Parse a `--queue` spec. Malformed specs are reported, not defaulted.
    pub fn parse(s: &str) -> Result<QueueKind, String> {
        match s {
            "heap" => Ok(QueueKind::Heap),
            "ladder" => Ok(QueueKind::Ladder),
            _ => Err(format!("unknown queue `{s}` (expected heap or ladder)")),
        }
    }

    /// A fresh empty queue of this kind.
    pub fn new_queue<E>(self) -> PendingQueue<E> {
        match self {
            QueueKind::Heap => PendingQueue::Heap(BinaryHeapQueue::new()),
            QueueKind::Ladder => PendingQueue::Ladder(LadderQueue::new()),
        }
    }
}

/// Runtime-selected queue with static dispatch per variant — the concrete
/// type the schedulers hold, so the per-event hot path pays one predictable
/// branch instead of a virtual call.
pub enum PendingQueue<E> {
    Heap(BinaryHeapQueue<E>),
    Ladder(LadderQueue<E>),
}

impl<E> PendingQueue<E> {
    /// Which implementation this is.
    pub fn kind(&self) -> QueueKind {
        match self {
            PendingQueue::Heap(_) => QueueKind::Heap,
            PendingQueue::Ladder(_) => QueueKind::Ladder,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $q:ident => $body:expr) => {
        match $self {
            PendingQueue::Heap($q) => $body,
            PendingQueue::Ladder($q) => $body,
        }
    };
}

impl<E> EventQueue<E> for PendingQueue<E> {
    #[inline]
    fn push(&mut self, env: Envelope<E>) {
        dispatch!(self, q => q.push(env))
    }

    #[inline]
    fn pop(&mut self) -> Option<Envelope<E>> {
        dispatch!(self, q => q.pop())
    }

    #[inline]
    fn pop_into(&mut self, out: &mut MaybeUninit<Envelope<E>>) -> bool {
        dispatch!(self, q => q.pop_into(out))
    }

    #[inline]
    fn peek(&mut self) -> Option<Head> {
        dispatch!(self, q => q.peek())
    }

    #[inline]
    fn peek_second(&self) -> Option<Head> {
        dispatch!(self, q => q.peek_second())
    }

    #[inline]
    fn len(&self) -> usize {
        dispatch!(self, q => q.len())
    }

    fn drain_each(&mut self, each: impl FnMut(Envelope<E>)) {
        dispatch!(self, q => q.drain_each(each))
    }

    fn ops(&self) -> u64 {
        dispatch!(self, q => q.ops())
    }

    fn max_len(&self) -> u64 {
        dispatch!(self, q => q.max_len())
    }

    fn pool_stats(&self) -> PoolStats {
        dispatch!(self, q => q.pool_stats())
    }
}

// ---------------------------------------------------------------------------
// BinaryHeapQueue
// ---------------------------------------------------------------------------

/// Self-ordering hot entry for the binary heap: the full event key,
/// compared in exactly the `Envelope::cmp` field order (derive on
/// declaration order), with the pool slot riding along last. 32 bytes —
/// heap sifts move these instead of whole envelopes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    recv: u64,
    send: u64,
    src: u32,
    tiebreak: u64,
    /// Never reached by comparisons between distinct events (the key is
    /// unique).
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<HeapEntry>() == 32);

/// The reference implementation: a min-heap via `Reverse`.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Reverse<HeapEntry>>,
    pool: EventPool<E>,
    ops: u64,
    max_len: u64,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        BinaryHeapQueue::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    pub fn new() -> Self {
        BinaryHeapQueue { heap: BinaryHeap::new(), pool: EventPool::new(), ops: 0, max_len: 0 }
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    #[inline]
    fn push(&mut self, env: Envelope<E>) {
        self.ops += 1;
        let (recv, send, src, tiebreak) = (env.recv_time.0, env.send_time.0, env.src, env.tiebreak);
        let slot = self.pool.insert(env);
        self.heap.push(Reverse(HeapEntry { recv, send, src, tiebreak, slot }));
        if self.heap.len() as u64 > self.max_len {
            self.max_len = self.heap.len() as u64;
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Envelope<E>> {
        let entry = self.heap.pop()?.0;
        // Hide the slab miss of the next event behind the current one.
        if let Some(r) = self.heap.peek() {
            self.pool.prefetch(r.0.slot);
        }
        self.ops += 1;
        Some(self.pool.take(entry.slot, entry.recv, entry.send, entry.src))
    }

    #[inline]
    fn peek(&mut self) -> Option<Head> {
        let e = &self.heap.peek()?.0;
        Some(Head { recv_time: SimTime(e.recv), dst: self.pool.get(e.slot).dst() })
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn drain_each(&mut self, mut each: impl FnMut(Envelope<E>)) {
        for Reverse(e) in self.heap.drain() {
            each(self.pool.take(e.slot, e.recv, e.send, e.src));
        }
    }

    fn ops(&self) -> u64 {
        self.ops
    }

    fn max_len(&self) -> u64 {
        self.max_len
    }

    fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

// ---------------------------------------------------------------------------
// LadderQueue
// ---------------------------------------------------------------------------

/// A bucket bigger than this is subdivided into a child rung instead of
/// being sorted wholesale (unless its bucket width is already 1 ns, the
/// resolution floor, where sorting is the only option).
const SPAWN_THRESHOLD: usize = 96;
/// Bounds on the number of buckets created per rung or top conversion.
const MIN_BUCKETS: usize = 4;
const MAX_BUCKETS: usize = 4096;
/// Retained rung bucket-array shells (rung depth is logarithmic in the
/// era width, so a handful covers every real ladder).
const SHELL_MAX: usize = 16;
/// Hot entries per arena chunk: 21 x 24 B + the `next` index = 512 B,
/// eight cache lines. The one tuning constant of the bucket storage —
/// smaller chunks waste less per sparse bucket, larger ones chase fewer
/// links per dense bucket.
const CHUNK: usize = 21;
/// Chunks per arena slab (64 KiB): the unit the arena grows by.
const SLAB: usize = 128;
/// "No chunk": end of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;
/// Pool slots `pop` prefetches ahead of the event it returns.
const PREFETCH_SLOTS: usize = 4;

/// Hot half of a queued ladder event: the leading ordering keys
/// (`recv_time`, `send_time`, `src`) plus the pool slot of the rest.
/// 24 bytes — rung scatters, bucket spills and bottom sorts move
/// these instead of whole envelopes.
///
/// Carrying `send`/`src` inline matters: event rates of hundreds of events
/// per simulated ns make `recv` ties the common case, and a comparator
/// that chased the pool on every tie would turn each bottom sort into a
/// cache-miss storm. `(recv, send, src)` is unique for distinct events of
/// one sender batch, so the pool fall-through below is genuinely cold.
#[derive(Clone, Copy)]
struct HotEntry {
    recv: u64,
    send: u64,
    src: u32,
    slot: u32,
}

/// Full envelope order over hot entries: `(recv, send, src)` compares
/// inline; only full collisions (same sender, same send and receive
/// times — rare) fall through to the pooled tiebreak, matching
/// `Envelope::cmp` exactly.
#[inline]
fn cmp_hot<E>(pool: &EventPool<E>, a: &HotEntry, b: &HotEntry) -> Ordering {
    (a.recv, a.send, a.src)
        .cmp(&(b.recv, b.send, b.src))
        .then_with(|| pool.get(a.slot).tiebreak.cmp(&pool.get(b.slot).tiebreak))
}

/// Sort `v` descending by `cmp`: insertion sort, linear on the nearly
/// descending buckets the engine produces, until it has moved entries
/// `4 * len` times; then `sort_unstable_by` finishes the job, so an
/// unordered bucket costs a bounded detour, not a quadratic sort.
fn sort_descending(v: &mut [HotEntry], cmp: impl Fn(&HotEntry, &HotEntry) -> Ordering) {
    let budget = 4 * v.len();
    let mut moves = 0;
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && cmp(&v[j - 1], &x) == Ordering::Less {
            if moves == budget {
                v[j] = x;
                v.sort_unstable_by(|a, b| cmp(b, a));
                return;
            }
            moves += 1;
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// An unsorted bag of hot entries in push order: a chain of arena chunks
/// from `head` (the oldest) to `tail`. Every chunk before `tail` is full;
/// `tail` holds the remaining `len mod CHUNK` entries (a full `CHUNK` when
/// that is 0 and `len > 0`). 12 bytes, so a 4,096-bucket rung is one
/// dense 48 KiB array. `tail` is stale while `len == 0`.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    len: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { head: NIL, tail: NIL, len: 0 };
}

const _: () = assert!(std::mem::size_of::<Bucket>() == 12);

/// `CHUNK` hot entries and the link to the next chunk of the same bucket
/// (or of the free list).
#[repr(C, align(64))]
struct Chunk {
    entries: [HotEntry; CHUNK],
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Chunk>() == 512);

/// Per-queue chunk arena: the storage behind every rung bucket and the
/// top tier. Chunks live in fixed 64 KiB slabs that are never moved,
/// resized or released while the queue lives; a chunk id is
/// `slab * SLAB + index`, and every chunk is either linked into a bucket
/// or on the LIFO free list. A bucket grows by linking a chunk behind its
/// tail (nothing is copied), and draining a bucket hands its chunks back
/// one by one from the head, oldest first, so a scatter reuses the chunk
/// it just emptied and keeps push order. Slack is one partial chunk per
/// non-empty bucket; the arena's size is the chunk high-water mark,
/// rounded up to a slab.
struct Arena {
    slabs: Vec<Box<[Chunk; SLAB]>>,
    /// Head of the free list, linked through `Chunk::next`.
    free: u32,
    /// Chunks currently linked into a bucket.
    in_use: u32,
}

impl Arena {
    fn new() -> Self {
        Arena { slabs: Vec::new(), free: NIL, in_use: 0 }
    }

    #[inline]
    fn chunk(&mut self, c: u32) -> &mut Chunk {
        &mut self.slabs[c as usize / SLAB][c as usize % SLAB]
    }

    /// Take a chunk off the free list and set its link to `next`.
    #[inline]
    fn alloc(&mut self, next: u32) -> u32 {
        if self.free == NIL {
            self.grow();
        }
        let c = self.free;
        self.free = std::mem::replace(&mut self.chunk(c).next, next);
        self.in_use += 1;
        c
    }

    /// Add one slab, its chunks chained onto the (empty) free list.
    #[cold]
    fn grow(&mut self) {
        let base = self.slabs.len() * SLAB;
        assert!(base + SLAB < NIL as usize, "ladder arena exceeds u32 chunks");
        let empty = HotEntry { recv: 0, send: 0, src: 0, slot: 0 };
        let slab: Box<[Chunk]> = (1..=SLAB)
            .map(|i| Chunk {
                entries: [empty; CHUNK],
                next: if i < SLAB { (base + i) as u32 } else { NIL },
            })
            .collect();
        self.slabs.push(slab.try_into().ok().expect("a slab is SLAB chunks"));
        self.free = base as u32;
    }

    /// Append `entry` to `b`. Always inlined: `push`, `scatter` and the
    /// bulk loads of set-up call it once per entry.
    #[inline(always)]
    fn push(&mut self, b: &mut Bucket, entry: HotEntry) {
        let at = b.len as usize % CHUNK;
        if at == 0 {
            let c = self.alloc(NIL);
            if b.len == 0 {
                b.head = c;
            } else {
                self.chunk(b.tail).next = c;
            }
            b.tail = c;
        }
        self.chunk(b.tail).entries[at] = entry;
        b.len += 1;
    }

    /// Unlink the head (oldest) chunk of `b` and put it on the free list.
    /// Returns its entries, the first `n` of them live; they stay readable
    /// until the next `alloc`, which the borrow rules out.
    #[inline]
    fn pop_chunk(&mut self, b: &mut Bucket) -> Option<(&[HotEntry; CHUNK], usize)> {
        if b.len == 0 {
            return None;
        }
        let n = (b.len as usize).min(CHUNK);
        let (c, free) = (b.head, self.free);
        self.free = c;
        self.in_use -= 1;
        let chunk = self.chunk(c);
        b.head = std::mem::replace(&mut chunk.next, free);
        b.len -= n as u32;
        Some((&chunk.entries, n))
    }

    /// Move every entry of `from` into `to[(recv - start) >> shift]`, in
    /// push order. Each chunk is copied out before its entries are pushed,
    /// so the pushes can reuse that very chunk.
    fn scatter(&mut self, mut from: Bucket, to: &mut [Bucket], start: u64, shift: u32) {
        while let Some((&entries, n)) = self.pop_chunk(&mut from) {
            for e in &entries[..n] {
                self.push(&mut to[((e.recv - start) >> shift) as usize], *e);
            }
        }
    }
}

/// One ladder tier: `buckets[i]` holds events with
/// `recv_time ∈ [start + i·width, start + (i+1)·width)`, unsorted.
///
/// Bucket widths are always powers of two, so the per-event bucket index
/// on push and scatter is a shift, not a 64-bit division.
struct Rung {
    /// Absolute timestamp of `buckets[0]`.
    start: u64,
    /// Bucket width in ns (≥ 1, power of two: `1 << shift`).
    width: u64,
    /// `log2(width)` — bucket index = `(ts - start) >> shift`.
    shift: u32,
    /// Dequeue frontier: events with `recv_time < cur_ts` live in deeper
    /// rungs or the bottom tier, never in this rung.
    cur_ts: u64,
    buckets: Vec<Bucket>,
}

/// Timestamp-bucketed pending-event queue with lazy per-bucket sorting.
///
/// Tiers, nearest-future first:
///
/// * **bottom** — the events of the bucket currently being drained, sorted
///   descending so `pop` is a `Vec::pop`. Events pushed behind the ladder
///   frontier (e.g. a short-delay send that lands inside the bucket being
///   drained) are merged in by binary-search insertion.
/// * **rungs** — a stack of tiers; `rungs[0]` spans the whole current era
///   and each deeper rung subdivides the one bucket its parent's frontier
///   just passed. Pushes walk the stack top-down and drop the event into
///   the first rung whose frontier hasn't passed it — O(depth), and depth
///   is bounded by log of the era's width.
/// * **top** — unsorted far-future events beyond the current era
///   (`recv_time > era_end`). When the ladder drains, top collapses into a
///   fresh rung 0 and a new era begins.
///
/// Every rung bucket and the top tier are chains of 512-byte chunks in one
/// per-queue arena (see `Arena`): hot storage is the live entries plus at
/// most one partial chunk per non-empty bucket, however skewed the
/// timestamps, and a bucket that grows to 10^5 entries never reallocates
/// or copies. Only `bottom` is a plain vector, and it only ever holds one
/// sortable bucket.
///
/// Every allocation is recycled: cold halves through the slot pool, chunks
/// through the arena's free list, rung bucket arrays through `shells`, and
/// the `rungs` / `bottom` vectors keep their capacity across eras — after
/// warmup the steady state allocates nothing per event (asserted by
/// `tests/alloc_discipline.rs`).
///
/// The one degenerate corner: events at `recv_time == u64::MAX` mixed into
/// an era that also ends at `u64::MAX` (584 simulated years) — those cannot
/// be distinguished from "beyond the era", so an era consisting *only* of
/// them is sorted straight into bottom instead of converted into a rung.
pub struct LadderQueue<E> {
    bottom: Vec<HotEntry>,
    rungs: Vec<Rung>,
    top: Bucket,
    /// Events with `recv_time > era_end` belong to `top`.
    era_end: u64,
    /// Min/max timestamps currently in `top` (valid while `top` is
    /// non-empty).
    top_min: u64,
    top_max: u64,
    len: usize,
    ops: u64,
    max_len: u64,
    /// Chunk storage of every rung bucket and of `top`.
    arena: Arena,
    /// Kept rung bucket arrays (the `Vec<Bucket>` of a dead rung).
    shells: Vec<Vec<Bucket>>,
    /// Cold storage for queued events.
    pool: EventPool<E>,
}

impl<E> Default for LadderQueue<E> {
    fn default() -> Self {
        LadderQueue::new()
    }
}

impl<E> LadderQueue<E> {
    pub fn new() -> Self {
        LadderQueue {
            bottom: Vec::new(),
            rungs: Vec::new(),
            top: Bucket::EMPTY,
            era_end: 0,
            top_min: u64::MAX,
            top_max: 0,
            len: 0,
            ops: 0,
            max_len: 0,
            arena: Arena::new(),
            shells: Vec::new(),
            pool: EventPool::new(),
        }
    }

    /// Start a fresh era: with no rungs and an empty bottom, every push
    /// routes to `top` until the next conversion. Only legal when no
    /// events remain — exhausted rungs may still be present (they are
    /// collapsed lazily by `refill`) and are retired here. Telemetry (`max_len`, `ops`, pool
    /// counters) deliberately survives era turnover: the high-water mark
    /// is a whole-run statistic.
    fn reset_era(&mut self) {
        debug_assert!(self.bottom.is_empty() && self.top.len == 0);
        debug_assert_eq!(self.arena.in_use, 0, "empty ladder still holds chunks");
        while let Some(rung) = self.rungs.pop() {
            self.retire_rung(rung);
        }
        self.era_end = 0;
        self.top_min = u64::MAX;
        self.top_max = 0;
    }

    /// Keep a dead rung's bucket array for the next rung.
    fn retire_rung(&mut self, mut rung: Rung) {
        debug_assert!(rung.buckets.iter().all(|b| b.len == 0));
        if self.shells.len() < SHELL_MAX {
            rung.buckets.clear();
            self.shells.push(rung.buckets);
        }
    }

    fn make_buckets(&mut self, n: usize) -> Vec<Bucket> {
        let mut v = self.shells.pop().unwrap_or_default();
        v.resize(n, Bucket::EMPTY);
        v
    }

    /// Insert a straggler into the sorted bottom tier (descending order).
    fn insert_bottom(&mut self, entry: HotEntry) {
        let pool = &self.pool;
        let pos = self.bottom.partition_point(|e| cmp_hot(pool, e, &entry) == Ordering::Greater);
        self.bottom.insert(pos, entry);
    }

    /// Make `bucket` the new bottom tier: copy it out of the arena in push
    /// order, reverse it and sort it descending. When every entry has the
    /// same `recv` (`one_time`: a 1 ns bucket or a single-timestamp era),
    /// the order is decided by `send` first, and the engine pushes in
    /// nondecreasing send time: the reversed bucket is nearly descending,
    /// and [`sort_descending`] finishes it in about one pass. In a wider
    /// bucket push order says nothing about `recv`, so `sort_unstable_by`
    /// does it.
    fn sort_into_bottom(&mut self, mut bucket: Bucket, one_time: bool) {
        while let Some((entries, n)) = self.arena.pop_chunk(&mut bucket) {
            self.bottom.extend_from_slice(&entries[..n]);
        }
        self.bottom.reverse();
        let pool = &self.pool;
        let cmp = |a: &HotEntry, b: &HotEntry| cmp_hot(pool, a, b);
        match one_time {
            true => sort_descending(&mut self.bottom, cmp),
            false => self.bottom.sort_unstable_by(|a, b| cmp(b, a)),
        }
    }

    /// Unlink the least entry, counting the op, and hint the pool slots
    /// of the next four: their hot entries sit at the sorted tail, their
    /// slots are scattered through the slab, and the current event's
    /// handler hides the misses. Four, not two: the worker step reads the
    /// destination of the event after next from its slot.
    #[inline(always)]
    fn pop_entry(&mut self) -> Option<HotEntry> {
        if self.bottom.is_empty() {
            self.refill();
        }
        let entry = self.bottom.pop()?;
        for e in self.bottom.iter().rev().take(PREFETCH_SLOTS) {
            self.pool.prefetch(e.slot);
        }
        self.ops += 1;
        self.len -= 1;
        Some(entry)
    }

    /// Refill `bottom` from the ladder: advance the deepest rung to its
    /// next non-empty bucket, subdividing oversized buckets into child
    /// rungs, collapsing exhausted rungs, and converting `top` into a new
    /// era when the ladder is empty.
    fn refill(&mut self) {
        debug_assert!(self.bottom.is_empty());
        loop {
            let Some(ri) = self.rungs.len().checked_sub(1) else {
                if self.top.len == 0 {
                    return;
                }
                let top = std::mem::replace(&mut self.top, Bucket::EMPTY);
                let (start, end) = (self.top_min, self.top_max);
                self.era_end = end;
                self.top_min = u64::MAX;
                self.top_max = 0;
                if start == end {
                    // Single-timestamp era (this also covers the
                    // u64::MAX corner): sort straight into bottom.
                    self.sort_into_bottom(top, true);
                    return;
                }
                let range = end - start; // ≥ 1
                let n = (top.len as usize).clamp(MIN_BUCKETS, MAX_BUCKETS) as u64;
                // Round the width up to a power of two: bucket indexing
                // becomes a shift (the per-event division otherwise shows
                // up in profiles). `n ≥ 4` keeps the rounding overflow-free.
                let width = (range / n).max(1).next_power_of_two();
                let shift = width.trailing_zeros();
                let mut buckets = self.make_buckets((range >> shift) as usize + 1);
                self.arena.scatter(top, &mut buckets, start, shift);
                self.rungs.push(Rung { start, width, shift, cur_ts: start, buckets });
                continue;
            };

            let rung = &mut self.rungs[ri];
            let (start, width) = (rung.start, rung.width);
            let mut j = ((rung.cur_ts - start) >> rung.shift) as usize;
            while j < rung.buckets.len() && rung.buckets[j].len == 0 {
                j += 1;
            }
            if j >= rung.buckets.len() {
                let dead = self.rungs.pop().unwrap();
                self.retire_rung(dead);
                continue;
            }
            let bucket_start = start + j as u64 * width;
            rung.cur_ts = bucket_start.saturating_add(width);
            let bucket = std::mem::replace(&mut rung.buckets[j], Bucket::EMPTY);
            let blen = bucket.len as usize;
            if blen > SPAWN_THRESHOLD && width > 1 {
                // Too big to sort cheaply: subdivide into a child rung.
                let n = blen.clamp(MIN_BUCKETS, MAX_BUCKETS) as u64;
                // `width` is a power of two ≥ 2 and `n ≥ 4`, so the child
                // width rounds to a power of two strictly below `width` —
                // subdivision always makes progress.
                let cw = (width / n).max(1).next_power_of_two().min(width / 2);
                let cshift = cw.trailing_zeros();
                let mut buckets = self.make_buckets((width >> cshift) as usize);
                self.arena.scatter(bucket, &mut buckets, bucket_start, cshift);
                self.rungs.push(Rung {
                    start: bucket_start,
                    width: cw,
                    shift: cshift,
                    cur_ts: bucket_start,
                    buckets,
                });
                continue;
            }
            // Small enough: materialize this bucket as the new bottom.
            self.sort_into_bottom(bucket, width == 1);
            return;
        }
    }
}

#[cfg(test)]
impl<E> LadderQueue<E> {
    /// Bytes of hot-entry storage the ladder holds: arena slabs, `bottom`
    /// and every rung bucket array, in a rung or kept as a shell.
    fn hot_bytes(&self) -> usize {
        let arrays = self.rungs.iter().map(|r| &r.buckets).chain(&self.shells);
        self.arena.slabs.len() * SLAB * std::mem::size_of::<Chunk>()
            + self.bottom.capacity() * std::mem::size_of::<HotEntry>()
            + arrays.map(|b| b.capacity() * std::mem::size_of::<Bucket>()).sum::<usize>()
    }

    /// Whether every chunk the arena ever handed out is on its free list.
    fn all_chunks_free(&mut self) -> bool {
        let total = self.arena.slabs.len() * SLAB;
        let (mut on_list, mut c) = (0, self.arena.free);
        while c != NIL {
            on_list += 1;
            c = self.arena.chunk(c).next;
        }
        self.arena.in_use == 0 && on_list == total
    }
}

impl<E> EventQueue<E> for LadderQueue<E> {
    fn push(&mut self, env: Envelope<E>) {
        self.ops += 1;
        self.len += 1;
        if self.len as u64 > self.max_len {
            self.max_len = self.len as u64;
        }
        if self.len == 1 {
            // The queue was empty: restart the era so bulk (re)loads land
            // in the unsorted top tier instead of insertion-sorting.
            self.reset_era();
        }
        let ts = env.recv_time.0;
        let (send, src) = (env.send_time.0, env.src);
        let entry = HotEntry { recv: ts, send, src, slot: self.pool.insert(env) };
        debug_assert_eq!(self.pool.len(), self.len, "pool population out of sync");
        // With no rungs and an empty bottom, everything queued sits in
        // `top`: a push there keeps a bulk load (say the model's `Start`
        // events, all at t = 0) an unsorted bag for one sort, instead of
        // insertion-sorting each into `bottom`.
        if ts > self.era_end || (self.rungs.is_empty() && self.bottom.is_empty()) {
            self.top_min = self.top_min.min(ts);
            self.top_max = self.top_max.max(ts);
            self.arena.push(&mut self.top, entry);
            return;
        }
        for r in &mut self.rungs {
            if ts >= r.cur_ts {
                let idx = ((ts - r.start) >> r.shift) as usize;
                debug_assert!(idx < r.buckets.len(), "event beyond rung range");
                self.arena.push(&mut r.buckets[idx], entry);
                return;
            }
        }
        self.insert_bottom(entry);
    }

    fn pop(&mut self) -> Option<Envelope<E>> {
        let e = self.pop_entry()?;
        Some(self.pool.take(e.slot, e.recv, e.send, e.src))
    }

    #[inline]
    fn pop_into(&mut self, out: &mut MaybeUninit<Envelope<E>>) -> bool {
        let Some(e) = self.pop_entry() else { return false };
        self.pool.take_into(e.slot, e.recv, e.send, e.src, out);
        true
    }

    fn peek(&mut self) -> Option<Head> {
        if self.bottom.is_empty() {
            self.refill();
        }
        let e = self.bottom.last()?;
        Some(Head { recv_time: SimTime(e.recv), dst: self.pool.get(e.slot).dst() })
    }

    #[inline]
    fn peek_second(&self) -> Option<Head> {
        let e = self.bottom.iter().rev().nth(1)?;
        Some(Head { recv_time: SimTime(e.recv), dst: self.pool.get(e.slot).dst() })
    }

    fn len(&self) -> usize {
        self.len
    }

    fn drain_each(&mut self, mut each: impl FnMut(Envelope<E>)) {
        let (arena, pool) = (&mut self.arena, &mut self.pool);
        let mut take = |e: &HotEntry| each(pool.take(e.slot, e.recv, e.send, e.src));
        // Latest first: top, then each rung's buckets from the far end
        // (a deeper rung subdivides time its parent already passed), then
        // bottom, which is sorted descending.
        let rungs = self.rungs.iter_mut().flat_map(|r| r.buckets.iter_mut().rev());
        for bucket in std::iter::once(&mut self.top).chain(rungs) {
            while let Some((entries, n)) = arena.pop_chunk(bucket) {
                entries[..n].iter().for_each(&mut take);
            }
        }
        self.bottom.drain(..).for_each(|e| take(&e));
        self.len = 0;
        self.reset_era();
    }

    fn ops(&self) -> u64 {
        self.ops
    }

    fn max_len(&self) -> u64 {
        self.max_len
    }

    fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKey, EventUid};

    /// An event whose payload is `id`, so drains can be compared by it.
    fn env(recv: u64, send: u64, src: u32, tb: u64, id: u64) -> Envelope<u64> {
        Envelope {
            recv_time: SimTime(recv),
            send_time: SimTime(send),
            src,
            dst: 0,
            tiebreak: tb,
            uid: EventUid { src, seq: tb },
            payload: id,
        }
    }

    fn drain_ids<Q: EventQueue<u64>>(q: &mut Q) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.payload);
        }
        out
    }

    #[test]
    fn both_queues_sort_simple_streams_identically() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = kind.new_queue();
            for (i, recv) in [50u64, 10, 30, 10, 90, 10, 70].iter().enumerate() {
                q.push(env(*recv, 0, 0, i as u64, i as u64));
            }
            // Equal recv_time ties break on (send, src, tiebreak).
            assert_eq!(drain_ids(&mut q), [1, 3, 5, 2, 0, 6, 4], "{kind:?}");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn ladder_handles_interleaved_push_pop_below_frontier() {
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        let mut seq = 0u64;
        let mut push_both = |h: &mut BinaryHeapQueue<u64>, l: &mut LadderQueue<u64>, recv: u64| {
            let e = env(recv, 0, 0, seq, seq);
            h.push(e.clone());
            l.push(e);
            seq += 1;
        };
        for r in [100u64, 5000, 200, 40, 9000, 40, 40] {
            push_both(&mut heap, &mut ladder, r);
        }
        for _ in 0..3 {
            assert_eq!(heap.pop().unwrap().payload, ladder.pop().unwrap().payload);
        }
        // Push behind the ladder frontier (stragglers) and at era edges.
        for r in [60u64, 100, 100, 4999, 5000, 9001] {
            push_both(&mut heap, &mut ladder, r);
        }
        assert_eq!(drain_ids(&mut heap), drain_ids(&mut ladder));
    }

    #[test]
    fn ladder_spawns_child_rungs_on_dense_buckets() {
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        // Thousands of events in a narrow band force bucket subdivision;
        // a second far-future band exercises era turnover.
        let mut s = 0u64;
        for band in [0u64, 1 << 40] {
            for i in 0..4000u64 {
                let recv = band + (i * 37) % 512;
                let e = env(recv, i % 3, (i % 5) as u32, i, s);
                heap.push(e.clone());
                ladder.push(e);
                s += 1;
            }
        }
        assert_eq!(heap.len(), ladder.len());
        assert_eq!(drain_ids(&mut heap), drain_ids(&mut ladder));
    }

    #[test]
    fn single_timestamp_era_including_max_is_sorted() {
        for ts in [7u64, u64::MAX] {
            let mut q = LadderQueue::new();
            for i in 0..300u64 {
                q.push(env(ts, i % 4, (i % 3) as u32, i, i));
            }
            let mut last: Option<EventKey> = None;
            while let Some(e) = q.pop() {
                if let Some(prev) = last {
                    assert!(prev < e.key(), "order regressed at ts={ts}");
                }
                last = Some(e.key());
            }
        }
    }

    #[test]
    fn drain_each_empties_and_resets() {
        let mut q = LadderQueue::new();
        for i in 0..100u64 {
            q.push(env(i * 11, 0, 0, i, i));
        }
        q.pop();
        let mut out = Vec::new();
        q.drain_each(|e| out.push(e));
        assert_eq!(out.len(), 99);
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        // Reusable after a drain.
        q.push(env(3, 0, 0, 0, 0));
        q.push(env(1, 0, 0, 1, 1));
        assert_eq!(q.pop().unwrap().recv_time.0, 1);
    }

    #[test]
    fn telemetry_counters_track_ops_and_high_water() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = kind.new_queue();
            for i in 0..10u64 {
                q.push(env(i, 0, 0, i, i));
            }
            for _ in 0..4 {
                q.pop();
            }
            assert_eq!(q.ops(), 14, "{kind:?}");
            assert_eq!(q.max_len(), 10, "{kind:?}");
            assert_eq!(q.len(), 6, "{kind:?}");
        }
    }

    #[test]
    fn pool_stats_track_population_and_recycling() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = kind.new_queue();
            for i in 0..8u64 {
                q.push(env(i, 0, 0, i, i));
            }
            for _ in 0..8 {
                q.pop();
            }
            // Refill: every slot now comes off the free list.
            for i in 0..8u64 {
                q.push(env(100 + i, 0, 0, i, i + 8));
            }
            let s = q.pool_stats();
            assert_eq!(s.high_water, 8, "{kind:?}");
            assert_eq!(s.recycled, 8, "{kind:?}");
        }
    }

    /// Regression: the telemetry high-water mark is a whole-run statistic
    /// and must survive era turnover — both the implicit era restart when
    /// the queue drains to empty and refills, and an explicit `drain_each`.
    #[test]
    fn ladder_max_len_survives_era_collapse() {
        let mut q = LadderQueue::new();
        for i in 0..50u64 {
            q.push(env(i * 7, 0, 0, i, i));
        }
        assert_eq!(q.max_len(), 50);
        // Drain to empty: the next push calls `reset_era`.
        while q.pop().is_some() {}
        q.push(env(1_000_000, 0, 0, 0, 99));
        assert_eq!(q.max_len(), 50, "high-water lost across era restart");
        // An explicit drain_each also collapses the era.
        let mut out = Vec::new();
        q.drain_each(|e| out.push(e));
        q.push(env(5, 0, 0, 0, 100));
        assert_eq!(q.max_len(), 50, "high-water lost across drain_each");
        assert!(q.pool_stats().recycled > 0);
    }

    /// Skewed stream: every 10 ms era is a dense band (99 events in 100
    /// inside its first 200 ns) plus a sparse tail over the whole era. The
    /// tail stretches the era's rung, so the band arrives in one bucket of
    /// 10^4 entries that subdivides again and again, next to thousands of
    /// buckets holding one entry or none. Era `k` is popped while era
    /// `k + 1` arrives, one for one, so the population stays at `per_era`
    /// through `eras` turnovers; a few arrivals land just ahead of the
    /// clock instead, inside the rungs being drained.
    fn skewed_eras(q: &mut LadderQueue<u64>, eras: u64, per_era: u64) {
        const ERA: u64 = 10_000_000;
        let mut seq = 0u64;
        let mut push = |q: &mut LadderQueue<u64>, era: u64, i: u64, now: u64| {
            let r = (seq ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 24;
            let recv = match i % 100 {
                0 if i == 0 => (era + 1) * ERA - 1,
                0 => era * ERA + r % ERA,
                1 if now > 0 => now + r % 1000,
                _ => era * ERA + r % 200,
            };
            q.push(env(recv, now, (seq % 7) as u32, seq, seq));
            seq += 1;
        };
        for i in 0..per_era {
            push(q, 0, i, 0);
        }
        let mut last = 0;
        for era in 1..=eras {
            for i in 0..per_era {
                let now = q.pop().unwrap().recv_time.0;
                assert!(now >= last, "dequeue order regressed");
                last = now;
                push(q, era, i, now);
            }
        }
        assert!(last >= (eras - 1) * ERA);
    }

    /// The arena's point: hot storage follows the live population, not
    /// the largest bucket any era ever grew. (With one growable vector per
    /// bucket, recycled whatever its capacity, this stream held 17 times
    /// its live size.)
    #[test]
    fn skewed_stream_keeps_hot_storage_near_live_size() {
        let mut q = LadderQueue::new();
        skewed_eras(&mut q, 5, 40_000);
        assert_eq!((q.len(), q.max_len()), (40_000, 40_000));
        let budget = 2 * q.len() * std::mem::size_of::<HotEntry>() + (64 << 10);
        assert!(q.hot_bytes() <= budget, "{} B hot storage for 40,000 entries", q.hot_bytes());
    }

    #[test]
    fn every_chunk_returns_to_the_free_list() {
        let mut q = LadderQueue::new();
        skewed_eras(&mut q, 2, 5_000);
        assert!(!q.all_chunks_free());
        let mut out = Vec::new();
        q.drain_each(|e| out.push(e));
        assert_eq!(out.len(), 5_000);
        assert!(q.all_chunks_free(), "drain_each leaked chunks");
        // Reload (a fresh era through `top`) and pop to empty.
        for e in out {
            q.push(e);
        }
        while q.pop().is_some() {}
        assert!(q.all_chunks_free(), "draining to empty leaked chunks");
    }

    #[test]
    fn peek_matches_pop_without_consuming() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = kind.new_queue();
            for i in [9u64, 2, 5] {
                q.push(env(i, 0, 0, i, i));
            }
            assert_eq!(q.peek_time(), Some(SimTime(2)));
            assert_eq!(q.peek(), Some(Head { recv_time: SimTime(2), dst: 0 }));
            assert_eq!(q.len(), 3);
            assert_eq!(q.pop().unwrap().recv_time.0, 2, "{kind:?}");
        }
    }

    /// A bulk load at t = 0 (the model's `Start` events, in ascending LP
    /// order) stays an unsorted bag in `top` until the first pop sorts it
    /// once; insertion-sorting it into `bottom` shifted every entry.
    #[test]
    fn bulk_load_at_time_zero_skips_the_bottom_tier() {
        let (mut heap, mut ladder) = (BinaryHeapQueue::new(), LadderQueue::new());
        for src in 0..10_000u32 {
            let e = env(0, 0, src, 0, src as u64);
            heap.push(e.clone());
            ladder.push(e);
        }
        assert!(ladder.bottom.is_empty() && ladder.rungs.is_empty());
        assert_eq!(ladder.top.len, 10_000);
        assert_eq!(drain_ids(&mut heap), drain_ids(&mut ladder));
    }

    #[test]
    fn peek_second_names_the_event_after_the_head() {
        let mut q = LadderQueue::new();
        // One timestamp: the first refill sorts all three into `bottom`,
        // ordered by sender.
        for src in [9u32, 2, 5] {
            let mut e = env(7, 0, src, 0, 0);
            e.dst = src;
            q.push(e);
        }
        // Before the first refill the order is unknown: no hint.
        assert_eq!(q.peek_second(), None);
        assert_eq!(q.peek().map(|h| h.dst), Some(2));
        assert_eq!(q.peek_second(), Some(Head { recv_time: SimTime(7), dst: 5 }));
        q.pop();
        assert_eq!(q.peek_second().map(|h| h.dst), Some(9));
        q.pop();
        assert_eq!(q.peek_second(), None);
        assert_eq!(BinaryHeapQueue::<u64>::new().peek_second(), None);
    }

    /// FIFO chains: a scatter hands each child bucket its entries in push
    /// order, and `sort_into_bottom` copies a bucket out in push order and
    /// reverses it. The entries of one child tie on every key, so the
    /// insertion sort moves none of them and `bottom` shows the copy order.
    #[test]
    fn scatter_and_sort_into_bottom_keep_push_order() {
        let mut q = LadderQueue::<u64>::new();
        let mut bucket = Bucket::EMPTY;
        let mut pushed = vec![Vec::new(); 4];
        // Four timestamps of 75 entries each (four chunks apiece).
        for i in 0..300u64 {
            let recv = i / 75;
            let slot = q.pool.insert(env(recv, 0, 0, 0, i));
            q.arena.push(&mut bucket, HotEntry { recv, send: 0, src: 0, slot });
            pushed[recv as usize].push(slot);
        }
        let mut children = vec![Bucket::EMPTY; 4];
        q.arena.scatter(bucket, &mut children, 0, 0);
        assert!(children.iter().all(|b| b.len == 75));
        for (k, child) in children.into_iter().enumerate() {
            q.sort_into_bottom(child, true);
            let slots: Vec<u32> = q.bottom.drain(..).rev().map(|e| e.slot).collect();
            assert_eq!(slots, pushed[k], "child {k} left push order");
        }
        assert_eq!(q.arena.in_use, 0);
    }

    /// Ascending input is the descending insertion sort's worst case: 200
    /// entries need 19,900 moves, far past the `4 * len` budget, so
    /// `sort_unstable_by` finishes, and a ladder whose one-timestamp bucket
    /// was pushed in descending `send` order still pops in order.
    #[test]
    fn insertion_sort_gives_up_on_a_reversed_bucket_and_the_ladder_still_pops_in_order() {
        let at = |send: u64| HotEntry { recv: 5, send, src: 0, slot: 0 };
        let by_send = |a: &HotEntry, b: &HotEntry| a.send.cmp(&b.send);
        let descending = |v: &[HotEntry]| v.windows(2).all(|w| w[0].send > w[1].send);
        let mut v: Vec<HotEntry> = (0..200).map(at).collect();
        sort_descending(&mut v, by_send);
        assert!(descending(&v));
        // A straggler one place off is sorted within the budget.
        let mut v: Vec<HotEntry> = (0..200).rev().map(at).collect();
        v.swap(10, 11);
        sort_descending(&mut v, by_send);
        assert!(descending(&v));

        let (mut heap, mut ladder) = (BinaryHeapQueue::new(), LadderQueue::new());
        for i in 0..500u64 {
            let e = env(1_000, 999 - i, (i % 3) as u32, i, i);
            heap.push(e.clone());
            ladder.push(e);
        }
        assert_eq!(drain_ids(&mut heap), drain_ids(&mut ladder));
    }

    #[test]
    fn queue_kind_parses_like_sched_specs() {
        assert_eq!(QueueKind::parse("heap"), Ok(QueueKind::Heap));
        assert_eq!(QueueKind::parse("ladder"), Ok(QueueKind::Ladder));
        assert!(QueueKind::parse("splay").is_err());
        assert_eq!(QueueKind::default(), QueueKind::Ladder);
        assert_eq!(QueueKind::Heap.new_queue::<u64>().kind(), QueueKind::Heap);
    }
}
