//! The logical-process abstraction and the scheduling context handed to it.

use crate::event::{Envelope, LpId};
use crate::time::{SimDuration, SimTime};

/// A logical process (LP): an independently evolving piece of model state.
///
/// All LPs in one simulation share a single concrete type — models compose
/// heterogeneous LPs with an enum. `handle` is the only entry point; an LP
/// must never touch state outside itself except through [`Ctx::send`].
pub trait Lp: Send + 'static {
    /// Model-defined event payload shared by every LP in the simulation.
    type Event: Clone + Send + 'static;

    /// Process one event. Absolutely no side effects outside `self` and
    /// `ctx` are allowed: the parallel schedulers run LPs on any worker
    /// thread and only the LP's own state travels with it.
    fn handle(&mut self, ev: &Envelope<Self::Event>, ctx: &mut Ctx<'_, Self::Event>);

    /// Classify `ev` for the causal tracer ([`crate::trace`]). Kind tags
    /// index into the names staged with
    /// [`crate::Tracer::stage_kind_names`]; models use them to attribute
    /// events to an application, a phase, compute vs. communication, and
    /// so on. Only called when a tracer is attached; must not mutate
    /// observable state. Defaults to tag 0.
    fn trace_kind(&self, _ev: &Envelope<Self::Event>) -> u16 {
        0
    }

    /// A hint that this LP handles the event after the one now running:
    /// start prefetches (see [`prefetch`]) for state the LP reaches
    /// through pointers, since the engine has already pulled in the LP's
    /// own lines. Must not change observable state. Defaults to nothing.
    #[inline(always)]
    fn prefetch(&self) {}
}

/// [`Lp::prefetch`]'s tool: hint that every cache line of `v` will be
/// read soon. Best effort; compiles to nothing off x86_64.
#[inline(always)]
pub fn prefetch<T: ?Sized>(v: &T) {
    crate::pool::prefetch_bytes(v as *const T as *const u8, std::mem::size_of_val(v))
}

/// Buffered outgoing send produced during one `handle` call.
pub(crate) struct Outgoing<E> {
    pub dst: LpId,
    pub delay: SimDuration,
    pub payload: E,
}

/// Scheduling context: the LP's window into the engine during one event.
///
/// Sends are buffered and turned into envelopes by the scheduler after the
/// handler returns, which keeps envelope bookkeeping (tiebreaks, uids)
/// out of model code.
pub struct Ctx<'a, E> {
    pub(crate) now: SimTime,
    pub(crate) me: LpId,
    pub(crate) lookahead: SimDuration,
    pub(crate) out: &'a mut Vec<Outgoing<E>>,
}

impl<'a, E> Ctx<'a, E> {
    /// Current virtual time (the `recv_time` of the event being handled).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the LP handling the event.
    #[inline]
    pub fn me(&self) -> LpId {
        self.me
    }

    /// Schedule `payload` for LP `dst` at `now + delay`.
    ///
    /// `delay` must be at least the engine lookahead declared at
    /// construction — the conservative scheduler's correctness depends on
    /// it, and the requirement is enforced uniformly so a model validated
    /// sequentially cannot silently break under parallel execution.
    #[inline]
    pub fn send(&mut self, dst: LpId, delay: SimDuration, payload: E) {
        debug_assert!(
            delay >= self.lookahead,
            "send delay {delay:?} below engine lookahead {:?}",
            self.lookahead
        );
        self.out.push(Outgoing { dst, delay, payload });
    }

    /// Schedule an event for this LP itself (a wake-up).
    #[inline]
    pub fn send_self(&mut self, delay: SimDuration, payload: E) {
        let me = self.me;
        self.send(me, delay, payload);
    }
}

/// Per-LP engine-side bookkeeping common to all schedulers.
#[derive(Clone, Default)]
pub(crate) struct LpMeta {
    /// Deterministic send counter — travels with the LP. Also the `seq`
    /// of the next event's uid.
    pub tiebreak: u64,
    /// Last processed event time (causality check).
    pub now: SimTime,
}

const _: () = assert!(std::mem::size_of::<LpMeta>() == 16);
