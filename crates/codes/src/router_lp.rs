//! The router logical process: a thin event wrapper around
//! [`dragonfly::RouterState`].

use crate::event::Event;
use crate::shared::Shared;
use dragonfly::{
    credit_arrived, forward_vc, CreditState, FlowControl, Forward, Packet, RouterState, VcAction,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ross::{Ctx, SimTime};
use std::sync::Arc;

/// Router LP: congestion state plus its own deterministic RNG for routing
/// decisions (gateway selection, Valiant intermediate groups). In
/// credit-VC mode it additionally tracks downstream buffer credits and
/// queued packets.
///
/// Packets travel as the packed [`crate::event::Pkt`]; the router unpacks
/// one onto the stack for the frozen `dragonfly` routing calls and packs
/// it again when it sends.
#[derive(Clone)]
pub struct RouterLp {
    pub state: RouterState,
    pub credit: Option<CreditState>,
    shared: Arc<Shared>,
    rng: SmallRng,
    /// Scratch for the credit-mode actions one event produces; empty
    /// between events, kept for its capacity.
    actions: Vec<VcAction>,
}

impl RouterLp {
    pub fn new(router: u32, shared: Arc<Shared>, seed: u64) -> RouterLp {
        let n_ports = shared.topo.ports(router).len();
        let state = RouterState::new(router, n_ports, shared.window_ns, shared.max_apps);
        let credit = match shared.topo.cfg.flow {
            FlowControl::BusyUntil => None,
            FlowControl::CreditVc { vcs, buffer_pkts } => {
                Some(CreditState::new(n_ports, vcs, buffer_pkts))
            }
        };
        RouterLp {
            state,
            credit,
            shared,
            rng: SmallRng::seed_from_u64(seed ^ ((router as u64) << 24)),
            actions: Vec::new(),
        }
    }

    /// Hint that an event for this router is next (see
    /// [`RouterState::prefetch`]).
    #[inline]
    pub fn prefetch(&self) {
        self.state.prefetch(&self.shared.topo);
    }

    pub fn handle_event(&mut self, now: SimTime, ev: &Event, ctx: &mut Ctx<'_, Event>) {
        let mut actions = std::mem::take(&mut self.actions);
        match (ev, &mut self.credit) {
            (Event::Pkt(pkt), None) => {
                let mut pkt = Packet::from(*pkt);
                let fwd = self.state.forward(
                    now,
                    &mut pkt,
                    &self.shared.topo,
                    self.shared.routing,
                    &mut self.rng,
                );
                self.emit_forward(now, ctx, fwd, pkt);
            }
            (Event::Pkt(pkt), Some(credit)) => {
                forward_vc(
                    &mut self.state,
                    credit,
                    now,
                    Packet::from(*pkt),
                    &self.shared.topo,
                    self.shared.routing,
                    &mut self.rng,
                    &mut actions,
                );
            }
            (Event::Credit { port, vc }, Some(credit)) => {
                credit_arrived(
                    &mut self.state,
                    credit,
                    now,
                    *port,
                    *vc,
                    &self.shared.topo,
                    &mut actions,
                );
            }
            (ev, _) => unreachable!("unexpected event at router LP: {ev:?}"),
        }
        for a in actions.drain(..) {
            match a {
                VcAction::Deliver { fwd, pkt } => self.emit_forward(now, ctx, fwd, pkt),
                VcAction::Credit { router, port, vc, at } => {
                    ctx.send(
                        self.shared.lpmap.router_lp(router),
                        at - now,
                        Event::Credit { port, vc },
                    );
                }
            }
        }
        self.actions = actions;
    }

    fn emit_forward(&self, now: SimTime, ctx: &mut Ctx<'_, Event>, fwd: Forward, pkt: Packet) {
        let (lp, arrive) = match fwd {
            Forward::ToRouter { router, arrive } => (self.shared.lpmap.router_lp(router), arrive),
            Forward::ToNode { node, arrive } => (self.shared.lpmap.node_lp(node), arrive),
        };
        ctx.send(lp, arrive - now, Event::Pkt(pkt.into()));
    }
}
