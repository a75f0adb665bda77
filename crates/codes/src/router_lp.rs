//! The router logical process: a thin event wrapper around
//! [`dragonfly::RouterState`].

use crate::event::Event;
use crate::shared::Shared;
use dragonfly::{
    credit_arrived, forward_vc, CreditState, FlowControl, Forward, RouterState, VcAction,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ross::{Ctx, SimTime};
use std::sync::Arc;

/// Router LP: congestion state plus its own deterministic RNG for routing
/// decisions (gateway selection, Valiant intermediate groups). In
/// credit-VC mode it additionally tracks downstream buffer credits and
/// queued packets.
#[derive(Clone)]
pub struct RouterLp {
    pub state: RouterState,
    pub credit: Option<CreditState>,
    shared: Arc<Shared>,
    rng: SmallRng,
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
        }
    }

    pub fn handle_event(&mut self, now: SimTime, ev: &Event, ctx: &mut Ctx<'_, Event>) {
        match (ev, &mut self.credit) {
            (Event::RouterPkt(pkt), None) => {
                let mut pkt = *pkt;
                let fwd = self.state.forward(
                    now,
                    &mut pkt,
                    &self.shared.topo,
                    self.shared.routing,
                    &mut self.rng,
                );
                self.emit_forward(now, ctx, fwd, pkt);
            }
            (Event::RouterPkt(pkt), Some(credit)) => {
                let mut actions = Vec::new();
                forward_vc(
                    &mut self.state,
                    credit,
                    now,
                    *pkt,
                    &self.shared.topo,
                    self.shared.routing,
                    &mut self.rng,
                    &mut actions,
                );
                self.emit_actions(now, ctx, actions);
            }
            (Event::Credit { port, vc }, Some(_)) => {
                let mut actions = Vec::new();
                let credit = self.credit.as_mut().unwrap();
                credit_arrived(
                    &mut self.state,
                    credit,
                    now,
                    *port,
                    *vc,
                    &self.shared.topo,
                    &mut actions,
                );
                self.emit_actions(now, ctx, actions);
            }
            (ev, _) => unreachable!("unexpected event at router LP: {ev:?}"),
        }
    }

    fn emit_actions(&self, now: SimTime, ctx: &mut Ctx<'_, Event>, actions: Vec<VcAction>) {
        for a in actions {
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
    }

    fn emit_forward(
        &self,
        now: SimTime,
        ctx: &mut Ctx<'_, Event>,
        fwd: Forward,
        pkt: dragonfly::Packet,
    ) {
        match fwd {
            Forward::ToRouter { router, arrive } => {
                ctx.send(self.shared.lpmap.router_lp(router), arrive - now, Event::RouterPkt(pkt));
            }
            Forward::ToNode { node, arrive } => {
                ctx.send(self.shared.lpmap.node_lp(node), arrive - now, Event::NodePkt(pkt));
            }
        }
    }
}
