//! Immutable configuration shared (via `Arc`) by every logical process.

use crate::event::LpMap;
use dragonfly::{Routing, Topology};
use placement::Layout;
use ross::SimDuration;

/// Read-only simulation-wide state. Cheap to clone (behind `Arc` in each
/// LP), safe to share across worker threads because it never mutates.
pub struct Shared {
    pub topo: Topology,
    pub layout: Layout,
    pub routing: Routing,
    /// Eager/rendezvous threshold handed to each `MpiRank`.
    pub eager_max: u64,
    /// Router per-app counter window (0 disables; the paper uses 0.5 ms).
    pub window_ns: u64,
    /// Maximum number of concurrently placed applications tracked by
    /// router counters.
    pub max_apps: usize,
    pub lpmap: LpMap,
    pub lookahead: SimDuration,
    /// Job names, indexed by app id.
    pub job_names: Vec<String>,
}

impl Shared {
    /// (app, rank) owning a node, if any.
    #[inline]
    pub fn owner(&self, node: u32) -> Option<(u32, u32)> {
        self.layout.node_owner[node as usize]
    }
}

// Compile-time proof that `Shared` may be referenced concurrently from
// every worker thread of the parallel schedulers (each LP holds an
// `Arc<Shared>`; immutability makes it `Sync` for free — keep it so).
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<Shared>();
};
