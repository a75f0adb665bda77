//! The skeleton registry — the Rust analogue of Union's global list of
//! `union_skeleton_model` objects (paper Fig 4). Workload crates register
//! their skeletons here; the simulation assembly looks them up by name and
//! instantiates them per job.

use crate::ir::Skeleton;
use crate::vm::{RankVm, SkeletonInstance};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registry of available skeleton programs.
#[derive(Default)]
pub struct SkeletonRegistry {
    models: BTreeMap<String, Skeleton>,
}

impl SkeletonRegistry {
    pub fn new() -> SkeletonRegistry {
        SkeletonRegistry::default()
    }

    /// Register a skeleton under its program name. Re-registering a name
    /// replaces the previous model (mirrors recompiling a skeleton).
    pub fn register(&mut self, skel: Skeleton) {
        self.models.insert(skel.name.clone(), skel);
    }

    /// Names of all registered skeletons, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.models.keys().map(|s| s.as_str()).collect()
    }

    pub fn get(&self, name: &str) -> Option<&Skeleton> {
        self.models.get(name)
    }

    /// Bind a registered skeleton to a job: `num_tasks` ranks with the
    /// given command-line overrides.
    pub fn instantiate(
        &self,
        name: &str,
        num_tasks: u32,
        args: &[&str],
    ) -> Result<Arc<SkeletonInstance>, String> {
        let skel = self
            .models
            .get(name)
            .ok_or_else(|| format!("unknown skeleton `{name}` (registered: {:?})", self.names()))?;
        SkeletonInstance::new(skel, num_tasks, args)
    }

    /// Instantiate and build all rank VMs for a job in one call.
    pub fn spawn_job(
        &self,
        name: &str,
        num_tasks: u32,
        args: &[&str],
        seed: u64,
    ) -> Result<Vec<RankVm>, String> {
        let inst = self.instantiate(name, num_tasks, args)?;
        Ok((0..num_tasks).map(|r| RankVm::new(inst.clone(), r, seed)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate_source;

    #[test]
    fn register_lookup_instantiate() {
        let mut reg = SkeletonRegistry::new();
        reg.register(translate_source("task 0 sends a 4 byte message to task 1.", "a").unwrap());
        reg.register(translate_source("all tasks synchronize.", "b").unwrap());
        assert_eq!(reg.names(), vec!["a", "b"]);
        assert!(reg.get("a").is_some());
        assert!(reg.instantiate("a", 2, &[]).is_ok());
        assert!(reg.instantiate("nope", 2, &[]).is_err());
        let vms = reg.spawn_job("b", 3, &[], 1).unwrap();
        assert_eq!(vms.len(), 3);
    }

    #[test]
    fn reregistering_replaces() {
        let mut reg = SkeletonRegistry::new();
        reg.register(translate_source("all tasks synchronize.", "x").unwrap());
        let v1_len = reg.get("x").unwrap().code.len();
        reg.register(
            translate_source("all tasks synchronize then all tasks synchronize.", "x").unwrap(),
        );
        assert!(reg.get("x").unwrap().code.len() > v1_len);
    }
}
