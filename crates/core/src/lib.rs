//! # union-core
//!
//! **Union: an automatic workload manager for accelerating network
//! simulation** (Wang, Mubarak, Kang, Ross, Lan — IPDPS 2020), reproduced
//! in Rust.
//!
//! Union couples application descriptions written in a coNCePTuaL-style
//! DSL (crate [`conceptual`]) with a CODES-style network simulation (crate
//! `codes`). It has two components:
//!
//! * the **translator** ([`translate`]) — automatically converts a
//!   coNCePTuaL program into a *skeleton*: buffers nulled, computation
//!   replaced with delay models, communication intercepted as
//!   `UNION_MPI_X` operations ([`ops::MpiOp`]);
//! * the **event generator** ([`vm::RankVm`]) — executes skeletons rank by
//!   rank as resumable state machines, yielding communication operations
//!   to the simulator in situ (the paper uses Argobots user-level threads;
//!   see DESIGN.md substitution #4).
//!
//! Supporting pieces: the skeleton [`ir`] and [`ir::Builder`] for
//! SWM-style hand-written workloads, the [`registry::SkeletonRegistry`]
//! (the paper's `union_skeleton_model` list, Fig 4), a Fig-5-style C
//! renderer ([`codegen::render_c`]), and the validation executor
//! ([`validate::Validation`]) behind the paper's Tables IV/V and Fig 6.
//!
//! ```
//! use union_core::{translate_source, vm::{RankVm, SkeletonInstance}, ops::MpiOp};
//!
//! let skel = translate_source(
//!     "task 0 sends a 1024 byte message to task 1.",
//!     "hello",
//! ).unwrap();
//! let inst = SkeletonInstance::new(&skel, 2, &[]).unwrap();
//! let ops: Vec<MpiOp> = RankVm::new(inst, 0, 0).collect();
//! assert_eq!(ops[1], MpiOp::Send { dst: 1, bytes: 1024, tag: 0 });
//! ```

pub mod codegen;
pub mod ir;
pub mod ops;
pub mod registry;
pub mod trace;
pub mod translate;
pub mod validate;
pub mod vm;

pub use ir::{Builder, Instr, LeafOp, ReduceTarget, Sel, Skeleton};
pub use ops::MpiOp;
pub use registry::SkeletonRegistry;
pub use trace::{OpSource, Trace, TraceCursor};
pub use translate::{translate, translate_source};
pub use validate::Validation;
pub use vm::{RankVm, SkeletonInstance};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random (reps, size, tasks) ping-rings: the sum of bytes sent must
    /// equal reps × size × tasks, and every rank's stream must start with
    /// Init and end with Finalize.
    fn ring_skel(reps: i64, size: i64) -> Skeleton {
        translate_source(
            &format!(
                "for {reps} repetitions {{ all tasks t asynchronously send a {size} byte \
                 message to task (t+1) mod num_tasks then all tasks await completions }}."
            ),
            "ring",
        )
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ring_conservation(reps in 1i64..5, size in 1i64..10_000, n in 2u32..12) {
            let inst = SkeletonInstance::new(&ring_skel(reps, size), n, &[]).unwrap();
            let v = Validation::collect(n, |r| RankVm::new(inst.clone(), r, 1));
            let total: u64 = v.bytes_per_rank.iter().sum();
            prop_assert_eq!(total, (reps * size) as u64 * n as u64);
            prop_assert_eq!(v.event_counts["MPI_Init"], n as u64);
            prop_assert_eq!(v.event_counts["MPI_Finalize"], n as u64);
            prop_assert_eq!(v.event_counts["MPI_Isend"], (reps as u64) * n as u64);
            prop_assert_eq!(v.event_counts["MPI_Irecv"], (reps as u64) * n as u64);
        }

        #[test]
        fn vm_streams_are_deterministic(n in 2u32..8, seed in 0u64..1000) {
            let inst = SkeletonInstance::new(&ring_skel(2, 64), n, &[]).unwrap();
            for r in 0..n {
                let a: Vec<MpiOp> = RankVm::new(inst.clone(), r, seed).collect();
                let b: Vec<MpiOp> = RankVm::new(inst.clone(), r, seed).collect();
                prop_assert_eq!(a, b);
            }
        }

        #[test]
        fn every_send_has_a_matching_recv(n in 2u32..10) {
            // all-to-all: sends and recvs must pair up by (src,dst,bytes).
            let skel = translate_source(
                "all tasks t asynchronously send a 128 byte message to all other tasks \
                 then all tasks await completions.",
                "a2a",
            ).unwrap();
            let inst = SkeletonInstance::new(&skel, n, &[]).unwrap();
            let mut sends = std::collections::HashMap::new();
            let mut recvs = std::collections::HashMap::new();
            for r in 0..n {
                for op in RankVm::new(inst.clone(), r, 1) {
                    match op {
                        MpiOp::Isend { dst, bytes, .. } => {
                            *sends.entry((r, dst, bytes)).or_insert(0u32) += 1;
                        }
                        MpiOp::Irecv { src, bytes, .. } => {
                            *recvs.entry((src, r, bytes)).or_insert(0u32) += 1;
                        }
                        _ => {}
                    }
                }
            }
            prop_assert_eq!(sends, recvs);
        }
    }
}
