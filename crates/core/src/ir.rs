//! The Union skeleton intermediate representation.
//!
//! A skeleton is the *communication spine* of an application: all buffers
//! are nulled out (we never carry payloads — only byte counts), expensive
//! computation is replaced by `Compute` delay ops, and control flow is
//! preserved exactly. The translator lowers a coNCePTuaL AST to this IR;
//! SWM-style workloads construct it directly with [`Builder`].
//!
//! The IR is a flat bytecode with structured-jump instructions so that the
//! per-rank interpreter ([`crate::vm::RankVm`]) is a small, cloneable
//! state machine that lives entirely inside its LP, so a rank behaves the
//! same whichever scheduler or worker thread runs it.

use conceptual::{Cond, Expr, ParamDecl};
use serde::{Deserialize, Serialize};

/// Which ranks an operation applies to (and how destinations are chosen).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Sel {
    /// Every rank; optionally binding a variable to the rank id.
    All(Option<String>),
    /// The single rank the expression evaluates to.
    Single(Expr),
    /// Ranks `v` for which the condition holds.
    SuchThat(String, Cond),
    /// Everyone except the subject of the sentence (multicast targets).
    AllOthers,
    /// A uniformly random rank other than the sender, drawn from the
    /// interpreter's per-rank RNG (used by synthetic workloads; not
    /// reachable from the DSL).
    RandomOther,
}

/// How a `Message` leaf moves its data.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MsgMode {
    /// `Irecv` + `Isend`; completion deferred to the next `Await`
    /// (coNCePTuaL `asynchronously sends`).
    Async,
    /// Blocking `Send` on the source, blocking `Recv` on the destination —
    /// one-directional patterns (ping-pong).
    Sync,
    /// `Irecv` posted first, then blocking `Send`, then wait — the
    /// deadlock-free exchange idiom (LAMMPS-style "blocking send and
    /// nonblocking receive").
    SendIrecv,
}

/// Where a reduction delivers its result.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum ReduceTarget {
    /// `… to all tasks` — an allreduce.
    AllTasks,
    /// `… to task <expr>` — a rooted reduce.
    Root(Expr),
}

/// A leaf operation: something that makes the rank *do* something.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum LeafOp {
    /// Point-to-point traffic: every source rank matching `src` sends
    /// `count` messages of `bytes` bytes to the rank(s) selected by `dst`
    /// (evaluated with the source's selector variable bound). Receivers
    /// post matching receives — coNCePTuaL's implicit-receive semantics.
    Message { src: Sel, dst: Sel, count: Expr, bytes: Expr, mode: MsgMode },
    /// One-to-many broadcast rooted at `root` over all ranks.
    Multicast { root: Expr, bytes: Expr },
    /// Reduction over all ranks.
    Reduce { bytes: Expr, target: ReduceTarget },
    /// Barrier over all ranks.
    Barrier,
    /// Spin-loop replaced by a delay model (`UNION_Compute`).
    Compute { tasks: Sel, ns: Expr },
    /// Sleep — identical simulation effect, distinct for control-flow
    /// fidelity.
    Sleep { tasks: Sel, ns: Expr },
    /// Wait for all outstanding nonblocking operations.
    Await { tasks: Sel },
    /// Counter bookkeeping (latency timers), a no-op for the network.
    ResetCounters { tasks: Sel },
    /// Log-file write, a no-op for the network.
    LogCounters { tasks: Sel },
    /// End-of-run statistics aggregation, a no-op for the network.
    Aggregates { tasks: Sel },
}

/// One bytecode instruction. Jump targets are absolute program counters.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Instr {
    Leaf(LeafOp),
    /// Evaluate `reps`; if positive, enter the loop (binding `var` to
    /// `first + iteration` if present), else jump past `end`.
    LoopStart {
        reps: Expr,
        var: Option<String>,
        first: Expr,
        end: usize,
    },
    /// Loop back-edge: advance the counter and jump to `start + 1` while
    /// iterations remain.
    LoopEnd {
        start: usize,
    },
    /// If the condition is false, jump to `else_pc`.
    Branch {
        cond: Cond,
        else_pc: usize,
    },
    /// Unconditional jump.
    Jump {
        pc: usize,
    },
    /// Push a `let` binding.
    Bind {
        var: String,
        value: Expr,
    },
    /// Pop the innermost binding of `var`.
    Unbind {
        var: String,
    },
}

/// A compiled skeleton: name + parameter declarations + bytecode. This is
/// the Rust analogue of the paper's `union_skeleton_model` struct (Fig 4):
/// the `conceptual_main` function pointer is replaced by the bytecode the
/// interpreter executes.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Skeleton {
    pub name: String,
    pub params: Vec<ParamDecl>,
    pub code: Vec<Instr>,
}

impl Skeleton {
    /// Sanity-check jump targets. Called by the translator and builder;
    /// also useful after deserialization.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.code.len();
        for (pc, instr) in self.code.iter().enumerate() {
            let ok = match instr {
                Instr::LoopStart { end, .. } => *end < n,
                Instr::LoopEnd { start } => *start < pc,
                Instr::Branch { else_pc, .. } => *else_pc <= n,
                Instr::Jump { pc: t } => *t <= n,
                _ => true,
            };
            if !ok {
                return Err(format!("instruction {pc} has an out-of-range jump: {instr:?}"));
            }
        }
        Ok(())
    }
}

/// Structured builder for SWM-style skeletons written directly in Rust
/// (the paper's hand-written SWM workloads: MILC, Nekbone, LAMMPS, NN).
///
/// ```
/// use union_core::ir::Builder;
/// use conceptual::Expr;
///
/// let skel = Builder::new("ring")
///     .loop_n(Expr::lit(10), |b| {
///         b.send_nb(
///             Expr::var("t").add(Expr::lit(1)).rem(Expr::var("num_tasks")),
///             Expr::lit(4096),
///         )
///         .await_all()
///     })
///     .build()
///     .unwrap();
/// assert_eq!(skel.name, "ring");
/// ```
pub struct Builder {
    name: String,
    params: Vec<ParamDecl>,
    code: Vec<Instr>,
}

impl Builder {
    pub fn new(name: &str) -> Builder {
        Builder { name: name.to_string(), params: Vec::new(), code: Vec::new() }
    }

    /// Declare a tunable parameter with a default (overridable at
    /// instantiation like a command-line flag).
    pub fn param(mut self, name: &str, default: i64) -> Builder {
        self.params.push(ParamDecl {
            name: name.to_string(),
            description: String::new(),
            long_flag: format!("--{name}"),
            short_flag: None,
            default,
        });
        self
    }

    pub fn push(mut self, op: LeafOp) -> Builder {
        self.code.push(Instr::Leaf(op));
        self
    }

    /// All-ranks nonblocking send from rank variable `t`: every rank binds
    /// `t` to itself, evaluates `dst` and `bytes`, and posts the
    /// send/implicit receive pair. Destinations outside `0..num_tasks`
    /// (e.g. mesh edges) are skipped.
    pub fn send_nb(self, dst: Expr, bytes: Expr) -> Builder {
        self.push(LeafOp::Message {
            src: Sel::All(Some("t".into())),
            dst: Sel::Single(dst),
            count: Expr::lit(1),
            bytes,
            mode: MsgMode::Async,
        })
    }

    /// All-ranks exchange with `dst`: nonblocking receive posted first,
    /// blocking send, then wait (deadlock-free for any size).
    pub fn send_irecv(self, dst: Expr, bytes: Expr) -> Builder {
        self.push(LeafOp::Message {
            src: Sel::All(Some("t".into())),
            dst: Sel::Single(dst),
            count: Expr::lit(1),
            bytes,
            mode: MsgMode::SendIrecv,
        })
    }

    /// Every rank sends one message to a uniformly random other rank.
    pub fn send_random(self, bytes: Expr, _nonblocking: bool) -> Builder {
        self.push(LeafOp::Message {
            src: Sel::All(Some("t".into())),
            dst: Sel::RandomOther,
            count: Expr::lit(1),
            bytes,
            mode: MsgMode::Async,
        })
    }

    pub fn allreduce(self, bytes: Expr) -> Builder {
        self.push(LeafOp::Reduce { bytes, target: ReduceTarget::AllTasks })
    }

    pub fn bcast(self, root: Expr, bytes: Expr) -> Builder {
        self.push(LeafOp::Multicast { root, bytes })
    }

    pub fn barrier(self) -> Builder {
        self.push(LeafOp::Barrier)
    }

    pub fn compute_ns(self, ns: Expr) -> Builder {
        self.push(LeafOp::Compute { tasks: Sel::All(None), ns })
    }

    pub fn await_all(self) -> Builder {
        self.push(LeafOp::Await { tasks: Sel::All(None) })
    }

    /// `for reps { body }` without an index variable.
    pub fn loop_n(self, reps: Expr, body: impl FnOnce(Builder) -> Builder) -> Builder {
        self.loop_var(reps, None, body)
    }

    /// `for i in 0..reps { body }` binding `var` to the iteration index.
    pub fn loop_idx(self, var: &str, reps: Expr, body: impl FnOnce(Builder) -> Builder) -> Builder {
        self.loop_var(reps, Some(var.to_string()), body)
    }

    fn loop_var(
        mut self,
        reps: Expr,
        var: Option<String>,
        body: impl FnOnce(Builder) -> Builder,
    ) -> Builder {
        let start = self.code.len();
        self.code.push(Instr::LoopStart { reps, var, first: Expr::lit(0), end: usize::MAX });
        let mut b = body(self);
        b.code.push(Instr::LoopEnd { start });
        let end = b.code.len() - 1;
        let Instr::LoopStart { end: e, .. } = &mut b.code[start] else { unreachable!() };
        *e = end;
        b
    }

    /// `let var = value in { body }`.
    pub fn bind(
        mut self,
        var: &str,
        value: Expr,
        body: impl FnOnce(Builder) -> Builder,
    ) -> Builder {
        self.code.push(Instr::Bind { var: var.to_string(), value });
        let mut b = body(self);
        b.code.push(Instr::Unbind { var: var.to_string() });
        b
    }

    pub fn build(self) -> Result<Skeleton, String> {
        let skel = Skeleton { name: self.name, params: self.params, code: self.code };
        skel.validate()?;
        Ok(skel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_fixes_loop_targets() {
        let skel = Builder::new("x")
            .loop_n(Expr::lit(3), |b| b.barrier().allreduce(Expr::lit(8)))
            .build()
            .unwrap();
        assert_eq!(skel.code.len(), 4);
        let Instr::LoopStart { end, .. } = &skel.code[0] else { panic!() };
        assert_eq!(*end, 3);
        let Instr::LoopEnd { start } = &skel.code[3] else { panic!() };
        assert_eq!(*start, 0);
    }

    #[test]
    fn nested_loops() {
        let skel = Builder::new("x")
            .loop_idx("i", Expr::lit(2), |b| b.loop_idx("j", Expr::lit(3), |b| b.barrier()))
            .build()
            .unwrap();
        let Instr::LoopStart { end, .. } = &skel.code[0] else { panic!() };
        assert_eq!(*end, 4);
        let Instr::LoopStart { end, .. } = &skel.code[1] else { panic!() };
        assert_eq!(*end, 3);
    }

    #[test]
    fn validate_catches_bad_jumps() {
        let skel =
            Skeleton { name: "bad".into(), params: vec![], code: vec![Instr::Jump { pc: 99 }] };
        assert!(skel.validate().is_err());
    }
}
