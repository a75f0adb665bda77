//! Synchronization-primitive alias module — the `union_check` seam.
//!
//! Production builds (`not(union_check)`) re-export the real primitives
//! (std atomics/barrier/mpsc, parking_lot mutex, std threads) plus a
//! `#[repr(transparent)]` pass-through `UnsafeCell`, so this module
//! compiles to exactly the code `ross` used before it existed: zero
//! overhead, zero behavioral change.
//!
//! Under `RUSTFLAGS="--cfg union_check"` every alias switches to the
//! `ross-check` shim layer, which routes each operation through a
//! controlled scheduler with vector-clock race detection (see
//! `crates/check` and DESIGN.md §13). `ross::mailbox` and the
//! conservative worker core and its schedulers are written against these
//! aliases and therefore model-checkable without further changes.

#[cfg(union_check)]
pub(crate) use ross_check::cell::UnsafeCell;
#[cfg(union_check)]
pub(crate) use ross_check::sync::atomic;
#[cfg(union_check)]
pub(crate) use ross_check::sync::mpsc;
#[cfg(union_check)]
pub(crate) use ross_check::sync::{Barrier, Mutex};
#[cfg(union_check)]
pub(crate) use ross_check::thread;

#[cfg(not(union_check))]
pub(crate) use parking_lot::Mutex;
#[cfg(not(union_check))]
pub(crate) use std::sync::atomic;
#[cfg(not(union_check))]
pub(crate) use std::sync::mpsc;
#[cfg(not(union_check))]
pub(crate) use std::sync::Barrier;
#[cfg(not(union_check))]
pub(crate) use std::thread;

#[cfg(not(union_check))]
mod cell {
    /// Pass-through `UnsafeCell` with the loom-style `with`/`with_mut`
    /// access API. In production builds the closures receive the raw
    /// pointer directly and everything inlines to a plain field access;
    /// under `union_check` the `ross-check` twin records every access for
    /// race detection.
    #[derive(Debug)]
    #[repr(transparent)]
    pub(crate) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    // Mirrors the checked twin (and loom): the cell itself is shareable;
    // callers uphold the aliasing discipline.
    unsafe impl<T: Send> Send for UnsafeCell<T> {}
    unsafe impl<T: Send> Sync for UnsafeCell<T> {}

    impl<T> UnsafeCell<T> {
        #[inline(always)]
        pub(crate) fn new(data: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(data))
        }

        #[inline(always)]
        pub(crate) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        #[inline(always)]
        pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }

        #[allow(dead_code)]
        #[inline(always)]
        pub(crate) fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }
}

#[cfg(not(union_check))]
pub(crate) use cell::UnsafeCell;
