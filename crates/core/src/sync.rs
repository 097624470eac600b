//! Synchronization facade for concurrent DyTIS.
//!
//! Everything the two-level locking protocol of §3.4 touches — directory
//! and segment locks, the shared segment handles, key and maintenance
//! counters — is imported from here instead of `parking_lot`/`std::sync`
//! directly, so one compile-time switch swaps the whole protocol onto the
//! loom model checker:
//!
//! * default build: `parking_lot` locks and `std` atomics (identical to
//!   the pre-facade code, zero overhead);
//! * `RUSTFLAGS="--cfg loom"`: the `compat/loom` shim, whose primitives
//!   are scheduling points of a bounded exhaustive interleaving search
//!   (see `tests/loom_models.rs` and DESIGN.md §12).
//!
//! New concurrent code in this crate must use these re-exports; importing
//! `parking_lot` or `std::sync::atomic` directly in a concurrent module
//! silently opts the code out of model checking.

#[cfg(not(loom))]
pub use parking_lot::RwLock;
#[cfg(not(loom))]
pub use std::sync::atomic;
#[cfg(not(loom))]
pub use std::sync::Arc;

#[cfg(loom)]
pub use loom::sync::atomic;
#[cfg(loom)]
pub use loom::sync::{Arc, RwLock};
