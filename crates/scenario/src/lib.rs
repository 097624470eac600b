//! The dynamic-dataset scenario lab.
//!
//! DyTIS's premise is datasets whose key distribution *shifts over time*
//! (paper §2.1, Figures 1–3), yet stationary harnesses never exercise the
//! remapping/shrink machinery as a measured artifact. This crate closes
//! that gap with a drift-replay workload driver:
//!
//! - [`dsl`] — a small declarative scenario language: phases with a key
//!   distribution (MM/TX/uniform/zipf), an op mix, a duration in ops, and
//!   an interpolation ramp; plus hot-key-storm and bulk-reload events.
//! - [`stream`] — deterministic, target-independent expansion of a
//!   scenario into a concrete op stream with phase markers.
//! - [`runner`] — replays a compiled stream against any
//!   [`runner::ScenarioTarget`] (an in-process `KvIndex`, DyTIS with live
//!   counters, or a network client adapter), sampling variance of
//!   skewness and window-KL divergence against `maintenance_stats()`.
//! - [`timeline`] — the per-phase JSON timeline (`BENCH_scenarios.json`).
//! - [`builtin`] — the standard battery: MM→TX drift (plus its stationary
//!   control), hot-key storm, delete-heavy shrink.
//! - [`chaos`] — kills a `DurableStore` mid-drift and asserts WAL
//!   recovery, oracle agreement, and a clean deep audit.
//!
//! See DESIGN.md §13 for the architecture and EXPERIMENTS.md for how to
//! read the timeline output.

pub mod builtin;
pub mod chaos;
pub mod dsl;
pub mod runner;
pub mod stream;
pub mod timeline;

pub use chaos::{run_chaos, ChaosOptions, ChaosReport};
pub use dsl::{Event, OpMix, Phase, Scenario};
pub use runner::{run, DytisTarget, IndexTarget, RunOptions, ScenarioTarget};
pub use stream::{
    compile, ramp_weight, sample_ramped, CompiledScenario, PhaseSpan, RampSource, ScenarioOp,
    SCAN_COUNT,
};
pub use timeline::{PhaseResult, Sample, Timeline};
