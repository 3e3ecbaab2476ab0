//! BorderPatrol observability plane.
//!
//! The data plane publishes per-shard [`bp_core::TelemetrySnapshot`]s through
//! a seqlock (see `bp-core::telemetry` and DESIGN §12): the enforcer hot path
//! stamps a sequence word around plain relaxed stores and never takes a lock
//! for telemetry.  This crate is the *reader* side:
//!
//! * [`collector`] — a [`Collector`] polls every shard's snapshot, computes
//!   deltas into windowed per-second rates (instantaneous + EWMA) and keeps a
//!   rolling baseline per abnormality signal, exposing the result as a
//!   [`FleetView`].  Polling can be driven manually (deterministic, used by
//!   the golden tests and headless dashboard) or from a sampler thread.
//! * [`metrics`] — [`render_metrics`] renders a `FleetView` as a stable,
//!   diffable, OTLP/Prometheus-style text exposition (golden-tested).
//! * [`ui`] — [`render_dashboard`] renders a `FleetView` as a live terminal
//!   dashboard frame with an abnormality view; `examples/bp_top.rs` in the
//!   facade crate drives it against a running scenario.
//!
//! The writer/reader split is strict: nothing in this crate is ever called
//! from the enforcement hot path, and the collector only performs seqlock
//! reads (retrying torn snapshots), so attaching an observer cannot block or
//! slow a shard beyond the publication stores it already performs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod collector;
pub mod metrics;
pub mod ui;

pub use collector::{
    Abnormality, Collector, CollectorConfig, CollectorHandle, FleetView, GenerationView, ShardView,
    Signal, SignalRate, TelemetrySource,
};
pub use metrics::render_metrics;
pub use ui::render_dashboard;
