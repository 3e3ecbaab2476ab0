//! # BorderPatrol (reproduction)
//!
//! Facade crate re-exporting every component of the BorderPatrol workspace:
//! a from-scratch Rust reproduction of *BorderPatrol: Securing BYOD using
//! Fine-Grained Contextual Information* (DSN 2019).
//!
//! The workspace is organised as follows (see `DESIGN.md` for the full map):
//!
//! * [`types`] — shared identifiers, hashes, method signatures, stack traces.
//! * [`dex`] — the dex-like bytecode container the Offline Analyzer consumes.
//! * [`appsim`] — the synthetic application corpus and UI exerciser.
//! * [`netsim`] — the IPv4 / socket / netfilter network substrate.
//! * [`device`] — the simulated BYOD Android device (processes, hooks, runtime).
//! * [`core`] — the BorderPatrol contribution: offline analyzer, context
//!   manager, policy engine, policy enforcer, packet sanitizer, policy extractor.
//! * [`baseline`] — the on-network enforcement baselines used for comparison.
//! * [`analysis`] — the experiment harness reproducing every figure and table.
//!
//! # Quickstart
//!
//! Assemble an [`Engine`]: the sharded data plane serves
//! `inspect_batch`, and every mutation — rollout, hot-swap, rollback —
//! flows through the transactional control plane.
//!
//! ```
//! use borderpatrol::Engine;
//! use borderpatrol::core::policy::Policy;
//!
//! // Paper Snippet 1, Example 1: prevent ad library connections.
//! let policy: Policy = r#"{[deny][library]["com/flurry"]}"#.parse()?;
//! let mut engine = Engine::builder().shards(2).policy(policy).build();
//!
//! // Stage further changes transactionally: dry-run, then commit.
//! let tx = engine.control().begin().add_policy_text(
//!     r#"{[deny][class]["com/facebook/appevents"]}"#,
//! );
//! assert!(tx.validate().is_deployable());
//! let generation = tx.commit()?;
//! assert_eq!(generation.as_u64(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod engine;

pub use bp_core::faults::{FaultPlan, HealthState, ShardHealthSnapshot};
pub use engine::{Engine, EngineBuilder, Observation};

/// Shared vocabulary types ([`bp_types`]).
pub use bp_types as types;

/// Dex-like container format ([`bp_dex`]).
pub use bp_dex as dex;

/// Synthetic application corpus ([`bp_appsim`]).
pub use bp_appsim as appsim;

/// Network substrate ([`bp_netsim`]).
pub use bp_netsim as netsim;

/// Simulated BYOD device ([`bp_device`]).
pub use bp_device as device;

/// BorderPatrol core components ([`bp_core`]).
pub use bp_core as core;

/// On-network enforcement baselines ([`bp_baseline`]).
pub use bp_baseline as baseline;

/// Evaluation / experiment harness ([`bp_analysis`]).
pub use bp_analysis as analysis;

/// Observability plane: telemetry collection, metrics export, dashboard
/// ([`bp_obs`]).
pub use bp_obs as obs;
