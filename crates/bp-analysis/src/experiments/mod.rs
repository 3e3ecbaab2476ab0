//! Runnable experiments, one per table/figure in the paper's evaluation.
//!
//! Each submodule exposes a configuration struct, a `run` entry point and a
//! result type that renders as a [`crate::report::TextTable`], so the same
//! code path backs the unit tests, the example binaries and the Criterion
//! benches.  The walkthrough and the two case studies also print their
//! example's whole output through a `transcript` function writing to any
//! `impl Write`, which `tests/transcripts.rs` pins.  The mapping to the paper is:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`quickstart`] | Snippet 1, Example 1 — a library-level deny, end to end |
//! | [`fig3`] | Fig. 3 — apps per IoI count + the same-package breakdown |
//! | [`validation`] | §VI-B-1 — 1,050-library blacklist over the 60-app set |
//! | [`case_cloud`] | §VI-C — Dropbox/Box upload-vs-download case study |
//! | [`case_facebook`] | §VI-C — Facebook SDK login-vs-analytics case study |
//! | [`fig4`] | Fig. 4 — per-request latency across six configurations |
//! | [`scaling`] | §VI-D / §I — overhead when scaling to many connections |
//! | [`hash_collision`] | §VII — truncated-hash collision analysis |
//! | [`ablations`] | §VII design alternatives (set-once kernel, stripped debug info, multi-dex encoding) |
//! | [`adversarial`] | beyond-paper — adversarial fleet coverage of the §VI/§VII threat discussion |

pub mod ablations;
pub mod adversarial;
pub mod case_cloud;
pub mod case_facebook;
pub mod fig3;
pub mod fig4;
pub mod hash_collision;
pub mod quickstart;
pub mod scaling;
pub mod validation;
