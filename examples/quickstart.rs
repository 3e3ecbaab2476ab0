//! Quickstart: block an analytics library for one app, end to end.
//!
//! This example walks through the whole BorderPatrol pipeline on a single
//! device and a single app:
//!
//! 1. generate a synthetic business app that bundles the Flurry analytics SDK,
//! 2. run the Offline Analyzer and deploy BorderPatrol with the paper's
//!    Example 1 policy (`{[deny][library]["com/flurry"]}`),
//! 3. exercise the app and show that the analytics beacon is dropped at the
//!    network perimeter while the app's own functionality keeps working.
//!
//! Run with: `cargo run --example quickstart`

use borderpatrol::analysis::experiments::quickstart;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    quickstart::transcript(&mut std::io::stdout().lock())
}
