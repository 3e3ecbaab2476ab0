//! Facebook-SDK case study (paper §VI-C): SolCalendar.
//!
//! "Login with Facebook" and the SDK's analytics beacons both talk to the same
//! Graph API endpoint.  An on-network block of that endpoint kills the login;
//! BorderPatrol distinguishes the two flows by their calling context and drops
//! only the analytics traffic.  The deny policy is derived automatically with
//! the Policy Extractor from a baseline run and an undesired-functionality run
//! (paper §V-E).
//!
//! Run with: `cargo run --example facebook_login`

use borderpatrol::analysis::experiments::case_facebook;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    case_facebook::transcript(&mut std::io::stdout().lock())
}
