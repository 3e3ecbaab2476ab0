//! Cloud-storage case study (paper §VI-C): Dropbox and Box.
//!
//! Compares four enforcement mechanisms on the same scripted user session
//! (authenticate, browse, download, upload):
//!
//! * no enforcement,
//! * an on-network IP/DNS blocklist of the upload endpoint,
//! * an on-network per-flow outbound size threshold,
//! * BorderPatrol with a single method-level deny on the upload task.
//!
//! Only BorderPatrol blocks exactly the upload while keeping everything else
//! working, and it does so even though Dropbox serves upload and download from
//! the same endpoint.
//!
//! Run with: `cargo run --example cloud_storage`

use borderpatrol::analysis::experiments::case_cloud;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    case_cloud::transcript(&mut std::io::stdout().lock())
}
