//! The quickstart walkthrough (paper Snippet 1, Example 1): block an
//! analytics library for one app, end to end.
//!
//! 1. generate a synthetic business app that bundles the Flurry analytics
//!    SDK,
//! 2. run the Offline Analyzer and deploy BorderPatrol with the policy
//!    `{[deny][library]["com/flurry"]}`,
//! 3. exercise the app and show that the analytics beacon is dropped at the
//!    network perimeter while the app's own functionality keeps working.

use std::io::Write;

use bp_appsim::app::{AppCategory, AppSpec};
use bp_appsim::functionality::{CallChainBuilder, Functionality, FunctionalityKind};
use bp_core::enforcer::EnforcerConfig;
use bp_core::policy::{Policy, PolicySet};

use crate::testbed::{Deployment, Testbed};

/// The walkthrough's app: a business notes app that syncs through its own
/// API and bundles the Flurry analytics SDK.
pub fn sample_app() -> AppSpec {
    let main_package = "com/acme/notes";
    AppSpec::new("com.acme.notes", AppCategory::Business, 2_000_000)
        .with_library("com/flurry")
        .with_functionality(Functionality::new(
            "sync-notes",
            FunctionalityKind::Sync,
            "api.acme.example",
            CallChainBuilder::ui_entry(main_package, "NotesActivity", "onRefresh")
                .then("com/acme/notes/sync", "NoteSyncClient", "pull", "", "V")
                .build(),
            800,
        ))
        .with_functionality(Functionality::new(
            "flurry-beacon",
            FunctionalityKind::Analytics,
            "data.flurry.com",
            CallChainBuilder::ui_entry(main_package, "NotesActivity", "onResume")
                .then(
                    "com/flurry",
                    "FlurryAgent",
                    "onStartSession",
                    "Landroid/content/Context;",
                    "V",
                )
                .then(
                    "com/flurry/sdk",
                    "Transport",
                    "send",
                    "Ljava/lang/String;",
                    "V",
                )
                .build(),
            256,
        ))
}

/// Deploy the paper's Example 1 policy, run both of the sample app's
/// functionalities and print what the enforcer and the sanitizer saw.
///
/// # Errors
///
/// Propagates policy-parse and testbed failures and errors writing to
/// `out`.
///
/// # Panics
///
/// If the sync is not fully delivered or the beacon not fully blocked.
pub fn transcript(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    // The policy from Snippet 1, Example 1 of the paper.
    let policy: Policy = r#"{[deny][library]["com/flurry"]}"#.parse()?;
    writeln!(out, "Installed policy: {policy}\n")?;

    let mut testbed = Testbed::new(Deployment::BorderPatrol {
        policies: PolicySet::from_policies(vec![policy]),
        config: EnforcerConfig::default(),
    });

    let app = testbed.install_app(sample_app())?;
    writeln!(
        out,
        "Offline Analyzer indexed {} application(s); signature database entries: {}",
        testbed.database().len(),
        testbed
            .database()
            .iter()
            .map(|(_, e)| e.signatures.len())
            .sum::<usize>()
    )?;

    // Exercise both functionalities.
    let sync = testbed.run(app, "sync-notes")?;
    let beacon = testbed.run(app, "flurry-beacon")?;

    writeln!(
        out,
        "\nsync-notes     → delivered: {} packet(s), dropped: {}",
        sync.packets_delivered, sync.packets_dropped
    )?;
    writeln!(
        out,
        "flurry-beacon  → delivered: {} packet(s), dropped: {} (by {})",
        beacon.packets_delivered,
        beacon.packets_dropped,
        beacon.dropped_by.clone().unwrap_or_else(|| "-".to_string())
    )?;

    let stats = testbed.enforcer_stats().expect("BorderPatrol deployed");
    writeln!(
        out,
        "\nPolicy Enforcer: {} packet(s) inspected, {} dropped by policy",
        stats.packets_inspected, stats.dropped_by_policy
    )?;
    for reason in testbed.enforcer_drop_log() {
        writeln!(out, "  drop reason: {reason}")?;
    }
    writeln!(
        out,
        "Packet Sanitizer stripped the context option from {} packet(s); {} tagged packet(s) reached the WAN",
        testbed.sanitizer_stats().map(|s| s.options_stripped).unwrap_or(0),
        testbed.network.post_chain_capture().packets_with_context(),
    )?;

    assert!(sync.fully_delivered());
    assert!(beacon.fully_blocked());
    writeln!(
        out,
        "\nQuickstart succeeded: analytics blocked, app functionality intact."
    )?;
    Ok(())
}
