//! Facebook-SDK case study (§VI-C): allow "Login with Facebook", block the
//! SDK's analytics beacons.
//!
//! Both flows go through the same Graph API endpoint via the same SDK, so an
//! on-network rule that blocks the endpoint also breaks authentication.
//! BorderPatrol distinguishes the two by the calling context (the
//! `AppEventsLogger` analytics path vs the `LoginManager` path) and drops only
//! the analytics packets.

use std::io::Write;

use serde::{Deserialize, Serialize};

use bp_appsim::generator::CorpusGenerator;
use bp_baseline::IpBlocklist;
use bp_core::enforcer::EnforcerConfig;
use bp_core::policy::{Policy, PolicySet};
use bp_core::policy_extractor::{PolicyExtractor, ProfileRun};
use bp_device::runtime::java_stack_for;
use bp_types::{EnforcementLevel, Error};

use crate::report::TextTable;
use crate::testbed::{Deployment, Testbed};

/// Result of the Facebook SDK case study.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FacebookCaseResult {
    /// Whether login survived under the on-network endpoint block.
    pub baseline_login_works: bool,
    /// Whether analytics was blocked under the on-network endpoint block.
    pub baseline_analytics_blocked: bool,
    /// Whether login survived under BorderPatrol.
    pub borderpatrol_login_works: bool,
    /// Whether analytics was blocked under BorderPatrol.
    pub borderpatrol_analytics_blocked: bool,
    /// Whether the unrelated calendar-sync functionality survived under
    /// BorderPatrol (no collateral damage).
    pub borderpatrol_sync_works: bool,
    /// Number of policies the policy extractor derived.
    pub extracted_policies: usize,
}

impl FacebookCaseResult {
    /// The paper's takeaway: only BorderPatrol preserves login while blocking
    /// analytics.
    pub fn borderpatrol_wins(&self) -> bool {
        self.borderpatrol_login_works
            && self.borderpatrol_analytics_blocked
            && self.borderpatrol_sync_works
            && !(self.baseline_login_works && self.baseline_analytics_blocked)
    }

    /// Render as a comparison table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(
            "Facebook SDK case study — SolCalendar (login vs analytics)",
            &["mechanism", "fb-login", "fb-analytics", "calendar-sync"],
        );
        let cell = |works: bool| {
            if works {
                "works".to_string()
            } else {
                "BLOCKED".to_string()
            }
        };
        table.add_row(vec![
            "on-network endpoint block".to_string(),
            cell(self.baseline_login_works),
            cell(!self.baseline_analytics_blocked),
            "works".to_string(),
        ]);
        table.add_row(vec![
            "BorderPatrol".to_string(),
            cell(self.borderpatrol_login_works),
            cell(!self.borderpatrol_analytics_blocked),
            cell(self.borderpatrol_sync_works),
        ]);
        table
    }
}

/// The analytics-blocking policy used by the case study: deny the Facebook
/// app-events (analytics) class tree.
pub fn analytics_block_policy() -> PolicySet {
    PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )])
}

/// Derive the analytics policy with the Policy Extractor from two profiling
/// runs (baseline = login + sync, undesired = analytics), as §V-E describes.
pub fn extract_analytics_policy() -> PolicySet {
    let app = CorpusGenerator::solcalendar();
    let mut baseline = ProfileRun::new();
    baseline.record(java_stack_for(&app, app.functionality("fb-login").unwrap()));
    baseline.record(java_stack_for(
        &app,
        app.functionality("calendar-sync").unwrap(),
    ));
    let mut undesired = ProfileRun::new();
    undesired.record(java_stack_for(
        &app,
        app.functionality("fb-analytics").unwrap(),
    ));
    PolicyExtractor::new().extract(&baseline, &undesired, EnforcementLevel::Class)
}

/// Run the case study.
///
/// # Errors
///
/// Propagates testbed failures.
pub fn run() -> Result<FacebookCaseResult, Error> {
    let spec = CorpusGenerator::solcalendar();

    // Baseline: block the Graph API endpoint on the network.
    let mut scratch = Testbed::new(Deployment::None);
    scratch.install_app(spec.clone())?;
    let graph_ip = scratch
        .host_address("graph.facebook.com")
        .ok_or_else(|| Error::not_found("host", "graph.facebook.com"))?;
    let mut blocklist = IpBlocklist::new();
    blocklist.block_ip(graph_ip);

    let mut baseline_testbed = Testbed::new(Deployment::IpBlocklist(blocklist));
    let app = baseline_testbed.install_app(spec.clone())?;
    let baseline_login = baseline_testbed.run(app, "fb-login")?;
    let baseline_analytics = baseline_testbed.run(app, "fb-analytics")?;

    // BorderPatrol: use the extractor-derived policy (equivalent to the
    // hand-written one) and verify the behavioural split.
    let extracted = extract_analytics_policy();
    let policies = if extracted.is_empty() {
        analytics_block_policy()
    } else {
        extracted.clone()
    };
    let mut bp_testbed = Testbed::new(Deployment::BorderPatrol {
        policies,
        config: EnforcerConfig::default(),
    });
    let app = bp_testbed.install_app(spec)?;
    let bp_login = bp_testbed.run(app, "fb-login")?;
    let bp_analytics = bp_testbed.run(app, "fb-analytics")?;
    let bp_sync = bp_testbed.run(app, "calendar-sync")?;

    Ok(FacebookCaseResult {
        baseline_login_works: baseline_login.fully_delivered(),
        baseline_analytics_blocked: baseline_analytics.fully_blocked(),
        borderpatrol_login_works: bp_login.fully_delivered(),
        borderpatrol_analytics_blocked: bp_analytics.fully_blocked(),
        borderpatrol_sync_works: bp_sync.fully_delivered(),
        extracted_policies: extracted.len(),
    })
}

/// Print the case study as `examples/facebook_login.rs` does: the
/// extracted policy, the comparison table and the verdict line.
///
/// # Errors
///
/// Propagates testbed failures and errors writing to `out`.
///
/// # Panics
///
/// If BorderPatrol does not win the case study.
pub fn transcript(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let extracted = extract_analytics_policy();
    writeln!(
        out,
        "Policy Extractor derived {} policy rule(s):",
        extracted.len()
    )?;
    for policy in extracted.iter() {
        writeln!(out, "  {policy}")?;
    }
    writeln!(out)?;

    let result = run()?;
    writeln!(out, "{}", result.to_table())?;

    assert!(result.borderpatrol_wins());
    writeln!(
        out,
        "BorderPatrol preserved \"Login with Facebook\" and calendar sync while dropping the analytics beacons;\n\
         the endpoint-blocking baseline broke authentication."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borderpatrol_preserves_login_and_blocks_analytics() {
        let result = run().unwrap();
        // The endpoint block breaks login (the paper's observation).
        assert!(!result.baseline_login_works);
        assert!(result.baseline_analytics_blocked);
        // BorderPatrol separates the two flows and leaves sync alone.
        assert!(result.borderpatrol_login_works);
        assert!(result.borderpatrol_analytics_blocked);
        assert!(result.borderpatrol_sync_works);
        assert!(result.borderpatrol_wins());
        assert!(result.extracted_policies > 0);
        assert!(result.to_table().render().contains("BorderPatrol"));
    }

    #[test]
    fn extractor_derived_policy_targets_the_analytics_path_only() {
        let policies = extract_analytics_policy();
        assert!(!policies.is_empty());
        // None of the extracted targets may touch the login path classes.
        for policy in policies.iter() {
            assert!(
                !policy.target().contains("login"),
                "policy {policy} touches login"
            );
            assert!(!policy.target().contains("LoginManager"));
        }
    }
}
