//! Cloud-storage case study (§VI-C): Dropbox and Box, upload vs download.
//!
//! The comparison the paper draws: a pure on-network enforcement point either
//! cannot separate upload from download at all (Dropbox uses one endpoint for
//! both) or breaks the workflow when it tries (blocking Box's upload endpoint
//! also breaks listing/browsing in practice; a flow-size threshold misses
//! small uploads and cuts large legitimate transfers).  BorderPatrol with one
//! method-level deny per app blocks exactly the upload functionality and
//! leaves authentication, browsing and download intact.

use std::io::Write;

use serde::{Deserialize, Serialize};

use bp_appsim::generator::CorpusGenerator;
use bp_baseline::{FlowSizeThreshold, IpBlocklist};
use bp_core::enforcer::EnforcerConfig;
use bp_core::policy::{Policy, PolicySet};
use bp_types::{EnforcementLevel, Error};

use crate::report::TextTable;
use crate::testbed::{Deployment, Testbed};

/// Enforcement mechanisms compared by the case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Mechanism {
    /// No enforcement (ground truth that everything works).
    NoEnforcement,
    /// On-network IP/DNS blocklist of the upload endpoint.
    IpBlocklistBaseline,
    /// On-network per-flow outbound size threshold.
    FlowThresholdBaseline,
    /// BorderPatrol with a method-level deny policy on the upload task.
    BorderPatrol,
}

impl Mechanism {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::NoEnforcement => "no enforcement",
            Mechanism::IpBlocklistBaseline => "on-network IP blocklist",
            Mechanism::FlowThresholdBaseline => "on-network flow threshold",
            Mechanism::BorderPatrol => "BorderPatrol",
        }
    }
}

/// Outcome of exercising one app's functionalities under one mechanism.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MechanismOutcome {
    /// The mechanism evaluated.
    pub mechanism: Mechanism,
    /// `(functionality, delivered)` for every functionality of the app.
    pub functionality_delivered: Vec<(String, bool)>,
}

impl MechanismOutcome {
    /// Whether `functionality` survived under this mechanism.
    pub fn delivered(&self, functionality: &str) -> Option<bool> {
        self.functionality_delivered
            .iter()
            .find(|(name, _)| name == functionality)
            .map(|(_, delivered)| *delivered)
    }

    /// The paper's success criterion for the cloud-storage policy: upload
    /// blocked, everything else intact.
    pub fn upload_blocked_everything_else_intact(&self) -> bool {
        self.functionality_delivered
            .iter()
            .all(|(name, delivered)| {
                if name == "upload" {
                    !*delivered
                } else {
                    *delivered
                }
            })
    }
}

/// The full case-study result for one app.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloudCaseResult {
    /// `com.dropbox.android` or `com.box.android`.
    pub app: String,
    /// Outcomes per mechanism.
    pub outcomes: Vec<MechanismOutcome>,
}

impl CloudCaseResult {
    /// The outcome of a given mechanism.
    pub fn outcome(&self, mechanism: Mechanism) -> Option<&MechanismOutcome> {
        self.outcomes.iter().find(|o| o.mechanism == mechanism)
    }

    /// Render a functionality × mechanism matrix.
    pub fn to_table(&self) -> TextTable {
        let functionalities: Vec<String> = self
            .outcomes
            .first()
            .map(|o| {
                o.functionality_delivered
                    .iter()
                    .map(|(n, _)| n.clone())
                    .collect()
            })
            .unwrap_or_default();
        let mut header = vec!["mechanism"];
        let functionality_refs: Vec<&str> = functionalities.iter().map(String::as_str).collect();
        header.extend(functionality_refs);
        let mut table = TextTable::new(format!("Cloud storage case study — {}", self.app), &header);
        for outcome in &self.outcomes {
            let mut row = vec![outcome.mechanism.label().to_string()];
            for functionality in &functionalities {
                row.push(match outcome.delivered(functionality) {
                    Some(true) => "works".to_string(),
                    Some(false) => "BLOCKED".to_string(),
                    None => "-".to_string(),
                });
            }
            table.add_row(row);
        }
        table
    }
}

/// The method-level policies the paper derives for the two apps (Example 3 in
/// Snippet 1 for Dropbox, the `BoxRequestUpload` analogue for Box).
pub fn upload_block_policy(app_package: &str) -> PolicySet {
    let policy = if app_package.contains("dropbox") {
        Policy::deny(
            EnforcementLevel::Method,
            "Lcom/dropbox/android/taskqueue/UploadTask;->c",
        )
    } else {
        Policy::deny(
            EnforcementLevel::Class,
            "com/box/androidsdk/content/requests/BoxRequestUpload",
        )
    };
    PolicySet::from_policies(vec![policy])
}

fn exercise(
    testbed: &mut Testbed,
    spec: &bp_appsim::app::AppSpec,
    mechanism: Mechanism,
) -> Result<MechanismOutcome, Error> {
    let app = testbed.install_app(spec.clone())?;
    let mut functionality_delivered = Vec::new();
    for functionality in &spec.functionalities {
        let outcome = testbed.run(app, &functionality.name)?;
        functionality_delivered.push((functionality.name.clone(), outcome.fully_delivered()));
    }
    Ok(MechanismOutcome {
        mechanism,
        functionality_delivered,
    })
}

/// Run the case study for one cloud-storage app spec.
///
/// # Errors
///
/// Propagates testbed failures.
pub fn run_for(spec: &bp_appsim::app::AppSpec) -> Result<CloudCaseResult, Error> {
    let mut outcomes = Vec::new();

    // Ground truth.
    let mut testbed = Testbed::new(Deployment::None);
    outcomes.push(exercise(&mut testbed, spec, Mechanism::NoEnforcement)?);

    // IP blocklist baseline: block the endpoint the upload functionality uses.
    let upload_host = spec
        .functionality("upload")
        .map(|f| f.endpoint_host.clone())
        .unwrap_or_default();
    // Learn the deterministic address assignment from a scratch testbed.
    let mut scratch = Testbed::new(Deployment::None);
    scratch.install_app(spec.clone())?;
    let mut blocklist = IpBlocklist::new();
    if let Some(ip) = scratch.host_address(&upload_host) {
        blocklist.block_ip(ip);
    }
    let mut testbed = Testbed::new(Deployment::IpBlocklist(blocklist));
    outcomes.push(exercise(
        &mut testbed,
        spec,
        Mechanism::IpBlocklistBaseline,
    )?);

    // Flow-size threshold baseline (100 kB outbound per flow).
    let mut testbed = Testbed::new(Deployment::FlowThreshold(FlowSizeThreshold::new(100_000)));
    outcomes.push(exercise(
        &mut testbed,
        spec,
        Mechanism::FlowThresholdBaseline,
    )?);

    // BorderPatrol with the method-level upload deny.
    let mut testbed = Testbed::new(Deployment::BorderPatrol {
        policies: upload_block_policy(&spec.package_name),
        config: EnforcerConfig::default(),
    });
    outcomes.push(exercise(&mut testbed, spec, Mechanism::BorderPatrol)?);

    Ok(CloudCaseResult {
        app: spec.package_name.clone(),
        outcomes,
    })
}

/// Run the case study for both Dropbox and Box.
///
/// # Errors
///
/// Propagates testbed failures.
pub fn run() -> Result<Vec<CloudCaseResult>, Error> {
    Ok(vec![
        run_for(&CorpusGenerator::dropbox())?,
        run_for(&CorpusGenerator::box_app())?,
    ])
}

/// Print the case study as `examples/cloud_storage.rs` does: per app, the
/// comparison table and the verdict line.
///
/// # Errors
///
/// Propagates testbed failures and errors writing to `out`.
///
/// # Panics
///
/// If BorderPatrol blocks more or less than the upload of either app.
pub fn transcript(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    for result in run()? {
        writeln!(out, "{}", result.to_table())?;

        let borderpatrol = result
            .outcome(Mechanism::BorderPatrol)
            .expect("BorderPatrol outcome present");
        assert!(
            borderpatrol.upload_blocked_everything_else_intact(),
            "BorderPatrol must block only the upload for {}",
            result.app
        );
        writeln!(
            out,
            "{}: BorderPatrol blocked the upload and preserved auth/browse/download.\n",
            result.app
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropbox_only_borderpatrol_separates_upload_from_download() {
        let result = run_for(&CorpusGenerator::dropbox()).unwrap();

        let ground_truth = result.outcome(Mechanism::NoEnforcement).unwrap();
        assert!(ground_truth.functionality_delivered.iter().all(|(_, d)| *d));

        // Dropbox uses one endpoint: the IP blocklist kills download too.
        let blocklist = result.outcome(Mechanism::IpBlocklistBaseline).unwrap();
        assert_eq!(blocklist.delivered("upload"), Some(false));
        assert_eq!(blocklist.delivered("download"), Some(false));
        assert!(!blocklist.upload_blocked_everything_else_intact());

        // BorderPatrol blocks exactly the upload.
        let borderpatrol = result.outcome(Mechanism::BorderPatrol).unwrap();
        assert!(
            borderpatrol.upload_blocked_everything_else_intact(),
            "{borderpatrol:?}"
        );
    }

    #[test]
    fn box_blocklist_blocks_upload_but_borderpatrol_is_still_needed() {
        let result = run_for(&CorpusGenerator::box_app()).unwrap();

        // Box uses a dedicated upload endpoint, so the blocklist does block
        // the upload without touching browse/download in this simulation —
        // the paper's point is that in the real workflow listing precedes
        // upload; the structural takeaway preserved here is that BorderPatrol
        // achieves the same separation without any endpoint knowledge.
        let borderpatrol = result.outcome(Mechanism::BorderPatrol).unwrap();
        assert!(
            borderpatrol.upload_blocked_everything_else_intact(),
            "{borderpatrol:?}"
        );

        // The flow threshold misses nothing here only if the upload is large;
        // Box's browse/auth flows must never be cut.
        let flow = result.outcome(Mechanism::FlowThresholdBaseline).unwrap();
        assert_eq!(flow.delivered("browse"), Some(true));
        assert_eq!(flow.delivered("auth"), Some(true));
    }

    #[test]
    fn flow_threshold_misses_small_uploads() {
        // Shrink the Dropbox upload below the 100 kB threshold: the baseline
        // lets it through while BorderPatrol still blocks it.
        let mut spec = CorpusGenerator::dropbox();
        for functionality in &mut spec.functionalities {
            if functionality.name == "upload" {
                functionality.payload_bytes = 10_000;
            }
        }
        let result = run_for(&spec).unwrap();
        let flow = result.outcome(Mechanism::FlowThresholdBaseline).unwrap();
        assert_eq!(
            flow.delivered("upload"),
            Some(true),
            "small upload evades the threshold"
        );
        let borderpatrol = result.outcome(Mechanism::BorderPatrol).unwrap();
        assert_eq!(borderpatrol.delivered("upload"), Some(false));
    }

    #[test]
    fn table_renders_matrix() {
        let result = run_for(&CorpusGenerator::dropbox()).unwrap();
        let rendered = result.to_table().render();
        assert!(rendered.contains("BorderPatrol"));
        assert!(rendered.contains("BLOCKED"));
        assert!(rendered.contains("upload"));
    }
}
