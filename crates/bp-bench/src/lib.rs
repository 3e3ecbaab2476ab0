//! Shared fixtures for the BorderPatrol benchmark suite.
//!
//! Each Criterion bench target regenerates one of the paper's tables or
//! figures (see `DESIGN.md` §3 for the mapping).  The helpers here build the
//! fixtures the benches share — analyzed case-study apps, encoded context
//! payloads, tagged packets and ready-to-use policy sets — so the benchmark
//! bodies measure only the operation under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bp_appsim::app::AppSpec;
use bp_appsim::generator::CorpusGenerator;
use bp_core::encoding::ContextEncoding;
use bp_core::offline::{OfflineAnalyzer, SignatureDatabase};
use bp_core::policy::{Policy, PolicySet};
use bp_dex::{ApkFile, MethodTable};
use bp_netsim::addr::Endpoint;
use bp_netsim::options::{IpOption, IpOptionKind};
use bp_netsim::packet::Ipv4Packet;
use bp_types::{ApkHash, EnforcementLevel};

/// A fully analyzed application fixture.
pub struct AnalyzedApp {
    /// The app specification.
    pub spec: AppSpec,
    /// Its built apk.
    pub apk: ApkFile,
    /// The deterministic method table.
    pub table: MethodTable,
    /// A signature database containing only this app.
    pub database: SignatureDatabase,
}

/// Build the Dropbox case-study fixture.
pub fn analyzed_dropbox() -> AnalyzedApp {
    analyzed(CorpusGenerator::dropbox())
}

/// Build the SolCalendar (Facebook SDK) case-study fixture.
pub fn analyzed_solcalendar() -> AnalyzedApp {
    analyzed(CorpusGenerator::solcalendar())
}

/// Analyze an arbitrary app spec.
pub fn analyzed(spec: AppSpec) -> AnalyzedApp {
    let apk = spec.build_apk();
    let table = MethodTable::from_apk(&apk).expect("fixture apk parses");
    let mut database = SignatureDatabase::new();
    OfflineAnalyzer::new()
        .analyze_into(&apk, &mut database)
        .expect("fixture analyzes");
    AnalyzedApp {
        spec,
        apk,
        table,
        database,
    }
}

impl AnalyzedApp {
    /// The frame indexes of a functionality's connect-time stack (innermost
    /// first, excluding runtime frames).
    pub fn stack_indexes(&self, functionality: &str) -> Vec<u32> {
        self.spec
            .functionality(functionality)
            .expect("fixture functionality exists")
            .call_chain
            .iter()
            .rev()
            .filter_map(|sig| self.table.index_of(sig))
            .collect()
    }

    /// An encoded context payload for a functionality.
    pub fn context_payload(&self, functionality: &str) -> Vec<u8> {
        ContextEncoding::encode(
            self.apk.hash().tag(),
            &self.stack_indexes(functionality),
            false,
        )
        .expect("fixture context encodes")
    }

    /// A packet tagged with the context of a functionality.
    pub fn tagged_packet(&self, functionality: &str) -> Ipv4Packet {
        let mut packet = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 7], 40_000),
            Endpoint::new([198, 51, 100, 7], 443),
            vec![0xA5; 256],
        );
        packet
            .options_mut()
            .push(
                IpOption::new(
                    IpOptionKind::BorderPatrolContext,
                    self.context_payload(functionality),
                )
                .expect("fixture option fits"),
            )
            .expect("fixture option fits packet");
        packet
    }
}

/// A mixed multi-flow stream of `batch` packets on distinct source
/// endpoints: every fifth carries the `analytics` context, the rest
/// `login` — mostly conforming traffic with policy violations sprinkled in.
pub fn mixed_stream(login: &[u8], analytics: &[u8], batch: usize) -> Vec<Ipv4Packet> {
    (0..batch as u16)
        .map(|i| {
            let mut packet = Ipv4Packet::new(
                Endpoint::new([10, 0, (i >> 8) as u8, i as u8], 40_000 + i),
                Endpoint::new([31, 13, 71, 36], 443),
                vec![0xA5; 256],
            );
            let payload = if i % 5 == 0 { analytics } else { login };
            packet
                .options_mut()
                .push(
                    IpOption::new(IpOptionKind::BorderPatrolContext, payload.to_vec())
                        .expect("fixture option fits"),
                )
                .expect("fixture option fits packet");
            packet
        })
        .collect()
}

/// The validation blacklist (one library-level deny per exfiltrating library).
pub fn blacklist_policies() -> PolicySet {
    let catalog = bp_appsim::catalog::LibraryCatalog::builtin();
    catalog
        .exfiltrating_prefixes()
        .into_iter()
        .map(|prefix| Policy::deny(EnforcementLevel::Library, prefix))
        .collect()
}

/// What the bulk of a synthetic rule set targets — the axis the
/// `rule_scale` bench sweeps to show the indexed evaluator stays flat in
/// rule count on every table it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleShape {
    /// Hash-level deny rules on synthetic app tags: the workload probes the
    /// exact-match tag table.
    TagHeavy,
    /// Library/class/method deny rules on synthetic package prefixes: the
    /// workload probes the sorted-prefix index and the method chains.
    StackHeavy,
    /// Alternating tag and stack rules.
    Mixed,
}

impl RuleShape {
    /// Row label for bench output.
    pub fn label(self) -> &'static str {
        match self {
            RuleShape::TagHeavy => "tag_heavy",
            RuleShape::StackHeavy => "stack_heavy",
            RuleShape::Mixed => "mixed",
        }
    }
}

/// One rule of a synthetic set; distinct `i` produce distinct targets, and
/// none of them match the case-study workloads — evaluation always runs to
/// completion, the worst case the indexed tables have to keep flat.
pub fn synthetic_rule(i: usize, shape: RuleShape) -> Policy {
    let tag_rule = |i: usize| {
        Policy::deny(
            EnforcementLevel::Hash,
            ApkHash::digest(&(i as u64).to_le_bytes()).tag().to_hex(),
        )
    };
    let stack_rule = |i: usize| match i % 3 {
        0 => Policy::deny(EnforcementLevel::Library, format!("gen/v{i:06}")),
        1 => Policy::deny(EnforcementLevel::Class, format!("gen/v{i:06}/Widget")),
        _ => Policy::deny(
            EnforcementLevel::Method,
            format!("Lgen/v{i:06}/Widget;->run()V"),
        ),
    };
    match shape {
        RuleShape::TagHeavy => tag_rule(i),
        RuleShape::StackHeavy => stack_rule(i),
        RuleShape::Mixed => {
            if i % 2 == 0 {
                tag_rule(i / 2)
            } else {
                stack_rule(i / 2)
            }
        }
    }
}

/// A synthetic `n`-rule deny set of the given shape (see [`synthetic_rule`]).
pub fn synthetic_rule_set(n: usize, shape: RuleShape) -> PolicySet {
    (0..n).map(|i| synthetic_rule(i, shape)).collect()
}

/// A small, targeted policy set (the case-study policies).
pub fn case_study_policies() -> PolicySet {
    PolicySet::from_policies(vec![
        Policy::deny(
            EnforcementLevel::Method,
            "Lcom/dropbox/android/taskqueue/UploadTask;->c",
        ),
        Policy::deny(EnforcementLevel::Class, "com/facebook/appevents"),
        Policy::deny(EnforcementLevel::Library, "com/flurry"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let dropbox = analyzed_dropbox();
        assert!(!dropbox.stack_indexes("upload").is_empty());
        assert!(dropbox.tagged_packet("upload").has_context_option());
        assert!(blacklist_policies().len() > 1_000);
        assert_eq!(case_study_policies().len(), 3);
    }
}
