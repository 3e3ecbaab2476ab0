//! Rule self-tests: every rule catches its known-bad fixture and stays
//! quiet on its known-good twin, and the CLI exit codes match.

use std::path::{Path, PathBuf};

use bp_lint::manifest::Manifest;
use bp_lint::{lint_file, lint_sources, Finding, RuleId};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn manifest() -> Manifest {
    Manifest::load(&bp_lint::manifest_path(&workspace_root())).expect("checked-in manifest parses")
}

/// Lint a fixture file as if it lived at `as_path` in the workspace.
fn lint_fixture(name: &str, as_path: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    lint_file(as_path, &text, &manifest())
}

fn count(findings: &[Finding], rule: RuleId) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn unsafe_fixtures() {
    let good = lint_fixture("unsafe_good.rs", "crates/bp-core/src/runtime.rs");
    assert!(good.is_empty(), "{good:#?}");
    // Outside the allowlist both the attribute and the occurrence are hits.
    let outside = lint_fixture("unsafe_bad.rs", "crates/bp-core/src/enforcer.rs");
    assert_eq!(count(&outside, RuleId::UnsafeHygiene), 2, "{outside:#?}");
    // Inside the allowlist the same text still lacks a SAFETY comment.
    let inside = lint_fixture("unsafe_bad.rs", "crates/bp-core/src/runtime.rs");
    assert_eq!(count(&inside, RuleId::UnsafeHygiene), 1, "{inside:#?}");
    assert!(inside[0].message.contains("SAFETY"));
}

#[test]
fn atomics_fixtures() {
    let good = lint_fixture("atomics_good.rs", "crates/bp-core/src/good.rs");
    assert!(good.is_empty(), "{good:#?}");
    let bad = lint_fixture("atomics_bad.rs", "crates/bp-core/src/bad.rs");
    // Undeclared field + three forbidden relaxed operations.
    assert_eq!(count(&bad, RuleId::AtomicsProtocol), 4, "{bad:#?}");
    assert!(bad.iter().any(|f| f.message.contains("sneaky_epoch")));
    assert!(bad
        .iter()
        .any(|f| f.message.contains("relaxed store on `tail`")));
    assert!(bad.iter().any(|f| f.message.contains("`pending`")));
    assert!(bad
        .iter()
        .any(|f| f.message.contains("`tables_generation`")));
}

/// The seqlock stamp pattern from `bp-core/src/telemetry.rs`: the good
/// twin follows the declared `seq`/`words` protocol exactly (fence-bracketed
/// relaxed payload stores, Relaxed revalidation load); the bad twin smuggles
/// in an undeclared stamp field and relaxed RMWs on `seq`.
#[test]
fn seqlock_fixtures() {
    let good = lint_fixture("seqlock_good.rs", "crates/bp-core/src/telemetry.rs");
    assert!(good.is_empty(), "{good:#?}");
    let bad = lint_fixture("seqlock_bad.rs", "crates/bp-core/src/telemetry.rs");
    // Undeclared `stamp` field + two forbidden relaxed RMWs on `seq`.
    assert_eq!(count(&bad, RuleId::AtomicsProtocol), 3, "{bad:#?}");
    assert!(bad.iter().any(|f| f.message.contains("stamp")));
    assert_eq!(
        bad.iter()
            .filter(|f| f.message.contains("read-modify-write") && f.message.contains("`seq`"))
            .count(),
        2,
        "{bad:#?}"
    );
}

/// The manifest is checked in both directions: the good twin declares every
/// atomic the manifest names; the bad twin has deleted `retired_lane`, so its
/// `[atomics]` line vouches for a protocol nothing follows and is flagged at
/// its own manifest line.  The same name declared outside the entry's scope
/// does not count.
#[test]
fn stale_manifest_entry_fixtures() {
    const MANIFEST: &str = "crates/bp-lint/invariants.manifest";
    let manifest = Manifest::parse(
        "[atomics]\nscope = crates/bp-core\n\
         head = publish=Release consume=Acquire relaxed=load -- ring index\n\
         retired_lane = publish=Relaxed consume=Relaxed relaxed=all -- stats counter\n",
    )
    .expect("fixture manifest parses");
    let fixture = |name: &str| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let lint = |name: &str, as_path: &str| {
        lint_sources(MANIFEST, &manifest, &[(as_path.to_string(), fixture(name))])
    };

    let good = lint("manifest_stale_good.rs", "crates/bp-core/src/stats.rs");
    assert!(good.is_empty(), "{good:#?}");

    let bad = lint("manifest_stale_bad.rs", "crates/bp-core/src/stats.rs");
    assert_eq!(count(&bad, RuleId::AtomicsProtocol), 1, "{bad:#?}");
    assert_eq!((bad[0].file.as_str(), bad[0].line), (MANIFEST, 4));
    assert!(bad[0].message.contains("`retired_lane`"), "{bad:#?}");

    let elsewhere = lint("manifest_stale_good.rs", "crates/bp-obs/src/collector.rs");
    assert_eq!(
        count(&elsewhere, RuleId::AtomicsProtocol),
        2,
        "{elsewhere:#?}"
    );
}

/// The bp-obs scope line works: the collector's declared `stop` flag is
/// governed there, and an undeclared atomic in bp-obs is flagged.
#[test]
fn bp_obs_scope_governs_collector_atomics() {
    let bad = lint_fixture("atomics_bad.rs", "crates/bp-obs/src/collector.rs");
    assert!(
        bad.iter().any(|f| f.message.contains("sneaky_epoch")),
        "{bad:#?}"
    );
}

#[test]
fn fail_closed_fixtures() {
    let good = lint_fixture("fail_closed_good.rs", "crates/bp-core/src/good.rs");
    assert!(good.is_empty(), "{good:#?}");
    let bad = lint_fixture("fail_closed_bad.rs", "crates/bp-core/src/bad.rs");
    assert_eq!(count(&bad, RuleId::FailClosed), 3, "{bad:#?}");
}

#[test]
fn fail_closed_wire_fixtures() {
    let good = lint_fixture("fail_closed_wire_good.rs", "crates/bp-core/src/wire.rs");
    assert!(good.is_empty(), "{good:#?}");
    let bad = lint_fixture("fail_closed_wire_bad.rs", "crates/bp-core/src/wire.rs");
    // Same-line `Err(_)` accept + typed `WireError` accept + continuation-line accept.
    assert_eq!(count(&bad, RuleId::FailClosed), 3, "{bad:#?}");
    assert!(bad.iter().all(|f| f.message.contains("`Err(…)` match arm")));
}

/// The PR 10 fault-path shapes: panic recovery after `catch_unwind` that
/// backfills a panicked partition with accepts is caught; the fail-closed
/// twin (runtime-fault drops, one annotated probe accept) stays clean.
#[test]
fn fault_path_fixtures() {
    let good = lint_fixture("fault_path_good.rs", "crates/bp-core/src/runtime.rs");
    assert!(good.is_empty(), "{good:#?}");
    let bad = lint_fixture("fault_path_bad.rs", "crates/bp-core/src/runtime.rs");
    // One `is_err()` recovery block + one block-bodied `Err` arm.
    assert_eq!(count(&bad, RuleId::FailClosed), 2, "{bad:#?}");
    assert!(bad
        .iter()
        .all(|f| f.message.contains("fault-path `catch_unwind`")));
}

/// Fixture rules are scoped: the same bad atomics text outside the
/// manifest's `scope =` prefixes is not subject to the rule.
#[test]
fn core_scoped_rules_ignore_other_crates() {
    let bad = lint_fixture("atomics_bad.rs", "crates/bp-cli/src/main.rs");
    assert_eq!(count(&bad, RuleId::AtomicsProtocol), 0, "{bad:#?}");
}

/// CLI contract: exit 0 on a clean tree, 1 on a tree with a violation,
/// findings on stdout.
#[test]
fn cli_exit_codes_follow_findings() {
    use std::process::Command;

    let scratch = std::env::temp_dir().join(format!("bp-lint-selftest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join("crates/bp-lint")).unwrap();
    std::fs::create_dir_all(scratch.join("crates/bp-core/src")).unwrap();
    // The scratch tree holds one file, so it gets its own manifest: the
    // checked-in one names atomics this tree does not declare.
    std::fs::write(
        bp_lint::manifest_path(&scratch),
        "[unsafe-allow]\ncrates/bp-core/src/runtime.rs\n",
    )
    .unwrap();

    let good = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/unsafe_good.rs");
    std::fs::copy(&good, scratch.join("crates/bp-core/src/runtime.rs")).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_bp-lint"))
        .arg(&scratch)
        .output()
        .expect("run bp-lint");
    assert_eq!(status.status.code(), Some(0), "{status:?}");

    let bad = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/unsafe_bad.rs");
    std::fs::copy(&bad, scratch.join("crates/bp-core/src/runtime.rs")).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_bp-lint"))
        .arg(&scratch)
        .arg("--json")
        .output()
        .expect("run bp-lint");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"rule\":\"unsafe-hygiene\""), "{stdout}");

    let _ = std::fs::remove_dir_all(&scratch);
}
