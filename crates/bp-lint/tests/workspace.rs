//! The gate CI enforces: the live workspace lints clean.  Any change that
//! spreads `unsafe`, weakens a declared atomic protocol or defaults a
//! verdict to accept fails this test.

use std::path::Path;

#[test]
fn live_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = bp_lint::lint_workspace(&root).expect("manifest loads and tree is readable");
    assert!(
        report.findings.is_empty(),
        "bp-lint found violations in the live tree:\n{}",
        report
            .findings
            .iter()
            .map(bp_lint::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // A broken walk that silently scanned nothing would also "pass"; pin a
    // floor well below the real count (~120) but far above zero.
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — did the workspace walk break?",
        report.files_scanned
    );
}
