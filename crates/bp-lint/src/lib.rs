//! bp-lint: a workspace-local static analyzer for BorderPatrol's data
//! plane invariants.
//!
//! The enforcement plane's correctness depends on properties `rustc` cannot
//! see: the confinement and justification of `unsafe`, the
//! publish/consume protocol of each atomic field, and the fail-closed
//! verdict posture.  Each is an invariant that
//! was bought with an incident or an audit; this crate turns them into
//! machine-checked rules so they cannot silently rot.
//!
//! The analyzer is deliberately dependency-free — no `syn`, no filesystem
//! walker crates — because it gates CI and must build from a cold cache in
//! seconds.  It works from a line model (see [`lexer`]) rather than a full
//! AST: precise enough for the three rules, simple enough to audit by
//! reading one file.
//!
//! Entry points: [`lint_workspace`] (what the CLI runs), [`lint_sources`]
//! (the same whole-tree pass over in-memory text) and [`lint_file`] (what
//! the self-tests drive against single fixtures).
//!
//! Findings for the `fail-closed` rule can be suppressed at sites where
//! the permissive default *is* the contract, with an inline annotation
//! carrying a mandatory reason:
//!
//! ```text
//! // bp-lint: allow(fail-closed) sanitizer mutates packets, never filters
//! ```
//!
//! Unsafe-boundary and atomics-protocol findings are not suppressible:
//! the allowlist and the manifest are where those exceptions are declared.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod manifest;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::SourceModel;
use manifest::Manifest;

/// Identifies the rule that produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleId {
    /// `unsafe` confined to allowlisted modules, always justified.
    UnsafeHygiene,
    /// Named atomics carry declared protocols; `Relaxed` only where permitted.
    AtomicsProtocol,
    /// Verdict producers must not default to accept.
    FailClosed,
}

impl RuleId {
    /// The stable machine-readable rule name.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::UnsafeHygiene => "unsafe-hygiene",
            RuleId::AtomicsProtocol => "atomics-protocol",
            RuleId::FailClosed => "fail-closed",
        }
    }

    /// Severity of the rule's findings.  Every current rule guards a
    /// memory-safety, visibility or security posture, so all are errors; the
    /// field exists so the output format will not change if an advisory
    /// rule is ever added.
    pub fn severity(self) -> &'static str {
        "error"
    }

    /// May findings from this rule be silenced by an inline
    /// `// bp-lint: allow(<rule>) <reason>` annotation?
    fn suppressible(self) -> bool {
        matches!(self, RuleId::FailClosed)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// One violation: where, which rule, and what is wrong.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The human-readable one-line form: `file:line: [rule/severity] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}/{}] {}",
            self.file,
            self.line,
            self.rule.slug(),
            self.rule.severity(),
            self.message
        )
    }

    /// The finding as one JSON object (the `--json` output is one object
    /// per line, so downstream tooling can stream it).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.file),
            self.line,
            self.rule.slug(),
            self.rule.severity(),
            json_escape(&self.message)
        )
    }
}

/// Escape a string for embedding in a JSON literal.
fn json_escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\t' => escaped.push_str("\\t"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped
}

/// The result of linting a workspace.
#[derive(Debug)]
pub struct Report {
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// All findings, sorted by file then line.
    pub findings: Vec<Finding>,
}

/// The checked-in manifest location, relative to the workspace root.
pub fn manifest_path(root: &Path) -> PathBuf {
    root.join("crates")
        .join("bp-lint")
        .join("invariants.manifest")
}

/// Lint one file's text.  `rel_path` is the workspace-relative path used
/// for scoping and reporting.
pub fn lint_file(rel_path: &str, text: &str, manifest: &Manifest) -> Vec<Finding> {
    lint_model(rel_path, &SourceModel::parse(text), manifest)
}

/// [`lint_file`] over an already-lexed file.
fn lint_model(rel_path: &str, model: &SourceModel, manifest: &Manifest) -> Vec<Finding> {
    let mut findings = rules::unsafe_hygiene::scan(rel_path, model, manifest);
    if manifest
        .atomics_scopes
        .iter()
        .any(|scope| in_scope(rel_path, scope))
    {
        findings.extend(rules::atomics::scan(rel_path, model, manifest));
    }
    findings.extend(rules::fail_closed::scan(rel_path, model));
    findings.retain(|finding| !suppressed(model, finding));
    findings
}

/// Lint every `.rs` file under `root` (skipping `target/`, fixture trees
/// and hidden directories) against the checked-in manifest.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let manifest = Manifest::load(&manifest_path(root))?;
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let text = std::fs::read_to_string(path)
            .map_err(|error| format!("read {}: {error}", path.display()))?;
        sources.push((relative(root, path), text));
    }
    Ok(Report {
        files_scanned: files.len(),
        findings: lint_sources(&relative(root, &manifest_path(root)), &manifest, &sources),
    })
}

/// Lint a whole tree given as `(workspace-relative path, text)` pairs: the
/// per-file rules of [`lint_file`] plus the check that needs every file —
/// `[atomics]` manifest entries (reported at `manifest_rel_path`) whose
/// atomic no longer exists.  Findings come back sorted by file then line.
pub fn lint_sources(
    manifest_rel_path: &str,
    manifest: &Manifest,
    sources: &[(String, String)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut declared_atomics = Vec::new();
    for (rel, text) in sources {
        let model = SourceModel::parse(text);
        findings.extend(lint_model(rel, &model, manifest));
        declared_atomics.extend(
            rules::atomics::declarations(&model)
                .into_iter()
                .map(|(_, name)| (rel.clone(), name)),
        );
    }
    findings.extend(rules::atomics::stale_entries(
        manifest_rel_path,
        manifest,
        &declared_atomics,
    ));
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    findings
}

/// Is `rel_path` inside the `/`-separated `scope` prefix?  An empty scope
/// means "everywhere".
fn in_scope(rel_path: &str, scope: &str) -> bool {
    scope.is_empty()
        || rel_path == scope
        || rel_path
            .strip_prefix(scope)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Is this finding silenced by an inline annotation on its line or the
/// line directly above?  The annotation must carry a reason.
fn suppressed(model: &SourceModel, finding: &Finding) -> bool {
    if !finding.rule.suppressible() {
        return false;
    }
    let needle = format!("bp-lint: allow({})", finding.rule.slug());
    let same_line = finding.line.checked_sub(1);
    let line_above = finding.line.checked_sub(2);
    [same_line, line_above]
        .into_iter()
        .flatten()
        .filter_map(|index| model.lines.get(index))
        .any(|line| {
            line.comment
                .find(&needle)
                .is_some_and(|at| !line.comment[at + needle.len()..].trim().is_empty())
        })
}

/// Recursively collect `.rs` files, skipping `target`, `fixtures` and
/// hidden directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|error| format!("read dir {}: {error}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|error| format!("read dir {}: {error}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        let kind = entry
            .file_type()
            .map_err(|error| format!("stat {}: {error}", path.display()))?;
        if kind.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated form of `path`.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|component| component.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse(
            "[unsafe-allow]\ncrates/bp-core/src/runtime.rs\n\
             [atomics]\nscope = crates/bp-core\n\
             head = publish=Release consume=Acquire relaxed=load -- index\n",
        )
        .unwrap()
    }

    fn lint(rel_path: &str, text: &str) -> Vec<Finding> {
        lint_file(rel_path, text, &manifest())
    }

    #[test]
    fn scoping_limits_the_atomics_rule_to_bp_core() {
        let text = "fn f() {\n    x.head.store(1, Ordering::Relaxed);\n}\n";
        let inside = lint("crates/bp-core/src/enforcer.rs", text);
        assert_eq!(inside.len(), 1, "{inside:?}");
        let outside = lint("crates/bp-cli/src/main.rs", text);
        assert!(outside.is_empty(), "{outside:?}");
    }

    #[test]
    fn scope_prefix_must_match_whole_components() {
        assert!(in_scope("crates/bp-core/src/lib.rs", "crates/bp-core"));
        assert!(!in_scope(
            "crates/bp-core-extras/src/lib.rs",
            "crates/bp-core"
        ));
        assert!(in_scope("anything/at/all.rs", ""));
    }

    #[test]
    fn fail_closed_finding_is_suppressible_with_reason() {
        let annotated = "// bp-lint: allow(fail-closed) sanitizer never filters\nverdicts.resize(n, Verdict::Accept);\n";
        assert!(lint("crates/bp-core/src/sanitizer.rs", annotated).is_empty());
        let same_line =
            "verdicts.resize(n, Verdict::Accept); // bp-lint: allow(fail-closed) contract\n";
        assert!(lint("crates/bp-core/src/sanitizer.rs", same_line).is_empty());
    }

    #[test]
    fn annotation_without_reason_does_not_suppress() {
        let bare = "// bp-lint: allow(fail-closed)\nverdicts.resize(n, Verdict::Accept);\n";
        assert_eq!(lint("crates/bp-core/src/sanitizer.rs", bare).len(), 1);
    }

    #[test]
    fn atomics_findings_are_not_suppressible() {
        let text = "fn f() {\n    // bp-lint: allow(atomics-protocol) please\n    x.head.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(lint("crates/bp-core/src/enforcer.rs", text).len(), 1);
    }

    #[test]
    fn json_output_escapes_specials() {
        let finding = Finding {
            file: "a.rs".into(),
            line: 3,
            rule: RuleId::FailClosed,
            message: "say \"no\"\\".into(),
        };
        assert_eq!(
            finding.to_json(),
            "{\"file\":\"a.rs\",\"line\":3,\"rule\":\"fail-closed\",\"severity\":\"error\",\"message\":\"say \\\"no\\\"\\\\\"}"
        );
    }
}
