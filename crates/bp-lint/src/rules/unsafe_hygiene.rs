//! Rule `unsafe-hygiene`: `unsafe` is confined to allowlisted modules and
//! every occurrence carries a written justification.
//!
//! The workspace is `forbid(unsafe_code)` everywhere except the data-plane
//! worker runtime (`bp-core/src/runtime.rs`), whose borrowed-batch handoff
//! protocol is the one audited exception.  This rule keeps that boundary
//! honest:
//!
//! * any `unsafe` block / `unsafe fn` / `unsafe impl` outside the
//!   manifest's `[unsafe-allow]` list is a violation — including an
//!   `allow(unsafe_code)` attribute that would *reopen* the door;
//! * inside an allowlisted module, every `unsafe` occurrence must be
//!   covered by a justification: a `// SAFETY:` comment on the same line or
//!   in the contiguous comment/attribute block directly above, or (for
//!   `unsafe fn`) a `# Safety` doc section.

use crate::lexer::SourceModel;
use crate::manifest::Manifest;
use crate::{Finding, RuleId};

/// Scan one file.
pub fn scan(rel_path: &str, model: &SourceModel, manifest: &Manifest) -> Vec<Finding> {
    let mut findings = Vec::new();
    let allowed_file = manifest.allows_unsafe(rel_path);
    for (index, line) in model.lines.iter().enumerate() {
        if !allowed_file && line.code.contains("allow(unsafe_code)") {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: index + 1,
                rule: RuleId::UnsafeHygiene,
                message: format!(
                    "`allow(unsafe_code)` outside the allowlisted modules ({}) — \
                     unsafe code must stay behind the audited runtime boundary",
                    manifest.unsafe_allow.join(", ")
                ),
            });
        }
        if model.word_positions(index, "unsafe").is_empty() {
            continue;
        }
        if !allowed_file {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: index + 1,
                rule: RuleId::UnsafeHygiene,
                message: format!(
                    "`unsafe` outside the allowlisted modules ({})",
                    manifest.unsafe_allow.join(", ")
                ),
            });
            continue;
        }
        if !has_safety_justification(model, index) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: index + 1,
                rule: RuleId::UnsafeHygiene,
                message: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc \
                          section) on or directly above it"
                    .to_string(),
            });
        }
    }
    findings
}

/// Is the `unsafe` on `index` justified — `SAFETY:` on the same line, or
/// `SAFETY:` / `# Safety` within the contiguous comment/attribute block
/// immediately above?
fn has_safety_justification(model: &SourceModel, index: usize) -> bool {
    if is_justification(&model.lines[index].comment) {
        return true;
    }
    let mut at = index;
    while at > 0 {
        at -= 1;
        let line = &model.lines[at];
        let trimmed = line.raw.trim_start();
        let attaches = trimmed.starts_with("//")
            || trimmed.starts_with("#[")
            || trimmed.starts_with("#!")
            || !line.comment.is_empty() && line.is_code_blank();
        if !attaches {
            return false;
        }
        if is_justification(&line.comment) || is_justification(trimmed) {
            return true;
        }
    }
    false
}

/// Does this comment text justify an unsafe occurrence?
fn is_justification(text: &str) -> bool {
    text.contains("SAFETY:") || text.contains("# Safety")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse("[unsafe-allow]\nallowed.rs\n").unwrap()
    }

    fn run(path: &str, text: &str) -> Vec<Finding> {
        scan(path, &SourceModel::parse(text), &manifest())
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let findings = run("other.rs", "fn f() {\n    unsafe { work() };\n}\n");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("outside the allowlisted"));
    }

    #[test]
    fn allow_attribute_outside_allowlist_is_flagged() {
        let findings = run("other.rs", "#[allow(unsafe_code)]\nfn f() {}\n");
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn justified_unsafe_in_allowlisted_file_is_clean() {
        let text =
            "fn f() {\n    // SAFETY: the batch outlives this call.\n    unsafe { work() };\n}\n";
        assert!(run("allowed.rs", text).is_empty());
    }

    #[test]
    fn doc_safety_section_covers_unsafe_fn() {
        let text = "/// Does things.\n///\n/// # Safety\n///\n/// Caller keeps the batch alive.\npub unsafe fn get() {}\n";
        assert!(run("allowed.rs", text).is_empty());
    }

    #[test]
    fn unjustified_unsafe_is_flagged_even_in_allowlisted_file() {
        let findings = run(
            "allowed.rs",
            "fn f() {\n    let x = 1;\n    unsafe { work() };\n}\n",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("SAFETY"));
    }

    #[test]
    fn justification_does_not_leak_across_code() {
        let text = "// SAFETY: only covers the next statement.\nlet a = 1;\nunsafe { work() };\n";
        assert_eq!(run("allowed.rs", text).len(), 1);
    }

    #[test]
    fn attributes_between_comment_and_unsafe_are_transparent() {
        let text = "// SAFETY: justified.\n#[inline]\nunsafe fn g() {}\n";
        assert!(run("allowed.rs", text).is_empty());
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_ignored() {
        let text = "fn f() {\n    let s = \"unsafe\"; // unsafe in comment\n}\n";
        assert!(run("other.rs", text).is_empty());
    }
}
