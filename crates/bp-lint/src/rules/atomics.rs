//! Rule `atomics-protocol`: every named atomic field has a declared
//! publish/consume protocol, and `Ordering::Relaxed` is only used where
//! that protocol permits it.
//!
//! The data plane's correctness rests on a handful of atomics: the SPSC
//! ring indexes (`head` / `tail`), the batch completion countdown
//! (`pending`), the hot-swap generation counter (`tables_generation`) and
//! the flow-cache epoch source.  Each gets an entry in
//! `invariants.manifest` declaring how writers publish, how readers
//! consume, and which relaxed operations are sound (with a mandatory note
//! saying why).  The rule then enforces three things over the scoped crate:
//!
//! * every atomic **field or static declaration** must have a manifest
//!   entry — new atomics cannot land without a written protocol;
//! * every manifest entry must match an atomic declaration in its scope —
//!   a deleted atomic cannot leave its protocol line behind;
//! * every `Ordering::Relaxed` load/store/RMW whose receiver is a declared
//!   field is checked against that field's relaxed policy — weakening a
//!   publish to `Relaxed` on, say, `tail` becomes a CI failure instead of
//!   a heisenbug.

use crate::lexer::{ident_ending_at, word_positions, SourceModel};
use crate::manifest::{AtomicOpKind, Manifest};
use crate::{Finding, RuleId};

/// An entered `struct { … }` block (fields live at `depth`).
struct StructContext {
    depth: usize,
}

/// Scan one file of the atomics scope.
pub fn scan(rel_path: &str, model: &SourceModel, manifest: &Manifest) -> Vec<Finding> {
    let mut findings = Vec::new();
    scan_declarations(rel_path, model, manifest, &mut findings);
    scan_relaxed_ops(rel_path, model, manifest, &mut findings);
    findings
}

/// Every atomic field/static declaration in the file: `(line index, name)`.
pub fn declarations(model: &SourceModel) -> Vec<(usize, String)> {
    let mut declared = Vec::new();
    let mut structs: Vec<StructContext> = Vec::new();
    for (index, line) in model.lines.iter().enumerate() {
        structs.retain(|context| context.depth <= line.depth);
        if line.is_code_blank() {
            continue;
        }
        let code = line.code.trim();
        let name = if let Some(name) = static_declaration(code) {
            Some(name)
        } else if structs
            .last()
            .is_some_and(|context| context.depth == line.depth)
        {
            field_declaration(code)
        } else {
            None
        };
        if let Some(name) = name {
            if is_atomic_type(code) {
                declared.push((index, name));
            }
        }
        // Enter a struct block opened on this line (after field handling, so
        // a one-line `struct S { x: AtomicU64 }` still checks its fields —
        // rare enough that we accept missing that shape).
        if !word_positions(code, "struct").is_empty() && code.contains('{') {
            structs.push(StructContext {
                depth: line.depth + 1,
            });
        }
    }
    declared
}

/// Flag atomic field/static declarations missing a manifest protocol.
fn scan_declarations(
    rel_path: &str,
    model: &SourceModel,
    manifest: &Manifest,
    findings: &mut Vec<Finding>,
) {
    for (index, name) in declarations(model) {
        if !manifest.atomics.contains_key(&name) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: index + 1,
                rule: RuleId::AtomicsProtocol,
                message: format!(
                    "atomic `{name}` has no declared publish/consume protocol — \
                     add an entry to the [atomics] section of invariants.manifest"
                ),
            });
        }
    }
}

/// The other direction: flag manifest entries that match no atomic
/// declaration in their scope.  `declared` is every `(file, name)` pair
/// [`declarations`] found across the linted tree; an entry whose atomic was
/// deleted or renamed would otherwise stay behind, silently vouching for a
/// protocol nothing follows.
pub fn stale_entries(
    manifest_path: &str,
    manifest: &Manifest,
    declared: &[(String, String)],
) -> Vec<Finding> {
    manifest
        .atomics
        .iter()
        .filter(|(name, protocol)| {
            !declared.iter().any(|(file, declared_name)| {
                declared_name == *name
                    && protocol
                        .scopes
                        .iter()
                        .any(|scope| crate::in_scope(file, scope))
            })
        })
        .map(|(name, protocol)| Finding {
            file: manifest_path.to_string(),
            line: protocol.line,
            rule: RuleId::AtomicsProtocol,
            message: format!(
                "[atomics] entry `{name}` matches no atomic field or static under {} — \
                 delete the entry or fix its name",
                protocol.scopes.join(", ")
            ),
        })
        .collect()
}

/// Flag relaxed operations that the field's declared protocol forbids.
fn scan_relaxed_ops(
    rel_path: &str,
    model: &SourceModel,
    manifest: &Manifest,
    findings: &mut Vec<Finding>,
) {
    for (index, line) in model.lines.iter().enumerate() {
        if !line.code.contains("Ordering::Relaxed") {
            continue;
        }
        let Some((receiver, kind)) = relaxed_operation(model, index) else {
            continue;
        };
        let Some(protocol) = manifest.atomics.get(&receiver) else {
            // Receiver is not a declared field (a local, a test counter):
            // the declaration check owns naming; nothing to gate here.
            continue;
        };
        if !protocol.relaxed.permits(kind) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: index + 1,
                rule: RuleId::AtomicsProtocol,
                message: format!(
                    "relaxed {kind} on `{receiver}` — its declared protocol is \
                     publish={} consume={} relaxed={} ({})",
                    protocol.publish.join(","),
                    protocol.consume.join(","),
                    protocol.relaxed,
                    protocol.note
                ),
            });
        }
    }
}

/// The atomic operation a line's `Ordering::Relaxed` belongs to: the
/// receiver field name and the operation kind.  The receiver may sit on the
/// previous line (`self.now_micros`<newline>`.store(…, Relaxed)`).
fn relaxed_operation(model: &SourceModel, index: usize) -> Option<(String, AtomicOpKind)> {
    let code = &model.lines[index].code;
    let relaxed_at = code.find("Ordering::Relaxed")?;
    let mut best: Option<(usize, usize, AtomicOpKind)> = None;
    for (method, kind) in [
        (".load(", AtomicOpKind::Load),
        (".store(", AtomicOpKind::Store),
        (".swap(", AtomicOpKind::Rmw),
        (".fetch_add(", AtomicOpKind::Rmw),
        (".fetch_sub(", AtomicOpKind::Rmw),
        (".fetch_and(", AtomicOpKind::Rmw),
        (".fetch_or(", AtomicOpKind::Rmw),
        (".fetch_xor(", AtomicOpKind::Rmw),
        (".fetch_update(", AtomicOpKind::Rmw),
        (".compare_exchange(", AtomicOpKind::Rmw),
        (".compare_exchange_weak(", AtomicOpKind::Rmw),
    ] {
        let mut offset = 0;
        while let Some(position) = code[offset..].find(method) {
            let at = offset + position;
            if at < relaxed_at && best.is_none_or(|(b, _, _)| at > b) {
                best = Some((at, method.len(), kind));
            }
            offset = at + method.len();
        }
    }
    if let Some((at, _, kind)) = best {
        let char_at = code[..at].chars().count();
        let receiver = ident_ending_at(code, char_at).or_else(|| {
            // `.store(` at the start of a wrapped line: the receiver is the
            // trailing identifier of the previous code line.
            trailing_ident(model, index)
        })?;
        return Some((receiver, kind));
    }
    // `Ordering::Relaxed` with no operation on this line: an argument line
    // of a call wrapped after the method; look one line up.
    if index > 0 {
        let previous = &model.lines[index - 1].code;
        for (method, kind) in [
            (".load(", AtomicOpKind::Load),
            (".store(", AtomicOpKind::Store),
            (".fetch_add(", AtomicOpKind::Rmw),
            (".fetch_sub(", AtomicOpKind::Rmw),
        ] {
            if let Some(at) = previous.rfind(method) {
                let char_at = previous[..at].chars().count();
                let receiver = ident_ending_at(previous, char_at)
                    .or_else(|| trailing_ident(model, index - 1))?;
                return Some((receiver, kind));
            }
        }
    }
    None
}

/// The identifier a wrapped method call's previous line ends with.
fn trailing_ident(model: &SourceModel, index: usize) -> Option<String> {
    let previous = model.lines.get(index.checked_sub(1)?)?;
    let trimmed = previous.code.trim_end();
    ident_ending_at(trimmed, trimmed.chars().count())
}

/// `static NAME: AtomicU64 = …` → `NAME`.
fn static_declaration(code: &str) -> Option<String> {
    let rest = code.strip_prefix("pub ").unwrap_or(code);
    let rest = rest
        .strip_prefix("pub(crate) ")
        .unwrap_or(rest)
        .strip_prefix("static ")?;
    let name: String = rest
        .chars()
        .take_while(|c| crate::lexer::is_ident_char(*c))
        .collect();
    (!name.is_empty() && rest[name.len()..].trim_start().starts_with(':')).then_some(name)
}

/// `name: AtomicU64,` (with optional visibility) → `name`.
fn field_declaration(code: &str) -> Option<String> {
    let mut rest = code;
    for prefix in ["pub(crate) ", "pub(super) ", "pub "] {
        rest = rest.strip_prefix(prefix).unwrap_or(rest);
    }
    let name: String = rest
        .chars()
        .take_while(|c| crate::lexer::is_ident_char(*c))
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    rest[name.len()..]
        .trim_start()
        .starts_with(':')
        .then_some(name)
}

/// Does this declaration line name a std atomic type?
fn is_atomic_type(code: &str) -> bool {
    [
        "AtomicBool",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
        "AtomicIsize",
        "AtomicPtr",
    ]
    .iter()
    .any(|atomic| !word_positions(code, atomic).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse(
            "[atomics]\nscope = .\n\
             head = publish=Release consume=Acquire relaxed=load -- producer-side index reads\n\
             pending = publish=AcqRel consume=Acquire relaxed=none -- completion countdown\n\
             hits = publish=Relaxed consume=Relaxed relaxed=all -- monotonic counter\n",
        )
        .unwrap()
    }

    fn run(text: &str) -> Vec<Finding> {
        scan("test.rs", &SourceModel::parse(text), &manifest())
    }

    #[test]
    fn undeclared_atomic_field_is_flagged() {
        let findings = run("struct Ring {\n    generation: AtomicU64,\n}\n");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("generation"));
    }

    #[test]
    fn declared_fields_and_non_atomics_pass() {
        let findings = run("struct Ring {\n    head: AtomicUsize,\n    label: String,\n}\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn undeclared_static_is_flagged() {
        let findings = run("static NEXT: AtomicU64 = AtomicU64::new(1);\n");
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn permitted_relaxed_load_passes() {
        assert!(run("fn f() {\n    let h = ring.head.load(Ordering::Relaxed);\n}\n").is_empty());
    }

    #[test]
    fn forbidden_relaxed_store_is_flagged() {
        let findings = run("fn f() {\n    ring.head.store(1, Ordering::Relaxed);\n}\n");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("relaxed store on `head`"));
    }

    #[test]
    fn forbidden_relaxed_rmw_is_flagged() {
        let findings = run("fn f() {\n    sync.pending.fetch_sub(1, Ordering::Relaxed);\n}\n");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("read-modify-write"));
    }

    #[test]
    fn counters_with_relaxed_all_pass() {
        assert!(run("fn f() {\n    stats.hits.fetch_add(1, Ordering::Relaxed);\n}\n").is_empty());
    }

    #[test]
    fn wrapped_receiver_on_previous_line_is_resolved() {
        let findings =
            run("fn f() {\n    self.pending\n        .store(1, Ordering::Relaxed);\n}\n");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`pending`"));
    }

    #[test]
    fn locals_and_unknown_receivers_are_ignored() {
        assert!(run("fn f() {\n    counter.load(Ordering::Relaxed);\n}\n").is_empty());
    }

    #[test]
    fn function_parameters_are_not_field_declarations() {
        let findings = run("fn worker(\n    live: Arc<AtomicUsize>,\n) {\n}\n");
        assert!(findings.is_empty(), "{findings:?}");
    }
}
