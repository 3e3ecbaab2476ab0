//! The checked-in invariants manifest (`crates/bp-lint/invariants.manifest`).
//!
//! The manifest is the single declaration point for the invariants the
//! rules enforce: the modules allowed to contain `unsafe`, and the
//! publish/consume protocol of every named atomic field.  It is a plain line-based format (`#` comments, `[section]`
//! headers) so the linter stays dependency-free.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Which relaxed-ordering operations a declared atomic field permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelaxedPolicy {
    /// No `Ordering::Relaxed` operation is ever sound on this field.
    None,
    /// Relaxed loads only (e.g. an endpoint reading its own ring index).
    Load,
    /// Relaxed stores only.
    Store,
    /// Relaxed loads and stores, but not read-modify-write.
    LoadStore,
    /// Any relaxed operation (counters whose reads need no synchronization).
    All,
}

impl RelaxedPolicy {
    /// Is a relaxed operation of `kind` permitted?
    pub fn permits(self, kind: AtomicOpKind) -> bool {
        matches!(
            (self, kind),
            (RelaxedPolicy::All, _)
                | (
                    RelaxedPolicy::Load | RelaxedPolicy::LoadStore,
                    AtomicOpKind::Load
                )
                | (
                    RelaxedPolicy::Store | RelaxedPolicy::LoadStore,
                    AtomicOpKind::Store
                )
        )
    }
}

impl fmt::Display for RelaxedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            RelaxedPolicy::None => "none",
            RelaxedPolicy::Load => "load",
            RelaxedPolicy::Store => "store",
            RelaxedPolicy::LoadStore => "load,store",
            RelaxedPolicy::All => "all",
        };
        f.write_str(text)
    }
}

/// The shape of an atomic access, as classified from the method name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOpKind {
    /// `load`.
    Load,
    /// `store`.
    Store,
    /// `fetch_*`, `swap`, `compare_exchange*` — read-modify-write.
    Rmw,
}

impl fmt::Display for AtomicOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AtomicOpKind::Load => "load",
            AtomicOpKind::Store => "store",
            AtomicOpKind::Rmw => "read-modify-write",
        })
    }
}

/// Declared protocol of one named atomic field.
#[derive(Debug, Clone)]
pub struct AtomicProtocol {
    /// Ordering(s) writers publish with (documentation, validated to parse).
    pub publish: Vec<String>,
    /// Ordering(s) readers consume with (documentation, validated to parse).
    pub consume: Vec<String>,
    /// Which relaxed operations the protocol permits.
    pub relaxed: RelaxedPolicy,
    /// Why the protocol is sound — required, so the manifest cannot grow
    /// entries nobody can justify.
    pub note: String,
    /// The path prefixes of the `scope =` line the entry sits under: where
    /// the atomic it describes must be declared.
    pub scopes: Vec<String>,
    /// 1-based manifest line of the entry.
    pub line: usize,
}

/// Parsed manifest contents.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workspace-relative files allowed to contain `unsafe`.
    pub unsafe_allow: Vec<String>,
    /// Path prefixes the atomics rule applies to.  Multiple `scope =` lines
    /// (or whitespace-separated values on one line) accumulate, so the
    /// manifest can govern atomics in more than one crate (`bp-core`'s data
    /// plane and `bp-obs`'s collector both carry declared atomics).
    pub atomics_scopes: Vec<String>,
    /// Per-field declared protocols, keyed by field name.
    pub atomics: BTreeMap<String, AtomicProtocol>,
}

/// A manifest syntax error with its line number.
#[derive(Debug)]
pub struct ManifestError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

impl Manifest {
    /// Load and parse the manifest at `path`.
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|error| format!("read {}: {error}", path.display()))?;
        Manifest::parse(&text).map_err(|error| format!("{}: {error}", path.display()))
    }

    /// Parse manifest text.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut unsafe_allow = Vec::new();
        let mut atomics_scopes = Vec::new();
        let mut atomics = BTreeMap::new();
        let mut entry_scopes: Vec<String> = Vec::new();
        let mut section = String::new();
        for (index, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let number = index + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.to_string();
                continue;
            }
            let fail = |message: String| ManifestError {
                line: number,
                message,
            };
            match section.as_str() {
                "unsafe-allow" => unsafe_allow.push(line.to_string()),
                "atomics" => {
                    let (key, value) = split_assignment(line).ok_or_else(|| {
                        fail(format!("expected `field = protocol`, got `{line}`"))
                    })?;
                    if key == "scope" {
                        entry_scopes = value.split_whitespace().map(str::to_string).collect();
                        atomics_scopes.extend(entry_scopes.iter().cloned());
                        continue;
                    }
                    let protocol = parse_protocol(value, &entry_scopes, number).map_err(fail)?;
                    if atomics.insert(key.to_string(), protocol).is_some() {
                        return Err(ManifestError {
                            line: number,
                            message: format!("duplicate atomic field `{key}`"),
                        });
                    }
                }
                "" => {
                    return Err(fail(format!("entry `{line}` before any [section]")));
                }
                other => {
                    return Err(fail(format!("unknown section [{other}]")));
                }
            }
        }
        Ok(Manifest {
            unsafe_allow,
            atomics_scopes,
            atomics,
        })
    }

    /// Is the workspace-relative `path` allowed to contain `unsafe`?
    pub fn allows_unsafe(&self, path: &str) -> bool {
        self.unsafe_allow.iter().any(|allowed| allowed == path)
    }
}

/// Split `key = value` on the first `=`.
fn split_assignment(line: &str) -> Option<(&str, &str)> {
    let (key, value) = line.split_once('=')?;
    Some((key.trim(), value.trim()))
}

/// Parse `publish=<o>,… consume=<o>,… relaxed=<policy> -- <note>`, found on
/// manifest line `line` under the `scope =` prefixes `scopes`.
fn parse_protocol(value: &str, scopes: &[String], line: usize) -> Result<AtomicProtocol, String> {
    let (spec, note) = value
        .split_once("--")
        .ok_or_else(|| format!("protocol `{value}` is missing a `-- <why it is sound>` note"))?;
    let note = note.trim().to_string();
    if note.is_empty() {
        return Err("protocol note must not be empty".into());
    }
    let mut publish = Vec::new();
    let mut consume = Vec::new();
    let mut relaxed = None;
    for part in spec.split_whitespace() {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("expected `key=value`, got `{part}`"))?;
        match key {
            "publish" => publish = parse_orderings(value)?,
            "consume" => consume = parse_orderings(value)?,
            "relaxed" => {
                relaxed = Some(match value {
                    "none" => RelaxedPolicy::None,
                    "load" => RelaxedPolicy::Load,
                    "store" => RelaxedPolicy::Store,
                    "load,store" | "store,load" => RelaxedPolicy::LoadStore,
                    "all" => RelaxedPolicy::All,
                    other => return Err(format!("unknown relaxed policy `{other}`")),
                });
            }
            other => return Err(format!("unknown protocol key `{other}`")),
        }
    }
    let relaxed = relaxed.ok_or("protocol must declare a relaxed=<policy>")?;
    if publish.is_empty() || consume.is_empty() {
        return Err("protocol must declare publish= and consume= orderings".into());
    }
    Ok(AtomicProtocol {
        publish,
        consume,
        relaxed,
        note,
        scopes: scopes.to_vec(),
        line,
    })
}

/// Parse a comma-separated list of memory orderings.
fn parse_orderings(value: &str) -> Result<Vec<String>, String> {
    value
        .split(',')
        .map(|ordering| {
            if ORDERINGS.contains(&ordering) {
                Ok(ordering.to_string())
            } else {
                Err(format!("unknown memory ordering `{ordering}`"))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment
[unsafe-allow]
crates/bp-core/src/runtime.rs

[atomics]
scope = crates/bp-core
head = publish=Release consume=Acquire relaxed=load -- producer reads its own index
pending = publish=AcqRel,Release consume=Acquire relaxed=none -- completion countdown
";

    #[test]
    fn parses_sections_and_protocols() {
        let manifest = Manifest::parse(SAMPLE).unwrap();
        assert!(manifest.allows_unsafe("crates/bp-core/src/runtime.rs"));
        assert!(!manifest.allows_unsafe("crates/bp-core/src/enforcer.rs"));
        let head = &manifest.atomics["head"];
        assert_eq!(head.relaxed, RelaxedPolicy::Load);
        assert!(head.relaxed.permits(AtomicOpKind::Load));
        assert!(!head.relaxed.permits(AtomicOpKind::Rmw));
        assert_eq!(manifest.atomics["pending"].publish, ["AcqRel", "Release"]);
        assert_eq!(head.scopes, ["crates/bp-core"]);
        assert_eq!(head.line, 7);
    }

    #[test]
    fn rejects_protocol_without_note() {
        let text = "[atomics]\nx = publish=Release consume=Acquire relaxed=none\n";
        let error = Manifest::parse(text).unwrap_err();
        assert!(error.message.contains("note"), "{error}");
    }

    #[test]
    fn rejects_unknown_ordering() {
        let text = "[atomics]\nx = publish=Sometimes consume=Acquire relaxed=none -- note\n";
        assert!(Manifest::parse(text).is_err());
    }

    #[test]
    fn rejects_entries_outside_sections() {
        assert!(Manifest::parse("order = a b\n").is_err());
    }

    /// A manifest still carrying the section of a rule that no longer
    /// exists fails loudly instead of being half-read.
    #[test]
    fn rejects_unknown_sections() {
        let error = Manifest::parse("[retired-rule]\norder = a b\n").unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.message.contains("unknown section [retired-rule]"));
    }
}
