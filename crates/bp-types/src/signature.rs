//! Java-style method signatures.
//!
//! BorderPatrol identifies application functionality by fully qualified method
//! signatures in the Dalvik descriptor style, e.g.
//! `Lcom/dropbox/android/taskqueue/UploadTask;->run()V`.  The signature is the
//! unit the Offline Analyzer indexes, the Context Manager encodes, and the
//! Policy Enforcer matches policy targets against.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::level::EnforcementLevel;

/// Error returned when parsing a method signature string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureParseError {
    input: String,
    detail: &'static str,
}

impl SignatureParseError {
    fn new(input: &str, detail: &'static str) -> Self {
        SignatureParseError {
            input: input.to_string(),
            detail,
        }
    }

    /// The offending input string.
    pub fn input(&self) -> &str {
        &self.input
    }
}

impl fmt::Display for SignatureParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid method signature {:?}: {}",
            self.input, self.detail
        )
    }
}

impl std::error::Error for SignatureParseError {}

/// A fully qualified method signature.
///
/// A signature is composed of:
///
/// * the slash-separated package path (e.g. `com/dropbox/android/taskqueue`),
/// * the simple class name (e.g. `UploadTask`),
/// * the method name (e.g. `run`),
/// * the parameter descriptor (e.g. `(ILjava/lang/String;)`),
/// * the return descriptor (e.g. `V`).
///
/// The canonical textual form is the Dalvik smali style:
/// `L<package>/<Class>;-><method>(<params>)<ret>`.
///
/// # Examples
///
/// ```
/// use bp_types::MethodSignature;
/// let sig: MethodSignature =
///     "Lcom/facebook/GraphRequest;->executeAndWait()Lcom/facebook/GraphResponse;"
///         .parse()
///         .unwrap();
/// assert_eq!(sig.package(), "com/facebook");
/// assert_eq!(sig.class_name(), "GraphRequest");
/// assert_eq!(sig.method_name(), "executeAndWait");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MethodSignature {
    package: String,
    class: String,
    method: String,
    params: String,
    ret: String,
}

impl MethodSignature {
    /// Build a signature from its parts.
    ///
    /// `package` uses slash separators (`com/example/lib`); `params` is the
    /// raw descriptor between parentheses (possibly empty); `ret` is the raw
    /// return descriptor (`V` for void).
    pub fn new(
        package: impl Into<String>,
        class: impl Into<String>,
        method: impl Into<String>,
        params: impl Into<String>,
        ret: impl Into<String>,
    ) -> Self {
        MethodSignature {
            package: package.into(),
            class: class.into(),
            method: method.into(),
            params: params.into(),
            ret: ret.into(),
        }
    }

    /// Package path with slash separators, e.g. `com/flurry/sdk`.
    pub fn package(&self) -> &str {
        &self.package
    }

    /// Simple class name, e.g. `UploadTask`.
    pub fn class_name(&self) -> &str {
        &self.class
    }

    /// Fully qualified class path, e.g. `com/dropbox/android/taskqueue/UploadTask`.
    pub fn qualified_class(&self) -> String {
        if self.package.is_empty() {
            self.class.clone()
        } else {
            format!("{}/{}", self.package, self.class)
        }
    }

    /// Method name, e.g. `run`.
    pub fn method_name(&self) -> &str {
        &self.method
    }

    /// Raw parameter descriptor (contents between parentheses).
    pub fn params(&self) -> &str {
        &self.params
    }

    /// Raw return descriptor.
    pub fn return_type(&self) -> &str {
        &self.ret
    }

    /// The first `depth` package segments joined with `/`.
    ///
    /// `library_prefix(2)` of `com/flurry/sdk/Agent` is `com/flurry`, which is
    /// the granularity at which third-party libraries are typically identified.
    pub fn library_prefix(&self, depth: usize) -> String {
        self.package
            .split('/')
            .filter(|s| !s.is_empty())
            .take(depth)
            .collect::<Vec<_>>()
            .join("/")
    }

    /// The canonical textual form `Lpkg/Class;->method(params)ret`.
    pub fn to_descriptor(&self) -> String {
        format!(
            "L{};->{}({}){}",
            self.qualified_class(),
            self.method,
            self.params,
            self.ret
        )
    }

    /// A copy of this signature with the parameter and return descriptors
    /// erased.  This models the paper's over-approximation when an app has
    /// stripped debug information: overloaded variants of a method collapse
    /// into a single identifier (§VII "Overloaded methods").
    pub fn erase_overload(&self) -> MethodSignature {
        MethodSignature {
            package: self.package.clone(),
            class: self.class.clone(),
            method: self.method.clone(),
            params: String::new(),
            ret: "*".to_string(),
        }
    }

    /// Whether `target` matches this signature at enforcement level `level`.
    ///
    /// * `Library`: `target` must be a prefix of the package path on a segment
    ///   boundary (e.g. `com/flurry` matches `com/flurry/sdk`).
    /// * `Class`: `target` must equal the fully qualified class path, or be a
    ///   prefix of it on a segment boundary (so `com/google/gms` matches every
    ///   class below that package, as in the paper's Example 2).
    /// * `Method`: `target` must equal the full descriptor, or the descriptor
    ///   without parameter types when the target omits them.
    /// * `Hash` never matches a signature; it is matched against the
    ///   application tag by the policy engine.
    pub fn matches_target(&self, level: EnforcementLevel, target: &str) -> bool {
        let target = target.trim();
        if target.is_empty() {
            return false;
        }
        match level {
            EnforcementLevel::Hash => false,
            EnforcementLevel::Library => segment_prefix(&self.package, normalize_package(target)),
            EnforcementLevel::Class => {
                let qc = self.qualified_class();
                let t = normalize_package(target);
                qc == t || segment_prefix(&qc, t)
            }
            EnforcementLevel::Method => {
                let full = self.to_descriptor();
                if target == full {
                    return true;
                }
                // Allow matching a descriptor written without its trailing
                // return type or parameter list (convenient for operators).
                let without_ret = format!(
                    "L{};->{}({})",
                    self.qualified_class(),
                    self.method,
                    self.params
                );
                let without_params = format!("L{};->{}", self.qualified_class(), self.method);
                target == without_ret || target == without_params
            }
        }
    }

    /// The deepest (finest) level at which `target` matches this signature,
    /// if any.  Mirrors the paper's `ℓθ` (level of target match).
    ///
    /// Classification is based on what part of the signature the target pins
    /// down: a full descriptor (containing `->`) is a method-level match, an
    /// exact fully-qualified class path is a class-level match, and a package
    /// prefix is a library-level match.
    pub fn match_level(&self, target: &str) -> Option<EnforcementLevel> {
        if target.contains("->") {
            return self
                .matches_target(EnforcementLevel::Method, target)
                .then_some(EnforcementLevel::Method);
        }
        let normalized = normalize_package(target.trim());
        if normalized == self.qualified_class() {
            return Some(EnforcementLevel::Class);
        }
        self.matches_target(EnforcementLevel::Library, target)
            .then_some(EnforcementLevel::Library)
    }
}

/// Strip a leading `L` and trailing `;` so class targets can be written either
/// as `com/google/gms` or `Lcom/google/gms;`.
///
/// Exported so compiled policy evaluators can pre-normalize targets with the
/// exact same rules [`MethodSignature::matches_target`] applies per call.  The
/// result is always a substring of `target`, so it borrows.
pub fn normalize_package(target: &str) -> &str {
    let t = target.strip_prefix('L').unwrap_or(target);
    let t = t.strip_suffix(';').unwrap_or(t);
    t.trim_matches('/')
}

/// True if `prefix` equals `path` or is a prefix of it ending at a `/` boundary.
///
/// Exported alongside [`normalize_package`] as the package/class matching
/// primitive compiled policy evaluators must agree with.
pub fn segment_prefix(path: &str, prefix: &str) -> bool {
    if prefix.is_empty() {
        return false;
    }
    if path == prefix {
        return true;
    }
    path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/')
}

impl fmt::Debug for MethodSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MethodSignature({})", self.to_descriptor())
    }
}

impl fmt::Display for MethodSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_descriptor())
    }
}

impl PartialOrd for MethodSignature {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MethodSignature {
    /// Signatures order lexicographically by (package, class, method, params,
    /// return).  This is the deterministic "topological" ordering the Offline
    /// Analyzer relies on to assign stable indexes.
    fn cmp(&self, other: &Self) -> Ordering {
        (
            &self.package,
            &self.class,
            &self.method,
            &self.params,
            &self.ret,
        )
            .cmp(&(
                &other.package,
                &other.class,
                &other.method,
                &other.params,
                &other.ret,
            ))
    }
}

impl FromStr for MethodSignature {
    type Err = SignatureParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let body = s
            .strip_prefix('L')
            .ok_or_else(|| SignatureParseError::new(s, "expected leading 'L'"))?;
        let (class_path, rest) = body
            .split_once(";->")
            .ok_or_else(|| SignatureParseError::new(s, "expected ';->' separator"))?;
        if class_path.is_empty() {
            return Err(SignatureParseError::new(s, "empty class path"));
        }
        let (method, rest) = rest
            .split_once('(')
            .ok_or_else(|| SignatureParseError::new(s, "expected '(' after method name"))?;
        if method.is_empty() {
            return Err(SignatureParseError::new(s, "empty method name"));
        }
        let (params, ret) = rest
            .split_once(')')
            .ok_or_else(|| SignatureParseError::new(s, "expected ')' after parameters"))?;
        if ret.is_empty() {
            return Err(SignatureParseError::new(s, "empty return type"));
        }
        let (package, class) = match class_path.rsplit_once('/') {
            Some((pkg, cls)) => (pkg.to_string(), cls.to_string()),
            None => (String::new(), class_path.to_string()),
        };
        if class.is_empty() {
            return Err(SignatureParseError::new(s, "empty class name"));
        }
        Ok(MethodSignature {
            package,
            class,
            method: method.to_string(),
            params: params.to_string(),
            ret: ret.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload_task() -> MethodSignature {
        "Lcom/dropbox/android/taskqueue/UploadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult;"
            .parse()
            .unwrap()
    }

    #[test]
    fn parse_extracts_parts() {
        let sig = upload_task();
        assert_eq!(sig.package(), "com/dropbox/android/taskqueue");
        assert_eq!(sig.class_name(), "UploadTask");
        assert_eq!(sig.method_name(), "c");
        assert_eq!(sig.params(), "");
        assert_eq!(
            sig.return_type(),
            "Lcom/dropbox/hairball/taskqueue/TaskResult;"
        );
    }

    #[test]
    fn descriptor_roundtrip() {
        let cases = [
            "Lcom/flurry/sdk/Agent;->report(Ljava/lang/String;I)V",
            "Lcom/facebook/GraphRequest;->executeAndWait()Lcom/facebook/GraphResponse;",
            "Lorg/apache/http/client/HttpClient;->execute(Lorg/apache/http/HttpRequest;)Lorg/apache/http/HttpResponse;",
            "LMain;->main([Ljava/lang/String;)V",
        ];
        for case in cases {
            let sig: MethodSignature = case.parse().unwrap();
            assert_eq!(sig.to_descriptor(), case, "roundtrip {case}");
            assert_eq!(sig.to_string(), case);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "com/foo/Bar;->baz()V", // missing leading L
            "Lcom/foo/Bar->baz()V", // missing ;
            "Lcom/foo/Bar;->()V",   // empty method
            "Lcom/foo/Bar;->baz)V", // missing (
            "Lcom/foo/Bar;->bazV",  // missing parens entirely
            "Lcom/foo/Bar;->baz()", // empty return
            "L;->baz()V",           // empty class path
        ] {
            assert!(
                bad.parse::<MethodSignature>().is_err(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn library_matching_respects_segment_boundaries() {
        let sig: MethodSignature = "Lcom/flurry/sdk/Agent;->report()V".parse().unwrap();
        assert!(sig.matches_target(EnforcementLevel::Library, "com/flurry"));
        assert!(sig.matches_target(EnforcementLevel::Library, "com/flurry/sdk"));
        assert!(!sig.matches_target(EnforcementLevel::Library, "com/flur"));
        assert!(!sig.matches_target(EnforcementLevel::Library, "com/flurry/sdk/Agent/extra"));
    }

    #[test]
    fn class_matching_accepts_package_style_targets() {
        // Paper Example 2: {[deny][class]["com/google/gms"]} blocks an entire class tree.
        let sig: MethodSignature = "Lcom/google/gms/analytics/Tracker;->send(Ljava/util/Map;)V"
            .parse()
            .unwrap();
        assert!(sig.matches_target(EnforcementLevel::Class, "com/google/gms"));
        assert!(sig.matches_target(EnforcementLevel::Class, "com/google/gms/analytics/Tracker"));
        assert!(sig.matches_target(
            EnforcementLevel::Class,
            "Lcom/google/gms/analytics/Tracker;"
        ));
        assert!(!sig.matches_target(EnforcementLevel::Class, "com/google/gmsx"));
    }

    #[test]
    fn method_matching_allows_partial_descriptors() {
        let sig = upload_task();
        assert!(sig.matches_target(EnforcementLevel::Method, &sig.to_descriptor()));
        assert!(sig.matches_target(
            EnforcementLevel::Method,
            "Lcom/dropbox/android/taskqueue/UploadTask;->c"
        ));
        assert!(sig.matches_target(
            EnforcementLevel::Method,
            "Lcom/dropbox/android/taskqueue/UploadTask;->c()"
        ));
        assert!(!sig.matches_target(
            EnforcementLevel::Method,
            "Lcom/dropbox/android/taskqueue/UploadTask;->d"
        ));
    }

    #[test]
    fn hash_level_never_matches_signatures() {
        let sig = upload_task();
        assert!(!sig.matches_target(EnforcementLevel::Hash, "da6880ab1f991974"));
    }

    #[test]
    fn match_level_returns_finest() {
        let sig = upload_task();
        assert_eq!(
            sig.match_level("Lcom/dropbox/android/taskqueue/UploadTask;->c"),
            Some(EnforcementLevel::Method)
        );
        assert_eq!(
            sig.match_level("com/dropbox/android/taskqueue/UploadTask"),
            Some(EnforcementLevel::Class)
        );
        assert_eq!(
            sig.match_level("com/dropbox"),
            Some(EnforcementLevel::Library)
        );
        assert_eq!(sig.match_level("com/box"), None);
    }

    #[test]
    fn ordering_is_deterministic_and_total() {
        let a: MethodSignature = "Lcom/a/X;->m()V".parse().unwrap();
        let b: MethodSignature = "Lcom/b/X;->m()V".parse().unwrap();
        let c: MethodSignature = "Lcom/b/X;->m(I)V".parse().unwrap();
        let mut v = vec![c.clone(), a.clone(), b.clone()];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn erase_overload_merges_variants() {
        let a: MethodSignature = "Lcom/x/Y;->f(I)V".parse().unwrap();
        let b: MethodSignature = "Lcom/x/Y;->f(Ljava/lang/String;)V".parse().unwrap();
        assert_ne!(a, b);
        assert_eq!(a.erase_overload(), b.erase_overload());
    }

    #[test]
    fn library_prefix_depths() {
        let sig: MethodSignature = "Lcom/flurry/sdk/internal/Agent;->go()V".parse().unwrap();
        assert_eq!(sig.library_prefix(1), "com");
        assert_eq!(sig.library_prefix(2), "com/flurry");
        assert_eq!(sig.library_prefix(10), "com/flurry/sdk/internal");
    }

    #[test]
    fn default_package_class() {
        let sig: MethodSignature = "LMain;->main([Ljava/lang/String;)V".parse().unwrap();
        assert_eq!(sig.package(), "");
        assert_eq!(sig.qualified_class(), "Main");
        assert_eq!(sig.library_prefix(2), "");
    }
}
