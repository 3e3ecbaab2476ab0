//! The policy grammar and evaluation semantics.
//!
//! Policies follow the grammar of the paper's Snippet 1:
//!
//! ```text
//! <POLICY> ::= {[<ACTION>] [<LEVEL>] [<TARGET>]}
//! <ACTION> ::= (allow | deny)
//! <LEVEL>  ::= (hash | library | class | method)
//! ```
//!
//! Evaluation follows §IV-B: for the stack signatures `s ∈ H` of a packet and
//! a policy target `θ` at enforcement level `L`,
//!
//! * a **deny** policy drops the packet if **at least one** stack signature
//!   matches the target at level `L` or finer (blacklisting);
//! * an **allow** policy admits the packet only if **every** stack signature
//!   matches the target at level `L` or finer (whitelisting) — when any allow
//!   policies are present, packets that satisfy none of them are dropped.
//!
//! Hash-level targets match against the application tag rather than stack
//! signatures.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

use bp_types::{AppTag, EnforcementLevel, Error, MethodSignature};

use crate::policy_index::{PolicyIndex, NO_RULE};

/// The decision a policy prescribes for matching packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyAction {
    /// Whitelist: admit only matching traffic.
    Allow,
    /// Blacklist: drop matching traffic.
    Deny,
}

impl PolicyAction {
    /// The grammar keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            PolicyAction::Allow => "allow",
            PolicyAction::Deny => "deny",
        }
    }
}

impl FromStr for PolicyAction {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "allow" => Ok(PolicyAction::Allow),
            "deny" => Ok(PolicyAction::Deny),
            other => Err(Error::PolicyParse {
                input: other.to_string(),
                detail: "expected allow or deny".to_string(),
            }),
        }
    }
}

impl fmt::Display for PolicyAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One policy rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Policy {
    action: PolicyAction,
    level: EnforcementLevel,
    target: String,
}

impl Policy {
    /// Create a policy from its parts.
    pub fn new(action: PolicyAction, level: EnforcementLevel, target: impl Into<String>) -> Self {
        Policy {
            action,
            level,
            target: target.into(),
        }
    }

    /// Convenience constructor for a deny rule.
    pub fn deny(level: EnforcementLevel, target: impl Into<String>) -> Self {
        Policy::new(PolicyAction::Deny, level, target)
    }

    /// Convenience constructor for an allow (whitelist) rule.
    pub fn allow(level: EnforcementLevel, target: impl Into<String>) -> Self {
        Policy::new(PolicyAction::Allow, level, target)
    }

    /// The policy action.
    pub fn action(&self) -> PolicyAction {
        self.action
    }

    /// The enforcement level.
    pub fn level(&self) -> EnforcementLevel {
        self.level
    }

    /// The target string (library prefix, class path, method descriptor or
    /// truncated/full app hash depending on the level).
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Whether `signature` matches this policy's target at the policy's level
    /// or finer.
    pub fn matches_signature(&self, signature: &MethodSignature) -> bool {
        match self.level {
            EnforcementLevel::Hash => false,
            level => signature.matches_target(level, &self.target),
        }
    }

    /// Whether `tag` matches a hash-level policy (the target may be the
    /// 16-hex-character truncated tag or the full 32-character apk hash).
    pub fn matches_tag(&self, tag: AppTag) -> bool {
        if self.level != EnforcementLevel::Hash {
            return false;
        }
        let t = self.target.to_ascii_lowercase();
        let tag_hex = tag.to_hex();
        t == tag_hex || t.starts_with(&tag_hex)
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{[{}][{}][\"{}\"]}}",
            self.action, self.level, self.target
        )
    }
}

impl FromStr for Policy {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parse_error = |detail: &str| Error::PolicyParse {
            input: s.to_string(),
            detail: detail.to_string(),
        };
        let trimmed = s.trim();
        let body = trimmed
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(|| parse_error("policy must be enclosed in braces"))?;

        let mut fields = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let open = rest.find('[').ok_or_else(|| parse_error("expected '['"))?;
            let close = rest[open..]
                .find(']')
                .map(|i| i + open)
                .ok_or_else(|| parse_error("unterminated '['"))?;
            fields.push(rest[open + 1..close].trim().to_string());
            rest = rest[close + 1..].trim();
        }
        if fields.len() != 3 {
            return Err(parse_error("expected exactly three bracketed fields"));
        }
        let action: PolicyAction = fields[0].parse()?;
        let level: EnforcementLevel = fields[1].parse()?;
        let raw_target = fields[2].trim();
        let target = raw_target
            .strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'))
            .unwrap_or(raw_target)
            .to_string();
        if target.is_empty() {
            return Err(parse_error("empty target"));
        }
        Ok(Policy {
            action,
            level,
            target,
        })
    }
}

/// The outcome of evaluating a packet's context against a policy set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The packet conforms to policy and may proceed.
    Allow,
    /// The packet violates policy and must be dropped.
    Deny {
        /// The policy that caused the drop (absent for whitelist-miss drops).
        policy: Option<Policy>,
        /// Human-readable explanation.
        reason: String,
    },
}

impl Decision {
    /// True if the decision is to allow the packet.
    pub fn is_allow(&self) -> bool {
        matches!(self, Decision::Allow)
    }

    /// Construct a deny decision caused by `policy`.
    pub fn deny_by(policy: &Policy, reason: impl Into<String>) -> Self {
        Decision::Deny {
            policy: Some(policy.clone()),
            reason: reason.into(),
        }
    }
}

/// Copy-on-append storage: an `Arc`-shared base chunk plus a small owned
/// tail.  Cloning shares the base, so staging a transaction against a
/// 100k-policy set copies pointers, not policies — the property the control
/// plane's incremental commit path is built on.
#[derive(Debug, Clone)]
pub(crate) struct Chunked<T> {
    base: Arc<[T]>,
    tail: Vec<T>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            base: Vec::new().into(),
            tail: Vec::new(),
        }
    }
}

impl<T> Chunked<T> {
    /// Storage whose base chunk is `base` (a `Vec`, or an `Arc<[T]>` that is
    /// taken as it is) and whose tail is empty.
    pub(crate) fn new(base: impl Into<Arc<[T]>>) -> Self {
        Chunked {
            base: base.into(),
            tail: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.base.is_empty() && self.tail.is_empty()
    }

    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        if index < self.base.len() {
            self.base.get(index)
        } else {
            self.tail.get(index - self.base.len())
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.base.iter().chain(self.tail.iter())
    }

    /// Iterate items from position `start` on.
    pub(crate) fn iter_from(&self, start: usize) -> impl Iterator<Item = &T> + Clone {
        let b = start.min(self.base.len());
        let t = (start - b).min(self.tail.len());
        self.base[b..].iter().chain(self.tail[t..].iter())
    }

    pub(crate) fn push(&mut self, item: T) {
        self.tail.push(item);
    }

    /// A copy with the tail folded into the shared base (so future clones
    /// share everything).
    pub(crate) fn compacted(&self) -> Self
    where
        T: Clone,
    {
        if self.tail.is_empty() {
            self.clone()
        } else {
            Chunked::new(self.iter().cloned().collect::<Arc<[T]>>())
        }
    }
}

/// An ordered collection of policies evaluated together.
///
/// Internally the set is copy-on-append (`Chunked`): cloning shares the
/// bulk of the policies, and appending stages only the new ones.  Equality,
/// serialization and iteration all observe the flat logical list, so the
/// representation is invisible to callers.
#[derive(Debug, Clone, Default)]
pub struct PolicySet {
    policies: Chunked<Policy>,
}

impl PolicySet {
    /// An empty policy set (allows everything).
    pub fn new() -> Self {
        PolicySet::default()
    }

    /// Build a set from a list of policies.
    pub fn from_policies(policies: Vec<Policy>) -> Self {
        PolicySet {
            policies: Chunked::new(policies),
        }
    }

    /// Parse a policy file: one policy per line, `//` comments and blank lines
    /// ignored.
    ///
    /// # Examples
    ///
    /// ```
    /// use bp_core::policy::PolicySet;
    ///
    /// // Paper Snippet 1: administrators write `{[action][level][target]}`.
    /// let set = PolicySet::parse(
    ///     r#"
    ///     // Example 1: no ad-library connections.
    ///     {[deny][library]["com/flurry"]}
    ///     // Example 3: no uploads from the Dropbox task queue.
    ///     {[deny][method]["Lcom/dropbox/android/taskqueue/UploadTask;->c"]}
    ///     "#,
    /// )?;
    /// assert_eq!(set.len(), 2);
    /// assert!(!set.has_whitelist());
    /// # Ok::<(), bp_types::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first parse error encountered.
    pub fn parse(text: &str) -> Result<Self, Error> {
        let mut policies = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            policies.push(line.parse()?);
        }
        Ok(PolicySet::from_policies(policies))
    }

    /// Add a policy.
    pub fn push(&mut self, policy: Policy) {
        self.policies.push(policy);
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True if the set has no policies.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Iterate over the policies.
    pub fn iter(&self) -> impl Iterator<Item = &Policy> + Clone {
        self.policies.iter()
    }

    /// The policy at `index`, if any.
    pub fn get(&self, index: usize) -> Option<&Policy> {
        self.policies.get(index)
    }

    /// If `self` equals `base` plus zero or more appended policies, return
    /// the split position (`base.len()`); otherwise `None`.
    ///
    /// The fast path recognizes sets staged by cloning `base` and pushing —
    /// shared base chunk, extended tail — in O(tail); the fallback compares
    /// the first `base.len()` policies logically.
    pub(crate) fn append_split(&self, base: &PolicySet) -> Option<usize> {
        let base_len = base.len();
        if self.len() < base_len {
            return None;
        }
        let shared = Arc::ptr_eq(&self.policies.base, &base.policies.base)
            && self.policies.tail.len() >= base.policies.tail.len()
            && self.policies.tail[..base.policies.tail.len()] == base.policies.tail[..];
        if shared || self.iter().zip(base.iter()).all(|(a, b)| a == b) {
            Some(base_len)
        } else {
            None
        }
    }

    /// A copy whose storage is one shared chunk (cheap to clone wholesale).
    pub(crate) fn compacted(&self) -> PolicySet {
        PolicySet {
            policies: self.policies.compacted(),
        }
    }

    /// Iterate policies from position `start` on.
    pub(crate) fn iter_from(&self, start: usize) -> impl Iterator<Item = &Policy> + Clone {
        self.policies.iter_from(start)
    }

    /// Whether the set contains any allow (whitelist) policies.
    pub fn has_whitelist(&self) -> bool {
        self.policies
            .iter()
            .any(|p| p.action == PolicyAction::Allow)
    }

    /// Render the set in the grammar's textual form, one policy per line.
    pub fn to_text(&self) -> String {
        self.policies
            .iter()
            .map(Policy::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Evaluate a packet's decoded context against the set.
    ///
    /// `app_tag` is the application tag from the packet header; `stack` is the
    /// decoded stack of method signatures (innermost first).
    pub fn evaluate(&self, app_tag: AppTag, stack: &[MethodSignature]) -> Decision {
        // 1. Deny rules: ∃ s matching ⇒ drop.
        for policy in self
            .policies
            .iter()
            .filter(|p| p.action == PolicyAction::Deny)
        {
            if policy.level() == EnforcementLevel::Hash {
                if policy.matches_tag(app_tag) {
                    return Decision::deny_by(policy, "application hash is blacklisted");
                }
            } else if let Some(matched) = stack.iter().find(|s| policy.matches_signature(s)) {
                return Decision::deny_by(
                    policy,
                    format!("stack frame {matched} matches denied target"),
                );
            }
        }

        // 2. Allow (whitelist) rules: if any exist, the packet must satisfy at
        //    least one of them — hash-level allow matches the tag, finer
        //    levels require every stack frame to match.
        let allows: Vec<&Policy> = self
            .policies
            .iter()
            .filter(|p| p.action == PolicyAction::Allow)
            .collect();
        if allows.is_empty() {
            return Decision::Allow;
        }
        for policy in allows {
            let satisfied = if policy.level() == EnforcementLevel::Hash {
                policy.matches_tag(app_tag)
            } else {
                !stack.is_empty() && stack.iter().all(|s| policy.matches_signature(s))
            };
            if satisfied {
                return Decision::Allow;
            }
        }
        Decision::Deny {
            policy: None,
            reason: "no whitelist policy is satisfied by every stack frame".to_string(),
        }
    }
}

impl PolicySet {
    /// Compile the set into the pre-split, pre-bucketed form the enforcement
    /// data plane evaluates (see [`CompiledPolicySet`]).
    pub fn compile(&self) -> CompiledPolicySet {
        CompiledPolicySet::compile(self)
    }
}

impl FromIterator<Policy> for PolicySet {
    fn from_iter<T: IntoIterator<Item = Policy>>(iter: T) -> Self {
        PolicySet::from_policies(iter.into_iter().collect())
    }
}

// Equality, hashing-free: logical comparison of the flat policy lists, with
// a pointer fast path for clones sharing the same base chunk.
impl PartialEq for PolicySet {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.policies.base, &other.policies.base) {
            return self.policies.tail == other.policies.tail;
        }
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for PolicySet {}

// Manual serde impls preserving the `{"policies": [...]}` shape the derived
// form produced before the storage became chunked.
impl Serialize for PolicySet {
    fn to_value(&self) -> Value {
        Value::Map(vec![(
            "policies".to_string(),
            Value::Seq(self.iter().map(Serialize::to_value).collect()),
        )])
    }
}

impl Deserialize for PolicySet {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let field = value
            .get_field("policies")
            .ok_or_else(|| DeError::missing_field("policies"))?;
        let items = field
            .as_seq()
            .ok_or_else(|| DeError::expected("array", field))?;
        let policies = items
            .iter()
            .map(Policy::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PolicySet::from_policies(policies))
    }
}

// ---------------------------------------------------------------------------
// Compiled policy evaluation
// ---------------------------------------------------------------------------

// Target normalization and prefix matching reuse the exact primitives of
// `MethodSignature::matches_target`, so compiled and interpretive verdicts
// cannot drift apart.
use bp_types::signature::{normalize_package, segment_prefix};

/// A byte range of one policy's target.  Compiled matchers hold spans, not
/// copies: the [`CompiledPolicySet`] keeps the [`PolicySet`] it was compiled
/// from, whose shared chunk owns every target's bytes, so compiling a rule
/// allocates nothing.  Target normalization and descriptor splitting only
/// ever take substrings, which is what makes a span enough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Where `part`, a substring of `target`, lies within it.
    fn of(target: &str, part: &str) -> Span {
        let start = part.as_ptr() as usize - target.as_ptr() as usize;
        debug_assert!(start + part.len() <= target.len(), "part outside target");
        Span {
            start: u32::try_from(start).expect("policy target fits u32"),
            len: u32::try_from(part.len()).expect("policy target fits u32"),
        }
    }

    /// The spanned text of `target` (the target this span was taken from).
    pub(crate) fn get(self, target: &str) -> &str {
        &target[self.start as usize..(self.start + self.len) as usize]
    }

    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A policy target pre-split into the comparisons `evaluate` performs, so the
/// per-packet work is slice/prefix comparisons with no string building.
/// Every string is a [`Span`] of the policy's target.  Crate-visible so
/// [`crate::policy_index`] can lower matchers into its flat tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CompiledMatcher {
    /// Hash-level rule: the target's first 16 hex characters, pre-decoded to
    /// tag bytes.  `None` when the target can never match any tag.
    Hash(Option<AppTag>),
    /// Library-level rule: pre-normalized package prefix.
    Library(Span),
    /// Class-level rule: pre-normalized class path (or package prefix).
    Class(Span),
    /// Method-level rule pre-split into descriptor components.  `params:
    /// None` means the target omitted the parameter list entirely; `ret:
    /// None` means it omitted the return type.
    Method {
        class_path: Span,
        method: Span,
        params: Option<Span>,
        ret: Option<Span>,
    },
    /// Fallback for method targets whose shape does not decompose cleanly:
    /// replicates the interpretive string comparisons verbatim.
    MethodVerbatim(Span),
    /// A target that can never match (e.g. empty after trimming).
    Never,
}

impl CompiledMatcher {
    pub(crate) fn compile(level: EnforcementLevel, target: &str) -> CompiledMatcher {
        if level == EnforcementLevel::Hash {
            // `Policy::matches_tag` compares the *untrimmed* lowercased
            // target; a tag matches iff the target's first 16 characters are
            // its hex form.  Lowercasing keeps byte offsets and `from_hex`
            // takes either case, so the prefix decodes in place.
            return CompiledMatcher::Hash(target.get(..16).and_then(AppTag::from_hex));
        }
        // `MethodSignature::matches_target` trims and rejects empty targets.
        let raw = target.trim();
        if raw.is_empty() {
            return CompiledMatcher::Never;
        }
        let span = |part: &str| Span::of(target, part);
        match level {
            EnforcementLevel::Hash => unreachable!("handled above"),
            EnforcementLevel::Library => CompiledMatcher::Library(span(normalize_package(raw))),
            EnforcementLevel::Class => CompiledMatcher::Class(span(normalize_package(raw))),
            EnforcementLevel::Method => Self::compile_method(raw, span),
        }
    }

    /// Split a method target of the form `L<class>;-><method>[(<params>)[<ret>]]`.
    fn compile_method(raw: &str, span: impl Fn(&str) -> Span) -> CompiledMatcher {
        let Some(body) = raw.strip_prefix('L') else {
            // None of the three descriptor forms can start without `L`.
            return CompiledMatcher::Never;
        };
        let Some((class_path, rest)) = body.split_once(";->") else {
            return CompiledMatcher::Never;
        };
        match rest.split_once('(') {
            None => CompiledMatcher::Method {
                class_path: span(class_path),
                method: span(rest),
                params: None,
                ret: None,
            },
            Some((method, after)) => {
                // The descriptor forms close the parameter list with the
                // first `)`; anything trailing is the return type.  `(`
                // without `)`, or a second `(`/`)`, defers to the verbatim
                // comparisons.
                let verbatim = CompiledMatcher::MethodVerbatim(span(raw));
                let Some((params, ret)) = after.split_once(')') else {
                    return verbatim;
                };
                if params.contains('(') || params.contains(')') {
                    return verbatim;
                }
                CompiledMatcher::Method {
                    class_path: span(class_path),
                    method: span(method),
                    params: Some(span(params)),
                    ret: (!ret.is_empty()).then(|| span(ret)),
                }
            }
        }
    }

    /// Whether a hash-level matcher matches `tag` (tag comparisons only).
    fn matches_tag(&self, tag: AppTag) -> bool {
        matches!(self, CompiledMatcher::Hash(Some(t)) if *t == tag)
    }

    /// Whether a signature-level matcher, compiled from `target`, matches
    /// `signature`.
    fn matches_signature(&self, target: &str, signature: &MethodSignature) -> bool {
        match *self {
            CompiledMatcher::Hash(_) | CompiledMatcher::Never => false,
            CompiledMatcher::Library(prefix) => {
                segment_prefix(signature.package(), prefix.get(target))
            }
            CompiledMatcher::Class(path) => class_matches(signature, path.get(target)),
            CompiledMatcher::Method {
                class_path,
                method,
                params,
                ret,
            } => {
                if signature.method_name() != method.get(target)
                    || !qualified_class_equals(signature, class_path.get(target))
                {
                    return false;
                }
                match (params, ret) {
                    (None, _) => true,
                    (Some(p), None) => signature.params() == p.get(target),
                    (Some(p), Some(r)) => {
                        signature.params() == p.get(target)
                            && signature.return_type() == r.get(target)
                    }
                }
            }
            CompiledMatcher::MethodVerbatim(raw) => {
                signature.matches_target(EnforcementLevel::Method, raw.get(target))
            }
        }
    }
}

/// `signature.qualified_class() == path`, compared piecewise so no `String`
/// is built per evaluation.
fn qualified_class_equals(signature: &MethodSignature, path: &str) -> bool {
    let package = signature.package();
    let class = signature.class_name();
    if package.is_empty() {
        return class == path;
    }
    path.len() == package.len() + 1 + class.len()
        && path.as_bytes()[package.len()] == b'/'
        && path.starts_with(package)
        && path.ends_with(class)
}

/// Class-level matching: `qc == t || segment_prefix(qc, t)` over the virtual
/// qualified class path, without materializing it.
fn class_matches(signature: &MethodSignature, target: &str) -> bool {
    let package = signature.package();
    let class = signature.class_name();
    if target.is_empty() {
        // `qc == ""` requires both parts empty; segment_prefix rejects "".
        return package.is_empty() && class.is_empty();
    }
    if qualified_class_equals(signature, target) {
        return true;
    }
    if package.is_empty() {
        // qc == class, which contains no `/`: only exact equality matches.
        return false;
    }
    // A strict segment prefix of `package/Class` must end inside the package
    // part (the class name contains no further `/` boundary).
    if target.len() < package.len() {
        return package.starts_with(target) && package.as_bytes()[target.len()] == b'/';
    }
    target.len() == package.len() && package == target
}

/// A compiled rule kept in policy order: the pre-split target plus the two
/// classification bits evaluation branches on.  The rule's position *is* the
/// policy index, so no per-rule attribution field is needed, and its spans
/// resolve against the policy at that same position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinearRule {
    action: PolicyAction,
    /// Hash-level rules match the app tag; all other levels match frames.
    tag_level: bool,
    matcher: CompiledMatcher,
}

impl LinearRule {
    fn compile(policy: &Policy) -> LinearRule {
        LinearRule {
            action: policy.action(),
            tag_level: policy.level() == EnforcementLevel::Hash,
            matcher: CompiledMatcher::compile(policy.level(), policy.target()),
        }
    }
}

/// The verdict of the compiled evaluator, free of allocation: policies and
/// frames are referenced by index and only formatted when a drop is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledVerdict {
    /// The packet conforms to policy.
    Allow,
    /// The packet violates policy.
    Deny {
        /// Index of the violated policy in the originating set (`None` for
        /// whitelist-miss denials).
        policy: Option<usize>,
        /// Index of the matching stack frame, when a frame triggered the
        /// denial.
        frame: Option<usize>,
    },
}

impl CompiledVerdict {
    /// True if the verdict allows the packet.
    pub fn is_allow(self) -> bool {
        matches!(self, CompiledVerdict::Allow)
    }

    /// Append a deny verdict's reason text to `out` (nothing for an allow):
    /// the one rendering behind [`CompiledPolicySet::verdict_to_decision`]
    /// and the enforcer's drop detail, which writes it straight after its
    /// own prefix instead of formatting a `String` to format again.
    pub(crate) fn write_reason<'s, F>(self, frame: F, out: &mut String)
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        use fmt::Write;
        match self {
            CompiledVerdict::Allow => {}
            CompiledVerdict::Deny { policy: None, .. } => {
                out.push_str("no whitelist policy is satisfied by every stack frame")
            }
            CompiledVerdict::Deny { frame: None, .. } => {
                out.push_str("application hash is blacklisted")
            }
            CompiledVerdict::Deny { frame: Some(i), .. } => {
                write!(out, "stack frame {} matches denied target", frame(i))
                    .expect("writing to a String cannot fail")
            }
        }
    }
}

/// The compiled, evaluation-ready form of a [`PolicySet`].
///
/// Compilation pre-splits every target (normalized package prefix, class
/// path, descriptor components, decoded tag bytes) and lowers the rule list
/// into the flat match-action tables of the private `policy_index` module: an
/// open-addressed tag table for hash-level rules and a hash-accelerated
/// prefix table (plus method arena) for stack-level rules.  Per-packet cost
/// is therefore a function of the packet's stack depth, not of the rule
/// count — the curve stays flat from 3 to 100k rules.
///
/// Deny evaluation checks tag-level rules before stack-level rules (each in
/// policy order); since any matching deny rule drops the packet, this only
/// affects which policy a drop is *attributed* to when several match, not
/// the decision itself.  The pre-table linear scan is retained as
/// [`CompiledPolicySet::evaluate_frames_linear`], an equivalence oracle the
/// property tests drive against the indexed path.
///
/// Compilation is incremental where possible: when a new set extends a
/// previously compiled one (the common control-plane delta), the compiled
/// matchers and index rows of the unchanged prefix are reused rather than
/// recompiled (the private `extend_compile` path).
///
/// # Examples
///
/// ```
/// use bp_core::policy::{Policy, PolicySet};
/// use bp_types::{ApkHash, EnforcementLevel};
///
/// let set = PolicySet::from_policies(vec![Policy::deny(
///     EnforcementLevel::Library,
///     "com/flurry",
/// )]);
/// let compiled = set.compile();
/// let stack = vec!["Lcom/flurry/sdk/Agent;->report()V".parse().unwrap()];
/// let tag = ApkHash::digest(b"app").tag();
/// assert!(!compiled.evaluate(tag, &stack).is_allow());
/// ```
#[derive(Debug, Clone)]
pub struct CompiledPolicySet {
    /// The original policies, for attribution and reporting.
    policies: PolicySet,
    /// One compiled rule per policy, same position: the equivalence oracle
    /// and the linear fallback for inputs outside the index's assumptions.
    rules: Chunked<LinearRule>,
    /// The flat match-action tables the hot path evaluates.
    index: PolicyIndex,
    /// Rule count at the last full (non-incremental) build.
    base_len: usize,
    /// Rules reused from the previous generation by the last
    /// [`CompiledPolicySet::extend_compile`] (0 after a full build).
    reused: usize,
}

// Compilation is deterministic in the policy list, so logical equality of
// the policies is equality of the compiled sets (the index layout may differ
// between full and incremental builds without observable effect).
impl PartialEq for CompiledPolicySet {
    fn eq(&self, other: &Self) -> bool {
        self.policies == other.policies
    }
}

impl Eq for CompiledPolicySet {}

impl CompiledPolicySet {
    /// Compile `set` from scratch (see the type-level documentation).
    pub fn compile(set: &PolicySet) -> Self {
        assert!(
            set.len() < u32::MAX as usize,
            "policy set too large to index"
        );
        let policies = set.compacted();
        // Collected straight into the shared chunk: one allocation, no copy.
        let rules: Arc<[LinearRule]> = policies.iter().map(LinearRule::compile).collect();
        let index = PolicyIndex::build(
            rules
                .iter()
                .zip(policies.iter())
                .enumerate()
                .map(|(i, (r, p))| (i as u32, r.action, r.matcher, p.target())),
        );
        let base_len = rules.len();
        CompiledPolicySet {
            policies,
            rules: Chunked::new(rules),
            index,
            base_len,
            reused: 0,
        }
    }

    /// Compile `set` by extending `prev`'s tables, given that `set` equals
    /// `prev`'s policies plus the tail from position `split` on (as
    /// established by [`PolicySet::append_split`]).  Only the appended
    /// policies are compiled; everything else is reused structurally.
    ///
    /// Returns `None` — caller should fall back to a full
    /// [`CompiledPolicySet::compile`] — when the accumulated delta since the
    /// last full build grows past an eighth of its size (keeping lookup
    /// structures compact and re-amortizing the shared base).
    pub(crate) fn extend_compile(
        prev: &CompiledPolicySet,
        set: &PolicySet,
        split: usize,
    ) -> Option<Self> {
        debug_assert_eq!(split, prev.policies.len());
        if set.len() >= u32::MAX as usize {
            return None;
        }
        let accumulated = set.len() - prev.base_len;
        if accumulated > 256.max(prev.base_len / 8) {
            return None;
        }
        let mut rules = prev.rules.clone();
        for policy in set.iter_from(split) {
            rules.push(LinearRule::compile(policy));
        }
        let index = prev.index.extend(
            rules
                .iter_from(split)
                .zip(set.iter_from(split))
                .enumerate()
                .map(|(k, (r, p))| ((split + k) as u32, r.action, r.matcher, p.target())),
        );
        Some(CompiledPolicySet {
            policies: set.clone(),
            rules,
            index,
            base_len: prev.base_len,
            reused: split,
        })
    }

    /// Number of compiled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the set has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Whether the set contains any allow (whitelist) rules.
    pub fn has_whitelist(&self) -> bool {
        self.index.allow_rule_count() > 0
    }

    /// The original policy at `index` (as reported by [`CompiledVerdict`]).
    pub fn policy(&self, index: usize) -> Option<&Policy> {
        self.policies.get(index)
    }

    /// Number of compiled rules carried over from the previous generation by
    /// the incremental compile path; 0 after a full build.  Exposed so the
    /// control plane (and its regression tests) can observe that a delta
    /// commit did not rebuild unchanged index structure.
    pub fn reused_rule_count(&self) -> usize {
        self.reused
    }

    /// Evaluate against stack frames provided by index — the allocation-free
    /// core shared by the slice and enforcer entry points.  `frame(i)` must
    /// return the `i`-th innermost frame for `i < frame_count`.
    ///
    /// This is the indexed path: one tag-table probe plus
    /// `O(stack depth × package segments × log keys)` prefix probes,
    /// independent of the rule count.  Equivalent — verdict *and*
    /// attribution — to [`CompiledPolicySet::evaluate_frames_linear`].
    pub fn evaluate_frames<'s, F>(
        &self,
        app_tag: AppTag,
        frame_count: usize,
        frame: F,
    ) -> CompiledVerdict
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        // 1. Deny rules: ∃ matching rule ⇒ drop.  Tag rules attribute first;
        //    stack attribution is (minimum matching rule, its first frame),
        //    identical to the linear rule-outer/frame-inner scan order.
        let (tag_deny, tag_allow) = self.index.tag_lookup(app_tag.as_u64());
        if tag_deny != NO_RULE {
            return CompiledVerdict::Deny {
                policy: Some(tag_deny as usize),
                frame: None,
            };
        }
        let mut best = NO_RULE;
        let mut best_frame = 0usize;
        for i in 0..frame_count {
            let m = self.index.frame_deny_min(frame(i));
            if m < best {
                best = m;
                best_frame = i;
            }
        }
        if best != NO_RULE {
            return CompiledVerdict::Deny {
                policy: Some(best as usize),
                frame: Some(best_frame),
            };
        }

        // 2. Allow (whitelist) rules: if any exist, at least one must be
        //    satisfied — tag rules by the tag, stack rules by *every* frame.
        if self.index.allow_rule_count() == 0 {
            return CompiledVerdict::Allow;
        }
        if tag_allow {
            return CompiledVerdict::Allow;
        }
        if frame_count > 0 {
            // The whitelist fold assumes class names contain no `/` (true of
            // every parsed signature); hand-built outliers take the linear
            // allow pass so the indexed path never diverges from the oracle.
            let allowed = if PolicyIndex::frames_need_linear_allow(frame_count, &frame) {
                self.linear_stack_allowed(frame_count, &frame)
            } else {
                self.index.stack_allowed(frame_count, &frame)
            };
            if allowed {
                return CompiledVerdict::Allow;
            }
        }
        CompiledVerdict::Deny {
            policy: None,
            frame: None,
        }
    }

    /// The pre-index linear scan over the rule list, retained verbatim as an
    /// equivalence oracle: same verdict and same policy/frame attribution as
    /// [`CompiledPolicySet::evaluate_frames`] on every input.
    pub fn evaluate_frames_linear<'s, F>(
        &self,
        app_tag: AppTag,
        frame_count: usize,
        frame: F,
    ) -> CompiledVerdict
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        // 1. Deny rules: ∃ matching rule ⇒ drop (tag bucket first).
        for (i, (rule, _)) in self.linear_rules().enumerate() {
            if rule.action == PolicyAction::Deny
                && rule.tag_level
                && rule.matcher.matches_tag(app_tag)
            {
                return CompiledVerdict::Deny {
                    policy: Some(i),
                    frame: None,
                };
            }
        }
        for (i, (rule, target)) in self.linear_rules().enumerate() {
            if rule.action == PolicyAction::Deny && !rule.tag_level {
                if let Some(hit) =
                    (0..frame_count).find(|&f| rule.matcher.matches_signature(target, frame(f)))
                {
                    return CompiledVerdict::Deny {
                        policy: Some(i),
                        frame: Some(hit),
                    };
                }
            }
        }

        // 2. Allow (whitelist) rules.
        if !self.rules.iter().any(|r| r.action == PolicyAction::Allow) {
            return CompiledVerdict::Allow;
        }
        if self.rules.iter().any(|rule| {
            rule.action == PolicyAction::Allow
                && rule.tag_level
                && rule.matcher.matches_tag(app_tag)
        }) {
            return CompiledVerdict::Allow;
        }
        if frame_count > 0 && self.linear_stack_allowed(frame_count, &frame) {
            return CompiledVerdict::Allow;
        }
        CompiledVerdict::Deny {
            policy: None,
            frame: None,
        }
    }

    /// Linear form of the whitelist stack pass: some stack-level allow rule
    /// is matched by every frame.
    fn linear_stack_allowed<'s, F>(&self, frame_count: usize, frame: &F) -> bool
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        self.linear_rules().any(|(rule, target)| {
            rule.action == PolicyAction::Allow
                && !rule.tag_level
                && (0..frame_count).all(|f| rule.matcher.matches_signature(target, frame(f)))
        })
    }

    /// Every compiled rule in policy order beside the target its spans
    /// resolve against.
    fn linear_rules(&self) -> impl Iterator<Item = (&LinearRule, &str)> {
        self.rules
            .iter()
            .zip(self.policies.iter().map(Policy::target))
    }

    /// Evaluate a decoded stack slice; same semantics as
    /// [`PolicySet::evaluate`].
    pub fn evaluate(&self, app_tag: AppTag, stack: &[MethodSignature]) -> Decision {
        let verdict = self.evaluate_frames(app_tag, stack.len(), |i| &stack[i]);
        self.verdict_to_decision(verdict, |i| &stack[i])
    }

    /// Render a [`CompiledVerdict`] into the interpretive [`Decision`] form,
    /// reproducing the same policy attribution and reason strings.
    pub fn verdict_to_decision<'s, F>(&self, verdict: CompiledVerdict, frame: F) -> Decision
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        let CompiledVerdict::Deny { policy, .. } = verdict else {
            return Decision::Allow;
        };
        let mut reason = String::new();
        verdict.write_reason(frame, &mut reason);
        Decision::Deny {
            policy: policy.map(|index| {
                self.policies
                    .get(index)
                    .expect("verdict policy index in range")
                    .clone()
            }),
            reason,
        }
    }
}

impl From<&PolicySet> for CompiledPolicySet {
    fn from(set: &PolicySet) -> Self {
        CompiledPolicySet::compile(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::ApkHash;
    use proptest::prelude::*;

    fn sig(s: &str) -> MethodSignature {
        s.parse().unwrap()
    }

    fn flurry_stack() -> Vec<MethodSignature> {
        vec![
            sig("Ljava/net/Socket;->connect(Ljava/net/SocketAddress;)V"),
            sig("Lcom/flurry/sdk/Transport;->send(Ljava/lang/String;)V"),
            sig("Lcom/flurry/sdk/Agent;->onSessionStart(Landroid/content/Context;)V"),
            sig("Lcom/example/app/MainActivity;->onResume()V"),
        ]
    }

    fn dropbox_upload_stack() -> Vec<MethodSignature> {
        vec![
            sig("Ljava/net/Socket;->connect(Ljava/net/SocketAddress;)V"),
            sig("Lcom/dropbox/core/DbxRequestUtil;->doPut(Ljava/lang/String;)Lcom/dropbox/core/http/HttpRequestor$Response;"),
            sig("Lcom/dropbox/android/taskqueue/UploadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult;"),
            sig("Lcom/dropbox/android/BrowserActivity;->onUploadSelected()V"),
        ]
    }

    fn tag(seed: &[u8]) -> AppTag {
        ApkHash::digest(seed).tag()
    }

    #[test]
    fn parse_paper_examples() {
        // Example 1: library level.
        let p: Policy = r#"{[deny][library]["com/flurry"]}"#.parse().unwrap();
        assert_eq!(p.action(), PolicyAction::Deny);
        assert_eq!(p.level(), EnforcementLevel::Library);
        assert_eq!(p.target(), "com/flurry");

        // Example 2: class level.
        let p: Policy = r#"{[deny][class]["com/google/gms"]}"#.parse().unwrap();
        assert_eq!(p.level(), EnforcementLevel::Class);

        // Example 3: method level (Dropbox UploadTask).
        let p: Policy = r#"{[deny][method]["Lcom/dropbox/android/taskqueue/UploadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult"]}"#
            .parse()
            .unwrap();
        assert_eq!(p.level(), EnforcementLevel::Method);

        // Example 4: hash-level whitelist.
        let p: Policy = r#"{[allow][hash]["da6880ab1f9919747d39e2bd895b95a5"]}"#
            .parse()
            .unwrap();
        assert_eq!(p.action(), PolicyAction::Allow);
        assert_eq!(p.level(), EnforcementLevel::Hash);
    }

    #[test]
    fn parse_rejects_malformed_policies() {
        for bad in [
            "",
            "deny library com/flurry",
            "{[deny][library]}",
            "{[deny][library][\"\"]}",
            "{[maybe][library][\"x\"]}",
            "{[deny][package][\"x\"]}",
            "{[deny][library][\"x\"]",
            "[deny][library][\"x\"]",
        ] {
            assert!(bad.parse::<Policy>().is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let policies = [
            Policy::deny(EnforcementLevel::Library, "com/flurry"),
            Policy::allow(EnforcementLevel::Hash, "da6880ab1f991974"),
            Policy::deny(
                EnforcementLevel::Method,
                "Lcom/dropbox/android/taskqueue/UploadTask;->c",
            ),
        ];
        for p in policies {
            let reparsed: Policy = p.to_string().parse().unwrap();
            assert_eq!(reparsed, p);
        }
    }

    #[test]
    fn policy_set_parse_skips_comments_and_blank_lines() {
        let text = r#"
            // Example 1: prevent ad library connections
            {[deny][library]["com/flurry"]}

            // whitelist the business app
            {[allow][hash]["da6880ab1f9919747d39e2bd895b95a5"]}
        "#;
        let set = PolicySet::parse(text).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.has_whitelist());
        let rendered = set.to_text();
        assert!(rendered.contains("com/flurry"));
    }

    #[test]
    fn deny_library_blocks_flurry_but_not_dropbox() {
        let set =
            PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Library, "com/flurry")]);
        assert!(!set.evaluate(tag(b"app"), &flurry_stack()).is_allow());
        assert!(set
            .evaluate(tag(b"app"), &dropbox_upload_stack())
            .is_allow());
    }

    #[test]
    fn deny_method_blocks_upload_but_not_download() {
        let set = PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Method,
            "Lcom/dropbox/android/taskqueue/UploadTask;->c",
        )]);
        assert!(!set
            .evaluate(tag(b"dropbox"), &dropbox_upload_stack())
            .is_allow());

        let download_stack = vec![
            sig("Ljava/net/Socket;->connect(Ljava/net/SocketAddress;)V"),
            sig("Lcom/dropbox/android/taskqueue/DownloadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult;"),
        ];
        assert!(set.evaluate(tag(b"dropbox"), &download_stack).is_allow());
    }

    #[test]
    fn deny_class_blocks_whole_package_tree() {
        let set = PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Class,
            "com/google/gms",
        )]);
        let stack = vec![sig(
            "Lcom/google/gms/analytics/Tracker;->send(Ljava/util/Map;)V",
        )];
        assert!(!set.evaluate(tag(b"x"), &stack).is_allow());
    }

    #[test]
    fn hash_policies_match_the_app_tag() {
        let the_tag = tag(b"corporate-app");
        let deny_set =
            PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Hash, the_tag.to_hex())]);
        assert!(!deny_set
            .evaluate(the_tag, &dropbox_upload_stack())
            .is_allow());
        assert!(deny_set
            .evaluate(tag(b"other-app"), &dropbox_upload_stack())
            .is_allow());
    }

    #[test]
    fn whitelist_requires_all_frames_to_match() {
        // Paper semantics: allow iff ∀ s match the target at level ≥ L.
        let set =
            PolicySet::from_policies(vec![Policy::allow(EnforcementLevel::Library, "com/flurry")]);
        // Mixed stack (app + flurry frames): not all frames match ⇒ deny.
        assert!(!set.evaluate(tag(b"a"), &flurry_stack()).is_allow());
        // Pure flurry stack ⇒ allow.
        let pure: Vec<MethodSignature> = flurry_stack()
            .into_iter()
            .filter(|s| s.package().starts_with("com/flurry"))
            .collect();
        assert!(set.evaluate(tag(b"a"), &pure).is_allow());
        // Empty stack can never satisfy a signature whitelist.
        assert!(!set.evaluate(tag(b"a"), &[]).is_allow());
    }

    #[test]
    fn hash_whitelist_admits_only_that_app() {
        let corporate = tag(b"corporate");
        let set = PolicySet::from_policies(vec![Policy::allow(
            EnforcementLevel::Hash,
            corporate.to_hex(),
        )]);
        assert!(set.evaluate(corporate, &dropbox_upload_stack()).is_allow());
        assert!(!set
            .evaluate(tag(b"game"), &dropbox_upload_stack())
            .is_allow());
    }

    #[test]
    fn deny_takes_precedence_over_whitelist() {
        let corporate = tag(b"corporate");
        let set = PolicySet::from_policies(vec![
            Policy::allow(EnforcementLevel::Hash, corporate.to_hex()),
            Policy::deny(EnforcementLevel::Library, "com/flurry"),
        ]);
        assert!(!set.evaluate(corporate, &flurry_stack()).is_allow());
        assert!(set.evaluate(corporate, &dropbox_upload_stack()).is_allow());
    }

    #[test]
    fn empty_set_allows_everything() {
        let set = PolicySet::new();
        assert!(set.is_empty());
        assert!(set.evaluate(tag(b"x"), &flurry_stack()).is_allow());
        assert!(set.evaluate(tag(b"x"), &[]).is_allow());
    }

    #[test]
    fn decision_reports_the_matching_policy() {
        let set =
            PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Library, "com/flurry")]);
        match set.evaluate(tag(b"x"), &flurry_stack()) {
            Decision::Deny {
                policy: Some(policy),
                reason,
            } => {
                assert_eq!(policy.target(), "com/flurry");
                assert!(reason.contains("com/flurry"));
            }
            other => panic!("expected deny with policy, got {other:?}"),
        }
    }

    #[test]
    fn from_iterator_collects() {
        let set: PolicySet = vec![Policy::deny(EnforcementLevel::Library, "com/mopub")]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 1);
    }

    /// Exhaustive scenario sweep: compiled evaluation must agree with the
    /// interpretive evaluation on every decision.
    #[test]
    fn compiled_set_agrees_with_interpretive_evaluation() {
        let corporate = tag(b"corporate");
        let sets = vec![
            PolicySet::new(),
            PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Library, "com/flurry")]),
            PolicySet::from_policies(vec![Policy::deny(
                EnforcementLevel::Method,
                "Lcom/dropbox/android/taskqueue/UploadTask;->c",
            )]),
            PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Class, "com/google/gms")]),
            PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Hash, corporate.to_hex())]),
            PolicySet::from_policies(vec![Policy::allow(EnforcementLevel::Library, "com/flurry")]),
            PolicySet::from_policies(vec![Policy::allow(EnforcementLevel::Hash, corporate.to_hex())]),
            PolicySet::from_policies(vec![
                Policy::allow(EnforcementLevel::Hash, corporate.to_hex()),
                Policy::deny(EnforcementLevel::Library, "com/flurry"),
            ]),
            PolicySet::from_policies(vec![
                Policy::deny(EnforcementLevel::Method, "Lcom/dropbox/android/taskqueue/UploadTask;->c()"),
                Policy::deny(
                    EnforcementLevel::Method,
                    "Lcom/dropbox/android/taskqueue/UploadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult;",
                ),
            ]),
        ];
        let stacks: Vec<Vec<MethodSignature>> = vec![
            vec![],
            flurry_stack(),
            dropbox_upload_stack(),
            vec![sig(
                "Lcom/google/gms/analytics/Tracker;->send(Ljava/util/Map;)V",
            )],
            flurry_stack()
                .into_iter()
                .filter(|s| s.package().starts_with("com/flurry"))
                .collect(),
        ];
        for set in &sets {
            let compiled = set.compile();
            assert_eq!(compiled.len(), set.len());
            assert_eq!(compiled.has_whitelist(), set.has_whitelist());
            for stack in &stacks {
                for t in [corporate, tag(b"other")] {
                    let interpreted = set.evaluate(t, stack);
                    let fast = compiled.evaluate(t, stack);
                    assert_eq!(
                        interpreted.is_allow(),
                        fast.is_allow(),
                        "set {:?} stack {:?}",
                        set.to_text(),
                        stack
                    );
                }
            }
        }
    }

    /// With a single policy, the compiled path must also reproduce the exact
    /// attribution and reason strings.
    #[test]
    fn compiled_set_reproduces_attribution_for_single_policies() {
        let the_tag = tag(b"corporate");
        let cases = vec![
            Policy::deny(EnforcementLevel::Library, "com/flurry"),
            Policy::deny(EnforcementLevel::Class, "com/flurry/sdk"),
            Policy::deny(EnforcementLevel::Method, "Lcom/flurry/sdk/Transport;->send"),
            Policy::deny(EnforcementLevel::Hash, the_tag.to_hex()),
            Policy::allow(EnforcementLevel::Library, "com/dropbox"),
        ];
        for policy in cases {
            let set = PolicySet::from_policies(vec![policy]);
            let compiled = set.compile();
            for stack in [flurry_stack(), dropbox_upload_stack(), vec![]] {
                assert_eq!(
                    set.evaluate(the_tag, &stack),
                    compiled.evaluate(the_tag, &stack),
                    "set {}",
                    set.to_text()
                );
            }
        }
    }

    #[test]
    fn compiled_hash_rules_match_full_and_truncated_hashes() {
        let full = ApkHash::digest(b"corp-apk");
        let the_tag = full.tag();
        for target in [
            the_tag.to_hex(),
            full.to_hex(),
            full.to_hex().to_uppercase(),
        ] {
            let set = PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Hash, target)]);
            let compiled = set.compile();
            assert!(!compiled.evaluate(the_tag, &[]).is_allow());
            assert!(compiled.evaluate(tag(b"other"), &[]).is_allow());
        }
        // Non-hex and too-short targets never match (same as interpretive).
        for target in ["zz", "da68", ""] {
            let set = PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Hash, target)]);
            assert!(set.compile().evaluate(the_tag, &[]).is_allow());
            assert!(set.evaluate(the_tag, &[]).is_allow());
        }
    }

    /// The hex decoder hash targets were compiled with before it decoded in
    /// place: collect the digits, then the bytes.
    fn collecting_from_hex(s: &str) -> Option<AppTag> {
        if s.len() % 2 != 0 {
            return None;
        }
        let digits: Vec<u32> = s.chars().map(|c| c.to_digit(16)).collect::<Option<_>>()?;
        let bytes: Vec<u8> = digits
            .chunks(2)
            .map(|p| ((p[0] << 4) | p[1]) as u8)
            .collect();
        Some(AppTag::from_bytes(bytes.try_into().ok()?))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The hash matcher decodes the target's first 16 bytes in place, in
        /// either case; it must accept exactly the targets whose lowercased
        /// first 16 characters decoded, to the same tag.
        #[test]
        fn hash_matcher_decodes_like_the_lowercased_prefix(
            hex in "[0-9a-fA-F]{0,20}",
            rest in "[0-9a-zA-Z/ éß日]{0,20}",
        ) {
            let target = hex + &rest;
            let oracle = target
                .to_ascii_lowercase()
                .get(..16)
                .and_then(collecting_from_hex);
            prop_assert_eq!(
                CompiledMatcher::compile(EnforcementLevel::Hash, &target),
                CompiledMatcher::Hash(oracle)
            );
        }
    }

    #[test]
    fn compiled_deny_checks_tag_rules_before_stack_rules() {
        let the_tag = tag(b"app");
        let set = PolicySet::from_policies(vec![
            Policy::deny(EnforcementLevel::Library, "com/flurry"),
            Policy::deny(EnforcementLevel::Hash, the_tag.to_hex()),
        ]);
        // Both rules match: the interpretive path reports the library rule
        // (insertion order), the compiled path the hash rule (tag bucket
        // first) — the decision itself is identical.
        let interpreted = set.evaluate(the_tag, &flurry_stack());
        let fast = set.compile().evaluate(the_tag, &flurry_stack());
        assert!(!interpreted.is_allow());
        assert!(!fast.is_allow());
        match fast {
            Decision::Deny {
                policy: Some(policy),
                ..
            } => {
                assert_eq!(policy.level(), EnforcementLevel::Hash);
            }
            other => panic!("expected attributed deny, got {other:?}"),
        }
    }

    #[test]
    fn compiled_verdict_exposes_policy_and_frame_indexes() {
        let set = PolicySet::from_policies(vec![
            Policy::deny(EnforcementLevel::Library, "com/none"),
            Policy::deny(EnforcementLevel::Library, "com/flurry"),
        ]);
        let compiled = set.compile();
        let stack = flurry_stack();
        let verdict = compiled.evaluate_frames(tag(b"x"), stack.len(), |i| &stack[i]);
        match verdict {
            CompiledVerdict::Deny {
                policy: Some(1),
                frame: Some(frame),
            } => {
                assert!(stack[frame].package().starts_with("com/flurry"));
            }
            other => panic!("expected deny by policy 1, got {other:?}"),
        }
        assert!(!verdict.is_allow());
        assert_eq!(compiled.policy(1).unwrap().target(), "com/flurry");
    }
}
