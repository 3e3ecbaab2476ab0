//! Indexed match-action tables for compiled policy evaluation.
//!
//! [`crate::policy::CompiledPolicySet`] historically evaluated packets by
//! scanning four rule buckets linearly, so per-packet cost grew with the rule
//! count.  This module lowers a compiled rule list into flat tables — the
//! software analogue of a switch's match-action pipeline — so per-packet cost
//! depends on the *stack depth* of the packet, not on how many rules the
//! fleet has accumulated:
//!
//! * **Tag table** — open-addressed hash table from the app tag's `u64` form
//!   to the minimum-index deny rule and an allow flag.  Hash-level rules
//!   resolve in one probe, allocation-free.
//! * **Prefix table** — one sorted array of interned target keys (normalized
//!   package prefixes, class paths, and `class/method` descriptor heads),
//!   probed through an open-addressed exact-key accelerator: a probe hashes
//!   its bytes once and lands on the row in O(1), independent of the key
//!   count (the sorted order remains load-bearing — it drives the
//!   incremental merge and the debug-assertion binary-search oracle).  A
//!   stack frame generates one probe per package segment boundary plus one
//!   for its qualified class and one for its method head, and a **root
//!   filter** (the set of every key's first path segment) rejects whole
//!   frames in one tiny-table probe when their namespace heads no rule at
//!   all — the common case in large fleets, where most frames belong to app
//!   code no policy names.
//! * **Method arena** — descriptor-level rules chained per key (several
//!   overloads may share a `class/method` head), with parameter/return
//!   constraints checked only after an exact key hit.
//! * **Verbatim residue** — the rare method targets that do not decompose
//!   into descriptor components (unbalanced parentheses) stay on a linear
//!   path; real policy corpora have none.
//!
//! The tables preserve the linear scan's semantics *exactly*, including
//! attribution: deny verdicts report the minimum matching rule index per
//! bucket (equal to first-match in insertion order), and whitelist
//! quantification ("some allow rule matches every frame") is answered via
//! the longest common segment-boundary prefix of the stack.
//! `CompiledPolicySet` keeps the linear evaluator as an equivalence oracle;
//! the proptest suite drives both and demands identical verdicts and
//! attribution.
//!
//! All row types are plain-old-data over an interned key store (`Arc`-shared
//! string blob plus a spill list for incrementally added keys), so cloning an
//! index for an incremental extension is a handful of `memcpy`s and `Arc`
//! bumps — the property [`PolicyIndex::extend`] exploits to make a one-rule
//! delta commit near-constant-time on a 100k-rule set.

use std::cmp::Ordering;
use std::sync::Arc;

use bp_types::{EnforcementLevel, MethodSignature};

use crate::policy::{CompiledMatcher, PolicyAction};

/// Sentinel for "no rule"; real rule indexes are bounded far under
/// `u32::MAX`, which `CompiledPolicySet::compile` enforces.
pub(crate) const NO_RULE: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Interned keys
// ---------------------------------------------------------------------------

/// A reference into a [`KeyStore`]: either an `(offset, len)` slice of the
/// shared blob, or a spill-list index for keys added by an incremental
/// extension.  `KeyRef::NONE` encodes an absent optional string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyRef {
    a: u32,
    b: u32,
}

impl KeyRef {
    const NONE: KeyRef = KeyRef {
        a: u32::MAX,
        b: u32::MAX,
    };

    fn is_none(self) -> bool {
        self == KeyRef::NONE
    }

    /// The text of a blob reference.
    fn in_blob(self, blob: &str) -> &str {
        &blob[self.a as usize..(self.a + self.b) as usize]
    }
}

/// Interned string storage: a single `Arc` blob built at full compilation
/// (so a clone shares it) plus per-string spill entries for keys appended by
/// incremental extensions.
#[derive(Debug, Clone)]
struct KeyStore {
    blob: Arc<str>,
    spill: Vec<Arc<str>>,
}

impl Default for KeyStore {
    fn default() -> Self {
        KeyStore {
            blob: Arc::from(""),
            spill: Vec::new(),
        }
    }
}

impl KeyStore {
    fn resolve(&self, r: KeyRef) -> &str {
        if r.a == u32::MAX {
            &self.spill[r.b as usize]
        } else {
            r.in_blob(&self.blob)
        }
    }

    fn resolve_opt(&self, r: KeyRef) -> Option<&str> {
        if r.is_none() {
            None
        } else {
            Some(self.resolve(r))
        }
    }

    /// Append `s` to the spill list (incremental-extension path).
    fn spill(&mut self, s: &str) -> KeyRef {
        let index = self.spill.len() as u32;
        debug_assert!(index != u32::MAX, "spill list full");
        self.spill.push(Arc::from(s));
        KeyRef {
            a: u32::MAX,
            b: index,
        }
    }
}

// ---------------------------------------------------------------------------
// Tag table
// ---------------------------------------------------------------------------

/// One open-addressed slot of the tag table.
#[derive(Debug, Clone, Copy)]
struct TagSlot {
    tag: u64,
    deny: u32,
    allow: bool,
    used: bool,
}

const EMPTY_SLOT: TagSlot = TagSlot {
    tag: 0,
    deny: NO_RULE,
    allow: false,
    used: false,
};

/// Open-addressed hash table keyed by the app tag's `u64` form.  Kept at
/// load factor ≤ 1/2; lookups are allocation-free and probe linearly.
#[derive(Debug, Clone, Default)]
struct TagTable {
    slots: Vec<TagSlot>,
    used: usize,
}

/// SplitMix64-style finalizer: tags are cryptographic-hash prefixes already,
/// but the mixer keeps the table robust against adversarially aligned tags.
fn mix(tag: u64) -> u64 {
    let mut x = tag;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice; [`VBytes::hash_prefix`] computes the identical
/// hash over a virtual string, so the two sides of a probe agree.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One slot of [`KeyLookup`]: a key's byte hash plus its position in the
/// sorted prefix array (`NO_RULE` = empty slot).
#[derive(Debug, Clone, Copy)]
struct LookupSlot {
    hash: u64,
    index: u32,
}

/// Open-addressed exact-match accelerator over the sorted prefix table:
/// maps the FNV-1a hash of a key's bytes to its array position, so a probe
/// costs one hash plus O(1) slot loads instead of a binary search — the
/// table stays flat from 3 to 100k keys.  Keys are unique (the classifier
/// aggregates per key), so no duplicate handling is needed.
#[derive(Debug, Clone, Default)]
struct KeyLookup {
    slots: Vec<LookupSlot>,
}

impl KeyLookup {
    /// An empty table sized for `len` keys at load factor ≤ 1/2.
    fn with_capacity(len: usize) -> Self {
        let capacity = (len * 2).next_power_of_two().max(8);
        KeyLookup {
            slots: vec![
                LookupSlot {
                    hash: 0,
                    index: NO_RULE,
                };
                capacity
            ],
        }
    }

    fn insert(&mut self, hash: u64, index: u32) {
        debug_assert!(index != NO_RULE);
        let mask = self.slots.len() - 1;
        let mut i = mix(hash) as usize & mask;
        while self.slots[i].index != NO_RULE {
            i = (i + 1) & mask;
        }
        self.slots[i] = LookupSlot { hash, index };
    }

    /// First stored position whose hash equals `hash` and whose key the
    /// caller confirms byte-exactly via `matches`.
    fn find(&self, hash: u64, mut matches: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(hash) as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.index == NO_RULE {
                return None;
            }
            if slot.hash == hash && matches(slot.index) {
                return Some(slot.index);
            }
            i = (i + 1) & mask;
        }
    }
}

/// Open-addressed set of the FNV-1a hash of every table key's first path
/// segment (its bytes before the first `/`).  Every probe string a frame
/// generates is a `/`-boundary prefix of its `pkg/Class/method` string, so
/// they all share that string's first segment: one miss here proves no
/// table key can match the frame and the whole probe cascade is skipped.
/// The set holds one entry per distinct rule *namespace* (a handful, even
/// at 100k rules), so the probe is effectively an L1 load.
#[derive(Debug, Clone, Default)]
struct RootFilter {
    /// `0` = empty slot; stored hashes are remapped away from 0.
    slots: Vec<u64>,
    used: usize,
}

impl RootFilter {
    fn nonzero(hash: u64) -> u64 {
        if hash == 0 {
            1
        } else {
            hash
        }
    }

    fn insert(&mut self, hash: u64) {
        let hash = Self::nonzero(hash);
        if (self.used + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(hash) as usize & mask;
        loop {
            if self.slots[i] == 0 {
                self.slots[i] = hash;
                self.used += 1;
                return;
            }
            if self.slots[i] == hash {
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![0; capacity]);
        self.used = 0;
        for hash in old {
            if hash != 0 {
                self.insert(hash);
            }
        }
    }

    fn contains(&self, hash: u64) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let hash = Self::nonzero(hash);
        let mask = self.slots.len() - 1;
        let mut i = mix(hash) as usize & mask;
        loop {
            if self.slots[i] == 0 {
                return false;
            }
            if self.slots[i] == hash {
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Fold `key`'s first path segment into the set.
    fn insert_root_of(&mut self, key: &str) {
        let bytes = key.as_bytes();
        let end = bytes.iter().position(|&b| b == b'/').unwrap_or(bytes.len());
        self.insert(hash_bytes(&bytes[..end]));
    }
}

impl TagTable {
    /// An empty table that holds `len` tags at load factor ≤ 1/2 without
    /// growing.
    fn with_capacity(len: usize) -> Self {
        if len == 0 {
            return TagTable::default();
        }
        TagTable {
            slots: vec![EMPTY_SLOT; (len * 2).next_power_of_two().max(8)],
            used: 0,
        }
    }

    /// `(minimum-index deny rule or NO_RULE, any allow rule)` for `tag`.
    fn lookup(&self, tag: u64) -> (u32, bool) {
        if self.slots.is_empty() {
            return (NO_RULE, false);
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(tag) as usize & mask;
        loop {
            let slot = self.slots[i];
            if !slot.used {
                return (NO_RULE, false);
            }
            if slot.tag == tag {
                return (slot.deny, slot.allow);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, tag: u64, deny: u32, allow: bool) {
        if (self.used + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(tag) as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            if !slot.used {
                *slot = TagSlot {
                    tag,
                    deny,
                    allow,
                    used: true,
                };
                self.used += 1;
                return;
            }
            if slot.tag == tag {
                // Minimum index = first match in insertion order.
                slot.deny = slot.deny.min(deny);
                slot.allow |= allow;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; capacity]);
        self.used = 0;
        for slot in old {
            if slot.used {
                self.insert(slot.tag, slot.deny, slot.allow);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prefix table + method arena + verbatim residue
// ---------------------------------------------------------------------------

/// One sorted-table row: an interned key plus every match role the key plays.
/// A single key can simultaneously be a library prefix, a class path and a
/// `class/method` descriptor head (the roles are disjoint flag/field sets).
#[derive(Debug, Clone, Copy)]
struct PrefixEntry {
    key: KeyRef,
    /// FNV-1a hash of the key bytes — the [`KeyLookup`] stored hash, kept
    /// on the row so incremental merges rebuild the accelerator without
    /// re-hashing every key.
    hash: u64,
    /// Minimum-index deny rule using the key as a library prefix.
    deny_lib: u32,
    /// Minimum-index deny rule using the key as a class path.
    deny_class: u32,
    /// Head of the [`MethodRule`] chain for this `class/method` key.
    method_head: u32,
    allow_lib: bool,
    allow_class: bool,
}

/// One descriptor-level rule, chained per `class/method` key (overloads and
/// repeated rules share a key).  `class_len` disambiguates keys whose method
/// name itself contains `/`: an exact key hit plus an equal split point
/// implies component-wise equality.
#[derive(Debug, Clone, Copy)]
struct MethodRule {
    policy: u32,
    class_len: u32,
    /// Parameter constraint; `NONE` = target omitted the parameter list.
    params: KeyRef,
    /// Return constraint; `NONE` = target omitted the return type.
    ret: KeyRef,
    next: u32,
    allow: bool,
}

/// A method rule whose target does not decompose into descriptor components;
/// matched by the verbatim string comparisons of the interpretive path.
#[derive(Debug, Clone, Copy)]
struct VerbatimRule {
    policy: u32,
    target: KeyRef,
    allow: bool,
}

// ---------------------------------------------------------------------------
// Virtual byte strings (qualified class paths without materializing them)
// ---------------------------------------------------------------------------

/// A probe key assembled from up to five borrowed parts, compared against
/// table keys byte-wise without concatenating.  Models the virtual strings
/// `pkg`, `pkg/Class` and `pkg/Class/method`.
#[derive(Clone, Copy)]
struct VBytes<'a> {
    parts: [&'a [u8]; 5],
    n: usize,
}

impl<'a> VBytes<'a> {
    fn single(s: &'a [u8]) -> Self {
        VBytes {
            parts: [s, b"", b"", b"", b""],
            n: 1,
        }
    }

    /// The virtual qualified class `pkg/Class` (just `Class` when the
    /// package is empty — mirroring `MethodSignature::qualified_class`).
    fn qualified(pkg: &'a str, class: &'a str) -> Self {
        if pkg.is_empty() {
            VBytes::single(class.as_bytes())
        } else {
            VBytes {
                parts: [pkg.as_bytes(), b"/", class.as_bytes(), b"", b""],
                n: 3,
            }
        }
    }

    /// The virtual descriptor head `pkg/Class/method` (mirroring the
    /// `{class_path}/{method}` table keys of descriptor-level rules).
    fn method_key(pkg: &'a str, class: &'a str, method: &'a str) -> Self {
        if pkg.is_empty() {
            VBytes {
                parts: [class.as_bytes(), b"/", method.as_bytes(), b"", b""],
                n: 3,
            }
        } else {
            VBytes {
                parts: [
                    pkg.as_bytes(),
                    b"/",
                    class.as_bytes(),
                    b"/",
                    method.as_bytes(),
                ],
                n: 5,
            }
        }
    }

    fn len(&self) -> usize {
        self.parts[..self.n].iter().map(|p| p.len()).sum()
    }

    fn byte(&self, mut i: usize) -> u8 {
        for part in &self.parts[..self.n] {
            if i < part.len() {
                return part[i];
            }
            i -= part.len();
        }
        unreachable!("VBytes index out of range")
    }

    /// Lexicographic comparison of the first `upto` bytes of `self` against
    /// `key` (a full table key).
    fn cmp_prefix(&self, upto: usize, key: &[u8]) -> Ordering {
        let mut i = 0usize;
        let mut remaining = upto;
        for part in &self.parts[..self.n] {
            for &b in part.iter().take(remaining) {
                if i == key.len() {
                    return Ordering::Greater;
                }
                match b.cmp(&key[i]) {
                    Ordering::Equal => i += 1,
                    other => return other,
                }
            }
            remaining = remaining.saturating_sub(part.len());
            if remaining == 0 {
                break;
            }
        }
        if i == key.len() {
            Ordering::Equal
        } else {
            Ordering::Less
        }
    }

    /// FNV-1a over the first `upto` bytes — identical to [`hash_bytes`] of
    /// the materialized prefix, so probe and table agree.
    fn hash_prefix(&self, upto: usize) -> u64 {
        let mut h = FNV_OFFSET;
        let mut remaining = upto;
        for part in &self.parts[..self.n] {
            for &b in part.iter().take(remaining) {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            remaining = remaining.saturating_sub(part.len());
            if remaining == 0 {
                break;
            }
        }
        h
    }

    /// Bytes before the first `/` (the whole string when it has none) — the
    /// first path segment, which every `/`-boundary prefix shares.
    fn first_segment_len(&self) -> usize {
        let n = self.len();
        (0..n).find(|&i| self.byte(i) == b'/').unwrap_or(n)
    }
}

/// Byte equality of two full virtual strings.
fn vbytes_eq(a: &VBytes<'_>, b: &VBytes<'_>) -> bool {
    let n = a.len();
    n == b.len() && (0..n).all(|i| a.byte(i) == b.byte(i))
}

// ---------------------------------------------------------------------------
// Rule classification (shared by build and extend)
// ---------------------------------------------------------------------------

/// One rule as the index builders consume it: `(rule index, action, matcher,
/// the target the matcher's spans resolve against)`.
pub(crate) type IndexedRule<'m> = (u32, PolicyAction, CompiledMatcher, &'m str);

/// The role a stack-level rule gives its key.
#[derive(Clone, Copy)]
enum KeyRole {
    Library,
    Class,
    /// A descriptor-level rule whose key is its `class/method` head.
    Method {
        class_len: u32,
        params: KeyRef,
        ret: KeyRef,
    },
}

/// One stack-level rule, its key copied into the classifier's blob.
#[derive(Clone, Copy)]
struct KeyedRule {
    key: KeyRef,
    /// FNV-1a hash of the key bytes, taken while they are hot.
    hash: u64,
    policy: u32,
    allow: bool,
    role: KeyRole,
}

/// The classified rule stream both [`PolicyIndex::build`] and
/// [`PolicyIndex::extend`] aggregate from.  Every string the tables need —
/// keys, `class/method` heads, parameter and return constraints, verbatim
/// targets — is copied once into `blob`, which is sized up front, and the
/// keyed rules are sorted by key bytes so the rules of one key lie side by
/// side, in policy order (the sort is stable).
struct Classified {
    blob: String,
    keyed: Vec<KeyedRule>,
    tags: Vec<(u64, u32, bool)>,
    verbatim: Vec<VerbatimRule>,
    class_empty_deny: u32,
    class_empty_allow: bool,
    allow_rules: u32,
}

impl Classified {
    fn from_rules<'m>(rules: impl Iterator<Item = IndexedRule<'m>> + Clone) -> Self {
        // One pass over the targets sizes every buffer — no string the
        // blob takes is longer than the target it came from — so classifying
        // allocates a fixed handful of times whatever the rule count.
        let (count, bytes) = rules.clone().fold((0, 0), |(count, bytes), (.., target)| {
            (count + 1, bytes + target.len())
        });
        let mut c = Classified {
            blob: String::with_capacity(bytes),
            keyed: Vec::with_capacity(count),
            tags: Vec::with_capacity(count),
            verbatim: Vec::new(),
            class_empty_deny: NO_RULE,
            class_empty_allow: false,
            allow_rules: 0,
        };
        for (policy, action, matcher, target) in rules {
            let allow = action == PolicyAction::Allow;
            if allow {
                // Every allow rule — even an unmatchable one — switches the
                // set into whitelist mode, exactly like the linear buckets.
                c.allow_rules += 1;
            }
            let (key, role) = match matcher {
                CompiledMatcher::Hash(Some(tag)) => {
                    c.tags.push((tag.as_u64(), policy, allow));
                    continue;
                }
                CompiledMatcher::Hash(None) | CompiledMatcher::Never => continue,
                CompiledMatcher::Library(prefix) => {
                    if prefix.is_empty() {
                        // `segment_prefix` rejects empty prefixes: unmatchable.
                        continue;
                    }
                    (c.intern(&[prefix.get(target)]), KeyRole::Library)
                }
                CompiledMatcher::Class(path) => {
                    if path.is_empty() {
                        // Matches only frames whose package and class are
                        // both empty — kept as a scalar, not a table key.
                        if allow {
                            c.class_empty_allow = true;
                        } else {
                            c.class_empty_deny = c.class_empty_deny.min(policy);
                        }
                        continue;
                    }
                    (c.intern(&[path.get(target)]), KeyRole::Class)
                }
                CompiledMatcher::Method {
                    class_path,
                    method,
                    params,
                    ret,
                } => {
                    let key = c.intern(&[class_path.get(target), "/", method.get(target)]);
                    let role = KeyRole::Method {
                        class_len: class_path.len() as u32,
                        params: params.map_or(KeyRef::NONE, |p| c.intern(&[p.get(target)])),
                        ret: ret.map_or(KeyRef::NONE, |r| c.intern(&[r.get(target)])),
                    };
                    (key, role)
                }
                CompiledMatcher::MethodVerbatim(raw) => {
                    let target = c.intern(&[raw.get(target)]);
                    c.verbatim.push(VerbatimRule {
                        policy,
                        target,
                        allow,
                    });
                    continue;
                }
            };
            c.keyed.push(KeyedRule {
                key,
                hash: hash_bytes(key.in_blob(&c.blob).as_bytes()),
                policy,
                allow,
                role,
            });
        }
        let blob = c.blob.as_str();
        c.keyed
            .sort_by(|a, b| a.key.in_blob(blob).cmp(b.key.in_blob(blob)));
        c
    }

    /// Append the concatenation of `parts` to the blob.
    fn intern(&mut self, parts: &[&str]) -> KeyRef {
        let a = self.blob.len() as u32;
        for part in parts {
            self.blob.push_str(part);
        }
        debug_assert!(self.blob.len() < u32::MAX as usize, "key blob overflow");
        KeyRef {
            a,
            b: self.blob.len() as u32 - a,
        }
    }

    fn resolve(&self, r: KeyRef) -> &str {
        r.in_blob(&self.blob)
    }

    /// The keyed rules grouped by key, in key order.
    fn groups(&self) -> impl Iterator<Item = (&str, &[KeyedRule])> {
        self.keyed
            .chunk_by(|a, b| a.hash == b.hash && self.resolve(a.key) == self.resolve(b.key))
            .map(|group| (self.resolve(group[0].key), group))
    }
}

impl PrefixEntry {
    /// A row for `key` with no role yet.
    fn new(key: KeyRef, hash: u64) -> Self {
        PrefixEntry {
            key,
            hash,
            deny_lib: NO_RULE,
            deny_class: NO_RULE,
            method_head: NO_RULE,
            allow_lib: false,
            allow_class: false,
        }
    }

    /// Fold one key's rules into the row: deny roles keep their minimum rule
    /// index (first match in insertion order), allow roles a flag, and every
    /// descriptor-level rule goes onto the row's method chain, its present
    /// string constraints mapped into the index's key store by `keep`.
    /// Chain order is irrelevant: deny attribution takes the chain minimum
    /// and allow checks accept any match.
    fn absorb(
        &mut self,
        group: &[KeyedRule],
        methods: &mut Vec<MethodRule>,
        mut keep: impl FnMut(KeyRef) -> KeyRef,
    ) {
        let mut keep_opt = |r: KeyRef| if r.is_none() { r } else { keep(r) };
        for rule in group {
            match rule.role {
                KeyRole::Library if rule.allow => self.allow_lib = true,
                KeyRole::Library => self.deny_lib = self.deny_lib.min(rule.policy),
                KeyRole::Class if rule.allow => self.allow_class = true,
                KeyRole::Class => self.deny_class = self.deny_class.min(rule.policy),
                KeyRole::Method {
                    class_len,
                    params,
                    ret,
                } => {
                    let index = methods.len() as u32;
                    debug_assert!(index != u32::MAX, "method arena full");
                    methods.push(MethodRule {
                        policy: rule.policy,
                        class_len,
                        params: keep_opt(params),
                        ret: keep_opt(ret),
                        next: self.method_head,
                        allow: rule.allow,
                    });
                    self.method_head = index;
                }
            }
        }
    }
}

impl KeyLookup {
    /// The accelerator over `rows`, addressing each by its array position
    /// (hash-free: the rows carry their key hashes).
    fn over(rows: &[PrefixEntry]) -> Self {
        let mut lookup = KeyLookup::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            lookup.insert(row.hash, i as u32);
        }
        lookup
    }
}

// ---------------------------------------------------------------------------
// The index
// ---------------------------------------------------------------------------

/// The flat match-action tables one [`crate::policy::CompiledPolicySet`]
/// evaluates against.  Built by [`PolicyIndex::build`] from the compiled rule
/// list, extended with structure sharing by [`PolicyIndex::extend`].
#[derive(Debug, Clone)]
pub(crate) struct PolicyIndex {
    keys: KeyStore,
    /// Shared with the generations [`PolicyIndex::extend`] derives, until a
    /// delta adds a hash-level rule.
    tags: Arc<TagTable>,
    /// Sorted by key bytes.  Probes go through `lookup`; the sort order
    /// drives the incremental merge in [`PolicyIndex::extend`] and the
    /// debug-assertion binary-search oracle in [`PolicyIndex::probe`].
    prefixes: Vec<PrefixEntry>,
    /// O(1) exact-key accelerator over `prefixes`.
    lookup: KeyLookup,
    /// First-segment filter over `prefixes` keys (whole-frame probe skip).
    roots: RootFilter,
    methods: Vec<MethodRule>,
    /// Shared like `tags`, until a delta adds a verbatim rule.
    verbatim: Arc<[VerbatimRule]>,
    /// Minimum-index deny `class` rule whose normalized target is empty
    /// (matches only frames with an empty package *and* class).
    class_empty_deny: u32,
    class_empty_allow: bool,
    /// Count of allow rules of *any* matchability: presence alone switches
    /// the set into whitelist mode, exactly like the linear buckets.
    allow_rules: u32,
}

impl Default for PolicyIndex {
    fn default() -> Self {
        PolicyIndex {
            keys: KeyStore::default(),
            tags: Arc::default(),
            prefixes: Vec::new(),
            lookup: KeyLookup::default(),
            roots: RootFilter::default(),
            methods: Vec::new(),
            verbatim: Arc::new([]),
            class_empty_deny: NO_RULE,
            class_empty_allow: false,
            allow_rules: 0,
        }
    }
}

impl PolicyIndex {
    /// Build the tables from scratch.  `rules` yields the rules in policy
    /// order; indexes must fit `u32`.  The classifier's blob becomes the key
    /// store, so its references carry over unchanged.
    pub(crate) fn build<'m>(rules: impl Iterator<Item = IndexedRule<'m>> + Clone) -> Self {
        let c = Classified::from_rules(rules);

        let method_count = c
            .keyed
            .iter()
            .filter(|rule| matches!(rule.role, KeyRole::Method { .. }))
            .count();
        let mut methods: Vec<MethodRule> = Vec::with_capacity(method_count);
        let mut prefixes: Vec<PrefixEntry> = Vec::with_capacity(c.groups().count());
        let mut roots = RootFilter::default();
        for (key, group) in c.groups() {
            let mut row = PrefixEntry::new(group[0].key, group[0].hash);
            row.absorb(group, &mut methods, |r| r);
            roots.insert_root_of(key);
            prefixes.push(row);
        }
        let mut tags = TagTable::with_capacity(c.tags.len());
        for &(tag, policy, allow) in &c.tags {
            tags.insert(tag, if allow { NO_RULE } else { policy }, allow);
        }
        PolicyIndex {
            keys: KeyStore {
                blob: Arc::from(c.blob.as_str()),
                spill: Vec::new(),
            },
            tags: Arc::new(tags),
            lookup: KeyLookup::over(&prefixes),
            prefixes,
            roots,
            methods,
            verbatim: Arc::from(c.verbatim.as_slice()),
            class_empty_deny: c.class_empty_deny,
            class_empty_allow: c.class_empty_allow,
            allow_rules: c.allow_rules,
        }
    }

    /// Clone the tables and fold in `rules` (appended policies, so every
    /// rule index exceeds all existing ones).  Cost is proportional to the
    /// prefix table's size (POD row copies + `Arc` bumps), not to
    /// recompiling the rules it encodes; the tag table and the verbatim
    /// residue are shared unless the delta adds to them.  New keys land in
    /// the spill list and are merged into the sorted array in one pass.
    pub(crate) fn extend<'m>(&self, rules: impl Iterator<Item = IndexedRule<'m>> + Clone) -> Self {
        let c = Classified::from_rules(rules);

        let mut keys = self.keys.clone();
        let mut methods = self.methods.clone();

        let tags = if c.tags.is_empty() {
            Arc::clone(&self.tags)
        } else {
            let mut tags = TagTable::clone(&self.tags);
            for &(tag, policy, allow) in &c.tags {
                tags.insert(tag, if allow { NO_RULE } else { policy }, allow);
            }
            Arc::new(tags)
        };
        let verbatim = if c.verbatim.is_empty() {
            Arc::clone(&self.verbatim)
        } else {
            let mut verbatim = self.verbatim.to_vec();
            for rule in &c.verbatim {
                verbatim.push(VerbatimRule {
                    target: keys.spill(c.resolve(rule.target)),
                    ..*rule
                });
            }
            Arc::from(verbatim)
        };

        // Merge the sorted delta groups into the sorted base rows: each group
        // binary-searches its place in what is left of the base, and the
        // rows in between are copied as one block, so the base keys compared
        // are O(groups × log rows), not O(rows).
        let mut merged: Vec<PrefixEntry> = Vec::with_capacity(self.prefixes.len() + c.keyed.len());
        let mut roots = self.roots.clone();
        let mut rest = self.prefixes.as_slice();
        for (key, group) in c.groups() {
            let at = rest.partition_point(|row| self.keys.resolve(row.key) < key);
            merged.extend_from_slice(&rest[..at]);
            rest = &rest[at..];
            // Appended rule indexes all exceed existing ones, so an existing
            // row's minima win ties by construction; `absorb`'s `min` keeps
            // that explicit.
            let mut row = match rest.split_first() {
                Some((row, after)) if self.keys.resolve(row.key) == key => {
                    rest = after;
                    *row
                }
                _ => {
                    roots.insert_root_of(key);
                    PrefixEntry::new(keys.spill(key), group[0].hash)
                }
            };
            row.absorb(group, &mut methods, |r| keys.spill(c.resolve(r)));
            merged.push(row);
        }
        merged.extend_from_slice(rest);

        // The accelerator addresses rows by array position, which the merge
        // shifted: rebuild it, same O(keys) order as the merge itself.
        PolicyIndex {
            keys,
            tags,
            lookup: KeyLookup::over(&merged),
            prefixes: merged,
            roots,
            methods,
            verbatim,
            class_empty_deny: self.class_empty_deny.min(c.class_empty_deny),
            class_empty_allow: self.class_empty_allow || c.class_empty_allow,
            allow_rules: self.allow_rules + c.allow_rules,
        }
    }

    /// Hash-level lookup: `(minimum deny rule or NO_RULE, any allow rule)`.
    pub(crate) fn tag_lookup(&self, tag: u64) -> (u32, bool) {
        self.tags.lookup(tag)
    }

    /// Count of allow rules (any matchability): non-zero switches the set
    /// into whitelist mode.
    pub(crate) fn allow_rule_count(&self) -> u32 {
        self.allow_rules
    }

    /// Exact-key probe: hash the first `upto` bytes of `v` once, land on
    /// the row through the open-addressed accelerator, confirm byte-exactly.
    /// O(1) in the key count; debug builds cross-check against a binary
    /// search of the sorted table.
    fn probe(&self, v: &VBytes<'_>, upto: usize) -> Option<&PrefixEntry> {
        let found = self.lookup.find(v.hash_prefix(upto), |index| {
            let key = self.keys.resolve(self.prefixes[index as usize].key);
            v.cmp_prefix(upto, key.as_bytes()) == Ordering::Equal
        });
        debug_assert_eq!(
            found.map(|i| i as usize),
            self.prefixes
                .binary_search_by(|row| {
                    v.cmp_prefix(upto, self.keys.resolve(row.key).as_bytes())
                        .reverse()
                })
                .ok(),
            "hashed probe disagrees with the sorted-table oracle"
        );
        found.map(|i| &self.prefixes[i as usize])
    }

    /// Minimum-index deny rule matching `sig`, or `NO_RULE`.
    ///
    /// Probes exactly the candidate targets that can match the frame: every
    /// package segment boundary (library and class roles), the full package,
    /// the qualified class, the `class/method` descriptor head, the
    /// empty-class scalar and the verbatim residue.
    pub(crate) fn frame_deny_min(&self, sig: &MethodSignature) -> u32 {
        let mut best = NO_RULE;
        let pkg = sig.package();
        let pb = pkg.as_bytes();
        let class = sig.class_name();

        // Every probe below targets a `/`-boundary prefix of the frame's
        // virtual `pkg/Class/method` string, so every key that could match
        // shares that string's first segment: one root-filter miss (the
        // common case — frames in namespaces no rule names) skips the whole
        // cascade without touching the big tables.
        let mk = VBytes::method_key(pkg, class, sig.method_name());
        if !self.prefixes.is_empty() && self.roots.contains(mk.hash_prefix(mk.first_segment_len()))
        {
            // Package boundary prefixes: candidates for both library rules
            // (`segment_prefix`) and class rules (package-region prefixes).
            for p in 1..pb.len() {
                if pb[p] == b'/' {
                    if let Some(row) = self.probe(&VBytes::single(&pb[..p]), p) {
                        best = best.min(row.deny_lib).min(row.deny_class);
                    }
                }
            }
            if !pb.is_empty() {
                if let Some(row) = self.probe(&VBytes::single(pb), pb.len()) {
                    best = best.min(row.deny_lib).min(row.deny_class);
                }
            }
            // Qualified-class probe (class rules only: a library prefix equal
            // to the full qualified class cannot satisfy `segment_prefix`
            // against the package).
            let qc = VBytes::qualified(pkg, class);
            let qc_len = qc.len();
            if qc_len > 0 {
                if let Some(row) = self.probe(&qc, qc_len) {
                    best = best.min(row.deny_class);
                }
            }
            // Descriptor-head probe.
            if let Some(row) = self.probe(&mk, mk.len()) {
                let mut cursor = row.method_head;
                while cursor != NO_RULE {
                    let rule = self.methods[cursor as usize];
                    cursor = rule.next;
                    if rule.allow || rule.class_len as usize != qc_len {
                        continue;
                    }
                    if self.method_constraints_match(&rule, sig) {
                        best = best.min(rule.policy);
                    }
                }
            }
        }
        if pb.is_empty() && class.is_empty() {
            best = best.min(self.class_empty_deny);
        }
        for rule in self.verbatim.iter() {
            if !rule.allow
                && rule.policy < best
                && sig.matches_target(EnforcementLevel::Method, self.keys.resolve(rule.target))
            {
                best = rule.policy;
            }
        }
        best
    }

    fn method_constraints_match(&self, rule: &MethodRule, sig: &MethodSignature) -> bool {
        match (
            self.keys.resolve_opt(rule.params),
            self.keys.resolve_opt(rule.ret),
        ) {
            (None, _) => true,
            (Some(p), None) => sig.params() == p,
            (Some(p), Some(r)) => sig.params() == p && sig.return_type() == r,
        }
    }

    /// Whether the whitelist stack pass must run on the linear oracle: the
    /// boundary-prefix folds below assume class names contain no `/` (true
    /// for every parsed signature; only hand-built ones can violate it).
    pub(crate) fn frames_need_linear_allow<'s, F>(frame_count: usize, frame: &F) -> bool
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        (0..frame_count).any(|i| frame(i).class_name().contains('/'))
    }

    /// Whitelist quantification over the stack: true iff some non-hash allow
    /// rule is matched by **every** frame.  Callers guarantee
    /// `frame_count > 0` and no frame has a `/` in its class name.
    pub(crate) fn stack_allowed<'s, F>(&self, frame_count: usize, frame: &F) -> bool
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        debug_assert!(frame_count > 0);
        if !self.prefixes.is_empty()
            && (self.lib_allow_satisfied(frame_count, frame)
                || self.class_allow_satisfied(frame_count, frame)
                || self.method_allow_satisfied(frame_count, frame))
        {
            return true;
        }
        if self.class_empty_allow
            && (0..frame_count).all(|i| {
                let s = frame(i);
                s.package().is_empty() && s.class_name().is_empty()
            })
        {
            return true;
        }
        self.verbatim.iter().any(|rule| {
            rule.allow && {
                let target = self.keys.resolve(rule.target);
                (0..frame_count).all(|i| frame(i).matches_target(EnforcementLevel::Method, target))
            }
        })
    }

    /// A library allow rule is matched by every frame iff its target is a
    /// segment prefix of **every** package — equivalently, of the longest
    /// common boundary prefix of all packages (the segment prefixes of one
    /// string form a chain, so the intersection across frames is the chain
    /// of the longest common one).
    fn lib_allow_satisfied<'s, F>(&self, frame_count: usize, frame: &F) -> bool
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        let first = frame(0).package().as_bytes();
        // Every probed key is a `/`-boundary prefix of frame 0's package
        // and so shares its first segment; a root-filter miss ends the pass.
        let root = first.iter().position(|&b| b == b'/').unwrap_or(first.len());
        if !self.roots.contains(hash_bytes(&first[..root])) {
            return false;
        }
        let mut m = first.len();
        for i in 1..frame_count {
            m = common_boundary(first, m, frame(i).package().as_bytes());
            if m == 0 {
                return false;
            }
        }
        if m == 0 {
            return false;
        }
        for p in 1..m {
            if first[p] == b'/' {
                if let Some(row) = self.probe(&VBytes::single(&first[..p]), p) {
                    if row.allow_lib {
                        return true;
                    }
                }
            }
        }
        self.probe(&VBytes::single(&first[..m]), m)
            .is_some_and(|row| row.allow_lib)
    }

    /// Same chain argument over virtual qualified-class strings (valid
    /// because class names contain no `/`, checked by the caller).
    fn class_allow_satisfied<'s, F>(&self, frame_count: usize, frame: &F) -> bool
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        let f0 = frame(0);
        let first = VBytes::qualified(f0.package(), f0.class_name());
        // Same first-segment gate as the library pass, over the virtual
        // qualified class: any boundary prefix of `first` shares its root.
        if !self
            .roots
            .contains(first.hash_prefix(first.first_segment_len()))
        {
            return false;
        }
        let mut m = first.len();
        for i in 1..frame_count {
            let fi = frame(i);
            let other = VBytes::qualified(fi.package(), fi.class_name());
            m = common_boundary_v(&first, m, &other);
            if m == 0 {
                return false;
            }
        }
        if m == 0 {
            return false;
        }
        for p in 1..m {
            if first.byte(p) == b'/' {
                if let Some(row) = self.probe(&first, p) {
                    if row.allow_class {
                        return true;
                    }
                }
            }
        }
        self.probe(&first, m).is_some_and(|row| row.allow_class)
    }

    /// A descriptor-level allow rule pins the qualified class and method
    /// name, so it can only be matched by every frame when all frames share
    /// them; parameter/return constraints are then checked per frame.
    fn method_allow_satisfied<'s, F>(&self, frame_count: usize, frame: &F) -> bool
    where
        F: Fn(usize) -> &'s MethodSignature,
    {
        let f0 = frame(0);
        let first = VBytes::qualified(f0.package(), f0.class_name());
        let qc_len = first.len();
        for i in 1..frame_count {
            let fi = frame(i);
            if fi.method_name() != f0.method_name() {
                return false;
            }
            let other = VBytes::qualified(fi.package(), fi.class_name());
            if !vbytes_eq(&first, &other) {
                return false;
            }
        }
        let mk = VBytes::method_key(f0.package(), f0.class_name(), f0.method_name());
        if !self.roots.contains(mk.hash_prefix(mk.first_segment_len())) {
            return false;
        }
        let Some(row) = self.probe(&mk, mk.len()) else {
            return false;
        };
        let mut cursor = row.method_head;
        while cursor != NO_RULE {
            let rule = self.methods[cursor as usize];
            cursor = rule.next;
            if !rule.allow || rule.class_len as usize != qc_len {
                continue;
            }
            if (0..frame_count).all(|i| self.method_constraints_match(&rule, frame(i))) {
                return true;
            }
        }
        false
    }
}

/// Largest `p ≤ lcp(a[..upto], b)` such that `a[..p]` ends on a segment
/// boundary of both sides; position validity is `p == end || byte(p) == '/'`.
/// By the fold invariant `a[..upto]` is a valid boundary prefix of every
/// string folded so far, so the result stays one for `b` as well.
fn common_boundary(a: &[u8], upto: usize, b: &[u8]) -> usize {
    let max = upto.min(b.len());
    let mut l = 0;
    while l < max && a[l] == b[l] {
        l += 1;
    }
    let mut p = l;
    loop {
        let va = p == upto || a[p] == b'/';
        let vb = p == b.len() || b[p] == b'/';
        if va && vb {
            return p;
        }
        if p == 0 {
            return 0;
        }
        p -= 1;
    }
}

/// [`common_boundary`] over virtual strings.
fn common_boundary_v(a: &VBytes<'_>, upto: usize, b: &VBytes<'_>) -> usize {
    let b_len = b.len();
    let max = upto.min(b_len);
    let mut l = 0;
    while l < max && a.byte(l) == b.byte(l) {
        l += 1;
    }
    let mut p = l;
    loop {
        let va = p == upto || a.byte(p) == b'/';
        let vb = p == b_len || b.byte(p) == b'/';
        if va && vb {
            return p;
        }
        if p == 0 {
            return 0;
        }
        p -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    #[test]
    fn tag_table_takes_minimum_on_duplicate_insert() {
        let mut table = TagTable::default();
        table.insert(42, 7, false);
        table.insert(42, 3, false);
        table.insert(42, NO_RULE, true);
        assert_eq!(table.lookup(42), (3, true));
        assert_eq!(table.lookup(43), (NO_RULE, false));
    }

    #[test]
    fn tag_table_survives_growth() {
        let mut table = TagTable::default();
        for tag in 0..1000u64 {
            table.insert(tag, tag as u32, tag % 3 == 0);
        }
        for tag in 0..1000u64 {
            assert_eq!(table.lookup(tag), (tag as u32, tag % 3 == 0));
        }
        assert_eq!(table.lookup(1000), (NO_RULE, false));
    }

    #[test]
    fn a_presized_tag_table_never_grows() {
        let mut table = TagTable::with_capacity(1000);
        let slots = table.slots.len();
        assert_eq!(slots, 2048);
        for tag in 0..1000u64 {
            table.insert(tag, tag as u32, false);
        }
        assert_eq!(table.slots.len(), slots);
        assert_eq!(table.lookup(999), (999, false));
        assert!(TagTable::with_capacity(0).slots.is_empty());
    }

    /// `policies` as the index builders consume them, numbered from `first`.
    fn indexed(policies: &[Policy], first: u32) -> Vec<IndexedRule<'_>> {
        policies
            .iter()
            .zip(first..)
            .map(|(p, i)| {
                let matcher = CompiledMatcher::compile(p.level(), p.target());
                (i, p.action(), matcher, p.target())
            })
            .collect()
    }

    #[test]
    fn extend_shares_the_tables_its_delta_does_not_touch() {
        let base = [
            Policy::deny(EnforcementLevel::Hash, "0011223344556677"),
            // An unbalanced parameter list: a verbatim rule.
            Policy::deny(EnforcementLevel::Method, "Lcom/x/Y;->z(()"),
            Policy::deny(EnforcementLevel::Library, "com/flurry"),
        ];
        let index = PolicyIndex::build(indexed(&base, 0).into_iter());
        assert_eq!(index.verbatim.len(), 1);

        let stack = [Policy::deny(
            EnforcementLevel::Class,
            "com/facebook/appevents",
        )];
        let next = index.extend(indexed(&stack, 3).into_iter());
        assert!(Arc::ptr_eq(&index.tags, &next.tags));
        assert!(Arc::ptr_eq(&index.verbatim, &next.verbatim));
        assert_eq!(next.prefixes.len(), 2);

        let tagged = [
            Policy::deny(EnforcementLevel::Hash, "8899aabbccddeeff"),
            Policy::deny(EnforcementLevel::Method, "Lcom/x/Y;->w(()"),
        ];
        let last = next.extend(indexed(&tagged, 4).into_iter());
        assert!(!Arc::ptr_eq(&next.tags, &last.tags));
        assert!(!Arc::ptr_eq(&next.verbatim, &last.verbatim));
        assert_eq!(last.tag_lookup(0x8899_aabb_ccdd_eeff), (4, false));
        assert_eq!(last.tag_lookup(0x0011_2233_4455_6677), (0, false));
        assert_eq!(next.tag_lookup(0x8899_aabb_ccdd_eeff), (NO_RULE, false));
        assert_eq!(last.verbatim.len(), 2);
    }

    #[test]
    fn common_boundary_respects_segment_edges() {
        // Shared bytes "com/fl…" but the segment boundary is "com".
        assert_eq!(common_boundary(b"com/flurry", 10, b"com/flower"), 3);
        assert_eq!(common_boundary(b"com/flurry", 10, b"com/flurry"), 10);
        assert_eq!(common_boundary(b"com/flurry", 10, b"com/flurry/sdk"), 10);
        assert_eq!(common_boundary(b"com/flurry", 3, b"com/flurry"), 3);
        assert_eq!(common_boundary(b"com", 3, b"org"), 0);
        assert_eq!(common_boundary(b"", 0, b"com"), 0);
    }

    #[test]
    fn vbytes_compare_and_index_span_parts() {
        let v = VBytes::method_key("com/example", "Main", "run");
        assert_eq!(v.len(), "com/example/Main/run".len());
        let rendered: Vec<u8> = (0..v.len()).map(|i| v.byte(i)).collect();
        assert_eq!(rendered, b"com/example/Main/run");
        assert_eq!(
            v.cmp_prefix(v.len(), b"com/example/Main/run"),
            Ordering::Equal
        );
        assert_eq!(v.cmp_prefix(11, b"com/example"), Ordering::Equal);
        assert_eq!(v.cmp_prefix(11, b"com/examplf"), Ordering::Less);
        assert_eq!(v.cmp_prefix(11, b"com/exampl"), Ordering::Greater);
    }

    #[test]
    fn vbytes_hash_matches_materialized_bytes() {
        let v = VBytes::method_key("com/example", "Main", "run");
        for upto in 0..=v.len() {
            let rendered: Vec<u8> = (0..upto).map(|i| v.byte(i)).collect();
            assert_eq!(v.hash_prefix(upto), hash_bytes(&rendered));
        }
        assert_eq!(v.first_segment_len(), 3);
        assert_eq!(VBytes::single(b"plain").first_segment_len(), 5);
        assert_eq!(VBytes::qualified("", "Main").first_segment_len(), 4);
    }

    #[test]
    fn key_lookup_resolves_every_inserted_key() {
        let keys = ["a", "com", "com/flurry", "com/flurry/sdk", "org/x"];
        let mut lookup = KeyLookup::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            lookup.insert(hash_bytes(key.as_bytes()), i as u32);
        }
        for (i, key) in keys.iter().enumerate() {
            let found = lookup.find(hash_bytes(key.as_bytes()), |index| {
                keys[index as usize] == *key
            });
            assert_eq!(found, Some(i as u32));
        }
        assert_eq!(lookup.find(hash_bytes(b"com/flower"), |_| true), None);
    }

    #[test]
    fn root_filter_deduplicates_and_survives_growth() {
        let mut roots = RootFilter::default();
        for i in 0..100u64 {
            roots.insert(i);
            roots.insert(i);
        }
        for i in 0..100u64 {
            assert!(roots.contains(i));
        }
        assert!(!roots.contains(1000));
        // 0 remaps onto 1's slot value, so 0..100 stores 99 distinct hashes.
        assert_eq!(roots.used, 99);

        let mut by_key = RootFilter::default();
        by_key.insert_root_of("com/flurry/sdk");
        by_key.insert_root_of("org");
        assert!(by_key.contains(hash_bytes(b"com")));
        assert!(by_key.contains(hash_bytes(b"org")));
        assert!(!by_key.contains(hash_bytes(b"net")));
    }
}
