//! The counter schema: every enforcement counter and drop class, defined
//! once.
//!
//! BorderPatrol's accounting contract is exact conservation — `inspected ==
//! accepted + dropped`, every drop charged to one named reason.  This module
//! holds the single table that contract is derived from: one row per counter
//! gives its field name (also its serde name and scenario-report label), its
//! [`CounterKind`], its exposition label (the `/metrics` and `bp_top` tag)
//! and, for drop classes whose reason never varies, the reason text.  The
//! table generates [`EnforcerStats`] and the [`Counter`] enum; everything
//! that copies, sums, subtracts, stores, serializes or prints counters —
//! [`EnforcerStats::merged`] / [`EnforcerStats::delta_since`], the
//! [`EnforcerCounters`] lanes, the telemetry word layout, the `bp-obs`
//! exporter and dashboard, the scenario report — is a loop over
//! [`Counter::ALL`], so a new counter is one new row.
//!
//! Attribution is structural too: `charge_drop` is the only code that
//! bumps a drop lane, and it always appends the reason to the [`DropLog`]
//! and builds the [`Verdict::Drop`] in the same step, so a drop that is
//! counted but not logged (or the reverse) cannot be written.

use std::cell::Cell;
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

pub use bp_netsim::netfilter::DropReason;
use bp_netsim::netfilter::Verdict;

use crate::wire::WireError;

/// Drop-log reason charged to packets failed closed because the worker
/// inspecting their partition panicked ([`EnforcerStats::dropped_runtime_fault`]).
pub const RUNTIME_FAULT_DROP_REASON: &str = "runtime fault: worker panicked; packet failed closed";

/// Drop-log reason charged to packets shed fail-closed by the overload guard
/// ([`EnforcerStats::dropped_overload`]).
pub const OVERLOAD_DROP_REASON: &str =
    "overload: batch past admission watermark; packet shed fail-closed";

/// What a counter counts — which sums and which report sections it joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterKind {
    /// A packet total (`inspected`, `accepted`).
    Total,
    /// Packets dropped on inspection, one counter per reason.
    Drop,
    /// Packets the enforcer failed closed *before* inspection (worker
    /// panic, overload shed).  Counted as dropped like [`CounterKind::Drop`];
    /// the charge also counts the packet inspected, since no inspection
    /// path ever saw it.
    Fault,
    /// Flow-table bookkeeping, not a packet outcome.
    Flow,
}

impl CounterKind {
    /// Do this kind's counters sum into [`EnforcerStats::total_dropped`]?
    pub const fn is_drop(self) -> bool {
        matches!(self, CounterKind::Drop | CounterKind::Fault)
    }
}

/// Expands the counter table (see the module docs) into [`EnforcerStats`],
/// [`Counter`] and the per-row metadata.  Field types are spelled out and
/// attributes pass through as raw tokens so the serde shim's hand-rolled
/// derive sees an ordinary struct.
macro_rules! counter_table {
    (@reason) => { None };
    (@reason $reason:expr) => { Some($reason) };
    ($(
        $(#[$($attr:tt)*])*
        $variant:ident => $field:ident: $kind:ident, $label:literal $(, $reason:expr)?;
    )*) => {
        /// Counters the enforcer keeps, broken down by outcome.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct EnforcerStats {
            $(
                $(#[$($attr)*])*
                pub $field: u64,
            )*
            /// [`EnforcerStats::dropped_wire`] broken out per [`WireError`]
            /// variant — `dropped_wire` always equals
            /// [`WireDropStats::total`] of this field.  `serde(default)` so
            /// snapshots serialized before the breakdown existed still parse.
            #[serde(default)]
            pub dropped_wire_by: WireDropStats,
        }

        /// One scalar counter of [`EnforcerStats`]: a row of the counter
        /// table, in table order (which is also the telemetry word order).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Counter {
            $(
                #[doc = concat!("[`EnforcerStats::", stringify!($field), "`].")]
                $variant,
            )*
        }

        impl Counter {
            /// Number of scalar counters.
            pub const COUNT: usize = [$(Counter::$variant),*].len();

            /// Every counter, in table order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),*];

            /// The [`EnforcerStats`] field name — also the serde key and the
            /// scenario-report row label.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($field),)*
                }
            }

            /// What the counter counts.
            pub const fn kind(self) -> CounterKind {
                match self {
                    $(Counter::$variant => CounterKind::$kind,)*
                }
            }

            /// The exposition label: the `reason=` / `event=` value in
            /// `/metrics` and the tag on the `bp_top` dashboard.  Unique
            /// within a kind.
            pub const fn label(self) -> &'static str {
                match self {
                    $(Counter::$variant => $label,)*
                }
            }

            /// The drop-log text of a drop class whose reason never varies;
            /// `None` for classes whose reason is rendered per packet (and
            /// for counters that are not drop classes).
            pub const fn fixed_reason(self) -> Option<&'static str> {
                match self {
                    $(Counter::$variant => counter_table!(@reason $($reason)?),)*
                }
            }
        }

        impl EnforcerStats {
            /// The value of one counter.
            #[inline]
            pub fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$variant => self.$field,)*
                }
            }

            /// The counters as telemetry words: the scalar counters in
            /// table order, then the per-[`WireError`] lanes in
            /// [`WireError::ALL`] order.
            #[inline]
            pub fn to_words(&self) -> [u64; STATS_WORDS] {
                let mut words = [0; STATS_WORDS];
                words[..Counter::COUNT].copy_from_slice(&[$(self.$field),*]);
                words[Counter::COUNT..].copy_from_slice(&self.dropped_wire_by.to_array());
                words
            }

            /// Rebuild from [`EnforcerStats::to_words`] output.
            #[inline]
            pub fn from_words(words: &[u64; STATS_WORDS]) -> EnforcerStats {
                let mut wire = [0; WIRE_LANES];
                wire.copy_from_slice(&words[Counter::COUNT..]);
                EnforcerStats {
                    $($field: words[Counter::$variant as usize],)*
                    dropped_wire_by: WireDropStats::from_array(wire),
                }
            }
        }
    };
}

counter_table! {
    /// Packets inspected.
    Inspected => packets_inspected: Total, "inspected";
    /// Packets accepted.
    Accepted => packets_accepted: Total, "accepted";
    /// Packets dropped because a policy matched.
    ByPolicy => dropped_by_policy: Drop, "policy";
    /// Packets dropped because they carried no context option.
    Untagged => dropped_untagged: Drop, "untagged", "packet carries no BorderPatrol context";
    /// Packets dropped because the app tag was unknown.
    UnknownApp => dropped_unknown_app: Drop, "unknown-app";
    /// Packets dropped because the context failed to decode.
    Malformed => dropped_malformed: Drop, "malformed";
    /// Packets dropped because they carried more than one context option
    /// (the hardened kernel never emits duplicates, so a second option is a
    /// spoofing attempt riding ahead of the kernel-injected context).
    DuplicateContext => dropped_duplicate_context: Drop, "duplicate-context",
        "duplicate BorderPatrol context options";
    /// Packets dropped because their context payload differed from the one
    /// cached for their live flow (mid-flow context switch = replayed or
    /// injected context; only charged when
    /// [`EnforcerConfig::drop_context_switch`](crate::enforcer::EnforcerConfig::drop_context_switch)
    /// is enabled).
    ContextSwitch => dropped_context_switch: Drop, "context-switch",
        "mid-flow context change (replayed or injected context)";
    /// Frames dropped at the byte ingress boundary because they failed wire
    /// decode ([`crate::wire::WireError`]): truncated, corrupt checksum,
    /// unknown protocol or inconsistent option geometry.  Such frames never
    /// reach context decode, so they are charged here (and to
    /// [`EnforcerStats::packets_inspected`]), not to
    /// [`EnforcerStats::dropped_malformed`].
    Wire => dropped_wire: Drop, "wire";
    /// Packets failed closed because the worker inspecting their partition
    /// panicked (injected or real): the uninspected remainder of the
    /// partition drops under this counter instead of poisoning the
    /// enforcer.  `serde(default)` so pre-fault snapshots still parse.
    #[serde(default)]
    RuntimeFault => dropped_runtime_fault: Fault, "runtime-fault", RUNTIME_FAULT_DROP_REASON;
    /// Packets shed fail-closed by the overload guard before inspection
    /// (batch length past the admission watermark).  `serde(default)` so
    /// pre-fault snapshots still parse.
    #[serde(default)]
    Overload => dropped_overload: Fault, "overload", OVERLOAD_DROP_REASON;
    /// Tagged packets whose verdict was served from the flow table.
    FlowHits => flow_hits: Flow, "hit";
    /// Tagged packets that required a full decode/resolve/evaluate pass.
    FlowMisses => flow_misses: Flow, "miss";
    /// Flow-table entries evicted to admit new flows at capacity.
    FlowEvictions => flow_evictions: Flow, "eviction";
    /// Mid-flow context changes observed by the flow table (counted whether
    /// or not
    /// [`EnforcerConfig::drop_context_switch`](crate::enforcer::EnforcerConfig::drop_context_switch)
    /// turns them into drops): a live, unexpired flow entry saw a packet
    /// with different context payload bytes under the same tables epoch.
    FlowContextSwitches => flow_context_switches: Flow, "context-switch";
}

impl Counter {
    /// The counters of one kind, in table order.
    pub fn of_kind(kind: CounterKind) -> impl Iterator<Item = Counter> {
        Counter::ALL
            .into_iter()
            .filter(move |counter| counter.kind() == kind)
    }
}

/// Per-[`WireError`] lanes following the scalar counters.
const WIRE_LANES: usize = WireError::ALL.len();

/// Words one [`EnforcerStats`] occupies in the telemetry snapshot and in
/// [`EnforcerCounters`]: [`Counter::ALL`], then [`WireError::ALL`].
pub const STATS_WORDS: usize = Counter::COUNT + WIRE_LANES;

/// Wire-decode drops broken out by [`WireError`] variant (one counter per
/// variant, field order matching [`WireError::ALL`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireDropStats {
    /// Frames rejected with [`WireError::TruncatedHeader`].
    pub truncated_header: u64,
    /// Frames rejected with [`WireError::BadVersion`].
    pub bad_version: u64,
    /// Frames rejected with [`WireError::BadIhl`].
    pub bad_ihl: u64,
    /// Frames rejected with [`WireError::TruncatedFrame`].
    pub truncated_frame: u64,
    /// Frames rejected with [`WireError::BadChecksum`].
    pub bad_checksum: u64,
    /// Frames rejected with [`WireError::UnknownProtocol`].
    pub unknown_protocol: u64,
    /// Frames rejected with [`WireError::OptionTruncated`].
    pub option_truncated: u64,
    /// Frames rejected with [`WireError::BadOptionLength`].
    pub bad_option_length: u64,
    /// Frames rejected with [`WireError::OptionOverrun`].
    pub option_overrun: u64,
    /// Frames rejected with [`WireError::LengthMismatch`].
    pub length_mismatch: u64,
}

impl WireDropStats {
    /// The counter for one error variant.
    pub fn get(&self, error: WireError) -> u64 {
        self.to_array()[error.index()]
    }

    /// Sum across every variant (always equals
    /// [`EnforcerStats::dropped_wire`]).
    pub fn total(&self) -> u64 {
        self.to_array().iter().sum()
    }

    /// The counters as an array indexed by [`WireError::index`].
    #[inline]
    pub fn to_array(&self) -> [u64; WIRE_LANES] {
        [
            self.truncated_header,
            self.bad_version,
            self.bad_ihl,
            self.truncated_frame,
            self.bad_checksum,
            self.unknown_protocol,
            self.option_truncated,
            self.bad_option_length,
            self.option_overrun,
            self.length_mismatch,
        ]
    }

    /// Rebuild from an array indexed by [`WireError::index`].
    #[inline]
    pub fn from_array(counts: [u64; WIRE_LANES]) -> WireDropStats {
        WireDropStats {
            truncated_header: counts[0],
            bad_version: counts[1],
            bad_ihl: counts[2],
            truncated_frame: counts[3],
            bad_checksum: counts[4],
            unknown_protocol: counts[5],
            option_truncated: counts[6],
            bad_option_length: counts[7],
            option_overrun: counts[8],
            length_mismatch: counts[9],
        }
    }
}

impl EnforcerStats {
    /// Total packets dropped for any reason: the sum of every
    /// [`CounterKind::Drop`] and [`CounterKind::Fault`] counter.
    #[inline]
    pub fn total_dropped(&self) -> u64 {
        Counter::ALL
            .into_iter()
            .filter(|counter| counter.kind().is_drop())
            .map(|counter| self.get(counter))
            .sum()
    }

    /// Sum two snapshots (used when merging shards).
    pub fn merged(&self, other: &EnforcerStats) -> EnforcerStats {
        let mut words = self.to_words();
        for (word, add) in words.iter_mut().zip(other.to_words()) {
            *word += add;
        }
        EnforcerStats::from_words(&words)
    }

    /// What was counted between `previous` and this later snapshot of the
    /// same counters.
    ///
    /// `None` when any lane ran backwards: the counters were reset in
    /// between, `previous` says nothing about this snapshot, and its
    /// cumulative values *are* what was counted since the reset.  This is
    /// the one definition of "counter reset" — the telemetry cell's
    /// generation attribution and the `bp-obs` collector's rates both use
    /// it, so a delta never mixes pre- and post-reset lanes (which would
    /// break `inspected == accepted + dropped`).
    #[inline]
    pub fn delta_since(&self, previous: &EnforcerStats) -> Option<EnforcerStats> {
        let mut words = self.to_words();
        for (word, before) in words.iter_mut().zip(previous.to_words()) {
            *word = word.checked_sub(before)?;
        }
        Some(EnforcerStats::from_words(&words))
    }

    /// This snapshot with the flow-cache bookkeeping counters zeroed: the
    /// per-packet outcome counts, which are what cached and uncached (or
    /// legacy) pipelines must agree on regardless of how many probes hit.
    ///
    /// [`EnforcerStats::dropped_context_switch`] is an *outcome* counter and
    /// is **not** zeroed: with
    /// [`EnforcerConfig::drop_context_switch`](crate::enforcer::EnforcerConfig::drop_context_switch)
    /// enabled the flow-cached path is intentionally stricter than the
    /// stateless baselines (which cannot observe switches), so the
    /// comparison is only meaningful with the knob off.
    pub fn without_flow_counters(&self) -> EnforcerStats {
        let mut words = self.to_words();
        for counter in Counter::of_kind(CounterKind::Flow) {
            words[counter as usize] = 0;
        }
        EnforcerStats::from_words(&words)
    }
}

/// The live enforcement counters of one owner: one plain word per
/// [`EnforcerStats::to_words`] word, recorded through `&self`.
///
/// The words are [`Cell`]s, so the type is `Send` but **not** `Sync`: a
/// shard's counters live inside the state its one lock guards (an oracle
/// driving [`inspect_legacy`](crate::enforcer::inspect_legacy) owns its own
/// outright), every read and write happens on the thread that owns them at
/// that moment, and [`EnforcerCounters::snapshot`] is therefore exact —
/// `inspected == accepted + dropped` holds on every one.  Counters shared
/// between threads without a lock do not compile:
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<bp_core::stats::EnforcerCounters>();
/// ```
///
/// while handing them to another thread, which is what a lock does, does:
///
/// ```
/// fn moved_to_a_thread<T: Send>() {}
/// moved_to_a_thread::<bp_core::stats::EnforcerCounters>();
/// ```
#[derive(Debug)]
pub struct EnforcerCounters {
    lanes: [Cell<u64>; STATS_WORDS],
}

/// [`EnforcerCounters`]' old name, kept only for the frozen `benchmark/` package.
pub type AtomicEnforcerStats = EnforcerCounters;

impl Default for EnforcerCounters {
    fn default() -> Self {
        EnforcerCounters {
            lanes: std::array::from_fn(|_| Cell::new(0)),
        }
    }
}

impl EnforcerCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        EnforcerCounters::default()
    }

    /// The counters as of now.
    #[inline]
    pub fn snapshot(&self) -> EnforcerStats {
        EnforcerStats::from_words(&std::array::from_fn(|lane| self.lanes[lane].get()))
    }

    /// Overwrite every counter from a snapshot.
    pub fn store(&self, stats: EnforcerStats) {
        for (lane, word) in self.lanes.iter().zip(stats.to_words()) {
            lane.set(word);
        }
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.store(EnforcerStats::default());
    }

    /// Add `n` to a total or flow counter.  Drop classes are charged
    /// through `charge_drop`, which also logs the reason.
    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        debug_assert!(
            !counter.kind().is_drop(),
            "{} is a drop class: charge it through charge_drop",
            counter.name()
        );
        self.bump(counter as usize, n);
    }

    /// Add `n` to the word at `lane`.
    #[inline]
    fn bump(&self, lane: usize, n: u64) {
        let lane = &self.lanes[lane];
        lane.set(lane.get() + n);
    }
}

/// Charge one dropped packet to `class`: bump its lane, append `reason` to
/// the drop log and build the [`Verdict::Drop`] carrying the same text.
///
/// This is the only way the data plane drops a packet, which is what makes
/// "every drop is counted under exactly one reason and logged" structural.
/// A [`CounterKind::Fault`] class also counts the packet inspected: it was
/// failed closed before any inspection path could.
///
/// The log and the verdict each take a clone of `reason` — a pointer copy
/// for fixed texts and wire errors, a refcount bump for a diagnostic shared
/// with the flow cache (see [`DropReason`]) — so dropping a packet allocates
/// nothing and copies no text.
pub(crate) fn charge_drop(
    stats: &EnforcerCounters,
    drop_log: &mut DropLog,
    class: Counter,
    reason: DropReason,
) -> Verdict {
    debug_assert!(
        class.kind().is_drop(),
        "{} is not a drop class",
        class.name()
    );
    if class.kind() == CounterKind::Fault {
        stats.bump(Counter::Inspected as usize, 1);
    }
    stats.bump(class as usize, 1);
    drop_log.push(reason.clone());
    Verdict::Drop { reason }
}

/// [`charge_drop`] for a class whose reason text is fixed by the table
/// ([`Counter::fixed_reason`]).
pub(crate) fn charge_fixed_drop(
    stats: &EnforcerCounters,
    drop_log: &mut DropLog,
    class: Counter,
) -> Verdict {
    let reason = class
        .fixed_reason()
        .expect("class has a fixed reason in the counter table");
    charge_drop(stats, drop_log, class, DropReason::Static(reason))
}

/// [`charge_drop`] for a frame that failed wire decode with `error`:
/// inspected, then dropped at the byte ingress boundary before any
/// enforcement logic ran — charged to [`EnforcerStats::dropped_wire`] and
/// the per-variant breakdown, with the typed [`WireError::drop_reason`].
pub(crate) fn charge_wire_drop(
    stats: &EnforcerCounters,
    drop_log: &mut DropLog,
    error: WireError,
) -> Verdict {
    stats.add(Counter::Inspected, 1);
    stats.bump(Counter::COUNT + error.index(), 1);
    charge_drop(
        stats,
        drop_log,
        Counter::Wire,
        DropReason::Static(error.drop_reason()),
    )
}

/// Default capacity of the drop log ring buffer.
pub const DROP_LOG_CAPACITY: usize = 10_000;

/// Bounded log of drop reasons (most recent last).
///
/// Backed by a `VecDeque` ring buffer: hitting the capacity evicts the oldest
/// entry in O(1), unlike the `Vec::remove(0)` eviction the interpretive
/// prototype used, which shifted the remaining 10,000 entries on every drop
/// past capacity.  Entries are [`DropReason`]s, so recording a drop never
/// copies the reason text.
#[derive(Debug, Clone)]
pub struct DropLog {
    entries: VecDeque<DropReason>,
    capacity: usize,
}

impl Default for DropLog {
    fn default() -> Self {
        DropLog::new(DROP_LOG_CAPACITY)
    }
}

impl DropLog {
    /// An empty log bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        DropLog {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Append a reason, evicting the oldest entry if the log is full.
    pub fn push(&mut self, reason: impl Into<DropReason>) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(reason.into());
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no drops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate over retained reasons, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(DropReason::as_str)
    }

    /// Render the retained reasons into a vector, oldest first.
    pub fn to_vec(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|reason| reason.as_str().to_owned())
            .collect()
    }

    /// Discard all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_labels_are_unique_within_a_kind() {
        for (index, counter) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(counter as usize, index, "ALL is in discriminant order");
            for other in &Counter::ALL[..index] {
                assert_ne!(counter.name(), other.name());
                // Drops and faults share the exporter's `reason=` label space.
                let shared_space = counter.kind() == other.kind()
                    || (counter.kind().is_drop() && other.kind().is_drop());
                assert!(
                    !shared_space || counter.label() != other.label(),
                    "{} and {} share the label {:?}",
                    counter.name(),
                    other.name(),
                    counter.label()
                );
            }
        }
    }

    /// Every drop class, charged once through the one charging function:
    /// exactly its own lane moves (plus `inspected` for a fault class, whose
    /// packets no inspection path counted), and the log line and the
    /// verdict carry the same text.
    #[test]
    fn charging_a_drop_counts_logs_and_renders_one_reason() {
        for class in Counter::ALL {
            if !class.kind().is_drop() {
                continue;
            }
            let (stats, mut log) = (EnforcerCounters::new(), DropLog::default());
            let verdict = match class.fixed_reason() {
                Some(_) => charge_fixed_drop(&stats, &mut log, class),
                None => charge_drop(&stats, &mut log, class, String::from("rendered").into()),
            };
            let text = class.fixed_reason().unwrap_or("rendered");
            assert_eq!(verdict, Verdict::drop(text), "{}", class.name());
            assert_eq!(log.to_vec(), [text]);

            let fault = u64::from(class.kind() == CounterKind::Fault);
            let mut expected = [0; STATS_WORDS];
            expected[class as usize] = 1;
            expected[Counter::Inspected as usize] = fault;
            let snapshot = stats.snapshot();
            assert_eq!(snapshot.to_words(), expected, "{}", class.name());
            assert_eq!(snapshot.total_dropped(), 1);
        }
    }

    #[test]
    fn wire_drop_charges_the_aggregate_its_variant_and_inspected() {
        let (stats, mut log) = (EnforcerCounters::new(), DropLog::default());
        for error in WireError::ALL {
            let verdict = charge_wire_drop(&stats, &mut log, error);
            assert_eq!(verdict, Verdict::drop(error.drop_reason()));
        }
        let snapshot = stats.snapshot();
        let lanes = WireError::ALL.len() as u64;
        assert_eq!(snapshot.packets_inspected, lanes);
        assert_eq!(snapshot.dropped_wire, lanes);
        assert_eq!(snapshot.total_dropped(), lanes);
        assert_eq!(snapshot.dropped_wire_by.to_array(), [1; WIRE_LANES]);
        assert_eq!(log.len(), WireError::ALL.len());
    }
}
