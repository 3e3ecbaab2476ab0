//! Per-shard seqlock-published telemetry snapshots (DESIGN §12).
//!
//! A shard's live [`EnforcerCounters`] are plain words inside the state its
//! one lock guards: reading them means taking that lock, and so waiting for
//! whatever partition the shard is running.  That is right for a caller
//! that wants the counters as of now
//! ([`ShardedEnforcer::shard_stats`](crate::enforcer::ShardedEnforcer::shard_stats))
//! and wrong for an observability plane that polls every shard many times a
//! second and must never queue behind — or in front of — the data plane.
//!
//! [`TelemetryCell`] is the reader that takes no lock.  Each shard owns one
//! cell: a fixed array of `AtomicU64` words plus a sequence stamp.  The
//! **writer** — whichever thread holds the shard lock, which every
//! publication site does, making it the sole writer — publishes at
//! partition/batch end with plain relaxed stores bracketed by two stamp
//! stores (odd = write in progress, even = stable).  No lock, no read-modify-write, no `SeqCst`; the only fence is
//! a compiler-level `Release` fence that costs nothing on x86 and pairs
//! with the reader's `Acquire` fence elsewhere.
//!
//! **Readers** (the `bp-obs` collector, tests) spin: load the stamp
//! (acquire), copy the words (relaxed), fence (acquire), re-load the stamp.
//! An odd or changed stamp means a write raced the copy — retry.  A stable
//! even stamp means the words are exactly one publication, so cross-counter
//! invariants hold: `packets_inspected == packets_accepted +
//! total_dropped()`, and the checksum word (a wrapping sum the writer
//! stamps over the payload) verifies.  Readers never block writers;
//! writers never wait for readers.
//!
//! Beyond the [`EnforcerStats`] counters (including the per-`WireError`
//! breakdown), each snapshot carries a small **generation ring**: verdict
//! deltas attributed to the tables epoch that was active when they were
//! published, so a fleet view can answer "how many drops has generation N
//! produced" while a hot swap is mid-flight.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::faults::{HealthState, ShardHealth, ShardHealthSnapshot};
use crate::stats::{EnforcerCounters, EnforcerStats, STATS_WORDS};

/// Generations tracked per shard.  A rollback window deeper than this many
/// *concurrently active* epochs recycles the oldest slot; totals are never
/// lost, only re-attributed to the slot's successor.
pub const GENERATION_SLOTS: usize = 4;

/// (epoch, accepted, dropped) per generation slot, after the
/// [`STATS_WORDS`] of [`EnforcerStats::to_words`].
const RING_WORDS: usize = 3 * GENERATION_SLOTS;
/// Shard health words: state, faults, respawns, stalls.
const HEALTH_WORDS: usize = 4;
/// First health word index.
const W_HEALTH: usize = STATS_WORDS + RING_WORDS;
/// Checksum word index (wrapping sum of every preceding word).
const W_CHECKSUM: usize = W_HEALTH + HEALTH_WORDS;
/// Total payload words of one snapshot.
const SNAPSHOT_WORDS: usize = W_CHECKSUM + 1;

/// Verdict deltas attributed to one tables epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenerationCounters {
    /// The flow-cache epoch of the generation (0 = empty slot).  Epochs are
    /// process-unique and monotonic, so consumers can order slots by age.
    pub epoch: u64,
    /// Packets accepted while this epoch was the published one.
    pub accepted: u64,
    /// Packets dropped (any reason) while this epoch was the published one.
    pub dropped: u64,
}

/// One consistent per-shard telemetry publication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Publication count (how many times the shard has published).
    pub publications: u64,
    /// The shard's enforcement counters as of the publication.
    pub stats: EnforcerStats,
    /// Verdict deltas per recently active tables epoch.
    pub generations: [GenerationCounters; GENERATION_SLOTS],
    /// The shard's health state machine as of the publication.
    pub health: ShardHealthSnapshot,
    /// The checksum word as published (see
    /// [`TelemetrySnapshot::checksum_valid`]).
    pub checksum: u64,
}

impl TelemetrySnapshot {
    /// Does the published checksum verify against the payload?  A stable
    /// sequence stamp already guarantees this; the word exists so tests can
    /// prove the guarantee rather than assume it.
    pub fn checksum_valid(&self) -> bool {
        let mut words = [0u64; SNAPSHOT_WORDS];
        write_payload(&mut words, &self.stats, &self.generations, &self.health);
        words[W_CHECKSUM] == self.checksum
    }

    /// Cross-counter invariants that only hold on untorn snapshots: every
    /// inspected packet was either accepted or dropped, the per-variant
    /// wire counters sum to the aggregate, and the generation ring never
    /// accounts more verdicts than the shard produced.
    pub fn consistent(&self) -> bool {
        let stats = &self.stats;
        let ring_accepted: u64 = self.generations.iter().map(|g| g.accepted).sum();
        let ring_dropped: u64 = self.generations.iter().map(|g| g.dropped).sum();
        stats.packets_inspected == stats.packets_accepted + stats.total_dropped()
            && stats.dropped_wire == stats.dropped_wire_by.total()
            && ring_accepted <= stats.packets_accepted
            && ring_dropped <= stats.total_dropped()
            && self.checksum_valid()
    }
}

/// Serialize the stats + ring + health into the word layout (checksum
/// stamped last).
fn write_payload(
    words: &mut [u64; SNAPSHOT_WORDS],
    stats: &EnforcerStats,
    ring: &[GenerationCounters; GENERATION_SLOTS],
    health: &ShardHealthSnapshot,
) {
    words[..STATS_WORDS].copy_from_slice(&stats.to_words());
    for (slot, counters) in ring.iter().enumerate() {
        let base = STATS_WORDS + 3 * slot;
        words[base] = counters.epoch;
        words[base + 1] = counters.accepted;
        words[base + 2] = counters.dropped;
    }
    words[W_HEALTH] = health.state as u8 as u64;
    words[W_HEALTH + 1] = health.faults;
    words[W_HEALTH + 2] = health.respawns;
    words[W_HEALTH + 3] = health.stalls;
    words[W_CHECKSUM] = checksum(words);
}

/// Deserialize the word layout back into a snapshot.
fn read_payload(
    words: &[u64; SNAPSHOT_WORDS],
) -> (
    EnforcerStats,
    [GenerationCounters; GENERATION_SLOTS],
    ShardHealthSnapshot,
) {
    let stats = EnforcerStats::from_words(
        words
            .first_chunk()
            .expect("a snapshot starts with the stats words"),
    );
    let mut ring = [GenerationCounters::default(); GENERATION_SLOTS];
    for (slot, counters) in ring.iter_mut().enumerate() {
        let base = STATS_WORDS + 3 * slot;
        counters.epoch = words[base];
        counters.accepted = words[base + 1];
        counters.dropped = words[base + 2];
    }
    let health = ShardHealthSnapshot {
        state: HealthState::from_word(words[W_HEALTH]),
        faults: words[W_HEALTH + 1],
        respawns: words[W_HEALTH + 2],
        stalls: words[W_HEALTH + 3],
    };
    (stats, ring, health)
}

/// Wrapping sum of every payload word before the checksum slot.
fn checksum(words: &[u64; SNAPSHOT_WORDS]) -> u64 {
    words[..W_CHECKSUM]
        .iter()
        .fold(0u64, |acc, word| acc.wrapping_add(*word))
}

/// One shard's seqlock-published snapshot cell (see the module docs for the
/// protocol).  Writers must hold the shard lock — that is what makes
/// "single writer" true at every publication site (the shard only publishes
/// from a borrow of the state the lock guards); the cell itself never
/// blocks anyone.
#[derive(Debug)]
pub struct TelemetryCell {
    /// The sequence stamp: odd while a publication is in flight, even and
    /// monotonically increasing between publications.
    seq: AtomicU64,
    /// The snapshot payload words (layout in [`write_payload`]).
    words: [AtomicU64; SNAPSHOT_WORDS],
}

impl Default for TelemetryCell {
    fn default() -> Self {
        TelemetryCell {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl TelemetryCell {
    /// Publish the shard's current counters, attributing the verdict delta
    /// since the previous publication to `epoch`'s generation-ring slot.
    ///
    /// Caller must be the shard's sole telemetry writer (hold the shard
    /// lock).  Cost: one copy of the counters plus `SNAPSHOT_WORDS` (42
    /// today) relaxed stores and two stamp stores — no RMW, no lock.
    pub(crate) fn publish(&self, stats: &EnforcerCounters, epoch: u64, health: &ShardHealth) {
        let snapshot = stats.snapshot();
        let health = health.snapshot();

        // The previous payload is writer-private between publications (the
        // shard lock serializes writers), so these relaxed loads see exactly
        // the last published words.
        let mut words = [0u64; SNAPSHOT_WORDS];
        for (word, cell) in words.iter_mut().zip(self.words.iter()) {
            *word = cell.load(Ordering::Relaxed);
        }
        let (previous, mut ring, _) = read_payload(&words);

        // A counter reset (tests, operator action) makes some lane run
        // backwards; restart attribution from the new totals rather than
        // wrap.
        let delta = match snapshot.delta_since(&previous) {
            Some(delta) => delta,
            None => {
                ring = [GenerationCounters::default(); GENERATION_SLOTS];
                snapshot
            }
        };
        let (delta_accepted, delta_dropped) = (delta.packets_accepted, delta.total_dropped());
        if delta_accepted != 0 || delta_dropped != 0 || ring.iter().all(|g| g.epoch == 0) {
            let slot = ring_slot(&mut ring, epoch);
            slot.accepted += delta_accepted;
            slot.dropped += delta_dropped;
        }

        write_payload(&mut words, &snapshot, &ring, &health);

        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        // Pair with the reader's acquire fence: payload stores must not be
        // observable before the odd stamp.
        fence(Ordering::Release);
        for (cell, word) in self.words.iter().zip(words.iter()) {
            cell.store(*word, Ordering::Relaxed);
        }
        // Release: a reader that acquires the even stamp sees every payload
        // store that preceded it.
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Zero the cell (paired with a stats reset).  Caller must hold the
    /// shard lock, like every writer.
    pub(crate) fn reset(&self) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        for cell in &self.words {
            cell.store(0, Ordering::Relaxed);
        }
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// One snapshot attempt: `None` if a publication raced the copy (odd or
    /// changed stamp).  Exposed so tests can prove the retry protocol is
    /// what prevents torn reads; most callers want [`TelemetryCell::read`].
    pub fn try_read(&self) -> Option<TelemetrySnapshot> {
        let before = self.seq.load(Ordering::Acquire);
        if before & 1 == 1 {
            return None;
        }
        let mut words = [0u64; SNAPSHOT_WORDS];
        for (word, cell) in words.iter_mut().zip(self.words.iter()) {
            *word = cell.load(Ordering::Relaxed);
        }
        // Pair with the writer's release fence: the re-read of the stamp
        // must not be satisfied before the payload loads above.
        fence(Ordering::Acquire);
        let after = self.seq.load(Ordering::Relaxed);
        if before != after {
            return None;
        }
        let (stats, generations, health) = read_payload(&words);
        Some(TelemetrySnapshot {
            publications: before / 2,
            stats,
            generations,
            health,
            checksum: words[W_CHECKSUM],
        })
    }

    /// A consistent snapshot, spinning until an attempt lands between
    /// publications.  Writers publish in nanoseconds, so the spin is short;
    /// readers never block a writer.
    pub fn read(&self) -> TelemetrySnapshot {
        loop {
            if let Some(snapshot) = self.try_read() {
                return snapshot;
            }
            std::hint::spin_loop();
        }
    }
}

/// The ring slot for `epoch`: its existing slot, an empty one, or — evicting
/// — the oldest (smallest-epoch) slot, whose counts are re-attributed.
fn ring_slot(
    ring: &mut [GenerationCounters; GENERATION_SLOTS],
    epoch: u64,
) -> &mut GenerationCounters {
    let position = ring
        .iter()
        .position(|slot| slot.epoch == epoch)
        .or_else(|| ring.iter().position(|slot| slot.epoch == 0))
        .unwrap_or_else(|| {
            let oldest = ring
                .iter()
                .enumerate()
                .min_by_key(|(_, slot)| slot.epoch)
                .map(|(index, _)| index)
                .unwrap_or(0);
            ring[oldest] = GenerationCounters::default();
            oldest
        });
    let slot = &mut ring[position];
    slot.epoch = epoch;
    slot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters_with(accepted: u64, dropped_by_policy: u64) -> EnforcerCounters {
        let counters = EnforcerCounters::new();
        counters.store(EnforcerStats {
            packets_inspected: accepted + dropped_by_policy,
            packets_accepted: accepted,
            dropped_by_policy,
            ..EnforcerStats::default()
        });
        counters
    }

    #[test]
    fn fresh_cell_reads_zeroed_and_consistent() {
        let cell = TelemetryCell::default();
        let snapshot = cell.read();
        assert_eq!(snapshot.publications, 0);
        assert_eq!(snapshot.stats, EnforcerStats::default());
        assert!(snapshot.consistent(), "{snapshot:?}");
    }

    #[test]
    fn publish_roundtrips_stats_and_attributes_the_delta() {
        let cell = TelemetryCell::default();
        cell.publish(&counters_with(7, 3), 42, &ShardHealth::default());
        let snapshot = cell.read();
        assert_eq!(snapshot.publications, 1);
        assert_eq!(snapshot.stats.packets_accepted, 7);
        assert_eq!(snapshot.stats.dropped_by_policy, 3);
        assert_eq!(snapshot.generations[0].epoch, 42);
        assert_eq!(snapshot.generations[0].accepted, 7);
        assert_eq!(snapshot.generations[0].dropped, 3);
        assert!(snapshot.consistent(), "{snapshot:?}");
    }

    /// The table-walking test's seqlock leg (the rest lives in
    /// `tests/observability.rs`): a distinct value in every stats lane
    /// survives publish → read, and the ring is fed from the kind sums.
    #[test]
    fn every_lane_survives_publish_and_read() {
        let words: [u64; STATS_WORDS] = std::array::from_fn(|lane| 1_000 + 37 * lane as u64);
        let stats = EnforcerStats::from_words(&words);
        let counters = EnforcerCounters::new();
        counters.store(stats);
        let cell = TelemetryCell::default();
        cell.publish(&counters, 9, &ShardHealth::default());
        let snapshot = cell.read();
        assert_eq!(snapshot.stats.to_words(), words);
        assert!(snapshot.checksum_valid());
        assert_eq!(snapshot.generations[0].accepted, stats.packets_accepted);
        assert_eq!(snapshot.generations[0].dropped, stats.total_dropped());
    }

    #[test]
    fn deltas_split_across_epochs() {
        let cell = TelemetryCell::default();
        cell.publish(&counters_with(5, 1), 10, &ShardHealth::default());
        cell.publish(&counters_with(9, 4), 11, &ShardHealth::default());
        let snapshot = cell.read();
        assert_eq!(snapshot.publications, 2);
        let by_epoch: Vec<_> = snapshot
            .generations
            .iter()
            .filter(|g| g.epoch != 0)
            .collect();
        assert_eq!(by_epoch.len(), 2);
        assert_eq!((by_epoch[0].accepted, by_epoch[0].dropped), (5, 1));
        assert_eq!((by_epoch[1].accepted, by_epoch[1].dropped), (4, 3));
        assert!(snapshot.consistent());
    }

    #[test]
    fn ring_evicts_the_oldest_epoch_at_capacity() {
        let cell = TelemetryCell::default();
        for (index, epoch) in (100..100 + GENERATION_SLOTS as u64 + 1).enumerate() {
            cell.publish(
                &counters_with((index as u64 + 1) * 2, 0),
                epoch,
                &ShardHealth::default(),
            );
        }
        let snapshot = cell.read();
        let epochs: Vec<u64> = snapshot
            .generations
            .iter()
            .map(|g| g.epoch)
            .filter(|&e| e != 0)
            .collect();
        assert_eq!(epochs.len(), GENERATION_SLOTS);
        assert!(
            !epochs.contains(&100),
            "oldest epoch must be evicted: {epochs:?}"
        );
        assert!(epochs.contains(&(100 + GENERATION_SLOTS as u64)));
    }

    #[test]
    fn counter_reset_restarts_attribution_without_wrapping() {
        let cell = TelemetryCell::default();
        cell.publish(&counters_with(50, 5), 7, &ShardHealth::default());
        let fresh = EnforcerCounters::new();
        fresh.store(EnforcerStats {
            packets_inspected: 2,
            packets_accepted: 2,
            ..EnforcerStats::default()
        });
        cell.publish(&fresh, 8, &ShardHealth::default());
        let snapshot = cell.read();
        assert_eq!(snapshot.stats.packets_accepted, 2);
        let total_ring: u64 = snapshot.generations.iter().map(|g| g.accepted).sum();
        assert_eq!(total_ring, 2, "{snapshot:?}");
        assert!(snapshot.consistent());
    }

    #[test]
    fn reset_zeroes_the_published_payload() {
        let cell = TelemetryCell::default();
        cell.publish(&counters_with(9, 9), 3, &ShardHealth::default());
        cell.reset();
        let snapshot = cell.read();
        assert_eq!(snapshot.stats, EnforcerStats::default());
        assert_eq!(
            snapshot.generations,
            [GenerationCounters::default(); GENERATION_SLOTS]
        );
        assert!(snapshot.consistent());
    }

    #[test]
    fn try_read_refuses_an_in_flight_publication() {
        let cell = TelemetryCell::default();
        // Force the stamp odd, as if a writer were mid-publication.
        cell.seq.store(1, Ordering::Release);
        assert!(cell.try_read().is_none());
        cell.seq.store(2, Ordering::Release);
        assert!(cell.try_read().is_some());
    }

    #[test]
    fn checksum_detects_a_hand_torn_payload() {
        let cell = TelemetryCell::default();
        cell.publish(&counters_with(4, 2), 1, &ShardHealth::default());
        let mut snapshot = cell.read();
        assert!(snapshot.checksum_valid());
        snapshot.stats.packets_accepted += 1;
        assert!(
            !snapshot.checksum_valid(),
            "tampered payload must not verify"
        );
    }
}
