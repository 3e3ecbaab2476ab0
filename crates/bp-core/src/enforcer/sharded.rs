//! The sharded enforcer: per-shard mutable state ([`EnforcerShard`]), the
//! `Arc`-shared core the worker pool holds ([`EnforcerCore`]) and the
//! [`ShardedEnforcer`] front end.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard, RwLock};

use bp_netsim::addr::Endpoint;
use bp_netsim::clock::SimDuration;
use bp_netsim::netfilter::{DropReason, QueueHandler, Verdict};
use bp_netsim::packet::Ipv4Packet;

use super::{EnforcementTables, EnforcerConfig};
use crate::faults::{FaultInjector, HealthState, ShardHealth, ShardHealthSnapshot};
use crate::flow::{FlowTable, FlowTableConfig};
use crate::offline::SignatureDatabase;
use crate::policy::PolicySet;
use crate::runtime::{Submission, WorkerPool};
use crate::stats::{
    charge_fixed_drop, charge_wire_drop, Counter, DropLog, EnforcerCounters, EnforcerStats,
};
use crate::telemetry::{TelemetryCell, TelemetrySnapshot};
use crate::wire::{self, WireFrame};

/// Everything one shard mutates while inspecting: counters, drop log,
/// decode scratch, inline encode buffer and flow table.  It only ever
/// exists inside [`EnforcerShard`]'s one mutex, so whoever holds a
/// `&mut ShardState` is the shard's owner for as long as the guard lives —
/// the sole counter writer, the sole drop-log writer and the sole telemetry
/// publisher.
#[derive(Debug)]
pub(crate) struct ShardState {
    pub(crate) counters: EnforcerCounters,
    pub(crate) drop_log: DropLog,
    pub(crate) scratch: Vec<u32>,
    /// The frame an inline `inspect` encodes its packet into, reused from
    /// call to call.
    frame: Vec<u8>,
    pub(crate) flow: FlowTable,
}

/// One worker shard.  Batch partitioning is by flow, so a flow's packets
/// always land on the same shard and the flow table needs no cross-shard
/// synchronization.
///
/// The shard has **one lock**, taken only through
/// [`EnforcerShard::lock_state`]: an inline `inspect`, a batch worker and a
/// reader of the statistics all queue for the same mutex, so there is no
/// acquisition order to get wrong and nothing they read can tear.
#[derive(Debug)]
pub(crate) struct EnforcerShard {
    state: Mutex<ShardState>,
    /// The shard's seqlock-published telemetry snapshot: written only
    /// through [`EnforcerShard::publish`], read (by the observability
    /// collector) without locking anything.
    telemetry: TelemetryCell,
    /// The shard's health state machine (Healthy → Degraded → Quarantined),
    /// fed by the runtime's panic recovery, respawn and watchdog paths and
    /// published through the telemetry snapshot.
    pub(crate) health: ShardHealth,
}

impl EnforcerShard {
    fn with_flow_config(config: FlowTableConfig) -> Self {
        EnforcerShard {
            state: Mutex::new(ShardState {
                counters: EnforcerCounters::default(),
                drop_log: DropLog::default(),
                scratch: Vec::new(),
                frame: Vec::new(),
                flow: FlowTable::new(config),
            }),
            telemetry: TelemetryCell::default(),
            health: ShardHealth::default(),
        }
    }

    /// Become the shard's owner until the guard drops.  The only place
    /// shard state is locked.
    pub(crate) fn lock_state(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock()
    }

    /// Publish the owner's counters as the shard's telemetry snapshot.
    /// Taking the state the lock guards is what proves the caller is the
    /// cell's single writer.
    pub(crate) fn publish(&self, state: &ShardState, epoch: u64) {
        self.telemetry.publish(&state.counters, epoch, &self.health);
    }
}

/// The shared half of a [`ShardedEnforcer`]: the hot-swappable tables, the
/// per-shard mutable state and the simulated clock.
///
/// Split out behind an `Arc` so the persistent worker threads of the
/// [`WorkerPool`](crate::runtime) can hold it across batches — the pool's
/// shutdown join (on enforcer drop) releases the last worker references.
#[derive(Debug)]
pub(crate) struct EnforcerCore {
    /// The active compiled tables.  Behind an `RwLock` so administrators can
    /// hot-swap policies (a control-plane commit installing a new
    /// generation) while workers are mid-batch.  Workers do **not** take
    /// this lock per packet: they cache the `Arc` and revalidate it against
    /// `tables_generation` (one Acquire load of a rarely-written line per
    /// packet), re-reading the lock only when a swap actually happened — so
    /// every packet inspected after the installation returns uses the new
    /// tables and the new epoch, without cross-shard lock or refcount
    /// traffic in the hot loop.
    tables: RwLock<Arc<EnforcementTables>>,
    /// Bumped (release) after each table installation; workers watch it
    /// (acquire) to notice swaps without touching the lock.
    pub(crate) tables_generation: AtomicU64,
    pub(crate) shards: Vec<EnforcerShard>,
    /// Simulated time in microseconds, advanced by the driving clock owner;
    /// used for flow-table TTL expiry.
    now_micros: AtomicU64,
    /// The armed fault injector, if any (first install wins).  Inert cost on
    /// the hot path is one `OnceLock` load per partition.
    pub(crate) faults: OnceLock<Arc<FaultInjector>>,
}

impl EnforcerCore {
    /// Number of worker shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The currently active compiled tables.
    pub(crate) fn tables(&self) -> Arc<EnforcementTables> {
        Arc::clone(&self.tables.read())
    }

    /// The enforcer's current view of simulated time.
    pub(crate) fn now(&self) -> SimDuration {
        SimDuration::from_micros(self.now_micros.load(Ordering::Relaxed))
    }

    /// The shard a packet from `source` is routed to: flows stick to shards
    /// so per-flow packet order is preserved within a shard.  The source
    /// endpoint is all of a packet the routing reads.
    pub(crate) fn shard_for_source(&self, source: Endpoint) -> usize {
        let octets = source.ip.octets();
        let mut key = u64::from(u32::from_be_bytes(octets));
        key = (key << 16) | u64::from(source.port);
        // Fibonacci hashing spreads sequential addresses across shards.
        let hashed = key.wrapping_mul(0x9E3779B97F4A7C15);
        (hashed >> 32) as usize % self.shards.len()
    }

    /// Inspect one packet inline on its flow's shard as the frame it
    /// encodes to (see [`ShardedEnforcer::inspect`]), publishing the shard's
    /// telemetry snapshot before the lock drops — one inline inspect is its
    /// own batch.
    pub(crate) fn inspect(&self, packet: &Ipv4Packet) -> Verdict {
        let tables = self.tables();
        let shard = &self.shards[self.shard_for_source(packet.source())];
        let state = &mut *shard.lock_state();
        wire::encode_into(packet, &mut state.frame);
        let verdict = match WireFrame::parse(&state.frame) {
            Ok(frame) => tables.inspect_flow_cached(
                &frame,
                &mut state.flow,
                self.now(),
                &mut state.scratch,
                &state.counters,
                &mut state.drop_log,
            ),
            Err(error) => charge_wire_drop(&state.counters, &mut state.drop_log, error),
        };
        shard.publish(state, tables.epoch());
        verdict
    }

    /// Charge drops that no inspection path produced (wire-decode failures,
    /// overload sheds, a panicked partition's remainder) to `shard`: lock
    /// it, let `charge` attribute them, then publish the shard's telemetry
    /// before the lock drops.
    pub(crate) fn charge_on<R>(
        &self,
        shard: usize,
        charge: impl FnOnce(&EnforcerCounters, &mut DropLog) -> R,
    ) -> R {
        let shard = &self.shards[shard];
        let state = &mut *shard.lock_state();
        let charged = charge(&state.counters, &mut state.drop_log);
        shard.publish(state, self.tables.read().epoch());
        charged
    }

    // The batch partition loop, which dereferences borrowed-batch raw
    // pointers (`run_partition`), lives in `crate::runtime`, the one module
    // allowed to contain `unsafe`.
}

/// The fail-closed placeholder every verdict slot holds until a partition
/// writes it: a drop no counter has been charged for yet, told apart from
/// every attributed drop by its empty reason (which owns no heap, so
/// filling a slot array with it allocates nothing).
pub(crate) fn unattributed_drop() -> Verdict {
    Verdict::Drop {
        reason: DropReason::Static(""),
    }
}

/// The Policy Enforcer: one set of compiled [`EnforcementTables`] shared by
/// `N` worker shards, each with private mutable state.  With one shard it is
/// the single NFQUEUE consumer; there is no other enforcer type.
///
/// [`ShardedEnforcer::inspect_batch`] partitions a batch by flow (source
/// endpoint), inspects each partition on a worker owned by that shard and
/// returns per-packet verdicts in input order.  The workers are persistent
/// per-shard threads (see [`crate::runtime`]): each is spawned the first
/// time a batch fans out to its shard, parked when idle and joined on drop;
/// the last busy partition of every batch runs on the submitting thread, so
/// a one-shard enforcer never spawns one.  Statistics are read shard by
/// shard, each between two of that shard's partitions.
///
/// # Examples
///
/// ```
/// use bp_core::enforcer::{EnforcerConfig, EnforcementTables, ShardedEnforcer};
/// use bp_core::offline::SignatureDatabase;
/// use bp_core::policy::PolicySet;
///
/// let tables = EnforcementTables::shared(
///     &SignatureDatabase::new(),
///     &PolicySet::new(),
///     EnforcerConfig::default(),
/// );
/// let enforcer = ShardedEnforcer::new(tables, 4);
/// assert_eq!(enforcer.shard_count(), 4);
/// assert_eq!(enforcer.stats().packets_inspected, 0);
/// ```
#[derive(Debug)]
pub struct ShardedEnforcer {
    pub(super) core: Arc<EnforcerCore>,
    /// The per-shard worker lanes every batch runs through.  Holds no thread
    /// until a batch fans out, so enforcers that never batch cost none.
    /// Dropped — shutdown messages, workers joined — with the enforcer.
    pub(super) pool: WorkerPool,
    /// The struct entry points' encode buffers, one per packet of the
    /// largest struct batch so far, reused from batch to batch.  Taken
    /// before the pool's submission lock, never after it.
    encoded: Mutex<Vec<Vec<u8>>>,
    /// Overload-guard admission watermark in parsable frames per batch;
    /// `0` means the guard is off.  The frames past it are shed fail-closed
    /// under [`EnforcerStats::dropped_overload`] instead of being inspected.
    overload_watermark: AtomicUsize,
}

impl ShardedEnforcer {
    /// Create an enforcer fanning out over `shards` workers (at least one).
    pub fn new(tables: Arc<EnforcementTables>, shards: usize) -> Self {
        Self::with_flow_config(tables, shards, FlowTableConfig::default())
    }

    /// Like [`ShardedEnforcer::new`] with explicit per-shard flow-table
    /// bounds.
    pub fn with_flow_config(
        tables: Arc<EnforcementTables>,
        shards: usize,
        flow: FlowTableConfig,
    ) -> Self {
        let core = Arc::new(EnforcerCore {
            tables: RwLock::new(tables),
            tables_generation: AtomicU64::new(0),
            shards: (0..shards.max(1))
                .map(|_| EnforcerShard::with_flow_config(flow))
                .collect(),
            now_micros: AtomicU64::new(0),
            faults: OnceLock::new(),
        });
        ShardedEnforcer {
            pool: WorkerPool::new(&core),
            core,
            encoded: Mutex::new(Vec::new()),
            overload_watermark: AtomicUsize::new(0),
        }
    }

    /// Convenience constructor compiling the tables from interchange forms.
    pub fn from_parts(
        database: &SignatureDatabase,
        policies: &PolicySet,
        config: EnforcerConfig,
        shards: usize,
    ) -> Self {
        Self::new(
            EnforcementTables::shared(database, policies, config),
            shards,
        )
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// The currently active compiled tables.
    pub fn tables(&self) -> Arc<EnforcementTables> {
        self.core.tables()
    }

    /// The swap primitive behind the control plane's endpoint installation.
    ///
    /// Safe under concurrent [`ShardedEnforcer::inspect_batch`]: once this
    /// returns, every subsequently inspected packet is evaluated against
    /// `tables`, and flow-table entries cached under the previous epoch can
    /// no longer be served (their probes miss and re-evaluate).  Every
    /// partition observes the swap through the generation counter it
    /// revalidates per packet.
    pub(crate) fn install_tables(&self, tables: Arc<EnforcementTables>) {
        *self.core.tables.write() = tables;
        // Release-publish the swap *after* installation: a worker that
        // observes the new generation (acquire) and re-reads the lock is
        // guaranteed to see the new tables.
        self.core.tables_generation.fetch_add(1, Ordering::Release);
    }

    /// Advance the enforcer's view of simulated time (used for flow-table
    /// TTL expiry).  Callable from the clock owner while workers run.
    pub fn set_now(&self, now: SimDuration) {
        self.core
            .now_micros
            .store(now.as_micros(), Ordering::Relaxed);
    }

    /// The enforcer's current view of simulated time.
    pub fn now(&self) -> SimDuration {
        self.core.now()
    }

    /// Number of flows currently tracked across all shards' verdict caches.
    pub fn flow_cache_len(&self) -> usize {
        let shards = self.core.shards.iter();
        shards.map(|s| s.lock_state().flow.len()).sum()
    }

    /// Drop every cached flow verdict on every shard (statistics are kept).
    pub fn clear_flow_cache(&self) {
        for shard in &self.core.shards {
            shard.lock_state().flow.clear();
        }
    }

    /// The shard a packet is routed to: flows stick to shards so per-flow
    /// packet order is preserved within a shard.
    pub fn shard_for(&self, packet: &Ipv4Packet) -> usize {
        self.core.shard_for_source(packet.source())
    }

    /// Inspect one packet inline on its flow's shard (flow-cached).
    ///
    /// Like a struct batch, the packet is judged as the frame it encodes
    /// to, so every entry point gives it one verdict: under its shard's
    /// lock, and no other, it is written with [`wire::encode_into`] into a
    /// buffer the shard reuses from call to call and inspected through
    /// [`WireFrame::parse`].  A packet longer than 65 535 bytes fails the
    /// parse: an attributed [`EnforcerStats::dropped_wire`] drop charged to
    /// the packet's own shard, where a batch charges it to shard 0 — the
    /// merged statistics agree, the per-shard ones differ.  An armed fault
    /// plan's wire corruption never fires inline: it stays a function of
    /// the batch frames.  Warm, over a cached flow, this allocates nothing.
    pub fn inspect(&self, packet: &Ipv4Packet) -> Verdict {
        self.core.inspect(packet)
    }

    /// Inspect a batch of packets, fanning partitions across the shards'
    /// workers, and return verdicts in input order.
    ///
    /// Allocates the returned vector; hot loops that inspect batch after
    /// batch should reuse a buffer through
    /// [`ShardedEnforcer::inspect_batch_into`], which allocates nothing on
    /// a batch of cached flows.
    pub fn inspect_batch(&self, packets: &[Ipv4Packet]) -> Vec<Verdict> {
        let mut verdicts = Vec::with_capacity(packets.len());
        self.inspect_batch_into(packets, &mut verdicts);
        verdicts
    }

    /// Inspect a batch of packets, writing verdicts (input order, one per
    /// packet) into `verdicts`, which is cleared first.
    ///
    /// A struct batch is judged as the frames it encodes to: each packet is
    /// written with [`wire::encode_into`] into a buffer reused from batch to
    /// batch — one encode per packet — and the frames take the byte ingress
    /// of [`ShardedEnforcer::inspect_wire_batch_into`], the overload guard
    /// and injected wire corruption included.  So a shape the wire cannot
    /// carry gets the verdict of the frame the encoder writes for it (a
    /// mid-list End-of-List entry makes what follows post-EOL data, a
    /// trailing-data flag without 2 free option bytes is dropped), and a
    /// packet longer than 65 535 bytes fails the parse: an attributed
    /// [`EnforcerStats::dropped_wire`] drop.
    ///
    /// With a reused `verdicts` buffer this performs **zero allocations**
    /// per batch whenever every packet's flow is cached — accepted or
    /// dropped — and no packet outgrows the encode buffer it last used.
    pub fn inspect_batch_into(&self, packets: &[Ipv4Packet], verdicts: &mut Vec<Verdict>) {
        self.inspect_encoded(packets.iter(), verdicts);
    }

    /// Inspect a batch of raw wire frames and return verdicts in frame
    /// order.  Allocating variant of
    /// [`ShardedEnforcer::inspect_wire_batch_into`].
    pub fn inspect_wire_batch(&self, frames: &[&[u8]]) -> Vec<Verdict> {
        let mut verdicts = Vec::with_capacity(frames.len());
        self.inspect_wire_batch_into(frames, &mut verdicts);
        verdicts
    }

    /// Inspect a batch of raw wire frames in place: validate each through
    /// the byte ingress boundary ([`WireFrame::parse`]), route the ones that
    /// parse to their shards, inspect them as borrowed views — no packet is
    /// materialized, and a batch of cached flows allocates nothing — and
    /// write one verdict per frame (frame order) into `verdicts`.
    ///
    /// A frame that fails validation never reaches enforcement: it yields a
    /// fail-closed [`Verdict::Drop`] whose reason is the typed
    /// [`WireError::drop_reason`](crate::wire::WireError::drop_reason),
    /// counted in [`EnforcerStats::dropped_wire`] and recorded in the drop
    /// log.  Malformed frames are charged to shard 0 — an unparsable frame
    /// has no flow key to hash a shard from.  Never panics on malformed
    /// input.
    ///
    /// Under an overload watermark ([`ShardedEnforcer::set_overload_watermark`])
    /// only frames that parse count against it: a malformed frame is always
    /// charged `dropped_wire`, the first `watermark` parsable frames are
    /// inspected and the remaining parsable ones are shed.  Shard 0's drop
    /// log reads in that order too — wire failures are charged before
    /// inspection, sheds after it.
    pub fn inspect_wire_batch_into(&self, frames: &[&[u8]], verdicts: &mut Vec<Verdict>) {
        let mut batch = self.pool.begin(frames.len());
        self.admit_and_run(&mut batch, frames.iter().copied(), verdicts);
    }

    /// The struct entry points' adapter: encode `packets` into the reused
    /// buffers, then run them as frames.
    fn inspect_encoded<'p>(
        &self,
        packets: impl ExactSizeIterator<Item = &'p Ipv4Packet>,
        verdicts: &mut Vec<Verdict>,
    ) {
        let len = packets.len();
        let mut encoded = self.encoded.lock();
        if encoded.len() < len {
            encoded.resize_with(len, Vec::new);
        }
        for (packet, frame) in packets.zip(encoded.iter_mut()) {
            wire::encode_into(packet, frame);
        }
        let frames = encoded[..len].iter().map(Vec::as_slice);
        self.admit_and_run(&mut self.pool.begin(len), frames, verdicts);
    }

    /// The byte ingress's admission loop — the one body every batch runs,
    /// whichever entry point it came through: parse each frame (or fail it
    /// as the armed fault plan schedules), route what parses and the
    /// overload guard admits, then charge the wire failures, inspect the
    /// routed frames and charge the sheds, writing one verdict per frame
    /// into `verdicts`.
    fn admit_and_run<'f>(
        &self,
        batch: &mut Submission<'_, 'f>,
        frames: impl ExactSizeIterator<Item = &'f [u8]>,
        verdicts: &mut Vec<Verdict>,
    ) {
        let core = &*self.core;
        let injector = core.faults.get();
        // How many parsable frames the overload guard admits.
        let admission = match self.overload_watermark.load(Ordering::Relaxed) {
            0 => usize::MAX,
            watermark => watermark,
        };
        verdicts.clear();
        // Pre-size the slot array with **fail-closed** placeholders: every
        // slot is overwritten exactly once on the normal path, and a
        // partition that panics has its uninspected slots converted into
        // attributed `dropped_runtime_fault` drops by the recovery path —
        // never silent accepts.
        verdicts.resize(frames.len(), unattributed_drop());
        let mut admitted = 0;
        for (index, bytes) in frames.enumerate() {
            // Injected wire corruption: the frame fails closed through the
            // ordinary typed wire-error path, deterministically.
            let parsed = if injector.is_some_and(|i| i.corrupt_next_frame()) {
                Err(wire::corrupted_frame_error(bytes))
            } else {
                WireFrame::parse(bytes)
            };
            match parsed {
                Ok(frame) if admitted < admission => {
                    admitted += 1;
                    batch.route_frame(core.shard_for_source(frame.source()), index, &frame);
                }
                Ok(_) => batch.shed(index),
                Err(error) => batch.fail(index, error),
            }
        }
        if !batch.failures().is_empty() {
            core.charge_on(0, |stats, drop_log| {
                for &(index, error) in batch.failures() {
                    verdicts[index] = charge_wire_drop(stats, drop_log, error);
                }
            });
        }
        batch.run(verdicts);
        if !batch.sheds().is_empty() {
            core.charge_on(0, |stats, drop_log| {
                for &index in batch.sheds() {
                    verdicts[index] = charge_fixed_drop(stats, drop_log, Counter::Overload);
                }
            });
        }
    }

    /// Merged statistics across all shards.  Each shard is read under its
    /// lock, so every addend conserves; shards are read one after another,
    /// so the sum is of per-shard instants, not one global one.
    pub fn stats(&self) -> EnforcerStats {
        self.shard_stats()
            .iter()
            .fold(EnforcerStats::default(), |acc, shard| acc.merged(shard))
    }

    /// Per-shard statistics, each read under its shard's lock: exact as of
    /// an instant between two of that shard's partitions, so `inspected ==
    /// accepted + dropped` holds on every entry even while batches run.  A
    /// reader waits for the partition the shard is running;
    /// [`ShardedEnforcer::telemetry`] is the reader that never waits.
    pub fn shard_stats(&self) -> Vec<EnforcerStats> {
        let shards = self.core.shards.iter();
        shards.map(|s| s.lock_state().counters.snapshot()).collect()
    }

    /// One shard's latest seqlock-published telemetry snapshot (consistent:
    /// the reader retries until an attempt lands between publications).
    /// Unlike [`ShardedEnforcer::shard_stats`] it takes no lock, so it
    /// never waits for a running partition — and reads the counters as of
    /// the shard's last batch end, not as of now.
    pub fn shard_telemetry(&self, shard: usize) -> TelemetrySnapshot {
        self.core.shards[shard].telemetry.read()
    }

    /// Every shard's latest telemetry snapshot, in shard order.
    pub fn telemetry(&self) -> Vec<TelemetrySnapshot> {
        (0..self.shard_count())
            .map(|shard| self.shard_telemetry(shard))
            .collect()
    }

    /// Drop reasons across all shards (grouped by shard, oldest first within
    /// each shard).
    pub fn drop_log(&self) -> Vec<String> {
        // Copy the reasons (pointers and refcounts) under the lock a worker
        // needs; render the text after releasing it.
        let shards = self.core.shards.iter();
        let copies = shards.map(|s| s.lock_state().drop_log.clone());
        copies.flat_map(|log| log.to_vec()).collect()
    }

    /// Arm a deterministic fault injector on this enforcer's data plane
    /// (worker panics, stalls, wire corruption — see
    /// [`crate::faults::FaultPlan`]).  First install wins; later calls are
    /// ignored.  Without an installed injector the hooks cost one
    /// `OnceLock` load per partition.
    pub fn install_faults(&self, injector: Arc<FaultInjector>) {
        let _ = self.core.faults.set(injector);
    }

    /// The armed fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.core.faults.get()
    }

    /// Set the overload-guard admission watermark in packets per batch
    /// (`0` disables the guard).  Batches longer than the watermark have
    /// their tail shed fail-closed under
    /// [`EnforcerStats::dropped_overload`] instead of being inspected.  The
    /// watermark counts *parsable* frames only — a struct batch is a batch
    /// of the frames it encodes to; see
    /// [`ShardedEnforcer::inspect_wire_batch_into`].
    pub fn set_overload_watermark(&self, watermark: usize) {
        self.overload_watermark.store(watermark, Ordering::Relaxed);
    }

    /// The overload-guard admission watermark (`0` = guard off).
    pub fn overload_watermark(&self) -> usize {
        self.overload_watermark.load(Ordering::Relaxed)
    }

    /// Every shard's current health snapshot, in shard order.
    pub fn shard_health(&self) -> Vec<ShardHealthSnapshot> {
        self.core
            .shards
            .iter()
            .map(|shard| shard.health.snapshot())
            .collect()
    }

    /// True when any shard is [`HealthState::Quarantined`].
    pub fn any_quarantined(&self) -> bool {
        self.core
            .shards
            .iter()
            .any(|shard| shard.health.state() == HealthState::Quarantined)
    }

    /// Reset statistics and drop logs on every shard (flow caches are kept;
    /// see [`ShardedEnforcer::clear_flow_cache`]).
    pub fn reset_stats(&self) {
        for shard in &self.core.shards {
            // Counters, log and published snapshot go together under the
            // lock: a reset lands between two partitions, never between two
            // counter bumps of one packet.
            let mut state = shard.lock_state();
            state.counters.reset();
            state.drop_log.clear();
            shard.telemetry.reset();
        }
    }
}

impl QueueHandler for ShardedEnforcer {
    fn name(&self) -> &str {
        "policy-enforcer"
    }

    /// One packet, judged inline as the frame it encodes to, like
    /// [`ShardedEnforcer::inspect`].  The enforcer only reads the packet.
    fn handle(&mut self, packet: &mut Ipv4Packet) -> Verdict {
        ShardedEnforcer::inspect(self, packet)
    }

    /// The filter chain's batch, judged as frames like
    /// [`ShardedEnforcer::inspect_batch_into`]: one encode per packet, the
    /// byte ingress, zero allocations over cached flows.  The enforcer only
    /// reads the packets.
    fn handle_batch_into(&mut self, packets: &mut [&mut Ipv4Packet], verdicts: &mut Vec<Verdict>) {
        self.inspect_encoded(packets.iter().map(|packet| &**packet), verdicts);
    }
}

#[cfg(test)]
mod tests {
    //! Every entry point that takes a packet gives it one verdict: the
    //! verdict of the frame it encodes to.

    use bp_netsim::addr::Endpoint;
    use bp_netsim::netfilter::{QueueHandler, Verdict};
    use bp_netsim::options::{IpOption, IpOptionKind, MAX_OPTIONS_LEN};
    use bp_netsim::packet::Ipv4Packet;
    use bp_types::EnforcementLevel;

    use super::super::tests::{solcalendar_fixture, tagged_packet, untagged_packet, Legacy};
    use super::*;
    use crate::policy::Policy;
    use crate::wire::WireError;

    /// One packet through every entry point that takes a struct — the two
    /// batch ones and the two inline ones — each on an enforcer of its own:
    /// the verdict (which all four must agree on, with the same merged
    /// statistics) and the first enforcer's statistics and drop log.
    fn struct_batch_outcome(
        db: &SignatureDatabase,
        policies: &PolicySet,
        packet: &Ipv4Packet,
    ) -> (Verdict, EnforcerStats, Vec<String>) {
        let fresh = || ShardedEnforcer::from_parts(db, policies, EnforcerConfig::default(), 2);
        let batched = fresh();
        let verdicts = batched.inspect_batch(std::slice::from_ref(packet));
        let [verdict] = <[Verdict; 1]>::try_from(verdicts).expect("one verdict");
        let stats = batched.stats();
        assert_eq!(
            stats.packets_inspected,
            stats.packets_accepted + stats.total_dropped(),
            "conservation"
        );
        assert_eq!(stats.packets_inspected, 1);

        let mut handler = fresh();
        let mut handled = Vec::new();
        handler.handle_batch_into(&mut [&mut packet.clone()], &mut handled);
        assert_eq!(
            handled,
            std::slice::from_ref(&verdict),
            "the filter chain's batch agrees"
        );
        assert_eq!(handler.stats(), stats);
        let inline = fresh();
        assert_eq!(inline.inspect(packet), verdict, "inline inspect agrees");
        assert_eq!(inline.stats(), stats);
        let mut handler = fresh();
        let handled = handler.handle(&mut packet.clone());
        assert_eq!(handled, verdict, "the filter chain's handle agrees");
        assert_eq!(handler.stats(), stats);
        (verdict, stats, batched.drop_log())
    }

    /// A packet is judged as the frame it encodes to: its verdict and drop
    /// log are the legacy oracle's over `decode_frame(encode(packet))`, and
    /// so are the outcome counters.
    fn assert_judged_as_its_frame(packet: &Ipv4Packet) -> Verdict {
        let (db, _, _) = solcalendar_fixture();
        let policies = PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Class,
            "com/facebook/appevents",
        )]);
        let frame = wire::decode_frame(&wire::encode(packet)).expect("the frame parses");
        let mut legacy = Legacy::new(db.clone(), policies.clone(), EnforcerConfig::default());
        let expected = legacy.inspect(&frame);
        let (verdict, stats, drop_log) = struct_batch_outcome(&db, &policies, packet);
        assert_eq!(verdict, expected);
        assert_eq!(drop_log, legacy.drop_log.to_vec());
        let oracle = legacy.counters.snapshot();
        assert_eq!(stats.packets_accepted, oracle.packets_accepted);
        assert_eq!(stats.total_dropped(), oracle.total_dropped());
        assert_eq!(stats.dropped_malformed, oracle.dropped_malformed);
        verdict
    }

    #[test]
    fn struct_batch_judges_a_mid_list_end_of_list_as_its_frame() {
        let (_, _, login) = solcalendar_fixture();
        // End-of-List ahead of the context: on the wire the context option
        // is post-EOL data, so the frame carries no context but trailing
        // data.
        let mut packet = untagged_packet();
        let options = packet.options_mut();
        options
            .push(IpOption::new(IpOptionKind::EndOfList, vec![]).unwrap())
            .unwrap();
        options
            .push(IpOption::new(IpOptionKind::BorderPatrolContext, login).unwrap())
            .unwrap();
        let verdict = assert_judged_as_its_frame(&packet);
        assert!(!verdict.is_accept(), "post-EOL bytes are a covert channel");
    }

    #[test]
    fn struct_batch_judges_trailing_data_on_a_full_area_as_its_frame() {
        let (_, _, login) = solcalendar_fixture();
        // The login context, then No-Ops up to 39 of the 40 option bytes:
        // one byte is too few for the EOL marker and its trailer, so the
        // encoder drops the flag and the frame is the plain login context.
        let mut packet = tagged_packet(login.clone());
        let options = packet.options_mut();
        while options.encoded_len() < MAX_OPTIONS_LEN - 1 {
            options
                .push(IpOption::new(IpOptionKind::NoOp, vec![]).unwrap())
                .unwrap();
        }
        assert_eq!(options.encoded_len(), MAX_OPTIONS_LEN - 1, "login fits");
        options.mark_trailing_data();
        let verdict = assert_judged_as_its_frame(&packet);
        assert!(verdict.is_accept(), "the frame is the login context");
    }

    #[test]
    fn struct_batch_drops_a_packet_past_the_length_field_as_a_wire_failure() {
        let (db, _, _) = solcalendar_fixture();
        let packet = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 4], 40001),
            Endpoint::new([31, 13, 71, 36], 443),
            vec![0; 70_000],
        );
        assert!(packet.total_len() > usize::from(u16::MAX));
        let error = WireError::LengthMismatch;
        assert_eq!(wire::decode_frame(&wire::encode(&packet)), Err(error));
        let (verdict, stats, drop_log) = struct_batch_outcome(&db, &PolicySet::new(), &packet);
        assert_eq!(verdict, Verdict::drop(error.drop_reason()));
        assert_eq!(stats.dropped_wire, 1);
        assert_eq!(stats.dropped_wire_by.get(error), 1);
        assert_eq!(drop_log, [error.drop_reason()]);
    }
}
