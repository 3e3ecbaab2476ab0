//! The data-plane batch runtime: the one path a batch of wire frames takes
//! from [`ShardedEnforcer::inspect_wire_batch_into`] to its verdict slots.
//! The struct entry points ([`ShardedEnforcer::inspect_batch`] and the
//! filter chain's batch) encode their packets into frames first and take
//! the same path.
//!
//! Every batch — one shard or many, empty or 100k packets, healthy lane or
//! quarantined — takes one turn on the pool: `WorkerPool::begin`, one
//! `Submission::route_frame` per frame that parsed, `Submission::run`.
//!
//! ```text
//!      inspect_wire_batch_into(&[&[u8]; N])    inspect_batch(&[pkt; N])
//!                 │                              │ encode (reused buffers)
//!                 ▼                              ▼
//!         parse view → route by flow (the one admission loop)
//!                 ▼
//!        per-shard index buffers + per-frame parsed views
//!        (reused across batches, no per-batch allocation)
//!                 ▼
//!   ┌─ SPSC ring ─▶ worker 0 ── owns shard 0 flow table / scratch ─┐
//!   ├─ SPSC ring ─▶ worker 1 ── owns shard 1 flow table / scratch ─┤ verdicts
//!   ├─ SPSC ring ─▶ …                                              ├─ written
//!   └─ (inline)  ─▶ submitter runs the last busy partition itself ─┘ in place
//!                 │
//!                 ▼  completion countdown → unpark the submitter
//! ```
//!
//! Each busy partition but the last is handed to its shard's lane — a
//! long-lived worker thread fed through a bounded in-repo SPSC ring
//! ([`spsc_ring`]) carrying packet-index slices; the last busy partition, and
//! any partition whose lane cannot take it, runs on the submitting thread.
//!
//! * **Threads only where there is fan-out**: a lane's worker is spawned the
//!   first time a partition is dispatched to it.  A batch with one busy
//!   shard runs entirely on the submitter, so a one-shard enforcer — or a
//!   many-shard one that only ever sees single-flow batches — never spawns
//!   a thread.
//! * **Idle is free**: a worker that drains its ring parks
//!   ([`std::thread::park`]); a quiet enforcer burns zero CPU.  The producer
//!   side unparks after every push, and the park token makes the
//!   check-then-park race benign.
//! * **Verdicts in place**: each partition writes its packets' verdicts
//!   directly into the caller's pre-sized slot array — no per-shard result
//!   vectors, no reassembly pass.
//! * **Hot-swap safe**: a partition revalidates the enforcer's table
//!   generation per packet, so a control-plane
//!   [`commit`](crate::control::Transaction::commit) mid-batch takes effect
//!   on every later packet of that batch.
//! * **Self-healing**: every partition, wherever it runs, runs under the one
//!   unwind guard, so a panic (injected by a
//!   [`FaultPlan`](crate::faults::FaultPlan) or real) never crosses the
//!   submitter.  The panicked partition's uninspected packets **fail
//!   closed** under `dropped_runtime_fault`; a worker that unwound is
//!   retired and respawned under a bounded backoff budget
//!   (`RESPAWN_BUDGET`), and a shard that exhausts the budget is
//!   **quarantined**: its partitions run on the submitting thread forever
//!   after.  A worker that cannot be spawned at all degrades the same way —
//!   the partition runs on the submitter.  A watchdog flags partitions
//!   stuck past `STALL_DEADLINE` into the shard's health state.  The
//!   enforcer keeps serving batches through all of it.
//! * **Shutdown joins**: dropping the pool (i.e. the owning
//!   [`ShardedEnforcer`]) sends every worker a shutdown message and joins it —
//!   no detached threads outlive the enforcer.
//!
//! Submission is serialized: concurrent batch callers take turns for the
//! full batch, routing included (the partition buffers and rings are
//! single-producer).
//!
//! # Safety
//!
//! This is the one module in `bp-core` that uses `unsafe` (the crate is
//! otherwise `deny(unsafe_code)`).  Every unsafe block implements a single
//! borrowed-batch handoff protocol, whose soundness rests on one invariant:
//! **a submitted batch's borrows outlive the submission call.**  The
//! submitter keeps the batch's frames, index buffers, verdict slots and
//! completion counter alive until every dispatched worker has counted down
//! — including on the panic path (a drop guard waits before unwinding) —
//! so the raw pointers a batch job carries are live for exactly as long as
//! any worker can dereference them.
//!
//! [`ShardedEnforcer`]: crate::enforcer::ShardedEnforcer
//! [`ShardedEnforcer::inspect_batch`]: crate::enforcer::ShardedEnforcer::inspect_batch
//! [`ShardedEnforcer::inspect_wire_batch_into`]: crate::enforcer::ShardedEnforcer::inspect_wire_batch_into

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use bp_netsim::netfilter::Verdict;

use crate::enforcer::{unattributed_drop, EnforcerCore, PacketView};
use crate::faults::HealthState;
use crate::stats::{charge_fixed_drop, Counter};
use crate::wire::{FrameDescriptor, WireError, WireFrame};

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

/// Shared storage of one single-producer single-consumer ring.
struct RingShared<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will pop; monotonically increasing (wrapping),
    /// masked into the slot array.
    head: AtomicUsize,
    /// Next slot the producer will fill; monotonically increasing
    /// (wrapping).
    tail: AtomicUsize,
}

// SAFETY: the ring hands each `T` from exactly one producer to exactly one
// consumer (enforced by the unique `SpscSender` / `SpscReceiver` handles
// taking `&mut self`), so sharing the storage across those two threads is
// sound for any `T: Send`.
unsafe impl<T: Send> Send for RingShared<T> {}
// SAFETY: same argument as Send above — the unique handles make all slot
// accesses exclusive even through a shared reference.
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> RingShared<T> {
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }
}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Drop any values pushed but never popped.  `&mut self` proves both
        // handles are gone, so the plain loads are exact.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        let mask = self.mask();
        let mut at = head;
        while at != tail {
            // SAFETY: slots in [head, tail) were written by a push and never
            // consumed by a pop.
            unsafe { (*self.slots[at & mask].get()).assume_init_drop() };
            at = at.wrapping_add(1);
        }
    }
}

/// Producer handle of a [`spsc_ring`].  Not clonable: the single producer is
/// whoever owns this value.
pub struct SpscSender<T> {
    ring: Arc<RingShared<T>>,
}

/// Consumer handle of a [`spsc_ring`].  Not clonable: the single consumer is
/// whoever owns this value.
pub struct SpscReceiver<T> {
    ring: Arc<RingShared<T>>,
}

/// Create a bounded single-producer single-consumer ring buffer.
///
/// `capacity` is rounded up to the next power of two (minimum 2) so index
/// masking replaces modulo in the hot path.  The producer/consumer
/// discipline is enforced by the handle types: both endpoints take
/// `&mut self` and neither is clonable, so misuse is a compile error, not a
/// data race.
///
/// # Examples
///
/// ```
/// let (mut tx, mut rx) = bp_core::runtime::spsc_ring::<u32>(4);
/// assert!(tx.push(7).is_ok());
/// assert_eq!(rx.pop(), Some(7));
/// assert_eq!(rx.pop(), None);
/// ```
pub fn spsc_ring<T>(capacity: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    let capacity = capacity.next_power_of_two().max(2);
    let slots = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(RingShared {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        SpscSender {
            ring: Arc::clone(&ring),
        },
        SpscReceiver { ring },
    )
}

impl<T> SpscSender<T> {
    /// Push `value`, or hand it back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == ring.slots.len() {
            return Err(value);
        }
        // SAFETY: the slot at `tail` is unoccupied (checked above) and only
        // this producer writes slots; the Release store below publishes the
        // write to the consumer.
        unsafe { (*ring.slots[tail & ring.mask()].get()).write(value) };
        ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        ring.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(ring.head.load(Ordering::Acquire))
    }

    /// True if no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity (rounded up at construction).
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }
}

impl<T> SpscReceiver<T> {
    /// Pop the oldest value, if any.
    pub fn pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: the slot at `head` was published by the producer's Release
        // store (observed by the Acquire load above) and is consumed exactly
        // once: the store below retires the index before any further pop.
        let value = unsafe { (*ring.slots[head & ring.mask()].get()).assume_init_read() };
        ring.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        ring.tail
            .load(Ordering::Acquire)
            .wrapping_sub(ring.head.load(Ordering::Relaxed))
    }

    /// True if no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity (rounded up at construction).
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }
}

// ---------------------------------------------------------------------------
// Borrowed batch handoff
// ---------------------------------------------------------------------------

/// A frame the submitter parsed and routed: its bytes, borrowed raw, beside
/// what the parse established about them.  The submission keeps one per
/// frame of the batch, by frame index; the slots of frames that were not
/// routed hold [`RoutedFrame::UNROUTED`] and are never indexed.
#[derive(Clone, Copy)]
struct RoutedFrame {
    bytes: *const [u8],
    descriptor: FrameDescriptor,
}

// SAFETY: `descriptor` is plain data.  `bytes` is only dereferenced
// (through `PacketSource::view`) while the batch that routed it runs: the
// submission borrows the frames for longer than that (`Submission<'_, 'f>`)
// and keeps them alive and unmutated until every worker has counted down;
// the stale pointers a reused buffer holds between batches are overwritten
// before they are read again.
unsafe impl Send for RoutedFrame {}

impl RoutedFrame {
    /// The slot of a frame that failed to parse or was shed.
    const UNROUTED: RoutedFrame = RoutedFrame {
        bytes: &[],
        descriptor: FrameDescriptor::UNPARSED,
    };
}

/// A borrowed, indexable view of a batch: the routed frames of one
/// submission, inspected in place — no packet is materialized from a frame
/// and no frame is parsed twice.
///
/// # Safety contract
///
/// A `PacketSource` is a raw borrow: whoever constructs one must keep the
/// routed frames, and the bytes they point at, alive and unmodified until
/// the last [`PacketSource::view`] call.  Within this crate that is
/// guaranteed by the batch submission protocol (the submitter outlives the
/// batch).
#[derive(Clone, Copy)]
pub(crate) struct PacketSource {
    /// First routed frame, one per frame of the batch.
    frames: *const RoutedFrame,
    /// Frame count.
    len: usize,
}

// SAFETY: a PacketSource only reads the frames it points at, and the
// submission protocol keeps them alive and unmutated for the lifetime of the
// batch; sharing the raw pointers across worker threads is therefore sound.
unsafe impl Send for PacketSource {}
// SAFETY: same argument as Send above — the view is read-only, so shared
// references add no new hazards.
unsafe impl Sync for PacketSource {}

impl PacketSource {
    /// What the pipeline reads of the frame at `index`.
    ///
    /// # Safety
    ///
    /// `index < self.len`, the frame at `index` was routed, and the borrowed
    /// batch must still be alive (see the type-level contract).  The
    /// returned lifetime is unbounded; the caller must not let it outlive
    /// the batch.
    pub(crate) unsafe fn view<'a>(&self, index: usize) -> PacketView<'a> {
        debug_assert!(index < self.len);
        let routed = *self.frames.add(index);
        PacketView::of_frame(&routed.descriptor.over(&*routed.bytes))
    }
}

/// Verdict slot array shared across the workers of one batch.  Each worker
/// writes only the slots of its own partition's packet indexes, so the
/// disjoint `*mut` writes never race.
#[derive(Clone, Copy)]
pub(crate) struct VerdictSlots(pub(crate) *mut Verdict);

// SAFETY: slots are written disjointly (each packet index belongs to exactly
// one shard partition) and the submitter does not read them until every
// worker has counted down.
unsafe impl Send for VerdictSlots {}
// SAFETY: same argument as Send above — partition disjointness, not
// reference uniqueness, is what prevents racing writes.
unsafe impl Sync for VerdictSlots {}

impl VerdictSlots {
    /// Store `verdict` for packet `index`.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds of the batch the slots were sized for, the
    /// slot must be initialized (the submitter pre-fills the array), and no
    /// other thread may write the same `index`.
    pub(crate) unsafe fn set(&self, index: usize, verdict: Verdict) {
        *self.0.add(index) = verdict;
    }
}

// ---------------------------------------------------------------------------
// EnforcerCore batch entry points
// ---------------------------------------------------------------------------
//
// The partition loop dereferences borrowed-batch raw pointers, so it lives
// here — with the rest of the handoff protocol — rather than in
// `enforcer/sharded.rs`, keeping every `unsafe` in the crate inside this one
// audited module.

// The lanes share the core between threads: its `!Sync` shard counters must
// stay behind the shard lock for this to compile.
const fn shared_between_lanes<T: Send + Sync>() {}
const _: () = shared_between_lanes::<EnforcerCore>();

impl EnforcerCore {
    /// Inspect one shard's partition of a batch, writing each packet's
    /// verdict into its slot.  This is the inner loop of every batch,
    /// whether the partition runs on a lane's worker or on the submitter.
    ///
    /// The shard's state is locked once per partition; the active tables are
    /// snapshotted once and revalidated per packet against the generation
    /// counter (one acquire load, no lock/refcount traffic), so a concurrent
    /// table installation still takes effect mid-batch — once the swap
    /// returns, no later packet is evaluated (or served from cache) under
    /// the old epoch.
    ///
    /// # Safety
    ///
    /// Every index must name a frame routed into `source`, the batch behind
    /// `source` must outlive the call, `slots` must point at one initialized
    /// verdict per frame of the batch, and no other thread may write the
    /// slots of these indexes.
    pub(crate) unsafe fn run_partition(
        &self,
        shard: usize,
        source: PacketSource,
        indexes: &[u32],
        slots: VerdictSlots,
    ) {
        let shard_index = shard;
        let shard = &self.shards[shard_index];
        // Deterministic fault injection fires at partition start, before any
        // packet or lock is touched: the whole partition fails closed, which
        // keeps the faulted set a pure function of the plan and the batch
        // ordinal.  Quarantined shards are past their fault schedule by
        // construction (the budget is exhausted), so injection is suppressed
        // and the inline reroute serves them indefinitely.
        if let Some(injector) = self.faults.get() {
            if shard.health.state() != HealthState::Quarantined {
                injector.on_partition_start(shard_index);
            }
        }
        let state = &mut *shard.lock_state();
        let mut generation = self.tables_generation.load(Ordering::Acquire);
        let mut tables = self.tables();
        for &index in indexes {
            let current = self.tables_generation.load(Ordering::Acquire);
            if current != generation {
                generation = current;
                tables = self.tables();
            }
            let verdict = tables.inspect_view(
                &source.view(index as usize),
                &mut state.flow,
                self.now(),
                &mut state.scratch,
                &state.counters,
                &mut state.drop_log,
            );
            slots.set(index as usize, verdict);
        }
        // Publish once per partition, not per packet: the batch paths keep
        // telemetry out of the per-packet budget.
        shard.health.note_clean_batch();
        shard.publish(state, tables.epoch());
    }

    /// Fail a panicked partition closed: every index whose slot still holds
    /// the submitter's empty-reason placeholder was never inspected, and
    /// drops under `dropped_runtime_fault`.  Slots the partition wrote
    /// before unwinding keep their real verdicts — the packet *was*
    /// inspected.  Records the fault on the shard's health and republishes
    /// telemetry so the degradation is immediately observable.
    ///
    /// # Safety
    ///
    /// Same contract as [`run_partition`](Self::run_partition): indexes in
    /// bounds, batch alive, slots exclusive to this partition.
    pub(crate) unsafe fn fail_close_partition(
        &self,
        shard: usize,
        indexes: &[u32],
        slots: VerdictSlots,
    ) {
        self.shards[shard].health.record_fault();
        self.charge_on(shard, |stats, drop_log| {
            for &index in indexes {
                let slot = &mut *slots.0.add(index as usize);
                if *slot == unattributed_drop() {
                    *slot = charge_fixed_drop(stats, drop_log, Counter::RuntimeFault);
                }
            }
        });
    }

    /// Run one partition under the unwind guard; a panic (injected or
    /// real) fails the uninspected remainder closed instead of crossing the
    /// caller.  Returns whether the partition completed cleanly.  The
    /// submitter and the worker loop are the only callers.
    ///
    /// # Safety
    ///
    /// Same contract as [`run_partition`](Self::run_partition).
    pub(crate) unsafe fn run_partition_caught(
        &self,
        shard: usize,
        source: PacketSource,
        indexes: &[u32],
        slots: VerdictSlots,
    ) -> bool {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            self.run_partition(shard, source, indexes, slots);
        }));
        if outcome.is_err() {
            // Fail closed, never open: nothing uninspected may pass.
            self.fail_close_partition(shard, indexes, slots);
        }
        outcome.is_ok()
    }
}

/// Completion rendezvous of one submitted batch, owned by the submitter's
/// stack frame.
struct BatchSync {
    /// Dispatched partitions still running.
    pending: AtomicUsize,
    /// The submitting thread, unparked by the final countdown.
    waiter: Thread,
}

/// One shard's share of a submitted batch: the packet view, this shard's
/// index slice (into the pool's reused partition buffer) and the shared
/// verdict slots.
struct BatchJob {
    source: PacketSource,
    indexes: *const u32,
    index_count: usize,
    slots: VerdictSlots,
    sync: *const BatchSync,
}

// SAFETY: every pointer in a BatchJob stays valid until the worker counts
// down `sync.pending` (the submitter — including its unwind path — waits for
// that), and the job is consumed by exactly one worker.
unsafe impl Send for BatchJob {}

/// What a worker pulls off its ring.
enum Message {
    /// Inspect one partition of a batch.
    Batch(BatchJob),
    /// Exit the worker loop (sent on pool drop).
    Shutdown,
}

/// How long a dispatched partition may run before the submitter's watchdog
/// flags its shard as stalled.  The wait itself never gives up — the workers
/// hold pointers into the submitter's frame, so abandoning them would be a
/// use-after-free — but the stall is recorded into the shard's health state
/// for the observability plane.  Wall-clock dependent, so stall flags are
/// deliberately *not* part of the deterministic chaos report surface.
const STALL_DEADLINE: Duration = Duration::from_millis(250);

/// Waits for the batch countdown even when the guarded scope unwinds: the
/// workers hold pointers into the submitter's frame (verdict slots,
/// partition buffers, the countdown itself), so returning — or panicking —
/// before they finish would free memory out from under them.
///
/// Doubles as the stall watchdog: once the wait exceeds [`STALL_DEADLINE`],
/// every shard still mid-batch (its `batch_done` flag unset) is flagged
/// degraded via [`ShardHealth::record_stall`](crate::faults::ShardHealth).
struct WaitForBatch<'a> {
    sync: &'a BatchSync,
    core: &'a EnforcerCore,
}

impl Drop for WaitForBatch<'_> {
    fn drop(&mut self) {
        if self.sync.pending.load(Ordering::Acquire) == 0 {
            // Nothing outstanding — always so when one shard was busy and
            // nothing was dispatched: skip the clock read.
            return;
        }
        let deadline = Instant::now() + STALL_DEADLINE;
        let mut flagged = false;
        while self.sync.pending.load(Ordering::Acquire) != 0 {
            thread::park_timeout(STALL_DEADLINE);
            if !flagged && Instant::now() >= deadline {
                flagged = true;
                for shard in &self.core.shards {
                    if !shard.health.batch_done() {
                        shard.health.record_stall();
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Ring capacity per worker: submission is serialized (one batch in flight)
/// so a lane never holds more than one job plus, at teardown, one shutdown
/// message.
const LANE_CAPACITY: usize = 2;

/// How many times a shard's worker is respawned after panics before the
/// shard is quarantined to the inline path for good.  Between respawns the
/// lane sits out an exponentially growing number of batches
/// (2, 4, 8 — `1 << respawns`), served inline meanwhile, so a
/// crash-looping shard cannot monopolize the submitter with respawn work.
const RESPAWN_BUDGET: u32 = 3;

/// One shard's submission lane: its worker, once a partition has been
/// dispatched to it, and the respawn bookkeeping the self-healing path
/// maintains.
#[derive(Default)]
struct Lane {
    /// `None` until the first partition is dispatched to this shard, so
    /// shards whose partitions only ever run on the submitter cost no
    /// thread.  A retired worker stays here (joined) until its replacement
    /// spawns.
    worker: Option<Worker>,
    /// Respawns consumed from [`RESPAWN_BUDGET`].
    respawns: u32,
    /// Batches left to sit out (served on the submitter) before the next
    /// respawn.
    cooldown: u32,
}

/// A lane's worker thread: its ring producer and its handle for unparking
/// and joining.
struct Worker {
    jobs: SpscSender<Message>,
    thread: Thread,
    /// Cleared by the worker itself when a partition panics: the thread
    /// retires after counting the batch down, and the next submission
    /// respawns or reroutes.  Only written while the worker owns a job and
    /// only read under the submission lock with no job in flight on this
    /// lane, so plain relaxed ordering suffices.
    alive: Arc<AtomicBool>,
    /// Joined before the worker is replaced or the pool drops.
    handle: Option<JoinHandle<()>>,
}

/// Producer-side state, serialized by the submission lock: the per-shard
/// lanes and the buffers reused from batch to batch.  Each buffer is empty
/// until a batch first needs it.
#[derive(Default)]
struct SubmitState {
    lanes: Vec<Lane>,
    /// Per shard, the batch indexes routed to it.
    partitions: Vec<Vec<u32>>,
    /// Each routed frame, by frame index, for the worker that inspects it.
    frames: Vec<RoutedFrame>,
    /// Frames that failed wire validation, in frame order.
    failures: Vec<(usize, WireError)>,
    /// Frames that parsed but arrived past the overload watermark.
    shed: Vec<usize>,
}

/// The per-shard worker lanes and the batch routine that feeds them (see
/// the module docs).
///
/// Built with the owning [`ShardedEnforcer`](crate::enforcer::ShardedEnforcer)
/// — no thread is spawned until a batch fans out — and dropped (shutdown +
/// join) with it.
pub(crate) struct WorkerPool {
    submit: Mutex<SubmitState>,
    /// The enforcer the workers serve.
    core: Arc<EnforcerCore>,
    /// Workers that have not yet exited their loop; drained to zero by the
    /// shutdown join.  Kept behind an `Arc` so tests can watch it across the
    /// pool's own drop.
    live_workers: Arc<AtomicUsize>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("shards", &self.core.shard_count())
            .field("live", &self.live_workers.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Spawn one shard worker: ring, alive flag, named thread.  Increments
/// `live` before the thread starts (and backs the increment out if the
/// spawn fails), so the count never underflows however short-lived the
/// worker turns out to be.
fn spawn_worker(
    core: &Arc<EnforcerCore>,
    shard: usize,
    live: &Arc<AtomicUsize>,
) -> std::io::Result<Worker> {
    let (jobs, ring) = spsc_ring::<Message>(LANE_CAPACITY);
    let alive = Arc::new(AtomicBool::new(true));
    let worker_core = Arc::clone(core);
    let worker_live = Arc::clone(live);
    let worker_alive = Arc::clone(&alive);
    live.fetch_add(1, Ordering::Release);
    let spawned = thread::Builder::new()
        .name(format!("bp-enforcer-shard-{shard}"))
        .spawn(move || worker_loop(worker_core, shard, ring, worker_live, worker_alive));
    let handle = match spawned {
        Ok(handle) => handle,
        Err(error) => {
            live.fetch_sub(1, Ordering::Release);
            return Err(error);
        }
    };
    Ok(Worker {
        jobs,
        thread: handle.thread().clone(),
        alive,
        handle: Some(handle),
    })
}

impl WorkerPool {
    /// The lanes of `core`, one per shard, none with a worker yet.
    pub(crate) fn new(core: &Arc<EnforcerCore>) -> WorkerPool {
        let shard_count = core.shard_count();
        WorkerPool {
            submit: Mutex::new(SubmitState {
                lanes: (0..shard_count).map(|_| Lane::default()).collect(),
                partitions: vec![Vec::new(); shard_count],
                ..SubmitState::default()
            }),
            core: Arc::clone(core),
            live_workers: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Bring `lane` to a dispatchable state — spawning its worker on first
    /// use, respawning a retired one under the backoff budget — and return
    /// the worker that takes this batch's partition.  `None` means the
    /// partition runs on the submitter: the shard is quarantined or sitting
    /// out a cooldown, or the spawn failed (a failed first spawn is retried
    /// on the next batch; a failed respawn has consumed budget and is
    /// retried after the cooldown).
    ///
    /// Called under the submission lock with no job in flight on this lane,
    /// so the `alive` flag it reads cannot change concurrently (workers only
    /// retire while they own a job).
    fn ensure_lane<'l>(&self, shard: usize, lane: &'l mut Lane) -> Option<&'l mut Worker> {
        let health = &self.core.shards[shard].health;
        if health.state() == HealthState::Quarantined {
            return None;
        }
        let retired = match &mut lane.worker {
            None => false,
            Some(worker) if worker.alive.load(Ordering::Relaxed) => return lane.worker.as_mut(),
            Some(worker) => {
                if lane.respawns >= RESPAWN_BUDGET {
                    // Budget exhausted: the shard is quarantined for the
                    // lifetime of the pool and served on the submitter from
                    // here on.
                    health.quarantine();
                    return None;
                }
                if lane.cooldown > 0 {
                    // Sitting out the backoff window.
                    lane.cooldown -= 1;
                    return None;
                }
                // Join the retired worker before replacing it: it has
                // already counted its last batch down, so the join is
                // prompt, and it must not outlive its ring's producer side.
                if let Some(handle) = worker.handle.take() {
                    let _ = handle.join();
                }
                lane.respawns += 1;
                lane.cooldown = 1 << lane.respawns;
                true
            }
        };
        lane.worker = Some(spawn_worker(&self.core, shard, &self.live_workers).ok()?);
        if retired {
            health.record_respawn();
        }
        lane.worker.as_mut()
    }

    /// Count of workers that have not yet exited (drops to zero once the
    /// pool's shutdown join completes).  Test-only observability for the
    /// no-leaked-threads guarantee.
    #[cfg(test)]
    pub(crate) fn live_workers(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.live_workers)
    }

    /// Take the pool's turn for one batch of `len` frames: the caller
    /// routes each frame that parsed to its shard
    /// ([`Submission::route_frame`]), notes the others
    /// ([`Submission::fail`], [`Submission::shed`]) and then runs the batch
    /// ([`Submission::run`]).  Concurrent submitters wait here.
    pub(crate) fn begin<'f>(&self, len: usize) -> Submission<'_, 'f> {
        let mut state = self.submit.lock();
        for partition in state.partitions.iter_mut() {
            partition.clear();
        }
        state.frames.clear();
        state.failures.clear();
        state.shed.clear();
        Submission {
            pool: self,
            state,
            len,
            next: 0,
            frames: PhantomData,
        }
    }
}

/// One batch's turn on the pool (see [`WorkerPool::begin`]), holding the
/// submission lock until it drops.  The frames it routes are borrowed for
/// `'f`, which every use of the submission — [`Submission::run`] included —
/// lies within.
pub(crate) struct Submission<'p, 'f> {
    pool: &'p WorkerPool,
    state: MutexGuard<'p, SubmitState>,
    /// Verdict slots the batch has; every routed index is below it.
    len: usize,
    /// One past the highest index routed so far.
    next: usize,
    /// The routed frames' bytes, held in `state` as raw pointers.
    frames: PhantomData<&'f [u8]>,
}

impl<'f> Submission<'_, 'f> {
    /// Route frame `index` of the batch, parsed as `frame`, to `shard`,
    /// keeping what the parse established so the shard worker does not
    /// parse the frame again.
    ///
    /// Indexes must arrive in increasing order and below the batch length —
    /// checked here, because it is what makes the partitions disjoint and
    /// in bounds, which the unchecked slot writes of [`Submission::run`]
    /// rely on.  Indexes may be skipped: a skipped frame is not inspected.
    pub(crate) fn route_frame(&mut self, shard: usize, index: usize, frame: &WireFrame<'f>) {
        assert!(
            self.next <= index && index < self.len,
            "frames are routed once each, in batch order"
        );
        self.next = index + 1;
        let state = &mut *self.state;
        state.partitions[shard].push(index as u32);
        // Frames skipped since the last routed one keep placeholder slots.
        state.frames.resize(index, RoutedFrame::UNROUTED);
        state.frames.push(RoutedFrame {
            bytes: frame.bytes(),
            descriptor: frame.descriptor(),
        });
    }

    /// Note that frame `index` failed wire validation with `error`.
    pub(crate) fn fail(&mut self, index: usize, error: WireError) {
        self.state.failures.push((index, error));
    }

    /// Note that frame `index` parsed but is shed by the overload guard.
    pub(crate) fn shed(&mut self, index: usize) {
        self.state.shed.push(index);
    }

    /// The frames noted with [`Submission::fail`], in frame order.
    pub(crate) fn failures(&self) -> &[(usize, WireError)] {
        &self.state.failures
    }

    /// The frames noted with [`Submission::shed`], in frame order.
    pub(crate) fn sheds(&self) -> &[usize] {
        &self.state.shed
    }

    /// Inspect the routed batch: hand every busy partition but the last to
    /// its shard's lane, run the rest on the submitting thread, wait for the
    /// countdown.
    ///
    /// Self-healing: a lane whose worker retired after a panic is respawned
    /// here under the backoff budget (see [`Lane`]); partitions of
    /// quarantined shards, of lanes mid cooldown and of lanes whose worker
    /// could not be spawned run on the submitting thread.  Either way the
    /// call returns normally with every routed packet's slot holding a real
    /// verdict; a panicked partition's uninspected packets fail closed.
    /// Slots of packets that were not routed are left as the caller filled
    /// them.
    ///
    /// `out` must hold exactly the batch's `len` initialized verdict slots.
    /// This performs no allocation: the partition and frame buffers are
    /// reused, the jobs are fixed-size ring slots and the verdicts land in
    /// `out`.
    pub(crate) fn run(&mut self, out: &mut [Verdict]) {
        let pool = self.pool;
        let core = &pool.core;
        assert_eq!(out.len(), self.len, "one verdict slot per frame");
        let SubmitState {
            lanes,
            partitions,
            frames,
            ..
        } = &mut *self.state;
        let source = PacketSource {
            frames: frames.as_ptr(),
            len: frames.len(),
        };
        let Some(last_busy) = partitions.iter().rposition(|p| !p.is_empty()) else {
            return;
        };

        let sync = BatchSync {
            pending: AtomicUsize::new(0),
            waiter: thread::current(),
        };
        let slots = VerdictSlots(out.as_mut_ptr());
        // The guard waits for every already-dispatched worker no matter what
        // panics below — workers hold pointers into this frame, so unwinding
        // past them would be a use-after-free, not a panic.
        let _wait = WaitForBatch { sync: &sync, core };
        for (shard, partition) in partitions.iter().enumerate() {
            if partition.is_empty() {
                continue;
            }
            if shard != last_busy {
                if let Some(worker) = pool.ensure_lane(shard, &mut lanes[shard]) {
                    let health = &core.shards[shard].health;
                    health.set_batch_done(false);
                    // Count the job *before* it lands: the countdown is the
                    // work other threads owe this frame, and the worker may
                    // finish before `push` even returns.
                    sync.pending.fetch_add(1, Ordering::Release);
                    let job = BatchJob {
                        source,
                        indexes: partition.as_ptr(),
                        index_count: partition.len(),
                        slots,
                        sync: &sync,
                    };
                    if worker.jobs.push(Message::Batch(job)).is_ok() {
                        worker.thread.unpark();
                        continue;
                    }
                    // A live lane's ring is empty between batches, so the
                    // push cannot fail while submission is serialized; if it
                    // ever does, take the job back and run it here.
                    sync.pending.fetch_sub(1, Ordering::Release);
                    health.set_batch_done(true);
                }
            }
            // SAFETY: `route_frame` admitted only increasing indexes below
            // `self.len`, which is `out.len()`, and recorded each one's frame
            // in `frames`, so indexes are in bounds and routed and no slot
            // is written twice; the batch is alive for the whole call.
            unsafe { core.run_partition_caught(shard, source, partition, slots) };
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let state = self.submit.get_mut();
        for worker in state.lanes.iter_mut().filter_map(|l| l.worker.as_mut()) {
            // A retired worker's receiver is gone; the shutdown message then
            // sits in a ring nobody drains, which the ring's own drop
            // reclaims.  Push failure (full ring) is likewise only possible
            // on a retired worker — a live lane's ring is empty between
            // batches.
            let _ = worker.jobs.push(Message::Shutdown);
            worker.thread.unpark();
        }
        for worker in state.lanes.iter_mut().filter_map(|l| l.worker.as_mut()) {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// The body of one pool worker: drain the ring, park when idle, exit on
/// shutdown — or retire after a panicked partition, clearing `alive` so the
/// next submission respawns the lane (or reroutes it inline).
fn worker_loop(
    core: Arc<EnforcerCore>,
    shard: usize,
    mut jobs: SpscReceiver<Message>,
    live: Arc<AtomicUsize>,
    alive: Arc<AtomicBool>,
) {
    loop {
        let Some(message) = jobs.pop() else {
            // Benign race with the producer's push+unpark: an unpark that
            // lands between our pop and this park leaves a token, so park
            // returns immediately and the next pop sees the job.
            thread::park();
            continue;
        };
        match message {
            Message::Shutdown => break,
            Message::Batch(job) => {
                // SAFETY: the submitter keeps the batch (packets, index
                // slice, verdict slots) alive until we count down below.  A
                // panic fails the uninspected remainder closed under
                // `dropped_runtime_fault`; it never escapes the worker.
                let clean = unsafe {
                    let indexes = std::slice::from_raw_parts(job.indexes, job.index_count);
                    core.run_partition_caught(shard, job.source, indexes, job.slots)
                };
                core.shards[shard].health.set_batch_done(true);
                if !clean {
                    // The thread's state is suspect after an unwound
                    // partition: retire it.  Ordering relative to the
                    // countdown below doesn't matter — the submitter only
                    // reads `alive` under the submission lock with no job in
                    // flight on this lane.
                    alive.store(false, Ordering::Relaxed);
                }
                // SAFETY: `sync` lives until `pending` reaches zero and the
                // submitter observes it — which cannot happen before the
                // fetch_sub below.
                let sync = unsafe { &*job.sync };
                // Clone the waiter handle *before* counting down: the
                // countdown releases the submitter, whose frame (and with it
                // `sync`) may be gone by the time we unpark.
                let waiter = sync.waiter.clone();
                if sync.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    waiter.unpark();
                }
                if !clean {
                    break;
                }
            }
        }
    }
    live.fetch_sub(1, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_roundtrips_in_order_and_reports_full() {
        let (mut tx, mut rx) = spsc_ring::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        assert!(tx.is_empty());
        for value in 0..4 {
            assert!(tx.push(value).is_ok());
        }
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(tx.len(), 4);
        assert_eq!(rx.len(), 4);
        for value in 0..4 {
            assert_eq!(rx.pop(), Some(value));
        }
        assert!(rx.pop().is_none());
        assert!(rx.is_empty());
    }

    #[test]
    fn ring_capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = spsc_ring::<u8>(3);
        assert_eq!(tx.capacity(), 4);
        let (tx, _rx) = spsc_ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn ring_wraps_around_many_times() {
        let (mut tx, mut rx) = spsc_ring::<usize>(2);
        for round in 0..1_000 {
            assert!(tx.push(round).is_ok());
            assert!(tx.push(round + 1).is_ok());
            assert_eq!(rx.pop(), Some(round));
            assert_eq!(rx.pop(), Some(round + 1));
        }
        assert!(rx.pop().is_none());
    }

    #[test]
    fn ring_transfers_across_threads_in_order() {
        const COUNT: u64 = 200_000;
        let (mut tx, mut rx) = spsc_ring::<u64>(64);
        let consumer = thread::spawn(move || {
            let mut expected = 0;
            while expected < COUNT {
                match rx.pop() {
                    Some(value) => {
                        assert_eq!(value, expected);
                        expected += 1;
                    }
                    None => thread::yield_now(),
                }
            }
            assert!(rx.pop().is_none());
        });
        let mut next = 0;
        while next < COUNT {
            if tx.push(next).is_ok() {
                next += 1;
            } else {
                thread::yield_now();
            }
        }
        consumer.join().unwrap();
    }

    #[test]
    fn ring_drops_unconsumed_values() {
        let counter = Arc::new(AtomicUsize::new(0));
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, mut rx) = spsc_ring::<Counted>(4);
        for _ in 0..3 {
            assert!(tx.push(Counted(Arc::clone(&counter))).is_ok());
        }
        drop(rx.pop());
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        drop(tx);
        drop(rx);
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }
}
