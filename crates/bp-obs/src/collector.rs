//! Snapshot polling, delta rates and the rolling abnormality baseline.
//!
//! The [`Collector`] is the reader half of the telemetry seqlock: it polls
//! every shard's [`TelemetrySnapshot`], subtracts the previous poll to get a
//! per-interval delta, and folds the deltas into per-second rates — an
//! instantaneous rate for the last interval and an EWMA for the trend.  For
//! the abnormality signals (context replay, context spoofing, malformed
//! wire frames) it additionally maintains a *rolling baseline* (EWMA mean
//! and variance) and flags any poll whose rate spikes past
//! `mean + spike_sigma·stddev`.
//!
//! Rates are computed against the configured poll cadence
//! ([`CollectorConfig::tick_millis`]), not against wall-clock jitter: the
//! whole testbed runs on simulated time, and a fixed denominator is what
//! makes the exporter output reproducible for a given seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bp_core::{EnforcerStats, ShardHealthSnapshot, ShardedEnforcer, TelemetrySnapshot};

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Anything the collector can poll for per-shard telemetry snapshots.
///
/// Implemented by [`ShardedEnforcer`] (the real data plane) and by test
/// doubles; every poll must return one consistent (seqlock-stable) snapshot
/// per shard, in shard order.
pub trait TelemetrySource {
    /// Read one consistent snapshot per shard.
    fn poll_telemetry(&self) -> Vec<TelemetrySnapshot>;
}

impl TelemetrySource for ShardedEnforcer {
    fn poll_telemetry(&self) -> Vec<TelemetrySnapshot> {
        self.telemetry()
    }
}

impl<S: TelemetrySource + ?Sized> TelemetrySource for Arc<S> {
    fn poll_telemetry(&self) -> Vec<TelemetrySnapshot> {
        (**self).poll_telemetry()
    }
}

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

/// The fleet-level rate signals the collector tracks.
///
/// The first three are volume signals (shown as throughput on the
/// dashboard); the last three are the *abnormality* signals the rolling
/// baseline watches — each maps onto one adversary class of the scenario
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Signal {
    /// Packets inspected per second (wire failures included).
    Inspected,
    /// Packets accepted per second.
    Accepted,
    /// Packets dropped per second, all reasons combined.
    Dropped,
    /// Mid-flow context switches per second
    /// (`flow_context_switches`) — the context-replay signal.
    ContextReplay,
    /// Duplicate-context drops per second
    /// (`dropped_duplicate_context`) — the context-spoofing signal.
    Spoofing,
    /// Wire decode failures per second (`dropped_wire`) — the
    /// malformed-frame signal.
    WireMalformed,
}

impl Signal {
    /// Every signal, in the stable order rates are reported in.
    pub const ALL: [Signal; 6] = [
        Signal::Inspected,
        Signal::Accepted,
        Signal::Dropped,
        Signal::ContextReplay,
        Signal::Spoofing,
        Signal::WireMalformed,
    ];

    /// Stable machine-readable tag, used as the exporter label.
    pub fn tag(self) -> &'static str {
        match self {
            Signal::Inspected => "inspected",
            Signal::Accepted => "accepted",
            Signal::Dropped => "dropped",
            Signal::ContextReplay => "context-replay",
            Signal::Spoofing => "spoofing",
            Signal::WireMalformed => "wire-malformed",
        }
    }

    /// Whether the rolling baseline watches this signal for spikes.
    pub fn is_abnormality_signal(self) -> bool {
        matches!(
            self,
            Signal::ContextReplay | Signal::Spoofing | Signal::WireMalformed
        )
    }

    /// Extract this signal's counter from a stats snapshot.
    fn counter(self, stats: &EnforcerStats) -> u64 {
        match self {
            Signal::Inspected => stats.packets_inspected,
            Signal::Accepted => stats.packets_accepted,
            Signal::Dropped => stats.total_dropped(),
            Signal::ContextReplay => stats.flow_context_switches,
            Signal::Spoofing => stats.dropped_duplicate_context,
            Signal::WireMalformed => stats.dropped_wire,
        }
    }
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// One shard's contribution to the fleet view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardView {
    /// Shard index.
    pub index: usize,
    /// Cumulative stats as of the last poll.
    pub stats: EnforcerStats,
    /// How many times the shard has published its snapshot.
    pub publications: u64,
    /// Self-healing state as of the last poll: health state machine plus
    /// fault / respawn / stall counters.
    pub health: ShardHealthSnapshot,
}

/// One active table generation's verdict counters, merged across shards.
///
/// `ordinal` is the generation's rank by epoch among the currently retained
/// ring entries (oldest = 0) — epochs themselves are process-global and
/// run-dependent, so stable output keys on the ordinal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenerationView {
    /// Rank by epoch among retained generations (oldest first).
    pub ordinal: usize,
    /// The raw tables epoch the counters are attributed to.
    pub epoch: u64,
    /// Packets accepted under this generation since attribution began.
    pub accepted: u64,
    /// Packets dropped under this generation since attribution began.
    pub dropped: u64,
}

/// One signal's rate state after a poll.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalRate {
    /// Which signal.
    pub signal: Signal,
    /// Events per second over the last poll interval.
    pub per_sec: f64,
    /// EWMA of `per_sec` (trend view).
    pub ewma_per_sec: f64,
    /// Rolling baseline mean (abnormality signals only; 0 otherwise).
    pub baseline_mean: f64,
    /// Rolling baseline standard deviation.
    pub baseline_std: f64,
    /// Whether this poll's rate was flagged as an abnormality spike.
    pub flagged: bool,
}

/// One flagged abnormality spike.
#[derive(Debug, Clone, PartialEq)]
pub struct Abnormality {
    /// The spiking signal.
    pub signal: Signal,
    /// The poll (1-based) the spike was seen on.
    pub poll: u64,
    /// The spiking rate, events per second.
    pub per_sec: f64,
    /// The baseline mean the rate was compared against.
    pub baseline_mean: f64,
    /// The baseline standard deviation the threshold used.
    pub baseline_std: f64,
}

/// The collector's aggregated picture of the fleet after a poll.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetView {
    /// Completed polls.
    pub polls: u64,
    /// Nominal elapsed time (polls × tick), milliseconds.
    pub elapsed_millis: u64,
    /// Cumulative stats summed across all shards.
    pub totals: EnforcerStats,
    /// Per-shard cumulative stats.
    pub shards: Vec<ShardView>,
    /// Per-generation verdict counters, merged across shards and ordered by
    /// epoch (oldest first).
    pub generations: Vec<GenerationView>,
    /// Rate state per signal, in [`Signal::ALL`] order.
    pub rates: Vec<SignalRate>,
    /// Spikes flagged on the most recent poll.
    pub abnormalities: Vec<Abnormality>,
}

impl FleetView {
    /// The rate entry for `signal`.
    pub fn rate(&self, signal: Signal) -> Option<&SignalRate> {
        self.rates.iter().find(|r| r.signal == signal)
    }
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// Collector tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectorConfig {
    /// Poll cadence in milliseconds; also the rate denominator.
    pub tick_millis: u64,
    /// Smoothing factor of the per-signal rate EWMA (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// Smoothing factor of the (slower) abnormality baseline EWMA.
    pub baseline_alpha: f64,
    /// Spike threshold: flag when `rate > mean + spike_sigma·std`.
    pub spike_sigma: f64,
    /// Absolute floor (events/sec) below which a rate is never flagged —
    /// keeps a lone drop on a silent fleet from counting as a spike.
    pub min_spike_rate: f64,
    /// Polls to observe before flagging anything (baseline warm-up).
    pub warmup_polls: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            tick_millis: 100,
            ewma_alpha: 0.3,
            baseline_alpha: 0.1,
            spike_sigma: 4.0,
            min_spike_rate: 5.0,
            warmup_polls: 3,
        }
    }
}

/// Per-signal rate tracker: fast EWMA for the trend, slow EWMA mean +
/// variance for the abnormality baseline.
#[derive(Debug, Clone, Copy, Default)]
struct SignalTrack {
    ewma: f64,
    baseline_mean: f64,
    baseline_var: f64,
}

/// Polls shard telemetry, computes windowed rates and maintains the
/// abnormality baseline.  Drive it manually with [`Collector::poll`] (the
/// deterministic mode golden tests and `bp_top --headless` use) or hand it
/// to [`Collector::spawn`] for a sampler thread.
#[derive(Debug)]
pub struct Collector {
    config: CollectorConfig,
    polls: u64,
    previous: Vec<TelemetrySnapshot>,
    tracks: [SignalTrack; Signal::ALL.len()],
    view: FleetView,
}

impl Collector {
    /// A collector with the given tuning and no polls recorded.
    pub fn new(config: CollectorConfig) -> Self {
        assert!(config.tick_millis > 0, "tick_millis must be nonzero");
        Collector {
            config,
            polls: 0,
            previous: Vec::new(),
            tracks: [SignalTrack::default(); Signal::ALL.len()],
            view: FleetView::default(),
        }
    }

    /// The tuning this collector runs with.
    pub fn config(&self) -> &CollectorConfig {
        &self.config
    }

    /// The view computed by the most recent poll.
    pub fn view(&self) -> &FleetView {
        &self.view
    }

    /// Poll `source` once and fold the snapshot deltas into the view.
    pub fn poll<S: TelemetrySource>(&mut self, source: &S) -> &FleetView {
        let snapshots = source.poll_telemetry();
        self.record(&snapshots)
    }

    /// Fold one round of already-read snapshots into the view.
    ///
    /// Split out from [`Collector::poll`] so tests and capture replays can
    /// feed synthetic snapshots.
    pub fn record(&mut self, snapshots: &[TelemetrySnapshot]) -> &FleetView {
        let dt = self.config.tick_millis as f64 / 1000.0;
        self.polls += 1;

        // Per-shard cumulative views and the fleet-wide delta.
        let mut totals = EnforcerStats::default();
        let mut delta = EnforcerStats::default();
        let mut shards = Vec::with_capacity(snapshots.len());
        for (index, snapshot) in snapshots.iter().enumerate() {
            totals = totals.merged(&snapshot.stats);
            // A shard seen for the first time, or one whose counters were
            // reset between polls (`delta_since` is `None`), contributes its
            // cumulative values: they are what it counted since.
            let since_previous = self
                .previous
                .get(index)
                .and_then(|previous| snapshot.stats.delta_since(&previous.stats))
                .unwrap_or(snapshot.stats);
            delta = delta.merged(&since_previous);
            shards.push(ShardView {
                index,
                stats: snapshot.stats,
                publications: snapshot.publications,
                health: snapshot.health,
            });
        }

        // Rates + abnormality baseline.
        let mut rates = Vec::with_capacity(Signal::ALL.len());
        let mut abnormalities = Vec::new();
        for (slot, signal) in Signal::ALL.into_iter().enumerate() {
            let per_sec = signal.counter(&delta) as f64 / dt;
            let track = &mut self.tracks[slot];
            track.ewma = if self.polls == 1 {
                per_sec
            } else {
                self.config.ewma_alpha * per_sec + (1.0 - self.config.ewma_alpha) * track.ewma
            };
            let mut flagged = false;
            if signal.is_abnormality_signal() {
                let std = track.baseline_var.max(0.0).sqrt();
                flagged = self.polls > self.config.warmup_polls
                    && per_sec >= self.config.min_spike_rate
                    && per_sec > track.baseline_mean + self.config.spike_sigma * std;
                if flagged {
                    abnormalities.push(Abnormality {
                        signal,
                        poll: self.polls,
                        per_sec,
                        baseline_mean: track.baseline_mean,
                        baseline_std: std,
                    });
                } else {
                    // Only calm samples feed the baseline: a sustained attack
                    // stays flagged instead of normalizing itself away.
                    let diff = per_sec - track.baseline_mean;
                    let incr = self.config.baseline_alpha * diff;
                    track.baseline_mean += incr;
                    track.baseline_var =
                        (1.0 - self.config.baseline_alpha) * (track.baseline_var + diff * incr);
                }
            }
            rates.push(SignalRate {
                signal,
                per_sec,
                ewma_per_sec: track.ewma,
                baseline_mean: track.baseline_mean,
                baseline_std: track.baseline_var.max(0.0).sqrt(),
                flagged,
            });
        }

        self.view = FleetView {
            polls: self.polls,
            elapsed_millis: self.polls * self.config.tick_millis,
            totals,
            generations: merge_generations(snapshots),
            shards,
            rates,
            abnormalities,
        };
        self.previous = snapshots.to_vec();
        &self.view
    }
}

/// Merge every shard's generation ring by epoch and rank the result.
fn merge_generations(snapshots: &[TelemetrySnapshot]) -> Vec<GenerationView> {
    let mut merged: Vec<GenerationView> = Vec::new();
    for snapshot in snapshots {
        for cell in &snapshot.generations {
            if cell.epoch == 0 {
                continue;
            }
            match merged.iter_mut().find(|g| g.epoch == cell.epoch) {
                Some(entry) => {
                    entry.accepted += cell.accepted;
                    entry.dropped += cell.dropped;
                }
                None => merged.push(GenerationView {
                    ordinal: 0,
                    epoch: cell.epoch,
                    accepted: cell.accepted,
                    dropped: cell.dropped,
                }),
            }
        }
    }
    merged.sort_by_key(|g| g.epoch);
    for (ordinal, entry) in merged.iter_mut().enumerate() {
        entry.ordinal = ordinal;
    }
    merged
}

// ---------------------------------------------------------------------------
// Sampler thread
// ---------------------------------------------------------------------------

/// Handle to a collector running on its own sampler thread.
///
/// Created by [`Collector::spawn`]; [`CollectorHandle::stop`] signals the
/// thread, joins it and hands the collector back for a final inspection.
#[derive(Debug)]
pub struct CollectorHandle {
    /// Sampler shutdown flag.  Plain flag, no data published through it —
    /// the join in [`CollectorHandle::stop`] is the synchronization point —
    /// so both sides use relaxed ordering (declared in
    /// `bp-lint/invariants.manifest`).
    stop: Arc<AtomicBool>,
    shared: Arc<Mutex<Collector>>,
    thread: Option<JoinHandle<()>>,
}

impl Collector {
    /// Move this collector onto a sampler thread polling `source` every
    /// [`CollectorConfig::tick_millis`].
    pub fn spawn<S>(self, source: S) -> CollectorHandle
    where
        S: TelemetrySource + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Mutex::new(self));
        let thread = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let tick = {
                        let mut collector = shared.lock().expect("collector lock");
                        collector.poll(&source);
                        collector.config.tick_millis
                    };
                    std::thread::sleep(Duration::from_millis(tick));
                }
            })
        };
        CollectorHandle {
            stop,
            shared,
            thread: Some(thread),
        }
    }
}

impl CollectorHandle {
    /// Clone the view computed by the sampler's most recent poll.
    pub fn view(&self) -> FleetView {
        self.shared.lock().expect("collector lock").view.clone()
    }

    /// Stop the sampler, join it and return the collector.
    pub fn stop(mut self) -> Collector {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("sampler thread panicked");
        }
        let shared = std::mem::replace(
            &mut self.shared,
            Arc::new(Mutex::new(Collector::new(CollectorConfig::default()))),
        );
        Arc::try_unwrap(shared)
            .expect("sampler thread still holds the collector")
            .into_inner()
            .expect("collector lock poisoned")
    }
}

impl Drop for CollectorHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with `accepted`/`dropped`-shaped totals, internally
    /// consistent.
    fn snapshot(accepted: u64, replay_switches: u64, epoch: u64) -> TelemetrySnapshot {
        let mut stats = EnforcerStats {
            packets_inspected: accepted + replay_switches,
            packets_accepted: accepted,
            dropped_context_switch: replay_switches,
            flow_context_switches: replay_switches,
            ..EnforcerStats::default()
        };
        stats.packets_inspected = stats.packets_accepted + stats.total_dropped();
        let mut snapshot = TelemetrySnapshot {
            publications: 1,
            stats,
            ..TelemetrySnapshot::default()
        };
        snapshot.generations[0].epoch = epoch;
        snapshot.generations[0].accepted = accepted;
        snapshot.generations[0].dropped = replay_switches;
        snapshot
    }

    #[test]
    fn rates_come_from_deltas_not_totals() {
        let mut collector = Collector::new(CollectorConfig {
            tick_millis: 1000,
            ..CollectorConfig::default()
        });
        collector.record(&[snapshot(100, 0, 1)]);
        let view = collector.record(&[snapshot(250, 0, 1)]).clone();
        assert_eq!(view.polls, 2);
        assert_eq!(view.totals.packets_accepted, 250);
        let rate = view.rate(Signal::Accepted).unwrap();
        assert!((rate.per_sec - 150.0).abs() < 1e-9, "rate {}", rate.per_sec);
    }

    #[test]
    fn calm_baseline_flags_a_replay_spike_and_recovers() {
        let mut collector = Collector::new(CollectorConfig {
            tick_millis: 1000,
            ..CollectorConfig::default()
        });
        // Calm warm-up: steady accepts, a trickle of context switches.
        let mut switches = 0;
        for round in 1..=6u64 {
            switches += 1;
            collector.record(&[snapshot(round * 100, switches, 1)]);
            assert!(
                collector.view().abnormalities.is_empty(),
                "calm round {round} must not flag"
            );
        }
        // Replay burst: 80 switches in one poll.
        switches += 80;
        let view = collector.record(&[snapshot(700, switches, 1)]).clone();
        let flagged: Vec<Signal> = view.abnormalities.iter().map(|a| a.signal).collect();
        assert_eq!(flagged, vec![Signal::ContextReplay]);
        assert!(view.rate(Signal::ContextReplay).unwrap().flagged);
        // The spike did not feed the baseline, so calm traffic clears it.
        switches += 1;
        let view = collector.record(&[snapshot(800, switches, 1)]).clone();
        assert!(view.abnormalities.is_empty());
    }

    #[test]
    fn quiet_fleet_never_flags_below_the_absolute_floor() {
        let mut collector = Collector::new(CollectorConfig {
            tick_millis: 1000,
            min_spike_rate: 5.0,
            ..CollectorConfig::default()
        });
        let mut switches = 0;
        for round in 1..=10u64 {
            // One switch every other poll: above a zero baseline but under
            // the absolute floor.
            switches += round % 2;
            let view = collector
                .record(&[snapshot(round * 10, switches, 1)])
                .clone();
            assert!(view.abnormalities.is_empty(), "round {round} flagged");
        }
    }

    #[test]
    fn generations_merge_across_shards_and_rank_by_epoch() {
        let mut collector = Collector::new(CollectorConfig::default());
        let mut old = snapshot(10, 0, 7);
        old.generations[1].epoch = 3;
        old.generations[1].accepted = 4;
        let young = snapshot(20, 0, 7);
        let view = collector.record(&[old, young]).clone();
        assert_eq!(view.generations.len(), 2);
        assert_eq!(view.generations[0].ordinal, 0);
        assert_eq!(view.generations[0].epoch, 3);
        assert_eq!(view.generations[0].accepted, 4);
        assert_eq!(view.generations[1].epoch, 7);
        assert_eq!(view.generations[1].accepted, 30);
    }

    #[test]
    fn counter_reset_treats_new_totals_as_the_delta() {
        let mut collector = Collector::new(CollectorConfig {
            tick_millis: 1000,
            ..CollectorConfig::default()
        });
        collector.record(&[snapshot(500, 0, 1)]);
        // Stats reset upstream: totals restart from 20.
        let view = collector.record(&[snapshot(20, 0, 1)]).clone();
        let rate = view.rate(Signal::Accepted).unwrap();
        assert!((rate.per_sec - 20.0).abs() < 1e-9, "rate {}", rate.per_sec);
    }
}
