//! Observability-plane integration suite: seqlock snapshot consistency
//! under concurrent load, exact delta accounting, and the golden-tested
//! metrics exposition.
//!
//! Regenerate the committed metrics golden with
//! `BP_REGEN_GOLDEN=1 cargo test --test observability`.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use borderpatrol::analysis::scenario::adversary::{AdversaryModel, AdversaryProfile};
use borderpatrol::analysis::scenario::{PreparedScenario, ScenarioReport, ScenarioSpec};
use borderpatrol::core::enforcer::{
    EnforcerConfig, EnforcerCounters, EnforcerStats, ShardedEnforcer,
};
use borderpatrol::core::policy::PolicySet;
use borderpatrol::core::wire::WireError;
use borderpatrol::core::{Counter, CounterKind, TelemetrySnapshot, STATS_WORDS};
use borderpatrol::obs::{render_dashboard, render_metrics, Collector, CollectorConfig, Signal};

mod common;
use common::{solcalendar_fixture, stream, tagged_packet};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/obs")
}

/// A strict 4-shard enforcer over the SolCalendar fixture.
fn enforcer(shards: usize) -> ShardedEnforcer {
    let (db, _, _) = solcalendar_fixture();
    ShardedEnforcer::from_parts(db, &PolicySet::new(), EnforcerConfig::strict(), shards)
}

/// A mixed batch: cached-verdict traffic, context garbage and untagged
/// packets, spread over `flows` flows.
fn mixed_batch(flows: u16, repeats: usize) -> Vec<borderpatrol::netsim::packet::Ipv4Packet> {
    let (_, analytics, _) = solcalendar_fixture();
    let mut packets = stream(flows, repeats, analytics);
    for flow in 0..flows {
        packets.push(tagged_packet(flow, &[9, 9, 9]));
        let mut untagged = tagged_packet(flow + 1000, analytics);
        untagged.options_mut().clear();
        packets.push(untagged);
    }
    packets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A reader hammering every shard's seqlock concurrently with batch
    /// inspection only ever observes internally consistent snapshots —
    /// the sequence-odd/changed retry protocol works — and the live
    /// counters it reads under each shard's lock conserve mid-batch too.
    /// Once the writer is done, the per-shard snapshots sum exactly to the
    /// merged stats.
    #[test]
    fn concurrent_polling_never_observes_a_torn_snapshot(
        flows in 1u16..10,
        repeats in 1usize..5,
        shards in 1usize..5,
        batches in 1usize..4,
    ) {
        let enforcer = Arc::new(enforcer(shards));
        let stop = Arc::new(AtomicBool::new(false));

        let reader = {
            let enforcer = Arc::clone(&enforcer);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    for snapshot in enforcer.telemetry() {
                        assert!(snapshot.checksum_valid(), "torn payload escaped the seqlock");
                        assert!(snapshot.consistent(), "inconsistent snapshot: {snapshot:?}");
                        reads += 1;
                    }
                    for stats in enforcer.shard_stats() {
                        assert_eq!(
                            stats.packets_inspected,
                            stats.packets_accepted + stats.total_dropped(),
                            "live counters tore: {stats:?}"
                        );
                    }
                    // At least one full sweep happens even if the writer
                    // finishes before this thread is scheduled.
                    if done {
                        return reads;
                    }
                }
            })
        };

        let batch = mixed_batch(flows, repeats);
        let mut verdicts = Vec::new();
        for _ in 0..batches {
            enforcer.inspect_batch_into(&batch, &mut verdicts);
        }

        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("reader thread");
        prop_assert!(reads > 0, "reader never completed a snapshot read");

        // Quiescent now: per-shard published stats sum exactly to the
        // merged live counters.
        let summed = enforcer
            .telemetry()
            .iter()
            .fold(EnforcerStats::default(), |acc, snapshot| acc.merged(&snapshot.stats));
        prop_assert_eq!(summed, enforcer.stats());
    }
}

/// Collector deltas telescope exactly: summing every poll's per-signal
/// delta (rate × interval) reproduces the enforcer's final counters, with
/// nothing lost or double-counted across polls.
#[test]
fn summed_collector_deltas_equal_final_stats_exactly() {
    let enforcer = Arc::new(enforcer(3));
    let mut collector = Collector::new(CollectorConfig {
        tick_millis: 1000, // 1s ticks: rate == per-poll delta
        ..CollectorConfig::default()
    });

    let mut summed = EnforcerStats::default();
    let mut previous = EnforcerStats::default();
    let mut verdicts = Vec::new();
    for round in 1..=5usize {
        enforcer.inspect_batch_into(&mixed_batch(round as u16 * 2, round), &mut verdicts);
        let view = collector.poll(&enforcer).clone();
        // Reconstruct the poll's delta from the cumulative view.
        let delta_inspected = view.totals.packets_inspected - previous.packets_inspected;
        let rate = view.rate(Signal::Inspected).unwrap();
        assert!(
            (rate.per_sec - delta_inspected as f64).abs() < 1e-9,
            "poll {round}: rate {} != delta {delta_inspected}",
            rate.per_sec
        );
        summed.packets_inspected += delta_inspected;
        summed.packets_accepted += view.totals.packets_accepted - previous.packets_accepted;
        previous = view.totals;
    }

    let final_stats = enforcer.stats();
    assert_eq!(summed.packets_inspected, final_stats.packets_inspected);
    assert_eq!(summed.packets_accepted, final_stats.packets_accepted);
    // And the cumulative view itself matches the enforcer exactly.
    assert_eq!(previous, final_stats);
}

/// A stats reset between polls followed by *more* traffic than before the
/// reset: `packets_inspected` alone does not run backwards, but other lanes
/// do, and a delta mixing pre- and post-reset lanes would break
/// conservation (prev 100/90/10, then 120 inspected and all dropped, used to
/// yield inspected 20 / accepted 0 / dropped 110).  Any lane running
/// backwards makes the new cumulative values the delta.
#[test]
fn reset_then_more_traffic_keeps_the_collector_delta_conserved() {
    let poll = |stats: EnforcerStats| TelemetrySnapshot {
        stats,
        ..TelemetrySnapshot::default()
    };
    let mut collector = Collector::new(CollectorConfig {
        tick_millis: 1000, // 1s ticks: rate == per-poll delta
        ..CollectorConfig::default()
    });
    collector.record(&[poll(EnforcerStats {
        packets_inspected: 100,
        packets_accepted: 90,
        dropped_by_policy: 10,
        ..EnforcerStats::default()
    })]);
    let view = collector.record(&[poll(EnforcerStats {
        packets_inspected: 120,
        dropped_by_policy: 120,
        ..EnforcerStats::default()
    })]);
    let delta = |signal| view.rate(signal).unwrap().per_sec;
    assert_eq!(delta(Signal::Inspected), 120.0);
    assert_eq!(delta(Signal::Accepted), 0.0);
    assert_eq!(delta(Signal::Dropped), 120.0);
}

/// The counter table, walked once: a distinct value in every lane (each
/// [`Counter`], then each [`WireError`]) must come back out of every
/// surface derived from the table — the atomic lanes, the word layout,
/// merge and delta, the kind sums, the collector, and under its `name()` in
/// the scenario report and its `label()` in `/metrics` and the `bp_top`
/// frame.  (The seqlock cell's publish/read leg is walked the same way by
/// `telemetry::tests::every_lane_survives_publish_and_read`, where
/// `publish` is reachable.)  A counter added to the table is covered here
/// without editing this test.
#[test]
fn every_counter_survives_every_surface_derived_from_the_table() {
    assert_eq!(Counter::ALL.len() + WireError::ALL.len(), STATS_WORDS);
    let words: [u64; STATS_WORDS] = std::array::from_fn(|lane| 1_000 + 37 * lane as u64);
    let stats = EnforcerStats::from_words(&words);

    // Word layout: table order, then `WireError::ALL`.
    assert_eq!(stats.to_words(), words);
    for (lane, counter) in Counter::ALL.into_iter().enumerate() {
        assert_eq!(stats.get(counter), words[lane], "{}", counter.name());
    }
    for error in WireError::ALL {
        let lane = Counter::ALL.len() + error.index();
        assert_eq!(stats.dropped_wire_by.get(error), words[lane], "{error}");
    }

    // Atomic lanes.
    let atomic = EnforcerCounters::new();
    atomic.store(stats);
    assert_eq!(atomic.snapshot(), stats);

    // Merge and delta, lane by lane.
    let doubled = stats.merged(&stats);
    assert_eq!(doubled.to_words(), words.map(|word| 2 * word));
    assert_eq!(doubled.delta_since(&stats), Some(stats));
    assert_eq!(
        stats.delta_since(&doubled),
        None,
        "every lane ran backwards"
    );

    // Kind sums.
    let dropped: u64 = Counter::of_kind(CounterKind::Drop)
        .chain(Counter::of_kind(CounterKind::Fault))
        .map(|counter| stats.get(counter))
        .sum();
    assert_eq!(stats.total_dropped(), dropped);
    let outcomes = stats.without_flow_counters();
    for counter in Counter::ALL {
        let kept = counter.kind() != CounterKind::Flow;
        let expected = if kept { stats.get(counter) } else { 0 };
        assert_eq!(outcomes.get(counter), expected, "{}", counter.name());
    }
    assert_eq!(outcomes.dropped_wire_by, stats.dropped_wire_by);

    // Collector → exporter and dashboard, by label.
    let mut collector = Collector::new(CollectorConfig::default());
    let view = collector
        .record(&[TelemetrySnapshot {
            stats,
            ..TelemetrySnapshot::default()
        }])
        .clone();
    assert_eq!(view.totals, stats);
    let metrics = render_metrics(&view);
    let frame = render_dashboard(&view, &[]);
    for counter in Counter::ALL {
        let (label, value) = (counter.label(), stats.get(counter));
        let line = match counter.kind() {
            CounterKind::Total => format!("bp_packets_{label}_total {value}\n"),
            CounterKind::Drop | CounterKind::Fault => {
                format!("bp_drops_total{{reason=\"{label}\"}} {value}\n")
            }
            CounterKind::Flow => format!("bp_flow_events_total{{event=\"{label}\"}} {value}\n"),
        };
        assert!(metrics.contains(&line), "missing {line:?} in:\n{metrics}");
        // The dashboard's totals line has its own layout; the per-kind
        // lines print `label value`.
        if counter.kind() != CounterKind::Total {
            let cell = format!("{label} {value}");
            assert!(frame.contains(&cell), "missing {cell:?} in:\n{frame}");
        }
    }
    for error in WireError::ALL {
        let line = format!(
            "bp_wire_drops_total{{error=\"{}\"}} {}\n",
            error.tag(),
            stats.dropped_wire_by.get(error)
        );
        assert!(metrics.contains(&line), "missing {line:?} in:\n{metrics}");
    }

    // Scenario report, by name.
    let report = ScenarioReport {
        name: "table-walk".into(),
        seed: 0,
        devices: 0,
        shards: 1,
        ticks: 0,
        flows: 0,
        packets: 0,
        legit_packets: 0,
        legit_accepted: 0,
        legit_dropped: 0,
        adversaries: Vec::new(),
        hot_swaps: 0,
        stats,
    }
    .render();
    for counter in Counter::ALL {
        let row = report
            .lines()
            .find(|line| line.split('|').nth(1).map(str::trim) == Some(counter.name()))
            .unwrap_or_else(|| panic!("no row for {} in:\n{report}", counter.name()));
        let value = stats.get(counter).to_string();
        assert_eq!(row.split('|').nth(2).map(str::trim), Some(value.as_str()));
    }
}

/// `TelemetryCell::try_read` is allowed to fail (odd/moved stamp) but a
/// retry loop always lands a consistent snapshot while a writer runs.
#[test]
fn try_read_retry_loop_survives_a_concurrent_writer() {
    let enforcer = Arc::new(enforcer(1));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let enforcer = Arc::clone(&enforcer);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let batch = mixed_batch(4, 1);
            let mut verdicts = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                enforcer.inspect_batch_into(&batch, &mut verdicts);
            }
        })
    };

    for _ in 0..2_000 {
        // shard_telemetry is the retry loop over try_read.
        let snapshot = enforcer.shard_telemetry(0);
        assert!(snapshot.checksum_valid() && snapshot.consistent());
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
}

// ---------------------------------------------------------------------------
// Golden metrics exposition
// ---------------------------------------------------------------------------

/// The deterministic scenario behind the metrics golden: a small fleet with
/// a context-replay adversary, observed once per tick.
fn golden_metrics_run() -> String {
    let mut replay = AdversaryProfile::new(AdversaryModel::ContextReplay, 0.25);
    replay.packets_per_tick = 2;
    let mut spec = ScenarioSpec::adversarial_fleet("obs-golden", 20, 0x0b5e21e, 2);
    spec.adversaries = vec![replay];
    spec.ticks = 5;

    let prepared = PreparedScenario::prepare(&spec).expect("golden spec prepares");
    let mut collector = Collector::new(CollectorConfig {
        tick_millis: spec.tick_millis,
        ..CollectorConfig::default()
    });
    prepared
        .run_observed(&mut |telemetry| {
            collector.poll(telemetry.enforcer);
        })
        .expect("golden scenario runs");
    render_metrics(collector.view())
}

#[test]
fn metrics_rendering_matches_the_committed_golden() {
    let rendered = golden_metrics_run();
    // Stability first: a second run of the same seed renders byte-identically.
    assert_eq!(
        rendered,
        golden_metrics_run(),
        "metrics exposition must be byte-stable for a fixed seed"
    );
    let path = fixture_dir().join("metrics_golden.txt");
    let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} (regen with BP_REGEN_GOLDEN=1): {e}",
            path.display()
        )
    });
    assert_eq!(
        rendered, committed,
        "metrics exposition drifted from the committed golden"
    );
}

// ---------------------------------------------------------------------------
// Fixture regeneration (no-op unless BP_REGEN_GOLDEN=1)
// ---------------------------------------------------------------------------

#[test]
fn regen_golden_fixtures() {
    if std::env::var("BP_REGEN_GOLDEN").is_err() {
        return;
    }
    let dir = fixture_dir();
    fs::create_dir_all(&dir).expect("create fixture dir");
    fs::write(dir.join("metrics_golden.txt"), golden_metrics_run()).expect("write metrics golden");
}
