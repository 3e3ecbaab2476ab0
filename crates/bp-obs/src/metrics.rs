//! Stable text exposition of a [`FleetView`].
//!
//! The format is OTLP/Prometheus-flavoured — `name{label="value"} number`
//! lines — but deliberately *diffable*: line order is fixed by code, labels
//! use the repo's stable tags, per-generation counters key on epoch
//! *ordinals* (raw epochs are process-global and vary run to run), and rates
//! are printed with fixed precision against the collector's nominal tick.
//! The oracle CI job golden-tests the rendering byte for byte.

use bp_core::{Counter, CounterKind};
use bp_types::WireError;

use crate::collector::{FleetView, Signal};

/// Render `view` as the stable metrics text exposition.
pub fn render_metrics(view: &FleetView) -> String {
    let mut out = String::new();
    let mut line = |text: String| {
        out.push_str(&text);
        out.push('\n');
    };

    line(format!(
        "# borderpatrol telemetry poll={} elapsed_ms={}",
        view.polls, view.elapsed_millis
    ));
    let totals = &view.totals;
    for counter in Counter::of_kind(CounterKind::Total) {
        let (label, value) = (counter.label(), totals.get(counter));
        line(format!("bp_packets_{label}_total {value}"));
    }
    line(format!(
        "bp_packets_dropped_total {}",
        totals.total_dropped()
    ));

    for counter in Counter::ALL.into_iter().filter(|c| c.kind().is_drop()) {
        let (label, value) = (counter.label(), totals.get(counter));
        line(format!("bp_drops_total{{reason=\"{label}\"}} {value}"));
    }

    for error in WireError::ALL {
        line(format!(
            "bp_wire_drops_total{{error=\"{}\"}} {}",
            error.tag(),
            totals.dropped_wire_by.get(error)
        ));
    }

    for counter in Counter::of_kind(CounterKind::Flow) {
        let (label, value) = (counter.label(), totals.get(counter));
        line(format!("bp_flow_events_total{{event=\"{label}\"}} {value}"));
    }

    for generation in &view.generations {
        let ordinal = generation.ordinal;
        line(format!(
            "bp_generation_packets_total{{generation=\"g{ordinal}\",verdict=\"accepted\"}} {}",
            generation.accepted
        ));
        line(format!(
            "bp_generation_packets_total{{generation=\"g{ordinal}\",verdict=\"dropped\"}} {}",
            generation.dropped
        ));
    }

    for shard in &view.shards {
        line(format!(
            "bp_shard_packets_inspected_total{{shard=\"{}\"}} {}",
            shard.index, shard.stats.packets_inspected
        ));
        line(format!(
            "bp_shard_publications_total{{shard=\"{}\"}} {}",
            shard.index, shard.publications
        ));
    }

    for shard in &view.shards {
        line(format!(
            "bp_shard_health_state{{shard=\"{}\",state=\"{}\"}} {}",
            shard.index,
            shard.health.state.label(),
            shard.health.state as u8
        ));
        for (event, value) in [
            ("fault", shard.health.faults),
            ("respawn", shard.health.respawns),
            ("stall", shard.health.stalls),
        ] {
            line(format!(
                "bp_shard_health_events_total{{shard=\"{}\",event=\"{event}\"}} {value}",
                shard.index
            ));
        }
    }

    for rate in &view.rates {
        let tag = rate.signal.tag();
        line(format!(
            "bp_rate_per_sec{{signal=\"{tag}\",kind=\"instant\"}} {:.3}",
            rate.per_sec
        ));
        line(format!(
            "bp_rate_per_sec{{signal=\"{tag}\",kind=\"ewma\"}} {:.3}",
            rate.ewma_per_sec
        ));
    }

    for signal in Signal::ALL {
        if !signal.is_abnormality_signal() {
            continue;
        }
        let flagged = view.abnormalities.iter().any(|a| a.signal == signal) as u8;
        line(format!(
            "bp_abnormality_flagged{{signal=\"{}\"}} {flagged}",
            signal.tag()
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, CollectorConfig};
    use bp_core::{EnforcerStats, TelemetrySnapshot};

    #[test]
    fn rendering_is_deterministic_and_covers_every_family() {
        let mut collector = Collector::new(CollectorConfig {
            tick_millis: 1000,
            ..CollectorConfig::default()
        });
        let mut snapshot = TelemetrySnapshot {
            publications: 3,
            stats: EnforcerStats {
                packets_inspected: 12,
                packets_accepted: 9,
                dropped_by_policy: 2,
                dropped_wire: 1,
                ..EnforcerStats::default()
            },
            ..TelemetrySnapshot::default()
        };
        snapshot.stats.dropped_wire_by.bad_checksum = 1;
        snapshot.generations[0].epoch = 5;
        snapshot.generations[0].accepted = 9;
        snapshot.generations[0].dropped = 3;

        let first = render_metrics(collector.record(&[snapshot]));
        let mut again = Collector::new(CollectorConfig {
            tick_millis: 1000,
            ..CollectorConfig::default()
        });
        let second = render_metrics(again.record(&[snapshot]));
        assert_eq!(first, second, "same input must render byte-identically");

        for needle in [
            "bp_packets_inspected_total 12",
            "bp_drops_total{reason=\"policy\"} 2",
            "bp_wire_drops_total{error=\"bad-checksum\"} 1",
            "bp_flow_events_total{event=\"hit\"} 0",
            "bp_generation_packets_total{generation=\"g0\",verdict=\"accepted\"} 9",
            "bp_shard_packets_inspected_total{shard=\"0\"} 12",
            "bp_drops_total{reason=\"runtime-fault\"} 0",
            "bp_drops_total{reason=\"overload\"} 0",
            "bp_shard_health_state{shard=\"0\",state=\"healthy\"} 0",
            "bp_shard_health_events_total{shard=\"0\",event=\"respawn\"} 0",
            "bp_rate_per_sec{signal=\"accepted\",kind=\"instant\"} 9.000",
            "bp_abnormality_flagged{signal=\"wire-malformed\"} 0",
        ] {
            assert!(first.contains(needle), "missing {needle:?} in:\n{first}");
        }
    }
}
