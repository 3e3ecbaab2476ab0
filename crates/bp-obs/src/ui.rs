//! Terminal dashboard rendering for `bp_top`.
//!
//! [`render_dashboard`] turns a [`FleetView`] into one plain-text frame:
//! fleet totals, per-signal rates with a trend bar, per-shard load, active
//! generations and — the part the issue is really about — an **abnormality
//! view** listing every signal currently spiking past its rolling baseline,
//! plus a short log of recent spikes.  The renderer emits no ANSI control
//! sequences itself; the interactive `bp_top` example wraps frames in a
//! clear-screen escape, while `--headless` mode prints them verbatim (CI
//! smoke-tests that path).

use bp_core::{Counter, CounterKind, HealthState};

use crate::collector::{Abnormality, FleetView, Signal};

/// How many recent spikes [`render_dashboard`] lists in the abnormality log.
pub const ABNORMALITY_LOG_LINES: usize = 5;

/// Width of the rate trend bar, in cells.
const BAR_WIDTH: usize = 20;

/// Render one dashboard frame.
///
/// `history` is the caller-maintained log of every spike flagged so far
/// (append `view.abnormalities` after each poll); the frame shows the most
/// recent [`ABNORMALITY_LOG_LINES`] of it.
pub fn render_dashboard(view: &FleetView, history: &[Abnormality]) -> String {
    let mut out = String::new();
    let totals = &view.totals;
    let accepted_pct = if totals.packets_inspected == 0 {
        100.0
    } else {
        totals.packets_accepted as f64 * 100.0 / totals.packets_inspected as f64
    };

    out.push_str(&format!(
        "┌─ borderpatrol · bp_top · poll {} · {:.1}s ─ shards {}\n",
        view.polls,
        view.elapsed_millis as f64 / 1000.0,
        view.shards.len()
    ));
    out.push_str(&format!(
        "│ inspected {:>10}   accepted {:>10} ({accepted_pct:>5.1}%)   dropped {:>8}\n",
        totals.packets_inspected,
        totals.packets_accepted,
        totals.total_dropped()
    ));
    // One line per counter kind, labelled from the counter table — the same
    // labels `/metrics` exports, so the two views cannot disagree.
    for (title, kind) in [
        ("drops", CounterKind::Drop),
        ("faults", CounterKind::Fault),
        ("flows", CounterKind::Flow),
    ] {
        let cells: Vec<String> = Counter::of_kind(kind)
            .map(|counter| format!("{} {}", counter.label(), totals.get(counter)))
            .collect();
        out.push_str(&format!("│ {title}: {}\n", cells.join(" · ")));
    }

    // Rates with a bar scaled to the largest EWMA on screen.
    out.push_str("├─ rates (per second, ▌ = ewma trend)\n");
    let scale = view
        .rates
        .iter()
        .map(|r| r.ewma_per_sec)
        .fold(1.0_f64, f64::max);
    for rate in &view.rates {
        let cells = ((rate.ewma_per_sec / scale) * BAR_WIDTH as f64).round() as usize;
        let bar: String = "▌".repeat(cells.min(BAR_WIDTH));
        let marker = if rate.flagged { " ⚠" } else { "" };
        out.push_str(&format!(
            "│ {:<14} {:>10.1}  {bar:<20}{marker}\n",
            rate.signal.tag(),
            rate.per_sec
        ));
    }

    if !view.shards.is_empty() {
        let busiest = view
            .shards
            .iter()
            .map(|s| s.stats.packets_inspected)
            .fold(1, u64::max);
        out.push_str("├─ shards (inspected)\n");
        for shard in &view.shards {
            let cells = ((shard.stats.packets_inspected as f64 / busiest as f64) * BAR_WIDTH as f64)
                .round() as usize;
            out.push_str(&format!(
                "│ shard {:<3} {:>10}  {}\n",
                shard.index,
                shard.stats.packets_inspected,
                "▌".repeat(cells.min(BAR_WIDTH))
            ));
        }
    }

    // Health lane: only drawn once the fleet has a story to tell — a calm
    // all-healthy fleet keeps the frame compact.
    let eventful = view.shards.iter().any(|s| {
        s.health.state != HealthState::Healthy
            || s.health.faults > 0
            || s.health.respawns > 0
            || s.health.stalls > 0
    });
    if eventful {
        out.push_str("├─ health\n");
        for shard in &view.shards {
            let health = &shard.health;
            out.push_str(&format!(
                "│ shard {:<3} {:<11}  faults {:>4}  respawns {:>3}  stalls {:>3}\n",
                shard.index,
                health.state.label(),
                health.faults,
                health.respawns,
                health.stalls
            ));
        }
    }

    if !view.generations.is_empty() {
        out.push_str("├─ generations\n");
        for generation in &view.generations {
            out.push_str(&format!(
                "│ g{} (epoch {:>3})  accepted {:>10}  dropped {:>8}\n",
                generation.ordinal, generation.epoch, generation.accepted, generation.dropped
            ));
        }
    }

    // Abnormality view: what is spiking now, then the recent spike log.
    out.push_str("├─ abnormality view\n");
    if view.abnormalities.is_empty() {
        out.push_str("│ all signals within baseline\n");
    } else {
        for spike in &view.abnormalities {
            out.push_str(&format!(
                "│ ⚠ {:<14} {:>8.1}/s vs baseline {:.1}±{:.1}\n",
                spike.signal.tag(),
                spike.per_sec,
                spike.baseline_mean,
                spike.baseline_std
            ));
        }
    }
    let start = history.len().saturating_sub(ABNORMALITY_LOG_LINES);
    for spike in &history[start..] {
        out.push_str(&format!(
            "│   poll {:>4}: {} spiked to {:.1}/s\n",
            spike.poll,
            spike.signal.tag(),
            spike.per_sec
        ));
    }
    out.push_str("└─\n");
    out
}

/// Convenience for `bp_top`: true when any of `signals` appears in the
/// spike history (used by the headless smoke run's exit check).
pub fn history_contains(history: &[Abnormality], signal: Signal) -> bool {
    history.iter().any(|spike| spike.signal == signal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, CollectorConfig};
    use bp_core::{EnforcerStats, TelemetrySnapshot};

    fn view_with_spike() -> (FleetView, Vec<Abnormality>) {
        let mut collector = Collector::new(CollectorConfig {
            tick_millis: 1000,
            ..CollectorConfig::default()
        });
        let mut history = Vec::new();
        let mut switches = 0;
        for round in 1..=6u64 {
            switches += 1;
            let stats = EnforcerStats {
                packets_inspected: round * 100 + switches,
                packets_accepted: round * 100,
                dropped_context_switch: switches,
                flow_context_switches: switches,
                ..EnforcerStats::default()
            };
            let view = collector
                .record(&[TelemetrySnapshot {
                    publications: round,
                    stats,
                    ..TelemetrySnapshot::default()
                }])
                .clone();
            history.extend(view.abnormalities.clone());
        }
        switches += 90;
        let stats = EnforcerStats {
            packets_inspected: 700 + switches,
            packets_accepted: 700,
            dropped_context_switch: switches,
            flow_context_switches: switches,
            ..EnforcerStats::default()
        };
        let view = collector
            .record(&[TelemetrySnapshot {
                publications: 7,
                stats,
                ..TelemetrySnapshot::default()
            }])
            .clone();
        history.extend(view.abnormalities.clone());
        (view, history)
    }

    #[test]
    fn dashboard_frame_surfaces_the_replay_spike() {
        let (view, history) = view_with_spike();
        assert!(history_contains(&history, Signal::ContextReplay));
        let frame = render_dashboard(&view, &history);
        assert!(frame.contains("abnormality view"), "{frame}");
        assert!(frame.contains("⚠ context-replay"), "{frame}");
        assert!(frame.contains("spiked to"), "{frame}");
        assert!(
            !frame.contains('\x1b'),
            "renderer must emit no ANSI escapes"
        );
    }

    #[test]
    fn calm_dashboard_says_so() {
        let mut collector = Collector::new(CollectorConfig::default());
        let view = collector.record(&[TelemetrySnapshot::default()]).clone();
        let frame = render_dashboard(&view, &[]);
        assert!(frame.contains("all signals within baseline"), "{frame}");
        assert!(frame.contains("faults: runtime-fault 0"), "{frame}");
        // An all-healthy fleet with no fault history keeps the frame
        // compact: no health lane.
        assert!(!frame.contains("├─ health"), "{frame}");
    }

    #[test]
    fn health_lane_appears_once_a_shard_degrades() {
        use bp_core::{HealthState, ShardHealthSnapshot};

        let mut collector = Collector::new(CollectorConfig::default());
        let snapshot = TelemetrySnapshot {
            health: ShardHealthSnapshot {
                state: HealthState::Degraded,
                faults: 2,
                respawns: 1,
                stalls: 0,
            },
            ..TelemetrySnapshot::default()
        };
        let view = collector.record(&[snapshot]).clone();
        let frame = render_dashboard(&view, &[]);
        assert!(frame.contains("├─ health"), "{frame}");
        assert!(frame.contains("degraded"), "{frame}");
        assert!(frame.contains("faults    2"), "{frame}");
    }
}
