//! The metrics the benchmark prints: name, unit, direction, and — for the
//! end-to-end ones — the share by which a later change may worsen them.
//!
//! `BENCHMARK.json` lists exactly these; `check.sh` holds the two together.

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the printed value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the gateway sees (timed run, `--trace 0`).
pub const END_TO_END: [Metric; 6] = [
    end_to_end("setup_s", "s", "lower", 0.20),
    end_to_end("throughput_pps", "1/s", "higher", 0.20),
    end_to_end("batch_p50_us", "us", "lower", 0.20),
    end_to_end("batch_p99_us", "us", "lower", 0.20),
    end_to_end("cpu_ns_per_pkt", "ns", "lower", 0.20),
    end_to_end("peak_rss_mb", "MiB", "lower", 0.20),
];

/// One row per layer boundary (traced run, `--trace 1`).
pub const PER_LAYER: [Metric; 34] = [
    layer("wire.decode_ns_per_frame", "ns", "lower"),
    layer("wire.view_ns_per_frame", "ns", "lower"),
    layer("wire.in_situ_ns_per_pkt", "ns", "lower"),
    layer("wire.reject_ns_per_frame", "ns", "lower"),
    layer("wire.reject_share", "ratio", "lower"),
    layer("runtime.route_ns_per_pkt", "ns", "lower"),
    layer("runtime.ring_roundtrip_ns", "ns", "lower"),
    layer("runtime.batch_fixed_ns", "ns", "lower"),
    layer("runtime.fanout_ratio_b8", "ratio", "lower"),
    layer("runtime.fanout_ratio_b256", "ratio", "lower"),
    layer("runtime.busiest_shard_share", "ratio", "lower"),
    layer("flow.probe_hit_ns", "ns", "lower"),
    layer("flow.miss_insert_ns", "ns", "lower"),
    layer("flow.hit_share", "ratio", "higher"),
    layer("flow.evictions_per_pkt", "count", "lower"),
    layer("context.decode_ns", "ns", "lower"),
    layer("sigdb.resolve_ns", "ns", "lower"),
    layer("policy.eval_ns", "ns", "lower"),
    layer("enforcer.slow_path_ns_per_pkt", "ns", "lower"),
    layer("enforcer.struct_path_ns_per_pkt", "ns", "lower"),
    layer("enforcer.drop_extra_ns", "ns", "lower"),
    layer("enforcer.peak_rss_per_flow_b", "B", "lower"),
    layer("telemetry.read_ns", "ns", "lower"),
    layer("obs.poll_us", "us", "lower"),
    layer("obs.render_metrics_us", "us", "lower"),
    layer("control.commit_p50_us", "us", "lower"),
    layer("control.validate_us", "us", "lower"),
    layer("control.commit_append_us", "us", "lower"),
    layer("control.commit_rebuild_us", "us", "lower"),
    layer("control.rollback_us", "us", "lower"),
    layer("control.index_reuse_share", "ratio", "higher"),
    layer("control.reeval_ns_per_flow", "ns", "lower"),
    layer("engine.unattributed_share", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

/// Measured values in the order of one of the tables above.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `value` for `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The values in `table` order; an error names what is missing, extra
    /// or not a finite number.
    pub fn in_order(&self, table: &[Metric]) -> Result<Vec<(Metric, f64)>, String> {
        if let Some((extra, _)) = self
            .0
            .iter()
            .find(|(name, _)| !table.iter().any(|m| m.name == *name))
        {
            return Err(format!("metric {extra} is not in the table"));
        }
        table
            .iter()
            .map(|metric| match self.get(metric.name) {
                Some(value) if value.is_finite() => Ok((*metric, value)),
                Some(value) => Err(format!("metric {} is {value}", metric.name)),
                None => Err(format!("metric {} was not measured", metric.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_manifest_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(["lower", "higher"].contains(&metric.better));
            assert!(metric.unit.len() <= 16);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        // setup_s carries the largest bound (shared), and none is above 0.20.
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
        assert!(setup.bound.unwrap() <= 0.20);
    }

    #[test]
    fn values_must_cover_the_table_exactly() {
        let mut values = Values::default();
        for metric in &END_TO_END[..5] {
            values.set(metric.name, 1.5);
        }
        assert!(values
            .in_order(&END_TO_END)
            .unwrap_err()
            .contains("peak_rss_mb"));
        values.set("peak_rss_mb", f64::NAN);
        assert!(values.in_order(&END_TO_END).unwrap_err().contains("NaN"));
        let mut values = Values::default();
        values.set("bogus", 1.0);
        assert!(values.in_order(&END_TO_END).unwrap_err().contains("bogus"));
    }
}
