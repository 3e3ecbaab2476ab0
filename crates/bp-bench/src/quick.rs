//! Machine-readable quick-bench mode (`--json`).
//!
//! The criterion-style benches print human-oriented rows; CI and the perf
//! trajectory need numbers a script can diff.  Running a bench binary with
//! `--json` (e.g. `cargo bench -p bp-bench --bench fleet_scale -- --json`)
//! switches it into this mode: a short, self-timed sweep whose rows —
//! packets/second per (case, shard count, batch size) — are merged into the
//! workspace-root `BENCH.json` ([`BENCH_JSON_PATH`], the one place the
//! artifact is named).  Each bench owns its rows in the file (re-running a
//! bench replaces only that bench's section), so running the benches in any
//! order converges to one complete artifact.
//!
//! The measurement budget per row is `BP_BENCH_JSON_MS` (default 200 ms),
//! so the full sweep stays CI-smoke sized.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Where the merged artifact lives: the workspace root, next to README.md.
/// Un-numbered on purpose — the `issue` field inside carries the PR number.
pub const BENCH_JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");

/// One measured configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Bench binary that produced the row (`fleet_scale`, …).
    pub bench: String,
    /// Scenario / workload within the bench.
    pub case: String,
    /// Worker shards of the enforcer under test.
    pub shards: u64,
    /// Packets per batch handed to `inspect_batch` (for scenario-driven
    /// rows: the average packets per tick batch).
    pub batch: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Packets per second derived from the iteration's packet count.
    pub pkts_per_sec: f64,
}

/// The merged document at [`BENCH_JSON_PATH`].
#[derive(Debug, Default, Serialize, Deserialize)]
struct BenchReport {
    /// Stacked-PR issue the artifact belongs to.
    issue: u64,
    /// Every bench's rows, sorted by (bench, case, shards, batch).
    rows: Vec<Row>,
}

/// True when the bench binary was invoked with `--json`.
pub fn json_mode() -> bool {
    std::env::args().any(|arg| arg == "--json")
}

/// Per-row measurement budget (`BP_BENCH_JSON_MS`, default 200 ms).
fn budget() -> Duration {
    let ms = std::env::var("BP_BENCH_JSON_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    Duration::from_millis(ms)
}

/// Collector for one bench binary's quick-mode rows.
#[derive(Debug)]
pub struct QuickBench {
    bench: String,
    rows: Vec<Row>,
}

impl QuickBench {
    /// Start collecting rows for `bench`.
    pub fn new(bench: impl Into<String>) -> Self {
        QuickBench {
            bench: bench.into(),
            rows: Vec::new(),
        }
    }

    /// Time `routine` (one warmup iteration, then as many timed iterations
    /// as the budget allows) and record a row; `elements` is the packet
    /// count one iteration processes.
    pub fn measure(
        &mut self,
        case: &str,
        shards: usize,
        batch: usize,
        elements: u64,
        mut routine: impl FnMut(),
    ) {
        routine();
        let budget = budget();
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < budget {
            routine();
            iters += 1;
        }
        let ns_per_iter = start.elapsed().as_nanos() as f64 / iters.max(1) as f64;
        let pkts_per_sec = elements as f64 * 1e9 / ns_per_iter;
        let row = Row {
            bench: self.bench.clone(),
            case: case.to_string(),
            shards: shards as u64,
            batch: batch as u64,
            ns_per_iter,
            pkts_per_sec,
        };
        println!(
            "{}/{case} shards={shards} batch={batch}: {:.0} pkts/s",
            self.bench, pkts_per_sec
        );
        self.rows.push(row);
    }

    /// Merge this bench's rows into [`BENCH_JSON_PATH`] (replacing its
    /// previous rows) and write the file.
    pub fn finish(mut self) {
        let mut report = std::fs::read_to_string(BENCH_JSON_PATH)
            .ok()
            .and_then(|text| serde_json::from_str::<BenchReport>(&text).ok())
            .unwrap_or_default();
        report.issue = 13;
        report.rows.retain(|row| row.bench != self.bench);
        report.rows.append(&mut self.rows);
        report.rows.sort_by(|a, b| {
            (&a.bench, &a.case, a.shards, a.batch).cmp(&(&b.bench, &b.case, b.shards, b.batch))
        });
        let text = serde_json::to_string_pretty(&report).expect("bench report serializes");
        std::fs::write(BENCH_JSON_PATH, text + "\n").expect("write the bench artifact");
        println!("wrote {BENCH_JSON_PATH}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_roundtrip_through_json() {
        let report = BenchReport {
            issue: 10,
            rows: vec![Row {
                bench: "b".into(),
                case: "c".into(),
                shards: 4,
                batch: 64,
                ns_per_iter: 123.5,
                pkts_per_sec: 1e6,
            }],
        };
        let text = serde_json::to_string_pretty(&report).unwrap();
        let parsed: BenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.issue, 10);
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.rows[0].bench, "b");
        assert_eq!(parsed.rows[0].shards, 4);
        assert!((parsed.rows[0].pkts_per_sec - 1e6).abs() < 1e-9);
    }
}
