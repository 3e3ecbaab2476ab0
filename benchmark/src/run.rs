//! Set-up, the closed-loop pass, and verdict-by-verdict verification.
//!
//! One client — the submitting thread — sends the next batch only after the
//! previous `Engine::ingest_bytes_into` call returned.  A pass is a sequence
//! of *slices*; every slice replays the same steps over the same frames, so
//! all slices do byte-identical work.  The runner proves that after each
//! slice (same `EnforcerStats` delta as the first slice, every verdict equal
//! to the generator's expectation, hence the same verdict sequence) and times
//! only the engine's own calls, never its own checking.

use std::time::{Duration, Instant};

use borderpatrol::core::enforcer::EnforcerStats;
use borderpatrol::core::flow::FlowTableConfig;
use borderpatrol::core::offline::OfflineAnalyzer;
use borderpatrol::core::policy::PolicySet;
use borderpatrol::core::wire::WireError;
use borderpatrol::netsim::clock::SimDuration;
use borderpatrol::netsim::netfilter::Verdict;
use borderpatrol::obs::{Collector, CollectorConfig};
use borderpatrol::Engine;

use crate::gen::{Class, Inputs};
use crate::host;
use crate::stats;
use crate::trace::{Recorder, SpanId, ROOT};
use crate::workload::{Property, Workload};

/// Most slices whose per-call samples are kept: the fastest ones seen so
/// far.  Bounds the harness's own memory whatever the pass length; the quiet
/// slices (5% of at most 10 240) are always among them.
const KEPT_SLICES: usize = 512;

/// Largest share of routed packets the busier shard may see.
const BUSIEST_SHARD_LIMIT: f64 = 0.60;

/// One step of a slice.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Submit frames `start..end` as one batch.
    Batch { start: u32, end: u32 },
    /// Poll the collector inline.
    Poll,
    /// Commit the next policy transaction of the rollout period.
    Commit,
}

/// Service times of the engine calls of one slice.
#[derive(Debug, Clone, Default)]
pub struct SliceSamples {
    /// Position of the slice in its pass.
    pub index: usize,
    /// Summed service time of every call in the slice.
    pub total_ns: u64,
    /// One `ingest_bytes_into` call each.
    pub batch_ns: Vec<u32>,
    /// One `Transaction::commit` call each.
    pub commit_ns: Vec<u32>,
}

impl SliceSamples {
    fn clear(&mut self, index: usize) {
        self.index = index;
        self.total_ns = 0;
        self.batch_ns.clear();
        self.commit_ns.clear();
    }
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Service time of every slice, in pass order.
    pub slice_ns: Vec<u64>,
    /// Samples of the quiet slices.
    pub quiet: Vec<SliceSamples>,
    /// Wall time of the whole pass, checking included.
    pub wall: Duration,
    /// Process CPU time over the whole pass, every thread.
    pub cpu_seconds: f64,
    /// Counter movement over the whole pass.
    pub stats: EnforcerStats,
    /// Share of the pass's routed packets (wire rejects never reach a shard)
    /// that the busier shard inspected.
    pub busiest_shard_share: f64,
}

impl Pass {
    /// Packets per second of engine service time over the quiet slices.
    pub fn throughput_pps(&self, workload: &Workload) -> f64 {
        let quiet_ns: u64 = self.quiet.iter().map(|s| s.total_ns).sum();
        (self.quiet.len() as u64 * workload.packets_per_slice()) as f64 * 1e9 / quiet_ns as f64
    }

    /// Nanoseconds of engine service time per packet over the quiet slices.
    pub fn quiet_ns_per_packet(&self, workload: &Workload) -> f64 {
        1e9 / self.throughput_pps(workload)
    }

    /// Batch service times of the quiet slices, ascending, in microseconds.
    pub fn batch_us(&self) -> Vec<f64> {
        stats::ascending_us(self.quiet.iter().flat_map(|s| &s.batch_ns))
    }

    /// Commit latencies of the quiet slices, ascending, in microseconds.
    pub fn commit_us(&self) -> Vec<f64> {
        stats::ascending_us(self.quiet.iter().flat_map(|s| &s.commit_ns))
    }

    /// Cores kept busy over the whole pass (process CPU time ÷ wall time).
    pub fn busy_cores(&self) -> f64 {
        self.cpu_seconds / self.wall.as_secs_f64()
    }

    /// Packets submitted.
    pub fn packets(&self, workload: &Workload) -> u64 {
        self.slice_ns.len() as u64 * workload.packets_per_slice()
    }
}

/// `EnforcerStats` as a flat vector, for delta arithmetic.
fn flatten(stats: &EnforcerStats) -> [u64; 25] {
    let mut flat = [0u64; 25];
    flat[..15].copy_from_slice(&[
        stats.packets_inspected,
        stats.packets_accepted,
        stats.dropped_by_policy,
        stats.dropped_untagged,
        stats.dropped_unknown_app,
        stats.dropped_malformed,
        stats.dropped_duplicate_context,
        stats.dropped_context_switch,
        stats.dropped_wire,
        stats.dropped_runtime_fault,
        stats.dropped_overload,
        stats.flow_hits,
        stats.flow_misses,
        stats.flow_evictions,
        stats.flow_context_switches,
    ]);
    flat[15..].copy_from_slice(&stats.dropped_wire_by.to_array());
    flat
}

/// `after - before`, field by field.
pub fn stats_delta(after: &EnforcerStats, before: &EnforcerStats) -> EnforcerStats {
    let (a, b) = (flatten(after), flatten(before));
    let d: Vec<u64> = a.iter().zip(b).map(|(a, b)| a - b).collect();
    EnforcerStats {
        packets_inspected: d[0],
        packets_accepted: d[1],
        dropped_by_policy: d[2],
        dropped_untagged: d[3],
        dropped_unknown_app: d[4],
        dropped_malformed: d[5],
        dropped_duplicate_context: d[6],
        dropped_context_switch: d[7],
        dropped_wire: d[8],
        dropped_runtime_fault: d[9],
        dropped_overload: d[10],
        flow_hits: d[11],
        flow_misses: d[12],
        flow_evictions: d[13],
        flow_context_switches: d[14],
        dropped_wire_by: borderpatrol::core::enforcer::WireDropStats::from_array(
            d[15..].try_into().expect("ten wire lanes"),
        ),
    }
}

/// Share of tagged packets the flow table served.
pub fn hit_share(stats: &EnforcerStats) -> f64 {
    stats.flow_hits as f64 / (stats.flow_hits + stats.flow_misses).max(1) as f64
}

/// What verified runners submitted and what went wrong, summed over the
/// runners of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Packets submitted.
    pub attempted: u64,
    /// Verdict mismatches, failed commits and broken invariants.
    pub failed: u64,
    /// The first few failures of each runner, for the operator.
    pub failures: Vec<String>,
}

impl Tally {
    /// Add what `runner` has counted since it was set up.
    pub fn absorb(&mut self, runner: &Runner<'_>) {
        self.attempted += runner.attempted;
        self.failed += runner.failed;
        self.failures.extend(runner.failures.iter().cloned());
    }
}

/// An engine set up for one workload, with the oracle riding along.
pub struct Runner<'a> {
    workload: &'a Workload,
    inputs: &'a Inputs,
    refs: Vec<&'a [u8]>,
    /// The engine under test.
    pub engine: Engine,
    collector: Collector,
    base_policies: PolicySet,
    verdicts: Vec<Verdict>,
    steps: Vec<Step>,
    commits: usize,
    /// Expected class of every frame submitted since the engine was built.
    submitted: [u64; Class::COUNT],
    /// Packets submitted since the engine was built.
    pub attempted: u64,
    /// Verdict mismatches, failed commits and broken invariants so far.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
}

impl<'a> Runner<'a> {
    /// Cold set-up: parse the policy text, analyze the apks into a signature
    /// database, build the engine, and warm every cached flow twice (the
    /// first multi-shard batch also spawns the workers).
    pub fn set_up(workload: &'a Workload, inputs: &'a Inputs) -> Result<Self, String> {
        let policies = PolicySet::parse(&inputs.policy_text).map_err(|e| e.to_string())?;
        let database = OfflineAnalyzer::new()
            .analyze_batch(&inputs.apks)
            .map_err(|e| e.to_string())?;
        let engine = Engine::builder()
            .shards(workload.shards)
            .strict()
            .policies(policies.clone())
            .database(database)
            .flow_config(FlowTableConfig {
                capacity: workload.flow_capacity,
                // The benchmark has no clock source; flows never idle out.
                ttl: SimDuration::ZERO,
            })
            .build();

        let mut steps = Vec::new();
        let mut batches = 0usize;
        for _ in 0..workload.passes_per_slice {
            for start in (0..workload.frames).step_by(workload.batch) {
                let end = (start + workload.batch).min(workload.frames);
                steps.push(Step::Batch {
                    start: start as u32,
                    end: end as u32,
                });
                batches += 1;
                if workload.poll_every > 0 && batches % workload.poll_every == 0 {
                    steps.push(Step::Poll);
                }
                if workload.commit_every > 0 && batches % workload.commit_every == 0 {
                    steps.push(Step::Commit);
                }
            }
        }

        let mut runner = Runner {
            workload,
            inputs,
            refs: inputs.frames.iter().map(Vec::as_slice).collect(),
            engine,
            collector: Collector::new(CollectorConfig::default()),
            base_policies: policies,
            verdicts: Vec::with_capacity(workload.batch),
            steps,
            commits: 0,
            submitted: [0; Class::COUNT],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        let warm: Vec<&[u8]> = inputs
            .warm
            .iter()
            .map(|&i| inputs.frames[i as usize].as_slice())
            .collect();
        for _ in 0..2 {
            for (chunk, indexes) in warm
                .chunks(workload.batch)
                .zip(inputs.warm.chunks(workload.batch))
            {
                runner.engine.ingest_bytes_into(chunk, &mut runner.verdicts);
                runner.check(indexes.iter().map(|&i| i as usize));
            }
        }
        Ok(runner)
    }

    fn fail(&mut self, message: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message());
        }
    }

    /// Compare the verdicts of the last batch with the oracle's, frame by
    /// frame: wrong accept/drop or wrong drop reason is a failure.
    fn check(&mut self, frames: impl ExactSizeIterator<Item = usize>) {
        let verdicts = std::mem::take(&mut self.verdicts);
        self.attempted += frames.len() as u64;
        if verdicts.len() != frames.len() {
            let (got, sent) = (verdicts.len(), frames.len());
            self.failed += sent as u64 - 1;
            self.fail(|| format!("{got} verdicts for {sent} frames"));
        } else {
            for (verdict, frame) in verdicts.iter().zip(frames) {
                let expected = self.inputs.expectation(frame);
                self.submitted[expected.class.index()] += 1;
                let right = match verdict {
                    Verdict::Accept => expected.class == Class::Accept,
                    Verdict::Drop { reason } => {
                        expected.class != Class::Accept && *reason == expected.reason
                    }
                };
                if !right {
                    self.fail(|| format!("frame {frame}: got {verdict:?}, expected {expected:?}"));
                }
            }
        }
        self.verdicts = verdicts;
    }

    /// The next transaction of the rollout period: three append-only
    /// commits, then `replace_policies` back to the base set.
    pub fn commit(&mut self) -> (Instant, Instant) {
        let ordinal = self.commits % 4;
        self.commits += 1;
        let (start, result) = if ordinal < 3 {
            let rule = self.inputs.rollout_rules[ordinal].clone();
            let start = Instant::now();
            (
                start,
                self.engine.control().begin().add_policy(rule).commit(),
            )
        } else {
            let base = self.base_policies.clone();
            let start = Instant::now();
            (
                start,
                self.engine
                    .control()
                    .begin()
                    .replace_policies(base)
                    .commit(),
            )
        };
        let end = Instant::now();
        if let Err(error) = result {
            self.fail(|| format!("commit {ordinal} of the period failed: {error}"));
        }
        (start, end)
    }

    /// Replay the slice's steps once, timing every engine call into
    /// `samples` and reporting it to `rec` under `parent`.
    pub fn run_slice<R: Recorder>(
        &mut self,
        rec: &mut R,
        parent: SpanId,
        samples: &mut SliceSamples,
    ) {
        for step in 0..self.steps.len() {
            match self.steps[step] {
                Step::Batch { start, end } => {
                    let (start, end) = (start as usize, end as usize);
                    let t0 = Instant::now();
                    self.engine
                        .ingest_bytes_into(&self.refs[start..end], &mut self.verdicts);
                    let t1 = Instant::now();
                    rec.span("engine.ingest_bytes_into", parent, t0, t1);
                    let ns = (t1 - t0).as_nanos() as u64;
                    samples.batch_ns.push(ns as u32);
                    samples.total_ns += ns;
                    self.check(start..end);
                }
                Step::Poll => {
                    let t0 = Instant::now();
                    let shards = self.collector.poll(self.engine.data_plane()).shards.len();
                    let t1 = Instant::now();
                    rec.span("obs.collector_poll", parent, t0, t1);
                    samples.total_ns += (t1 - t0).as_nanos() as u64;
                    if shards != self.workload.shards {
                        self.fail(|| format!("collector saw {shards} shards"));
                    }
                }
                Step::Commit => {
                    let (t0, t1) = self.commit();
                    rec.span("control.commit", parent, t0, t1);
                    let ns = (t1 - t0).as_nanos() as u64;
                    samples.commit_ns.push(ns as u32);
                    samples.total_ns += ns;
                }
            }
        }
    }

    /// Run slices for `budget` (at least eight, at most `max_slices`), keep
    /// the samples of the quiet ones, and reject the pass if any slice did
    /// different work from the first.
    pub fn pass<R: Recorder>(
        &mut self,
        rec: &mut R,
        budget: Duration,
        max_slices: usize,
    ) -> Result<Pass, String> {
        let mut slice_ns: Vec<u64> = Vec::new();
        let mut kept: Vec<SliceSamples> = Vec::new();
        let mut current = SliceSamples::default();
        let mut first_delta: Option<EnforcerStats> = None;
        let stats_at_start = self.engine.stats();
        let routed_at_start = self.routed_by_shard();
        let mut stats_before = stats_at_start;
        let cpu_at_start = host::process_cpu_seconds();
        let started = Instant::now();

        while slice_ns.len() < max_slices && (slice_ns.len() < 8 || started.elapsed() < budget) {
            current.clear(slice_ns.len());
            let failed_before = self.failed;
            let t0 = Instant::now();
            let span = rec.open("slice", ROOT, t0);
            self.run_slice(rec, span, &mut current);
            rec.close(span, Instant::now());

            let stats_after = self.engine.stats();
            let delta = stats_delta(&stats_after, &stats_before);
            stats_before = stats_after;
            let first = *first_delta.get_or_insert(delta);
            if delta != first {
                return Err(format!(
                    "slice {} did different work from slice 0: {delta:?} vs {first:?}",
                    current.index
                ));
            }
            if self.failed != failed_before {
                return Err(format!(
                    "slice {} returned wrong verdicts: {}",
                    current.index,
                    self.failures.join("; ")
                ));
            }

            slice_ns.push(current.total_ns);
            if kept.len() < KEPT_SLICES {
                kept.push(current.clone());
            } else {
                let slowest = (0..kept.len())
                    .max_by_key(|&i| (kept[i].total_ns, kept[i].index))
                    .expect("kept is full");
                if current.total_ns < kept[slowest].total_ns {
                    std::mem::swap(&mut kept[slowest], &mut current);
                }
            }
        }

        let wall = started.elapsed();
        let cpu_seconds = host::process_cpu_seconds() - cpu_at_start;
        let quiet_indexes = stats::quiet_indexes(&slice_ns);
        let quiet: Vec<SliceSamples> = kept
            .into_iter()
            .filter(|s| quiet_indexes.contains(&s.index))
            .collect();
        if quiet.len() != quiet_indexes.len() {
            return Err(format!(
                "{} quiet slices but samples of only {} were kept",
                quiet_indexes.len(),
                quiet.len()
            ));
        }
        let routed: Vec<u64> = self
            .routed_by_shard()
            .iter()
            .zip(routed_at_start)
            .map(|(after, before)| after - before)
            .collect();
        let busiest = routed.iter().copied().max().unwrap_or(0);
        Ok(Pass {
            slice_ns,
            quiet,
            wall,
            cpu_seconds,
            stats: stats_delta(&self.engine.stats(), &stats_at_start),
            busiest_shard_share: busiest as f64 / routed.iter().sum::<u64>().max(1) as f64,
        })
    }

    /// Commit latency on the idle engine, for workloads whose pass makes no
    /// commits: rollout periods back to back for `budget`, cut into slices
    /// of about a millisecond (whole periods, as many in every slice), the
    /// quiet-slice rule over those, commit latencies pooled.  Ascending, µs.
    pub fn commit_probe(&mut self, budget: Duration) -> Vec<f64> {
        let period = |runner: &mut Self, samples: &mut Vec<u32>| -> u64 {
            let mut total = 0;
            for _ in 0..4 {
                let (t0, t1) = runner.commit();
                let ns = (t1 - t0).as_nanos() as u64;
                samples.push(ns as u32);
                total += ns;
            }
            total
        };
        let calibration = period(self, &mut Vec::new()).max(1);
        let periods_per_slice = (1_000_000 / calibration).clamp(1, 64);

        let mut slices: Vec<(u64, Vec<u32>)> = Vec::new();
        let started = Instant::now();
        while slices.len() < 24 || started.elapsed() < budget {
            let mut samples = Vec::with_capacity(4 * periods_per_slice as usize);
            let total = (0..periods_per_slice)
                .map(|_| period(self, &mut samples))
                .sum();
            slices.push((total, samples));
        }
        let totals: Vec<u64> = slices.iter().map(|(total, _)| *total).collect();
        let quiet = stats::quiet_indexes(&totals);
        stats::ascending_us(quiet.into_iter().flat_map(|i| &slices[i].1))
    }

    /// Packets each shard inspected since the engine was built, without the
    /// wire rejects charged to shard 0 (those were never routed).
    fn routed_by_shard(&self) -> Vec<u64> {
        let shards = self.engine.data_plane().shard_stats();
        shards
            .iter()
            .map(|s| s.packets_inspected - s.dropped_wire)
            .collect()
    }

    /// End-of-run invariants: conservation, every per-reason counter of
    /// `Engine::stats()` against the oracle's tally of what was submitted,
    /// and over `pass` the shard balance and the workload's defining property.
    pub fn verify(&mut self, pass: &Pass) {
        let stats = self.engine.stats();
        if stats.packets_inspected != stats.packets_accepted + stats.total_dropped() {
            self.fail(|| format!("conservation broken: {stats:?}"));
        }
        let s = self.submitted;
        let wire: u64 = s[8..].iter().sum();
        let expected = [
            ("packets_inspected", self.attempted, stats.packets_inspected),
            (
                "packets_accepted",
                s[Class::Accept.index()],
                stats.packets_accepted,
            ),
            (
                "dropped_by_policy",
                s[Class::Policy.index()],
                stats.dropped_by_policy,
            ),
            (
                "dropped_untagged",
                s[Class::Untagged.index()],
                stats.dropped_untagged,
            ),
            (
                "dropped_unknown_app",
                s[Class::UnknownApp.index()],
                stats.dropped_unknown_app,
            ),
            (
                "dropped_malformed",
                s[Class::MalformedContext.index()] + s[Class::TrailingData.index()],
                stats.dropped_malformed,
            ),
            (
                "dropped_duplicate_context",
                s[Class::DuplicateContext.index()],
                stats.dropped_duplicate_context,
            ),
            (
                "dropped_context_switch",
                s[Class::ContextSwitch.index()],
                stats.dropped_context_switch,
            ),
            ("dropped_wire", wire, stats.dropped_wire),
            ("dropped_runtime_fault", 0, stats.dropped_runtime_fault),
            ("dropped_overload", 0, stats.dropped_overload),
        ];
        for (counter, oracle, engine) in expected {
            if oracle != engine {
                self.fail(|| format!("{counter}: oracle {oracle}, engine {engine}"));
            }
        }
        for error in WireError::ALL {
            let (oracle, engine) = (
                s[Class::Wire(error).index()],
                stats.dropped_wire_by.get(error),
            );
            if oracle != engine {
                self.fail(|| format!("dropped_wire_by.{error}: oracle {oracle}, engine {engine}"));
            }
        }

        if self.workload.shards > 1 {
            let share = pass.busiest_shard_share;
            if share > BUSIEST_SHARD_LIMIT {
                self.fail(|| format!("busier shard saw {share:.3} of routed packets"));
            }
        }

        let pass = &pass.stats;
        let hits = hit_share(pass);
        let holds = match self.workload.property {
            Property::HitShareAtLeast(bound) => hits >= bound,
            Property::HitShareAtMost(bound) => hits <= bound,
            Property::HitShareExactly(share) => (hits - share).abs() < 1e-9,
            Property::DropShare(share) => {
                let dropped = pass.total_dropped() as f64 / pass.packets_inspected.max(1) as f64;
                let reasons = [
                    pass.dropped_by_policy,
                    pass.dropped_untagged,
                    pass.dropped_unknown_app,
                    pass.dropped_malformed,
                    pass.dropped_duplicate_context,
                    pass.dropped_context_switch,
                ];
                (dropped - share).abs() <= 0.01
                    && reasons.iter().all(|&count| count > 0)
                    && pass.dropped_wire_by.to_array().iter().all(|&count| count > 0)
                    // Hostile frames never hit: only the legitimate 10% may.
                    && pass.flow_hits == pass.packets_accepted
            }
        };
        if !holds {
            let property = self.workload.property;
            self.fail(|| format!("defining property {property:?} does not hold: {pass:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::trace::NoTrace;
    use crate::workload::{find, WORKLOADS};

    /// Every workload, on three seeds: no verdict differs from the oracle,
    /// the counters agree, the shards are balanced and the defining
    /// property holds.
    #[test]
    fn every_workload_is_correct_and_shows_its_defining_property() {
        for workload in &WORKLOADS {
            for seed in [1, 2, 3] {
                let inputs = generate(workload, seed);
                let mut runner = Runner::set_up(workload, &inputs).unwrap();
                runner.run_slice(&mut NoTrace, ROOT, &mut SliceSamples::default());
                let pass = runner.pass(&mut NoTrace, Duration::ZERO, 8).unwrap();
                assert_eq!(pass.slice_ns.len(), 8);
                assert_eq!(pass.quiet.len(), 8);
                assert_eq!(
                    pass.quiet[0].batch_ns.len(),
                    workload.batches_per_slice(),
                    "{}",
                    workload.name
                );
                assert_eq!(pass.quiet[0].commit_ns.len(), workload.commits_per_slice());
                runner.verify(&pass);
                assert_eq!(
                    runner.failed, 0,
                    "{} seed {seed}: {:?}",
                    workload.name, runner.failures
                );
                assert_eq!(pass.stats.packets_inspected, pass.packets(workload));
            }
        }
    }

    /// A period that does not end where it began is rejected: without the
    /// settling slice, slice 0 of the rollout starts on warm flows while
    /// every later slice starts right after a rebuild.
    #[test]
    fn an_unbalanced_period_is_rejected() {
        let workload = find("rollout_under_load").unwrap();
        let inputs = generate(workload, 1);
        let mut runner = Runner::set_up(workload, &inputs).unwrap();
        let error = runner.pass(&mut NoTrace, Duration::ZERO, 8).unwrap_err();
        assert!(error.contains("did different work from slice 0"), "{error}");
    }

    #[test]
    fn a_wrong_expectation_is_counted_as_a_failure() {
        let workload = find("steady_accept").unwrap();
        let mut inputs = generate(workload, 1);
        inputs.expectations[0].class = Class::Untagged;
        inputs.expectations[0].reason = "nonsense".to_owned();
        let mut runner = Runner::set_up(workload, &inputs).unwrap();
        assert_eq!(runner.failed, 2 * workload.frames as u64);
        let error = runner.pass(&mut NoTrace, Duration::ZERO, 8).unwrap_err();
        assert!(error.contains("wrong verdicts"), "{error}");
    }

    #[test]
    fn commit_probe_runs_whole_periods_and_leaves_the_base_set_installed() {
        let workload = find("steady_accept").unwrap();
        let inputs = generate(workload, 1);
        let mut runner = Runner::set_up(workload, &inputs).unwrap();
        let before = runner.engine.policy_index_reuses();
        let us = runner.commit_probe(Duration::ZERO);
        // Eight quiet slices of whole periods, out of one calibration period
        // and 24 slices.
        let periods_per_slice = us.len() / (8 * 4);
        assert_eq!(us.len(), 8 * 4 * periods_per_slice);
        assert!(us.windows(2).all(|w| w[0] <= w[1]) && us[0] > 0.0);
        let periods = 1 + 24 * periods_per_slice as u64;
        assert_eq!(runner.engine.policy_index_reuses() - before, 3 * periods);
        assert_eq!(runner.failed, 0);
    }

    #[test]
    fn stats_delta_subtracts_every_field() {
        let workload = find("attack_drop").unwrap();
        let inputs = generate(workload, 1);
        let runner = Runner::set_up(workload, &inputs).unwrap();
        let stats = runner.engine.stats();
        assert_eq!(stats_delta(&stats, &EnforcerStats::default()), stats);
        assert_eq!(stats_delta(&stats, &stats), EnforcerStats::default());
    }
}
