//! The traced run: one row per layer boundary.
//!
//! Spans are recorded here, around the benchmark's own calls into each
//! layer's public functions; spans inside the program are a later change.
//! Layer timings use the quiet-slice rule over repeated fixed-size rounds,
//! on the workload's own frames and tables where the layer's cost depends on
//! them, and on a standard fixture (the `small_batch` frame set of the same
//! seed) where it does not.

use std::hint::black_box;
use std::time::{Duration, Instant};

use borderpatrol::core::encoding::ContextEncoding;
use borderpatrol::core::enforcer::{AtomicEnforcerStats, DropLog};
use borderpatrol::core::flow::{CachedOutcome, FlowTable, FlowTableConfig};
use borderpatrol::core::runtime::spsc_ring;
use borderpatrol::core::wire::{self, WireDecoder, WireFrame};
use borderpatrol::netsim::clock::SimDuration;
use borderpatrol::netsim::options::IpOptionKind;
use borderpatrol::netsim::packet::{FlowKey, Ipv4Packet};
use borderpatrol::obs::{render_metrics, Collector, CollectorConfig};

use crate::gen::{generate, malformed_set, Inputs};
use crate::host;
use crate::metrics::Values;
use crate::run::{hit_share, Runner, SliceSamples, Tally};
use crate::stats;
use crate::trace::{NoTrace, Recorder, SpanLog, ROOT};
use crate::workload::{find, Mix, Property, Workload};

/// 32 768 flows on one shard, nothing warmed: resident memory per tracked flow.
const RSS_PROBE: Workload = Workload {
    name: "rss_probe",
    why: "",
    shards: 1,
    batch: 256,
    frames: 32_768,
    cached_flows: 32_768,
    flow_capacity: 32_768,
    extra_rules: 0,
    payloads: &[(64, 1)],
    mix: Mix::AcceptOnly,
    passes_per_slice: 1,
    poll_every: 0,
    commit_every: 0,
    property: Property::HitShareAtMost(1.0),
};

/// Share of `--seconds` given to the untraced reference pass, the traced
/// pass, and each layer measurement.
const REFERENCE_SHARE: f64 = 0.15;
const TRACED_SHARE: f64 = 0.20;
const ROUND_SHARE: f64 = 0.018;

/// Spans set aside for the layer rounds (one per round).
const ROUND_SPANS: usize = 65_536;

/// What the traced run hands back.
pub struct Traced {
    /// Every per-layer metric.
    pub values: Values,
    /// The recorded spans.
    pub log: SpanLog,
    /// What the verified runners submitted and what went wrong.
    pub tally: Tally,
}

/// Repeats fixed-size rounds and applies the quiet-slice rule to them.
struct Rounds<'l> {
    log: &'l mut SpanLog,
    budget: Duration,
    min_rounds: usize,
}

impl Rounds<'_> {
    /// Whether a measurement that has run `rounds` rounds since `started`
    /// should run another: until the budget is spent and `min_rounds` are
    /// in, but never past four budgets once four rounds are in (one
    /// `validate` of 10 003 rules takes a third of a second).
    fn wants_more(&self, rounds: usize, started: Instant) -> bool {
        let elapsed = started.elapsed();
        (rounds < self.min_rounds || elapsed < self.budget)
            && (rounds < 4 || elapsed < 4 * self.budget)
    }

    /// Nanoseconds per unit of a round that does `units` units of work.
    /// `round` returns the interval it wants timed, so it can prepare state
    /// outside it.  One unrecorded round warms caches first.
    fn ns_per_unit(
        &mut self,
        name: &'static str,
        units: usize,
        mut round: impl FnMut() -> (Instant, Instant),
    ) -> f64 {
        round();
        let mut durations = Vec::new();
        let started = Instant::now();
        while self.wants_more(durations.len(), started) {
            let (t0, t1) = round();
            self.log.span(name, ROOT, t0, t1);
            durations.push((t1 - t0).as_nanos() as u64);
        }
        stats::quiet_mean(&durations) / units.max(1) as f64
    }
}

/// Time `work` as one interval.
fn timed(work: impl FnOnce()) -> (Instant, Instant) {
    let t0 = Instant::now();
    work();
    (t0, Instant::now())
}

/// Nanoseconds per `ingest_bytes_into` call when `frames` are sent in
/// batches of `batch` to a warmed engine.
fn ns_per_call(
    rounds: &mut Rounds<'_>,
    name: &'static str,
    runner: &Runner<'_>,
    frames: &[&[u8]],
    batch: usize,
) -> f64 {
    let mut verdicts = Vec::with_capacity(batch);
    rounds.ns_per_unit(name, frames.len().div_ceil(batch), || {
        timed(|| {
            for chunk in frames.chunks(batch) {
                runner.engine.ingest_bytes_into(chunk, &mut verdicts);
            }
            black_box(verdicts.len());
        })
    })
}

/// Run the traced measurement of `workload`.
pub fn run(
    workload: &'static Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Traced, String> {
    let mut log = SpanLog::new();
    let mut values = Values::default();
    let mut tally = Tally::default();

    // Memory per tracked flow, first: the heap is still small, so resident
    // growth is the flow table's and not recycled pages.
    {
        let mut probe_inputs = generate(&RSS_PROBE, seed);
        probe_inputs.warm.clear();
        let mut probe = Runner::set_up(&RSS_PROBE, &probe_inputs)?;
        let before = host::rss_bytes();
        probe.run_slice(&mut NoTrace, ROOT, &mut SliceSamples::default());
        let grown = host::rss_bytes() - before;
        values.set(
            "enforcer.peak_rss_per_flow_b",
            grown.max(0.0) / RSS_PROBE.frames as f64,
        );
        tally.absorb(&probe);
    }

    // The workload itself: an untraced reference pass, then the same pass
    // with a span around every engine call.
    let mut runner = Runner::set_up(workload, inputs)?;
    runner.run_slice(&mut NoTrace, ROOT, &mut SliceSamples::default());
    let reference = runner.pass(
        &mut NoTrace,
        Duration::from_secs_f64(seconds * REFERENCE_SHARE),
        usize::MAX,
    )?;
    // As many slices as the span log holds, keeping room for the rounds below.
    let spans_per_slice = workload.batches_per_slice() + workload.commits_per_slice() + 8;
    let room = log.remaining().saturating_sub(ROUND_SPANS) / spans_per_slice;
    let traced = runner.pass(
        &mut log,
        Duration::from_secs_f64(seconds * TRACED_SHARE),
        room.max(8),
    )?;
    runner.verify(&reference);
    values.set(
        "trace.overhead_share",
        traced.quiet_ns_per_packet(workload) / reference.quiet_ns_per_packet(workload) - 1.0,
    );
    let in_situ = reference.stats;
    let packets = in_situ.packets_inspected as f64;
    values.set("wire.reject_share", in_situ.dropped_wire as f64 / packets);
    values.set("flow.hit_share", hit_share(&in_situ));
    values.set(
        "flow.evictions_per_pkt",
        in_situ.flow_evictions as f64 / packets,
    );
    let busiest = reference.busiest_shard_share;
    values.set("runtime.busiest_shard_share", busiest);
    // Commit latency as the workload meets it: inside the quiet slices of the
    // pass where the pass commits, on the idle engine where it does not.
    let commit_us = if workload.commit_every > 0 {
        reference.commit_us()
    } else {
        runner.commit_probe(Duration::from_secs_f64(seconds * ROUND_SHARE))
    };
    values.set("control.commit_p50_us", stats::quantile(&commit_us, 0.50));

    let mut rounds = Rounds {
        log: &mut log,
        budget: Duration::from_secs_f64(seconds * ROUND_SHARE),
        min_rounds: if smoke { 3 } else { 16 },
    };
    let refs: Vec<&[u8]> = inputs.frames.iter().map(Vec::as_slice).collect();
    let batch = workload.batch;

    // --- wire -----------------------------------------------------------
    let mut decoder = WireDecoder::new();
    let decode = rounds.ns_per_unit("wire.decode_batch", refs.len(), || {
        timed(|| {
            for chunk in refs.chunks(batch) {
                black_box(decoder.decode_batch(chunk));
            }
        })
    });
    values.set("wire.decode_ns_per_frame", decode);
    let view = rounds.ns_per_unit("wire.frame_parse", refs.len(), || {
        timed(|| {
            for frame in &refs {
                let _ = black_box(WireFrame::parse(frame));
            }
        })
    });
    values.set("wire.view_ns_per_frame", view);
    let malformed = malformed_set(seed, 64);
    let reject = rounds.ns_per_unit("wire.decode_frame_reject", 8 * malformed.len(), || {
        timed(|| {
            for _ in 0..8 {
                for frame in &malformed {
                    let _ = black_box(wire::decode_frame(frame));
                }
            }
        })
    });
    values.set("wire.reject_ns_per_frame", reject);

    // The frames that decode, as bytes and as packets: the same packets
    // through the byte path and through the struct path.
    let (valid, packets): (Vec<&[u8]>, Vec<Ipv4Packet>) = refs
        .iter()
        .filter_map(|frame| {
            wire::decode_frame(frame)
                .ok()
                .map(|packet| (*frame, packet))
        })
        .unzip();
    let data_plane = runner.engine.data_plane().clone();
    let byte_path = ns_per_call(
        &mut rounds,
        "enforcer.inspect_wire_batch_into",
        &runner,
        &valid,
        batch,
    ) * valid.len().div_ceil(batch) as f64
        / valid.len() as f64;
    let mut verdicts = Vec::with_capacity(batch);
    let struct_path = rounds.ns_per_unit("enforcer.inspect_batch_into", packets.len(), || {
        timed(|| {
            for chunk in packets.chunks(batch) {
                data_plane.inspect_batch_into(chunk, &mut verdicts);
            }
            black_box(verdicts.len());
        })
    });
    values.set("enforcer.struct_path_ns_per_pkt", struct_path);
    values.set("wire.in_situ_ns_per_pkt", byte_path - struct_path);

    // --- runtime ----------------------------------------------------------
    let route = rounds.ns_per_unit("runtime.shard_for", packets.len(), || {
        timed(|| {
            for packet in &packets {
                black_box(data_plane.shard_for(packet));
            }
        })
    });
    values.set("runtime.route_ns_per_pkt", route);
    let (mut tx, mut rx) = spsc_ring::<u64>(2);
    let ring = rounds.ns_per_unit("runtime.spsc_ring", 4096, || {
        timed(|| {
            for i in 0..4096u64 {
                let _ = black_box(tx.push(i));
                black_box(rx.pop());
            }
        })
    });
    values.set("runtime.ring_roundtrip_ns", ring);

    // Fixed per-batch cost and fan-out, on the standard cached fixture with
    // one and with two shards.
    let small = find("small_batch").expect("standard fixture workload");
    let one_shard = Workload {
        shards: 1,
        ..*small
    };
    let fixture = generate(small, seed);
    let fixture_refs: Vec<&[u8]> = fixture.frames.iter().map(Vec::as_slice).collect();
    let two = Runner::set_up(small, &fixture)?;
    let one = Runner::set_up(&one_shard, &fixture)?;
    let t2_b8 = ns_per_call(
        &mut rounds,
        "runtime.two_shards_batch8",
        &two,
        &fixture_refs,
        8,
    );
    let t1_b8 = ns_per_call(
        &mut rounds,
        "runtime.one_shard_batch8",
        &one,
        &fixture_refs,
        8,
    );
    let t2_b256 = ns_per_call(
        &mut rounds,
        "runtime.two_shards_batch256",
        &two,
        &fixture_refs,
        256,
    );
    let t1_b256 = ns_per_call(
        &mut rounds,
        "runtime.one_shard_batch256",
        &one,
        &fixture_refs,
        256,
    );
    let batch_fixed = t2_b8 - 8.0 * t2_b256 / 256.0;
    values.set("runtime.batch_fixed_ns", batch_fixed);
    values.set("runtime.fanout_ratio_b8", t2_b8 / t1_b8);
    values.set("runtime.fanout_ratio_b256", t2_b256 / t1_b256);

    // What a cached drop costs on top of a cached accept: the same flows
    // with denied contexts, one shard, batch 256.
    let deny_only = Workload {
        mix: Mix::DenyOnly,
        ..one_shard
    };
    let denied_fixture = generate(&deny_only, seed);
    let denied_refs: Vec<&[u8]> = denied_fixture.frames.iter().map(Vec::as_slice).collect();
    let denied = Runner::set_up(&deny_only, &denied_fixture)?;
    let drop_b256 = ns_per_call(
        &mut rounds,
        "enforcer.cached_drop_batch256",
        &denied,
        &denied_refs,
        256,
    );
    let drop_extra = (drop_b256 - t1_b256) / 256.0;
    values.set("enforcer.drop_extra_ns", drop_extra);
    tally.absorb(&two);
    tally.absorb(&one);
    tally.absorb(&denied);
    drop((two, one, denied));

    // --- flow table ---------------------------------------------------------
    let fixture_flows: Vec<(FlowKey, Vec<u8>)> = fixture_refs
        .iter()
        .map(|frame| {
            let packet = wire::decode_frame(frame).expect("fixture frames decode");
            let context = packet
                .options()
                .find(IpOptionKind::BorderPatrolContext)
                .expect("fixture frames are tagged");
            (packet.flow_key(), context.data.clone())
        })
        .collect();
    let now = SimDuration::ZERO;
    let table_of = |capacity| FlowTable::new(FlowTableConfig { capacity, ttl: now });
    let mut table = table_of(fixture_flows.len());
    for (key, payload) in &fixture_flows {
        table.insert(*key, payload, 1, CachedOutcome::Accept, now);
    }
    let probe_hit = rounds.ns_per_unit("flow.probe_hit", fixture_flows.len(), || {
        timed(|| {
            for (key, payload) in &fixture_flows {
                black_box(table.probe(key, payload, 1, now).is_hit());
            }
        })
    });
    values.set("flow.probe_hit_ns", probe_hit);
    let mut table = table_of(fixture_flows.len() / 2);
    let miss_insert = rounds.ns_per_unit("flow.probe_miss_insert", fixture_flows.len(), || {
        timed(|| {
            for (key, payload) in &fixture_flows {
                black_box(table.probe(key, payload, 1, now).is_hit());
                black_box(table.insert(*key, payload, 1, CachedOutcome::Accept, now));
            }
        })
    });
    values.set("flow.miss_insert_ns", miss_insert);

    // --- slow path, stage by stage, on this workload's contexts and tables ---
    let tables = data_plane.tables();
    let sample = &packets[..packets.len().min(4096)];
    let contexts: Vec<&[u8]> = sample
        .iter()
        .filter_map(|p| p.options().find(IpOptionKind::BorderPatrolContext))
        .map(|option| option.data.as_slice())
        .collect();
    let mut scratch = Vec::new();
    let context_decode = rounds.ns_per_unit("context.decode_into", contexts.len(), || {
        timed(|| {
            for payload in &contexts {
                let _ = black_box(ContextEncoding::decode_into(payload, &mut scratch));
            }
        })
    });
    values.set("context.decode_ns", context_decode);
    let decoded: Vec<_> = contexts
        .iter()
        .filter_map(|payload| ContextEncoding::decode(payload).ok())
        .filter(|context| tables.database().contains(context.app_tag))
        .collect();
    let resolve = rounds.ns_per_unit("sigdb.resolve_stack", decoded.len(), || {
        timed(|| {
            for context in &decoded {
                let _ = black_box(
                    tables
                        .database()
                        .resolve_stack(context.app_tag, &context.frame_indexes),
                );
            }
        })
    });
    values.set("sigdb.resolve_ns", resolve);
    let stacks: Vec<_> = decoded
        .iter()
        .filter_map(|context| {
            let stack = tables
                .database()
                .resolve_stack(context.app_tag, &context.frame_indexes)
                .ok()?;
            Some((context.app_tag, stack))
        })
        .collect();
    let eval = rounds.ns_per_unit("policy.evaluate_frames", stacks.len(), || {
        timed(|| {
            for (tag, stack) in &stacks {
                black_box(
                    tables
                        .policies()
                        .evaluate_frames(*tag, stack.len(), |i| stack[i]),
                );
            }
        })
    });
    values.set("policy.eval_ns", eval);
    let (slow_stats, mut drop_log) = (AtomicEnforcerStats::new(), DropLog::default());
    let slow_path = rounds.ns_per_unit("enforcer.inspect_packet", sample.len(), || {
        timed(|| {
            for packet in sample {
                black_box(tables.inspect_packet(packet, &mut scratch, &slow_stats, &mut drop_log));
            }
        })
    });
    values.set("enforcer.slow_path_ns_per_pkt", slow_path);

    // --- telemetry and observer ---------------------------------------------
    let telemetry = rounds.ns_per_unit("telemetry.read", 256, || {
        timed(|| {
            for _ in 0..256 {
                black_box(data_plane.telemetry());
            }
        })
    });
    values.set("telemetry.read_ns", telemetry);
    let mut collector = Collector::new(CollectorConfig::default());
    let poll = rounds.ns_per_unit("obs.collector_poll", 64, || {
        timed(|| {
            for _ in 0..64 {
                black_box(collector.poll(&data_plane).polls);
            }
        })
    });
    values.set("obs.poll_us", poll / 1e3);
    let render = rounds.ns_per_unit("obs.render_metrics", 16, || {
        timed(|| {
            for _ in 0..16 {
                black_box(render_metrics(collector.view()));
            }
        })
    });
    values.set("obs.render_metrics_us", render / 1e3);

    // --- control plane, on this workload's rule set -----------------------
    let rule = inputs.rollout_rules[0].clone();
    let validate = rounds.ns_per_unit("control.validate", 1, || {
        let transaction = runner.engine.control().begin().add_policy(rule.clone());
        timed(|| {
            black_box(transaction.validate().is_deployable());
        })
    });
    values.set("control.validate_us", validate / 1e3);
    let reuses_before = runner.engine.policy_index_reuses();
    let mut periods = 0u64;
    let append = rounds.ns_per_unit("control.commit_append", 3, || {
        periods += 1;
        let (t0, _) = runner.commit();
        runner.commit();
        let (_, t1) = runner.commit();
        runner.commit();
        (t0, t1)
    });
    values.set("control.commit_append_us", append / 1e3);
    let rebuild = rounds.ns_per_unit("control.commit_rebuild", 1, || {
        periods += 1;
        for _ in 0..3 {
            runner.commit();
        }
        runner.commit()
    });
    values.set("control.commit_rebuild_us", rebuild / 1e3);
    values.set(
        "control.index_reuse_share",
        (runner.engine.policy_index_reuses() - reuses_before) as f64 / (4 * periods) as f64,
    );
    let rollback = rounds.ns_per_unit("control.rollback", 1, || {
        let base = runner.engine.generation();
        let committed = runner
            .engine
            .control()
            .begin()
            .add_policy(rule.clone())
            .commit();
        let interval = timed(|| {
            black_box(runner.engine.control().rollback(base).is_ok());
        });
        assert!(committed.is_ok(), "append commit on the base set succeeds");
        interval
    });
    values.set("control.rollback_us", rollback / 1e3);

    // First pass after a commit (every flow re-evaluated) against the next
    // one (every flow served from the table again), per packet of a pass.
    let (mut first_ns, mut steady_ns) = (Vec::new(), Vec::new());
    let mut verdicts = Vec::with_capacity(batch);
    let started = Instant::now();
    while rounds.wants_more(first_ns.len(), started) {
        for _ in 0..4 {
            runner.commit();
        }
        for series in [&mut first_ns, &mut steady_ns] {
            let (t0, t1) = timed(|| {
                for chunk in valid.chunks(batch) {
                    runner.engine.ingest_bytes_into(chunk, &mut verdicts);
                }
            });
            rounds.log.span("control.pass_after_commit", ROOT, t0, t1);
            series.push((t1 - t0).as_nanos() as u64);
        }
    }
    values.set(
        "control.reeval_ns_per_flow",
        (stats::quiet_mean(&first_ns) - stats::quiet_mean(&steady_ns)) / valid.len() as f64,
    );

    // --- do the layers add up? ------------------------------------------------
    // Per slice of the reference pass.  Decode and routing run on the
    // submitter.  Probes, slow path and drops run on the shards: side by
    // side where the process has a second CPU, so that only the busier
    // shard's share is on the critical path, and one after the other where
    // it has not.
    let slices = reference.slice_ns.len() as f64;
    let per_slice = |count: u64| count as f64 / slices;
    let rejected = per_slice(in_situ.dropped_wire);
    let routed = workload.packets_per_slice() as f64 - rejected;
    let enforcement_drops = per_slice(in_situ.total_dropped() - in_situ.dropped_wire);
    let on_submitter = routed * (byte_path - struct_path + route)
        + rejected * reject
        + workload.batches_per_slice() as f64 * batch_fixed.max(0.0);
    let on_shards = per_slice(in_situ.flow_hits) * probe_hit
        + per_slice(in_situ.flow_misses) * (miss_insert + slow_path)
        + enforcement_drops * drop_extra.max(0.0);
    let critical_share = if workload.shards > 1 && host::nproc() > 1 {
        busiest
    } else {
        1.0
    };
    let commits = workload.commits_per_slice() as f64;
    let polls = match workload.poll_every {
        0 => 0.0,
        every => (workload.batches_per_slice() / every) as f64,
    };
    let attributed = on_submitter
        + on_shards * critical_share
        + commits * (0.75 * append + 0.25 * rebuild)
        + polls * poll;
    let measured = stats::quiet_mean(&reference.slice_ns);
    values.set("engine.unattributed_share", 1.0 - attributed / measured);

    tally.absorb(&runner);
    drop(runner);
    Ok(Traced { values, log, tally })
}
