//! Quiet-slice end-to-end benchmark of the BorderPatrol engine.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds 20] [--trace 0|1] [--smoke]
//! ```
//!
//! Generates the workload from the seed, drives encoded frames through
//! `Engine::ingest_bytes_into` in a closed loop with one client, checks every
//! verdict against the generator's own expectation, and prints every metric
//! by name and unit, a `report:` line (host, noise, input digest) and, last,
//! one JSON line with exactly `correct`, `attempted`, `failed`, `metrics`.
//! `--trace 0` (the default) is the timed run and prints the end-to-end
//! metrics; `--trace 1` (or `--traced`) is the traced run and prints the
//! per-layer metrics.  See `README.md` for every definition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod host;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Metric, Values, END_TO_END, PER_LAYER};
use run::{Runner, SliceSamples, Tally};
use trace::{NoTrace, ROOT};
use workload::{Workload, WORKLOADS};

/// Cold set-ups per timed run; `setup_s` is the fastest.  A fixed number, so
/// that the heap has the same history in every run.
const SETUPS: usize = 15;

/// Longest `--seconds` the command line accepts.
const MAX_SECONDS: f64 = 600.0;

const USAGE: &str = "usage: bp-benchmark --workload <name> --seed <u64> [--seconds <n>] \
[--trace 0|1 | --traced] [--smoke]\n       bp-benchmark --list";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, 20.0);
    let (mut traced, mut smoke, mut list) = (false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(workload::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let text = value("a number")?;
                seed = Some(text.parse().map_err(|_| format!("bad seed {text}"))?);
            }
            "--seconds" => {
                let text = value("a number")?;
                seconds = text.parse().map_err(|_| format!("bad seconds {text}"))?;
                if !(seconds > 0.0 && seconds <= MAX_SECONDS) {
                    return Err(format!("seconds must be in (0, {MAX_SECONDS}]"));
                }
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            "--list" => list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if list {
        println!("{}", manifest(20));
        return Ok(None);
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        // A smoke run proves the plumbing in under two seconds; its numbers
        // are not comparable with anything.
        seconds: if smoke { seconds.min(0.6) } else { seconds },
        traced,
        smoke,
    }))
}

fn json_string(text: &str) -> String {
    serde_json::to_string(text).expect("strings serialize")
}

/// The `BENCHMARK.json` this binary agrees with (`--list`).
fn manifest(run_seconds: u32) -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},\n  \"workloads\": [");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_string(w.name),
            json_string(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}");
    out
}

/// Host conditions sampled around the measured part of a run.
struct HostSample {
    pressure_us: Option<u64>,
    involuntary_switches: u64,
    voluntary_switches: u64,
}

impl HostSample {
    fn take() -> Self {
        HostSample {
            pressure_us: host::cpu_pressure_us(),
            involuntary_switches: host::involuntary_context_switches(),
            voluntary_switches: host::voluntary_context_switches(),
        }
    }

    /// The `host` block of the report line, as deltas since `self`.
    fn report_since(&self) -> String {
        let now = HostSample::take();
        let pressure = match (self.pressure_us, now.pressure_us) {
            (Some(before), Some(after)) => (after - before).to_string(),
            _ => "null".to_owned(),
        };
        format!(
            "{{\"nproc\":{},\"cpus_allowed\":{},\"cpu_model\":{},\"build_profile\":\"{}\",\"cpu_pressure_some_us\":{pressure},\"involuntary_context_switches\":{},\"voluntary_context_switches\":{}}}",
            host::nproc(),
            json_string(&host::cpus_allowed()),
            json_string(&host::cpu_model()),
            host::build_profile(),
            now.involuntary_switches - self.involuntary_switches,
            now.voluntary_switches - self.voluntary_switches,
        )
    }
}

/// What a run prints: the metrics, plus free-form report fields.
struct Outcome {
    table: &'static [Metric],
    values: Values,
    tally: Tally,
    /// `"key":value` pairs for the report line.
    report: Vec<String>,
}

fn timed_run(args: &Args, inputs: &gen::Inputs) -> Result<Outcome, String> {
    let workload = args.workload;
    let mut values = Values::default();
    let mut report = Vec::new();

    // One engine's lifetime first — set-up, pass, peak memory — so that
    // `peak_rss_mb` is not the residue of repeated set-ups.
    let started = Instant::now();
    let mut runner = Runner::set_up(workload, inputs)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];

    // One unmeasured slice, so that the first measured one starts where
    // every later one does.
    runner.run_slice(&mut NoTrace, ROOT, &mut SliceSamples::default());
    let host_before = HostSample::take();
    let pass = runner.pass(
        &mut NoTrace,
        Duration::from_secs_f64(args.seconds),
        usize::MAX,
    )?;
    report.push(format!("\"host\":{}", host_before.report_since()));
    values.set("peak_rss_mb", host::peak_rss_mb());
    runner.verify(&pass);

    let throughput = pass.throughput_pps(workload);
    let batch_us = pass.batch_us();
    values.set("throughput_pps", throughput);
    values.set("batch_p50_us", stats::quantile(&batch_us, 0.50));
    values.set("batch_p99_us", stats::quantile(&batch_us, 0.99));
    values.set("cpu_ns_per_pkt", pass.busy_cores() * 1e9 / throughput);
    // Commits are engine calls inside the slices, so the rollout's cost is in
    // `throughput_pps` already; their own latency is reported, not bounded
    // (the traced run has it as `control.commit_p50_us` on every workload).
    let commit_us = pass.commit_us();
    if !commit_us.is_empty() {
        report.push(format!(
            "\"commit_p50_us\":{:.3},\"commit_p99_us\":{:.3}",
            stats::quantile(&commit_us, 0.50),
            stats::quantile(&commit_us, 0.99)
        ));
    }

    // The remaining cold set-ups, each after the previous engine is gone
    // (workers joined).
    let mut tally = Tally::default();
    tally.absorb(&runner);
    drop(runner);
    while !args.smoke && setup_s.len() < SETUPS {
        let started = Instant::now();
        let again = Runner::set_up(workload, inputs)?;
        setup_s.push(started.elapsed().as_secs_f64());
        tally.absorb(&again);
    }
    values.set(
        "setup_s",
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.push(format!("\"setup_s_all\":{setup_s:?}"));

    let noise = stats::noise(&pass.slice_ns);
    report.push(format!(
        "\"noise\":{{\"slice_iqr_over_median\":{:.4},\"quiet_gap\":{:.4},\"slices\":{},\"quiet_slices\":{},\"slice_us_deciles\":{:.0?}}}",
        noise.slice_iqr_over_median,
        noise.quiet_gap,
        noise.slices,
        pass.quiet.len(),
        noise.slice_us_deciles
    ));
    report.push(format!(
        "\"samples\":{{\"batches\":{},\"commits\":{}}},\"busy_cores\":{:.4},\"pass_wall_s\":{:.3},\"whole_pass_pps\":{:.0}",
        batch_us.len(),
        commit_us.len(),
        pass.busy_cores(),
        pass.wall.as_secs_f64(),
        pass.packets(workload) as f64 / pass.wall.as_secs_f64()
    ));
    report.push(format!(
        "\"counts\":{{\"flow_hit_share\":{:.6},\"evictions_per_pkt\":{:.6},\"drop_share\":{:.6},\"busiest_shard_share\":{:.6}}}",
        run::hit_share(&pass.stats),
        pass.stats.flow_evictions as f64 / pass.stats.packets_inspected as f64,
        pass.stats.total_dropped() as f64 / pass.stats.packets_inspected as f64,
        pass.busiest_shard_share
    ));
    Ok(Outcome {
        table: &END_TO_END,
        values,
        tally,
        report,
    })
}

fn traced_run(args: &Args, inputs: &gen::Inputs) -> Result<Outcome, String> {
    let host_before = HostSample::take();
    let traced = layers::run(args.workload, inputs, args.seed, args.seconds, args.smoke)?;
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out.join(format!("trace-{}.json", args.workload.name));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, traced.log.to_json(args.workload.name, args.seed)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Outcome {
        table: &PER_LAYER,
        values: traced.values,
        tally: traced.tally,
        report: vec![
            format!("\"host\":{}", host_before.report_since()),
            format!(
                "\"trace_file\":{}",
                json_string(&path.display().to_string())
            ),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("bp-benchmark: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let started = Instant::now();
    let inputs = gen::generate(workload, args.seed);
    let generated_s = started.elapsed().as_secs_f64();

    let mode = if args.traced { "traced" } else { "timed" };
    println!(
        "workload {} ({mode}{}): {} shards, batch {}, {} frames/pass, {} rules, seed {}, digest {:016x}",
        workload.name,
        if args.smoke { ", SMOKE — not comparable" } else { "" },
        workload.shards,
        workload.batch,
        workload.frames,
        workload.rules(),
        args.seed,
        inputs.digest
    );

    let outcome = if args.traced {
        traced_run(&args, &inputs)
    } else {
        timed_run(&args, &inputs)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("bp-benchmark: {}: {error}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let rows = match outcome.values.in_order(outcome.table) {
        Ok(rows) => rows,
        Err(error) => {
            eprintln!("bp-benchmark: {}: {error}", workload.name);
            return ExitCode::FAILURE;
        }
    };

    for failure in &outcome.tally.failures {
        eprintln!("FAILED: {failure}");
    }
    let mut metrics = String::new();
    for (i, (metric, value)) in rows.iter().enumerate() {
        println!("{:<34} {:>16.4} {}", metric.name, value, metric.unit);
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{comma}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            metric.name, metric.unit
        );
    }
    println!(
        "report: {{\"workload\":\"{}\",\"mode\":\"{mode}\",\"comparable\":{},\"seed\":{},\"frame_digest\":\"{:016x}\",\"seconds\":{},\"generate_s\":{generated_s:.3},\"total_s\":{:.3},{}}}",
        workload.name,
        !args.smoke,
        args.seed,
        inputs.digest,
        args.seconds,
        started.elapsed().as_secs_f64(),
        outcome.report.join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed
    );
    ExitCode::SUCCESS
}
