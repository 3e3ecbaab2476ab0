//! The adversarial fleet-scale scenario engine.
//!
//! This is the workload harness every beyond-paper evaluation plugs into: a
//! [`ScenarioSpec`] composes a **fleet** (N devices × app mix × connect-rate
//! distribution on the simulated clock, see [`fleet::FleetSpec`]) with a set
//! of **adversary models** (context spoofing, replay, repackaged apps,
//! options abuse, … — see [`adversary::AdversaryModel`]) and drives the
//! whole fleet through the sharded enforcement plane
//! ([`ShardedEnforcer::inspect_batch`]), producing a [`ScenarioReport`].
//!
//! # Determinism
//!
//! Everything is seeded: the app mix, the device→app assignment, the
//! flow→functionality binding, every per-tick connect-rate draw and every
//! adversary's compromised-device set derive from [`ScenarioSpec::seed`]
//! alone, and packet batches reach the enforcer in a fixed order.  Running
//! the same spec twice yields **byte-identical** reports
//! ([`ScenarioReport::render`]), regardless of shard count — which is what
//! makes scenario reports diffable artifacts in regression tests.
//!
//! # Adversary → counter accounting
//!
//! The engine knows which packets it injected for which adversary model, and
//! [`ShardedEnforcer::inspect_batch`] returns verdicts in input order, so
//! every adversarial packet's fate is attributed exactly (no inference from
//! aggregate counters).  Under the standard strict configuration every
//! adversarial packet must be *dropped* and charged to the model's expected
//! [`EnforcerStats`] counter; an accepted adversarial packet is an
//! enforcement gap, and the integration tests fail on it.
//!
//! # Example
//!
//! ```
//! use bp_analysis::scenario::{self, ScenarioSpec};
//!
//! let spec = ScenarioSpec::adversarial_fleet("smoke", 50, 7, 2);
//! let report = scenario::run(&spec)?;
//! assert_eq!(report.devices, 50);
//! // Same seed ⇒ byte-identical report.
//! assert_eq!(scenario::run(&spec)?.render(), report.render());
//! # Ok::<(), bp_types::Error>(())
//! ```

pub mod adversary;
pub mod fleet;

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use std::sync::Arc;

use bp_appsim::monkey::weighted_index;
use bp_core::control::{ControlPlane, EnforcementEndpoint, RolloutError};
use bp_core::encoding::ContextEncoding;
use bp_core::enforcer::{EnforcerConfig, EnforcerStats, ShardedEnforcer};
use bp_core::faults::{FaultInjector, FaultPlan};
use bp_core::flow::FlowTableConfig;
use bp_core::offline::{OfflineAnalyzer, SignatureDatabase};
use bp_core::policy::{Policy, PolicySet};
use bp_core::stats::Counter;
use bp_core::wire::{CaptureHeader, CaptureReader, CaptureWriter};
use bp_dex::MethodTable;
use bp_netsim::addr::Endpoint;
use bp_netsim::clock::SimDuration;
use bp_netsim::fleet::{trailing_data_options, PacketTemplate};
use bp_netsim::packet::Ipv4Packet;
use bp_types::{EnforcementLevel, Error};

pub use adversary::{AdversaryModel, AdversaryProfile};
pub use fleet::{ConnectRate, FleetSpec};

/// Callback [`PreparedScenario::run_recorded`] threads through the tick
/// loop: called once per synthesized packet with `(tick, origin_tag,
/// packet)` before inspection, in exact batch order.
type FrameRecorder<'a> = dyn FnMut(u32, u8, &Ipv4Packet) -> Result<(), Error> + 'a;

/// A deterministic policy-hot-swap event raced against fleet traffic.
///
/// At the start of the given tick the scenario commits a control-plane
/// transaction replacing the policy set: the commit compiles fresh tables
/// (one epoch bump) and hot-swaps the registered enforcer while every flow's
/// verdict is still cached under the old epoch — the bump must lazily
/// invalidate all of them (visible as a flow-miss wave in the report), and
/// no packet of the swap tick may be served a stale verdict.  A replacement
/// set equal to the active one commits as a no-op (no rebuild, no
/// invalidation).
#[derive(Debug, Clone, PartialEq)]
pub struct HotSwap {
    /// Tick at whose start the swap is installed (0-based).
    pub at_tick: u32,
    /// The replacement policy set.
    pub policies: PolicySet,
}

/// Complete description of one scenario run: fleet × adversaries × policies
/// × enforcement plane shape.
///
/// This is the input half of the engine's public contract
/// (`ScenarioSpec → ScenarioReport`); see [`run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (report heading).
    pub name: String,
    /// Master seed; every random draw in the run derives from it.
    pub seed: u64,
    /// The device fleet.
    pub fleet: FleetSpec,
    /// The adversaries deployed against the fleet (may be empty for a
    /// clean-traffic baseline).
    pub adversaries: Vec<AdversaryProfile>,
    /// The policy set compiled into the enforcement tables.
    pub policies: PolicySet,
    /// Enforcer configuration; adversarial scenarios normally run
    /// [`EnforcerConfig::strict`] so every model's packets are dropped.
    pub config: EnforcerConfig,
    /// Worker shards of the [`ShardedEnforcer`].
    pub shards: usize,
    /// Number of simulated ticks driven.
    pub ticks: u32,
    /// Simulated wall-clock length of one tick, in milliseconds (drives the
    /// enforcer's flow-TTL clock).
    pub tick_millis: u64,
    /// Optional policy hot swap raced against the traffic.
    pub hot_swap: Option<HotSwap>,
    /// Optional deterministic fault plan (chaos runs): worker panics, wire
    /// corruption and commit failures injected by one shared
    /// [`FaultInjector`], so the same seed replays the same faults.
    pub faults: Option<FaultPlan>,
}

impl ScenarioSpec {
    /// The standard adversarial scenario: a mixed fleet of `devices` devices
    /// (case-study apps + seeded corpus), every adversary model at a 3%
    /// compromise ratio, the case-study deny policies, strict enforcement,
    /// three ticks of traffic.
    pub fn adversarial_fleet(
        name: impl Into<String>,
        devices: u32,
        seed: u64,
        shards: usize,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            seed,
            fleet: FleetSpec::mixed(devices, seed),
            adversaries: AdversaryProfile::all_models(0.03),
            policies: PolicySet::from_policies(vec![
                Policy::deny(
                    EnforcementLevel::Method,
                    "Lcom/dropbox/android/taskqueue/UploadTask;->c",
                ),
                Policy::deny(EnforcementLevel::Class, "com/facebook/appevents"),
                Policy::deny(EnforcementLevel::Library, "com/flurry"),
            ]),
            config: EnforcerConfig::strict(),
            shards,
            ticks: 3,
            tick_millis: 500,
            hot_swap: None,
            faults: None,
        }
    }

    /// The chaos variant of [`ScenarioSpec::adversarial_fleet`]: the same
    /// mixed fleet and adversary load, plus a seed-derived
    /// [`FaultPlan`] (a worker panic scheduled on every shard, periodic
    /// wire corruption, an early commit failure) and enough ticks for every
    /// scheduled fault to fire and every worker to be respawned.  Two runs
    /// with the same seed produce byte-identical reports.
    pub fn chaos_fleet(name: impl Into<String>, devices: u32, seed: u64, shards: usize) -> Self {
        let mut spec = Self::adversarial_fleet(name, devices, seed, shards);
        spec.ticks = 8;
        spec.faults = Some(FaultPlan::seeded(seed, shards.max(1)));
        spec
    }

    /// Race a policy hot swap at the start of `at_tick` (builder style).
    pub fn with_hot_swap(mut self, at_tick: u32, policies: PolicySet) -> Self {
        self.hot_swap = Some(HotSwap { at_tick, policies });
        self
    }

    /// Install a deterministic fault plan (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Running per-adversary counters, as exposed to a tick observer and to the
/// facade's `Engine::observe()` — the live (mid-run) form of
/// [`AdversaryOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversaryCounters {
    /// The adversary model.
    pub model: AdversaryModel,
    /// Adversarial packets injected for this model so far.
    pub emitted: u64,
    /// How many of them the enforcer has dropped so far.
    pub dropped: u64,
}

/// What a tick observer sees after each tick's batch has been inspected and
/// accounted: the position in the run, the live enforcement plane (for
/// telemetry polling) and the engine's ground-truth adversary attribution.
///
/// Passed by [`PreparedScenario::run_observed`] /
/// [`PreparedScenario::replay_observed`]; the `bp_top` dashboard polls
/// [`ShardedEnforcer::telemetry`] through `enforcer` here, tick-aligned with
/// the simulated clock.
pub struct TickTelemetry<'a> {
    /// The tick just completed (0-based).
    pub tick: u32,
    /// Ticks the run will drive in total.
    pub ticks: u32,
    /// Simulated milliseconds per tick.
    pub tick_millis: u64,
    /// The live enforcement plane.
    pub enforcer: &'a Arc<ShardedEnforcer>,
    /// Ground-truth per-adversary counters, in spec profile order.
    pub adversaries: Vec<AdversaryCounters>,
    /// Hot swaps committed so far.
    pub hot_swaps: u32,
}

/// A tick observer: called once per tick, after verdict accounting.
pub type TickObserver<'a> = dyn FnMut(TickTelemetry<'_>) + 'a;

/// Per-adversary accounting in a [`ScenarioReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AdversaryOutcome {
    /// The adversary model.
    pub model: AdversaryModel,
    /// Adversarial packets the engine injected for this model.
    pub emitted: u64,
    /// How many of them the enforcer dropped (attributed per packet from the
    /// batch verdicts, not inferred from counters).
    pub dropped: u64,
    /// How many of them the enforcer accepted — any non-zero value here is
    /// an enforcement gap.
    pub accepted: u64,
    /// Name of the [`EnforcerStats`] counter this model's packets must be
    /// charged to.
    pub expected_counter: String,
    /// That counter's final value (shared by models mapping to the same
    /// counter, e.g. spoofing and trailing data both land in
    /// `dropped_malformed`).
    pub counter_value: u64,
}

/// The output half of the engine's contract: everything a scenario run
/// observed, renderable as a stable plain-text artifact.
///
/// Two runs of the same [`ScenarioSpec`] produce equal reports
/// (`PartialEq`) and byte-identical [`ScenarioReport::render`] output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// The seed the run derived from.
    pub seed: u64,
    /// Fleet size in devices.
    pub devices: u32,
    /// Worker shards used.
    pub shards: usize,
    /// Ticks driven.
    pub ticks: u32,
    /// Long-lived flows the fleet kept open.
    pub flows: u64,
    /// Total packets driven through the enforcer.
    pub packets: u64,
    /// Packets emitted by well-behaved devices.
    pub legit_packets: u64,
    /// Legitimate packets accepted.
    pub legit_accepted: u64,
    /// Legitimate packets dropped (policy denials of the fleet's own
    /// denied functionalities).
    pub legit_dropped: u64,
    /// Per-adversary accounting, in [`AdversaryModel::ALL`] order.
    pub adversaries: Vec<AdversaryOutcome>,
    /// Number of policy hot swaps installed mid-run.
    pub hot_swaps: u32,
    /// Final merged enforcer statistics.
    pub stats: EnforcerStats,
}

impl ScenarioReport {
    /// Render the report as stable plain text (two [`crate::report::TextTable`]s).
    pub fn render(&self) -> String {
        let mut summary = crate::report::TextTable::new(
            format!("Scenario '{}' (seed {})", self.name, self.seed),
            &[
                "devices",
                "shards",
                "ticks",
                "flows",
                "packets",
                "legit",
                "accepted",
                "dropped",
                "hot swaps",
            ],
        );
        summary.add_row(vec![
            self.devices.to_string(),
            self.shards.to_string(),
            self.ticks.to_string(),
            self.flows.to_string(),
            self.packets.to_string(),
            self.legit_packets.to_string(),
            self.legit_accepted.to_string(),
            self.legit_dropped.to_string(),
            self.hot_swaps.to_string(),
        ]);

        let mut adversaries = crate::report::TextTable::new(
            "Adversary models",
            &[
                "model",
                "paper",
                "emitted",
                "dropped",
                "accepted",
                "expected counter",
                "value",
            ],
        );
        for outcome in &self.adversaries {
            adversaries.add_row(vec![
                outcome.model.name().to_string(),
                outcome.model.paper_section().to_string(),
                outcome.emitted.to_string(),
                outcome.dropped.to_string(),
                outcome.accepted.to_string(),
                outcome.expected_counter.clone(),
                outcome.counter_value.to_string(),
            ]);
        }

        let mut stats = crate::report::TextTable::new("Enforcer statistics", &["counter", "value"]);
        for counter in Counter::ALL {
            stats.add_row(vec![
                counter.name().to_string(),
                self.stats.get(counter).to_string(),
            ]);
        }

        format!("{summary}\n{adversaries}\n{stats}")
    }

    /// The accounting row of one adversary model, if it was deployed.
    pub fn adversary(&self, model: AdversaryModel) -> Option<&AdversaryOutcome> {
        self.adversaries.iter().find(|o| o.model == model)
    }

    /// True if every adversarial packet was dropped — the property the
    /// strict configuration must deliver against all models.
    pub fn all_adversarial_traffic_dropped(&self) -> bool {
        self.adversaries.iter().all(|o| o.accepted == 0)
    }
}

/// Pre-compiled traffic state for one app of the mix: legitimate templates
/// per functionality plus one template per **deployed** adversarial packet
/// shape, all built once so per-packet synthesis touches no encoder and no
/// validator.  Models the spec does not deploy get no template — and none
/// of their constraints (a context to replay, budget headroom for a second
/// option) apply to the scenario.
struct AppTraffic {
    funcs: Vec<FuncTraffic>,
    adversarial: BTreeMap<AdversaryModel, PacketTemplate>,
}

struct FuncTraffic {
    template: PacketTemplate,
    weight: u32,
}

const BODY: &[u8] = b"BP/fleet";

/// One app's forged context payloads — spoofed indexes and repackaged tag —
/// each present only when the matching adversary model is deployed.
type ForgedPayloads = (Option<Vec<u8>>, Option<Vec<u8>>);

/// Deterministic host → WAN address assignment (mirrors the testbed's).
fn endpoint_for(hosts: &mut BTreeMap<String, Endpoint>, host: &str) -> Endpoint {
    if let Some(&ep) = hosts.get(host) {
        return ep;
    }
    let octet = hosts.len() as u16 + 1;
    let ep = Endpoint::new([198, 51, (octet >> 8) as u8, (octet & 0xff) as u8], 443);
    hosts.insert(host.to_string(), ep);
    ep
}

fn analyze_mix(
    spec: &ScenarioSpec,
    db: &mut SignatureDatabase,
    deployed: &BTreeSet<AdversaryModel>,
) -> Result<Vec<AppTraffic>, Error> {
    let mix = &spec.fleet.app_mix;
    if mix.is_empty() {
        return Err(Error::malformed("scenario spec", "empty app mix"));
    }

    let mut hosts = BTreeMap::new();
    // First pass: per-app context payloads for every functionality, plus the
    // forged payloads of the deployed payload-level adversaries.
    let mut payloads: Vec<Vec<(Vec<u8>, Endpoint, u32)>> = Vec::with_capacity(mix.len());
    let mut forged_payloads: Vec<ForgedPayloads> = Vec::with_capacity(mix.len());
    for app in mix {
        let apk = app.build_apk();
        OfflineAnalyzer::new().analyze_into(&apk, db)?;
        let table = MethodTable::from_apk(&apk)?;
        let tag = apk.hash().tag();
        let wide = apk.is_multidex();

        let mut app_payloads = Vec::with_capacity(app.functionalities.len());
        for func in &app.functionalities {
            let indexes: Vec<u32> = func
                .call_chain
                .iter()
                .rev()
                .filter_map(|sig| table.index_of(sig))
                .collect();
            let payload = ContextEncoding::encode(tag, &indexes, wide)?;
            let endpoint = endpoint_for(&mut hosts, &func.endpoint_host);
            app_payloads.push((payload, endpoint, func.trigger_weight.max(1)));
        }
        if app_payloads.is_empty() {
            return Err(Error::malformed(
                "scenario spec",
                format!("app {} has no functionalities", app.package_name),
            ));
        }
        // The flow→functionality binding is stored as one byte per flow;
        // wider apps would silently wrap the index.
        if app_payloads.len() > 256 {
            return Err(Error::capacity(
                "functionalities per app",
                app_payloads.len(),
                256,
            ));
        }

        // Forged indexes near the top of the encoding's index space: far
        // beyond any synthetic app's method table, so decoding flags them as
        // undecodable for this (known) tag.
        let spoof = deployed
            .contains(&AdversaryModel::ContextSpoofing)
            .then(|| {
                let forged = ContextEncoding::max_index(wide) - 7;
                ContextEncoding::encode(tag, &[forged, forged - 1], wide)
            })
            .transpose()?;
        // The repackaged build has identical code (same indexes) under a
        // different MD5: its tag resolves nowhere.
        let repack = deployed
            .contains(&AdversaryModel::RepackagedApp)
            .then(|| {
                let repack_tag = app.build_repackaged_apk("scenario-repack").hash().tag();
                let first_indexes: Vec<u32> = app.functionalities[0]
                    .call_chain
                    .iter()
                    .rev()
                    .filter_map(|sig| table.index_of(sig))
                    .collect();
                ContextEncoding::encode(repack_tag, &first_indexes, wide)
            })
            .transpose()?;
        forged_payloads.push((spoof, repack));
        payloads.push(app_payloads);
    }

    // Second pass: build templates (the replay model needs the payloads of
    // *other* apps), one per deployed adversarial shape.
    let mut apps = Vec::with_capacity(mix.len());
    for (index, app_payloads) in payloads.iter().enumerate() {
        let (primary_payload, primary_endpoint, _) = &app_payloads[0];
        let (spoof_payload, repack_payload) = &forged_payloads[index];
        let blank = || PacketTemplate::new(*primary_endpoint, BODY.to_vec());

        let mut adversarial = BTreeMap::new();
        for &model in deployed {
            let template =
                match model {
                    AdversaryModel::ContextSpoofing => blank()
                        .with_context(spoof_payload.as_ref().expect("built when deployed"))?,
                    AdversaryModel::RepackagedApp => blank()
                        .with_context(repack_payload.as_ref().expect("built when deployed"))?,
                    AdversaryModel::DuplicateOption => {
                        // A second, minimal context option rides behind the
                        // legitimate one: the 9-byte payload header (flags +
                        // app tag) alone decodes as an empty stack under the
                        // app's own tag.
                        blank()
                            .with_context(primary_payload)?
                            .with_context(&primary_payload[..9])?
                    }
                    AdversaryModel::TrailingData => {
                        blank().with_raw_options(&trailing_data_options(primary_payload)?)?
                    }
                    AdversaryModel::UntaggedEgress => blank(),
                    AdversaryModel::ContextReplay => {
                        // The replayed context: another app's (first) context,
                        // verbatim.  With a single-app mix fall back to another
                        // functionality of the same app; either way the bytes
                        // must differ from the flow's own.
                        let replayed = if payloads.len() > 1 {
                            &payloads[(index + 1) % payloads.len()][0].0
                        } else if app_payloads.len() > 1 {
                            &app_payloads[1].0
                        } else {
                            return Err(Error::malformed(
                                "scenario spec",
                                "context replay needs a second app or functionality \
                             to steal context from",
                            ));
                        };
                        blank().with_context(replayed)?
                    }
                };
            adversarial.insert(model, template);
        }

        apps.push(AppTraffic {
            funcs: app_payloads
                .iter()
                .map(|(payload, endpoint, weight)| {
                    Ok(FuncTraffic {
                        template: PacketTemplate::new(*endpoint, BODY.to_vec())
                            .with_context(payload)?,
                        weight: *weight,
                    })
                })
                .collect::<Result<Vec<_>, Error>>()?,
            adversarial,
        });
    }
    Ok(apps)
}

/// A scenario with its expensive, enforcement-independent state built once:
/// the analyzed app mix (apk builds + offline analysis), the packet
/// templates and the fleet assembly.
///
/// [`PreparedScenario::run`] then drives the tick loop against a **fresh**
/// control plane + sharded enforcer, so callers measuring the enforcement
/// plane (the `fleet_scale` bench, repeated-run experiments) amortize the
/// preparation instead of re-analyzing the mix on every run.  Repeated runs
/// of one prepared scenario are byte-identical to each other and to
/// [`run`] on the same spec: the post-assembly RNG state is snapshotted at
/// preparation time and every run resumes from a copy of it.
pub struct PreparedScenario {
    spec: ScenarioSpec,
    db: SignatureDatabase,
    apps: Vec<AppTraffic>,
    device_apps: Vec<u16>,
    flow_funcs: Vec<u8>,
    total_flows: u64,
    /// RNG state after fleet assembly; the per-tick connect-rate draws of
    /// every run resume from a clone of this.
    traffic_rng: StdRng,
}

impl PreparedScenario {
    /// Validate `spec`, analyze its app mix and assemble the fleet.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid specs (empty mix, app without
    /// functionalities, replay with nothing to replay) and propagates apk
    /// analysis or encoding failures.
    pub fn prepare(spec: &ScenarioSpec) -> Result<Self, Error> {
        if spec.fleet.devices == 0 {
            return Err(Error::malformed("scenario spec", "fleet has no devices"));
        }
        if spec.fleet.sockets_per_device == 0 {
            return Err(Error::malformed(
                "scenario spec",
                "fleet devices need at least one socket",
            ));
        }

        // The model is an adversary's identity throughout the engine
        // (templates, attack sockets, compromise membership, report rows),
        // so duplicate models would double-count every tally: reject them up
        // front.
        let mut models = BTreeSet::new();
        for profile in &spec.adversaries {
            if !models.insert(profile.model) {
                return Err(Error::malformed(
                    "scenario spec",
                    format!("duplicate adversary model {}", profile.model),
                ));
            }
        }

        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut db = SignatureDatabase::new();
        // Only adversaries that can actually emit packets constrain the mix
        // (templates are built per deployed model).
        let deployed: BTreeSet<AdversaryModel> = spec
            .adversaries
            .iter()
            .filter(|p| p.packets_per_tick > 0 && p.device_ratio > 0.0)
            .map(|p| p.model)
            .collect();
        let apps = analyze_mix(spec, &mut db, &deployed)?;

        // Fleet assembly: device → app, flow → functionality.  Draw order is
        // fixed (devices, then flows, then per-tick rates), so every run of
        // the same seed sees identical traffic.
        let device_apps = spec.fleet.assign_apps(&mut rng);
        let sockets = spec.fleet.sockets_per_device;
        // Socket 0 always carries the app's primary functionality (the main
        // connection the replay adversary rides); further sockets draw from
        // the app's functionalities weighted by trigger weight.
        let flow_funcs: Vec<u8> = (0..spec.fleet.devices)
            .flat_map(|device| {
                let app = &apps[device_apps[device as usize] as usize];
                let weights: Vec<u64> = app.funcs.iter().map(|f| u64::from(f.weight)).collect();
                (0..sockets)
                    .map(|socket| {
                        if socket == 0 {
                            0
                        } else {
                            weighted_index(&mut rng, &weights).unwrap_or(0) as u8
                        }
                    })
                    .collect::<Vec<_>>()
            })
            .collect();

        Ok(PreparedScenario {
            spec: spec.clone(),
            db,
            apps,
            device_apps,
            flow_funcs,
            total_flows: spec.fleet.total_flows(),
            traffic_rng: rng,
        })
    }

    /// The spec this scenario was prepared from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Drive the tick loop against a fresh control plane + sharded enforcer
    /// and account the verdicts.
    ///
    /// # Errors
    ///
    /// Propagates hot-swap commit failures.  Enforcement drops are
    /// *results*, never errors.
    pub fn run(&self) -> Result<ScenarioReport, Error> {
        self.run_impl(None, None)
    }

    /// Like [`PreparedScenario::run`], invoking `observer` after every
    /// tick's batch has been inspected and accounted.  The observer sees the
    /// live enforcement plane plus the engine's ground-truth adversary
    /// counters ([`TickTelemetry`]) — this is the hook the observability
    /// plane's dashboard rides, tick-aligned with the simulated clock.
    ///
    /// # Errors
    ///
    /// Propagates hot-swap commit failures, exactly as
    /// [`PreparedScenario::run`].
    pub fn run_observed(&self, observer: &mut TickObserver<'_>) -> Result<ScenarioReport, Error> {
        self.run_impl(None, Some(observer))
    }

    /// Run the scenario while recording every synthesized packet — wire
    /// bytes, in exact batch order — into a capture stream on `sink`
    /// ([`bp_core::wire::CaptureWriter`]).  The capture's header pins the
    /// spec's seed, tick length and tick count; each frame carries the tag
    /// [`PreparedScenario::replay`] uses to re-attribute it (0 = legitimate,
    /// `k` = the spec's `k-1`-th adversary profile).
    ///
    /// Returns the report of the recorded run together with the sink.
    ///
    /// # Errors
    ///
    /// Propagates hot-swap commit failures and sink I/O errors (as
    /// [`Error::InvalidState`]).
    pub fn run_recorded<W: std::io::Write>(&self, sink: W) -> Result<(ScenarioReport, W), Error> {
        let spec = &self.spec;
        let header = CaptureHeader {
            seed: spec.seed,
            tick_millis: spec.tick_millis,
            ticks: spec.ticks,
        };
        let mut writer = CaptureWriter::new(sink, header).map_err(capture_io)?;
        let mut frame_buf = Vec::new();
        let report = self.run_impl(
            Some(&mut |tick, tag, packet: &Ipv4Packet| {
                packet.write_wire_bytes(&mut frame_buf);
                writer.record(tick, tag, &frame_buf).map_err(capture_io)
            }),
            None,
        )?;
        let sink = writer.finish().map_err(capture_io)?;
        Ok((report, sink))
    }

    /// Replay a recorded capture through the **byte ingress path**
    /// ([`ShardedEnforcer::inspect_wire_batch_into`]): the same control
    /// plane, hot-swap schedule and virtual clock as a live run, but every
    /// packet arrives as raw wire bytes instead of a synthesized struct.
    ///
    /// A live run's struct batches take the same byte ingress (each packet
    /// is encoded, then parsed), so a replayed capture produces a report
    /// whose [`ScenarioReport::render`] is byte-identical to the recorded
    /// run's, on any shard count the spec asks for — under a fault plan
    /// too, injected wire corruption included.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] if the capture's header does not match
    /// this scenario's seed/clock/ticks or a frame tag names no adversary
    /// profile; propagates hot-swap commit failures.
    pub fn replay(&self, capture: &CaptureReader) -> Result<ScenarioReport, Error> {
        self.replay_impl(capture, None)
    }

    /// Like [`PreparedScenario::replay`], invoking `observer` after every
    /// tick — the capture-replay twin of
    /// [`PreparedScenario::run_observed`], so the dashboard can be driven
    /// from a recorded capture as well as a live run.
    ///
    /// # Errors
    ///
    /// As [`PreparedScenario::replay`].
    pub fn replay_observed(
        &self,
        capture: &CaptureReader,
        observer: &mut TickObserver<'_>,
    ) -> Result<ScenarioReport, Error> {
        self.replay_impl(capture, Some(observer))
    }

    /// Shared body of [`PreparedScenario::replay`] and
    /// [`PreparedScenario::replay_observed`].
    fn replay_impl(
        &self,
        capture: &CaptureReader,
        mut observer: Option<&mut TickObserver<'_>>,
    ) -> Result<ScenarioReport, Error> {
        let spec = &self.spec;
        let header = capture.header();
        if header.seed != spec.seed
            || header.tick_millis != spec.tick_millis
            || header.ticks != spec.ticks
        {
            return Err(Error::malformed(
                "capture",
                format!(
                    "capture header (seed {}, {} ms/tick, {} ticks) does not match \
                     spec '{}' (seed {}, {} ms/tick, {} ticks)",
                    header.seed,
                    header.tick_millis,
                    header.ticks,
                    spec.name,
                    spec.seed,
                    spec.tick_millis,
                    spec.ticks
                ),
            ));
        }

        let (mut control, enforcer) = self.build_plane();
        let mut tally = Tally::default();
        let mut frames: Vec<&[u8]> = Vec::new();
        let mut origins: Vec<Option<AdversaryModel>> = Vec::new();
        let mut verdicts: Vec<bp_netsim::netfilter::Verdict> = Vec::new();
        let mut frame_iter = capture.frames().peekable();

        for tick in 0..spec.ticks {
            enforcer.set_now(SimDuration::from_millis(u64::from(tick) * spec.tick_millis));
            if let Some(swap) = &spec.hot_swap {
                if swap.at_tick == tick {
                    match control
                        .begin()
                        .replace_policies(swap.policies.clone())
                        .commit()
                    {
                        Ok(_) => tally.hot_swaps += 1,
                        // A chaos plan failing the commit is part of the
                        // run, not an error: the old generation stays
                        // installed and the scenario keeps serving.
                        Err(RolloutError::FaultInjected { .. }) => {}
                        Err(error) => return Err(error.into()),
                    }
                }
            }

            frames.clear();
            origins.clear();
            while frame_iter.peek().map(|f| f.tick) == Some(tick) {
                let frame = frame_iter.next().expect("peeked frame exists");
                origins.push(match frame.tag {
                    0 => None,
                    k => Some(
                        spec.adversaries
                            .get(k as usize - 1)
                            .ok_or_else(|| {
                                Error::malformed(
                                    "capture",
                                    format!("frame tag {k} names no adversary profile"),
                                )
                            })?
                            .model,
                    ),
                });
                frames.push(frame.bytes);
            }

            enforcer.inspect_wire_batch_into(&frames, &mut verdicts);
            tally.account(&origins, &verdicts);
            if let Some(observer) = observer.as_deref_mut() {
                observer(TickTelemetry {
                    tick,
                    ticks: spec.ticks,
                    tick_millis: spec.tick_millis,
                    enforcer: &enforcer,
                    adversaries: tally.adversary_counters(spec),
                    hot_swaps: tally.hot_swaps,
                });
            }
        }

        Ok(self.assemble_report(tally, enforcer.stats()))
    }

    /// The enforcement plane under test: a sharded enforcer registered as
    /// the endpoint of a control plane, which owns the authoritative state
    /// and drives the hot swap.  Flow capacity covers every long-lived flow
    /// plus the adversaries' injection flows so eviction noise never
    /// perturbs attribution.
    fn build_plane(&self) -> (ControlPlane, Arc<ShardedEnforcer>) {
        let spec = &self.spec;
        let mut control = ControlPlane::new(self.db.clone(), spec.policies.clone(), spec.config);
        let flow_config = FlowTableConfig {
            capacity: (self.total_flows as usize * 2).max(4_096),
            ..FlowTableConfig::default()
        };
        let enforcer = Arc::new(ShardedEnforcer::with_flow_config(
            control.tables(),
            spec.shards,
            flow_config,
        ));
        control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
        if let Some(plan) = &spec.faults {
            // One injector drives both planes so a single seed schedules
            // every fault of the run.
            let injector = Arc::new(FaultInjector::new(plan.clone(), spec.shards.max(1)));
            enforcer.install_faults(Arc::clone(&injector));
            control.install_faults(injector);
        }
        (control, enforcer)
    }

    /// Shared tick loop of [`PreparedScenario::run`] and
    /// [`PreparedScenario::run_recorded`]: synthesize, optionally record,
    /// inspect, account.
    fn run_impl(
        &self,
        mut recorder: Option<&mut FrameRecorder<'_>>,
        mut observer: Option<&mut TickObserver<'_>>,
    ) -> Result<ScenarioReport, Error> {
        let spec = &self.spec;
        let apps = &self.apps;
        let device_apps = &self.device_apps;
        let sockets = spec.fleet.sockets_per_device;
        let mut rng = self.traffic_rng.clone();

        let (mut control, enforcer) = self.build_plane();
        let mut tally = Tally::default();

        let mut packets: Vec<Ipv4Packet> = Vec::new();
        let mut origins: Vec<Option<AdversaryModel>> = Vec::new();
        let mut verdicts: Vec<bp_netsim::netfilter::Verdict> = Vec::new();

        for tick in 0..spec.ticks {
            enforcer.set_now(SimDuration::from_millis(u64::from(tick) * spec.tick_millis));
            if let Some(swap) = &spec.hot_swap {
                if swap.at_tick == tick {
                    match control
                        .begin()
                        .replace_policies(swap.policies.clone())
                        .commit()
                    {
                        Ok(_) => tally.hot_swaps += 1,
                        // A chaos plan failing the commit is part of the
                        // run, not an error: the old generation stays
                        // installed and the scenario keeps serving.
                        Err(RolloutError::FaultInjected { .. }) => {}
                        Err(error) => return Err(error.into()),
                    }
                }
            }

            packets.clear();
            origins.clear();

            // Legitimate fleet traffic: every long-lived flow re-sends its
            // connect-time context.  Tick 0 is the connect wave — at least one
            // packet per flow — so adversaries inject against live flows.
            for device in 0..spec.fleet.devices {
                let app = &apps[device_apps[device as usize] as usize];
                for socket in 0..sockets {
                    let flow = device as usize * sockets as usize + socket as usize;
                    let mut count = spec.fleet.connect_rate.sample(&mut rng);
                    if tick == 0 {
                        count = count.max(1);
                    }
                    let func = &app.funcs[self.flow_funcs[flow] as usize];
                    for _ in 0..count {
                        packets.push(func.template.instantiate_from(device, socket));
                        origins.push(None);
                    }
                }
            }

            // Adversarial injections.  Every model gets its own attack socket
            // (ports beyond the legitimate range) except replay, which by
            // definition rides an established flow (socket 0).
            for (ordinal, profile) in spec.adversaries.iter().enumerate() {
                if profile.packets_per_tick == 0 {
                    continue;
                }
                // Replay targets the entry cached at tick 0.
                if profile.model == AdversaryModel::ContextReplay && tick == 0 {
                    continue;
                }
                for device in 0..spec.fleet.devices {
                    if !profile.compromises(spec.seed, device) {
                        continue;
                    }
                    let app = &apps[device_apps[device as usize] as usize];
                    let template = app
                        .adversarial
                        .get(&profile.model)
                        .expect("template built for every deployed model");
                    let socket = if profile.model == AdversaryModel::ContextReplay {
                        0
                    } else {
                        sockets + ordinal as u16
                    };
                    for _ in 0..profile.packets_per_tick {
                        packets.push(template.instantiate_from(device, socket));
                        origins.push(Some(profile.model));
                    }
                }
            }

            // Record before inspecting: the capture sees the exact frames,
            // in the exact batch order, the enforcer does.
            if let Some(recorder) = recorder.as_deref_mut() {
                for (packet, origin) in packets.iter().zip(&origins) {
                    let tag = origin.map_or(0, |model| {
                        spec.adversaries
                            .iter()
                            .position(|p| p.model == model)
                            .map_or(0, |ordinal| ordinal as u8 + 1)
                    });
                    recorder(tick, tag, packet)?;
                }
            }

            // Reuse the verdict buffer: the all-accept path of a tick is then
            // allocation-free on the enforcement side.  The packets are
            // judged as the frames the recorder just wrote.
            enforcer.inspect_batch_into(&packets, &mut verdicts);
            tally.account(&origins, &verdicts);
            if let Some(observer) = observer.as_deref_mut() {
                observer(TickTelemetry {
                    tick,
                    ticks: spec.ticks,
                    tick_millis: spec.tick_millis,
                    enforcer: &enforcer,
                    adversaries: tally.adversary_counters(spec),
                    hot_swaps: tally.hot_swaps,
                });
            }
        }

        Ok(self.assemble_report(tally, enforcer.stats()))
    }

    /// Turn one run's tallies and final enforcer statistics into a report.
    fn assemble_report(&self, tally: Tally, stats: EnforcerStats) -> ScenarioReport {
        let spec = &self.spec;
        let adversaries = spec
            .adversaries
            .iter()
            .map(|profile| {
                let emitted = tally.emitted.get(&profile.model).copied().unwrap_or(0);
                let dropped = tally.dropped.get(&profile.model).copied().unwrap_or(0);
                AdversaryOutcome {
                    model: profile.model,
                    emitted,
                    dropped,
                    accepted: emitted - dropped,
                    expected_counter: profile.model.counter().name().to_string(),
                    counter_value: stats.get(profile.model.counter()),
                }
            })
            .collect();

        ScenarioReport {
            name: spec.name.clone(),
            seed: spec.seed,
            devices: spec.fleet.devices,
            shards: spec.shards.max(1),
            ticks: spec.ticks,
            flows: self.total_flows,
            packets: stats.packets_inspected,
            legit_packets: tally.legit_packets,
            legit_accepted: tally.legit_accepted,
            legit_dropped: tally.legit_dropped,
            adversaries,
            hot_swaps: tally.hot_swaps,
            stats,
        }
    }
}

/// Per-run verdict accounting shared by the live and replay tick loops.
#[derive(Default)]
struct Tally {
    legit_packets: u64,
    legit_accepted: u64,
    legit_dropped: u64,
    emitted: BTreeMap<AdversaryModel, u64>,
    dropped: BTreeMap<AdversaryModel, u64>,
    hot_swaps: u32,
}

impl Tally {
    /// Snapshot the running per-adversary counters in spec profile order.
    fn adversary_counters(&self, spec: &ScenarioSpec) -> Vec<AdversaryCounters> {
        spec.adversaries
            .iter()
            .map(|profile| AdversaryCounters {
                model: profile.model,
                emitted: self.emitted.get(&profile.model).copied().unwrap_or(0),
                dropped: self.dropped.get(&profile.model).copied().unwrap_or(0),
            })
            .collect()
    }

    /// Attribute one batch's verdicts (input order) to their traffic
    /// sources.
    fn account(
        &mut self,
        origins: &[Option<AdversaryModel>],
        verdicts: &[bp_netsim::netfilter::Verdict],
    ) {
        for (origin, verdict) in origins.iter().zip(verdicts) {
            match origin {
                None => {
                    self.legit_packets += 1;
                    if verdict.is_accept() {
                        self.legit_accepted += 1;
                    } else {
                        self.legit_dropped += 1;
                    }
                }
                Some(model) => {
                    *self.emitted.entry(*model).or_default() += 1;
                    if !verdict.is_accept() {
                        *self.dropped.entry(*model).or_default() += 1;
                    }
                }
            }
        }
    }
}

/// Map a capture sink I/O failure into the workspace error type.
fn capture_io(e: std::io::Error) -> Error {
    Error::invalid_state("capture recording", e.to_string())
}

/// Run a scenario: compile the mix, assemble the fleet, drive every tick's
/// batch through [`ShardedEnforcer::inspect_batch`] and account the
/// verdicts.  One-shot form of [`PreparedScenario::prepare`] +
/// [`PreparedScenario::run`]; repeated runs should prepare once.
///
/// # Errors
///
/// Returns an error for invalid specs (empty mix, app without
/// functionalities, replay with nothing to replay) and propagates apk
/// analysis or encoding failures.  Enforcement drops are *results*, never
/// errors.
pub fn run(spec: &ScenarioSpec) -> Result<ScenarioReport, Error> {
    PreparedScenario::prepare(spec)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(shards: usize) -> ScenarioSpec {
        let mut spec = ScenarioSpec::adversarial_fleet("unit", 64, 11, shards);
        // Compromise aggressively so every model fires even on a tiny fleet.
        spec.adversaries = AdversaryProfile::all_models(0.5);
        spec
    }

    #[test]
    fn reports_are_byte_identical_per_seed() {
        let spec = small_spec(2);
        let a = run(&spec).unwrap();
        let b = run(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());

        let mut reseeded = spec;
        reseeded.seed = 12;
        assert_ne!(run(&reseeded).unwrap(), a);
    }

    #[test]
    fn every_adversary_model_fires_and_is_fully_dropped() {
        let report = run(&small_spec(2)).unwrap();
        assert_eq!(report.adversaries.len(), AdversaryModel::ALL.len());
        for outcome in &report.adversaries {
            assert!(outcome.emitted > 0, "{} never fired", outcome.model);
            assert_eq!(
                outcome.dropped, outcome.emitted,
                "{} packets leaked past the enforcer",
                outcome.model
            );
            assert!(outcome.counter_value >= outcome.emitted);
        }
        assert!(report.all_adversarial_traffic_dropped());
        // Legitimate traffic flows (minus the fleet's own policy denials).
        assert!(report.legit_accepted > 0);
    }

    #[test]
    fn counters_reconcile_exactly_with_injected_packets() {
        let report = run(&small_spec(1)).unwrap();
        let by_model = |m: AdversaryModel| report.adversary(m).unwrap().emitted;
        let s = &report.stats;
        assert_eq!(
            s.dropped_malformed,
            by_model(AdversaryModel::ContextSpoofing) + by_model(AdversaryModel::TrailingData)
        );
        assert_eq!(
            s.dropped_unknown_app,
            by_model(AdversaryModel::RepackagedApp)
        );
        assert_eq!(
            s.dropped_context_switch,
            by_model(AdversaryModel::ContextReplay)
        );
        assert_eq!(
            s.dropped_duplicate_context,
            by_model(AdversaryModel::DuplicateOption)
        );
        assert_eq!(s.dropped_untagged, by_model(AdversaryModel::UntaggedEgress));
        // Full conservation: every packet is accounted exactly once.
        assert_eq!(s.packets_inspected, s.packets_accepted + s.total_dropped());
        assert_eq!(
            s.packets_inspected,
            report.legit_packets + report.adversaries.iter().map(|o| o.emitted).sum::<u64>()
        );
    }

    #[test]
    fn outcome_counters_are_shard_invariant() {
        let one = run(&small_spec(1)).unwrap();
        let four = run(&small_spec(4)).unwrap();
        assert_eq!(one.stats, four.stats);
        assert_eq!(one.adversaries, four.adversaries);
        assert_eq!(one.legit_accepted, four.legit_accepted);
    }

    #[test]
    fn hot_swap_invalidates_every_cached_flow_without_stale_verdicts() {
        let deny_everything =
            PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Library, "com")]);
        let spec = small_spec(2).with_hot_swap(2, deny_everything);
        let baseline = run(&small_spec(2)).unwrap();
        let swapped = run(&spec).unwrap();
        assert_eq!(swapped.hot_swaps, 1);
        // The swap denies all fleet traffic from tick 2 on: strictly more
        // policy drops than the baseline, and a flow-miss wave as every
        // cached verdict re-evaluates under the new epoch.
        assert!(swapped.stats.dropped_by_policy > baseline.stats.dropped_by_policy);
        assert!(swapped.stats.flow_misses > baseline.stats.flow_misses);
        assert_eq!(
            swapped.stats.packets_inspected,
            swapped.stats.packets_accepted + swapped.stats.total_dropped()
        );
    }

    #[test]
    fn clean_fleet_baseline_has_no_adversarial_counters() {
        let mut spec = ScenarioSpec::adversarial_fleet("clean", 32, 3, 2);
        spec.adversaries.clear();
        let report = run(&spec).unwrap();
        assert!(report.adversaries.is_empty());
        let s = &report.stats;
        assert_eq!(s.dropped_untagged, 0);
        assert_eq!(s.dropped_unknown_app, 0);
        assert_eq!(s.dropped_malformed, 0);
        assert_eq!(s.dropped_duplicate_context, 0);
        assert_eq!(s.dropped_context_switch, 0);
        assert_eq!(s.flow_context_switches, 0);
        // Long-lived flows hit the cache from tick 1 on.
        assert!(s.flow_hits > 0);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut no_devices = small_spec(1);
        no_devices.fleet.devices = 0;
        assert!(run(&no_devices).is_err());

        let mut no_sockets = small_spec(1);
        no_sockets.fleet.sockets_per_device = 0;
        assert!(run(&no_sockets).is_err());

        let mut no_apps = small_spec(1);
        no_apps.fleet.app_mix.clear();
        assert!(run(&no_apps).is_err());

        // A model is an adversary's identity: two profiles of one model
        // would double-count every tally, so the spec is rejected.
        let mut duplicated = small_spec(1);
        duplicated.adversaries = vec![
            AdversaryProfile::new(AdversaryModel::ContextReplay, 0.1),
            AdversaryProfile::new(AdversaryModel::ContextReplay, 0.5),
        ];
        assert!(run(&duplicated).is_err());
    }

    #[test]
    fn undeployed_models_impose_no_constraints_on_the_mix() {
        // A single app with a single functionality: nothing to replay and
        // no guarantee of options-budget headroom — but a clean baseline
        // (no adversaries) must still run.
        let mut spec = ScenarioSpec::adversarial_fleet("minimal", 16, 9, 1);
        spec.fleet.app_mix = vec![bp_appsim::generator::CorpusGenerator::stress_test_app()];
        spec.adversaries.clear();
        let report = run(&spec).unwrap();
        assert!(report.adversaries.is_empty());
        assert!(report.legit_accepted > 0);

        // Deploying replay against that mix is what errors — and only that.
        let mut with_replay = ScenarioSpec::adversarial_fleet("minimal-replay", 16, 9, 1);
        with_replay.fleet.app_mix = vec![bp_appsim::generator::CorpusGenerator::stress_test_app()];
        with_replay.adversaries = vec![AdversaryProfile::new(AdversaryModel::ContextReplay, 1.0)];
        assert!(run(&with_replay).is_err());
    }
}
