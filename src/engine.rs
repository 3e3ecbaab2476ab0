//! The top-level BorderPatrol engine: one object wiring the sharded data
//! plane to the transactional control plane.
//!
//! [`Engine`] is the recommended entry point for embedding BorderPatrol:
//! [`Engine::builder`] assembles the initial state (shards, configuration,
//! policies, signature database), `build()` compiles the first generation
//! exactly once, and afterwards
//!
//! * [`Engine::data_plane`] is the packet path — hand batches to
//!   [`ShardedEnforcer::inspect_batch`] from as many threads as you like;
//! * [`Engine::control`] is the operator path — stage policy/database/config
//!   changes in a [`Transaction`](bp_core::control::Transaction), dry-run
//!   them, commit them atomically, roll them back by generation.
//!
//! ```
//! use borderpatrol::Engine;
//! use borderpatrol::core::policy::Policy;
//! use borderpatrol::types::EnforcementLevel;
//!
//! let mut engine = Engine::builder()
//!     .shards(4)
//!     .strict()
//!     .policy(r#"{[deny][library]["com/flurry"]}"#.parse::<Policy>()?)
//!     .build();
//!
//! let first = engine.generation();
//! let next = engine
//!     .control()
//!     .begin()
//!     .add_policy(Policy::deny(EnforcementLevel::Class, "com/facebook/appevents"))
//!     .commit()?;
//! assert!(next > first);
//! assert_eq!(engine.data_plane().shard_count(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use bp_analysis::scenario::AdversaryCounters;
use bp_core::context::{ContextManager, ContextManagerStats};
use bp_core::control::{ControlPlane, EnforcementEndpoint, GenerationId, DEFAULT_RETAIN};
use bp_core::enforcer::{EnforcerConfig, EnforcerStats, ShardedEnforcer};
use bp_core::faults::{FaultInjector, FaultPlan, ShardHealthSnapshot};
use bp_core::flow::FlowTableConfig;
use bp_core::offline::SignatureDatabase;
use bp_core::policy::{Policy, PolicySet};
use bp_core::telemetry::TelemetrySnapshot;
use bp_netsim::netfilter::Verdict;
use parking_lot::Mutex;

/// A complete BorderPatrol enforcement engine: a [`ShardedEnforcer`] data
/// plane registered as an endpoint of a [`ControlPlane`].
#[derive(Debug)]
pub struct Engine {
    control: ControlPlane,
    data_plane: Arc<ShardedEnforcer>,
    /// On-device context manager, when the embedder attached one — lets
    /// [`Engine::observe`] surface injection-side statistics next to the
    /// enforcement-side ones.
    context_manager: Option<Arc<Mutex<ContextManager>>>,
    /// Ground-truth per-adversary counters deposited by a harness (the
    /// scenario engine's tick observer) so dashboards can read them through
    /// the facade instead of importing harness internals.
    adversary_counters: Mutex<Vec<AdversaryCounters>>,
}

/// One observation of a running engine — everything the observability plane
/// needs without any crate-internal imports: the installed generation, the
/// merged and per-shard-seqlock enforcement statistics, the context
/// manager's injection stats (if one is [attached](Engine::attach_context_manager))
/// and any harness-deposited adversary attribution.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The currently installed control-plane generation.
    pub generation: GenerationId,
    /// Merged data-plane statistics (point-in-time atomic reads).
    pub stats: EnforcerStats,
    /// One seqlock-consistent telemetry snapshot per shard — the same feed
    /// the `bp-obs` collector polls.
    pub telemetry: Vec<TelemetrySnapshot>,
    /// Injection-side statistics of the attached context manager, if any.
    pub context_manager: Option<ContextManagerStats>,
    /// Per-adversary ground truth last deposited via
    /// [`Engine::deposit_adversary_counters`] (empty when no harness is
    /// attached).
    pub adversaries: Vec<AdversaryCounters>,
}

impl Engine {
    /// Start assembling an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The packet path: share this [`ShardedEnforcer`] with every ingest
    /// thread and drive [`ShardedEnforcer::inspect_batch`].
    pub fn data_plane(&self) -> &Arc<ShardedEnforcer> {
        &self.data_plane
    }

    /// The operator path: stage, validate, commit and roll back enforcement
    /// state through control-plane transactions.
    pub fn control(&mut self) -> &mut ControlPlane {
        &mut self.control
    }

    /// The currently installed control-plane generation.
    pub fn generation(&self) -> GenerationId {
        self.control.generation()
    }

    /// Commits that reused the previous generation's compiled policy index
    /// (shared outright or incrementally extended) instead of recompiling
    /// every rule — the control plane's incremental-compilation counter.
    /// Append-only policy transactions take this path, so hot-adding one
    /// rule to a 100k-rule deployment stays near-constant-time.
    pub fn policy_index_reuses(&self) -> u64 {
        self.control.policy_index_reuses()
    }

    /// Merged data-plane statistics.
    pub fn stats(&self) -> EnforcerStats {
        self.data_plane.stats()
    }

    /// The byte ingress path: validate raw wire frames through
    /// `bp_core::wire` and inspect them in place, returning one verdict per
    /// frame in frame order.  Malformed frames never panic — they fail
    /// closed with a typed `WireError` drop reason counted in
    /// [`EnforcerStats::dropped_wire`].
    pub fn ingest_bytes(&self, frames: &[&[u8]]) -> Vec<Verdict> {
        self.data_plane.inspect_wire_batch(frames)
    }

    /// Buffer-reusing variant of [`Engine::ingest_bytes`]: verdicts are
    /// written into `verdicts` (cleared first).  With a reused buffer a
    /// batch whose flows are all cached — accepted or dropped — allocates
    /// nothing (`tests/alloc_budget.rs`).
    pub fn ingest_bytes_into(&self, frames: &[&[u8]], verdicts: &mut Vec<Verdict>) {
        self.data_plane.inspect_wire_batch_into(frames, verdicts);
    }

    /// Attach an on-device [`ContextManager`] so [`Engine::observe`] can
    /// report its injection statistics alongside the enforcement counters.
    pub fn attach_context_manager(&mut self, manager: Arc<Mutex<ContextManager>>) {
        self.context_manager = Some(manager);
    }

    /// Deposit ground-truth per-adversary counters (typically from the
    /// scenario engine's tick observer) for the next [`Engine::observe`]
    /// call.  Replaces the previous deposit.
    pub fn deposit_adversary_counters(&self, counters: Vec<AdversaryCounters>) {
        *self.adversary_counters.lock() = counters;
    }

    /// Per-shard self-healing state: the health state machine plus
    /// fault / respawn / stall counters, in shard order.
    pub fn shard_health(&self) -> Vec<ShardHealthSnapshot> {
        self.data_plane.shard_health()
    }

    /// Observe the engine: generation, merged stats, per-shard seqlock
    /// telemetry snapshots, attached context-manager stats and deposited
    /// adversary counters — the one-stop feed for dashboards and exporters,
    /// with no crate-internal imports required.
    pub fn observe(&self) -> Observation {
        Observation {
            generation: self.control.generation(),
            stats: self.data_plane.stats(),
            telemetry: self.data_plane.telemetry(),
            context_manager: self
                .context_manager
                .as_ref()
                .map(|manager| manager.lock().stats()),
            adversaries: self.adversary_counters.lock().clone(),
        }
    }
}

/// Builder for [`Engine`] (see [`Engine::builder`]).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    shards: usize,
    config: EnforcerConfig,
    policies: PolicySet,
    database: SignatureDatabase,
    flow: FlowTableConfig,
    retain: usize,
    faults: Option<FaultPlan>,
    overload_watermark: usize,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            shards: 1,
            config: EnforcerConfig::default(),
            policies: PolicySet::new(),
            database: SignatureDatabase::new(),
            flow: FlowTableConfig::default(),
            retain: DEFAULT_RETAIN,
            faults: None,
            overload_watermark: 0,
        }
    }
}

impl EngineBuilder {
    /// Number of data-plane worker shards (at least one).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Use the strict deployment configuration
    /// ([`EnforcerConfig::strict`]).
    pub fn strict(mut self) -> Self {
        self.config = EnforcerConfig::strict();
        self
    }

    /// Use the permissive deployment configuration
    /// ([`EnforcerConfig::permissive`]).
    pub fn permissive(mut self) -> Self {
        self.config = EnforcerConfig::permissive();
        self
    }

    /// Use an explicit enforcer configuration.
    pub fn config(mut self, config: EnforcerConfig) -> Self {
        self.config = config;
        self
    }

    /// The initial policy set.
    pub fn policies(mut self, policies: PolicySet) -> Self {
        self.policies = policies;
        self
    }

    /// Append one policy to the initial set.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policies.push(policy);
        self
    }

    /// The initial signature database.
    pub fn database(mut self, database: SignatureDatabase) -> Self {
        self.database = database;
        self
    }

    /// Per-shard flow-table bounds.
    pub fn flow_config(mut self, flow: FlowTableConfig) -> Self {
        self.flow = flow;
        self
    }

    /// How many previous generations the control plane retains for
    /// rollback.
    pub fn retain(mut self, retain: usize) -> Self {
        self.retain = retain;
        self
    }

    /// Install a deterministic fault plan for chaos runs: one
    /// [`FaultInjector`] built from `plan` is shared by the data plane
    /// (worker panics, stalls, wire corruption) and the control plane
    /// (commit failures), so the same seed replays the same faults.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overload admission watermark for the data plane: batches longer than
    /// `watermark` packets are truncated at ingest and the excess is shed
    /// fail-closed under `dropped_overload`.  `0` (the default) disables
    /// shedding.
    pub fn overload_watermark(mut self, watermark: usize) -> Self {
        self.overload_watermark = watermark;
        self
    }

    /// Compile the initial generation (one table build) and wire the data
    /// plane to the control plane.
    pub fn build(self) -> Engine {
        let mut control =
            ControlPlane::with_retain(self.database, self.policies, self.config, self.retain);
        let data_plane = Arc::new(ShardedEnforcer::with_flow_config(
            control.tables(),
            self.shards,
            self.flow,
        ));
        control.register(Arc::clone(&data_plane) as Arc<dyn EnforcementEndpoint>);
        if let Some(plan) = self.faults {
            let injector = Arc::new(FaultInjector::new(plan, self.shards));
            data_plane.install_faults(Arc::clone(&injector));
            control.install_faults(injector);
        }
        if self.overload_watermark > 0 {
            data_plane.set_overload_watermark(self.overload_watermark);
        }
        Engine {
            control,
            data_plane,
            context_manager: None,
            adversary_counters: Mutex::new(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::EnforcementLevel;

    #[test]
    fn builder_wires_data_plane_to_control_plane() {
        let mut engine = Engine::builder()
            .shards(3)
            .strict()
            .policy(Policy::deny(EnforcementLevel::Library, "com/flurry"))
            .build();
        assert_eq!(engine.data_plane().shard_count(), 3);
        assert!(engine.data_plane().tables().config().drop_untagged);
        assert_eq!(
            engine.data_plane().tables().epoch(),
            engine.control().tables().epoch()
        );

        let first = engine.generation();
        let next = engine
            .control()
            .begin()
            .add_policy(Policy::deny(
                EnforcementLevel::Class,
                "com/facebook/appevents",
            ))
            .commit()
            .unwrap();
        assert!(next > first);
        assert_eq!(
            engine.data_plane().tables().epoch(),
            engine.control().tables().epoch()
        );
        // The add-policy commit is append-only, so it extends the previous
        // generation's policy index instead of recompiling it.
        assert_eq!(engine.policy_index_reuses(), 1);
        assert_eq!(engine.stats().packets_inspected, 0);
    }

    #[test]
    fn observe_surfaces_telemetry_context_and_adversary_state() {
        use bp_analysis::scenario::AdversaryCounters;
        use bp_analysis::AdversaryModel;
        use bp_netsim::addr::Endpoint;

        let mut engine = Engine::builder().shards(2).strict().build();
        let observation = engine.observe();
        assert_eq!(observation.generation, engine.generation());
        assert_eq!(observation.telemetry.len(), 2);
        assert!(observation.context_manager.is_none());
        assert!(observation.adversaries.is_empty());

        // Untagged traffic shows up in the next observation's telemetry.
        let packet = bp_netsim::packet::Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 1], 4000),
            Endpoint::new([93, 184, 216, 34], 443),
            b"GET /".to_vec(),
        );
        engine
            .data_plane()
            .inspect_batch(std::slice::from_ref(&packet));
        let observation = engine.observe();
        assert_eq!(observation.stats.dropped_untagged, 1);
        let telemetry_total: u64 = observation
            .telemetry
            .iter()
            .map(|t| t.stats.dropped_untagged)
            .sum();
        assert_eq!(telemetry_total, 1);
        assert!(observation.telemetry.iter().all(|t| t.consistent()));

        // Attached context manager and deposited harness counters surface
        // through the same call.
        engine.attach_context_manager(ContextManager::new().shared());
        engine.deposit_adversary_counters(vec![AdversaryCounters {
            model: AdversaryModel::ContextReplay,
            emitted: 7,
            dropped: 7,
        }]);
        let observation = engine.observe();
        assert_eq!(
            observation.context_manager.unwrap(),
            bp_core::context::ContextManagerStats::default()
        );
        assert_eq!(observation.adversaries.len(), 1);
        assert_eq!(observation.adversaries[0].dropped, 7);
    }
}
