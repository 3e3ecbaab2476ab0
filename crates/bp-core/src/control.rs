//! The transactional control plane (§IV "Reconfigurability", Poise-style
//! centralized policy installation).
//!
//! The paper's deployment story assumes an operator continuously pushing
//! updated policies and signature databases to in-network enforcers.  This
//! module is that operator-facing surface: a [`ControlPlane`] owns the
//! **authoritative** interchange state — the [`PolicySet`], the
//! [`SignatureDatabase`] and the [`EnforcerConfig`] — and every mutation is
//! staged through a [`Transaction`]:
//!
//! ```text
//! control.begin()                      // stage
//!     .add_policy(..)                  //   add / remove / replace policies
//!     .swap_database(..)               //   swap the signature database
//!     .configure(..)                   //   tweak the enforcer config
//!     .validate()  → RolloutValidation // dry-run: errors + warnings
//!     .diff()      → RolloutPlan       // typed description of the change
//!     .commit()    → GenerationId      // build tables ONCE, install everywhere
//! control.rollback(generation)         // restore a retained previous build
//! ```
//!
//! [`Transaction::commit`] compiles one fresh [`EnforcementTables`] build —
//! bumping the flow-cache epoch **exactly once** no matter how many pieces of
//! state the transaction touches — and atomically hot-swaps every registered
//! [`EnforcementEndpoint`]: a [`ShardedEnforcer`], or a
//! `Mutex<`[`ShardedEnforcer`]`>` where an NFQUEUE chain holds it.  Each
//! commit is retained as a [`GenerationRecord`]; [`ControlPlane::rollback`]
//! re-installs a retained build **without recompiling**, so flow-table
//! entries cached under that generation's epoch become servable again —
//! rolling back is behaviourally equivalent to never having committed.
//!
//! Transactions are the **only** mutation surface.  The legacy one-shot
//! mutators (`set_policies` / `set_database` / `set_tables`) are gone: each
//! was equivalent to a transaction touching a single piece of state, and
//! paired calls rebuilt the tables twice — exactly the waste a single
//! commit avoids.  Tests and embedders that want a direct swap go through a
//! one-transaction control plane, same as production.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use bp_types::{AppTag, MethodSignature};

use crate::enforcer::{
    EnforcementTables, EnforcerConfig, PolicyDelta, PolicyReuse, ShardedEnforcer,
};
use crate::faults::FaultInjector;
use crate::offline::{SignatureDatabase, TagCollision};
use crate::policy::{Policy, PolicySet};

/// Number of previous generations a [`ControlPlane`] retains for rollback by
/// default.
pub const DEFAULT_RETAIN: usize = 8;

/// Identifier of one committed control-plane generation.
///
/// Strictly increasing per [`ControlPlane`]: every successful
/// [`Transaction::commit`] that rebuilds the tables mints a fresh id.  A
/// rollback makes a *previous* id current again without minting a new one —
/// the generation is the identity of the build, not of the installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GenerationId(u64);

impl GenerationId {
    /// The numeric form of the generation.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstruct an id from its numeric form (e.g. one persisted by an
    /// operator console); whether it names a retained generation is checked
    /// by [`ControlPlane::rollback`].
    pub fn from_u64(id: u64) -> Self {
        GenerationId(id)
    }
}

impl fmt::Display for GenerationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One retained control-plane build: the compiled tables plus the interchange
/// state they were compiled from.
///
/// Records are handed to [`EnforcementEndpoint::install`] on commit and
/// rollback, and kept (bounded by the retention depth) so
/// [`ControlPlane::rollback`] can restore them without recompiling.
#[derive(Debug, Clone)]
pub struct GenerationRecord {
    id: GenerationId,
    tables: Arc<EnforcementTables>,
    /// Shared with every generation that did not swap the database.
    database: Arc<SignatureDatabase>,
    policies: PolicySet,
}

impl GenerationRecord {
    /// The generation this build was committed as.
    pub fn id(&self) -> GenerationId {
        self.id
    }

    /// The compiled tables of this generation (shared, epoch-stamped).
    pub fn tables(&self) -> Arc<EnforcementTables> {
        Arc::clone(&self.tables)
    }

    /// The signature database this generation was compiled from.
    pub fn database(&self) -> &SignatureDatabase {
        &self.database
    }

    /// The policy set this generation was compiled from.
    pub fn policies(&self) -> &PolicySet {
        &self.policies
    }

    /// The enforcer configuration of this generation (carried by the
    /// compiled tables, so record and tables can never disagree).
    pub fn config(&self) -> EnforcerConfig {
        self.tables.config()
    }
}

/// A data-plane attachment point the control plane hot-swaps on commit and
/// rollback.
///
/// Implementations must adopt the new build **atomically with respect to
/// their own inspection path**: once [`EnforcementEndpoint::install`]
/// returns, every subsequently inspected packet must be evaluated under the
/// installed generation (the enforcer's table swap and generation counter
/// guarantee this).  Only the compiled tables travel: no endpoint copies the
/// interchange state.
pub trait EnforcementEndpoint: Send + Sync {
    /// A short name for diagnostics.
    fn endpoint_name(&self) -> &str;

    /// Atomically adopt `rollout`'s build.
    fn install(&self, rollout: &GenerationRecord);
}

impl EnforcementEndpoint for ShardedEnforcer {
    fn endpoint_name(&self) -> &str {
        "policy-enforcer"
    }

    fn install(&self, rollout: &GenerationRecord) {
        self.install_tables(rollout.tables());
    }
}

/// The same enforcer behind the lock an NFQUEUE chain needs: the chain holds
/// `Arc<Mutex<dyn QueueHandler>>`, and the orphan rule keeps `QueueHandler`
/// off `Arc<ShardedEnforcer>`.
impl EnforcementEndpoint for Mutex<ShardedEnforcer> {
    fn endpoint_name(&self) -> &str {
        "policy-enforcer"
    }

    fn install(&self, rollout: &GenerationRecord) {
        self.lock().install_tables(rollout.tables());
    }
}

/// A finding that aborts a commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloutError {
    /// A policy staged as raw text failed to parse.
    UnparseablePolicy {
        /// The raw policy text.
        text: String,
        /// The parse failure.
        reason: String,
    },
    /// A rollback named a generation that is not retained (never committed,
    /// or already evicted by the retention bound).
    UnknownGeneration {
        /// The requested generation.
        requested: GenerationId,
    },
    /// A commit was rejected by validation; every blocking finding is
    /// enclosed.
    Rejected {
        /// The findings that blocked the commit.
        errors: Vec<RolloutError>,
    },
    /// A deterministic chaos plan failed this commit attempt
    /// ([`FaultPlan::fail_commits`](crate::faults::FaultPlan)): the control
    /// plane and every endpoint are left untouched, exactly as on a real
    /// rejected rollout.
    FaultInjected {
        /// Which commit attempt (0-based, counted across the control
        /// plane's lifetime) the plan failed.
        ordinal: u64,
    },
}

impl fmt::Display for RolloutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloutError::UnparseablePolicy { text, reason } => {
                write!(f, "unparseable policy {text:?}: {reason}")
            }
            RolloutError::UnknownGeneration { requested } => {
                write!(f, "generation {requested} is not retained for rollback")
            }
            RolloutError::Rejected { errors } => {
                write!(f, "rollout rejected by {} finding(s): ", errors.len())?;
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            RolloutError::FaultInjected { ordinal } => {
                write!(f, "fault plan failed commit attempt {ordinal}")
            }
        }
    }
}

impl std::error::Error for RolloutError {}

impl From<RolloutError> for bp_types::Error {
    fn from(e: RolloutError) -> Self {
        bp_types::Error::malformed("policy rollout", e.to_string())
    }
}

/// A non-blocking validation finding: the commit proceeds, but the operator
/// should know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloutWarning {
    /// The staged signature database carries a truncated-tag collision
    /// (paper §VII): the rejected app's packets will resolve against the
    /// kept app's tables.
    TagCollision(TagCollision),
    /// A staged policy's target matches nothing in the staged database — the
    /// rule is dead weight (likely a typo, or the matching app was removed).
    DeadTarget {
        /// Display form of the dead policy.
        policy: String,
    },
}

impl fmt::Display for RolloutWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloutWarning::TagCollision(c) => write!(
                f,
                "tag collision on {}: {} rejected in favour of apk {}",
                c.tag, c.rejected_package, c.existing_apk_hash
            ),
            RolloutWarning::DeadTarget { policy } => {
                write!(f, "policy {policy} matches nothing in the database")
            }
        }
    }
}

/// The outcome of a dry-run [`Transaction::validate`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RolloutValidation {
    /// Blocking findings; a non-empty list makes [`Transaction::commit`]
    /// fail with [`RolloutError::Rejected`].
    pub errors: Vec<RolloutError>,
    /// Non-blocking findings.
    pub warnings: Vec<RolloutWarning>,
}

impl RolloutValidation {
    /// True if the staged transaction would commit (warnings permitted).
    pub fn is_deployable(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The typed dry-run description of what a [`Transaction`] would change —
/// the artifact an operator reviews before committing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutPlan {
    /// The generation the plan diffs against.
    pub from_generation: GenerationId,
    /// Display forms of the policies the commit would add.
    pub policies_added: Vec<String>,
    /// Display forms of the policies the commit would remove.
    pub policies_removed: Vec<String>,
    /// Total parseable policies after the commit.
    pub policy_count: usize,
    /// Package names of applications the staged database adds.
    pub apps_added: Vec<String>,
    /// Package names of applications the staged database removes.
    pub apps_removed: Vec<String>,
    /// Total applications in the staged database.
    pub app_count: usize,
    /// The configuration change, as `(current, staged)`, if any.
    pub config_change: Option<(EnforcerConfig, EnforcerConfig)>,
    /// Whether committing would compile fresh tables (and therefore bump the
    /// flow-cache epoch, exactly once).  `false` means the commit is a no-op
    /// that returns the current generation without invalidating anything.
    pub rebuilds_tables: bool,
    /// The validation findings (same as [`Transaction::validate`]).
    pub validation: RolloutValidation,
}

impl fmt::Display for RolloutPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rollout plan (from {}):", self.from_generation)?;
        for p in &self.policies_added {
            writeln!(f, "  + policy {p}")?;
        }
        for p in &self.policies_removed {
            writeln!(f, "  - policy {p}")?;
        }
        for a in &self.apps_added {
            writeln!(f, "  + app {a}")?;
        }
        for a in &self.apps_removed {
            writeln!(f, "  - app {a}")?;
        }
        if let Some((from, to)) = &self.config_change {
            writeln!(f, "  ~ config {from:?} -> {to:?}")?;
        }
        for e in &self.validation.errors {
            writeln!(f, "  ! error: {e}")?;
        }
        for w in &self.validation.warnings {
            writeln!(f, "  ? warning: {w}")?;
        }
        writeln!(
            f,
            "  = {} policies, {} apps, {}",
            self.policy_count,
            self.app_count,
            if self.rebuilds_tables {
                "one table rebuild (one epoch bump)"
            } else {
                "no change (no rebuild)"
            }
        )
    }
}

/// The control plane: authoritative enforcement state, registered data-plane
/// endpoints, and the retained generation history.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use bp_core::control::{ControlPlane, EnforcementEndpoint};
/// use bp_core::enforcer::{EnforcerConfig, ShardedEnforcer};
/// use bp_core::offline::SignatureDatabase;
/// use bp_core::policy::{Policy, PolicySet};
/// use bp_types::EnforcementLevel;
///
/// let mut control = ControlPlane::new(
///     SignatureDatabase::new(),
///     PolicySet::new(),
///     EnforcerConfig::default(),
/// );
/// let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), 4));
/// control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
///
/// let first = control.generation();
/// let next = control
///     .begin()
///     .add_policy(Policy::deny(EnforcementLevel::Library, "com/flurry"))
///     .commit()?;
/// assert!(next > first);
/// assert_eq!(enforcer.tables().epoch(), control.tables().epoch());
///
/// control.rollback(first)?;
/// assert_eq!(control.generation(), first);
/// # Ok::<(), bp_core::control::RolloutError>(())
/// ```
#[derive(Debug)]
pub struct ControlPlane {
    endpoints: Vec<Arc<dyn EnforcementEndpoint>>,
    /// The authoritative state: the installed generation's record (the
    /// interchange forms live only here and in the retained history).
    current: Arc<GenerationRecord>,
    /// Previous generations retained for rollback, oldest first.
    history: VecDeque<Arc<GenerationRecord>>,
    retain: usize,
    next_generation: u64,
    builds: u64,
    /// Commits whose compiled policy tables were shared or incrementally
    /// extended from the previous generation instead of rebuilt from scratch.
    policy_reuses: u64,
    /// Commits that shared the previous generation's compiled signature
    /// database instead of recompiling it.
    database_reuses: u64,
    /// Deterministic fault injector; when installed, scheduled commit
    /// attempts fail with [`RolloutError::FaultInjected`] before any state
    /// is touched.
    faults: Option<Arc<FaultInjector>>,
}

impl fmt::Debug for dyn EnforcementEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EnforcementEndpoint({})", self.endpoint_name())
    }
}

impl ControlPlane {
    /// A control plane owning `database` + `policies` + `config`, compiling
    /// the initial generation immediately (the default retention depth is
    /// [`DEFAULT_RETAIN`]).
    pub fn new(database: SignatureDatabase, policies: PolicySet, config: EnforcerConfig) -> Self {
        Self::with_retain(database, policies, config, DEFAULT_RETAIN)
    }

    /// Like [`ControlPlane::new`] with an explicit rollback retention depth
    /// (at least one previous generation is always retained).
    pub fn with_retain(
        database: SignatureDatabase,
        policies: PolicySet,
        config: EnforcerConfig,
        retain: usize,
    ) -> Self {
        let tables = EnforcementTables::shared(&database, &policies, config);
        let current = Arc::new(GenerationRecord {
            id: GenerationId(1),
            tables,
            database: Arc::new(database),
            policies,
        });
        ControlPlane {
            endpoints: Vec::new(),
            current,
            history: VecDeque::new(),
            retain: retain.max(1),
            next_generation: 1,
            builds: 1,
            policy_reuses: 0,
            database_reuses: 0,
            faults: None,
        }
    }

    /// Install a deterministic fault injector: commit attempts the plan
    /// schedules ([`FaultPlan::fail_commits`](crate::faults::FaultPlan))
    /// fail with [`RolloutError::FaultInjected`], leaving the control plane
    /// and every endpoint untouched.  Pass the same injector to the data
    /// plane so one plan drives the whole chaos run.
    pub fn install_faults(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    /// Register a data-plane endpoint and install the current generation on
    /// it immediately, so registration order cannot leave an endpoint on a
    /// build the control plane never issued.
    pub fn register(&mut self, endpoint: Arc<dyn EnforcementEndpoint>) {
        endpoint.install(&self.current);
        self.endpoints.push(endpoint);
    }

    /// Number of registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Begin staging a transaction against the current state.
    pub fn begin(&mut self) -> Transaction<'_> {
        Transaction {
            plane: self,
            policy_ops: Vec::new(),
            database: None,
            config: None,
        }
    }

    /// Restore a retained previous generation: its compiled tables are
    /// re-installed at every endpoint **without recompiling** (the epoch is
    /// the one stamped when the generation was first built, so flow-table
    /// entries cached under it become servable again), and the authoritative
    /// interchange state reverts to that generation's.
    ///
    /// Returns the restored generation's id (now current again).
    ///
    /// # Errors
    ///
    /// [`RolloutError::UnknownGeneration`] if `generation` is neither current
    /// nor retained.
    pub fn rollback(&mut self, generation: GenerationId) -> Result<GenerationId, RolloutError> {
        if generation == self.current.id {
            return Ok(generation);
        }
        let Some(position) = self.history.iter().position(|r| r.id == generation) else {
            return Err(RolloutError::UnknownGeneration {
                requested: generation,
            });
        };
        let record = self.history.remove(position).expect("position just found");
        let previous = Arc::clone(&self.current);
        self.install(record);
        self.history.push_back(previous);
        self.trim_history();
        Ok(generation)
    }

    /// The current generation.
    pub fn generation(&self) -> GenerationId {
        self.current.id
    }

    /// The current generation's record.
    pub fn current(&self) -> &GenerationRecord {
        &self.current
    }

    /// The retained previous generations available to
    /// [`ControlPlane::rollback`], oldest first (the current generation is
    /// not listed).
    pub fn retained_generations(&self) -> Vec<GenerationId> {
        self.history.iter().map(|r| r.id).collect()
    }

    /// The currently installed compiled tables.
    pub fn tables(&self) -> Arc<EnforcementTables> {
        self.current.tables()
    }

    /// The authoritative signature database (the current generation's).
    pub fn database(&self) -> &SignatureDatabase {
        &self.current.database
    }

    /// The authoritative policy set (the current generation's).
    pub fn policies(&self) -> &PolicySet {
        &self.current.policies
    }

    /// The authoritative enforcer configuration (the current generation's).
    pub fn config(&self) -> EnforcerConfig {
        self.current.config()
    }

    /// Total [`EnforcementTables`] compilations this control plane has
    /// performed (each compilation bumps the flow-cache epoch exactly once).
    /// A committed transaction adds exactly one, no matter how many pieces of
    /// state it staged; a rollback adds zero.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Commits that reused the previous generation's compiled policy index —
    /// either shared outright (policies unchanged) or incrementally extended
    /// (an append-only delta compiled on top of the retained structure)
    /// instead of recompiling every rule from scratch.
    pub fn policy_index_reuses(&self) -> u64 {
        self.policy_reuses
    }

    /// Commits that shared the previous generation's compiled signature
    /// database instead of recompiling it.
    pub fn database_reuses(&self) -> u64 {
        self.database_reuses
    }

    /// Compile and install a fresh generation from the given state, reusing
    /// the previous generation's compiled artifacts where the staged delta
    /// permits (see [`EnforcementTables::next_generation`]).
    fn commit_state(
        &mut self,
        database: Arc<SignatureDatabase>,
        database_changed: bool,
        policies: PolicySet,
        delta: PolicyDelta,
        config: EnforcerConfig,
    ) -> GenerationId {
        let (tables, reuse) = EnforcementTables::next_generation(
            &self.current.tables,
            &database,
            database_changed,
            &policies,
            delta,
            config,
        );
        match reuse.policy {
            PolicyReuse::Shared | PolicyReuse::Incremental { .. } => self.policy_reuses += 1,
            PolicyReuse::Full => {}
        }
        if reuse.database_reused {
            self.database_reuses += 1;
        }
        self.builds += 1;
        self.next_generation += 1;
        let record = Arc::new(GenerationRecord {
            id: GenerationId(self.next_generation),
            tables,
            database,
            policies,
        });
        let previous = Arc::clone(&self.current);
        self.install(record);
        self.history.push_back(previous);
        self.trim_history();
        self.current.id
    }

    /// Make `record` current: hot-swap every endpoint, then adopt it as the
    /// authoritative state.
    fn install(&mut self, record: Arc<GenerationRecord>) {
        for endpoint in &self.endpoints {
            endpoint.install(&record);
        }
        self.current = record;
    }

    fn trim_history(&mut self) {
        while self.history.len() > self.retain {
            self.history.pop_front();
        }
    }
}

/// One staged policy operation; operations apply strictly in the order they
/// were staged.
#[derive(Debug, Clone)]
enum PolicyOp {
    /// Append a typed policy.
    Add(Policy),
    /// Append a policy parsed from text at validation time.
    AddText(String),
    /// Remove every policy equal to the given one staged so far.
    Remove(Policy),
    /// Reset the staged set wholesale.
    Replace(PolicySet),
}

/// A staged, not-yet-committed change to the control plane's state.
///
/// Builder-style: staging methods consume and return the transaction, so
/// changes chain; [`Transaction::validate`] and [`Transaction::diff`] are
/// dry-runs, [`Transaction::commit`] applies.  Policy operations apply **in
/// call order**: `add_policy(p)` followed by `remove_policy(&p)` nets to no
/// `p`, and vice versa.  Dropping a transaction without committing discards
/// it.
#[derive(Debug)]
pub struct Transaction<'a> {
    plane: &'a mut ControlPlane,
    policy_ops: Vec<PolicyOp>,
    database: Option<SignatureDatabase>,
    config: Option<EnforcerConfig>,
}

impl Transaction<'_> {
    /// Stage an additional policy.
    pub fn add_policy(mut self, policy: Policy) -> Self {
        self.policy_ops.push(PolicyOp::Add(policy));
        self
    }

    /// Stage an additional policy from its textual form
    /// (`{[action][level][target]}`); parse failures surface as
    /// [`RolloutError::UnparseablePolicy`] findings at validation time and
    /// block the commit.
    pub fn add_policy_text(mut self, text: impl Into<String>) -> Self {
        self.policy_ops.push(PolicyOp::AddText(text.into()));
        self
    }

    /// Stage the removal of every policy equal to `policy` staged so far
    /// (installed rules plus earlier `add_*` calls; a matching policy added
    /// *after* this call survives — operations apply in call order).
    pub fn remove_policy(mut self, policy: &Policy) -> Self {
        self.policy_ops.push(PolicyOp::Remove(policy.clone()));
        self
    }

    /// Stage a wholesale policy-set replacement, discarding the installed
    /// rules and any policy operation staged before this call (later
    /// operations apply on top of the replacement).
    pub fn replace_policies(mut self, policies: PolicySet) -> Self {
        self.policy_ops.push(PolicyOp::Replace(policies));
        self
    }

    /// Stage a signature-database swap.
    pub fn swap_database(mut self, database: SignatureDatabase) -> Self {
        self.database = Some(database);
        self
    }

    /// Stage an enforcer-configuration change.
    pub fn configure(mut self, config: EnforcerConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Resolve the staged policy set by applying the staged operations in
    /// call order, collecting parse failures instead of aborting on the
    /// first.
    fn staged_policies(&self) -> (PolicySet, Vec<RolloutError>) {
        let mut errors = Vec::new();
        // Start from a cheap clone of the installed set: `PolicySet` shares
        // its compiled-against base chunk on clone, so an append-only
        // transaction against a 100k-rule set copies pointers — and commit
        // can detect the append and extend the previous index in place.
        let mut policies = self.plane.policies().clone();
        for op in &self.policy_ops {
            match op {
                PolicyOp::Add(policy) => policies.push(policy.clone()),
                PolicyOp::AddText(text) => match text.parse::<Policy>() {
                    Ok(policy) => policies.push(policy),
                    Err(e) => errors.push(RolloutError::UnparseablePolicy {
                        text: text.clone(),
                        reason: e.to_string(),
                    }),
                },
                PolicyOp::Remove(removed) => {
                    // Rebuild (losing base sharing) only when something is
                    // actually removed; a no-op removal keeps the append-only
                    // fast path available.
                    if policies.iter().any(|p| p == removed) {
                        policies = PolicySet::from_policies(
                            policies.iter().filter(|p| *p != removed).cloned().collect(),
                        );
                    }
                }
                PolicyOp::Replace(set) => policies = set.clone(),
            }
        }
        (policies, errors)
    }

    fn staged_database(&self) -> &SignatureDatabase {
        self.database.as_ref().unwrap_or(self.plane.database())
    }

    fn staged_config(&self) -> EnforcerConfig {
        self.config.unwrap_or(self.plane.config())
    }

    /// Validation findings for an already-resolved staged policy set (shared
    /// by [`Transaction::validate`] and [`Transaction::diff`] so the staging
    /// pass runs once per call).
    fn findings(&self, policies: &PolicySet, errors: Vec<RolloutError>) -> RolloutValidation {
        let database = self.staged_database();
        let mut warnings: Vec<RolloutWarning> = database
            .collisions()
            .iter()
            .cloned()
            .map(RolloutWarning::TagCollision)
            .collect();
        // Parse the stored descriptors once, not once per policy: the
        // dead-target scan is O(policies × signatures) cheap slice matching
        // over this pre-parsed view.
        let parsed: Vec<(Option<AppTag>, Vec<MethodSignature>)> = database
            .iter()
            .map(|(tag_hex, entry)| {
                (
                    AppTag::from_hex(tag_hex),
                    entry
                        .signatures
                        .iter()
                        .filter_map(|descriptor| descriptor.parse::<MethodSignature>().ok())
                        .collect(),
                )
            })
            .collect();
        for policy in policies.iter() {
            let alive = parsed.iter().any(|(tag, signatures)| {
                tag.is_some_and(|tag| policy.matches_tag(tag))
                    || signatures.iter().any(|sig| policy.matches_signature(sig))
            });
            if !alive {
                warnings.push(RolloutWarning::DeadTarget {
                    policy: policy.to_string(),
                });
            }
        }
        RolloutValidation { errors, warnings }
    }

    /// Dry-run the staged change: parse failures are blocking errors; tag
    /// collisions recorded in the staged database and policies whose target
    /// matches nothing in it are warnings.
    pub fn validate(&self) -> RolloutValidation {
        let (policies, errors) = self.staged_policies();
        self.findings(&policies, errors)
    }

    /// Whether the staged state differs from the current state — the single
    /// rebuild predicate shared by [`Transaction::diff`] and
    /// [`Transaction::commit`], so the plan's `rebuilds_tables` always
    /// agrees with what commit does.  Policy comparison is order-sensitive:
    /// reordering rules can change which policy a drop is *attributed* to,
    /// so a reorder is a real (rebuilding) change.
    fn stages_a_change(&self, policies: &PolicySet) -> bool {
        *policies != *self.plane.policies()
            || self.database_changed()
            || self.staged_config() != self.plane.config()
    }

    /// Whether the staged database differs from the current one.  Unless a
    /// swap is staged the two are the same object, and no field is compared.
    fn database_changed(&self) -> bool {
        let (staged, current) = (self.staged_database(), self.plane.database());
        !std::ptr::eq(staged, current) && *staged != *current
    }

    /// The typed dry-run plan: what the commit would add, remove and change,
    /// plus the validation findings.
    pub fn diff(&self) -> RolloutPlan {
        let (policies, errors) = self.staged_policies();
        let database = self.staged_database();
        let config = self.staged_config();
        let rebuilds_tables = self.stages_a_change(&policies);
        let validation = self.findings(&policies, errors);

        let (policies_added, policies_removed) = diff_policies(self.plane.policies(), &policies);
        let (apps_added, apps_removed) = diff_apps(self.plane.database(), database);
        let config_change =
            (config != self.plane.config()).then_some((self.plane.config(), config));

        RolloutPlan {
            from_generation: self.plane.current.id,
            policies_added,
            policies_removed,
            policy_count: policies.len(),
            apps_added,
            apps_removed,
            app_count: database.len(),
            config_change,
            rebuilds_tables,
            validation,
        }
    }

    /// Validate and apply the staged change: compile [`EnforcementTables`]
    /// **exactly once** (one flow-cache epoch bump), atomically hot-swap
    /// every registered endpoint, retain the previous generation for
    /// rollback and return the new generation's id.
    ///
    /// A transaction that stages no effective change (the staged state equals
    /// the current state) commits as a no-op: the current generation is
    /// returned and nothing is rebuilt or invalidated.
    ///
    /// # Errors
    ///
    /// [`RolloutError::Rejected`] carrying every blocking validation finding;
    /// the control plane and all endpoints are left untouched.
    pub fn commit(mut self) -> Result<GenerationId, RolloutError> {
        // Chaos hook first: every commit *attempt* ticks the plan's ordinal
        // (so replays stay aligned), and a scheduled failure aborts before
        // validation or compilation touches anything.
        if let Some(ordinal) = self
            .plane
            .faults
            .as_ref()
            .and_then(|faults| faults.commit_should_fail())
        {
            return Err(RolloutError::FaultInjected { ordinal });
        }
        let (policies, errors) = self.staged_policies();
        if !errors.is_empty() {
            return Err(RolloutError::Rejected { errors });
        }
        if !self.stages_a_change(&policies) {
            return Ok(self.plane.current.id);
        }
        // Classify the staged policy change for the incremental compiler:
        // an append-only delta lets commit extend the previous generation's
        // index instead of recompiling every rule.
        let delta = match policies.append_split(self.plane.policies()) {
            Some(split) if split == policies.len() => PolicyDelta::Unchanged,
            Some(split) => PolicyDelta::Appended { split },
            None => PolicyDelta::Changed,
        };
        let database_changed = self.database_changed();
        let config = self.staged_config();
        // A changed database moves out of the transaction; otherwise the new
        // generation shares the current one's.
        let database = match self.database.take() {
            Some(staged) if database_changed => Arc::new(staged),
            _ => Arc::clone(&self.plane.current.database),
        };
        Ok(self
            .plane
            .commit_state(database, database_changed, policies, delta, config))
    }
}

/// Multiset difference of two policy sets, rendered for display: policies in
/// `staged` but not `current` (added) and vice versa (removed).
fn diff_policies(current: &PolicySet, staged: &PolicySet) -> (Vec<String>, Vec<String>) {
    let mut remaining: HashMap<&Policy, usize> = HashMap::new();
    for policy in current.iter() {
        *remaining.entry(policy).or_insert(0) += 1;
    }
    let mut added = Vec::new();
    for policy in staged.iter() {
        match remaining.get_mut(policy) {
            Some(count) if *count > 0 => *count -= 1,
            _ => added.push(policy.to_string()),
        }
    }
    let mut removed = Vec::new();
    for policy in current.iter() {
        if let Some(count) = remaining.get_mut(policy) {
            if *count > 0 {
                *count -= 1;
                removed.push(policy.to_string());
            }
        }
    }
    (added, removed)
}

/// Applications present in only one of the two databases, by package name.
fn diff_apps(
    current: &SignatureDatabase,
    staged: &SignatureDatabase,
) -> (Vec<String>, Vec<String>) {
    let current_tags: BTreeSet<&str> = current.iter().map(|(tag, _)| tag).collect();
    let staged_tags: BTreeSet<&str> = staged.iter().map(|(tag, _)| tag).collect();
    let added = staged
        .iter()
        .filter(|(tag, _)| !current_tags.contains(tag))
        .map(|(_, entry)| entry.package_name.clone())
        .collect();
    let removed = current
        .iter()
        .filter(|(tag, _)| !staged_tags.contains(tag))
        .map(|(_, entry)| entry.package_name.clone())
        .collect();
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::OfflineAnalyzer;
    use bp_appsim::generator::CorpusGenerator;
    use bp_types::{ApkHash, EnforcementLevel};

    fn analyzed_db() -> SignatureDatabase {
        let mut db = SignatureDatabase::new();
        OfflineAnalyzer::new()
            .analyze_into(&CorpusGenerator::solcalendar().build_apk(), &mut db)
            .unwrap();
        db
    }

    #[test]
    fn commit_mints_generations_and_retains_history() {
        let mut control =
            ControlPlane::new(analyzed_db(), PolicySet::new(), EnforcerConfig::default());
        assert_eq!(control.generation().as_u64(), 1);
        assert_eq!(control.builds(), 1);

        let g2 = control
            .begin()
            .add_policy(Policy::deny(EnforcementLevel::Library, "com/facebook"))
            .commit()
            .unwrap();
        assert_eq!(g2.as_u64(), 2);
        assert_eq!(control.builds(), 2);
        assert_eq!(control.policies().len(), 1);
        assert_eq!(
            control.retained_generations(),
            vec![GenerationId(1)],
            "the previous generation is retained for rollback"
        );
    }

    #[test]
    fn commits_that_keep_the_database_share_it() {
        let mut control =
            ControlPlane::new(analyzed_db(), PolicySet::new(), EnforcerConfig::default());
        let first = Arc::clone(&control.current.database);
        control
            .begin()
            .add_policy(Policy::deny(EnforcementLevel::Library, "com/facebook"))
            .commit()
            .unwrap();
        assert!(Arc::ptr_eq(&first, &control.current.database));

        // Swapping in an equal copy is no database change either.
        let copy = control.database().clone();
        control
            .begin()
            .swap_database(copy)
            .add_policy(Policy::deny(EnforcementLevel::Library, "com/flurry"))
            .commit()
            .unwrap();
        assert!(Arc::ptr_eq(&first, &control.current.database));
        assert_eq!(control.database_reuses(), 2);

        control
            .begin()
            .swap_database(SignatureDatabase::new())
            .commit()
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &control.current.database));
        assert_eq!(control.database().len(), 0);
        assert_eq!(control.retained_generations().len(), 3);
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let mut control =
            ControlPlane::new(analyzed_db(), PolicySet::new(), EnforcerConfig::default());
        let epoch = control.tables().epoch();
        let generation = control.begin().commit().unwrap();
        assert_eq!(generation, control.generation());
        assert_eq!(control.builds(), 1, "no rebuild for a no-op commit");
        assert_eq!(control.tables().epoch(), epoch, "no epoch bump either");

        // Staging the identical state is also a no-op.
        let identical = control.database().clone();
        let same = control
            .begin()
            .replace_policies(PolicySet::new())
            .swap_database(identical)
            .commit()
            .unwrap();
        assert_eq!(same, generation);
        assert_eq!(control.builds(), 1);
    }

    #[test]
    fn unparseable_policy_text_blocks_the_commit() {
        let mut control =
            ControlPlane::new(analyzed_db(), PolicySet::new(), EnforcerConfig::default());
        let tx = control
            .begin()
            .add_policy_text("{[deny][library]}")
            .add_policy_text("not a policy at all");
        let validation = tx.validate();
        assert_eq!(validation.errors.len(), 2);
        assert!(!validation.is_deployable());
        let err = tx.commit().unwrap_err();
        let RolloutError::Rejected { errors } = &err else {
            panic!("expected rejection, got {err:?}");
        };
        assert_eq!(errors.len(), 2);
        assert!(matches!(errors[0], RolloutError::UnparseablePolicy { .. }));
        // The failed commit changed nothing.
        assert_eq!(control.generation().as_u64(), 1);
        assert!(control.policies().is_empty());
    }

    #[test]
    fn dead_targets_and_tag_collisions_surface_as_warnings() {
        let mut db = analyzed_db();
        // Forge a truncated-tag collision: two full hashes sharing the first
        // eight bytes.
        let a = ApkHash::from_hex("00112233445566770000000000000001").unwrap();
        let b = ApkHash::from_hex("001122334455667700000000000000ff").unwrap();
        assert!(db
            .insert(a, "com.collide.first", false, Vec::new())
            .is_none());
        assert!(db
            .insert(b, "com.collide.second", false, Vec::new())
            .is_some());

        let mut control = ControlPlane::new(
            SignatureDatabase::new(),
            PolicySet::new(),
            EnforcerConfig::default(),
        );
        let tx = control
            .begin()
            .swap_database(db)
            .add_policy(Policy::deny(
                EnforcementLevel::Class,
                "com/facebook/appevents",
            ))
            .add_policy(Policy::deny(
                EnforcementLevel::Library,
                "com/definitely/absent",
            ));
        let validation = tx.validate();
        assert!(validation.is_deployable());
        assert!(validation.warnings.iter().any(|w| matches!(
            w,
            RolloutWarning::TagCollision(c) if c.rejected_package == "com.collide.second"
        )));
        // The live target is not flagged; the absent one is.
        let dead: Vec<_> = validation
            .warnings
            .iter()
            .filter_map(|w| match w {
                RolloutWarning::DeadTarget { policy } => Some(policy.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].contains("com/definitely/absent"));
        // Warnings never block.
        tx.commit().unwrap();
    }

    #[test]
    fn policy_operations_apply_in_call_order() {
        let p = Policy::deny(EnforcementLevel::Library, "com/flurry");
        let mut control = ControlPlane::new(
            SignatureDatabase::new(),
            PolicySet::new(),
            EnforcerConfig::default(),
        );

        // add then remove nets to nothing: a no-op commit.
        let g = control
            .begin()
            .add_policy(p.clone())
            .remove_policy(&p)
            .commit()
            .unwrap();
        assert_eq!(g, control.generation());
        assert!(control.policies().is_empty());

        // remove then add keeps the later add.
        control
            .begin()
            .remove_policy(&p)
            .add_policy(p.clone())
            .commit()
            .unwrap();
        assert_eq!(control.policies().len(), 1);

        // replace discards operations staged before it, keeps later ones.
        let other = Policy::deny(EnforcementLevel::Class, "com/facebook/appevents");
        control
            .begin()
            .add_policy(other.clone())
            .replace_policies(PolicySet::new())
            .add_policy(p.clone())
            .commit()
            .unwrap();
        let staged: Vec<_> = control.policies().iter().cloned().collect();
        assert_eq!(staged, vec![p]);
    }

    #[test]
    fn diff_reports_typed_changes() {
        let keep = Policy::deny(EnforcementLevel::Library, "com/flurry");
        let drop = Policy::deny(EnforcementLevel::Library, "com/facebook");
        let mut control = ControlPlane::new(
            SignatureDatabase::new(),
            PolicySet::from_policies(vec![keep.clone(), drop.clone()]),
            EnforcerConfig::default(),
        );
        let add = Policy::deny(EnforcementLevel::Class, "com/facebook/appevents");
        let tx = control
            .begin()
            .remove_policy(&drop)
            .add_policy(add.clone())
            .swap_database(analyzed_db())
            .configure(EnforcerConfig::strict());
        let plan = tx.diff();
        assert_eq!(plan.policies_added, vec![add.to_string()]);
        assert_eq!(plan.policies_removed, vec![drop.to_string()]);
        assert_eq!(plan.policy_count, 2);
        assert_eq!(
            plan.apps_added,
            vec!["net.daum.android.solcalendar".to_string()]
        );
        assert!(plan.apps_removed.is_empty());
        assert!(plan.config_change.is_some());
        assert!(plan.rebuilds_tables);
        // The rendered plan mentions every change.
        let rendered = plan.to_string();
        assert!(rendered.contains("+ policy"));
        assert!(rendered.contains("- policy"));
        assert!(rendered.contains("+ app net.daum.android.solcalendar"));
        assert!(rendered.contains("one table rebuild"));

        // A no-op transaction's plan says so.
        let idle = control.begin().diff();
        assert!(!idle.rebuilds_tables);
        assert!(idle.policies_added.is_empty());
    }

    #[test]
    fn rollback_restores_retained_builds_without_recompiling() {
        let mut control =
            ControlPlane::new(analyzed_db(), PolicySet::new(), EnforcerConfig::default());
        let g1 = control.generation();
        let g1_epoch = control.tables().epoch();

        let g2 = control
            .begin()
            .add_policy(Policy::deny(EnforcementLevel::Library, "com"))
            .commit()
            .unwrap();
        let g2_epoch = control.tables().epoch();
        assert!(g2_epoch > g1_epoch);

        // Rolling back reinstalls the retained g1 build: same epoch, no new
        // compilation, interchange state reverted.
        let builds = control.builds();
        assert_eq!(control.rollback(g1).unwrap(), g1);
        assert_eq!(control.generation(), g1);
        assert_eq!(control.tables().epoch(), g1_epoch);
        assert_eq!(control.builds(), builds);
        assert!(control.policies().is_empty());

        // And forward again: g2 is now the retained one.
        assert_eq!(control.retained_generations(), vec![g2]);
        assert_eq!(control.rollback(g2).unwrap(), g2);
        assert_eq!(control.tables().epoch(), g2_epoch);
        assert_eq!(control.policies().len(), 1);

        // Rolling back to the current generation is a no-op.
        assert_eq!(control.rollback(g2).unwrap(), g2);

        let missing = GenerationId(99);
        assert_eq!(
            control.rollback(missing).unwrap_err(),
            RolloutError::UnknownGeneration { requested: missing }
        );
    }

    #[test]
    fn retention_bound_evicts_oldest_generations() {
        let mut control = ControlPlane::with_retain(
            SignatureDatabase::new(),
            PolicySet::new(),
            EnforcerConfig::default(),
            2,
        );
        let g1 = control.generation();
        for i in 0..3 {
            control
                .begin()
                .add_policy(Policy::deny(
                    EnforcementLevel::Library,
                    format!("com/gen{i}"),
                ))
                .commit()
                .unwrap();
        }
        // g1 and g2 were evicted; only the two most recent predecessors stay.
        assert_eq!(control.retained_generations().len(), 2);
        assert!(matches!(
            control.rollback(g1),
            Err(RolloutError::UnknownGeneration { .. })
        ));
    }

    #[test]
    fn registered_endpoints_follow_commits_and_rollbacks() {
        let mut control =
            ControlPlane::new(analyzed_db(), PolicySet::new(), EnforcerConfig::default());
        let sharded = Arc::new(ShardedEnforcer::new(control.tables(), 2));
        // The locked endpoint starts on throwaway tables; registration
        // replaces them with the control plane's current build.
        let empty = EnforcementTables::shared(
            &SignatureDatabase::new(),
            &PolicySet::new(),
            EnforcerConfig::default(),
        );
        let single = Arc::new(Mutex::new(ShardedEnforcer::new(empty, 1)));
        control.register(Arc::clone(&sharded) as Arc<dyn EnforcementEndpoint>);
        control.register(Arc::clone(&single) as Arc<dyn EnforcementEndpoint>);
        assert_eq!(control.endpoint_count(), 2);
        assert_eq!(single.lock().tables().epoch(), control.tables().epoch());
        assert_eq!(single.lock().tables().database().len(), 1);

        let g1 = control.generation();
        control
            .begin()
            .add_policy(Policy::deny(EnforcementLevel::Library, "com"))
            .commit()
            .unwrap();
        assert_eq!(sharded.tables().epoch(), control.tables().epoch());
        assert_eq!(single.lock().tables().epoch(), control.tables().epoch());
        assert_eq!(single.lock().tables().policies().len(), 1);

        control.rollback(g1).unwrap();
        assert_eq!(sharded.tables().epoch(), control.tables().epoch());
        assert!(single.lock().tables().policies().is_empty());
    }
}
