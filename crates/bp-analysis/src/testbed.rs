//! The end-to-end testbed: device + enterprise network + deployment.
//!
//! A [`Testbed`] reproduces the experimental setup of §VI-A: apps are
//! installed on a provisioned device, their backend endpoints are registered
//! as WAN servers, and the egress path is configured with one of three
//! deployments — no enforcement, full BorderPatrol (Context Manager on the
//! device plus Policy Enforcer and Packet Sanitizer on the network), or a
//! pure on-network baseline.  Every functionality invocation flows through the
//! same packet path the paper's Figure 1 shows, and the testbed records the
//! outcome for the analysis modules.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use parking_lot::Mutex;

use bp_appsim::app::AppSpec;
use bp_appsim::monkey::Monkey;
use bp_baseline::{FlowSizeThreshold, IpBlocklist};
use bp_core::context::{ContextManager, SharedContextManager};
use bp_core::control::{ControlPlane, EnforcementEndpoint};
use bp_core::enforcer::{EnforcerConfig, EnforcerStats, ShardedEnforcer};
use bp_core::offline::{OfflineAnalyzer, SignatureDatabase};
use bp_core::policy::PolicySet;
use bp_core::sanitizer::PacketSanitizer;
use bp_device::device::{Device, Profile};
use bp_netsim::addr::Endpoint;
use bp_netsim::clock::{LatencyModel, SimDuration};
use bp_netsim::iface::InterfaceMode;
use bp_netsim::kernel::KernelConfig;
use bp_netsim::netfilter::{IptablesRule, RuleAction, RuleMatch};
use bp_netsim::network::{Delivery, EnterpriseNetwork};
use bp_types::{AppId, DeviceId, Error, StackTrace};

/// Which enforcement mechanism is deployed on the testbed.
#[derive(Debug, Clone)]
pub enum Deployment {
    /// No enforcement at all (profiling / baseline traffic collection).
    None,
    /// Full BorderPatrol: Context Manager on-device, Policy Enforcer and
    /// Packet Sanitizer on the network.
    BorderPatrol {
        /// The policy set installed at the enforcer.
        policies: PolicySet,
        /// Enforcer configuration.
        config: EnforcerConfig,
    },
    /// On-network IP/DNS blocklist baseline.
    IpBlocklist(IpBlocklist),
    /// On-network flow-size threshold baseline.
    FlowThreshold(FlowSizeThreshold),
}

/// The outcome of one functionality invocation driven end to end.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The app that ran.
    pub app: AppId,
    /// Name of the functionality.
    pub functionality: String,
    /// Destination address the functionality connected to.
    pub destination: Ipv4Addr,
    /// Ground-truth stack trace at connect time.
    pub stack: StackTrace,
    /// Packets that reached the WAN.
    pub packets_delivered: usize,
    /// Packets dropped inside the enterprise network.
    pub packets_dropped: usize,
    /// Component that dropped packets, if any.
    pub dropped_by: Option<String>,
    /// On-device latency contribution of the hooks.
    pub on_device_latency: SimDuration,
    /// Mean end-to-end latency of delivered packets.
    pub mean_delivery_latency: SimDuration,
}

impl RunOutcome {
    /// True if every packet of the invocation reached the WAN.
    pub fn fully_delivered(&self) -> bool {
        self.packets_dropped == 0 && self.packets_delivered > 0
    }

    /// True if every packet was dropped (the functionality is blocked).
    pub fn fully_blocked(&self) -> bool {
        self.packets_delivered == 0 && self.packets_dropped > 0
    }
}

/// The end-to-end testbed.
pub struct Testbed {
    /// The enterprise network (public so experiments can inspect captures).
    pub network: EnterpriseNetwork,
    /// The provisioned device (public so experiments can tweak the kernel).
    pub device: Device,
    database: SignatureDatabase,
    context_manager: Option<Arc<Mutex<ContextManager>>>,
    enforcer: Option<Arc<Mutex<ShardedEnforcer>>>,
    /// Control plane owning the enforcer's authoritative state (BorderPatrol
    /// deployments only); every policy/database mutation is a transaction.
    control: Option<ControlPlane>,
    sanitizer: Option<Arc<Mutex<PacketSanitizer>>>,
    host_addresses: BTreeMap<String, Ipv4Addr>,
    next_host_octet: u16,
    outcomes: Vec<RunOutcome>,
}

impl Testbed {
    /// Create a testbed with the given deployment, a TAP-backed device and the
    /// default latency model.
    pub fn new(deployment: Deployment) -> Self {
        Self::with_options(deployment, InterfaceMode::Tap, LatencyModel::default())
    }

    /// Create a testbed with explicit interface mode and latency model.
    pub fn with_options(
        deployment: Deployment,
        interface: InterfaceMode,
        latency: LatencyModel,
    ) -> Self {
        let device_id = DeviceId::new(1);
        let mut network = EnterpriseNetwork::new(latency.clone());
        network.attach_device(device_id, interface);

        let mut device = Device::new(device_id, KernelConfig::borderpatrol_prototype());
        device.set_latency_model(latency);

        let mut testbed = Testbed {
            network,
            device,
            database: SignatureDatabase::new(),
            context_manager: None,
            enforcer: None,
            control: None,
            sanitizer: None,
            host_addresses: BTreeMap::new(),
            next_host_octet: 1,
            outcomes: Vec::new(),
        };
        testbed.deploy(deployment);
        testbed
    }

    fn deploy(&mut self, deployment: Deployment) {
        match deployment {
            Deployment::None => {}
            Deployment::BorderPatrol { policies, config } => {
                let context = ContextManager::new().shared();
                self.device
                    .install_hook(Box::new(SharedContextManager(Arc::clone(&context))));
                self.context_manager = Some(context);

                // The control plane owns the authoritative state; the
                // one-shard enforcer starts on its current build and follows
                // every later commit as a registered endpoint.
                let mut control = ControlPlane::new(SignatureDatabase::new(), policies, config);
                let enforcer = Arc::new(Mutex::new(ShardedEnforcer::new(control.tables(), 1)));
                control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
                self.control = Some(control);
                let sanitizer = Arc::new(Mutex::new(PacketSanitizer::new()));
                let chain = self.network.chain_mut();
                chain.add_rule(IptablesRule {
                    matcher: RuleMatch::any(),
                    action: RuleAction::Queue(1),
                });
                chain.add_rule(IptablesRule {
                    matcher: RuleMatch::any(),
                    action: RuleAction::Queue(2),
                });
                chain.register_queue(
                    1,
                    Arc::clone(&enforcer) as Arc<Mutex<dyn bp_netsim::netfilter::QueueHandler>>,
                );
                chain.register_queue(
                    2,
                    Arc::clone(&sanitizer) as Arc<Mutex<dyn bp_netsim::netfilter::QueueHandler>>,
                );
                self.enforcer = Some(enforcer);
                self.sanitizer = Some(sanitizer);
            }
            Deployment::IpBlocklist(blocklist) => {
                let handler = Arc::new(Mutex::new(blocklist));
                let chain = self.network.chain_mut();
                chain.add_rule(IptablesRule {
                    matcher: RuleMatch::any(),
                    action: RuleAction::Queue(1),
                });
                chain.register_queue(1, handler);
            }
            Deployment::FlowThreshold(threshold) => {
                let handler = Arc::new(Mutex::new(threshold));
                let chain = self.network.chain_mut();
                chain.add_rule(IptablesRule {
                    matcher: RuleMatch::any(),
                    action: RuleAction::Queue(1),
                });
                chain.register_queue(1, handler);
            }
        }
    }

    /// Replace the enforcer's policy set through a one-shot control-plane
    /// transaction (BorderPatrol deployments only).
    pub fn install_policies(&mut self, policies: PolicySet) {
        if let Some(control) = &mut self.control {
            control
                .begin()
                .replace_policies(policies)
                .commit()
                .expect("typed policy replacement cannot be rejected");
        }
    }

    /// The control plane of a BorderPatrol deployment, for staging richer
    /// transactions (validation dry-runs, rollbacks) than
    /// [`Testbed::install_policies`] offers.
    pub fn control_plane(&mut self) -> Option<&mut ControlPlane> {
        self.control.as_mut()
    }

    /// The enforcer's statistics, if BorderPatrol is deployed.
    pub fn enforcer_stats(&self) -> Option<EnforcerStats> {
        self.enforcer.as_ref().map(|e| e.lock().stats())
    }

    /// The most recent drop reasons recorded by the enforcer.
    pub fn enforcer_drop_log(&self) -> Vec<String> {
        self.enforcer
            .as_ref()
            .map(|e| e.lock().drop_log())
            .unwrap_or_default()
    }

    /// The sanitizer statistics, if BorderPatrol is deployed.
    pub fn sanitizer_stats(&self) -> Option<bp_core::sanitizer::SanitizerStats> {
        self.sanitizer.as_ref().map(|s| s.lock().stats())
    }

    /// The signature database built by the offline analyzer for installed
    /// apps.  With BorderPatrol deployed this is the control plane's
    /// authoritative database, so out-of-band
    /// [`Testbed::control_plane`] transactions are always reflected here.
    pub fn database(&self) -> &SignatureDatabase {
        match &self.control {
            Some(control) => control.database(),
            None => &self.database,
        }
    }

    /// All recorded run outcomes.
    pub fn outcomes(&self) -> &[RunOutcome] {
        &self.outcomes
    }

    /// Forget recorded outcomes and network observations (installed apps and
    /// policies are kept).
    pub fn reset_observations(&mut self) {
        self.outcomes.clear();
        self.network.reset_observations();
        if let Some(enforcer) = &self.enforcer {
            enforcer.lock().reset_stats();
        }
    }

    fn address_for_host(&mut self, host: &str) -> Ipv4Addr {
        if let Some(ip) = self.host_addresses.get(host) {
            return *ip;
        }
        let octet = self.next_host_octet;
        self.next_host_octet += 1;
        let ip = Ipv4Addr::new(198, 51, (octet >> 8) as u8, (octet & 0xff) as u8);
        self.host_addresses.insert(host.to_string(), ip);
        ip
    }

    /// Install an app: register its endpoints as WAN servers, run the Offline
    /// Analyzer, register it with the Context Manager (if deployed) and
    /// install it into the device's work profile.
    ///
    /// # Errors
    ///
    /// Propagates apk analysis failures.
    pub fn install_app(&mut self, spec: AppSpec) -> Result<AppId, Error> {
        for host in spec.endpoint_hosts() {
            let ip = self.address_for_host(&host);
            self.network.register_server(host.clone(), ip, 297);
        }

        let apk = spec.build_apk();
        if let Some(control) = &mut self.control {
            // Stage on top of the control plane's *authoritative* database —
            // not the testbed's private copy — so entries installed through
            // `Testbed::control_plane` transactions survive later installs
            // (and `Testbed::database` reads the control plane's state).
            let mut staged = control.database().clone();
            OfflineAnalyzer::new().analyze_into(&apk, &mut staged)?;
            control.begin().swap_database(staged).commit()?;
        } else {
            OfflineAnalyzer::new().analyze_into(&apk, &mut self.database)?;
        }
        if let Some(context) = &self.context_manager {
            context.lock().register_app(&apk)?;
        }
        Ok(self.device.install_app(spec, Profile::Work))
    }

    /// The WAN address registered for a DNS host name.
    pub fn host_address(&self, host: &str) -> Option<Ipv4Addr> {
        self.host_addresses.get(host).copied()
    }

    /// Drive one functionality end to end and record the outcome.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown apps/functionalities or kernel failures;
    /// policy drops are *not* errors (they are recorded in the outcome).
    pub fn run(&mut self, app: AppId, functionality: &str) -> Result<RunOutcome, Error> {
        let spec = self
            .device
            .app(app)
            .ok_or_else(|| Error::not_found("installed app", app.to_string()))?
            .spec
            .clone();
        let host = spec
            .functionality(functionality)
            .ok_or_else(|| Error::not_found("functionality", functionality.to_string()))?
            .endpoint_host
            .clone();
        let destination_ip = self
            .host_address(&host)
            .ok_or_else(|| Error::not_found("registered host", host.clone()))?;
        let endpoint = Endpoint::from_ip(destination_ip, 443);

        let invocation = self
            .device
            .invoke_functionality(app, functionality, endpoint)?;
        let device_id = self.device.id();

        // Keep the enforcer's flow-table TTL clock in step with simulated
        // time so long-idle flows expire instead of hitting forever.
        if let Some(enforcer) = &self.enforcer {
            enforcer.lock().set_now(self.network.now());
        }

        let mut delivered = 0usize;
        let mut dropped = 0usize;
        let mut dropped_by = None;
        let mut latency_sum = SimDuration::ZERO;
        for packet in invocation.packets {
            match self.network.transmit(device_id, packet) {
                Delivery::Delivered { latency, .. } => {
                    delivered += 1;
                    latency_sum += latency;
                }
                Delivery::Dropped { by, .. } => {
                    dropped += 1;
                    dropped_by.get_or_insert(by);
                }
                Delivery::Unroutable => {
                    dropped += 1;
                    dropped_by.get_or_insert_with(|| "unroutable".to_string());
                }
            }
        }
        self.device.close_socket(invocation.socket);

        let mean_delivery_latency = if delivered > 0 {
            SimDuration::from_micros(latency_sum.as_micros() / delivered as u64)
        } else {
            SimDuration::ZERO
        };
        let outcome = RunOutcome {
            app,
            functionality: functionality.to_string(),
            destination: destination_ip,
            stack: invocation.stack,
            packets_delivered: delivered,
            packets_dropped: dropped,
            dropped_by,
            on_device_latency: invocation.on_device_latency,
            mean_delivery_latency,
        };
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    /// Inject one **raw** packet from the device's egress, bypassing the
    /// Context Manager and the hardened kernel entirely — the way a
    /// compromised device emits forged, replayed or non-conforming traffic
    /// (the packet shapes `scenario`'s adversary models synthesize).
    ///
    /// The packet traverses the full Figure-1 path: interface → filter chain
    /// (Policy Enforcer + Packet Sanitizer queues) → WAN delivery, so tests
    /// can assert both the enforcer verdict and what, if anything, reached
    /// the WAN side.
    pub fn inject_raw_packet(&mut self, packet: bp_netsim::packet::Ipv4Packet) -> Delivery {
        if let Some(enforcer) = &self.enforcer {
            enforcer.lock().set_now(self.network.now());
        }
        self.network.transmit(self.device.id(), packet)
    }

    /// Exercise an app with `events` monkey events (seeded) and run every
    /// triggered functionality end to end.  Returns the outcomes of the
    /// network-relevant events.
    ///
    /// # Errors
    ///
    /// Propagates the first execution error (policy drops are not errors).
    pub fn monkey_session(
        &mut self,
        app: AppId,
        events: usize,
        seed: u64,
    ) -> Result<Vec<RunOutcome>, Error> {
        Ok(self
            .compromised_monkey_session(app, events, seed, 0.0)?
            .outcomes)
    }

    /// Exercise a **compromised** app: like [`Testbed::monkey_session`], but
    /// events marked adversarial by [`Monkey::exercise_adversarial`] forge
    /// their context (an undecodable payload injected raw, bypassing the
    /// Context Manager) instead of running through the hooks.  Returns the
    /// legitimate outcomes plus the fate of every forged packet.
    ///
    /// # Errors
    ///
    /// Propagates the first execution error (enforcement drops — of forged
    /// *or* legitimate packets — are not errors).
    pub fn compromised_monkey_session(
        &mut self,
        app: AppId,
        events: usize,
        seed: u64,
        adversarial_probability: f64,
    ) -> Result<CompromisedSession, Error> {
        let spec = self
            .device
            .app(app)
            .ok_or_else(|| Error::not_found("installed app", app.to_string()))?
            .spec
            .clone();
        let mut monkey = Monkey::new(seed);
        let mut session = CompromisedSession::default();
        for event in monkey.exercise_adversarial(&spec, events, adversarial_probability) {
            let Some(functionality) = event.triggered else {
                continue;
            };
            if !event.adversarial {
                session.outcomes.push(self.run(app, &functionality)?);
                continue;
            }
            // The compromised app rides this connect with forged context: a
            // payload too short to decode, set directly on the packet (the
            // hardened kernel is bypassed, so no hook fixes it up).
            let host = spec
                .functionality(&functionality)
                .ok_or_else(|| Error::not_found("functionality", functionality.clone()))?
                .endpoint_host
                .clone();
            let destination = self
                .host_address(&host)
                .ok_or_else(|| Error::not_found("registered host", host))?;
            let mut packet = bp_netsim::packet::Ipv4Packet::new(
                Endpoint::new([10, 0, 0, 66], 47_000 + session.forged_packets as u16),
                Endpoint::from_ip(destination, 443),
                b"forged".to_vec(),
            );
            let forged_option = bp_netsim::options::IpOption::new(
                bp_netsim::options::IpOptionKind::BorderPatrolContext,
                vec![0xBA, 0xD0],
            )?;
            packet.options_mut().push(forged_option)?;
            session.forged_packets += 1;
            if !self.inject_raw_packet(packet).is_delivered() {
                session.forged_dropped += 1;
            }
        }
        Ok(session)
    }
}

/// What a [`Testbed::compromised_monkey_session`] produced: the well-behaved
/// outcomes plus the fate of the forged injections.
#[derive(Debug, Clone, Default)]
pub struct CompromisedSession {
    /// Outcomes of the legitimately executed functionalities.
    pub outcomes: Vec<RunOutcome>,
    /// Forged packets the compromised app injected.
    pub forged_packets: u64,
    /// How many of them the network dropped (all, if the Policy Enforcer is
    /// deployed with malformed-context drops enabled).
    pub forged_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_appsim::generator::CorpusGenerator;
    use bp_core::policy::Policy;
    use bp_types::EnforcementLevel;

    fn borderpatrol_testbed(policies: PolicySet) -> Testbed {
        Testbed::new(Deployment::BorderPatrol {
            policies,
            config: EnforcerConfig::default(),
        })
    }

    #[test]
    fn unenforced_testbed_delivers_everything() {
        let mut testbed = Testbed::new(Deployment::None);
        let app = testbed.install_app(CorpusGenerator::dropbox()).unwrap();
        let outcome = testbed.run(app, "upload").unwrap();
        assert!(outcome.fully_delivered());
        assert!(outcome.dropped_by.is_none());
        assert_eq!(testbed.outcomes().len(), 1);
    }

    #[test]
    fn borderpatrol_blocks_denied_method_but_not_others() {
        let policies = PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Method,
            "Lcom/dropbox/android/taskqueue/UploadTask;->c",
        )]);
        let mut testbed = borderpatrol_testbed(policies);
        let app = testbed.install_app(CorpusGenerator::dropbox()).unwrap();

        let upload = testbed.run(app, "upload").unwrap();
        assert!(
            upload.fully_blocked(),
            "upload should be blocked: {upload:?}"
        );
        assert_eq!(upload.dropped_by.as_deref(), Some("policy-enforcer"));

        let download = testbed.run(app, "download").unwrap();
        assert!(download.fully_delivered());
        let browse = testbed.run(app, "browse").unwrap();
        assert!(browse.fully_delivered());

        let stats = testbed.enforcer_stats().unwrap();
        assert!(stats.dropped_by_policy > 0);
        assert!(stats.packets_accepted > 0);
    }

    #[test]
    fn enforcer_flow_cache_accelerates_multi_packet_invocations() {
        let mut testbed = borderpatrol_testbed(PolicySet::new());
        let app = testbed.install_app(CorpusGenerator::dropbox()).unwrap();
        let outcome = testbed.run(app, "upload").unwrap();
        assert!(outcome.packets_delivered > 1);

        // All packets of the invocation share one flow and one context: the
        // first misses, every later one is served from the flow table.
        let stats = testbed.enforcer_stats().unwrap();
        assert_eq!(stats.flow_misses, 1);
        assert_eq!(stats.flow_hits, stats.packets_inspected - 1);
        // Verdict replay is invisible in the outcome counters.
        assert_eq!(stats.packets_accepted, stats.packets_inspected);
    }

    #[test]
    fn control_plane_database_swaps_survive_later_installs() {
        let mut testbed = borderpatrol_testbed(PolicySet::new());
        // Stage an out-of-band analyzed entry directly through the control
        // plane (the documented path for richer transactions).
        let hash = bp_types::ApkHash::digest(b"out-of-band-analysis");
        let mut custom = testbed.control_plane().unwrap().database().clone();
        custom.insert(hash, "com.custom.oob", false, Vec::new());
        testbed
            .control_plane()
            .unwrap()
            .begin()
            .swap_database(custom)
            .commit()
            .unwrap();

        // A later install stages on top of the authoritative database, so
        // the out-of-band entry survives alongside the new app's.
        testbed.install_app(CorpusGenerator::dropbox()).unwrap();
        let control = testbed.control_plane().unwrap();
        assert!(control.database().contains(hash.tag()));
        assert_eq!(control.database().len(), 2);
    }

    #[test]
    fn sanitizer_strips_context_from_delivered_packets() {
        let mut testbed = borderpatrol_testbed(PolicySet::new());
        let app = testbed.install_app(CorpusGenerator::solcalendar()).unwrap();
        testbed.run(app, "fb-login").unwrap();

        // Packets on the WAN side must not carry the context option.
        assert_eq!(
            testbed.network.post_chain_capture().packets_with_context(),
            0
        );
        // But the device did emit tagged packets (visible pre-chain).
        assert!(testbed.network.pre_chain_capture().packets_with_context() > 0);
        assert!(testbed.sanitizer_stats().unwrap().options_stripped > 0);
    }

    #[test]
    fn shared_endpoints_resolve_to_one_server() {
        let mut testbed = Testbed::new(Deployment::None);
        let sol = testbed.install_app(CorpusGenerator::solcalendar()).unwrap();
        let login = testbed.run(sol, "fb-login").unwrap();
        let analytics = testbed.run(sol, "fb-analytics").unwrap();
        assert_eq!(login.destination, analytics.destination);
        let sync = testbed.run(sol, "calendar-sync").unwrap();
        assert_ne!(login.destination, sync.destination);
    }

    #[test]
    fn monkey_session_records_outcomes() {
        let mut testbed = Testbed::new(Deployment::None);
        let app = testbed.install_app(CorpusGenerator::box_app()).unwrap();
        let outcomes = testbed.monkey_session(app, 500, 7).unwrap();
        assert!(!outcomes.is_empty());
        assert_eq!(outcomes.len(), testbed.outcomes().len());
        testbed.reset_observations();
        assert!(testbed.outcomes().is_empty());
    }

    #[test]
    fn compromised_monkey_session_forges_context_that_the_enforcer_drops() {
        let mut testbed = borderpatrol_testbed(PolicySet::new());
        let app = testbed.install_app(CorpusGenerator::box_app()).unwrap();
        let session = testbed
            .compromised_monkey_session(app, 1_500, 21, 0.4)
            .unwrap();
        // The compromised app still does legitimate work …
        assert!(!session.outcomes.is_empty());
        // … but every forged-context injection dies at the enforcer.
        assert!(session.forged_packets > 0);
        assert_eq!(session.forged_dropped, session.forged_packets);
        assert_eq!(
            testbed.enforcer_stats().unwrap().dropped_malformed,
            session.forged_packets
        );

        // Probability zero degrades to the plain monkey session.
        let clean = testbed
            .compromised_monkey_session(app, 500, 7, 0.0)
            .unwrap();
        assert_eq!(clean.forged_packets, 0);
    }

    #[test]
    fn injected_adversarial_packets_die_at_the_enforcer() {
        use bp_netsim::fleet::{trailing_data_options, PacketTemplate};

        let mut testbed = Testbed::new(Deployment::BorderPatrol {
            policies: PolicySet::new(),
            config: EnforcerConfig::strict(),
        });
        let app = testbed.install_app(CorpusGenerator::solcalendar()).unwrap();
        // A legitimate run first, so the WAN baseline is non-empty.
        assert!(testbed.run(app, "fb-login").unwrap().fully_delivered());
        let wan_before = testbed.network.egress_packet_count();
        let graph = testbed.host_address("graph.facebook.com").unwrap();
        let destination = bp_netsim::addr::Endpoint::from_ip(graph, 443);

        // Untagged injection (strict deployment) and a covert trailing-data
        // injection: both must be dropped by the enforcer, so nothing new
        // reaches the WAN-side capture.
        let untagged = PacketTemplate::new(destination, b"smuggle".to_vec());
        let delivery = testbed.inject_raw_packet(untagged.instantiate_from(99, 0));
        assert!(!delivery.is_delivered());

        let trailing = PacketTemplate::new(destination, b"covert".to_vec())
            .with_raw_options(&trailing_data_options(&[0x00; 12]).unwrap())
            .unwrap();
        let delivery = testbed.inject_raw_packet(trailing.instantiate_from(99, 1));
        assert!(!delivery.is_delivered());

        let stats = testbed.enforcer_stats().unwrap();
        assert_eq!(stats.dropped_untagged, 1);
        assert_eq!(stats.dropped_malformed, 1);
        assert_eq!(testbed.network.egress_packet_count(), wan_before);
    }

    #[test]
    fn ip_blocklist_deployment_blocks_by_destination() {
        // Block the Facebook Graph endpoint before installing: we need its IP,
        // so install into a scratch testbed first to learn the address
        // assignment, then build the real one.
        let mut scratch = Testbed::new(Deployment::None);
        scratch.install_app(CorpusGenerator::solcalendar()).unwrap();
        let graph_ip = scratch.host_address("graph.facebook.com").unwrap();

        let mut blocklist = IpBlocklist::new();
        blocklist.block_ip(graph_ip);
        let mut testbed = Testbed::new(Deployment::IpBlocklist(blocklist));
        let app = testbed.install_app(CorpusGenerator::solcalendar()).unwrap();

        // Address assignment is deterministic, so the blocklisted IP matches.
        assert_eq!(
            testbed.host_address("graph.facebook.com").unwrap(),
            graph_ip
        );
        let login = testbed.run(app, "fb-login").unwrap();
        let analytics = testbed.run(app, "fb-analytics").unwrap();
        let sync = testbed.run(app, "calendar-sync").unwrap();
        // The blocklist cannot separate login from analytics: both die.
        assert!(login.fully_blocked());
        assert!(analytics.fully_blocked());
        assert!(sync.fully_delivered());
    }

    #[test]
    fn flow_threshold_deployment_cuts_large_uploads() {
        let mut testbed = Testbed::new(Deployment::FlowThreshold(FlowSizeThreshold::new(50_000)));
        let app = testbed.install_app(CorpusGenerator::dropbox()).unwrap();
        let upload = testbed.run(app, "upload").unwrap();
        // The large upload exceeds the threshold: most packets dropped.
        assert!(upload.packets_dropped > 0);
        // Small browse flows pass.
        let browse = testbed.run(app, "browse").unwrap();
        assert!(browse.fully_delivered());
    }
}
