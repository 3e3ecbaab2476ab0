//! Property-based tests over the core data structures and wire formats.

use std::sync::Arc;

use proptest::prelude::*;

use borderpatrol::core::control::{ControlPlane, EnforcementEndpoint};
use borderpatrol::core::encoding::ContextEncoding;
use borderpatrol::core::enforcer::{
    inspect_legacy, DropLog, EnforcerConfig, EnforcerCounters, EnforcerStats, ShardedEnforcer,
};

mod common;
use borderpatrol::core::offline::SignatureDatabase;
use borderpatrol::core::policy::{Policy, PolicyAction, PolicySet};
use borderpatrol::core::sanitizer::PacketSanitizer;
use borderpatrol::core::wire;
use borderpatrol::dex::{DexBuilder, DexFile, MethodTable};
use borderpatrol::netsim::addr::Endpoint;
use borderpatrol::netsim::netfilter::Verdict;
use borderpatrol::netsim::options::{IpOption, IpOptionKind, IpOptions, MAX_OPTIONS_LEN};
use borderpatrol::netsim::packet::Ipv4Packet;
use borderpatrol::types::{ApkHash, AppTag, EnforcementLevel, MethodSignature};
use common::solcalendar_fixture as enforcement_fixture;
use common::tagged_packet;

/// The two memo-free references a registered enforcer is checked against,
/// each with its own counters and drop log: the control plane's current
/// compiled tables without a flow table, and the interpretive pipeline over
/// its current interchange state.
#[derive(Default)]
struct References {
    scratch: Vec<u32>,
    compiled: (EnforcerCounters, DropLog),
    legacy: (EnforcerCounters, DropLog),
}

impl References {
    /// Both references' verdicts on `packet` under `control`'s current
    /// generation.
    fn inspect(&mut self, control: &ControlPlane, packet: &Ipv4Packet) -> [Verdict; 2] {
        let (stats, log) = &mut self.compiled;
        let compiled = control
            .tables()
            .inspect_packet(packet, &mut self.scratch, stats, log);
        let (stats, log) = &mut self.legacy;
        let (database, policies) = (control.database(), control.policies());
        let legacy = inspect_legacy(database, policies, control.config(), packet, stats, log);
        [compiled, legacy]
    }

    /// Both references' outcome counters and drop logs.
    fn outcomes(&self) -> [(EnforcerStats, Vec<String>); 2] {
        [&self.compiled, &self.legacy]
            .map(|(stats, log)| (stats.snapshot().without_flow_counters(), log.to_vec()))
    }
}

/// The enforcer's outcome counters and drop log, comparable with
/// [`References::outcomes`].
fn outcomes(enforcer: &ShardedEnforcer) -> (EnforcerStats, Vec<String>) {
    (
        enforcer.stats().without_flow_counters(),
        enforcer.drop_log(),
    )
}

fn identifier() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}".prop_map(|s| s)
}

fn package() -> impl Strategy<Value = String> {
    prop::collection::vec(identifier(), 1..4).prop_map(|segments| segments.join("/"))
}

/// Signatures drawn from a small shared segment pool, so independently
/// generated frames and rule targets collide on nested and sibling package
/// prefixes — the cases the compiled prefix index has to rank exactly like
/// the linear scan.
fn overlapping_signature() -> impl Strategy<Value = MethodSignature> {
    (
        prop::collection::vec(
            prop::sample::select(vec!["com", "a", "ab", "b", "org", "x", "y"]),
            1..4,
        ),
        prop::sample::select(vec!["A", "B", "Ab"]),
        prop::sample::select(vec!["run", "get"]),
        prop::sample::select(vec!["", "I", "IJ"]),
    )
        .prop_map(|(segments, class, method, params)| {
            MethodSignature::new(segments.join("/"), class, method, params, "V")
        })
}

/// The app-tag pool shared by rules and evaluations, small enough that hash
/// rules and probed tags collide often.
fn tag_pool() -> Vec<AppTag> {
    (0u64..3)
        .map(|i| ApkHash::digest(&i.to_le_bytes()).tag())
        .collect()
}

/// Materialize one synthetic rule tuple into a policy whose target is drawn
/// from the generated stack (so matches happen), from a fixed pool of
/// overlapping `/`-separated prefixes (so the prefix index holds nested and
/// sibling keys), or from the tag pool (so the tag table holds entries for
/// both probed and unprobed tags).
fn synthetic_policy(
    stack: &[MethodSignature],
    tags: &[AppTag],
    (allow, shape, pick, rule_tag): (bool, u8, u16, u8),
) -> Policy {
    const OVERLAPPING: &[&str] = &[
        "com", "com/a", "com/a/b", "com/ab", "com/ab/c", "org", "org/x/y",
    ];
    let action = if allow {
        PolicyAction::Allow
    } else {
        PolicyAction::Deny
    };
    let frame = (!stack.is_empty()).then(|| &stack[pick as usize % stack.len()]);
    let (level, target) = match (shape, frame) {
        (0, Some(f)) => (
            EnforcementLevel::Library,
            f.library_prefix(1 + pick as usize % 3),
        ),
        (1, Some(f)) => (EnforcementLevel::Class, f.qualified_class()),
        (2, Some(f)) => (EnforcementLevel::Method, f.to_descriptor()),
        (3, Some(f)) => (
            EnforcementLevel::Method,
            format!("L{};->{}", f.qualified_class(), f.method_name()),
        ),
        (4, _) => (
            EnforcementLevel::Hash,
            tags[rule_tag as usize % tags.len()].to_hex(),
        ),
        (5, _) => (
            EnforcementLevel::Library,
            OVERLAPPING[pick as usize % OVERLAPPING.len()].to_string(),
        ),
        (6, _) => (
            EnforcementLevel::Class,
            OVERLAPPING[pick as usize % OVERLAPPING.len()].to_string(),
        ),
        _ => (
            EnforcementLevel::Method,
            OVERLAPPING[pick as usize % OVERLAPPING.len()].to_string(),
        ),
    };
    let target = if target.is_empty() {
        "com".to_string()
    } else {
        target
    };
    Policy::new(action, level, target)
}

fn signature() -> impl Strategy<Value = MethodSignature> {
    (
        package(),
        "[A-Z][a-zA-Z0-9]{0,8}",
        identifier(),
        prop::sample::select(vec!["", "I", "Ljava/lang/String;", "IJ"]),
    )
        .prop_map(|(pkg, class, method, params)| {
            MethodSignature::new(pkg, class, method, params, "V")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn signature_descriptor_roundtrips(sig in signature()) {
        let descriptor = sig.to_descriptor();
        let parsed: MethodSignature = descriptor.parse().unwrap();
        prop_assert_eq!(parsed, sig);
    }

    #[test]
    fn packet_wire_roundtrip(
        payload in prop::collection::vec(any::<u8>(), 0..600),
        option_data in prop::collection::vec(any::<u8>(), 0..30),
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        identification in any::<u16>(),
    ) {
        let mut packet = Ipv4Packet::new(
            Endpoint::new(src, src_port),
            Endpoint::new(dst, dst_port),
            payload.clone(),
        );
        packet.set_identification(identification);
        if !option_data.is_empty() {
            packet
                .options_mut()
                .push(IpOption::new(IpOptionKind::BorderPatrolContext, option_data.clone()).unwrap())
                .unwrap();
        }
        let parsed = wire::decode_frame(&wire::encode(&packet)).unwrap();
        prop_assert_eq!(parsed.payload(), &payload[..]);
        prop_assert_eq!(parsed.source(), packet.source());
        prop_assert_eq!(parsed.destination(), packet.destination());
        prop_assert_eq!(parsed.identification(), identification);
        prop_assert_eq!(parsed.has_context_option(), !option_data.is_empty());
    }

    #[test]
    fn options_area_never_exceeds_rfc_budget(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..20), 0..6)
    ) {
        let mut options = IpOptions::new();
        for chunk in chunks {
            if let Ok(option) = IpOption::new(IpOptionKind::BorderPatrolContext, chunk) {
                // push may refuse for budget reasons; either way the invariant holds.
                let _ = options.push(option);
            }
            prop_assert!(options.encoded_len() <= MAX_OPTIONS_LEN);
            prop_assert!(options.padded_len() <= MAX_OPTIONS_LEN);
        }
        let reparsed = IpOptions::parse(&options.wire_bytes()).unwrap();
        prop_assert_eq!(reparsed.encoded_len(), options.encoded_len());
    }

    #[test]
    fn context_encoding_roundtrips_and_respects_budget(
        seed in any::<u64>(),
        narrow_indexes in prop::collection::vec(0u32..=0xffff, 0..30),
        wide_indexes in prop::collection::vec(0u32..=0x00ff_ffff, 0..30),
    ) {
        let tag = ApkHash::digest(&seed.to_le_bytes()).tag();
        for (indexes, wide) in [(narrow_indexes, false), (wide_indexes, true)] {
            let payload = ContextEncoding::encode(tag, &indexes, wide).unwrap();
            prop_assert!(payload.len() <= 38);
            let decoded = ContextEncoding::decode(&payload).unwrap();
            prop_assert_eq!(decoded.app_tag, tag);
            prop_assert_eq!(decoded.wide, wide);
            let kept = indexes.len().min(ContextEncoding::max_frames(wide));
            prop_assert_eq!(&decoded.frame_indexes[..], &indexes[..kept]);
            prop_assert_eq!(decoded.truncated, indexes.len() > kept);
        }
    }

    #[test]
    fn context_decoder_never_panics_on_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..60)) {
        let _ = ContextEncoding::decode(&data);
    }

    #[test]
    fn decode_and_decode_into_agree_on_arbitrary_payloads(
        data in prop::collection::vec(any::<u8>(), 0..60),
        garbage in prop::collection::vec(any::<u32>(), 0..8),
    ) {
        // The scratch buffer starts pre-polluted: decode_into must clear it.
        let mut scratch = garbage;
        let owned = ContextEncoding::decode(&data);
        let borrowed = ContextEncoding::decode_into(&data, &mut scratch);
        match (owned, borrowed) {
            (Ok(context), Ok(header)) => {
                prop_assert_eq!(context.app_tag, header.app_tag);
                prop_assert_eq!(context.wide, header.wide);
                prop_assert_eq!(context.truncated, header.truncated);
                prop_assert_eq!(context.frame_indexes, scratch);
            }
            (Err(owned_err), Err(borrowed_err)) => {
                prop_assert_eq!(owned_err.to_string(), borrowed_err.to_string());
            }
            (owned, borrowed) => {
                prop_assert!(
                    false,
                    "decode disagreement on {data:?}: owned {owned:?}, borrowed {borrowed:?}"
                );
            }
        }
    }

    #[test]
    fn dex_parser_never_panics_on_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = DexFile::parse(&data);
        let _ = wire::decode_frame(&data);
    }

    #[test]
    fn method_table_indexes_are_deterministic(sigs in prop::collection::vec(signature(), 1..25)) {
        let mut builder_a = DexBuilder::new();
        let mut builder_b = DexBuilder::new();
        // Insert in different orders; the table must be identical.
        for (i, sig) in sigs.iter().enumerate() {
            builder_a.add_signature(sig, (i as u32 + 1) * 10, 5);
        }
        for (i, sig) in sigs.iter().rev().enumerate() {
            builder_b.add_signature(sig, (i as u32 + 1) * 10, 5);
        }
        let table_a = MethodTable::from_dex(&builder_a.build()).unwrap();
        let table_b = MethodTable::from_dex(&builder_b.build()).unwrap();
        prop_assert_eq!(table_a.signatures(), table_b.signatures());
        // Round-trip through the binary format preserves the table.
        let dex = {
            let mut b = DexBuilder::new();
            for (i, sig) in sigs.iter().enumerate() {
                b.add_signature(sig, (i as u32 + 1) * 10, 5);
            }
            b.build()
        };
        let reparsed = DexFile::parse(&dex.to_bytes()).unwrap();
        let reparsed_table = MethodTable::from_dex(&reparsed).unwrap();
        prop_assert_eq!(reparsed_table.signatures(), table_a.signatures());
    }

    #[test]
    fn policy_grammar_roundtrips(
        action in prop::sample::select(vec![PolicyAction::Allow, PolicyAction::Deny]),
        level in prop::sample::select(vec![
            EnforcementLevel::Hash,
            EnforcementLevel::Library,
            EnforcementLevel::Class,
            EnforcementLevel::Method,
        ]),
        target in "[a-zA-Z][a-zA-Z0-9/;>()<-]{0,40}",
    ) {
        let policy = Policy::new(action, level, target);
        let reparsed: Policy = policy.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, policy);
    }

    #[test]
    fn deny_decision_is_monotone_in_the_stack(
        stack in prop::collection::vec(signature(), 1..10),
        extra in signature(),
    ) {
        // If a deny policy drops a stack, it also drops any superset of it.
        let target = stack[0].library_prefix(2);
        prop_assume!(!target.is_empty());
        let set = PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Library, target)]);
        let tag = ApkHash::digest(b"prop").tag();
        let denied = !set.evaluate(tag, &stack).is_allow();
        if denied {
            let mut bigger = stack.clone();
            bigger.push(extra);
            prop_assert!(!set.evaluate(tag, &bigger).is_allow());
        }
    }

    #[test]
    fn compiled_policy_evaluation_agrees_with_interpretive(
        stack in prop::collection::vec(signature(), 0..8),
        seed in any::<u64>(),
        rules in prop::collection::vec(
            (any::<bool>(), 0u8..6, any::<u16>(), "[a-z][a-z0-9/]{0,20}"),
            0..10,
        ),
    ) {
        let tag = ApkHash::digest(&seed.to_le_bytes()).tag();
        // Derive targets that sometimes hit the generated stack: library
        // prefixes, qualified classes and descriptors of actual frames, the
        // app tag itself, plus unrelated random targets.
        let policies: Vec<Policy> = rules
            .into_iter()
            .map(|(allow, shape, pick, random_target)| {
                let action = if allow { PolicyAction::Allow } else { PolicyAction::Deny };
                let frame = (!stack.is_empty()).then(|| &stack[pick as usize % stack.len()]);
                let (level, target) = match (shape, frame) {
                    (0, Some(frame)) => {
                        (EnforcementLevel::Library, frame.library_prefix(1 + pick as usize % 3))
                    }
                    (1, Some(frame)) => (EnforcementLevel::Class, frame.qualified_class()),
                    (2, Some(frame)) => (EnforcementLevel::Method, frame.to_descriptor()),
                    (3, Some(frame)) => (
                        EnforcementLevel::Method,
                        format!("L{};->{}", frame.qualified_class(), frame.method_name()),
                    ),
                    (4, _) => (EnforcementLevel::Hash, tag.to_hex()),
                    (5, _) => (EnforcementLevel::Method, random_target.clone()),
                    _ => (EnforcementLevel::Library, random_target.clone()),
                };
                let target = if target.is_empty() { random_target } else { target };
                Policy::new(action, level, if target.is_empty() { "x".to_string() } else { target })
            })
            .collect();
        let set = PolicySet::from_policies(policies);
        let compiled = set.compile();
        let interpreted = set.evaluate(tag, &stack);
        let fast = compiled.evaluate(tag, &stack);
        prop_assert_eq!(
            interpreted.is_allow(), fast.is_allow(),
            "set:\n{}\ninterpreted: {:?}\ncompiled: {:?}", set.to_text(), interpreted, fast
        );
    }

    #[test]
    fn compiled_single_policy_reproduces_full_decision(
        stack in prop::collection::vec(signature(), 0..6),
        seed in any::<u64>(),
        allow in any::<bool>(),
        level in prop::sample::select(vec![
            EnforcementLevel::Hash,
            EnforcementLevel::Library,
            EnforcementLevel::Class,
            EnforcementLevel::Method,
        ]),
        target in "[a-zA-Z][a-zA-Z0-9/;>()<-]{0,40}",
    ) {
        let tag = ApkHash::digest(&seed.to_le_bytes()).tag();
        let action = if allow { PolicyAction::Allow } else { PolicyAction::Deny };
        let set = PolicySet::from_policies(vec![Policy::new(action, level, target)]);
        // A single policy leaves no attribution ambiguity: the compiled path
        // must reproduce the exact Decision, reasons included.
        prop_assert_eq!(set.evaluate(tag, &stack), set.compile().evaluate(tag, &stack));
    }

    #[test]
    fn flow_cached_enforcement_matches_uncached_across_hot_swaps(
        // Each step: (flow selector, payload selector, swap selector).
        // Swap: 0..=2 leave the tables alone, 3/4 install policy set A/B,
        // 5 swaps the signature database (full ↔ empty).
        steps in prop::collection::vec((0u16..6, 0u8..5, 0u8..6), 1..60),
    ) {
        let (db, analytics, login) = enforcement_fixture();
        let policy_sets = [
            PolicySet::new(),
            PolicySet::from_policies(vec![Policy::deny(
                EnforcementLevel::Class,
                "com/facebook/appevents",
            )]),
            PolicySet::from_policies(vec![Policy::deny(EnforcementLevel::Library, "com/facebook")]),
        ];
        // A registered one-shard enforcer follows the control plane through
        // every commit; the references read the control plane's current
        // tables and interchange state directly.
        let mut control = ControlPlane::new(
            db.clone(),
            policy_sets[0].clone(),
            EnforcerConfig::default(),
        );
        let cached = Arc::new(ShardedEnforcer::new(control.tables(), 1));
        control.register(Arc::clone(&cached) as Arc<dyn EnforcementEndpoint>);
        let mut references = References::default();
        let mut database_installed = true;

        for (flow, payload_choice, swap) in steps {
            match swap {
                3 | 4 => {
                    let set = policy_sets[(swap - 2) as usize].clone();
                    control.begin().replace_policies(set).commit().unwrap();
                }
                5 => {
                    database_installed = !database_installed;
                    let next = if database_installed {
                        db.clone()
                    } else {
                        SignatureDatabase::new()
                    };
                    control.begin().swap_database(next).commit().unwrap();
                }
                _ => {}
            }

            let payload = match payload_choice {
                0 => analytics.clone(),
                1 => login.clone(),
                2 => vec![9, 9, 9], // malformed
                3 => ContextEncoding::encode(
                    ApkHash::digest(b"never-analyzed").tag(),
                    &[0, 1],
                    false,
                )
                .unwrap(), // unknown app
                _ => login.clone(), // with covert post-EOL data, below
            };
            let mut packet = Ipv4Packet::new(
                Endpoint::new([10, 0, 0, 9], 43_000 + flow),
                Endpoint::new([31, 13, 71, 36], 443),
                b"POST / HTTP/1.1".to_vec(),
            );
            packet
                .options_mut()
                .push(IpOption::new(IpOptionKind::BorderPatrolContext, payload).unwrap())
                .unwrap();
            if payload_choice == 4 {
                packet.options_mut().mark_trailing_data();
            }

            // No stale verdict: after any swap above, the very next packet
            // (and all later ones) must match both cache-free evaluations —
            // the compiled pipeline and the interpretive one.
            let verdict = cached.inspect(&packet);
            for reference in references.inspect(&control, &packet) {
                prop_assert_eq!(&verdict, &reference);
            }
        }

        // Outcome counters and drop logs agree exactly; only the flow
        // bookkeeping (hits/misses/evictions) differs between the paths.
        for reference in references.outcomes() {
            prop_assert_eq!(&outcomes(&cached), &reference);
        }
    }

    #[test]
    fn indexed_policy_evaluation_matches_linear_oracle(
        stack in prop::collection::vec(overlapping_signature(), 0..8),
        tag_pick in 0u8..3,
        rules in prop::collection::vec(
            (any::<bool>(), 0u8..8, any::<u16>(), 0u8..3),
            0..24,
        ),
    ) {
        // The indexed evaluator (tag table + prefix index) must agree with
        // the retained linear scan on the full verdict — policy and frame
        // attribution included, not just allow/deny — over rule sets dense
        // in overlapping prefixes, colliding tags, mixed allow/deny and
        // empty stacks.
        let tags = tag_pool();
        let tag = tags[tag_pick as usize % tags.len()];
        let set = PolicySet::from_policies(
            rules
                .into_iter()
                .map(|rule| synthetic_policy(&stack, &tags, rule))
                .collect(),
        );
        let compiled = set.compile();
        let indexed = compiled.evaluate_frames(tag, stack.len(), |i| &stack[i]);
        let linear = compiled.evaluate_frames_linear(tag, stack.len(), |i| &stack[i]);
        prop_assert_eq!(
            indexed, linear,
            "indexed/linear divergence\nset:\n{}\nstack: {:?}", set.to_text(), stack
        );
    }

    #[test]
    fn incremental_commit_matches_full_recompilation(
        stack in prop::collection::vec(overlapping_signature(), 0..6),
        base in prop::collection::vec(
            (any::<bool>(), 0u8..8, any::<u16>(), 0u8..3),
            1..16,
        ),
        delta in prop::collection::vec(
            (any::<bool>(), 0u8..8, any::<u16>(), 0u8..3),
            1..6,
        ),
    ) {
        let tags = tag_pool();
        let base_policies: Vec<Policy> = base
            .into_iter()
            .map(|rule| synthetic_policy(&stack, &tags, rule))
            .collect();
        let base_len = base_policies.len();
        let mut control = ControlPlane::new(
            SignatureDatabase::new(),
            PolicySet::from_policies(base_policies),
            EnforcerConfig::default(),
        );
        let mut tx = control.begin();
        for rule in delta {
            tx = tx.add_policy(synthetic_policy(&stack, &tags, rule));
        }
        tx.commit().unwrap();
        // The append-only commit must take the incremental path, reusing
        // every base rule's compiled form...
        prop_assert_eq!(control.policy_index_reuses(), 1);
        let incremental = control.tables().policies().clone();
        prop_assert_eq!(incremental.reused_rule_count(), base_len);
        // ...and still agree everywhere with a from-scratch compilation of
        // the same final set, on both the indexed and linear-oracle paths.
        let full = control.policies().compile();
        prop_assert_eq!(full.reused_rule_count(), 0);
        for probe_tag in &tags {
            let inc = incremental.evaluate_frames(*probe_tag, stack.len(), |i| &stack[i]);
            let refull = full.evaluate_frames(*probe_tag, stack.len(), |i| &stack[i]);
            let oracle =
                incremental.evaluate_frames_linear(*probe_tag, stack.len(), |i| &stack[i]);
            prop_assert_eq!(inc, refull, "incremental vs full-recompile divergence");
            prop_assert_eq!(inc, oracle, "incremental vs linear-oracle divergence");
        }
    }

    #[test]
    fn sanitizer_removes_every_context_option_and_is_idempotent(
        option_data in prop::collection::vec(any::<u8>(), 1..30),
        payload in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let mut packet = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 1], 1000),
            Endpoint::new([20, 0, 0, 2], 443),
            payload,
        );
        packet
            .options_mut()
            .push(IpOption::new(IpOptionKind::BorderPatrolContext, option_data).unwrap())
            .unwrap();
        let mut sanitizer = PacketSanitizer::new();
        sanitizer.sanitize(&mut packet);
        prop_assert!(!packet.has_context_option());
        let snapshot = packet.clone();
        sanitizer.sanitize(&mut packet);
        prop_assert_eq!(packet, snapshot);
    }
}

/// Flow-cache parity across commits of a large rule set: cached verdicts
/// must match cache-free evaluation before and after both an incremental
/// (append-only) and a full (removal-forced) recompilation of a 3k-rule
/// policy set — incremental compilation reuses index structure but must
/// still invalidate every cached verdict through the fresh epoch.
#[test]
fn flow_cache_parity_across_large_rule_set_commits() {
    let (db, analytics, login) = enforcement_fixture();
    let mut rules: Vec<Policy> = (0..3_000)
        .map(|i| Policy::deny(EnforcementLevel::Library, format!("gen/lib{i:04}")))
        .collect();
    rules.push(Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    ));
    let mut control = ControlPlane::new(
        db.clone(),
        PolicySet::from_policies(rules),
        EnforcerConfig::default(),
    );
    let cached = Arc::new(ShardedEnforcer::new(control.tables(), 1));
    control.register(Arc::clone(&cached) as Arc<dyn EnforcementEndpoint>);
    let mut references = References::default();

    let mut check = |control: &ControlPlane, label: &str| {
        for flow in 0..4u16 {
            for payload in [analytics.as_slice(), login.as_slice()] {
                // Twice per flow: the second inspect is a cache hit.
                for _ in 0..2 {
                    let packet = tagged_packet(flow, payload);
                    let verdict = cached.inspect(&packet);
                    for reference in references.inspect(control, &packet) {
                        assert_eq!(verdict, reference, "divergence after {label}");
                    }
                }
            }
        }
        for reference in references.outcomes() {
            assert_eq!(outcomes(&cached), reference, "after {label}");
        }
    };
    check(&control, "initial compile");

    // Append-only delta: extends the previous generation's index instead of
    // rebuilding it, yet cached verdicts must still be invalidated.
    control
        .begin()
        .add_policy(Policy::deny(EnforcementLevel::Library, "com/facebook"))
        .commit()
        .unwrap();
    assert_eq!(control.policy_index_reuses(), 1);
    check(&control, "incremental commit");

    // Removal of a mid-set rule cannot be expressed as an append: this
    // commit recompiles the whole set from scratch.
    control
        .begin()
        .remove_policy(&Policy::deny(EnforcementLevel::Library, "com/facebook"))
        .commit()
        .unwrap();
    assert_eq!(control.policy_index_reuses(), 1);
    check(&control, "full recompilation");
}
