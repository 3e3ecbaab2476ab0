//! Wire-format ingress acceptance suite: codec round-trips (property-based),
//! wire-path ≡ struct-path enforcement equivalence across shard counts, the
//! committed malformed-bytes corpus (fail-closed, exact `WireError`
//! attribution, no panics), and replayable-capture determinism against a
//! committed golden capture.
//!
//! Regenerate the committed fixtures under `tests/fixtures/wire/` with
//! `BP_REGEN_GOLDEN=1 cargo test --test wire`.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use borderpatrol::analysis::scenario::{PreparedScenario, ScenarioSpec};
use borderpatrol::core::enforcer::{
    EnforcementTables, EnforcerConfig, EnforcerStats, ShardedEnforcer, WireDropStats,
    OVERLOAD_DROP_REASON,
};
use borderpatrol::core::faults::{FaultInjector, FaultPlan};
use borderpatrol::core::policy::{Policy, PolicySet};
use borderpatrol::core::wire::{self, CaptureReader, WireError};
use borderpatrol::netsim::addr::Endpoint;
use borderpatrol::netsim::netfilter::Verdict;
use borderpatrol::netsim::options::{IpOption, IpOptionKind};
use borderpatrol::netsim::packet::{Ipv4Packet, Protocol};
use borderpatrol::types::EnforcementLevel;
use borderpatrol::Engine;

mod common;
use common::{inspect_each, solcalendar_fixture, tagged_packet};

// ---------------------------------------------------------------------------
// Property: decode(encode(p)) ≡ p
// ---------------------------------------------------------------------------

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<[u8; 4]>(), any::<u16>()).prop_map(|(ip, port)| Endpoint::new(ip, port))
}

/// Options the codec round-trips *identically*: No-Op and End-of-List are
/// excluded on purpose — `IpOptions::parse` normalizes them away (NOPs are
/// padding, EOL terminates the walk), so they are not representable in the
/// decoded form.
fn arb_option() -> impl Strategy<Value = IpOption> {
    (
        prop::sample::select(vec![
            IpOptionKind::Timestamp,
            IpOptionKind::Security,
            IpOptionKind::BorderPatrolContext,
            IpOptionKind::Other(0x7f),
        ]),
        prop::collection::vec(any::<u8>(), 0..9),
    )
        .prop_map(|(kind, data)| IpOption::new(kind, data).expect("small option fits the budget"))
}

/// Arbitrary packets covering the adversarial wire shapes: any protocol,
/// identification, TTL, up to three options (duplicates included by
/// construction) and the post-EOL trailing-data flag.
fn arb_packet() -> impl Strategy<Value = Ipv4Packet> {
    (
        arb_endpoint(),
        arb_endpoint(),
        prop::sample::select(vec![Protocol::Tcp, Protocol::Udp]),
        (any::<u16>(), any::<u8>()),
        prop::collection::vec(any::<u8>(), 0..200),
        prop::collection::vec(arb_option(), 0..4),
        any::<bool>(),
    )
        .prop_map(
            |(src, dst, protocol, (ident, ttl), payload, options, trailing)| {
                let mut packet = Ipv4Packet::with_protocol(src, dst, protocol, payload);
                packet.set_identification(ident);
                packet.set_ttl(ttl);
                for option in options {
                    packet
                        .options_mut()
                        .push(option)
                        .expect("three ≤10-byte options fit the 40-byte budget");
                }
                if trailing {
                    packet.options_mut().mark_trailing_data();
                }
                packet
            },
        )
}

/// A batch mixing every verdict-relevant packet shape over a pool of flows:
/// valid context (accept and policy-deny chains), untagged, duplicate
/// context, and post-EOL trailing data.
fn arb_batch() -> impl Strategy<Value = Vec<Ipv4Packet>> {
    let (_, analytics, login) = solcalendar_fixture();
    prop::collection::vec(
        (any::<u8>(), any::<u16>()).prop_map(move |(shape, flow)| {
            let flow = flow % 48;
            match shape % 5 {
                0 => tagged_packet(flow, analytics),
                1 => tagged_packet(flow, login),
                2 => {
                    // Untagged.
                    let mut packet = tagged_packet(flow, login);
                    packet.options_mut().clear();
                    packet
                }
                3 => {
                    // Duplicate context option.
                    let mut packet = tagged_packet(flow, analytics);
                    packet
                        .options_mut()
                        .push(
                            IpOption::new(IpOptionKind::BorderPatrolContext, vec![9, 9])
                                .expect("small option fits"),
                        )
                        .expect("fixture contexts leave room for a 4-byte duplicate");
                    packet
                }
                _ => {
                    // Covert post-EOL trailing data.
                    let mut packet = tagged_packet(flow, analytics);
                    packet.options_mut().mark_trailing_data();
                    packet
                }
            }
        }),
        1..120,
    )
}

fn deny_policies() -> PolicySet {
    PolicySet::from_policies(vec![
        Policy::deny(EnforcementLevel::Class, "com/facebook/appevents"),
        Policy::deny(EnforcementLevel::Library, "com/flurry"),
    ])
}

fn strict_tables() -> Arc<EnforcementTables> {
    static TABLES: std::sync::OnceLock<Arc<EnforcementTables>> = std::sync::OnceLock::new();
    Arc::clone(TABLES.get_or_init(|| {
        let (db, _, _) = solcalendar_fixture();
        EnforcementTables::shared(db, &deny_policies(), EnforcerConfig::strict())
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn codec_round_trips_every_expressible_packet(packet in arb_packet()) {
        let bytes = wire::encode(&packet);
        let decoded = wire::decode_frame(&bytes).expect("encoded packet decodes");
        prop_assert_eq!(&decoded, &packet);
        // Re-encoding is a fixed point: the codec is canonical.
        prop_assert_eq!(wire::encode(&decoded), bytes);
    }
}

proptest! {
    // Each case builds six sharded enforcers (worker pools included), so the
    // case count stays modest; the batches are large enough to mix shapes.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wire_path_matches_struct_path_on_every_shard_count(batch in arb_batch()) {
        let tables = strict_tables();
        let frames: Vec<Vec<u8>> = batch.iter().map(wire::encode).collect();
        let frame_refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();

        for shards in [1usize, 4, 8] {
            let struct_path = ShardedEnforcer::new(Arc::clone(&tables), shards);
            let wire_path = ShardedEnforcer::new(Arc::clone(&tables), shards);

            let mut struct_verdicts = Vec::new();
            let mut wire_verdicts = Vec::new();
            struct_path.inspect_batch_into(&batch, &mut struct_verdicts);
            wire_path.inspect_wire_batch_into(&frame_refs, &mut wire_verdicts);

            prop_assert_eq!(&wire_verdicts, &struct_verdicts, "verdicts diverged at {} shards", shards);
            prop_assert_eq!(wire_path.stats(), struct_path.stats(), "stats diverged at {} shards", shards);
            prop_assert_eq!(wire_path.drop_log(), struct_path.drop_log(), "drop logs diverged at {} shards", shards);
            prop_assert_eq!(wire_path.stats().dropped_wire, 0);
        }
    }
}

/// Damage one encoded frame — or leave it alone, half the time — so a batch
/// carries every kind of wire failure between frames that decode: a byte
/// inverted somewhere (a bad checksum in the header, a still-valid frame in
/// the payload), a truncation, a foreign version, or a frame of the
/// committed malformed corpus in its place.  No damage yields version
/// `0xB`, the one value injected corruption would flip back to 4.
fn damaged(mut frame: Vec<u8>, kind: u8, at: u16) -> Vec<u8> {
    let at = at as usize;
    match kind % 8 {
        0 => {
            let at = 1 + at % (frame.len() - 1);
            frame[at] ^= 0xFF;
        }
        1 => frame.truncate(at % frame.len()),
        2 => frame[0] = 0x60 | (frame[0] & 0x0f),
        3 => {
            let corpus = corpus();
            frame = corpus[at % corpus.len()].1.clone();
        }
        _ => {}
    }
    frame
}

/// `stats` after `failures` more frames were rejected at the wire boundary.
fn with_wire_failures(mut stats: EnforcerStats, failures: &[WireError]) -> EnforcerStats {
    let mut by = stats.dropped_wire_by.to_array();
    for error in failures {
        by[error.index()] += 1;
    }
    stats.packets_inspected += failures.len() as u64;
    stats.dropped_wire += failures.len() as u64;
    stats.dropped_wire_by = WireDropStats::from_array(by);
    stats
}

proptest! {
    // Twelve sharded enforcers per case, so the case count stays modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The in-place byte path against a reference that shares none of it:
    /// decode every frame to an owned packet (`wire::decode_frame`), run the
    /// packets that decoded through the struct path of a twin enforcer, and
    /// expect each frame that did not decode to drop with its typed reason.
    #[test]
    fn wire_path_with_malformed_frames_matches_the_per_frame_reference(
        batch in arb_batch(),
        damage in prop::collection::vec((any::<u8>(), any::<u16>()), 120),
    ) {
        let tables = strict_tables();
        let frames: Vec<Vec<u8>> = batch
            .iter()
            .zip(&damage)
            .map(|(packet, &(kind, at))| damaged(wire::encode(packet), kind, at))
            .collect();
        let frame_refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();

        for corrupt_every in [None, std::num::NonZeroU64::new(3)] {
            // What each frame decodes to once the armed plan has inverted the
            // version/IHL byte of the frames it schedules.
            let decoded: Vec<Result<Ipv4Packet, WireError>> = frames
                .iter()
                .enumerate()
                .map(|(index, frame)| {
                    let mut frame = frame.clone();
                    let corrupt = corrupt_every.is_some_and(|n| (index as u64 + 1) % n.get() == 0);
                    if let (true, Some(first)) = (corrupt, frame.first_mut()) {
                        *first ^= 0xFF;
                    }
                    wire::decode_frame(&frame)
                })
                .collect();
            let packets: Vec<Ipv4Packet> = decoded.iter().flatten().cloned().collect();
            let failures: Vec<WireError> = decoded.iter().filter_map(|d| d.as_ref().err().copied()).collect();

            for shards in [1usize, 4, 8] {
                let wire_path = ShardedEnforcer::new(Arc::clone(&tables), shards);
                let plan = FaultPlan { corrupt_every, ..FaultPlan::default() };
                wire_path.install_faults(Arc::new(FaultInjector::new(plan, shards)));
                let twin = ShardedEnforcer::new(Arc::clone(&tables), shards);

                let mut wire_verdicts = Vec::new();
                wire_path.inspect_wire_batch_into(&frame_refs, &mut wire_verdicts);
                let mut twin_verdicts = Vec::new();
                twin.inspect_batch_into(&packets, &mut twin_verdicts);

                let mut inspected = twin_verdicts.into_iter();
                let expected: Vec<Verdict> = decoded
                    .iter()
                    .map(|decoded| match decoded {
                        Ok(_) => inspected.next().expect("one verdict per decoded packet"),
                        Err(error) => Verdict::drop(error.drop_reason()),
                    })
                    .collect();
                prop_assert_eq!(&wire_verdicts, &expected, "verdicts diverged at {} shards", shards);
                prop_assert_eq!(
                    wire_path.stats(),
                    with_wire_failures(twin.stats(), &failures),
                    "stats diverged at {} shards", shards
                );
                let mut logged = wire_path.drop_log();
                let mut expected_log = twin.drop_log();
                expected_log.extend(failures.iter().map(|e| e.drop_reason().to_owned()));
                logged.sort();
                expected_log.sort();
                prop_assert_eq!(logged, expected_log, "drop logs diverged at {} shards", shards);
            }
        }
    }
}

/// Wire failures, accepts, enforcement drops and an overload watermark in
/// one batch.  The watermark counts frames that decode: the malformed ones
/// are always `dropped_wire`, the first `WATERMARK` decodable ones are
/// inspected, the rest are shed; on shard 0 the wire failures are logged
/// before the inspection drops and the sheds after them.
#[test]
fn watermark_counts_decodable_frames_and_charges_in_a_fixed_order() {
    const WATERMARK: usize = 5;
    let (_, analytics, login) = solcalendar_fixture();
    let untagged = |flow| {
        let mut packet = tagged_packet(flow, login);
        packet.options_mut().clear();
        packet
    };
    let corpus = corpus();
    let malformed = |name: &str| {
        let (_, bytes, expect) = corpus.iter().find(|(n, _, _)| *n == name).expect(name);
        let Expect::Fail(error) = expect else {
            panic!("{name} decodes");
        };
        (bytes.clone(), *error)
    };
    // Frame order: what each frame is, and the packet behind it if it decodes.
    let plan: Vec<Result<Ipv4Packet, (Vec<u8>, WireError)>> = vec![
        Ok(tagged_packet(1, login)),
        Err(malformed("bad_checksum")),
        Ok(tagged_packet(2, analytics)),
        Ok(untagged(3)),
        Err(malformed("truncated_header")),
        Ok(tagged_packet(4, login)),
        Ok(tagged_packet(5, analytics)),
        // Past the watermark from here on.
        Ok(tagged_packet(6, login)),
        Err(malformed("option_overrun")),
        Ok(tagged_packet(7, analytics)),
        Ok(tagged_packet(1, login)),
    ];
    let frames: Vec<Vec<u8>> = plan
        .iter()
        .map(|frame| match frame {
            Ok(packet) => wire::encode(packet),
            Err((bytes, _)) => bytes.clone(),
        })
        .collect();
    let frame_refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let decodable: Vec<Ipv4Packet> = plan.iter().flatten().cloned().collect();
    let failures: Vec<WireError> = plan
        .iter()
        .filter_map(|f| f.as_ref().err().map(|e| e.1))
        .collect();
    let shed = decodable.len() - WATERMARK;

    for shards in [1usize, 2, 4] {
        let enforcer = ShardedEnforcer::new(strict_tables(), shards);
        enforcer.set_overload_watermark(WATERMARK);
        let verdicts = enforcer.inspect_wire_batch(&frame_refs);

        // The reference inspects the admitted packets one at a time.
        let twin = ShardedEnforcer::new(strict_tables(), shards);
        let admitted = &decodable[..WATERMARK];
        let admitted_verdicts = inspect_each(&twin, admitted);
        assert!(admitted_verdicts.iter().any(Verdict::is_accept));
        assert!(admitted_verdicts.iter().any(|v| !v.is_accept()));

        let mut inspected = admitted_verdicts.iter().cloned();
        let expected: Vec<Verdict> = plan
            .iter()
            .map(|frame| match frame {
                Err((_, error)) => Verdict::drop(error.drop_reason()),
                Ok(_) => inspected
                    .next()
                    .unwrap_or_else(|| Verdict::drop(OVERLOAD_DROP_REASON)),
            })
            .collect();
        assert_eq!(verdicts, expected, "{shards} shards: verdicts, frame order");

        let mut expected_stats = twin.shard_stats();
        expected_stats[0] = with_wire_failures(expected_stats[0], &failures);
        expected_stats[0].packets_inspected += shed as u64;
        expected_stats[0].dropped_overload += shed as u64;
        assert_eq!(enforcer.shard_stats(), expected_stats, "{shards} shards");

        let mut expected_log: Vec<Vec<String>> = vec![Vec::new(); shards];
        expected_log[0].extend(failures.iter().map(|e| e.drop_reason().to_owned()));
        for (packet, verdict) in admitted.iter().zip(&admitted_verdicts) {
            if let Verdict::Drop { reason } = verdict {
                expected_log[twin.shard_for(packet)].push(reason.to_string());
            }
        }
        expected_log[0].extend((0..shed).map(|_| OVERLOAD_DROP_REASON.to_owned()));
        assert_eq!(
            enforcer.drop_log(),
            expected_log.concat(),
            "{shards} shards: drop log, grouped by shard"
        );
    }
}

/// Injected corruption is decided from the borrowed frame, without the copy
/// the byte flip used to be applied to: every corpus frame and every valid
/// frame must still fail with the error the flipped copy decodes to.
#[test]
fn injected_corruption_reports_what_the_flipped_copy_decodes_to() {
    let (_, analytics, login) = solcalendar_fixture();
    let mut frames: Vec<Vec<u8>> = corpus().into_iter().map(|(_, bytes, _)| bytes).collect();
    frames.extend((0..8u16).map(|flow| wire::encode(&tagged_packet(flow, login))));
    frames.push(wire::encode(&tagged_packet(9, analytics)));
    frames.push(Vec::new());
    let frame_refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();

    let enforcer = ShardedEnforcer::new(strict_tables(), 2);
    let plan = FaultPlan {
        corrupt_every: std::num::NonZeroU64::new(1),
        ..FaultPlan::default()
    };
    enforcer.install_faults(Arc::new(FaultInjector::new(plan, 2)));
    let verdicts = enforcer.inspect_wire_batch(&frame_refs);

    for (frame, verdict) in frames.iter().zip(&verdicts) {
        let mut flipped = frame.clone();
        if let Some(first) = flipped.first_mut() {
            *first ^= 0xFF;
        }
        let error = wire::decode_frame(&flipped).expect_err("a flipped version byte never decodes");
        assert_eq!(
            *verdict,
            Verdict::drop(error.drop_reason()),
            "frame {frame:02x?}"
        );
    }
    assert_eq!(enforcer.stats().dropped_wire, frames.len() as u64);
}

// ---------------------------------------------------------------------------
// Committed malformed-bytes corpus
// ---------------------------------------------------------------------------

/// What a corpus frame must do at the decode boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Decode fails with exactly this typed error.
    Fail(WireError),
    /// Decode succeeds with the trailing-data conformance flag set (the
    /// post-EOL covert channel is an *enforcement* decision, not a decode
    /// error).
    TrailingData,
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire")
}

/// Rewrite a frame's header checksum so each fixture carries exactly one
/// fault (except `bad_checksum`, whose fault *is* the checksum).
fn repair_checksum(frame: &mut [u8]) {
    let header_len = ((frame[0] & 0x0f) as usize) * 4;
    frame[10] = 0;
    frame[11] = 0;
    let ck = wire::rfc1071_checksum(&frame[..header_len.min(frame.len())]);
    frame[10..12].copy_from_slice(&ck.to_be_bytes());
}

/// The malformed-bytes corpus, generated from one well-formed tagged frame.
/// The committed `.bin` files must match these bytes exactly (the corpus
/// test diffs them), so the fixtures cannot drift from the generator.
fn corpus() -> Vec<(&'static str, Vec<u8>, Expect)> {
    let mut base = Ipv4Packet::with_protocol(
        Endpoint::new([10, 0, 0, 9], 40_009),
        Endpoint::new([198, 51, 100, 7], 443),
        Protocol::Tcp,
        b"corpus".to_vec(),
    );
    base.set_identification(0xC0DE);
    base.options_mut()
        .push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![1, 2, 3, 4]).unwrap())
        .unwrap();
    let good = wire::encode(&base);
    let area = Ipv4Packet::BASE_HEADER_LEN;

    let mut cases = Vec::new();
    let mut push = |name, bytes: Vec<u8>, expect| cases.push((name, bytes, expect));

    push(
        "truncated_header",
        good[..wire::MIN_FRAME_LEN - 1].to_vec(),
        Expect::Fail(WireError::TruncatedHeader),
    );

    let mut bad = good.clone();
    bad[0] = 0x60 | (bad[0] & 0x0f); // version 6
    push("bad_version", bad, Expect::Fail(WireError::BadVersion));

    let mut bad = good.clone();
    bad[0] = 0x44; // IHL 16 bytes, below the 20-byte base header
    repair_checksum(&mut bad);
    push("bad_ihl", bad, Expect::Fail(WireError::BadIhl));

    let mut bad = good.clone();
    bad[0] = 0x4f; // IHL 60 bytes on a frame that only carries 28
    repair_checksum(&mut bad);
    push(
        "truncated_frame",
        bad,
        Expect::Fail(WireError::TruncatedFrame),
    );

    let mut bad = good.clone();
    bad[10] ^= 0xff;
    push("bad_checksum", bad, Expect::Fail(WireError::BadChecksum));

    let mut bad = good.clone();
    bad[9] = 89; // OSPF
    repair_checksum(&mut bad);
    push(
        "unknown_protocol",
        bad,
        Expect::Fail(WireError::UnknownProtocol),
    );

    let mut bad = good.clone();
    let header_len = ((bad[0] & 0x0f) as usize) * 4;
    for b in &mut bad[area..header_len] {
        *b = 1; // No-Op padding...
    }
    bad[header_len - 1] = 68; // ...then a Timestamp option with no length byte
    repair_checksum(&mut bad);
    push(
        "truncated_option_header",
        bad,
        Expect::Fail(WireError::OptionTruncated),
    );

    let mut bad = good.clone();
    bad[area + 1] = 0; // the context option claims zero length
    repair_checksum(&mut bad);
    push(
        "zero_length_option",
        bad,
        Expect::Fail(WireError::BadOptionLength),
    );

    let mut bad = good.clone();
    bad[area + 1] = 41; // the context option's length overruns the header
    repair_checksum(&mut bad);
    push(
        "option_overrun",
        bad,
        Expect::Fail(WireError::OptionOverrun),
    );

    let mut bad = good.clone();
    let total = u16::from_be_bytes([bad[2], bad[3]]) + 1;
    bad[2..4].copy_from_slice(&total.to_be_bytes());
    repair_checksum(&mut bad);
    push(
        "length_mismatch",
        bad,
        Expect::Fail(WireError::LengthMismatch),
    );

    // Untagged packet whose options area is End-of-List + non-zero covert
    // byte: decodes fine, must still die in enforcement (fail closed).
    let mut covert = Ipv4Packet::new(
        Endpoint::new([10, 0, 0, 10], 40_010),
        Endpoint::new([198, 51, 100, 7], 443),
        b"covert".to_vec(),
    );
    covert.options_mut().mark_trailing_data();
    push(
        "post_eol_garbage",
        wire::encode(&covert),
        Expect::TrailingData,
    );

    cases
}

#[test]
fn corpus_decodes_with_exact_error_attribution_and_never_panics() {
    for (name, generated, expect) in corpus() {
        let path = fixture_dir().join(format!("{name}.bin"));
        let committed = fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "read {} (regen with BP_REGEN_GOLDEN=1): {e}",
                path.display()
            )
        });
        assert_eq!(
            committed, generated,
            "committed fixture {name}.bin drifted from the corpus generator"
        );
        match expect {
            Expect::Fail(error) => {
                assert_eq!(wire::decode_frame(&committed), Err(error), "{name}");
            }
            Expect::TrailingData => {
                let packet = wire::decode_frame(&committed).expect(name);
                assert!(packet.options().has_trailing_data(), "{name}");
            }
        }
    }
}

#[test]
fn corpus_fails_closed_through_the_engine_with_typed_reasons() {
    let (db, _, _) = solcalendar_fixture();
    let engine = Engine::builder()
        .shards(2)
        .database(db.clone())
        .policies(deny_policies())
        .config(EnforcerConfig::strict())
        .build();

    let cases = corpus();
    let frames: Vec<&[u8]> = cases.iter().map(|(_, bytes, _)| bytes.as_slice()).collect();
    let verdicts = engine.ingest_bytes(&frames);

    assert_eq!(verdicts.len(), cases.len());
    let mut wire_failures = 0u64;
    for ((name, _, expect), verdict) in cases.iter().zip(&verdicts) {
        let Verdict::Drop { reason } = verdict else {
            panic!("{name} was accepted — malformed ingress must fail closed");
        };
        if let Expect::Fail(error) = expect {
            wire_failures += 1;
            assert_eq!(reason.as_str(), error.drop_reason(), "{name}");
        }
    }

    let stats = engine.stats();
    assert_eq!(stats.packets_inspected, cases.len() as u64);
    assert_eq!(
        stats.dropped_wire, wire_failures,
        "exactly the decode failures count as wire drops"
    );
    assert_eq!(stats.total_dropped(), cases.len() as u64);
    assert_eq!(stats.packets_accepted, 0);

    // The per-variant breakdown attributes each decode failure to its exact
    // `WireError`: the corpus carries one frame per variant, so every
    // variant's counter is exactly 1, and the breakdown sums back to the
    // aggregate.
    for error in WireError::ALL {
        assert_eq!(
            stats.dropped_wire_by.get(error),
            1,
            "wire drop counter for {error} must see its one corpus frame"
        );
    }
    assert_eq!(
        stats.dropped_wire_by.total(),
        stats.dropped_wire,
        "per-variant wire counters must sum to the aggregate"
    );

    // Every wire failure left its typed reason in the drop log.
    let log = engine.data_plane().drop_log();
    for (name, _, expect) in &cases {
        if let Expect::Fail(error) = expect {
            assert!(
                log.iter()
                    .any(|entry| entry.as_str() == error.drop_reason()),
                "{name}: drop log is missing {:?}",
                error.drop_reason()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Replayable captures
// ---------------------------------------------------------------------------

const GOLDEN_DEVICES: u32 = 24;
const GOLDEN_SEED: u64 = 0x601d;

fn golden_spec(shards: usize) -> ScenarioSpec {
    ScenarioSpec::adversarial_fleet("wire-golden", GOLDEN_DEVICES, GOLDEN_SEED, shards)
}

fn prepare(shards: usize) -> PreparedScenario {
    PreparedScenario::prepare(&golden_spec(shards)).expect("golden spec prepares")
}

#[test]
fn recorded_scenario_replays_byte_identically_across_shard_counts() {
    let prepared = prepare(2);
    let live = prepared.run().expect("live run");
    let (recorded, bytes) = prepared.run_recorded(Vec::new()).expect("recorded run");
    assert_eq!(recorded, live, "recording must not perturb the run");

    let capture = CaptureReader::parse(&bytes).expect("capture parses");
    assert_eq!(capture.header().seed, GOLDEN_SEED);
    assert!(!capture.is_empty());

    for shards in [1usize, 4, 8] {
        let prepared = prepare(shards);
        let replayed = prepared.replay(&capture).expect("replay");
        let live = prepared.run().expect("live run");
        assert_eq!(
            replayed, live,
            "replay diverged from live at {shards} shards"
        );
        assert_eq!(
            replayed.render(),
            live.render(),
            "replayed render not byte-identical at {shards} shards"
        );
        assert_eq!(
            replayed.stats.dropped_wire, 0,
            "recorded frames must all decode"
        );
    }
}

#[test]
fn replay_rejects_a_mismatched_capture_header() {
    let (_, bytes) = prepare(2).run_recorded(Vec::new()).expect("recorded run");
    let capture = CaptureReader::parse(&bytes).unwrap();
    let mismatched =
        ScenarioSpec::adversarial_fleet("wire-golden", GOLDEN_DEVICES, GOLDEN_SEED + 1, 2);
    let err = PreparedScenario::prepare(&mismatched)
        .unwrap()
        .replay(&capture)
        .expect_err("seed mismatch must refuse to replay");
    assert!(err.to_string().contains("does not match"), "{err}");
}

#[test]
fn committed_golden_capture_replays_to_the_committed_report() {
    let path = fixture_dir().join("golden.bpcap");
    let bytes = fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "read {} (regen with BP_REGEN_GOLDEN=1): {e}",
            path.display()
        )
    });
    let capture = CaptureReader::parse(&bytes).expect("committed capture parses");

    let report = prepare(2)
        .replay(&capture)
        .expect("replay committed capture");
    let expected = fs::read_to_string(fixture_dir().join("golden_report.txt"))
        .expect("committed golden report (regen with BP_REGEN_GOLDEN=1)");
    assert_eq!(
        report.render(),
        expected,
        "golden capture no longer replays to the golden report"
    );
}

// ---------------------------------------------------------------------------
// Fixture regeneration (no-op unless BP_REGEN_GOLDEN=1)
// ---------------------------------------------------------------------------

#[test]
fn regen_golden_fixtures() {
    if std::env::var("BP_REGEN_GOLDEN").is_err() {
        return;
    }
    let dir = fixture_dir();
    fs::create_dir_all(&dir).expect("create fixture dir");
    for (name, bytes, _) in corpus() {
        fs::write(dir.join(format!("{name}.bin")), bytes).expect("write corpus fixture");
    }
    let prepared = prepare(2);
    let (report, bytes) = prepared
        .run_recorded(Vec::new())
        .expect("record golden scenario");
    fs::write(dir.join("golden.bpcap"), bytes).expect("write golden capture");
    fs::write(dir.join("golden_report.txt"), report.render()).expect("write golden report");
}
