//! Shared fixtures for the enforcement integration suites: the analyzed
//! SolCalendar database (built once per process — apk analysis is too slow
//! to repeat per test or proptest case) and tagged-packet/stream builders.
#![allow(dead_code)] // each test binary uses a subset of these helpers

use std::sync::OnceLock;

use borderpatrol::appsim::generator::CorpusGenerator;
use borderpatrol::core::encoding::ContextEncoding;
use borderpatrol::core::enforcer::ShardedEnforcer;
use borderpatrol::core::offline::{OfflineAnalyzer, SignatureDatabase};
use borderpatrol::dex::MethodTable;
use borderpatrol::netsim::addr::Endpoint;
use borderpatrol::netsim::netfilter::Verdict;
use borderpatrol::netsim::options::{IpOption, IpOptionKind};
use borderpatrol::netsim::packet::Ipv4Packet;

/// The analyzed SolCalendar fixture: its signature database plus the
/// Facebook-analytics and Facebook-login context payloads.
pub fn solcalendar_fixture() -> &'static (SignatureDatabase, Vec<u8>, Vec<u8>) {
    static FIXTURE: OnceLock<(SignatureDatabase, Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = CorpusGenerator::solcalendar();
        let apk = spec.build_apk();
        let mut db = SignatureDatabase::new();
        OfflineAnalyzer::new().analyze_into(&apk, &mut db).unwrap();
        let table = MethodTable::from_apk(&apk).unwrap();
        let indexes_for = |functionality: &str| -> Vec<u32> {
            spec.functionality(functionality)
                .unwrap()
                .call_chain
                .iter()
                .rev()
                .map(|sig| table.index_of(sig).unwrap())
                .collect()
        };
        let encode = |functionality| {
            ContextEncoding::encode(apk.hash().tag(), &indexes_for(functionality), false).unwrap()
        };
        (db, encode("fb-analytics"), encode("fb-login"))
    })
}

/// A packet of flow `flow` (distinct 5-tuple per value) carrying `payload`
/// as its BorderPatrol context option.
pub fn tagged_packet(flow: u16, payload: &[u8]) -> Ipv4Packet {
    let mut packet = Ipv4Packet::new(
        Endpoint::new([10, 0, (flow >> 8) as u8, flow as u8], 40_000 + flow),
        Endpoint::new([31, 13, 71, 36], 443),
        b"POST /beacon HTTP/1.1".to_vec(),
    );
    packet
        .options_mut()
        .push(IpOption::new(IpOptionKind::BorderPatrolContext, payload.to_vec()).unwrap())
        .unwrap();
    packet
}

/// A repeated-flow stream: `flows` distinct 5-tuples all carrying `payload`,
/// repeated `repeats` times (flow-major within each repeat).
pub fn stream(flows: u16, repeats: usize, payload: &[u8]) -> Vec<Ipv4Packet> {
    let mut packets = Vec::with_capacity(flows as usize * repeats);
    for _ in 0..repeats {
        for flow in 0..flows {
            packets.push(tagged_packet(flow, payload));
        }
    }
    packets
}

/// The batch-equivalence reference: drive `packets` through `enforcer` one
/// at a time with [`ShardedEnforcer::inspect`], which shares no code with
/// the batch runtime (no partitioning, no lanes, no slot array).
pub fn inspect_each(enforcer: &ShardedEnforcer, packets: &[Ipv4Packet]) -> Vec<Verdict> {
    packets
        .iter()
        .map(|packet| enforcer.inspect(packet))
        .collect()
}
