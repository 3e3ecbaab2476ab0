//! Wire-codec throughput: byte-frame decoding (and encoding) on the ingress
//! path `Engine::ingest_bytes` runs in front of every enforcement verdict.
//!
//! Frames are the realistic tagged shape — base header, one BorderPatrol
//! context option, abbreviated transport ports, payload — plus the
//! trailing-data variant the sanitizer exists to catch.  `--json` emits the
//! quick rows merged into `BENCH.json`; for this bench `elements` is the
//! total *byte* count an iteration decodes, so the throughput column reads
//! as bytes/second (the wire codec's natural unit), not packets/second.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};

use bp_bench::analyzed_dropbox;
use bp_bench::quick::{json_mode, QuickBench};
use bp_core::wire::{self, WireDecoder};
use bp_netsim::addr::Endpoint;
use bp_netsim::options::{IpOption, IpOptionKind};
use bp_netsim::packet::Ipv4Packet;

const BATCH: usize = 512;

/// A batch of encoded tagged frames; `trailing` marks every frame with the
/// post-EOL trailing-data flag (worst-case options walk).
fn frames(payload_bytes: usize, trailing: bool) -> Vec<Vec<u8>> {
    let context = analyzed_dropbox().context_payload("upload");
    (0..BATCH)
        .map(|index| {
            let flow = index as u16;
            let mut packet = Ipv4Packet::new(
                Endpoint::new([10, 0, (flow >> 8) as u8, flow as u8], 40_000 + flow),
                Endpoint::new([198, 51, 100, 7], 443),
                vec![index as u8; payload_bytes],
            );
            packet
                .options_mut()
                .push(
                    IpOption::new(IpOptionKind::BorderPatrolContext, context.clone())
                        .expect("fixture context fits"),
                )
                .expect("fixture option fits packet");
            if trailing {
                packet.options_mut().mark_trailing_data();
            }
            wire::encode(&packet)
        })
        .collect()
}

fn total_bytes(frames: &[Vec<u8>]) -> u64 {
    frames.iter().map(|f| f.len() as u64).sum()
}

fn bench_wire_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode");
    for (label, payload_bytes, trailing) in [
        ("tagged_64B", 64usize, false),
        ("tagged_256B", 256, false),
        ("trailing_256B", 256, true),
    ] {
        let encoded = frames(payload_bytes, trailing);
        let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        group.throughput(Throughput::Bytes(total_bytes(&encoded)));
        group.bench_with_input(BenchmarkId::new("decode_batch", label), &refs, |b, refs| {
            let mut decoder = WireDecoder::default();
            b.iter(|| {
                let (packets, failures) = decoder.decode_batch(black_box(refs));
                assert!(failures.is_empty());
                black_box(packets.len())
            })
        });
    }

    // Encode throughput for the same canonical shape (capture recording).
    let packet = analyzed_dropbox().tagged_packet("upload");
    group.throughput(Throughput::Bytes(wire::encode(&packet).len() as u64));
    group.bench_function("encode_into/tagged_256B", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            wire::encode_into(black_box(&packet), &mut buf);
            black_box(buf.len())
        })
    });
    group.finish();
}

/// `--json` quick sweep, merged into `BENCH.json`.  `elements` is bytes
/// decoded per iteration, so `pkts_per_sec` reads as **bytes/sec** here.
fn json_sweep() {
    let mut quick = QuickBench::new("wire_decode");
    for (label, payload_bytes, trailing) in [
        ("tagged_64B_bytes", 64usize, false),
        ("tagged_256B_bytes", 256, false),
        ("trailing_256B_bytes", 256, true),
    ] {
        let encoded = frames(payload_bytes, trailing);
        let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let bytes = total_bytes(&encoded);
        let mut decoder = WireDecoder::default();
        quick.measure(label, 1, BATCH, bytes, || {
            let (packets, failures) = decoder.decode_batch(black_box(&refs));
            assert_eq!(packets.len(), BATCH);
            assert!(failures.is_empty());
        });
    }
    quick.finish();
}

criterion_group!(benches, bench_wire_decode);

fn main() {
    if json_mode() {
        json_sweep();
    } else {
        benches();
    }
}
