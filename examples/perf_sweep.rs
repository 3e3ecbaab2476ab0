//! Performance sweep: regenerate Fig. 4 and the connection-scaling series,
//! then sweep the data plane's batch sizes.
//!
//! Replays the paper's stress test (repeated HTTP GETs for a 297-byte page)
//! across the six stack configurations of Fig. 4 and prints the mean latency
//! per configuration, the two deltas the paper highlights (NFQUEUE consumer
//! and `getStackTrace`), and the per-connection overhead as the number of
//! connections grows into the thousands.  The final section times
//! `inspect_batch` across batch sizes on 1 and 4 shards — one shard runs on
//! the submitting thread, so the ratio is what fanning a batch of that size
//! out to worker lanes costs (or gains) on this host.
//!
//! Run with: `cargo run --release --example perf_sweep`

use std::time::Instant;

use borderpatrol::analysis::experiments::{fig4, scaling};
use borderpatrol::core::policy::Policy;
use borderpatrol::netsim::addr::Endpoint;
use borderpatrol::netsim::options::{IpOption, IpOptionKind};
use borderpatrol::netsim::packet::Ipv4Packet;
use borderpatrol::types::EnforcementLevel;
use borderpatrol::Engine;

/// Time `inspect_batch` on a fresh `shards`-shard engine, returning
/// packets/second over ~100 ms of batches.
fn batch_throughput(shards: usize, packets: &[Ipv4Packet]) -> f64 {
    let engine = Engine::builder()
        .shards(shards)
        .policy(Policy::deny(EnforcementLevel::Library, "com/flurry"))
        .build();
    let data_plane = engine.data_plane();
    let mut verdicts = Vec::with_capacity(packets.len());
    data_plane.inspect_batch_into(packets, &mut verdicts);
    let start = Instant::now();
    let mut batches = 0u64;
    while start.elapsed().as_millis() < 100 {
        data_plane.inspect_batch_into(packets, &mut verdicts);
        batches += 1;
    }
    batches as f64 * packets.len() as f64 / start.elapsed().as_secs_f64()
}

fn batch_size_sweep() {
    println!("Batch runtime: inspect_batch across batch sizes, 1 shard vs 4 shards");
    for batch in [8usize, 64, 1024] {
        let packets: Vec<Ipv4Packet> = (0..batch as u16)
            .map(|i| {
                let mut packet = Ipv4Packet::new(
                    Endpoint::new([10, 0, (i >> 8) as u8, i as u8], 40_000 + i),
                    Endpoint::new([198, 51, 100, 7], 443),
                    vec![0xA5; 64],
                );
                packet
                    .options_mut()
                    .push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![0; 9]).unwrap())
                    .unwrap();
                packet
            })
            .collect();
        let one = batch_throughput(1, &packets);
        let four = batch_throughput(4, &packets);
        println!(
            "  batch {batch:>5}: 1 shard {:>12.0} pkts/s   4 shards {:>12.0} pkts/s   ({:.2}x)",
            one,
            four,
            four / one
        );
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fig4_result = fig4::run(&fig4::Fig4Config { iterations: 1_000 })?;
    println!("{}", fig4_result.to_table());
    if let (Some(nfq), Some(stack)) = (
        fig4_result.nfqueue_overhead(),
        fig4_result.get_stack_trace_overhead(),
    ) {
        println!(
            "NFQUEUE consumer adds ~{:.1} ms per request; getStackTrace adds ~{:.1} ms — the same two\n\
             deltas the paper reports (≈1 ms and ≈1.6 ms), amortised once per socket.\n",
            nfq.as_millis_f64(),
            stack.as_millis_f64()
        );
    }

    let scaling_result = scaling::run(&scaling::ScalingConfig {
        connection_counts: vec![10, 100, 1_000, 5_000],
    })?;
    println!("{}", scaling_result.to_table());
    assert!(scaling_result.per_connection_cost_is_flat(100));
    println!("Per-connection overhead stays flat out to thousands of connections.\n");

    batch_size_sweep();
    Ok(())
}
