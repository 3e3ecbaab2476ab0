//! Performance sweep: regenerate Fig. 4 and the connection-scaling series.
//!
//! Replays the paper's stress test (repeated HTTP GETs for a 297-byte page)
//! across the six stack configurations of Fig. 4 and prints the mean latency
//! per configuration, the two deltas the paper highlights (NFQUEUE consumer
//! and `getStackTrace`), and the per-connection overhead as the number of
//! connections grows into the thousands.  Batch-size fan-out is timed by
//! the `sharded_throughput` bench.
//!
//! Run with: `cargo run --release --example perf_sweep`

use borderpatrol::analysis::experiments::{fig4, scaling};

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
    Ok(())
}
