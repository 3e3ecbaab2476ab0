//! Record-and-replay walkthrough: run an adversarial fleet scenario once
//! while recording every packet batch as raw wire bytes, then replay the
//! capture — byte-for-byte, through the same in-place wire ingress the
//! engine uses for live traffic — and prove the replayed report is
//! identical to the live one, on a *different* shard count too.
//!
//! Finishes with the fail-closed half of the wire boundary: a truncated
//! frame fed to `Engine::ingest_bytes` drops with its typed `WireError`
//! reason instead of panicking or passing.
//!
//! ```sh
//! cargo run --release --example record_replay
//! ```

use borderpatrol::analysis::scenario::{PreparedScenario, ScenarioSpec};
use borderpatrol::core::wire::CaptureReader;
use borderpatrol::Engine;

fn main() {
    // A small fleet, every adversary model compromising 3% of it.
    let spec = |shards| ScenarioSpec::adversarial_fleet("record-replay", 200, 0xcaf3, shards);

    // 1. Record: one live run, every tick's frames appended to an in-memory
    //    capture (any `io::Write` sink works — a file is the usual choice).
    let recorded_on = PreparedScenario::prepare(&spec(2)).expect("scenario prepares");
    let (live_report, capture_bytes) = recorded_on
        .run_recorded(Vec::new())
        .expect("recorded run succeeds");
    println!(
        "recorded {} bytes of capture for {} packets\n",
        capture_bytes.len(),
        live_report.packets
    );

    // 2. Replay: parse the capture (seed / tick clock / tick count live in
    //    its header and are validated against the spec) and drive the raw
    //    frames through a fresh enforcement plane.
    let capture = CaptureReader::parse(&capture_bytes).expect("capture parses");
    println!(
        "capture header: seed {:#x}, {} ms/tick, {} ticks, {} frames",
        capture.header().seed,
        capture.header().tick_millis,
        capture.header().ticks,
        capture.len()
    );
    let replayed = recorded_on.replay(&capture).expect("replay succeeds");
    assert_eq!(replayed, live_report);
    assert_eq!(replayed.render(), live_report.render());
    println!("replay on 2 shards: report is byte-identical to the live run");

    // The capture is frames, not verdicts — replaying it on a different
    // shard count re-derives the same verdicts from the same bytes.
    let eight = PreparedScenario::prepare(&spec(8)).expect("scenario prepares");
    let replayed_8 = eight.replay(&capture).expect("replay succeeds");
    let live_8 = eight.run().expect("live run succeeds");
    assert_eq!(replayed_8.render(), live_8.render());
    println!("replay on 8 shards: still identical to an 8-shard live run\n");

    // 3. Fail closed: malformed bytes at the same ingress never panic —
    //    they drop with the typed decode error as the reason.
    let engine = Engine::builder().shards(2).strict().build();
    let good = &capture
        .frames()
        .next()
        .expect("capture has frames")
        .bytes
        .to_vec();
    let truncated = &good[..12];
    let verdicts = engine.ingest_bytes(&[good, truncated]);
    // The frame decodes fine, but this bare engine has no signature
    // database, so strict enforcement drops its unknown app tag — also
    // fail-closed, just one layer up.
    println!(
        "well-formed frame (app unknown to this engine): {}",
        verdicts[0]
    );
    println!("truncated frame: {}", verdicts[1]);
    assert!(!verdicts[1].is_accept());
    assert_eq!(engine.stats().dropped_wire, 1);
    println!("\nwire drops counted: {}", engine.stats().dropped_wire);
}
