//! Behaviour goldens for the seeded scenario reports.
//!
//! Runs the full matrix — `chaos_fleet` and `adversarial_fleet` × seeds 1–4
//! × 1/2/4/8 shards × 1/6/40 devices, each live through
//! [`PreparedScenario::run_recorded`] and again through
//! [`PreparedScenario::replay`] of that capture — and pins every
//! [`ScenarioReport::render`] as one FNV-1a 64 digest line in
//! `tests/fixtures/reports/digests.txt`.  Each line names its scenario, seed,
//! shard count, device count and mode, so a diff says which report moved.
//! One full render per scenario kind is committed beside the digests so a
//! change can be read, not just detected; it carries that run's drop log as
//! well, because reason texts reach no report.
//!
//! Regenerate the committed fixtures with
//! `BP_REGEN_GOLDEN=1 cargo test --test reports`.

use std::fs;
use std::path::PathBuf;
use std::sync::Once;

use borderpatrol::analysis::scenario::{PreparedScenario, ScenarioReport, ScenarioSpec};
use borderpatrol::core::wire::CaptureReader;

const KINDS: [&str; 2] = ["chaos_fleet", "adversarial_fleet"];
const SEEDS: [u64; 4] = [1, 2, 3, 4];
const SHARDS: [usize; 4] = [1, 2, 4, 8];
const DEVICES: [u32; 3] = [1, 6, 40];

/// The configuration whose full render is committed for each kind.
const RENDERED: (u64, usize, u32) = (1, 2, 6);

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/reports")
}

fn spec(kind: &str, seed: u64, shards: usize, devices: u32) -> ScenarioSpec {
    match kind {
        "chaos_fleet" => ScenarioSpec::chaos_fleet("reports", devices, seed, shards),
        _ => ScenarioSpec::adversarial_fleet("reports", devices, seed, shards),
    }
}

/// Chaos schedules worker panics that the runtime absorbs; keep their
/// backtraces off stderr while leaving any other panic loud.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.starts_with("injected worker fault"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// The live report and the report replayed from its capture.
fn live_and_replay(kind: &str, seed: u64, shards: usize, devices: u32) -> [ScenarioReport; 2] {
    let prepared =
        PreparedScenario::prepare(&spec(kind, seed, shards, devices)).expect("scenario prepares");
    let (live, bytes) = prepared
        .run_recorded(Vec::new())
        .expect("recorded run completes");
    let capture = CaptureReader::parse(&bytes).expect("capture parses");
    let replay = prepared.replay(&capture).expect("capture replays");
    [live, replay]
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One digest line per report of the matrix, in a fixed order.
fn digest_lines() -> String {
    silence_injected_panics();
    let mut lines = String::new();
    for kind in KINDS {
        for seed in SEEDS {
            for shards in SHARDS {
                for devices in DEVICES {
                    let reports = live_and_replay(kind, seed, shards, devices);
                    for (mode, report) in ["live", "replay"].iter().zip(&reports) {
                        let digest = fnv1a64(report.render().as_bytes());
                        lines.push_str(&format!(
                            "{kind} seed={seed} shards={shards} devices={devices} {mode} {digest:016x}\n"
                        ));
                    }
                }
            }
        }
    }
    lines
}

/// The committed full render of one live `kind` report, followed by the
/// run's final drop log.
fn full_render(kind: &str) -> String {
    silence_injected_panics();
    let (seed, shards, devices) = RENDERED;
    let prepared =
        PreparedScenario::prepare(&spec(kind, seed, shards, devices)).expect("scenario prepares");
    let mut drop_log = Vec::new();
    let report = prepared
        .run_observed(&mut |telemetry| {
            if telemetry.tick + 1 == telemetry.ticks {
                drop_log = telemetry.enforcer.drop_log();
            }
        })
        .expect("live run completes");
    format!("{}\nDrop log\n{}\n", report.render(), drop_log.join("\n"))
}

fn committed(name: &str) -> String {
    let path = fixture_dir().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} (regen with BP_REGEN_GOLDEN=1): {e}",
            path.display()
        )
    })
}

#[test]
fn every_seeded_report_matches_its_committed_digest() {
    let lines = digest_lines();
    assert_eq!(lines.lines().count(), 192);
    let expected = committed("digests.txt");
    let moved: Vec<&str> = lines
        .lines()
        .filter(|line| !expected.lines().any(|e| e == *line))
        .collect();
    assert!(
        moved.is_empty() && lines == expected,
        "{} report digest(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// A live run and the replay of its capture are the same run: the byte
/// ingress is the one a batch takes either way, so every `live` digest
/// equals the `replay` digest of its configuration.  Read from the
/// committed digests, which the test above holds the runs to.
#[test]
fn every_live_report_equals_its_replay() {
    let digests = committed("digests.txt");
    let mut live = Vec::new();
    let mut replay = Vec::new();
    for line in digests.lines() {
        let (config, digest) = line.rsplit_once(' ').expect("config and digest");
        let (config, mode) = config.rsplit_once(' ').expect("config and mode");
        match mode {
            "live" => live.push((config, digest)),
            _ => replay.push((config, digest)),
        }
    }
    assert_eq!(live.len(), 96);
    assert_eq!(
        live.iter().map(|(config, _)| config).collect::<Vec<_>>(),
        replay.iter().map(|(config, _)| config).collect::<Vec<_>>(),
        "one replay per live run"
    );
    let diverged: Vec<&str> = live
        .iter()
        .zip(&replay)
        .filter(|(live, replay)| live.1 != replay.1)
        .map(|(live, _)| live.0)
        .collect();
    assert!(
        diverged.is_empty(),
        "{} live report(s) differ from their replay:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

#[test]
fn one_report_per_kind_matches_its_committed_render() {
    for kind in KINDS {
        assert_eq!(
            full_render(kind),
            committed(&format!("{kind}.txt")),
            "{kind} render drifted from the committed golden"
        );
    }
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
    fs::write(dir.join("digests.txt"), digest_lines()).expect("write digests");
    for kind in KINDS {
        fs::write(dir.join(format!("{kind}.txt")), full_render(kind)).expect("write render");
    }
}
