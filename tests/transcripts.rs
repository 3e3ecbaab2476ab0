//! Behaviour goldens for the case-study transcripts.
//!
//! `examples/quickstart.rs`, `examples/facebook_login.rs` and
//! `examples/cloud_storage.rs` print what a deployment did to a scripted
//! app session: the policy installed, which functionality was delivered or
//! blocked under each mechanism, the enforcer's counters and drop reasons.
//! Each example's whole output comes from one `transcript` function writing
//! to any `impl Write`; this binary renders each into memory and compares it
//! with `tests/fixtures/transcripts/<example>.txt` byte for byte.
//!
//! Regenerate the committed fixtures with
//! `BP_REGEN_GOLDEN=1 cargo test --test transcripts`.

use std::fs;
use std::path::PathBuf;

use borderpatrol::analysis::experiments::{case_cloud, case_facebook, quickstart};

type Transcript = fn(&mut Vec<u8>) -> Result<(), Box<dyn std::error::Error>>;

/// Each example, by name, with the function that prints its output.
const EXAMPLES: [(&str, Transcript); 3] = [
    ("quickstart", |out| quickstart::transcript(out)),
    ("facebook_login", |out| case_facebook::transcript(out)),
    ("cloud_storage", |out| case_cloud::transcript(out)),
];

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/transcripts")
        .join(format!("{name}.txt"))
}

fn render(transcript: Transcript) -> String {
    let mut out = Vec::new();
    transcript(&mut out).expect("the example runs");
    String::from_utf8(out).expect("transcripts are UTF-8")
}

#[test]
fn every_example_prints_its_committed_transcript() {
    for (name, transcript) in EXAMPLES {
        let path = fixture(name);
        let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {} (regen with BP_REGEN_GOLDEN=1): {e}",
                path.display()
            )
        });
        assert_eq!(
            render(transcript),
            committed,
            "{name} transcript drifted from the committed golden"
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
    for (name, transcript) in EXAMPLES {
        let path = fixture(name);
        fs::create_dir_all(path.parent().expect("fixture directory")).expect("create fixture dir");
        fs::write(&path, render(transcript)).expect("write transcript");
    }
}
