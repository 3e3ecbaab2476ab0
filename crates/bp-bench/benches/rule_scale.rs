//! Rule-count scaling: the flat-table story from 3 to 100k rules.
//!
//! Three curves per workload shape (tag-heavy / stack-heavy / mixed rule
//! sets):
//!
//! * `eval_*` — per-packet evaluation cost of the indexed
//!   [`CompiledPolicySet`] against the SolCalendar analytics stack.  The
//!   tag table is one open-addressed probe and the prefix index a handful
//!   of hashed exact-key probes per frame (behind a first-segment root
//!   filter), so the curve must stay flat (within noise) as the rule count
//!   grows 3 → 100k.
//! * `commit_full_*` — latency of a transaction that replaces the whole
//!   set (full recompilation; each iteration alternates two disjoint
//!   same-size sets so every commit really compiles `n` rules).
//! * `commit_delta1_*` — latency of a transaction appending **one** rule to
//!   an installed `n`-rule set: the incremental path extends the previous
//!   generation's index instead of rebuilding it, so this must stay
//!   near-constant in `n` (the BENCH_5 `commit_1050` wart, fixed).
//!
//! [`CompiledPolicySet`]: bp_core::policy::CompiledPolicySet

use criterion::{black_box, criterion_group, Criterion};

use bp_bench::quick::{json_mode, QuickBench};
use bp_bench::{analyzed_solcalendar, synthetic_rule, synthetic_rule_set, RuleShape};
use bp_core::control::{ControlPlane, DEFAULT_RETAIN};
use bp_core::encoding::ContextEncoding;
use bp_core::enforcer::EnforcerConfig;
use bp_core::offline::SignatureDatabase;
use bp_types::{AppTag, MethodSignature};

const SCALES: [usize; 4] = [3, 1_050, 10_000, 100_000];
const SHAPES: [RuleShape; 3] = [RuleShape::TagHeavy, RuleShape::StackHeavy, RuleShape::Mixed];

/// The SolCalendar analytics workload: its app tag and resolved stack.
fn workload() -> (AppTag, Vec<MethodSignature>) {
    let app = analyzed_solcalendar();
    let stack = app
        .database
        .resolve_stack(
            app.apk.hash().tag(),
            &ContextEncoding::decode(&app.context_payload("fb-analytics"))
                .unwrap()
                .frame_indexes,
        )
        .unwrap();
    (app.apk.hash().tag(), stack)
}

/// Criterion mode: the per-packet curves (the default `cargo bench` run
/// skips the 100k commit sweeps; `--json` covers the full grid).
fn bench_eval_scaling(c: &mut Criterion) {
    let (tag, stack) = workload();
    let mut group = c.benchmark_group("rule_scale");
    for shape in SHAPES {
        for n in SCALES {
            let compiled = synthetic_rule_set(n, shape).compile();
            group.bench_function(format!("eval_{}_{n}", shape.label()), |b| {
                b.iter(|| compiled.evaluate(black_box(tag), black_box(&stack)))
            });
        }
    }
    group.finish();
}

/// `--json` quick sweep, merged into `BENCH.json`.
///
/// Row conventions: `batch` carries the rule count; commit rows use
/// runtime `"n/a"` and elements = 1 (so `ns_per_iter` is the commit
/// latency and `pkts_per_sec` commits/sec); eval rows use elements = 1 (so
/// `ns_per_iter` is per-packet nanoseconds).
fn json_sweep() {
    let (tag, stack) = workload();
    let mut quick = QuickBench::new("rule_scale");

    for shape in SHAPES {
        for n in SCALES {
            let compiled = synthetic_rule_set(n, shape).compile();
            quick.measure(&format!("eval_{}", shape.label()), 1, n, 1, || {
                criterion::black_box(compiled.evaluate(black_box(tag), black_box(&stack)));
            });
        }
    }

    // Commit sweeps run on the mixed shape (both table kinds rebuilt or
    // extended per commit).
    for n in SCALES {
        // Full recompilation: alternate two disjoint n-rule sets so every
        // commit compiles n rules from scratch.
        let sets = [
            synthetic_rule_set(n, RuleShape::Mixed),
            (n..2 * n)
                .map(|i| synthetic_rule(i, RuleShape::Mixed))
                .collect(),
        ];
        let mut control = ControlPlane::new(
            SignatureDatabase::new(),
            sets[0].clone(),
            EnforcerConfig::default(),
        );
        let mut flip = 0usize;
        quick.measure("commit_full_mixed", 1, n, 1, || {
            flip ^= 1;
            criterion::black_box(
                control
                    .begin()
                    .replace_policies(sets[flip].clone())
                    .commit()
                    .unwrap(),
            );
        });

        // One-rule delta: each commit appends a fresh unique rule, taking
        // the incremental path (the index is extended, not rebuilt).  Every
        // timed iteration grows the installed set by one, so low-n rows
        // drift toward the delta cost at the drifted size (a few thousand
        // rules over a default budget); the high-n rows — the ones the
        // flatness claim rests on — are undistorted.
        let mut control = ControlPlane::new(
            SignatureDatabase::new(),
            synthetic_rule_set(n, RuleShape::Mixed),
            EnforcerConfig::default(),
        );
        let mut next = n;
        // Fill the rollback history before timing: each of the first
        // `DEFAULT_RETAIN` commits grows the heap by one retained
        // generation, a one-time transient that is not the steady-state
        // delta cost.
        for _ in 0..2 * DEFAULT_RETAIN {
            next += 1;
            control
                .begin()
                .add_policy(synthetic_rule(next, RuleShape::Mixed))
                .commit()
                .unwrap();
        }
        quick.measure("commit_delta1_mixed", 1, n, 1, || {
            next += 1;
            criterion::black_box(
                control
                    .begin()
                    .add_policy(synthetic_rule(next, RuleShape::Mixed))
                    .commit()
                    .unwrap(),
            );
        });
        assert!(
            control.policy_index_reuses() > 0,
            "delta commits must take the incremental path"
        );
    }

    quick.finish();
}

criterion_group!(benches, bench_eval_scaling);

fn main() {
    if json_mode() {
        json_sweep();
    } else {
        benches();
    }
}
