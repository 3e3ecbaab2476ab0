//! The five workloads: their shape, why each exists, and the property each
//! must show to be the workload it claims to be.
//!
//! `--seed` changes addresses, ports, the app mix and the frame order — never
//! anything in this file.

/// Rules every workload starts from (`bp_bench::case_study_policies`).
pub const CASE_STUDY_RULES: usize = 3;

/// Synthetic rules added on top for the rule-heavy workloads; none of them
/// matches any generated context, so evaluation always runs to completion.
pub const SCALE_RULES: usize = 10_000;

/// What the traffic of a workload is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One accepted frame per flow; a pass visits every flow once.
    AcceptOnly,
    /// One frame per flow, each dropped by a deny rule (a layer fixture, not
    /// one of the five workloads).
    DenyOnly,
    /// 90% hostile frames (every wire error and every enforcement drop) on
    /// their own flow keys, 10% legitimate frames on a few cached flows.
    Attack,
}

/// The property that makes a workload the one it claims to be, checked on
/// the counters of every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Property {
    /// The flow table serves at least this share of tagged packets.
    HitShareAtLeast(f64),
    /// The flow table serves at most this share of tagged packets.
    HitShareAtMost(f64),
    /// Exactly this share hits: every commit sends every flow through the
    /// slow path once and nothing else misses.
    HitShareExactly(f64),
    /// This share of packets is dropped (± 0.01) and every drop reason and
    /// every wire error occurs.
    DropShare(f64),
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Data-plane shards.
    pub shards: usize,
    /// Frames per `ingest_bytes_into` call.
    pub batch: usize,
    /// Frames in one pass over the frame set.
    pub frames: usize,
    /// Flows whose verdict the flow table is meant to hold.
    pub cached_flows: usize,
    /// Flow-table capacity per shard.
    pub flow_capacity: usize,
    /// Synthetic rules on top of [`CASE_STUDY_RULES`].
    pub extra_rules: usize,
    /// Payload sizes in bytes with their weights.
    pub payloads: &'static [(usize, u32)],
    /// Traffic composition.
    pub mix: Mix,
    /// Passes over the frame set in one slice.  Work the engine does only
    /// every so many passes (a full flow table compacts its LRU queue about
    /// every seventh) must recur within a slice, or the fastest slices are
    /// simply the ones that skipped it.
    pub passes_per_slice: usize,
    /// Poll a `bp_obs::Collector` inline after every this many batches (0 = never).
    pub poll_every: usize,
    /// Commit a policy transaction after every this many batches (0 = never):
    /// three append-only commits, then one `replace_policies` back to the
    /// base set, so that every fourth commit ends where the first began.
    pub commit_every: usize,
    /// The defining property.
    pub property: Property,
}

impl Workload {
    /// Rules installed at set-up.
    pub fn rules(&self) -> usize {
        CASE_STUDY_RULES + self.extra_rules
    }

    /// `ingest_bytes_into` calls in one slice.
    pub fn batches_per_slice(&self) -> usize {
        self.passes_per_slice * self.frames.div_ceil(self.batch)
    }

    /// Packets in one slice.
    pub fn packets_per_slice(&self) -> u64 {
        (self.passes_per_slice * self.frames) as u64
    }

    /// Commits in one slice.
    pub fn commits_per_slice(&self) -> usize {
        match self.commit_every {
            0 => 0,
            every => self.batches_per_slice() / every,
        }
    }
}

const SMALL_PAYLOAD: &[(usize, u32)] = &[(64, 1)];

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady_accept",
        why: "4096 cached flows, all accepted, batch 256, mixed payload sizes: the fast path (wire decode, routing, flow probe); the no-change control for drop path, slow path and per-batch cost",
        shards: 2,
        batch: 256,
        frames: 4096,
        cached_flows: 4096,
        flow_capacity: 4096,
        extra_rules: 0,
        payloads: &[(64, 50), (576, 30), (1400, 20)],
        mix: Mix::AcceptOnly,
        passes_per_slice: 8,
        poll_every: 0,
        commit_every: 0,
        property: Property::HitShareAtLeast(0.99),
    },
    Workload {
        name: "small_batch",
        why: "the same cached flows at batch 8 with an inline collector poll every 1024 batches: per-batch fixed cost (submit, ring, wake, wait, telemetry publish) dominates",
        shards: 2,
        batch: 8,
        frames: 4096,
        cached_flows: 4096,
        flow_capacity: 4096,
        extra_rules: 0,
        payloads: SMALL_PAYLOAD,
        mix: Mix::AcceptOnly,
        passes_per_slice: 2,
        poll_every: 1024,
        commit_every: 0,
        property: Property::HitShareAtLeast(0.99),
    },
    Workload {
        name: "flow_churn",
        why: "16384 flows cycled through a 4096-entry flow table under 10003 rules: every packet misses, so context decode, signature resolve, indexed evaluation, insert and eviction are paid per packet",
        shards: 2,
        batch: 256,
        frames: 16_384,
        cached_flows: 0,
        flow_capacity: 2048,
        extra_rules: SCALE_RULES,
        payloads: SMALL_PAYLOAD,
        mix: Mix::AcceptOnly,
        passes_per_slice: 1,
        poll_every: 0,
        commit_every: 0,
        property: Property::HitShareAtMost(0.01),
    },
    Workload {
        name: "attack_drop",
        why: "90% hostile frames (all ten wire errors, all seven enforcement drops) that never hit the flow table, 10% cached accepts interleaved: the price of being attacked",
        shards: 2,
        batch: 256,
        frames: 16_384,
        cached_flows: 128,
        flow_capacity: 1024,
        extra_rules: 0,
        payloads: SMALL_PAYLOAD,
        mix: Mix::Attack,
        passes_per_slice: 1,
        poll_every: 0,
        commit_every: 0,
        property: Property::DropShare(0.90),
    },
    Workload {
        name: "rollout_under_load",
        why: "4096 cached flows under 10003 rules with a commit every 64 batches (3 appends, then a full rebuild back to the base set): what a policy rollout costs readers, and what readers cost a rollout",
        shards: 2,
        batch: 256,
        frames: 4096,
        cached_flows: 4096,
        flow_capacity: 4096,
        extra_rules: SCALE_RULES,
        payloads: SMALL_PAYLOAD,
        mix: Mix::AcceptOnly,
        passes_per_slice: 16,
        poll_every: 0,
        commit_every: 64,
        property: Property::HitShareExactly(0.75),
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_hold_enough_batches_for_a_p99_and_whole_commit_periods() {
        for w in &WORKLOADS {
            // A 20 s pass has at least 320 slices, so at least 16 quiet
            // ones, and those must pool at least 1000 batch samples.
            assert!(w.batches_per_slice() * 16 >= 1000, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(w.commits_per_slice() % 4, 0, "{}", w.name);
            if w.poll_every > 0 {
                assert_eq!(w.batches_per_slice() % w.poll_every, 0, "{}", w.name);
            }
        }
        let rollout = find("rollout_under_load").unwrap();
        assert_eq!(rollout.commits_per_slice(), 4);
        assert_eq!(rollout.rules(), 10_003);
        assert!(find("nope").is_none());
    }
}
