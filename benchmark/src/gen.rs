//! Seeded workload generator with a built-in correctness oracle.
//!
//! [`generate`] turns a [`Workload`] and a seed into encoded wire frames.
//! Every frame carries the verdict the engine must return for it — accept,
//! or drop with an exact reason string — computed here from the frame's
//! construction, the wire error it was mutated into, the context codec and
//! the interpretive linear-scan [`PolicySet::evaluate`]; the enforcer is
//! never asked.  The same seed gives the same bytes ([`Inputs::digest`]).

use std::collections::{HashMap, HashSet};

use borderpatrol::appsim::generator::{CorpusConfig, CorpusGenerator};
use borderpatrol::core::encoding::ContextEncoding;
use borderpatrol::core::policy::{Decision, Policy, PolicySet};
use borderpatrol::core::wire::{self, rfc1071_checksum, WireError};
use borderpatrol::dex::ApkFile;
use borderpatrol::netsim::addr::Endpoint;
use borderpatrol::netsim::options::{IpOption, IpOptionKind};
use borderpatrol::netsim::packet::Ipv4Packet;
use borderpatrol::types::{AppTag, MethodSignature};
use bp_bench::{analyzed, case_study_policies, synthetic_rule, AnalyzedApp, RuleShape};

use crate::workload::{Mix, Workload};

/// Drop reasons the enforcer attaches to conformance failures.  Written out
/// here, not imported: the oracle states what an operator must read in the
/// drop log, and a reworded reason is a behaviour change the run must flag.
const REASON_UNTAGGED: &str = "packet carries no BorderPatrol context";
const REASON_DUPLICATE: &str = "duplicate BorderPatrol context options";
const REASON_TRAILING: &str = "non-zero data after end-of-options-list";
const REASON_SWITCH: &str = "mid-flow context change (replayed or injected context)";

/// What the engine must do with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Accepted.
    Accept,
    /// Dropped by a deny policy.
    Policy,
    /// Dropped for carrying no context option (strict deployment).
    Untagged,
    /// Dropped for an app tag the signature database does not know.
    UnknownApp,
    /// Dropped because the context option does not decode.
    MalformedContext,
    /// Dropped for non-zero bytes after the End-of-List marker.
    TrailingData,
    /// Dropped for carrying two context options.
    DuplicateContext,
    /// Dropped for changing the context of a live flow.
    ContextSwitch,
    /// Dropped at wire decode.
    Wire(WireError),
}

impl Class {
    /// Number of classes (8 enforcement outcomes + 10 wire errors).
    pub const COUNT: usize = 8 + WireError::ALL.len();

    /// Dense index, `0..COUNT`.
    pub fn index(self) -> usize {
        match self {
            Class::Accept => 0,
            Class::Policy => 1,
            Class::Untagged => 2,
            Class::UnknownApp => 3,
            Class::MalformedContext => 4,
            Class::TrailingData => 5,
            Class::DuplicateContext => 6,
            Class::ContextSwitch => 7,
            Class::Wire(error) => 8 + error.index(),
        }
    }
}

/// The verdict a frame must get.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Expectation {
    /// Verdict class (which counter the packet must be charged to).
    pub class: Class,
    /// Exact drop reason; empty for [`Class::Accept`].
    pub reason: String,
}

/// Everything a run feeds the system: policy text, apks and frames — plus
/// the oracle's expectations, which the system never sees.
#[derive(Debug)]
pub struct Inputs {
    /// The policy file, one rule per line.
    pub policy_text: String,
    /// The apps whose signatures the enforcer resolves contexts against.
    pub apks: Vec<ApkFile>,
    /// Rules the rollout commits append (three per period); they match no
    /// generated context.
    pub rollout_rules: [Policy; 3],
    /// Encoded frames of one pass, in submission order.
    pub frames: Vec<Vec<u8>>,
    /// Per frame: index into [`Inputs::expectations`].
    pub expect: Vec<u32>,
    /// The distinct expectations.
    pub expectations: Vec<Expectation>,
    /// Frames sent twice at set-up, before the first full pass: one per flow
    /// whose verdict the flow table is meant to hold.
    pub warm: Vec<u32>,
    /// FNV-1a digest of every frame's bytes and expected class.
    pub digest: u64,
}

impl Inputs {
    /// The expectation for frame `index`.
    pub fn expectation(&self, index: usize) -> &Expectation {
        &self.expectations[self.expect[index] as usize]
    }

    /// Frames of each class in one pass.
    #[cfg(test)]
    pub fn class_counts(&self) -> [u64; Class::COUNT] {
        let mut counts = [0u64; Class::COUNT];
        for index in 0..self.frames.len() {
            counts[self.expectation(index).class.index()] += 1;
        }
        counts
    }
}

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next()) * n as u128) >> 64) as usize
    }

    /// Index drawn with probability proportional to its weight.
    fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut ticket = self.below(total as usize) as u32;
        weights
            .iter()
            .position(|&w| {
                if ticket < w {
                    true
                } else {
                    ticket -= w;
                    false
                }
            })
            .expect("ticket below the total weight")
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One encoded context and what the policy set decides about it.
struct Context {
    payload: Vec<u8>,
    /// The full drop reason if a deny rule matches, `None` if allowed.
    deny: Option<String>,
}

/// The rule set of a workload: the three case-study rules plus `extra`
/// synthetic ones.
pub fn rule_set(extra: usize) -> PolicySet {
    let mut rules = case_study_policies();
    for i in 0..extra {
        rules.push(synthetic_rule(i, RuleShape::Mixed));
    }
    rules
}

/// The apps on the fleet: the three case-study apps (known call chains,
/// known rules to violate) and four corpus apps.  The same for every seed —
/// the seed decides how much of the traffic each of their contexts gets, not
/// how big the signature database is.
fn apps() -> Vec<AnalyzedApp> {
    let mut specs = CorpusGenerator::case_study_apps();
    specs.extend(CorpusGenerator::generate(&CorpusConfig::small(0xB0BDE5, 2)));
    specs.into_iter().map(analyzed).collect()
}

/// Every functionality of every app as an encoded context, with the
/// interpretive evaluator's decision on the frames the encoding keeps.
fn contexts(apps: &[AnalyzedApp], rules: &PolicySet) -> Vec<Context> {
    let kept = ContextEncoding::max_frames(false);
    let mut out = Vec::new();
    for app in apps {
        let tag = app.apk.hash().tag();
        for name in app.spec.functionality_names() {
            let stack: Vec<MethodSignature> = app
                .spec
                .functionality(name)
                .expect("listed functionality exists")
                .call_chain
                .iter()
                .rev()
                .filter(|sig| app.table.index_of(sig).is_some())
                .take(kept)
                .cloned()
                .collect();
            let deny = match rules.evaluate(tag, &stack) {
                Decision::Allow => None,
                Decision::Deny {
                    policy: Some(policy),
                    reason,
                } => Some(format!("policy {policy} violated: {reason}")),
                Decision::Deny {
                    policy: None,
                    reason,
                } => Some(reason),
            };
            let payload = app.context_payload(name);
            // Two functionalities with one call chain are one context.
            if out.iter().all(|known: &Context| known.payload != payload) {
                out.push(Context { payload, deny });
            }
        }
    }
    out
}

/// A context payload cut down to at most `frames` stack frames (still a
/// well-formed encoding), so that two options or a trailing marker fit the
/// 40-byte options area.
fn shortened(payload: &[u8], frames: usize) -> Vec<u8> {
    const HEADER: usize = 9;
    let keep = HEADER + 2 * frames.min((payload.len() - HEADER) / 2);
    payload[..keep].to_vec()
}

fn context_option(payload: &[u8]) -> IpOption {
    IpOption::new(IpOptionKind::BorderPatrolContext, payload.to_vec())
        .expect("context payload fits an option")
}

/// Encode a frame from `src` to `dst` carrying `options` and `payload_len`
/// bytes of `fill`.
fn frame(
    src: Endpoint,
    dst: Endpoint,
    options: &[&[u8]],
    trailing: bool,
    payload_len: usize,
    fill: u8,
) -> Vec<u8> {
    let mut packet = Ipv4Packet::new(src, dst, vec![fill; payload_len]);
    for payload in options {
        packet
            .options_mut()
            .push(context_option(payload))
            .expect("options fit the 40-byte area");
    }
    if trailing {
        packet.options_mut().mark_trailing_data();
    }
    wire::encode(&packet)
}

/// Source endpoints never repeat within one frame set unless a flow is
/// meant to recur.
struct Addresses {
    used: HashSet<(u32, u16)>,
    servers: Vec<Endpoint>,
}

impl Addresses {
    fn new(rng: &mut Rng) -> Self {
        let servers = (0..8)
            .map(|_| Endpoint::new([198, 51, 100, 1 + rng.below(250) as u8], 443))
            .collect();
        Addresses {
            used: HashSet::new(),
            servers,
        }
    }

    fn fresh_source(&mut self, rng: &mut Rng) -> Endpoint {
        loop {
            let ip = 0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF);
            let port = 1024 + rng.below(64_000) as u16;
            if self.used.insert((ip, port)) {
                return Endpoint::new(ip.to_be_bytes(), port);
            }
        }
    }

    fn server(&self, rng: &mut Rng) -> Endpoint {
        self.servers[rng.below(self.servers.len())]
    }
}

/// Recompute the header checksum of a mutated frame.
fn repair_checksum(frame: &mut [u8]) {
    let header_len = usize::from(frame[0] & 0x0f) * 4;
    frame[10..12].fill(0);
    let checksum = rfc1071_checksum(&frame[..header_len]);
    frame[10..12].copy_from_slice(&checksum.to_be_bytes());
}

/// Turn a valid tagged frame into one that fails wire decode with exactly
/// `error` (the decoder reports the first failing check, in frame order).
fn corrupt(mut frame: Vec<u8>, error: WireError, rng: &mut Rng) -> Vec<u8> {
    let header_len = usize::from(frame[0] & 0x0f) * 4;
    assert!(header_len >= 28, "base frame carries a context option");
    match error {
        WireError::TruncatedHeader => frame.truncate(rng.below(wire::MIN_FRAME_LEN)),
        WireError::BadVersion => frame[0] = 0x60 | (frame[0] & 0x0f),
        WireError::BadIhl => frame[0] = 0x40 | rng.below(5) as u8,
        WireError::TruncatedFrame => {
            frame.truncate(wire::MIN_FRAME_LEN + rng.below(header_len + 4 - wire::MIN_FRAME_LEN))
        }
        WireError::BadChecksum => frame[10] ^= 0x55,
        WireError::UnknownProtocol => {
            frame[9] = 47;
            repair_checksum(&mut frame);
        }
        WireError::OptionTruncated => {
            frame[20..header_len].fill(1);
            frame[header_len - 1] = 0x9e;
            repair_checksum(&mut frame);
        }
        WireError::BadOptionLength => {
            frame[21] = rng.below(2) as u8;
            repair_checksum(&mut frame);
        }
        WireError::OptionOverrun => {
            frame[21] = (header_len - 20 + 1 + rng.below(100)) as u8;
            repair_checksum(&mut frame);
        }
        WireError::LengthMismatch => {
            let total = u16::from_be_bytes([frame[2], frame[3]]) + 1 + rng.below(9) as u16;
            frame[2..4].copy_from_slice(&total.to_be_bytes());
            repair_checksum(&mut frame);
        }
    }
    frame
}

/// `per_kind` frames of every wire error, for the reject-path layer round.
pub fn malformed_set(seed: u64, per_kind: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed ^ 0x6d61_6c66_6f72_6d64);
    let mut addresses = Addresses::new(&mut rng);
    let dropbox = analyzed(CorpusGenerator::dropbox());
    let context = dropbox.context_payload("browse");
    let mut frames = Vec::with_capacity(per_kind * WireError::ALL.len());
    for _ in 0..per_kind {
        for error in WireError::ALL {
            let base = frame(
                addresses.fresh_source(&mut rng),
                addresses.server(&mut rng),
                &[&context],
                false,
                64,
                0xA5,
            );
            frames.push(corrupt(base, error, &mut rng));
        }
    }
    frames
}

/// Hostile frame kinds of the attack mix with their share of all frames in
/// parts per thousand; the ten wire errors share `WIRE_PER_MILLE` equally.
const WIRE_PER_MILLE: usize = 450;
const HOSTILE_PER_MILLE: [(Class, usize); 7] = [
    (Class::Policy, 150),
    (Class::UnknownApp, 60),
    (Class::MalformedContext, 60),
    (Class::Untagged, 60),
    (Class::DuplicateContext, 40),
    (Class::ContextSwitch, 40),
    (Class::TrailingData, 40),
];

/// Every `LEGIT_STRIDE`-th frame of the attack mix is legitimate, visiting
/// the cached flows round-robin, so each stays far from the LRU tail however
/// many hostile flows are inserted between two of its packets.
const LEGIT_STRIDE: usize = 10;

struct Builder {
    rng: Rng,
    addresses: Addresses,
    frames: Vec<Vec<u8>>,
    expect: Vec<u32>,
    expectations: Vec<Expectation>,
    known: HashMap<Expectation, u32>,
}

impl Builder {
    fn push(&mut self, frame: Vec<u8>, class: Class, reason: &str) {
        let expectation = Expectation {
            class,
            reason: reason.to_owned(),
        };
        let next = self.expectations.len() as u32;
        let index = *self.known.entry(expectation.clone()).or_insert_with(|| {
            self.expectations.push(expectation);
            next
        });
        self.frames.push(frame);
        self.expect.push(index);
    }

    fn fresh_frame(&mut self, options: &[&[u8]], trailing: bool, payload_len: usize) -> Vec<u8> {
        let src = self.addresses.fresh_source(&mut self.rng);
        let dst = self.addresses.server(&mut self.rng);
        let fill = self.rng.next() as u8;
        frame(src, dst, options, trailing, payload_len, fill)
    }
}

/// Generate the inputs of `workload` for `seed`.
pub fn generate(workload: &Workload, seed: u64) -> Inputs {
    let rules = rule_set(workload.extra_rules);
    let apps = apps();
    let contexts = contexts(&apps, &rules);
    let allowed: Vec<&Context> = contexts.iter().filter(|c| c.deny.is_none()).collect();
    let denied: Vec<&Context> = contexts.iter().filter(|c| c.deny.is_some()).collect();
    assert!(
        allowed.len() >= 2 && !denied.is_empty(),
        "case-study apps give both"
    );

    let mut name_hash = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut name_hash, workload.name.as_bytes());
    let mut rng = Rng::new(seed ^ name_hash);
    let addresses = Addresses::new(&mut rng);
    // The seed's app mix: how often each allowed context is drawn.
    let mix: Vec<u32> = allowed.iter().map(|_| 1 + rng.below(8) as u32).collect();
    // Payload sizes in exactly the stated proportions, in seeded order: the
    // bytes a pass moves must not depend on the seed.
    let weight: u32 = workload.payloads.iter().map(|&(_, w)| w).sum();
    let mut sizes: Vec<usize> = workload
        .payloads
        .iter()
        .flat_map(|&(bytes, w)| {
            std::iter::repeat_n(bytes, workload.frames * w as usize / weight as usize)
        })
        .collect();
    sizes.resize(workload.frames, workload.payloads[0].0);
    rng.shuffle(&mut sizes);

    let mut b = Builder {
        rng,
        addresses,
        frames: Vec::with_capacity(workload.frames),
        expect: Vec::with_capacity(workload.frames),
        expectations: Vec::new(),
        known: HashMap::new(),
    };
    let mut warm = Vec::new();

    match workload.mix {
        Mix::AcceptOnly | Mix::DenyOnly => {
            for (index, &payload_len) in sizes.iter().enumerate() {
                let context = match workload.mix {
                    Mix::AcceptOnly => allowed[b.rng.weighted(&mix)],
                    _ => denied[b.rng.below(denied.len())],
                };
                let bytes = b.fresh_frame(&[&context.payload], false, payload_len);
                match &context.deny {
                    None => b.push(bytes, Class::Accept, ""),
                    Some(reason) => b.push(bytes, Class::Policy, reason),
                }
                warm.push(index as u32);
            }
        }
        Mix::Attack => {
            let payload_len = workload.payloads[0].0;
            let known_tags: HashSet<u64> =
                apps.iter().map(|a| a.apk.hash().tag().as_u64()).collect();

            // The legitimate flows: fixed endpoints, one allowed context each.
            struct Legit {
                src: Endpoint,
                dst: Endpoint,
                context: usize,
                bytes: Vec<u8>,
            }
            let legit: Vec<Legit> = (0..workload.cached_flows)
                .map(|_| {
                    let src = b.addresses.fresh_source(&mut b.rng);
                    let dst = b.addresses.server(&mut b.rng);
                    let context = b.rng.weighted(&mix);
                    let bytes = frame(
                        src,
                        dst,
                        &[&allowed[context].payload],
                        false,
                        payload_len,
                        0x5A,
                    );
                    Legit {
                        src,
                        dst,
                        context,
                        bytes,
                    }
                })
                .collect();

            // The hostile frames, by kind, then shuffled.
            let mut hostile: Vec<Class> = Vec::new();
            for error in WireError::ALL {
                let count = workload.frames * WIRE_PER_MILLE / 1000 / WireError::ALL.len();
                hostile.extend(std::iter::repeat_n(Class::Wire(error), count));
            }
            for (class, per_mille) in HOSTILE_PER_MILLE {
                hostile.extend(std::iter::repeat_n(
                    class,
                    workload.frames * per_mille / 1000,
                ));
            }
            let legit_slots = workload.frames.div_ceil(LEGIT_STRIDE);
            let hostile_slots = workload.frames - legit_slots;
            assert!(hostile.len() <= hostile_slots, "shares leave room");
            hostile.resize(hostile_slots, Class::Policy);
            b.rng.shuffle(&mut hostile);

            let mut hostile = hostile.into_iter();
            let mut next_legit = 0usize;
            for index in 0..workload.frames {
                if index % LEGIT_STRIDE == 0 {
                    let flow = &legit[next_legit % legit.len()];
                    if next_legit < legit.len() {
                        warm.push(index as u32);
                    }
                    next_legit += 1;
                    b.push(flow.bytes.clone(), Class::Accept, "");
                    continue;
                }
                let class = hostile.next().expect("one hostile frame per slot");
                let pick = allowed[b.rng.weighted(&mix)];
                match class {
                    Class::Policy => {
                        let context = denied[b.rng.below(denied.len())];
                        let bytes = b.fresh_frame(&[&context.payload], false, payload_len);
                        b.push(bytes, class, context.deny.as_deref().expect("denied"));
                    }
                    Class::UnknownApp => {
                        let tag = loop {
                            let tag = AppTag::from_u64(b.rng.next());
                            if !known_tags.contains(&tag.as_u64()) {
                                break tag;
                            }
                        };
                        let indexes = [b.rng.below(64) as u32, b.rng.below(64) as u32];
                        let payload = ContextEncoding::encode(tag, &indexes, false)
                            .expect("small indexes encode");
                        let bytes = b.fresh_frame(&[&payload], false, payload_len);
                        b.push(bytes, class, &format!("unknown application tag {tag}"));
                    }
                    Class::MalformedContext => {
                        // Either cut inside the 9-byte header or given a
                        // frame area that is not a whole number of indexes.
                        let payload = if b.rng.below(2) == 0 {
                            pick.payload[..1 + b.rng.below(8)].to_vec()
                        } else {
                            let mut odd = shortened(&pick.payload, 4);
                            odd.push(b.rng.next() as u8);
                            odd
                        };
                        let error = ContextEncoding::decode(&payload)
                            .expect_err("payload was built not to decode");
                        let bytes = b.fresh_frame(&[&payload], false, payload_len);
                        b.push(bytes, class, &format!("malformed context option: {error}"));
                    }
                    Class::Untagged => {
                        let bytes = b.fresh_frame(&[], false, payload_len);
                        b.push(bytes, class, REASON_UNTAGGED);
                    }
                    Class::DuplicateContext => {
                        let first = shortened(&pick.payload, 3);
                        let second = shortened(&denied[0].payload, 3);
                        let bytes = b.fresh_frame(&[&first, &second], false, payload_len);
                        b.push(bytes, class, REASON_DUPLICATE);
                    }
                    Class::TrailingData => {
                        let payload = shortened(&pick.payload, 12);
                        let bytes = b.fresh_frame(&[&payload], true, payload_len);
                        b.push(bytes, class, REASON_TRAILING);
                    }
                    Class::ContextSwitch => {
                        // A live flow's endpoints with another (allowed)
                        // context: replayed or injected context.
                        let flow = &legit[b.rng.below(legit.len())];
                        let other =
                            (flow.context + 1 + b.rng.below(allowed.len() - 1)) % allowed.len();
                        assert_ne!(allowed[other].payload, allowed[flow.context].payload);
                        let bytes = frame(
                            flow.src,
                            flow.dst,
                            &[&allowed[other].payload],
                            false,
                            payload_len,
                            0xC5,
                        );
                        b.push(bytes, class, REASON_SWITCH);
                    }
                    Class::Wire(error) => {
                        let base = b.fresh_frame(&[&pick.payload], false, payload_len);
                        let bytes = corrupt(base, error, &mut b.rng);
                        b.push(bytes, class, error.drop_reason());
                    }
                    Class::Accept => unreachable!("hostile kinds only"),
                }
            }
        }
    }

    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (bytes, &expect) in b.frames.iter().zip(&b.expect) {
        fnv1a(&mut digest, &(bytes.len() as u32).to_le_bytes());
        fnv1a(&mut digest, bytes);
        fnv1a(
            &mut digest,
            &[b.expectations[expect as usize].class.index() as u8],
        );
    }

    let base = workload.extra_rules + 1_000;
    Inputs {
        policy_text: rules.to_text(),
        apks: apps.into_iter().map(|app| app.apk).collect(),
        rollout_rules: [0, 1, 2].map(|j| synthetic_rule(base + j, RuleShape::StackHeavy)),
        frames: b.frames,
        expect: b.expect,
        expectations: b.expectations,
        warm,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, WORKLOADS};
    use borderpatrol::core::wire::WireFrame;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in &WORKLOADS {
            let a = generate(workload, 11);
            let b = generate(workload, 11);
            let c = generate(workload, 12);
            assert_eq!(a.digest, b.digest, "{}", workload.name);
            assert_eq!(a.frames, b.frames, "{}", workload.name);
            assert_eq!(a.policy_text, b.policy_text);
            assert_ne!(a.digest, c.digest, "{}", workload.name);
            assert_eq!(a.frames.len(), workload.frames);
            assert_eq!(a.policy_text.lines().count(), workload.rules());
        }
    }

    #[test]
    fn the_seed_changes_the_mix_but_not_the_shape() {
        let attack = find("attack_drop").unwrap();
        let (a, b) = (generate(attack, 1), generate(attack, 2));
        assert_eq!(a.class_counts(), b.class_counts());
        // Payload bytes per pass are the same on every seed; their order and
        // the share of each context are not.
        let steady = find("steady_accept").unwrap();
        let (a, b) = (generate(steady, 1), generate(steady, 2));
        let payload_bytes = |inputs: &Inputs| -> usize {
            let parsed = inputs.frames.iter().map(|f| WireFrame::parse(f).unwrap());
            parsed.map(|frame| frame.payload().len()).sum()
        };
        assert_eq!(payload_bytes(&a), payload_bytes(&b));
        // 50/30/20% of 4096, rounded down, the one left over at 64 B.
        assert_eq!(payload_bytes(&a), 2049 * 64 + 1228 * 576 + 819 * 1400);
        let order = |inputs: &Inputs| inputs.frames.iter().map(Vec::len).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b));
    }

    #[test]
    fn corrupt_produces_exactly_the_intended_wire_error() {
        let frames = malformed_set(5, 32);
        assert_eq!(frames.len(), 320);
        for (index, bytes) in frames.iter().enumerate() {
            let intended = WireError::ALL[index % WireError::ALL.len()];
            assert_eq!(WireFrame::parse(bytes), Err(intended), "frame {index}");
        }
    }

    #[test]
    fn attack_mix_is_ninety_percent_hostile_with_every_reason_present() {
        let attack = find("attack_drop").unwrap();
        let inputs = generate(attack, 3);
        let counts = inputs.class_counts();
        assert!(counts.iter().all(|&count| count > 0), "{counts:?}");
        let total: u64 = counts.iter().sum();
        let accept_share = counts[Class::Accept.index()] as f64 / total as f64;
        assert!((accept_share - 0.10).abs() < 0.001, "{accept_share}");
        assert_eq!(inputs.warm.len(), attack.cached_flows);
        // Hostile frames that decode agree with the wire layer about it, and
        // the ones meant to fail decode do fail.
        for index in 0..inputs.frames.len() {
            let parsed = WireFrame::parse(&inputs.frames[index]);
            match inputs.expectation(index).class {
                Class::Wire(error) => assert_eq!(parsed, Err(error)),
                _ => assert!(parsed.is_ok(), "frame {index}"),
            }
        }
        // Flows that reach the flow table outnumber it on either shard.
        let inserting = counts[Class::Policy.index()]
            + counts[Class::UnknownApp.index()]
            + counts[Class::MalformedContext.index()];
        assert!(inserting as usize > 2 * 2 * attack.flow_capacity);
    }

    #[test]
    fn rng_is_stable_across_platforms() {
        let mut rng = Rng::new(1);
        assert_eq!(rng.next(), 0x910A_2DEC_8902_5CC1);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
