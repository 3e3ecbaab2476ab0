//! Adversary models: hostile context a compromised BYOD device can emit.
//!
//! Each model forges one class of non-conforming or deceptive traffic drawn
//! from the paper's security discussion (§VI validation, §VII limitations)
//! and must land in a **named** [`EnforcerStats`](bp_core::EnforcerStats)
//! counter — adversarial packets that the enforcer silently accepts are
//! enforcement gaps, and the scenario tests treat them as such.
//!
//! | Model | Forgery | Paper | Expected counter |
//! |---|---|---|---|
//! | [`AdversaryModel::ContextSpoofing`] | known tag, fabricated stack indexes | §VI-B / §V-C | `dropped_malformed` |
//! | [`AdversaryModel::RepackagedApp`] | tag of a repackaged (re-signed) apk | §VII | `dropped_unknown_app` |
//! | [`AdversaryModel::ContextReplay`] | verbatim allowed context replayed onto a live flow | §VII (set-once kernel) | `dropped_context_switch` |
//! | [`AdversaryModel::DuplicateOption`] | second BorderPatrol option ahead of the kernel's | §IV-A4 | `dropped_duplicate_context` |
//! | [`AdversaryModel::TrailingData`] | covert bytes after End-of-List | §IV-A4 | `dropped_malformed` |
//! | [`AdversaryModel::UntaggedEgress`] | traffic with no context at all | §VII (strict deployments) | `dropped_untagged` |

use serde::Serialize;

use bp_core::stats::Counter;

/// One class of adversarial traffic a compromised device emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum AdversaryModel {
    /// Forged context under a *known* app tag: fabricated stack indexes that
    /// do not resolve in the app's method table (an app lying about its call
    /// stack without knowing the table layout).
    ContextSpoofing,
    /// Traffic tagged with the MD5 of a **repackaged** build of an installed
    /// app: identical code, different package hash, so the tag is absent
    /// from the signature database (paper §VII, "Repackaged applications").
    RepackagedApp,
    /// Verbatim replay of another app's *allowed* context option onto one of
    /// the attacker's live flows — the classic evasion the set-once kernel
    /// exists to stop (§VII): without mid-flow switch detection these
    /// packets would all be accepted.
    ContextReplay,
    /// A second BorderPatrol context option riding ahead of the legitimate
    /// kernel-injected one (§IV-A4 conformance).
    DuplicateOption,
    /// Non-zero covert bytes after the End-of-List marker — data smuggled
    /// through the options area past the sanitizer (§IV-A4).
    TrailingData,
    /// Work-profile traffic carrying no context at all, as emitted by
    /// tooling outside BorderPatrol's control; strict deployments (§VII
    /// "Compatibility") drop it.
    UntaggedEgress,
}

impl AdversaryModel {
    /// Every model, in report order.
    pub const ALL: [AdversaryModel; 6] = [
        AdversaryModel::ContextSpoofing,
        AdversaryModel::RepackagedApp,
        AdversaryModel::ContextReplay,
        AdversaryModel::DuplicateOption,
        AdversaryModel::TrailingData,
        AdversaryModel::UntaggedEgress,
    ];

    /// Stable kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            AdversaryModel::ContextSpoofing => "context-spoofing",
            AdversaryModel::RepackagedApp => "repackaged-app",
            AdversaryModel::ContextReplay => "context-replay",
            AdversaryModel::DuplicateOption => "duplicate-option",
            AdversaryModel::TrailingData => "trailing-data",
            AdversaryModel::UntaggedEgress => "untagged-egress",
        }
    }

    /// The paper section the model is drawn from.
    pub fn paper_section(self) -> &'static str {
        match self {
            AdversaryModel::ContextSpoofing => "§VI-B/§V-C",
            AdversaryModel::RepackagedApp => "§VII",
            AdversaryModel::ContextReplay => "§VII",
            AdversaryModel::DuplicateOption => "§IV-A4",
            AdversaryModel::TrailingData => "§IV-A4",
            AdversaryModel::UntaggedEgress => "§VII",
        }
    }

    /// The [`EnforcerStats`](bp_core::EnforcerStats) counter every packet of
    /// this model must be charged to (under the scenario's strict
    /// enforcement config).
    pub fn counter(self) -> Counter {
        match self {
            AdversaryModel::ContextSpoofing | AdversaryModel::TrailingData => Counter::Malformed,
            AdversaryModel::RepackagedApp => Counter::UnknownApp,
            AdversaryModel::ContextReplay => Counter::ContextSwitch,
            AdversaryModel::DuplicateOption => Counter::DuplicateContext,
            AdversaryModel::UntaggedEgress => Counter::Untagged,
        }
    }
}

impl std::fmt::Display for AdversaryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One adversary deployed against the fleet: a model plus how widely and how
/// aggressively it is exercised.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdversaryProfile {
    /// The traffic class this adversary emits.
    pub model: AdversaryModel,
    /// Fraction of the fleet's devices compromised by this adversary
    /// (membership is a pure seeded hash of the device index, so it is
    /// deterministic and independent of every other random draw).
    pub device_ratio: f64,
    /// Adversarial packets each compromised device injects per tick.
    pub packets_per_tick: u32,
}

impl AdversaryProfile {
    /// A profile compromising `device_ratio` of the fleet with one injected
    /// packet per compromised device per tick.
    pub fn new(model: AdversaryModel, device_ratio: f64) -> Self {
        AdversaryProfile {
            model,
            device_ratio,
            packets_per_tick: 1,
        }
    }

    /// Every model at the same ratio — the standard scenario's adversary set.
    pub fn all_models(device_ratio: f64) -> Vec<AdversaryProfile> {
        AdversaryModel::ALL
            .iter()
            .map(|&model| AdversaryProfile::new(model, device_ratio))
            .collect()
    }

    /// Whether this adversary compromises `device` (of `devices` total):
    /// a pure SplitMix64-style hash of `(seed, model, device)` compared
    /// against [`AdversaryProfile::device_ratio`] — no RNG stream is
    /// consumed, so adding or removing adversaries never perturbs the
    /// fleet's traffic draws.
    pub fn compromises(&self, seed: u64, device: u32) -> bool {
        if self.device_ratio <= 0.0 {
            return false;
        }
        if self.device_ratio >= 1.0 {
            return true;
        }
        let mut x = seed
            ^ (self.model as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(device).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.device_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_counters_and_sections_are_total() {
        for model in AdversaryModel::ALL {
            assert!(!model.name().is_empty());
            assert!(model.counter().kind().is_drop(), "{model}");
            assert!(model.paper_section().starts_with('§'));
            assert_eq!(model.to_string(), model.name());
        }
    }

    #[test]
    fn compromise_membership_is_deterministic_and_ratio_shaped() {
        let profile = AdversaryProfile::new(AdversaryModel::ContextReplay, 0.1);
        let members: Vec<u32> = (0..10_000)
            .filter(|&d| profile.compromises(42, d))
            .collect();
        let again: Vec<u32> = (0..10_000)
            .filter(|&d| profile.compromises(42, d))
            .collect();
        assert_eq!(members, again);
        // Roughly 10% of 10k devices, with generous slack.
        assert!((500..2_000).contains(&members.len()), "{}", members.len());

        // Edge ratios.
        let none = AdversaryProfile::new(AdversaryModel::ContextReplay, 0.0);
        assert!((0..100).all(|d| !none.compromises(42, d)));
        let all = AdversaryProfile::new(AdversaryModel::ContextReplay, 1.0);
        assert!((0..100).all(|d| all.compromises(42, d)));

        // Different models compromise different subsets under the same seed.
        let other = AdversaryProfile::new(AdversaryModel::TrailingData, 0.1);
        let other_members: Vec<u32> = (0..10_000).filter(|&d| other.compromises(42, d)).collect();
        assert_ne!(members, other_members);
    }

    #[test]
    fn all_models_builds_one_profile_per_model() {
        let profiles = AdversaryProfile::all_models(0.05);
        assert_eq!(profiles.len(), AdversaryModel::ALL.len());
        for (profile, model) in profiles.iter().zip(AdversaryModel::ALL) {
            assert_eq!(profile.model, model);
            assert_eq!(profile.packets_per_tick, 1);
        }
    }
}
