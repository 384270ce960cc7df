//! Deterministic fault injection for the virtual web.
//!
//! A [`FaultPlan`] installed on a [`crate::VirtualServer`] makes the
//! simulated web misbehave the way the paper's *real* 1998 web did:
//! transient 5xx errors and timeouts, permanent 404 link rot, slow
//! responses, and truncated bodies. Every decision is a pure function of
//! the plan's seed, the URL, the rule index, and (for transient kinds) a
//! per-URL attempt counter — so a chaos run is exactly reproducible, and a
//! retry against the same URL can deterministically succeed.
//!
//! Two fault classes behave differently by construction:
//!
//! * **transient** kinds ([`FaultKind::Unavailable`], [`FaultKind::Timeout`],
//!   [`FaultKind::Slow`], [`FaultKind::Truncate`]) re-roll on every attempt
//!   and respect [`FaultRule::max_per_url`], so a retry policy with enough
//!   attempts always reaches the page eventually;
//! * **permanent** kinds ([`FaultKind::LinkRot`]) ignore the attempt
//!   counter: a rotted URL is rotted on every request, forever, exactly
//!   like a dead link on the open web.
//!
//! Rules can be scoped to one page-scheme or one URL prefix. Every
//! injected fault is counted in [`crate::AccessSnapshot::faults`], in
//! counters separate from `gets`/`heads`, so a zero-fault plan leaves the
//! paper's access accounting byte-identical.

use adm::Url;

/// What a matched fault rule does to the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient server error (HTTP 5xx analogue). The request fails; a
    /// later attempt may succeed.
    Unavailable,
    /// Transient timeout: the request fails as if the connection hung.
    Timeout,
    /// Permanent link rot: the URL answers 404 on every request even
    /// though the page is still stored.
    LinkRot,
    /// The request succeeds after an extra simulated delay.
    Slow {
        /// Extra delay in microseconds.
        delay_us: u64,
    },
    /// A GET succeeds but delivers only a prefix of the body — the
    /// wrapper downstream will fail to parse it (a malformed transfer).
    Truncate {
        /// Percentage of the body to keep (0–100).
        keep_pct: u8,
    },
}

impl FaultKind {
    /// True for kinds whose decision re-rolls per attempt (a retry can
    /// succeed); false for permanent kinds.
    pub fn is_transient(&self) -> bool {
        !matches!(self, FaultKind::LinkRot)
    }

    /// True if the kind applies to light (HEAD) connections too.
    /// Body-mangling kinds only affect GETs.
    pub fn applies_to_head(&self) -> bool {
        matches!(
            self,
            FaultKind::Unavailable | FaultKind::Timeout | FaultKind::LinkRot
        )
    }
}

/// One injection rule: a kind, an injection rate, an optional scope, and
/// an optional per-URL cap for transient kinds.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// The fault to inject when the rule fires.
    pub kind: FaultKind,
    /// Injection probability per attempt (permanent kinds: per URL).
    pub rate: f64,
    /// Only pages of this page-scheme are affected, when set.
    pub scheme: Option<String>,
    /// Only URLs with this prefix are affected, when set.
    pub url_prefix: Option<String>,
    /// Cap on injected faults per URL for transient kinds (ignored for
    /// permanent kinds). With a cap of `k`, attempt `k+1` is guaranteed to
    /// pass this rule — the invariant retry-equivalence tests rely on.
    pub max_per_url: Option<u32>,
}

impl FaultRule {
    fn new(kind: FaultKind, rate: f64) -> Self {
        FaultRule {
            kind,
            rate,
            scheme: None,
            url_prefix: None,
            max_per_url: Some(2),
        }
    }

    /// Transient 5xx errors at the given per-attempt rate.
    pub fn unavailable(rate: f64) -> Self {
        FaultRule::new(FaultKind::Unavailable, rate)
    }

    /// Transient timeouts at the given per-attempt rate.
    pub fn timeouts(rate: f64) -> Self {
        FaultRule::new(FaultKind::Timeout, rate)
    }

    /// Permanent 404 link rot: each matching URL is dead with the given
    /// probability, stably across all attempts.
    pub fn link_rot(rate: f64) -> Self {
        FaultRule {
            max_per_url: None,
            ..FaultRule::new(FaultKind::LinkRot, rate)
        }
    }

    /// Slow responses: the request succeeds after `delay_us` extra
    /// microseconds.
    pub fn slow(rate: f64, delay_us: u64) -> Self {
        FaultRule::new(FaultKind::Slow { delay_us }, rate)
    }

    /// Truncated GET bodies keeping `keep_pct` percent of the bytes.
    pub fn truncation(rate: f64, keep_pct: u8) -> Self {
        FaultRule::new(FaultKind::Truncate { keep_pct }, rate)
    }

    /// Scopes the rule to one page-scheme.
    pub fn for_scheme(mut self, scheme: impl Into<String>) -> Self {
        self.scheme = Some(scheme.into());
        self
    }

    /// Scopes the rule to URLs with the given prefix.
    pub fn for_url_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.url_prefix = Some(prefix.into());
        self
    }

    /// Sets (or lifts, with `None`) the per-URL injection cap.
    pub fn with_max_per_url(mut self, cap: Option<u32>) -> Self {
        self.max_per_url = cap;
        self
    }

    fn matches(&self, url: &Url, scheme: Option<&str>) -> bool {
        if let Some(want) = &self.scheme {
            // Unknown scheme (e.g. a 404 URL): scheme-scoped rules skip it.
            if scheme != Some(want.as_str()) {
                return false;
            }
        }
        if let Some(prefix) = &self.url_prefix {
            if !url.as_str().starts_with(prefix.as_str()) {
                return false;
            }
        }
        true
    }
}

/// A seeded set of fault rules. The first matching rule that fires wins.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of every injection decision.
    pub seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with a seed. With no rules it injects nothing — a
    /// server carrying it behaves byte-identically to one without a plan.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// True if the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Decides the fault (if any) for one request. `attempt` is the
    /// 0-based per-URL request counter and `injected_so_far(i)` reports
    /// how many faults rule `i` already injected on this URL (for
    /// [`FaultRule::max_per_url`]). Pure: same inputs, same answer.
    pub fn decide(
        &self,
        url: &Url,
        scheme: Option<&str>,
        is_head: bool,
        attempt: u64,
        injected_so_far: impl Fn(usize) -> u32,
    ) -> Option<(usize, FaultKind)> {
        for (i, rule) in self.rules.iter().enumerate() {
            if is_head && !rule.kind.applies_to_head() {
                continue;
            }
            if !rule.matches(url, scheme) {
                continue;
            }
            let roll = if rule.kind.is_transient() {
                if let Some(cap) = rule.max_per_url {
                    if injected_so_far(i) >= cap {
                        continue;
                    }
                }
                decision_fraction(self.seed, i as u64, url, attempt)
            } else {
                // Permanent: attempt-independent, so the URL stays dead.
                decision_fraction(self.seed, i as u64, url, u64::MAX)
            };
            if roll < rule.rate {
                return Some((i, rule.kind));
            }
        }
        None
    }

    /// True if this plan permanently rots `url` (a [`FaultKind::LinkRot`]
    /// rule fires on it). Lets tests compute the exact expected
    /// missing-URL set without touching the server.
    pub fn is_rotted(&self, url: &Url, scheme: Option<&str>) -> bool {
        self.rules.iter().enumerate().any(|(i, rule)| {
            rule.kind == FaultKind::LinkRot
                && rule.matches(url, scheme)
                && decision_fraction(self.seed, i as u64, url, u64::MAX) < rule.rate
        })
    }
}

/// Uniform fraction in `[0, 1)` from (seed, rule, url, attempt) via
/// FNV-1a + splitmix64 — the deterministic core of every fault decision
/// (and, with `attempt` the round, of every [`crate::MutationPlan`]
/// decision).
pub(crate) fn decision_fraction(seed: u64, rule: u64, url: &Url, attempt: u64) -> f64 {
    let state = seed
        ^ adm::fnv1a(url.as_str().bytes())
        ^ rule.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let z = adm::mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new(7);
        for i in 0..50 {
            let url = Url::new(format!("/p{i}.html"));
            assert!(plan.decide(&url, Some("P"), false, 0, |_| 0).is_none());
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let mk = || FaultPlan::new(42).with_rule(FaultRule::unavailable(0.5));
        let url = Url::new("/x.html");
        for attempt in 0..20 {
            assert_eq!(
                mk().decide(&url, None, false, attempt, |_| 0),
                mk().decide(&url, None, false, attempt, |_| 0)
            );
        }
    }

    #[test]
    fn transient_rate_roughly_holds() {
        let plan = FaultPlan::new(1).with_rule(FaultRule::unavailable(0.3).with_max_per_url(None));
        let url = Url::new("/x.html");
        let fired = (0..10_000)
            .filter(|&a| plan.decide(&url, None, false, a, |_| 0).is_some())
            .count();
        assert!((2_000..4_000).contains(&fired), "fired {fired}");
    }

    #[test]
    fn per_url_cap_guarantees_eventual_success() {
        let plan =
            FaultPlan::new(9).with_rule(FaultRule::unavailable(1.0).with_max_per_url(Some(2)));
        let url = Url::new("/x.html");
        let mut injected = 0u32;
        for attempt in 0..10 {
            if plan
                .decide(&url, None, false, attempt, |_| injected)
                .is_some()
            {
                injected += 1;
            }
        }
        assert_eq!(injected, 2, "cap bounds the injections");
    }

    #[test]
    fn link_rot_is_stable_per_url() {
        let plan = FaultPlan::new(3).with_rule(FaultRule::link_rot(0.5));
        let mut rotted = 0;
        for i in 0..100 {
            let url = Url::new(format!("/p{i}"));
            let first = plan.decide(&url, None, false, 0, |_| 0).is_some();
            for attempt in 1..10 {
                assert_eq!(
                    first,
                    plan.decide(&url, None, false, attempt, |_| 0).is_some(),
                    "rot must not flicker across attempts"
                );
            }
            assert_eq!(first, plan.is_rotted(&url, None));
            rotted += first as usize;
        }
        assert!((20..80).contains(&rotted), "rotted {rotted}/100");
    }

    #[test]
    fn scheme_scope_is_respected() {
        let plan =
            FaultPlan::new(5).with_rule(FaultRule::unavailable(1.0).for_scheme("CoursePage"));
        let url = Url::new("/c1.html");
        assert!(plan
            .decide(&url, Some("CoursePage"), false, 0, |_| 0)
            .is_some());
        assert!(plan
            .decide(&url, Some("ProfPage"), false, 0, |_| 0)
            .is_none());
        // unknown scheme: scoped rules do not fire
        assert!(plan.decide(&url, None, false, 0, |_| 0).is_none());
    }

    #[test]
    fn url_prefix_scope_is_respected() {
        let plan = FaultPlan::new(5).with_rule(FaultRule::timeouts(1.0).for_url_prefix("/course/"));
        assert!(plan
            .decide(&Url::new("/course/1"), None, false, 0, |_| 0)
            .is_some());
        assert!(plan
            .decide(&Url::new("/prof/1"), None, false, 0, |_| 0)
            .is_none());
    }

    #[test]
    fn body_faults_skip_head_requests() {
        let plan = FaultPlan::new(5).with_rule(FaultRule::truncation(1.0, 50));
        let url = Url::new("/x");
        assert!(plan.decide(&url, None, false, 0, |_| 0).is_some());
        assert!(plan.decide(&url, None, true, 0, |_| 0).is_none());
    }
}
