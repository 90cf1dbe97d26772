//! # gm-faults
//!
//! Deterministic fault injection for the GridMind solver and serve
//! layers. The production code asks [`inject`] at well-known *sites*
//! ("pf.base", "acopf.ipm", "cache.get", "serve.queue", …) whether a
//! fault should fire for this hit; with no injector installed the call
//! is a strict no-op returning `None`, so the harness costs nothing and
//! changes nothing in normal operation.
//!
//! Faults are **deterministic**: a [`FaultInjector`] is driven either by
//! an explicit script (fire kind K at site S for hits `skip..skip+fires`)
//! or by a seeded SplitMix64 stream keyed on `(seed, site, hit index)` —
//! never by wall-clock time or OS randomness. Two runs with the same
//! seed and the same sequence of site hits inject the same faults.
//!
//! Following `gm_telemetry::Registry`, an injector becomes active on a
//! thread via [`FaultInjector::install`], which pushes it on a
//! thread-local stack until the returned guard drops. Worker pools
//! re-install a shared injector inside each worker so solver-layer sites
//! observe it. Every fired fault is mirrored to the installed telemetry
//! collector as a `faults.injected.<site>` counter.
//!
//! The supported fault vocabulary is the failure catalogue of the
//! recovery ladder (see DESIGN.md "Fault model"): Newton divergence,
//! sparse-LU singularity, IPM barrier stalls, solver-cache misses and
//! poisoned entries, queue saturation, and deadline storms.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What kind of failure an injection site should simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The Newton power-flow iteration exhausts its budget.
    NewtonDiverge,
    /// The sparse LU factorization reports a singular matrix.
    LuSingular,
    /// The interior-point barrier loop stalls without converging.
    IpmStall,
    /// A solver-cache lookup behaves as a miss (entry invisible).
    CacheMiss,
    /// A solver-cache entry is poisoned: it must be discarded and the
    /// result recomputed (the detection path under test).
    CachePoison,
    /// The admission queue reports saturation (a synthetic `Busy`).
    QueueSaturate,
    /// A request deadline is treated as already expired.
    DeadlineStorm,
}

impl FaultKind {
    /// Stable lowercase name used in counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NewtonDiverge => "newton_diverge",
            FaultKind::LuSingular => "lu_singular",
            FaultKind::IpmStall => "ipm_stall",
            FaultKind::CacheMiss => "cache_miss",
            FaultKind::CachePoison => "cache_poison",
            FaultKind::QueueSaturate => "queue_saturate",
            FaultKind::DeadlineStorm => "deadline_storm",
        }
    }
}

/// One scripted rule: at `site`, let `skip` hits pass, then fire `kind`
/// for the next `fires` hits (use `u64::MAX` for "forever").
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Exact site name the rule applies to.
    pub site: String,
    /// Fault to fire inside the window.
    pub kind: FaultKind,
    /// Hits at this site that pass through before the window opens.
    pub skip: u64,
    /// Width of the firing window in hits.
    pub fires: u64,
}

impl FaultRule {
    /// Convenience constructor.
    pub fn new(site: &str, kind: FaultKind, skip: u64, fires: u64) -> FaultRule {
        FaultRule {
            site: site.to_string(),
            kind,
            skip,
            fires,
        }
    }
}

struct Seeded {
    seed: u64,
    /// Firing probability in thousandths (0 disables, 1000 always fires).
    per_mille: u32,
}

struct Inner {
    rules: Vec<FaultRule>,
    seeded: Option<Seeded>,
    /// Per-site hit counts (every consult increments, fired or not).
    hits: Mutex<BTreeMap<String, u64>>,
    /// Per-`site/kind` fired counts.
    injected: Mutex<BTreeMap<String, u64>>,
}

/// A deterministic fault source, cheap to clone and share across
/// threads (workers clone and [`install`](FaultInjector::install) it).
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FaultInjector({} rules, seeded: {}, {} injected)",
            self.inner.rules.len(),
            self.inner.seeded.is_some(),
            self.injected_total()
        )
    }
}

thread_local! {
    static STACK: RefCell<Vec<FaultInjector>> = const { RefCell::new(Vec::new()) };
}

/// Pops the injector installed by [`FaultInjector::install`] on drop.
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// SplitMix64: the standard 64-bit mixing finalizer, used to derive a
/// deterministic per-hit decision stream from `(seed, site, hit)`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string (site names → stable 64-bit tags).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fault kind a seeded (unscripted) injector fires at a site. Sites
/// with two plausible failure modes alternate on a decision-stream bit.
/// Unknown sites never fire in seeded mode.
fn seeded_kind(site: &str, z: u64) -> Option<FaultKind> {
    match site {
        "pf.base" => Some(if z & (1 << 32) == 0 {
            FaultKind::NewtonDiverge
        } else {
            FaultKind::LuSingular
        }),
        "acopf.ipm" => Some(FaultKind::IpmStall),
        // Pattern-reuse refactorization: a fired fault forces the
        // symbolic cache down its full re-analysis fallback, which must
        // stay invisible to answers (caught below the recovery ladder).
        "sparse.refactor" => Some(FaultKind::LuSingular),
        // The IPM's static-order LDLᵀ: a fired fault sends that one
        // barrier iteration through the pivoting-LU fallback, which
        // must be just as invisible.
        "acopf.kkt.ldl" => Some(FaultKind::LuSingular),
        // The cascade's Woodbury-compensated outage solve: a fired fault
        // sends that outage through the full-Newton fallback, which must
        // give the brute sweep's answer.
        "ca.compensate" => Some(FaultKind::LuSingular),
        "cache.get" => Some(if z & (1 << 32) == 0 {
            FaultKind::CacheMiss
        } else {
            FaultKind::CachePoison
        }),
        "serve.queue" => Some(FaultKind::QueueSaturate),
        _ if site.starts_with("serve.deadline") => Some(FaultKind::DeadlineStorm),
        _ => None,
    }
}

impl FaultInjector {
    /// An injector that never fires — the explicit "harness present but
    /// disabled" configuration (the no-op property tests use it).
    pub fn disabled() -> FaultInjector {
        FaultInjector::scripted(Vec::new())
    }

    /// A scripted injector: deterministic per-site hit windows.
    pub fn scripted(rules: Vec<FaultRule>) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(Inner {
                rules,
                seeded: None,
                hits: Mutex::new(BTreeMap::new()),
                injected: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// A seeded chaos injector: every known site fires with probability
    /// `per_mille`/1000 per hit, decided by SplitMix64 over
    /// `(seed, site, hit index)` — reproducible, wall-clock free.
    pub fn chaos(seed: u64, per_mille: u32) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(Inner {
                rules: Vec::new(),
                seeded: Some(Seeded {
                    seed,
                    per_mille: per_mille.min(1000),
                }),
                hits: Mutex::new(BTreeMap::new()),
                injected: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Installs this injector as the innermost fault source on the
    /// current thread until the guard drops.
    pub fn install(&self) -> InstallGuard {
        STACK.with(|s| {
            s.borrow_mut().push(self.clone());
        });
        InstallGuard { _private: () }
    }

    /// Consults the injector directly (no thread-local indirection):
    /// counts the hit at `site` and returns the fault to fire, if any.
    pub fn fire(&self, site: &str) -> Option<FaultKind> {
        let hit = {
            let mut h = self.inner.hits.lock();
            let c = h.entry(site.to_string()).or_insert(0);
            let cur = *c;
            *c += 1;
            cur
        };
        for r in &self.inner.rules {
            if r.site == site && hit >= r.skip && hit - r.skip < r.fires {
                return Some(self.record(site, r.kind));
            }
        }
        if let Some(s) = &self.inner.seeded {
            if s.per_mille > 0 {
                let z = splitmix64(
                    s.seed ^ fnv1a(site.as_bytes()) ^ hit.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                if z % 1000 < u64::from(s.per_mille) {
                    if let Some(kind) = seeded_kind(site, z) {
                        return Some(self.record(site, kind));
                    }
                }
            }
        }
        None
    }

    fn record(&self, site: &str, kind: FaultKind) -> FaultKind {
        *self
            .inner
            .injected
            .lock()
            .entry(format!("{site}/{}", kind.name()))
            .or_insert(0) += 1;
        gm_telemetry::counter_add(&format!("faults.injected.{site}"), 1);
        gm_telemetry::flight_event("fault.fired", format!("site={site} kind={}", kind.name()));
        kind
    }

    /// Total faults fired so far.
    pub fn injected_total(&self) -> u64 {
        self.inner.injected.lock().values().sum()
    }

    /// Fired counts keyed `site/kind`.
    pub fn injected_counts(&self) -> BTreeMap<String, u64> {
        self.inner.injected.lock().clone()
    }

    /// Total hits observed at `site` (fired or not).
    pub fn hits_at(&self, site: &str) -> u64 {
        self.inner.hits.lock().get(site).copied().unwrap_or(0)
    }
}

/// Asks the innermost installed injector whether a fault fires at
/// `site`. **Strict no-op** (`None`, no counting, no allocation) when no
/// injector is installed on this thread.
pub fn inject(site: &str) -> Option<FaultKind> {
    STACK
        .with(|s| {
            let stack = s.borrow();
            stack.last().cloned()
        })
        .and_then(|inj| inj.fire(site))
}

/// True when a fault injector is installed on this thread.
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstalled_inject_is_none() {
        assert_eq!(inject("pf.base"), None);
        assert!(!active());
    }

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        let _g = inj.install();
        assert!(active());
        for _ in 0..100 {
            assert_eq!(inject("pf.base"), None);
            assert_eq!(inject("serve.queue"), None);
        }
        assert_eq!(inj.injected_total(), 0);
        assert_eq!(inj.hits_at("pf.base"), 100);
    }

    #[test]
    fn scripted_window_fires_exactly() {
        let inj = FaultInjector::scripted(vec![FaultRule::new(
            "pf.base",
            FaultKind::NewtonDiverge,
            2,
            3,
        )]);
        let _g = inj.install();
        let fired: Vec<bool> = (0..8).map(|_| inject("pf.base").is_some()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, true, true, false, false, false]
        );
        assert_eq!(inj.injected_total(), 3);
        assert_eq!(
            inj.injected_counts().get("pf.base/newton_diverge"),
            Some(&3)
        );
        // A scripted rule for one site leaves other sites silent.
        assert_eq!(inject("acopf.ipm"), None);
    }

    #[test]
    fn seeded_stream_is_reproducible_and_seed_sensitive() {
        let trace = |seed: u64| -> Vec<Option<FaultKind>> {
            let inj = FaultInjector::chaos(seed, 300);
            let _g = inj.install();
            (0..64).map(|_| inject("pf.base")).collect()
        };
        assert_eq!(trace(7), trace(7), "same seed, same fault sequence");
        assert_ne!(trace(7), trace(8), "different seeds diverge");
        assert!(
            trace(7).iter().any(|f| f.is_some()),
            "30% rate over 64 hits should fire"
        );
        assert!(
            trace(7).iter().any(|f| f.is_none()),
            "…but not on every hit"
        );
    }

    #[test]
    fn seeded_unknown_site_never_fires() {
        let inj = FaultInjector::chaos(1, 1000);
        let _g = inj.install();
        for _ in 0..10 {
            assert_eq!(inject("made.up.site"), None);
        }
    }

    #[test]
    fn install_nests_and_unwinds() {
        let outer = FaultInjector::scripted(vec![FaultRule::new(
            "s",
            FaultKind::QueueSaturate,
            0,
            u64::MAX,
        )]);
        let inner = FaultInjector::disabled();
        let _g1 = outer.install();
        assert_eq!(inject("s"), Some(FaultKind::QueueSaturate));
        {
            let _g2 = inner.install();
            assert_eq!(inject("s"), None, "innermost injector shadows");
        }
        assert_eq!(inject("s"), Some(FaultKind::QueueSaturate));
    }

    #[test]
    fn fired_faults_count_into_telemetry() {
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        let inj = FaultInjector::scripted(vec![FaultRule::new(
            "cache.get",
            FaultKind::CachePoison,
            0,
            2,
        )]);
        let _g = inj.install();
        for _ in 0..5 {
            let _ = inject("cache.get");
        }
        assert_eq!(reg.counter_value("faults.injected.cache.get"), 2);
    }

    #[test]
    fn direct_fire_shares_state_with_clones() {
        let inj = FaultInjector::scripted(vec![FaultRule::new(
            "serve.queue",
            FaultKind::QueueSaturate,
            0,
            2,
        )]);
        let clone = inj.clone();
        assert!(clone.fire("serve.queue").is_some());
        assert!(inj.fire("serve.queue").is_some());
        assert!(clone.fire("serve.queue").is_none(), "window exhausted");
        assert_eq!(inj.hits_at("serve.queue"), 3);
    }
}
