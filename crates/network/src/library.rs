//! The process-wide immutable case library.
//!
//! Every named case — the five paper cases and the three
//! interconnect-scale ones — is built from its embedded data at most
//! once per process, validated, hashed, and from then on handed out as a
//! [`Snapshot`]: a shared, immutable network that carries its own
//! [`Network::content_hash`]. Loading a case that is already built is a
//! reference-count bump, whatever its size.
//!
//! A snapshot cannot go stale. The network inside it is never mutated —
//! an edit clones the network and wraps the result in a *new* snapshot —
//! and the hash lives in the same allocation, computed at most once, so
//! a hash read from a snapshot is by construction the hash of the
//! network read from it.

use crate::cases::{self, identify_case, CaseId, UnknownCase};
use crate::model::Network;
use crate::scale::{generate_scale, identify_scale, ScaleId};
use std::sync::{Arc, OnceLock};

/// A shared, immutable network together with its content hash.
///
/// Dereferences to [`Network`], so `&snapshot` goes wherever a
/// `&Network` is expected. Cloning shares the allocation — and the
/// hash, once any holder has asked for it.
#[derive(Clone, Debug)]
pub struct Snapshot(Arc<Hashed>);

#[derive(Debug)]
struct Hashed {
    net: Network,
    hash: OnceLock<u64>,
}

impl Snapshot {
    /// Freezes `net`. The hash is computed on first request.
    pub fn new(net: Network) -> Snapshot {
        Snapshot(Arc::new(Hashed {
            net,
            hash: OnceLock::new(),
        }))
    }

    /// [`Network::content_hash`] of the frozen network: serialised on
    /// the first call, recalled afterwards by every holder of this
    /// snapshot.
    pub fn content_hash(&self) -> u64 {
        *self.0.hash.get_or_init(|| self.0.net.content_hash())
    }

    /// Whether two snapshots share one allocation.
    pub fn ptr_eq(a: &Snapshot, b: &Snapshot) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Network;

    fn deref(&self) -> &Network {
        &self.0.net
    }
}

// A snapshot persists as the bare network (the session blob format);
// the hash is recomputed on demand after a restore. Hand-written
// because the vendored derive has no `from`/`into` container attribute.
impl serde::Serialize for Snapshot {
    fn serialize_value(&self) -> serde::Value {
        self.0.net.serialize_value()
    }
}

impl serde::Deserialize for Snapshot {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Network::deserialize_value(value).map(Snapshot::new)
    }
}

/// Any case the library serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CaseKey {
    /// One of the paper's five cases.
    Paper(CaseId),
    /// An interconnect-scale synthetic case.
    Scale(ScaleId),
}

impl From<CaseId> for CaseKey {
    fn from(id: CaseId) -> CaseKey {
        CaseKey::Paper(id)
    }
}

impl From<ScaleId> for CaseKey {
    fn from(id: ScaleId) -> CaseKey {
        CaseKey::Scale(id)
    }
}

impl CaseKey {
    /// Every case in the library, smallest first.
    pub fn all() -> impl Iterator<Item = CaseKey> {
        let paper = CaseId::ALL.into_iter().map(CaseKey::Paper);
        paper.chain(ScaleId::ALL.into_iter().map(CaseKey::Scale))
    }

    /// Canonical short name ("case118", "synth9241").
    pub fn short_name(self) -> &'static str {
        match self {
            CaseKey::Paper(id) => id.short_name(),
            CaseKey::Scale(id) => id.short_name(),
        }
    }

    fn slot(self) -> usize {
        match self {
            CaseKey::Paper(id) => id as usize,
            CaseKey::Scale(id) => CaseId::ALL.len() + id as usize,
        }
    }
}

/// Fuzzy identification over the whole library with a confidence score
/// in `(0, 1]`: the paper cases first, then the scale cases.
pub fn identify(input: &str) -> Option<(CaseKey, f64)> {
    identify_case(input)
        .map(|(id, conf)| (id.into(), conf))
        .or_else(|| identify_scale(input).map(|(id, conf)| (id.into(), conf)))
}

/// Builds a case from its embedded data and checks it: anything the
/// GridLint pass rejects is reported here, once, not at every solver's
/// door.
fn build(key: CaseKey) -> Result<Snapshot, String> {
    let net = match key {
        CaseKey::Paper(id) => cases::build(id)?,
        CaseKey::Scale(id) => generate_scale(&id.spec()).map_err(|e| e.to_string())?,
    };
    if let Err(problems) = net.validate() {
        let problems: Vec<String> = problems.iter().map(|p| p.to_string()).collect();
        return Err(problems.join("; "));
    }
    let snapshot = Snapshot::new(net);
    snapshot.content_hash();
    Ok(snapshot)
}

/// The library's entry for `key`, built on first use. Threads racing
/// the first use block on one build and share its result. Counts
/// `network.case_library.builds` / `.hits`.
pub(crate) fn entry(key: CaseKey) -> &'static Snapshot {
    const SLOTS: usize = CaseId::ALL.len() + ScaleId::ALL.len();
    static LIBRARY: [OnceLock<Snapshot>; SLOTS] = [const { OnceLock::new() }; SLOTS];
    let mut built = false;
    let snapshot = LIBRARY[key.slot()].get_or_init(|| {
        built = true;
        // Whichever session happens to come first must not have the
        // generator's own solver counters (its DC calibration factors
        // matrices) land in its trace: they go to a scratch registry,
        // and the session sees `builds` alone.
        let scratch = gm_telemetry::Registry::new();
        let _muted = scratch.install();
        match build(key) {
            Ok(snapshot) => snapshot,
            // The inputs are constants compiled into this crate: a
            // failure here is a bug in the embedded data or the
            // generator, never something a caller can cause or handle.
            Err(why) => panic!("embedded case {} is broken: {why}", key.short_name()),
        }
    });
    if built {
        gm_telemetry::counter_add("network.case_library.builds", 1);
    } else {
        gm_telemetry::counter_add("network.case_library.hits", 1);
    }
    snapshot
}

/// The shared snapshot of a library case. The first use of a case in a
/// process pays its generator (tens of milliseconds for case118,
/// seconds for synth9241); every later one is a reference-count bump.
pub fn case(key: impl Into<CaseKey>) -> Snapshot {
    entry(key.into()).clone()
}

/// Looks a case up by fuzzy name, returning its snapshot and the
/// identification confidence (the paper's log line).
pub fn find(input: &str) -> Result<(Snapshot, f64), UnknownCase> {
    match identify(input) {
        Some((key, confidence)) => Ok((case(key), confidence)),
        None => Err(UnknownCase {
            input: input.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_entries_equal_a_direct_build() {
        for id in CaseId::ALL {
            let direct = cases::build(id).unwrap();
            let entry = case(id);
            assert_eq!(entry.content_hash(), direct.content_hash(), "{id:?}");
            assert_eq!(entry.content_hash(), Network::content_hash(&entry));
            assert!(Snapshot::ptr_eq(&entry, &case(id)), "{id:?} built twice");
        }
    }

    #[test]
    fn identify_spans_both_families() {
        assert_eq!(
            identify("ieee 118"),
            Some((CaseKey::Paper(CaseId::Ieee118), 0.95))
        );
        assert_eq!(
            identify("synth9241"),
            Some((CaseKey::Scale(ScaleId::Synth9241), 1.0))
        );
        assert_eq!(identify("case999"), None);
        let names: Vec<&str> = CaseKey::all().map(CaseKey::short_name).collect();
        assert_eq!(names.len(), 8);
        assert!(CaseKey::all().enumerate().all(|(i, k)| k.slot() == i));
    }

    #[test]
    fn snapshot_round_trips_as_the_bare_network() {
        let snapshot = case(CaseId::Ieee14);
        let blob = serde_json::to_value(&snapshot).unwrap();
        assert_eq!(blob, serde_json::to_value(&*snapshot).unwrap());
        let back: Snapshot = serde_json::from_value(blob).unwrap();
        assert!(!Snapshot::ptr_eq(&back, &snapshot));
        assert_eq!(back.content_hash(), snapshot.content_hash());
    }

    #[test]
    fn editing_a_copy_leaves_the_entry_alone() {
        let entry = case(CaseId::Ieee30);
        let before = entry.content_hash();
        let mut copy = Network::clone(&entry);
        copy.loads[0].p_mw += 1.0;
        let edited = Snapshot::new(copy);
        assert_ne!(edited.content_hash(), before);
        assert_eq!(case(CaseId::Ieee30).content_hash(), before);
        assert_eq!(Network::content_hash(&entry), before);
    }
}
