//! Version-linearity (§5).
//!
//! "We call result(P) *version-linear*, if for any two VIDs v, v' of the
//! same object o it holds, that either v is a subterm of v', or vice
//! versa. … Version-linearity can be easily checked during evaluation:
//! At any point of time, keep the VID of the most recent version of each
//! object and check whether the VID of any new version of the same
//! object contains the previous VID as subterm."
//!
//! [`LinearityTracker`] implements exactly that incremental check;
//! [`check_all_linear`] is the quadratic reference implementation used
//! to cross-validate it in property tests.

use std::fmt;

use ruvo_term::{Chain, Const, FastHashMap, Vid};

/// Two incomparable versions of the same object were created — the
/// program is rejected (§5: "to exclude such programs … a run-time
/// check during the computation of result(P) is appropriate").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinearityViolation {
    /// The object with conflicting versions.
    pub object: Const,
    /// The previously recorded most-recent version.
    pub existing: Vid,
    /// The incomparable newly created version.
    pub conflicting: Vid,
}

impl fmt::Display for LinearityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "version-linearity violated for object {}: versions {} and {} are incomparable \
             (neither is a subterm of the other)",
            self.object, self.existing, self.conflicting
        )
    }
}

impl std::error::Error for LinearityViolation {}

/// Incremental version-linearity checker and final-version registry.
#[derive(Clone, Debug, Default)]
pub struct LinearityTracker {
    latest: FastHashMap<Const, Chain>,
}

impl LinearityTracker {
    /// A tracker with no recorded versions.
    pub fn new() -> LinearityTracker {
        LinearityTracker::default()
    }

    /// Record a newly created (or pre-existing) version of an object.
    ///
    /// Keeps the *deepest* version per object; errors if the new version
    /// is incomparable with the recorded one.
    pub fn record(&mut self, vid: Vid) -> Result<(), LinearityViolation> {
        let entry = self.latest.entry(vid.base()).or_insert(Chain::EMPTY);
        let chain = vid.chain();
        if entry.is_prefix_of(chain) {
            *entry = chain;
            Ok(())
        } else if chain.is_prefix_of(*entry) {
            Ok(())
        } else {
            Err(LinearityViolation {
                object: vid.base(),
                existing: Vid::new(vid.base(), *entry),
                conflicting: vid,
            })
        }
    }

    /// Iterate `(object, deepest recorded version)` pairs for all
    /// recorded objects. Once every version of an object is recorded,
    /// its pair holds §5's *final version*: "that version of o …
    /// whose VID contains all VIDs of the other versions of o as a
    /// subterm".
    pub fn iter(&self) -> impl Iterator<Item = (Const, Vid)> + '_ {
        self.latest.iter().map(|(&b, &c)| (b, Vid::new(b, c)))
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }
}

/// Quadratic reference check: are all versions of each object pairwise
/// comparable? Returns the first violation found (in unspecified order).
pub fn check_all_linear(vids: impl IntoIterator<Item = Vid>) -> Result<(), LinearityViolation> {
    let mut per_object: FastHashMap<Const, Vec<Vid>> = FastHashMap::default();
    for v in vids {
        per_object.entry(v.base()).or_default().push(v);
    }
    for (object, versions) in per_object {
        for i in 0..versions.len() {
            for j in (i + 1)..versions.len() {
                if !versions[i].comparable(versions[j]) {
                    return Err(LinearityViolation {
                        object,
                        existing: versions[i],
                        conflicting: versions[j],
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{
        oid,
        UpdateKind::{Del, Ins, Mod},
    };

    fn v(name: &str, kinds: &[ruvo_term::UpdateKind]) -> Vid {
        Vid::new(oid(name), Chain::from_kinds(kinds).unwrap())
    }

    /// The deepest recorded version of `name`, if any.
    fn deepest(t: &LinearityTracker, name: &str) -> Option<Vid> {
        t.iter().find(|&(base, _)| base == oid(name)).map(|(_, fv)| fv)
    }

    #[test]
    fn linear_chain_is_accepted() {
        let mut t = LinearityTracker::new();
        t.record(v("o", &[])).unwrap();
        t.record(v("o", &[Mod])).unwrap();
        t.record(v("o", &[Mod, Del])).unwrap();
        t.record(v("o", &[Mod, Del, Ins])).unwrap();
        assert_eq!(deepest(&t, "o"), Some(v("o", &[Mod, Del, Ins])));
    }

    #[test]
    fn out_of_order_recording_is_fine() {
        // Versions may be *recorded* deepest-first (e.g. del(mod(o))
        // created from v* = o without mod(o) ever existing).
        let mut t = LinearityTracker::new();
        t.record(v("o", &[Mod, Del])).unwrap();
        t.record(v("o", &[Mod])).unwrap();
        t.record(v("o", &[])).unwrap();
        assert_eq!(deepest(&t, "o"), Some(v("o", &[Mod, Del])));
    }

    #[test]
    fn incomparable_versions_rejected() {
        // The paper's §5 example: mod[o].m -> (a,b) and del[o].m -> a
        // both firing creates mod(o) and del(o).
        let mut t = LinearityTracker::new();
        t.record(v("o", &[Mod])).unwrap();
        let err = t.record(v("o", &[Del])).unwrap_err();
        assert_eq!(err.object, oid("o"));
        assert_eq!(err.existing, v("o", &[Mod]));
        assert_eq!(err.conflicting, v("o", &[Del]));
        let msg = err.to_string();
        assert!(msg.contains("mod(o)") && msg.contains("del(o)"), "got: {msg}");
    }

    #[test]
    fn different_objects_are_independent() {
        let mut t = LinearityTracker::new();
        t.record(v("a", &[Mod])).unwrap();
        t.record(v("b", &[Del])).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(deepest(&t, "a"), Some(v("a", &[Mod])));
        assert_eq!(deepest(&t, "b"), Some(v("b", &[Del])));
    }

    #[test]
    fn brute_force_agrees_on_examples() {
        assert!(check_all_linear([v("o", &[]), v("o", &[Mod]), v("o", &[Mod, Del])]).is_ok());
        assert!(check_all_linear([v("o", &[Mod]), v("o", &[Del])]).is_err());
        assert!(check_all_linear([v("a", &[Mod]), v("b", &[Del])]).is_ok());
        // Incomparable deep versions sharing a prefix.
        assert!(check_all_linear([v("o", &[Mod, Del]), v("o", &[Mod, Ins])]).is_err());
    }
}
