//! Summary statistics over an object base.

use std::fmt;

/// Size/shape summary of an [`crate::ObjectBase`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObStats {
    /// Distinct base OIDs with at least one version.
    pub objects: usize,
    /// Distinct versions (VIDs) with at least one fact.
    pub versions: usize,
    /// Total ground version-terms.
    pub facts: usize,
    /// Distinct method names in use.
    pub distinct_methods: usize,
    /// Deepest update chain among stored versions.
    pub max_version_depth: usize,
}

impl fmt::Display for ObStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} objects, {} versions, {} facts, {} methods, max depth {}",
            self.objects, self.versions, self.facts, self.distinct_methods, self.max_version_depth
        )
    }
}

/// Copy-on-write sharing diagnostics between two object bases, as
/// reported by [`crate::ObjectBase::cow_stats`]: of the
/// `indexes × shards_per_index` index shard nodes, how many are still
/// the *same allocation* in both bases. A fresh clone shares all of
/// them; every write unshares at most one shard node and one leaf
/// (≈ 1/256 of the map) per map written, so `total() - shared_shards`
/// counts the maps' shards a working copy has written to, each of
/// which has duplicated 16 leaf pointers plus the leaves written.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Sharded maps per object base (the version table + 3 indexes).
    pub indexes: usize,
    /// Copy-on-write shards per map ([`crate::SHARD_COUNT`]).
    pub shards_per_index: usize,
    /// Shards whose allocation both bases still share.
    pub shared_shards: usize,
}

impl CowStats {
    /// Total shards per base (`indexes × shards_per_index`).
    pub fn total(&self) -> usize {
        self.indexes * self.shards_per_index
    }

    /// Shards this base has unshared (deep-copied) relative to the
    /// other.
    pub fn unshared_shards(&self) -> usize {
        self.total() - self.shared_shards
    }

    /// True if the two bases share every index shard (e.g. a clone
    /// that has not been written to).
    pub fn fully_shared(&self) -> bool {
        self.shared_shards == self.total()
    }
}

impl fmt::Display for CowStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} index shards shared ({} indexes × {} shards)",
            self.shared_shards,
            self.total(),
            self.indexes,
            self.shards_per_index
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cow_stats_arithmetic() {
        let s = CowStats { indexes: 5, shards_per_index: 16, shared_shards: 76 };
        assert_eq!(s.total(), 80);
        assert_eq!(s.unshared_shards(), 4);
        assert!(!s.fully_shared());
        assert!(CowStats { shared_shards: 80, ..s }.fully_shared());
        assert!(s.to_string().contains("76/80"));
    }

    #[test]
    fn display_is_informative() {
        let s = ObStats {
            objects: 2,
            versions: 3,
            facts: 7,
            distinct_methods: 4,
            max_version_depth: 1,
        };
        let text = s.to_string();
        assert!(text.contains("2 objects"));
        assert!(text.contains("max depth 1"));
    }
}
