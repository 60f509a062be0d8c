//! Ground version identities (VIDs).
//!
//! §2.1: "A version-id-term is defined as follows: (1) any object-id-term
//! is also a version-id-term; (2) let V be a version-id-term, then φ(V)
//! with φ ∈ F is a version-id-term. The set of all ground
//! version-id-terms is denoted by `O_V`; its elements are called
//! version-identities (VIDs)." Note `O ⊆ O_V`: a bare OID is the VID of
//! the initial, not-yet-updated version.

use std::fmt;

use crate::{Chain, ChainOverflow, Const, UpdateKind};

/// A ground version identity: a base OID and the chain of updates
/// applied to it. `Vid` is `Copy` (24 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vid {
    base: Const,
    chain: Chain,
}

impl Vid {
    /// The initial version of an object: the OID itself (`o ∈ O ⊆ O_V`).
    #[inline]
    pub fn object(base: Const) -> Vid {
        Vid { base, chain: Chain::EMPTY }
    }

    /// A version with an explicit chain over `base`.
    #[inline]
    pub fn new(base: Const, chain: Chain) -> Vid {
        Vid { base, chain }
    }

    /// The object this is a version of.
    #[inline]
    pub fn base(self) -> Const {
        self.base
    }

    /// The applied update chain.
    #[inline]
    pub fn chain(self) -> Chain {
        self.chain
    }

    /// True for a bare OID (no updates applied).
    #[inline]
    pub fn is_object(self) -> bool {
        self.chain.is_empty()
    }

    /// `φ(self)` — the version after an update of kind `φ`.
    #[inline]
    pub fn apply(self, kind: UpdateKind) -> Result<Vid, ChainOverflow> {
        Ok(Vid { base: self.base, chain: self.chain.push(kind)? })
    }

    /// Strip the outermost functor: `mod(v) → (v, Mod)`; `None` for a
    /// bare OID.
    #[inline]
    pub fn unapply(self) -> Option<(Vid, UpdateKind)> {
        self.chain.pop().map(|(c, k)| (Vid { base: self.base, chain: c }, k))
    }

    /// §5 subterm relation: `self` is a (reflexive) subterm of `other`.
    /// Both must denote versions of the same object.
    #[inline]
    pub fn is_subterm_of(self, other: Vid) -> bool {
        self.base == other.base && self.chain.is_prefix_of(other.chain)
    }

    /// Version-linearity for a pair: one is a subterm of the other.
    #[inline]
    pub fn comparable(self, other: Vid) -> bool {
        self.base == other.base && self.chain.comparable(other.chain)
    }

    /// All subterm VIDs, innermost (bare object) first, ending in `self`.
    pub fn subterms(self) -> impl DoubleEndedIterator<Item = Vid> {
        let base = self.base;
        self.chain.prefixes().map(move |c| Vid { base, chain: c })
    }

    /// Depth of the version (number of updates applied).
    #[inline]
    pub fn depth(self) -> usize {
        self.chain.len()
    }
}

impl fmt::Display for Vid {
    /// Functional notation, e.g. `del(mod(bob))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.chain.len();
        for i in (0..n).rev() {
            write!(f, "{}(", self.chain.get(i))?;
        }
        write!(f, "{}", self.base)?;
        for _ in 0..n {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<Const> for Vid {
    fn from(base: Const) -> Self {
        Vid::object(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{int, oid};
    use UpdateKind::{Del, Ins, Mod};

    #[test]
    fn display_matches_paper_notation() {
        let henry = Vid::object(oid("henry"));
        assert_eq!(henry.to_string(), "henry");
        let m = henry.apply(Mod).unwrap();
        assert_eq!(m.to_string(), "mod(henry)");
        let dm = m.apply(Del).unwrap();
        assert_eq!(dm.to_string(), "del(mod(henry))");
        let idm = dm.apply(Ins).unwrap();
        assert_eq!(idm.to_string(), "ins(del(mod(henry)))");
    }

    #[test]
    fn unapply_inverts_apply() {
        let v = Vid::object(oid("o")).apply(Mod).unwrap().apply(Del).unwrap();
        let (inner, k) = v.unapply().unwrap();
        assert_eq!(k, Del);
        assert_eq!(inner, Vid::object(oid("o")).apply(Mod).unwrap());
        assert_eq!(Vid::object(oid("o")).unapply(), None);
    }

    #[test]
    fn subterm_requires_same_base() {
        let a = Vid::object(oid("a")).apply(Mod).unwrap();
        let b = Vid::object(oid("b")).apply(Mod).unwrap().apply(Del).unwrap();
        assert!(!a.is_subterm_of(b));
        assert!(!a.comparable(b));
        let a2 = Vid::object(oid("a")).apply(Mod).unwrap().apply(Del).unwrap();
        assert!(a.is_subterm_of(a2));
        assert!(a.comparable(a2));
    }

    #[test]
    fn subterms_enumeration() {
        let v = Vid::object(int(7)).apply(Mod).unwrap().apply(Ins).unwrap();
        let subs: Vec<String> = v.subterms().map(|s| s.to_string()).collect();
        assert_eq!(subs, vec!["7", "mod(7)", "ins(mod(7))"]);
    }

    #[test]
    fn values_can_be_version_bases() {
        // Values are OIDs; nothing stops them being versioned in the
        // term layer (the engine never does, but the algebra is total).
        let v = Vid::object(int(250)).apply(Del).unwrap();
        assert_eq!(v.to_string(), "del(250)");
        assert_eq!(v.depth(), 1);
    }
}
