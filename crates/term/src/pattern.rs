//! The non-ground term layer: object-id-terms and version-id-terms with
//! variables, their matching against ground data, and the unification
//! used by the stratification conditions of §4.
//!
//! Two consequences of the paper's typing discipline drive this module:
//!
//! 1. Variables denote OIDs only ("a variable can only be instantiated
//!    by a OID, not VID", §2.1). A version-id-term is therefore always
//!    a *fixed* chain of update functors over a variable-or-constant
//!    base — never a variable standing for a whole version.
//! 2. It follows that unification of version-id-terms is decidable by a
//!    chain-equality check plus base unification (`mod(E)` does **not**
//!    unify with a bare variable `X`, because `X` ranges over `O` while
//!    `mod(E)` denotes an element of `O_V \ O`). This is exactly what
//!    makes the paper's own stratification of its running example come
//!    out as printed; see ARCHITECTURE.md, decision D2.

use std::fmt;

use crate::{Bindings, Chain, Const, UpdateKind, VarId, Vid};

/// An object-id-term: a variable or an OID (§2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BaseTerm {
    /// A rule variable (ranges over `O`).
    Var(VarId),
    /// A ground OID.
    Const(Const),
}

/// Method arguments and results are object-id-terms too (footnote 1 of
/// the paper: "On the result-position of a method only object-id-terms
/// will be allowed, not version-id-terms").
pub type ArgTerm = BaseTerm;

impl BaseTerm {
    /// Ground value under `bindings`, if any.
    #[inline]
    pub fn ground(self, bindings: &Bindings) -> Option<Const> {
        match self {
            BaseTerm::Var(v) => bindings.get(v),
            BaseTerm::Const(c) => Some(c),
        }
    }

    /// True if this term contains no variable.
    #[inline]
    pub fn is_ground(self) -> bool {
        matches!(self, BaseTerm::Const(_))
    }

    /// The variable, if this term is one.
    #[inline]
    pub fn as_var(self) -> Option<VarId> {
        match self {
            BaseTerm::Var(v) => Some(v),
            BaseTerm::Const(_) => None,
        }
    }

    /// Match against a ground OID, binding a variable if needed.
    /// Returns false (without consuming trail marks) on mismatch.
    #[inline]
    pub fn matches(self, value: Const, bindings: &mut Bindings) -> bool {
        match self {
            BaseTerm::Var(v) => bindings.unify_var(v, value),
            BaseTerm::Const(c) => c == value,
        }
    }

    /// Syntactic unifiability with another object-id-term, treating the
    /// two sides as standardized apart (variables from distinct rules).
    #[inline]
    pub fn unifiable(self, other: BaseTerm) -> bool {
        match (self, other) {
            (BaseTerm::Var(_), _) | (_, BaseTerm::Var(_)) => true,
            (BaseTerm::Const(a), BaseTerm::Const(b)) => a == b,
        }
    }
}

impl fmt::Display for BaseTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseTerm::Var(v) => write!(f, "{v:?}"),
            BaseTerm::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Const> for BaseTerm {
    fn from(c: Const) -> Self {
        BaseTerm::Const(c)
    }
}

impl From<VarId> for BaseTerm {
    fn from(v: VarId) -> Self {
        BaseTerm::Var(v)
    }
}

/// A version-id-term: an update chain over an object-id-term base.
///
/// Examples: `E` (empty chain, var base), `henry`, `mod(E)`,
/// `del(mod(bob))`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VidTerm {
    /// The innermost object-id-term.
    pub base: BaseTerm,
    /// The functor chain applied over it (innermost first).
    pub chain: Chain,
}

impl VidTerm {
    /// A bare object-id-term as a version-id-term.
    #[inline]
    pub fn object(base: BaseTerm) -> VidTerm {
        VidTerm { base, chain: Chain::EMPTY }
    }

    /// A ground VID as a term.
    #[inline]
    pub fn from_vid(vid: Vid) -> VidTerm {
        VidTerm { base: BaseTerm::Const(vid.base()), chain: vid.chain() }
    }

    /// Apply one more update functor (outermost).
    #[inline]
    pub fn apply(self, kind: UpdateKind) -> Result<VidTerm, crate::ChainOverflow> {
        Ok(VidTerm { base: self.base, chain: self.chain.push(kind)? })
    }

    /// True if the term contains no variable.
    #[inline]
    pub fn is_ground(self) -> bool {
        self.base.is_ground()
    }

    /// Ground VID under `bindings`, if the base is bound.
    #[inline]
    pub fn ground(self, bindings: &Bindings) -> Option<Vid> {
        self.base.ground(bindings).map(|c| Vid::new(c, self.chain))
    }

    /// Match against a ground VID: the chains must be identical and the
    /// base must match (binding a base variable if unbound).
    #[inline]
    pub fn matches(self, vid: Vid, bindings: &mut Bindings) -> bool {
        self.chain == vid.chain() && self.base.matches(vid.base(), bindings)
    }

    /// Unifiability of two version-id-terms standardized apart: chains
    /// identical and bases unifiable (ARCHITECTURE.md, decision D2).
    #[inline]
    pub fn unifiable(self, other: VidTerm) -> bool {
        self.chain == other.chain && self.base.unifiable(other.base)
    }

    /// The subterm version-id-terms of `self`: every chain prefix over
    /// the same base, innermost first, ending with `self` itself.
    ///
    /// §4 uses "unifies with a subterm of V" in all four stratification
    /// conditions; this enumeration is what they quantify over.
    pub fn subterm_terms(self) -> impl Iterator<Item = VidTerm> {
        let base = self.base;
        self.chain.prefixes().map(move |c| VidTerm { base, chain: c })
    }

    /// True if `other` unifies with some (reflexive) subterm of `self`.
    pub fn subterm_unifies(self, other: VidTerm) -> bool {
        // Chains must match exactly for unification, so the only
        // candidate subterm is the prefix of self.chain with
        // other.chain.len() levels — if it exists and is equal.
        other.chain.is_prefix_of(self.chain) && self.base.unifiable(other.base)
    }

    /// Depth of the term (number of update functors).
    #[inline]
    pub fn depth(self) -> usize {
        self.chain.len()
    }

    /// The inner version-id-term with the outermost functor stripped.
    #[inline]
    pub fn unapply(self) -> Option<(VidTerm, UpdateKind)> {
        self.chain.pop().map(|(c, k)| (VidTerm { base: self.base, chain: c }, k))
    }
}

impl fmt::Display for VidTerm {
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

impl From<Vid> for VidTerm {
    fn from(v: Vid) -> Self {
        VidTerm::from_vid(v)
    }
}

/// The version referenced by a version-term: either a classic
/// version-id-term (fixed chain over an object-id-term) or a
/// VID-quantified variable (§6 extension, surface syntax `$V`).
///
/// VID variables range over the ground VIDs *present in the current
/// interpretation* and are body-only; both restrictions preserve the
/// paper's termination argument (a safe program still creates finitely
/// many versions because heads quantify over OIDs with fixed chains).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VidRef {
    /// A version-id-term.
    Term(VidTerm),
    /// A VID variable.
    Var(crate::VidVarId),
}

impl VidRef {
    /// A bare object-id-term.
    #[inline]
    pub fn object(base: BaseTerm) -> VidRef {
        VidRef::Term(VidTerm::object(base))
    }

    /// Ground VID under `bindings`, if resolvable.
    #[inline]
    pub fn ground(self, bindings: &Bindings) -> Option<Vid> {
        match self {
            VidRef::Term(t) => t.ground(bindings),
            VidRef::Var(v) => bindings.get_vid(v),
        }
    }

    /// The version-id-term, if this is not a VID variable.
    #[inline]
    pub fn as_term(self) -> Option<VidTerm> {
        match self {
            VidRef::Term(t) => Some(t),
            VidRef::Var(_) => None,
        }
    }

    /// The VID variable, if any.
    #[inline]
    pub fn as_vid_var(self) -> Option<crate::VidVarId> {
        match self {
            VidRef::Term(_) => None,
            VidRef::Var(v) => Some(v),
        }
    }

    /// Match against a ground VID, binding the base variable or the VID
    /// variable as needed.
    #[inline]
    pub fn matches(self, vid: Vid, bindings: &mut Bindings) -> bool {
        match self {
            VidRef::Term(t) => t.matches(vid, bindings),
            VidRef::Var(v) => bindings.unify_vid_var(v, vid),
        }
    }
}

impl From<VidTerm> for VidRef {
    fn from(t: VidTerm) -> Self {
        VidRef::Term(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{int, oid};
    use UpdateKind::{Del, Ins, Mod};

    fn var(i: u32) -> BaseTerm {
        BaseTerm::Var(VarId(i))
    }

    fn vt(base: BaseTerm, kinds: &[UpdateKind]) -> VidTerm {
        VidTerm { base, chain: Chain::from_kinds(kinds).unwrap() }
    }

    #[test]
    fn matching_binds_base_variable() {
        let t = vt(var(0), &[Mod]);
        let ground = Vid::object(oid("phil")).apply(Mod).unwrap();
        let mut b = Bindings::new(1);
        assert!(t.matches(ground, &mut b));
        assert_eq!(b.get(VarId(0)), Some(oid("phil")));
        // Re-matching against a different object fails on the binding.
        let other = Vid::object(oid("bob")).apply(Mod).unwrap();
        assert!(!t.matches(other, &mut b));
    }

    #[test]
    fn matching_requires_exact_chain() {
        let t = vt(var(0), &[Mod]);
        let mut b = Bindings::new(1);
        assert!(!t.matches(Vid::object(oid("phil")), &mut b));
        let deeper = Vid::object(oid("phil")).apply(Mod).unwrap().apply(Del).unwrap();
        assert!(!t.matches(deeper, &mut b));
        assert!(!b.is_bound(VarId(0)));
    }

    #[test]
    fn unification_is_chain_exact() {
        // D2: mod(E) does not unify with a bare variable X.
        let mod_e = vt(var(0), &[Mod]);
        let x = vt(var(1), &[]);
        assert!(!mod_e.unifiable(x));
        assert!(!x.unifiable(mod_e));
        // mod(E) unifies with mod(F) and with mod(o).
        assert!(mod_e.unifiable(vt(var(1), &[Mod])));
        assert!(mod_e.unifiable(vt(BaseTerm::Const(oid("o")), &[Mod])));
        // del(mod(E)) vs mod(F): no.
        assert!(!vt(var(0), &[Mod, Del]).unifiable(vt(var(1), &[Mod])));
        // Constants must agree.
        assert!(
            !vt(BaseTerm::Const(oid("a")), &[Ins]).unifiable(vt(BaseTerm::Const(oid("b")), &[Ins]))
        );
    }

    #[test]
    fn subterm_unifies_enumerates_prefixes() {
        // Head del(mod(E)): V = mod(E), but the helper works on any term.
        let dme = vt(var(0), &[Mod, Del]);
        // mod(F) unifies with the subterm mod(E).
        assert!(dme.subterm_unifies(vt(var(1), &[Mod])));
        // F (bare var) unifies with the subterm E.
        assert!(dme.subterm_unifies(vt(var(1), &[])));
        // del(F) does not unify with any subterm (chain [Del] is not a
        // prefix of [Mod, Del]).
        assert!(!dme.subterm_unifies(vt(var(1), &[Del])));
        // del(mod(F)) unifies with the whole term.
        assert!(dme.subterm_unifies(vt(var(1), &[Mod, Del])));
    }

    #[test]
    fn paper_example_stratification_unifications() {
        // rule1/rule2 heads: mod(E); rule3 head: del(mod(E)) with
        // V = mod(E); rule4 head: ins(mod(E)) with V = mod(E).
        let head12 = vt(var(0), &[Mod]);
        let v3 = vt(var(1), &[Mod]); // the V of del[mod(E)]
                                     // Condition (a): head12 unifies with a subterm of V3.
        assert!(v3.subterm_unifies(head12));
        // rule3's full head VID does not unify with V4 = mod(E)'s subterms.
        let head3 = vt(var(1), &[Mod, Del]);
        let v4 = vt(var(2), &[Mod]);
        assert!(!v4.subterm_unifies(head3));
    }

    #[test]
    fn ground_and_display() {
        let t = vt(var(0), &[Mod, Ins]);
        let mut b = Bindings::new(1);
        assert_eq!(t.ground(&b), None);
        b.bind(VarId(0), int(9));
        let v = t.ground(&b).unwrap();
        assert_eq!(v.to_string(), "ins(mod(9))");
        assert_eq!(t.to_string(), "ins(mod(?0))");
    }

    #[test]
    fn subterm_terms_order() {
        let t = vt(BaseTerm::Const(oid("o")), &[Mod, Del]);
        let subs: Vec<String> = t.subterm_terms().map(|s| s.to_string()).collect();
        assert_eq!(subs, vec!["o", "mod(o)", "del(mod(o))"]);
    }
}
