//! Packed update chains: the `F = {ins, del, mod}` functor strings.
//!
//! A version identity is `φk(φk-1(...φ1(o)))` for update kinds `φi`.
//! We store the application string `φ1 … φk` (innermost first) packed
//! two bits per kind in a `u64`, plus an explicit length. The paper's
//! subterm relation on VIDs of one object ("v is a subterm of v'",
//! §5 version-linearity) becomes a bit-prefix test.

use std::fmt;

/// One of the paper's three update function symbols.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum UpdateKind {
    /// `ins` — the new version's state gains a method-application.
    Ins = 1,
    /// `del` — the new version's state loses a method-application.
    Del = 2,
    /// `mod` — the new version's state replaces a method result.
    Mod = 3,
}

impl UpdateKind {
    /// All kinds, in declaration order.
    pub const ALL: [UpdateKind; 3] = [UpdateKind::Ins, UpdateKind::Del, UpdateKind::Mod];

    /// The surface keyword (`ins` / `del` / `mod`).
    pub fn keyword(self) -> &'static str {
        match self {
            UpdateKind::Ins => "ins",
            UpdateKind::Del => "del",
            UpdateKind::Mod => "mod",
        }
    }

    #[inline]
    fn from_bits(b: u64) -> UpdateKind {
        match b {
            1 => UpdateKind::Ins,
            2 => UpdateKind::Del,
            3 => UpdateKind::Mod,
            _ => unreachable!("invalid chain bits"),
        }
    }
}

impl fmt::Display for UpdateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Error: an update chain exceeded [`Chain::MAX_LEN`] applications.
///
/// The paper's safe programs only build chains as deep as the number of
/// syntactically distinct version-id-terms in the program, so 32 levels
/// is far beyond any realistic update-program; hitting this limit almost
/// certainly indicates a runaway program and is reported as an error
/// rather than a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainOverflow;

impl fmt::Display for ChainOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "update chain exceeds {} applications", Chain::MAX_LEN)
    }
}

impl std::error::Error for ChainOverflow {}

/// A packed string of update kinds, innermost (first applied) first.
///
/// `Chain` is `Copy`, 16 bytes, and totally ordered (lexicographic in
/// application order — handy for deterministic iteration, not
/// semantically meaningful).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Chain {
    bits: u64,
    len: u8,
}

impl Chain {
    /// The empty chain: the object itself, no updates applied.
    pub const EMPTY: Chain = Chain { bits: 0, len: 0 };

    /// Maximum number of stacked updates (2 bits each in a `u64`).
    pub const MAX_LEN: usize = 32;

    /// Number of applied updates.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True for the bare-object chain.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Apply one more update on top (outermost); `ins(self)` etc.
    #[inline]
    pub fn push(self, kind: UpdateKind) -> Result<Chain, ChainOverflow> {
        if self.len() >= Self::MAX_LEN {
            return Err(ChainOverflow);
        }
        Ok(Chain { bits: self.bits | ((kind as u64) << (2 * self.len)), len: self.len + 1 })
    }

    /// Remove the outermost update, returning the inner chain and the
    /// removed kind. `None` on the empty chain.
    #[inline]
    pub fn pop(self) -> Option<(Chain, UpdateKind)> {
        if self.len == 0 {
            return None;
        }
        let newlen = self.len - 1;
        let shift = 2 * newlen as u64;
        let kind = UpdateKind::from_bits((self.bits >> shift) & 0b11);
        Some((Chain { bits: self.bits & !(0b11 << shift), len: newlen }, kind))
    }

    /// The update kind applied at position `i` (0 = innermost/first).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(self, i: usize) -> UpdateKind {
        assert!(i < self.len(), "chain index {i} out of bounds (len {})", self.len());
        UpdateKind::from_bits((self.bits >> (2 * i)) & 0b11)
    }

    /// The outermost (most recent) update kind, if any.
    #[inline]
    pub fn outermost(self) -> Option<UpdateKind> {
        if self.len == 0 {
            None
        } else {
            Some(self.get(self.len() - 1))
        }
    }

    /// Iterate kinds in application order (innermost first).
    pub fn iter(self) -> impl Iterator<Item = UpdateKind> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Build from a slice of kinds in application order.
    pub fn from_kinds(kinds: &[UpdateKind]) -> Result<Chain, ChainOverflow> {
        let mut c = Chain::EMPTY;
        for &k in kinds {
            c = c.push(k)?;
        }
        Ok(c)
    }

    /// §5 subterm relation restricted to chains: `self` is a prefix of
    /// `other` in application order, i.e. the version denoted by `self`
    /// (over some base) is a subterm of the one denoted by `other`.
    /// Reflexive. O(1).
    #[inline]
    pub fn is_prefix_of(self, other: Chain) -> bool {
        if self.len > other.len {
            return false;
        }
        let mask = if self.len == 0 { 0 } else { u64::MAX >> (64 - 2 * self.len as u64) };
        (other.bits & mask) == self.bits
    }

    /// True if the two chains are comparable in the subterm order —
    /// exactly the paper's *version-linearity* condition for a pair.
    #[inline]
    pub fn comparable(self, other: Chain) -> bool {
        self.is_prefix_of(other) || other.is_prefix_of(self)
    }

    /// All prefixes from the empty chain up to and including `self`
    /// (the subterm chains of a VID with this chain), innermost first.
    pub fn prefixes(self) -> impl DoubleEndedIterator<Item = Chain> {
        (0..=self.len()).map(move |k| {
            let mask = if k == 0 { 0 } else { u64::MAX >> (64 - 2 * k as u64) };
            Chain { bits: self.bits & mask, len: k as u8 }
        })
    }
}

impl fmt::Display for Chain {
    /// Displays in functional orientation without a base, e.g. the chain
    /// `[mod, del]` (mod applied first) prints `del(mod(·))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.len()).rev() {
            write!(f, "{}(", self.get(i))?;
        }
        write!(f, "·")?;
        for _ in 0..self.len() {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Chain[{}]", self)
    }
}

impl PartialOrd for Chain {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Chain {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic in application order, then by length.
        let common = self.len.min(other.len) as usize;
        for i in 0..common {
            match self.get(i).cmp(&other.get(i)) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.len.cmp(&other.len)
    }
}

#[cfg(test)]
mod tests {
    use super::UpdateKind::{Del, Ins, Mod};
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let c = Chain::EMPTY.push(Mod).unwrap().push(Del).unwrap().push(Ins).unwrap();
        assert_eq!(c.len(), 3);
        let (c2, k) = c.pop().unwrap();
        assert_eq!(k, Ins);
        let (c3, k) = c2.pop().unwrap();
        assert_eq!(k, Del);
        let (c4, k) = c3.pop().unwrap();
        assert_eq!(k, Mod);
        assert!(c4.is_empty());
        assert_eq!(c4.pop(), None);
    }

    #[test]
    fn display_functional_orientation() {
        // Paper's ins(del(mod(o))): mod applied first.
        let c = Chain::from_kinds(&[Mod, Del, Ins]).unwrap();
        assert_eq!(c.to_string(), "ins(del(mod(·)))");
        assert_eq!(Chain::EMPTY.to_string(), "·");
    }

    #[test]
    fn prefix_is_subterm() {
        let modc = Chain::from_kinds(&[Mod]).unwrap();
        let dm = Chain::from_kinds(&[Mod, Del]).unwrap();
        let idm = Chain::from_kinds(&[Mod, Del, Ins]).unwrap();
        assert!(Chain::EMPTY.is_prefix_of(idm));
        assert!(modc.is_prefix_of(dm));
        assert!(dm.is_prefix_of(idm));
        assert!(!dm.is_prefix_of(modc));
        assert!(idm.is_prefix_of(idm));
        // mod(o) vs ins(o): incomparable.
        let ins = Chain::from_kinds(&[Ins]).unwrap();
        assert!(!modc.is_prefix_of(ins));
        assert!(!ins.is_prefix_of(modc));
        assert!(!ins.comparable(modc));
        assert!(modc.comparable(idm));
    }

    #[test]
    fn prefixes_enumerate_subterm_chains() {
        let idm = Chain::from_kinds(&[Mod, Del, Ins]).unwrap();
        let all: Vec<Chain> = idm.prefixes().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0], Chain::EMPTY);
        assert_eq!(all[1], Chain::from_kinds(&[Mod]).unwrap());
        assert_eq!(all[2], Chain::from_kinds(&[Mod, Del]).unwrap());
        assert_eq!(all[3], idm);
    }

    #[test]
    fn overflow_is_an_error() {
        let mut c = Chain::EMPTY;
        for _ in 0..Chain::MAX_LEN {
            c = c.push(Ins).unwrap();
        }
        assert_eq!(c.push(Ins), Err(ChainOverflow));
    }

    #[test]
    fn get_out_of_bounds_panics() {
        let c = Chain::from_kinds(&[Ins]).unwrap();
        let r = std::panic::catch_unwind(|| c.get(1));
        assert!(r.is_err());
    }

    #[test]
    fn max_length_chain_prefix_check() {
        let full = Chain::from_kinds(&[Mod; 32]).unwrap();
        assert!(full.is_prefix_of(full));
        let half = Chain::from_kinds(&[Mod; 16]).unwrap();
        assert!(half.is_prefix_of(full));
        assert!(!full.is_prefix_of(half));
    }

    #[test]
    fn ord_is_total_and_consistent() {
        let a = Chain::from_kinds(&[Ins, Del]).unwrap();
        let b = Chain::from_kinds(&[Ins]).unwrap();
        let c = Chain::from_kinds(&[Mod]).unwrap();
        let mut v = [a, b, c, Chain::EMPTY];
        v.sort();
        assert_eq!(v[0], Chain::EMPTY);
        // prefix sorts before extension
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }
}
