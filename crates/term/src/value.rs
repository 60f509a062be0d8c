//! Ground object identities (OIDs).
//!
//! §2.1 of the paper: "For formal simplicity, we do not introduce types
//! for values — we consider values as specific OIDs in `O`." The OID
//! domain therefore contains symbolic identities (`henry`, `empl`),
//! 64-bit integers and finite 64-bit floats. The domain is totally
//! ordered so the arithmetic built-ins (`<`, `>`, …) are decidable on
//! all of it.

use std::cmp::Ordering;
use std::fmt;

use crate::{sym, Symbol};

/// A 64-bit float that is guaranteed finite-or-infinite but never NaN,
/// giving it a total order and a consistent `Eq`/`Hash`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wrap a float; `None` if it is NaN.
    #[inline]
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            // Normalize -0.0 to 0.0 so Eq and Hash agree.
            Some(OrderedF64(if v == 0.0 { 0.0 } else { v }))
        }
    }

    /// The wrapped float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: NaN excluded by construction.
        self.0.partial_cmp(&other.0).expect("OrderedF64 is never NaN")
    }
}

impl std::hash::Hash for OrderedF64 {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.fract() == 0.0 && self.0.abs() < 1e15 {
            // Print `4500.0` rather than `4500` so re-parsing keeps the type.
            write!(f, "{:.1}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A ground OID: symbolic identity, integer value, or numeric value.
///
/// `Const` is the paper's `O`. It appears as the base of every version
/// identity, as method arguments and as method results.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Const {
    /// Symbolic object identity (`henry`, `empl`, `mgr`, …).
    Sym(Symbol),
    /// Integer value-OID.
    Int(i64),
    /// Numeric (floating) value-OID.
    Num(OrderedF64),
}

impl Const {
    /// Numeric view, for arithmetic built-ins. Symbols have none.
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Const::Sym(_) => None,
            Const::Int(i) => Some(i as f64),
            Const::Num(n) => Some(n.get()),
        }
    }

    /// True if this OID denotes a number (int or float).
    #[inline]
    pub fn is_numeric(self) -> bool {
        !matches!(self, Const::Sym(_))
    }

    /// Build a numeric constant, collapsing integral floats to `Int`.
    ///
    /// Arithmetic is performed in `f64`; results that are exactly
    /// integral are stored as `Int` so that `100 * 1.1 + 200` compares
    /// equal to an integer salary found in the object base when it
    /// happens to be integral.
    ///
    /// The integral range is exactly `[-2^63, 2^63)`: `i64::MIN as
    /// f64` is `-2^63` (representable), while the upper bound must be
    /// *strict* because `i64::MAX as f64` rounds up to `2^63`, which
    /// does not fit an `i64` — an inclusive bound would admit
    /// `9223372036854775808.0` and the `as i64` cast would silently
    /// saturate it to `i64::MAX`.
    pub fn from_f64_normalized(v: f64) -> Option<Const> {
        if v.is_nan() {
            return None;
        }
        const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0; // -(i64::MIN as f64)
        if v.is_finite() && v.fract() == 0.0 && v >= (i64::MIN as f64) && v < TWO_POW_63 {
            // Exact: v is integral and strictly inside [-2^63, 2^63).
            Some(Const::Int(v as i64))
        } else {
            OrderedF64::new(v).map(Const::Num)
        }
    }

    /// Compare two OIDs numerically if both are numeric, otherwise fall
    /// back to the total order on `Const`.
    ///
    /// The numeric comparison makes `Int(3) = Num(3.0)` for built-ins,
    /// matching the paper's untyped value domain. `Int`/`Int` compares
    /// with integer ordering and `Int`/`Num` compares exactly (no
    /// `i64 → f64` coercion), so integers differing only above `2^53`
    /// — where `f64` loses integer precision — stay distinguishable.
    pub fn compare(self, other: Const) -> Ordering {
        match (self, other) {
            (Const::Int(a), Const::Int(b)) => a.cmp(&b),
            (Const::Num(a), Const::Num(b)) => a.cmp(&b),
            (Const::Int(a), Const::Num(b)) => cmp_i64_f64(a, b.get()),
            (Const::Num(a), Const::Int(b)) => cmp_i64_f64(b, a.get()).reverse(),
            _ => self.cmp(&other),
        }
    }

    /// Equality under [`Const::compare`] (numeric coercion).
    #[inline]
    pub fn sem_eq(self, other: Const) -> bool {
        self.compare(other) == Ordering::Equal
    }
}

/// Exact comparison of an `i64` against a (non-NaN) `f64`.
///
/// Casting the integer to `f64` would be lossy above `2^53`; instead
/// the float's integral part — exactly convertible whenever it lies in
/// `[-2^63, 2^63)` — is compared in integer space, with the fractional
/// part breaking ties.
fn cmp_i64_f64(i: i64, f: f64) -> Ordering {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if f >= TWO_POW_63 {
        // Covers +∞; every finite f here also exceeds any i64.
        return Ordering::Less;
    }
    if f < (i64::MIN as f64) {
        // Covers -∞.
        return Ordering::Greater;
    }
    let trunc = f.trunc();
    // Exact: trunc is integral and within [-2^63, 2^63).
    match i.cmp(&(trunc as i64)) {
        Ordering::Equal => {
            let frac = f - trunc;
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        ord => ord,
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Sym(s) => write!(f, "{s}"),
            Const::Int(i) => write!(f, "{i}"),
            Const::Num(n) => write!(f, "{n}"),
        }
    }
}

impl fmt::Debug for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<i64> for Const {
    fn from(v: i64) -> Self {
        Const::Int(v)
    }
}

impl From<&str> for Const {
    fn from(v: &str) -> Self {
        Const::Sym(sym(v))
    }
}

impl From<Symbol> for Const {
    fn from(v: Symbol) -> Self {
        Const::Sym(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{int, num, oid};

    #[test]
    fn ordered_f64_rejects_nan() {
        assert!(OrderedF64::new(f64::NAN).is_none());
        assert!(OrderedF64::new(1.5).is_some());
    }

    #[test]
    fn negative_zero_normalizes() {
        let a = OrderedF64::new(0.0).unwrap();
        let b = OrderedF64::new(-0.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.0.to_bits(), b.0.to_bits());
    }

    #[test]
    fn numeric_coercion_in_compare() {
        assert!(int(3).sem_eq(num(3.0)));
        assert_eq!(int(2).compare(num(2.5)), Ordering::Less);
        assert_eq!(num(10.0).compare(int(4)), Ordering::Greater);
    }

    #[test]
    fn symbols_are_not_numeric() {
        assert!(!oid("henry").is_numeric());
        assert_eq!(oid("henry").as_f64(), None);
    }

    #[test]
    fn strict_eq_differs_from_sem_eq() {
        // Strict Eq (used for set membership in the object base)
        // distinguishes Int(3) from Num(3.0)…
        assert_ne!(int(3), num(3.0));
        // …but from_f64_normalized collapses integral floats, so
        // arithmetic results unify with integer storage.
        assert_eq!(Const::from_f64_normalized(3.0), Some(int(3)));
        assert_eq!(Const::from_f64_normalized(3.5), Some(num(3.5)));
        assert_eq!(Const::from_f64_normalized(f64::NAN), None);
    }

    #[test]
    fn int_compare_is_exact_above_2_pow_53() {
        // Regression: Int/Int comparison used to round-trip through
        // f64, where 2^53 + 1 and 2^53 collapse to the same float.
        let lo = int(9_007_199_254_740_992); // 2^53
        let hi = int(9_007_199_254_740_993); // 2^53 + 1
        assert!(!hi.sem_eq(lo));
        assert_eq!(hi.compare(lo), Ordering::Greater);
        assert_eq!(lo.compare(hi), Ordering::Less);
        assert!(int(i64::MAX).sem_eq(int(i64::MAX)));
        assert_eq!(int(i64::MAX).compare(int(i64::MAX - 1)), Ordering::Greater);
        assert_eq!(int(i64::MIN).compare(int(i64::MIN + 1)), Ordering::Less);
    }

    #[test]
    fn mixed_int_num_compare_is_exact() {
        // 2^53 as a float equals the integer 2^53 but not 2^53 + 1:
        // a lossy i64 → f64 coercion would call them equal.
        let f = num(9_007_199_254_740_992.0);
        assert!(int(9_007_199_254_740_992).sem_eq(f));
        assert_eq!(int(9_007_199_254_740_993).compare(f), Ordering::Greater);
        assert_eq!(f.compare(int(9_007_199_254_740_993)), Ordering::Less);
        // i64::MAX is below 2^63 = (i64::MAX as f64), not equal to it.
        let two_pow_63 = num(9_223_372_036_854_775_808.0);
        assert_eq!(int(i64::MAX).compare(two_pow_63), Ordering::Less);
        assert_eq!(two_pow_63.compare(int(i64::MAX)), Ordering::Greater);
        // Infinities order around every integer; fractions break ties.
        assert_eq!(int(i64::MAX).compare(num(f64::INFINITY)), Ordering::Less);
        assert_eq!(int(i64::MIN).compare(num(f64::NEG_INFINITY)), Ordering::Greater);
        assert_eq!(int(-2).compare(num(-2.5)), Ordering::Greater);
        assert_eq!(int(-3).compare(num(-2.5)), Ordering::Less);
    }

    #[test]
    fn from_f64_normalized_boundaries() {
        // ±2^53: still exactly representable, collapses to Int.
        assert_eq!(
            Const::from_f64_normalized(9_007_199_254_740_992.0),
            Some(int(9_007_199_254_740_992))
        );
        assert_eq!(
            Const::from_f64_normalized(-9_007_199_254_740_992.0),
            Some(int(-9_007_199_254_740_992))
        );
        // -2^63 == i64::MIN: representable, collapses to Int.
        assert_eq!(Const::from_f64_normalized(-9_223_372_036_854_775_808.0), Some(int(i64::MIN)));
        // +2^63 rounds `i64::MAX as f64` up and does NOT fit an i64.
        // Regression: the old `abs() <= i64::MAX as f64` guard let it
        // through and `as i64` saturated it to Int(i64::MAX).
        assert_eq!(
            Const::from_f64_normalized(9_223_372_036_854_775_808.0),
            Some(num(9_223_372_036_854_775_808.0))
        );
        // The largest f64 strictly below 2^63 still collapses.
        let below = 9_223_372_036_854_774_784.0; // 2^63 - 1024
        assert_eq!(Const::from_f64_normalized(below), Some(int(9_223_372_036_854_774_784)));
        // Infinities stay Num; NaN stays unrepresentable.
        assert_eq!(Const::from_f64_normalized(f64::INFINITY), Some(num(f64::INFINITY)));
        assert_eq!(Const::from_f64_normalized(f64::NAN), None);
    }

    #[test]
    fn display_roundtrip_shapes() {
        assert_eq!(oid("henry").to_string(), "henry");
        assert_eq!(int(250).to_string(), "250");
        assert_eq!(num(4500.0).to_string(), "4500.0");
        assert_eq!(num(1.1).to_string(), "1.1");
    }

    #[test]
    fn total_order_is_consistent() {
        let mut v = vec![int(5), oid("a"), num(2.5), int(1)];
        v.sort();
        let v2 = v.clone();
        v.sort();
        assert_eq!(v, v2);
    }
}
