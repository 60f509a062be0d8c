//! The §3 truth relation for ground atoms.
//!
//! The paper distinguishes three cases, implemented by the three public
//! functions below:
//!
//! 1. a ground **version-term** `v.m -> r` is true iff the fact is in
//!    the object base;
//! 2. a ground **update-term in a rule head** is true iff the update is
//!    *performable*: `ins` always, `del`/`mod` iff the affected
//!    method-application holds in the state of `v*` (the deepest
//!    existing version at or below the target);
//! 3. a ground **update-term in a rule body** is true iff the stated
//!    version transition *has occurred*.
//!
//! All functions take the components of the atom rather than an AST
//! node so the matcher can call them with bound patterns without
//! materializing ground atoms.

use ruvo_obase::ObjectBase;
use ruvo_term::{Const, Symbol, UpdateKind, Vid};

/// Case 1 — ground version-term: `v.m@args -> r ∈ I`.
#[inline]
pub fn version_term(
    ob: &ObjectBase,
    vid: Vid,
    method: Symbol,
    args: &[Const],
    result: Const,
) -> bool {
    ob.contains(vid, method, args, result)
}

/// Case 2 — update-term in a rule head.
///
/// * `ins[v].m -> r` — "always true w.r.t. I".
/// * `del[v].m -> r` — true iff `v*.m -> r ∈ I`: "a delete of
///   information is only then allowed, if the to-be-deleted information
///   indeed exists".
/// * `mod[v].m -> (r, r')` — true iff `v*.m -> r ∈ I`.
///
/// For `del`/`mod`, a target whose object does not exist at all
/// (`v* = None`) makes the head false.
pub fn update_head(
    ob: &ObjectBase,
    kind: UpdateKind,
    target: Vid,
    method: Symbol,
    args: &[Const],
    old: Const,
) -> bool {
    match kind {
        UpdateKind::Ins => true,
        UpdateKind::Del | UpdateKind::Mod => match ob.v_star(target) {
            Some(v_star) => ob.contains(v_star, method, args, old),
            None => false,
        },
    }
}

/// Case 3 — `ins[v].m -> r` in a rule body: true iff
/// `ins(v).m -> r ∈ I`.
///
/// `target` is any ground version: one whose created version would
/// exceed a chain's 32 applications cannot exist, so the term is false
/// (the front end refuses such a term in a rule, so the matcher never
/// asks about one).
pub fn ins_body(
    ob: &ObjectBase,
    target: Vid,
    method: Symbol,
    args: &[Const],
    result: Const,
) -> bool {
    target.apply(UpdateKind::Ins).is_ok_and(|created| ob.contains(created, method, args, result))
}

/// Case 3 — `del[v].m -> r` in a rule body: true iff
/// `v*.m -> r ∈ I` and `del(v).exists -> o ∈ I` and
/// `del(v).m -> r ∉ I`.
///
/// `target` is any ground version: one whose created version would
/// exceed a chain's 32 applications cannot exist, so the term is false
/// (the front end refuses such a term in a rule, so the matcher never
/// asks about one).
pub fn del_body(
    ob: &ObjectBase,
    target: Vid,
    method: Symbol,
    args: &[Const],
    result: Const,
) -> bool {
    let Ok(created) = target.apply(UpdateKind::Del) else { return false };
    if !ob.exists_fact(created) {
        return false;
    }
    let Some(v_star) = ob.v_star(target) else { return false };
    ob.contains(v_star, method, args, result) && !ob.contains(created, method, args, result)
}

/// Case 3 — `mod[v].m -> (r, r')` in a rule body.
///
/// For `r ≠ r'`: true iff `v*.m -> r ∈ I` and `mod(v).m -> r ∉ I` and
/// `mod(v).m -> r' ∈ I`.
///
/// For `r = r'`: true iff `v*.m -> r ∈ I` and `mod(v).m -> r ∈ I`
/// (the paper's dedicated clause for a modification that did not change
/// the result; ARCHITECTURE.md, decision D5).
///
/// `target` is any ground version: one whose created version would
/// exceed a chain's 32 applications cannot exist, so the term is false
/// (the front end refuses such a term in a rule, so the matcher never
/// asks about one).
pub fn mod_body(
    ob: &ObjectBase,
    target: Vid,
    method: Symbol,
    args: &[Const],
    from: Const,
    to: Const,
) -> bool {
    let Ok(created) = target.apply(UpdateKind::Mod) else { return false };
    let Some(v_star) = ob.v_star(target) else { return false };
    if !ob.contains(v_star, method, args, from) {
        return false;
    }
    if from == to {
        ob.contains(created, method, args, from)
    } else {
        !ob.contains(created, method, args, from) && ob.contains(created, method, args, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_obase::Args;
    use ruvo_term::{int, oid, sym};
    use UpdateKind::{Del, Ins, Mod};

    /// henry.sal -> 250; mod(henry) with sal -> 275.
    fn fixture() -> ObjectBase {
        let mut ob = ObjectBase::parse("henry.sal -> 250.").unwrap();
        let henry = Vid::object(oid("henry"));
        let mod_h = henry.apply(Mod).unwrap();
        ob.insert(mod_h, sym("exists"), Args::empty(), oid("henry"));
        ob.insert(mod_h, sym("sal"), Args::empty(), int(275));
        ob
    }

    #[test]
    fn version_term_is_membership() {
        let ob = fixture();
        let henry = Vid::object(oid("henry"));
        assert!(version_term(&ob, henry, sym("sal"), &[], int(250)));
        assert!(!version_term(&ob, henry, sym("sal"), &[], int(999)));
        assert!(version_term(&ob, henry.apply(Mod).unwrap(), sym("sal"), &[], int(275)));
    }

    #[test]
    fn ins_head_always_true() {
        let ob = fixture();
        // Even on a completely unknown object.
        assert!(update_head(&ob, Ins, Vid::object(oid("ghost")), sym("p"), &[], int(1)));
    }

    #[test]
    fn del_head_requires_existing_information() {
        let ob = fixture();
        let henry = Vid::object(oid("henry"));
        assert!(update_head(&ob, Del, henry, sym("sal"), &[], int(250)));
        assert!(!update_head(&ob, Del, henry, sym("sal"), &[], int(999)));
        // del[mod(henry)] reads from v* = mod(henry) itself.
        let mod_h = henry.apply(Mod).unwrap();
        assert!(update_head(&ob, Del, mod_h, sym("sal"), &[], int(275)));
        assert!(!update_head(&ob, Del, mod_h, sym("sal"), &[], int(250)));
        // del[del(henry)]: del(henry) does not exist, v* = henry.
        let del_h = henry.apply(Del).unwrap();
        assert!(update_head(&ob, Del, del_h, sym("sal"), &[], int(250)));
        // Unknown object: no v*.
        assert!(!update_head(&ob, Del, Vid::object(oid("ghost")), sym("p"), &[], int(1)));
    }

    #[test]
    fn mod_head_requires_old_value() {
        let ob = fixture();
        let henry = Vid::object(oid("henry"));
        assert!(update_head(&ob, Mod, henry, sym("sal"), &[], int(250)));
        assert!(!update_head(&ob, Mod, henry, sym("sal"), &[], int(275)));
    }

    #[test]
    fn ins_body_checks_created_version() {
        let mut ob = fixture();
        let henry = Vid::object(oid("henry"));
        assert!(!ins_body(&ob, henry, sym("isa"), &[], oid("hpe")));
        let ins_h = henry.apply(Ins).unwrap();
        ob.insert(ins_h, sym("isa"), Args::empty(), oid("hpe"));
        assert!(ins_body(&ob, henry, sym("isa"), &[], oid("hpe")));
    }

    #[test]
    fn del_body_requires_transition() {
        let mut ob = fixture();
        let henry = Vid::object(oid("henry"));
        // No del(henry) version yet.
        assert!(!del_body(&ob, henry, sym("sal"), &[], int(250)));
        // Create del(henry), which dropped sal -> 250.
        let del_h = henry.apply(Del).unwrap();
        ob.insert(del_h, sym("exists"), Args::empty(), oid("henry"));
        assert!(del_body(&ob, henry, sym("sal"), &[], int(250)));
        // Information never present in v* is not "deleted".
        assert!(!del_body(&ob, henry, sym("sal"), &[], int(999)));
        // Information still present in del(v) is not deleted either.
        ob.insert(del_h, sym("sal"), Args::empty(), int(250));
        assert!(!del_body(&ob, henry, sym("sal"), &[], int(250)));
    }

    #[test]
    fn mod_body_changed_value() {
        let ob = fixture();
        let henry = Vid::object(oid("henry"));
        // 250 -> 275 occurred: v*.sal -> 250, mod(h).sal has 275 not 250.
        assert!(mod_body(&ob, henry, sym("sal"), &[], int(250), int(275)));
        // 250 -> 999 did not occur.
        assert!(!mod_body(&ob, henry, sym("sal"), &[], int(250), int(999)));
        // from value must come from v*.
        assert!(!mod_body(&ob, henry, sym("sal"), &[], int(100), int(275)));
    }

    #[test]
    fn mod_body_unchanged_value() {
        let mut ob = fixture();
        let henry = Vid::object(oid("henry"));
        // mod with r = r' requires the value to be carried over.
        assert!(!mod_body(&ob, henry, sym("sal"), &[], int(250), int(250)));
        let mod_h = henry.apply(Mod).unwrap();
        ob.insert(mod_h, sym("sal"), Args::empty(), int(250));
        assert!(mod_body(&ob, henry, sym("sal"), &[], int(250), int(250)));
    }

    #[test]
    fn footnote2_negated_version_vs_update_term() {
        // Footnote 2 of the paper: ¬del(mod(e)).isa -> empl (version-term)
        // is satisfied when del(mod(e)) does not exist at all, while
        // ¬del[mod(e)].isa -> empl (update-term) asks that no such
        // delete *transition* happened.
        let mut ob = ObjectBase::parse("e.isa -> empl.").unwrap();
        let e = Vid::object(oid("e"));
        let mod_e = e.apply(Mod).unwrap();
        ob.insert(mod_e, sym("exists"), Args::empty(), oid("e"));
        ob.insert(mod_e, sym("isa"), Args::empty(), oid("empl"));

        // No del(mod(e)) exists: version-term false, update-term false —
        // so both *negations* are true here...
        assert!(!version_term(&ob, mod_e.apply(Del).unwrap(), sym("isa"), &[], oid("empl")));
        assert!(!del_body(&ob, mod_e, sym("isa"), &[], oid("empl")));

        // ...but after the delete actually happens, they diverge:
        let del_mod_e = mod_e.apply(Del).unwrap();
        ob.insert(del_mod_e, sym("exists"), Args::empty(), oid("e"));
        // del(mod(e)).isa -> empl is still false (it was deleted), so the
        // negated version-term stays true — yet the update *did* happen,
        // so the negated update-term must now be false.
        assert!(!version_term(&ob, del_mod_e, sym("isa"), &[], oid("empl")));
        assert!(del_body(&ob, mod_e, sym("isa"), &[], oid("empl")));
    }

    #[test]
    fn body_terms_on_a_full_chain_are_false() {
        // A 32-deep target has no room for the version an update-term
        // creates: whatever the base holds, the term is false.
        let ob = fixture();
        let full = (0..32).fold(Vid::object(oid("henry")), |v, _| v.apply(Mod).unwrap());
        assert!(full.apply(Mod).is_err());
        assert!(!ins_body(&ob, full, sym("sal"), &[], int(250)));
        assert!(!del_body(&ob, full, sym("sal"), &[], int(250)));
        assert!(!mod_body(&ob, full, sym("sal"), &[], int(250), int(275)));
    }
}
