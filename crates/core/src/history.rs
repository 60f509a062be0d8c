//! Version histories as first-class data.
//!
//! §1 of the paper: VIDs "admit tracing back the history of updates
//! performed on each object", and §6 points at the "temporal
//! characteristics" of the version-based approach as future work. This
//! module makes that concrete: given `result(P)`, it reconstructs each
//! object's linear version timeline and the per-step differences —
//! an audit view of the update-process.

use ruvo_obase::{Args, ObjectBase, VersionState};
use ruvo_term::{Const, Symbol, UpdateKind, Vid};

/// One method-application as reported in a diff: `(method, args, result)`.
pub type DiffEntry = (Symbol, Args, Const);

/// One step of an object's update history.
#[derive(Clone, Debug)]
pub struct HistoryStep {
    /// The version this step produced (depth ≥ 1) or the initial
    /// version (depth 0, `kind == None`).
    pub vid: Vid,
    /// The update kind that produced it (`None` for the initial
    /// version).
    pub kind: Option<UpdateKind>,
    /// Method-applications present in this version but not the
    /// previous one.
    pub added: Vec<DiffEntry>,
    /// Method-applications present in the previous version but not
    /// this one.
    pub removed: Vec<DiffEntry>,
}

/// The linear timeline of one object within a `result(P)`.
#[derive(Clone, Debug)]
pub struct History {
    /// The object.
    pub base: Const,
    /// Steps in application order; the first entry is the initial
    /// version (possibly with an empty state for created objects).
    pub steps: Vec<HistoryStep>,
}

impl History {
    /// The final version of the timeline.
    pub fn final_vid(&self) -> Vid {
        self.steps.last().map_or(Vid::object(self.base), |s| s.vid)
    }

    /// Number of updates applied (excludes the initial version).
    pub fn updates(&self) -> usize {
        self.steps.len().saturating_sub(1)
    }
}

fn diff(
    prev: Option<&VersionState>,
    cur: Option<&VersionState>,
) -> (Vec<DiffEntry>, Vec<DiffEntry>) {
    let collect = |state: Option<&VersionState>| -> Vec<DiffEntry> {
        state
            .map(|s| s.iter().map(|(m, app)| (m, app.args.clone(), app.result)).collect())
            .unwrap_or_default()
    };
    let p = collect(prev);
    let c = collect(cur);
    let added = c.iter().filter(|entry| !p.contains(entry)).cloned().collect();
    let removed = p.iter().filter(|entry| !c.contains(entry)).cloned().collect();
    (added, removed)
}

/// The timeline of `base` in a `result(P)` store, which
/// [`history`] diffs and [`crate::temporal::Timeline::of`] materializes:
/// the versions on the *deepest* version's chain, from the initial
/// version (listed even when a created object has no state there) to the
/// deepest, each with its state. Intermediate versions skipped by `v*`
/// fallback (e.g. `del(mod(o))` created without `mod(o)`) never existed
/// and are left out.
///
/// Returns `None` for an unknown object, or one whose versions do not
/// lie on one chain (non-version-linear store).
pub(crate) fn timeline(
    result: &ObjectBase,
    base: Const,
) -> Option<Vec<(Vid, Option<&VersionState>)>> {
    let versions: Vec<Vid> = result.versions_of(base).collect();
    let deepest = *versions.iter().max_by_key(|v| v.depth())?;
    if !versions.iter().all(|v| v.is_subterm_of(deepest)) {
        return None;
    }
    let steps = deepest.subterms().map(|vid| (vid, result.version(vid)));
    Some(steps.filter(|&(vid, state)| vid.depth() == 0 || state.is_some()).collect())
}

/// Reconstruct the version timeline of `base` from a `result(P)` store
/// (the walk `timeline` owns), each step diffed against the previous one.
///
/// Returns `None` if the object has versions that do not lie on one
/// chain (non-version-linear store).
pub fn history(result: &ObjectBase, base: Const) -> Option<History> {
    let mut prev = None;
    let steps = timeline(result, base)?
        .into_iter()
        .map(|(vid, state)| {
            let (added, removed) = diff(prev, state);
            prev = state;
            HistoryStep { vid, kind: vid.chain().outermost(), added, removed }
        })
        .collect();
    Some(History { base, steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_lang::Program;
    use ruvo_term::{int, oid, sym};

    fn outcome(ob: &str, program: &str) -> crate::Outcome {
        let db = crate::Database::open(ObjectBase::parse(ob).unwrap());
        db.evaluate(&db.prepare_program(Program::parse(program).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn timeline_of_three_stage_update() {
        let out = outcome(
            "acct.balance -> 100.",
            "s1: ins[acct].flag -> 1 <= acct.balance -> 100.
             s2: mod[ins(acct)].balance -> (100, 50) <= ins(acct).flag -> 1.
             s3: del[mod(ins(acct))].flag -> 1 <= mod(ins(acct)).balance -> 50.",
        );
        let h = history(out.result(), oid("acct")).unwrap();
        assert_eq!(h.updates(), 3);
        assert_eq!(h.final_vid().depth(), 3);
        // Step 0: initial state.
        assert!(h.steps[0].kind.is_none());
        assert_eq!(h.steps[0].added.len(), 1);
        // Step 1: ins added flag.
        assert_eq!(h.steps[1].kind, Some(UpdateKind::Ins));
        assert_eq!(h.steps[1].added, vec![(sym("flag"), Args::empty(), int(1))]);
        assert!(h.steps[1].removed.is_empty());
        // Step 2: mod swapped the balance.
        assert_eq!(h.steps[2].kind, Some(UpdateKind::Mod));
        assert_eq!(h.steps[2].added, vec![(sym("balance"), Args::empty(), int(50))]);
        assert_eq!(h.steps[2].removed, vec![(sym("balance"), Args::empty(), int(100))]);
        // Step 3: del removed the flag.
        assert_eq!(h.steps[3].kind, Some(UpdateKind::Del));
        assert!(h.steps[3].added.is_empty());
        assert_eq!(h.steps[3].removed, vec![(sym("flag"), Args::empty(), int(1))]);
    }

    #[test]
    fn untouched_object_has_single_step() {
        let out = outcome("a.p -> 1. b.q -> 2.", "x: ins[a].r -> 3 <= a.p -> 1.");
        let h = history(out.result(), oid("b")).unwrap();
        assert_eq!(h.updates(), 0);
        assert_eq!(h.final_vid(), Vid::object(oid("b")));
    }

    #[test]
    fn skipped_intermediate_versions_are_elided() {
        // del[mod(o)] without any mod(o): v* falls back to o, so the
        // timeline is o → del(mod(o)) with mod(o) never existing.
        let out = outcome("o.p -> 1. o.q -> 2.", "d: del[mod(o)].p -> 1 <= o.p -> 1.");
        let h = history(out.result(), oid("o")).unwrap();
        assert_eq!(h.final_vid().depth(), 2);
        let vids: Vec<usize> = h.steps.iter().map(|s| s.vid.depth()).collect();
        assert_eq!(vids, vec![0, 2], "mod(o) elided");
        assert_eq!(h.steps[1].removed, vec![(sym("p"), Args::empty(), int(1))]);
    }

    #[test]
    fn created_object_timeline() {
        let out = outcome("seed.go -> 1.", "c: ins[ghost].p -> 1 <= seed.go -> 1.");
        let h = history(out.result(), oid("ghost")).unwrap();
        assert_eq!(h.updates(), 1);
        assert_eq!(h.steps[1].added, vec![(sym("p"), Args::empty(), int(1))]);
    }

    /// `history` and `Timeline::of` read one walk: on a skipped
    /// intermediate, a created object, an untouched object and a
    /// non-linear store they agree step by step.
    #[test]
    fn history_and_timeline_agree_step_by_step() {
        use crate::temporal::Timeline;
        let skipped = outcome("o.p -> 1. o.q -> 2.", "d: del[mod(o)].p -> 1 <= o.p -> 1.");
        let created = outcome("seed.go -> 1.", "c: ins[ghost].p -> 1 <= seed.go -> 1.");
        let untouched = outcome("a.p -> 1. b.q -> 2.", "x: ins[a].r -> 3 <= a.p -> 1.");
        let non_linear =
            ObjectBase::parse("o.m -> a. mod(o).m -> b. ins(o).m -> a. ins(o).extra -> 1.")
                .unwrap();
        for (ob, object, states) in [
            (skipped.result(), "o", Some(2)),
            (created.result(), "ghost", Some(2)),
            (untouched.result(), "b", Some(1)),
            (&non_linear, "o", None),
        ] {
            let h = history(ob, oid(object));
            let t = Timeline::of(ob, oid(object));
            assert_eq!(h.as_ref().map(|h| h.steps.len()), states, "{object}");
            assert_eq!(t.as_ref().map(Timeline::len), states, "{object}");
            let (Some(h), Some(t)) = (h, t) else { continue };
            let mut prev: Vec<DiffEntry> = Vec::new();
            for (k, step) in h.steps.iter().enumerate() {
                let state = t.state(k).unwrap();
                assert_eq!((step.vid, step.kind), (state.vid, state.kind), "{object} step {k}");
                // Replaying the diffs rebuilds the timeline's state.
                prev.retain(|e| !step.removed.contains(e));
                prev.extend(step.added.iter().cloned());
                let mut facts: Vec<DiffEntry> =
                    state.facts().map(|f| (f.method, f.args.clone(), f.result)).collect();
                facts.sort();
                prev.sort();
                assert_eq!(prev, facts, "{object} step {k}");
            }
        }
    }

    #[test]
    fn missing_object_yields_none() {
        let out = outcome("a.p -> 1.", "");
        assert!(history(out.result(), oid("nobody")).is_none());
    }
}
