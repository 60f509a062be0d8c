//! Compile-time index planning: how each rule's `Scan` steps should
//! enumerate candidates, and which relations each body literal reads.
//!
//! The safety analysis ([`ruvo_lang::safety`]) already orders body
//! literals by bound-ness; this module replays that order once at
//! compile time and records, per `Scan` step,
//!
//! * a [`ScanHint`] — whether a key position (the result or the first
//!   argument) is guaranteed bound when the step runs, so the matcher
//!   can drive the scan through the object base's value-keyed method
//!   index instead of enumerating every version of the chain. The index
//!   keys initial versions only (§5 commits no other), so only an
//!   initial-version literal is keyed; a derived-chain version-term and
//!   every `ins[..]` body scan read their relation in full — at most
//!   what the run derived under it — and the match checks the bound
//!   key, and
//! * the `(chain, method)` relations the literal reads — the
//!   per-literal *trigger* set the semi-naive engine intersects with a
//!   round's delta to decide which scan to seed from the delta side.
//!
//! Per rule it also records the *start candidates*: the
//! initial-version scans that could open the join through a constant
//! key. The safety order scores every constant key alike, so the matcher
//! breaks that tie at run time by the keys' counts in the object base,
//! each O(1). A derived literal is never a candidate: its count would be
//! a scan of its relation.
//!
//! An [`IndexPlan`] is computed once per program (inside
//! [`crate::CompiledProgram`], so [`crate::Database::prepare`] pays for
//! it exactly once) and borrowed by every evaluation.

use ruvo_lang::{Atom, Literal, PlannedLiteral, Program, Rule, UpdateSpec};
use ruvo_obase::exists_sym;
use ruvo_term::{ArgTerm, BaseTerm, Chain, Const, Symbol};

/// How a `Scan` plan step enumerates candidate versions. The keyed
/// hints are given only to initial-version version-terms: the object
/// base keys no derived version.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScanHint {
    /// Enumerate every version of the literal's chain that defines the
    /// method (the unindexed path; also used for ground-target scans,
    /// which are already direct lookups, and for every derived-chain
    /// and `ins[..]` scan).
    #[default]
    Full,
    /// The result position is bound when the step runs: scan through
    /// the initial versions' `(method, result)` key index.
    ResultKey,
    /// The first argument is bound when the step runs: scan through
    /// the initial versions' `(method, first-arg)` key index.
    Arg0Key,
}

/// The index plan of one rule; `hints` and `reads` are parallel to
/// `rule.plan.steps`.
#[derive(Clone, Debug, Default)]
pub struct RuleIndexPlan {
    /// Enumeration strategy per plan step (meaningful for `Scan`s), for
    /// the step run in plan order.
    pub hints: Vec<ScanHint>,
    /// Per plan step: the `(chain, method)` relations a `Scan` literal
    /// reads, `None` for a VID-variable scan (which can read any
    /// relation). Non-scan steps read nothing (`Some` of empty).
    pub reads: Vec<Option<Vec<(Chain, Symbol)>>>,
    /// The scans an unseeded evaluation may start from, in plan order:
    /// every initial-version version-term scan with an unbound base and
    /// a constant key. Step 0 is the first when it is listed at all; the
    /// list is empty unless step 0 is a candidate and another one is
    /// too, so a rule with no alternative start pays nothing.
    pub starts: Vec<StartCandidate>,
}

/// A scan that can open a rule's join through a constant key of the
/// initial versions' key index, whose count the matcher reads in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StartCandidate {
    /// The plan step.
    pub step: usize,
    /// The step's hint when it runs *first*, with nothing bound:
    /// [`ScanHint::ResultKey`] or [`ScanHint::Arg0Key`]. It differs
    /// from the step's entry in [`RuleIndexPlan::hints`] when plan
    /// order binds the step's base before it runs.
    pub hint: ScanHint,
    /// The index key the scan starts from: the version's chain (always
    /// `Chain::EMPTY`), the method and the constant.
    pub key: (Chain, Symbol, Const),
}

/// The per-program index plan, computed once at compile time.
#[derive(Clone, Debug, Default)]
pub struct IndexPlan {
    /// One entry per program rule, in rule order.
    pub rules: Vec<RuleIndexPlan>,
}

impl IndexPlan {
    /// Plan every rule of `program`.
    pub fn of(program: &Program) -> IndexPlan {
        IndexPlan { rules: program.rules.iter().map(rule_index_plan).collect() }
    }
}

/// The `(chain, method)` relations a single body literal can read, or
/// `None` for a VID-variable version atom (the §6 extension reads any
/// version). Over a rule's scan steps these are its semi-naive
/// triggers; over all its literals, its read set in [`crate::deps`].
pub fn literal_reads(lit: &Literal) -> Option<Vec<(Chain, Symbol)>> {
    let exists = exists_sym();
    let mut out = Vec::new();
    match &lit.atom {
        Atom::Version(va) => match va.vid.as_term() {
            Some(t) => out.push((t.chain, va.method)),
            None => return None,
        },
        Atom::Update(ua) => {
            let (chain, created) = (ua.target().chain, ua.created_term().chain);
            match ua.spec() {
                UpdateSpec::Ins { method, .. } => out.push((created, *method)),
                UpdateSpec::Del { method, .. } => {
                    out.push((created, exists));
                    out.push((created, *method));
                    // del-body truth reads v*.method on any prefix.
                    out.extend(chain.prefixes().map(|p| (p, *method)));
                }
                UpdateSpec::Mod { method, .. } => {
                    out.push((created, *method));
                    out.extend(chain.prefixes().map(|p| (p, *method)));
                }
                UpdateSpec::DelAll => unreachable!("del-all in a body is rejected"),
            }
        }
        Atom::Cmp(_) => {}
    }
    Some(out)
}

/// True if a positive body literal is true by *membership* in the one
/// relation it reads — a version-term with a concrete chain, or an
/// `ins[..]` update-term (`ins(v).m -> r ∈ I`). The facts a round adds
/// to that relation are then the literal's whole delta, so its seeded
/// scan can be fact-granular. `del[..]` / `mod[..]` literals read
/// several relations and become true *because* a fact disappeared;
/// `$V` atoms read any relation.
pub fn reads_by_membership(lit: &Literal) -> bool {
    match &lit.atom {
        Atom::Version(va) => va.vid.as_term().is_some(),
        Atom::Update(ua) => matches!(ua.spec(), UpdateSpec::Ins { .. }),
        Atom::Cmp(_) => false,
    }
}

/// The index plan of one rule (a goal's, a demand rule's, or one of a
/// program's, through [`IndexPlan::of`]).
pub(crate) fn rule_index_plan(rule: &Rule) -> RuleIndexPlan {
    let mut bound = vec![false; rule.vars().len()];
    let mut hints = Vec::with_capacity(rule.plan().steps.len());
    let mut reads = Vec::with_capacity(rule.plan().steps.len());
    for step in &rule.plan().steps {
        match *step {
            PlannedLiteral::Check(_) => {
                hints.push(ScanHint::Full);
                reads.push(Some(Vec::new()));
            }
            PlannedLiteral::Assign { var, .. } => {
                hints.push(ScanHint::Full);
                reads.push(Some(Vec::new()));
                bound[var.index()] = true;
            }
            PlannedLiteral::Scan(li) => {
                let lit = &rule.body()[li];
                hints.push(scan_hint(&lit.atom, &bound));
                reads.push(literal_reads(lit));
                lit.atom.for_each_var(|v| bound[v.index()] = true);
            }
        }
    }
    RuleIndexPlan { hints, reads, starts: start_candidates(rule) }
}

/// The rule's start candidates, or none unless step 0 is one of at
/// least two (counted before collecting, so a rule without an
/// alternative start allocates nothing).
fn start_candidates(rule: &Rule) -> Vec<StartCandidate> {
    let candidates = || {
        rule.plan().steps.iter().enumerate().filter_map(|(step, planned)| match *planned {
            PlannedLiteral::Scan(li) => start_candidate(&rule.body()[li].atom, step),
            _ => None,
        })
    };
    let step0_first = candidates().next().is_some_and(|c| c.step == 0);
    if step0_first && candidates().nth(1).is_some() {
        candidates().collect()
    } else {
        Vec::new()
    }
}

/// The scan of `atom` as a join start: with nothing bound, an
/// initial-version version-term scan over a variable base keys the index
/// by a constant result or, failing that, a constant first argument. A
/// derived chain (a version-term's or an `ins[..]` term's) has no key
/// index, so its scan is never a start.
fn start_candidate(atom: &Atom, step: usize) -> Option<StartCandidate> {
    let Atom::Version(va) = atom else { return None };
    let t = va.vid.as_term().filter(|t| t.chain == Chain::EMPTY)?;
    let BaseTerm::Var(_) = t.base else { return None };
    let (hint, key) = match (va.result, va.args.first()) {
        (BaseTerm::Const(r), _) => (ScanHint::ResultKey, r),
        (_, Some(&BaseTerm::Const(a0))) => (ScanHint::Arg0Key, a0),
        _ => return None,
    };
    Some(StartCandidate { step, hint, key: (t.chain, va.method, key) })
}

/// Pick the enumeration strategy for a scan, given which variables are
/// already bound when it runs. Only an initial-version version-term is
/// keyed: a bound target base needs no index (the scan is a direct
/// version lookup); otherwise a bound key position makes the keyed index
/// applicable. A derived chain — a version-term's, or the created
/// version an `ins[..]` body scans — has no key index and scans its
/// relation in full, whose match checks the key; del/mod body scans
/// enumerate candidates via the exists/method chain index.
fn scan_hint(atom: &Atom, bound: &[bool]) -> ScanHint {
    let is_bound = |t: ArgTerm| match t {
        BaseTerm::Const(_) => true,
        BaseTerm::Var(v) => bound[v.index()],
    };
    let Atom::Version(va) = atom else { return ScanHint::Full };
    match va.vid.as_term() {
        Some(t) if t.chain == Chain::EMPTY && !is_bound(t.base) => {
            if is_bound(va.result) {
                ScanHint::ResultKey
            } else if va.args.first().is_some_and(|&a| is_bound(a)) {
                ScanHint::Arg0Key
            } else {
                ScanHint::Full
            }
        }
        _ => ScanHint::Full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_lang::Program;
    use ruvo_term::{sym, UpdateKind};

    fn plan_of(src: &str) -> RuleIndexPlan {
        let p = Program::parse(src).unwrap();
        assert_eq!(p.rules.len(), 1);
        rule_index_plan(&p.rules[0])
    }

    #[test]
    fn bound_result_gets_result_key() {
        // E.isa -> empl: base unbound, result constant.
        let plan = plan_of("ins[E].tag -> 1 <= E.isa -> empl.");
        assert_eq!(plan.hints, vec![ScanHint::ResultKey]);
        assert_eq!(plan.reads[0].as_deref(), Some(&[(Chain::EMPTY, sym("isa"))][..]));
    }

    #[test]
    fn join_variable_becomes_key_once_bound() {
        // Scan order: E.boss -> B first (open), then B.sal -> S with a
        // *bound base* (Full: direct lookup), and for result-joins the
        // second occurrence of the bound variable keys the index.
        let plan = plan_of("ins[E].flag -> 1 <= E.boss -> B & F.mark -> B.");
        // One of the scans runs second and has B bound; whichever
        // literal that is, its hint must exploit B.
        assert!(
            plan.hints.contains(&ScanHint::ResultKey),
            "expected a ResultKey hint, got {:?}",
            plan.hints
        );
    }

    #[test]
    fn constant_keys_are_start_candidates_with_their_start_hints() {
        let plan = plan_of(
            "mod[A].balance -> (B, B2) <= A.kind -> live & A.tag -> t42 & A.balance -> B \
             & B2 = B + 1.",
        );
        // In plan order `A.tag -> t42` runs with A bound (a direct
        // lookup); run first it needs the result key.
        assert_eq!(plan.hints[..2], [ScanHint::ResultKey, ScanHint::Full]);
        let start = |step, hint, method, key| StartCandidate {
            step,
            hint,
            key: (Chain::EMPTY, sym(method), ruvo_term::oid(key)),
        };
        assert_eq!(
            plan.starts,
            vec![
                start(0, ScanHint::ResultKey, "kind", "live"),
                start(1, ScanHint::ResultKey, "tag", "t42"),
            ]
        );
        // A first argument keys when the result does not.
        let plan = plan_of("ins[X].d -> W <= X.dist @ a -> W & X.m -> c.");
        assert_eq!(
            plan.starts,
            vec![start(0, ScanHint::Arg0Key, "dist", "a"), start(1, ScanHint::ResultKey, "m", "c")]
        );
    }

    /// The key index covers initial versions only: a derived-chain
    /// version-term and an `ins[..]` body literal scan in full with a
    /// constant or a bound key and never start the join, while the
    /// same literal on the initial chain keeps its key and its start.
    #[test]
    fn derived_literals_scan_in_full_and_never_start() {
        let (full, result, arg0) = (ScanHint::Full, ScanHint::ResultKey, ScanHint::Arg0Key);
        for (src, hints) in [
            // Constant keys.
            ("ins[X].t -> 1 <= mod(X).isa -> empl.", vec![full]),
            ("ins[X].t -> 1 <= X.isa -> empl.", vec![result]),
            ("ins[X].t -> 1 <= ins[X].m -> c.", vec![full]),
            ("ins[X].t -> 1 <= ins(X).d @ a -> W.", vec![full]),
            ("ins[X].t -> 1 <= X.d @ a -> W.", vec![arg0]),
            // Keys bound by an earlier step.
            ("ins[X].t -> 1 <= X.p -> Y & mod(Z).q -> Y.", vec![full, full]),
            ("ins[X].t -> 1 <= X.p -> Y & Z.q -> Y.", vec![full, result]),
            ("ins[X].t -> 1 <= X.p -> Y & ins[Z].q @ Y -> W.", vec![full, full]),
            ("ins[X].t -> 1 <= X.p -> Y & Z.q @ Y -> W.", vec![full, arg0]),
        ] {
            let plan = plan_of(src);
            assert_eq!(plan.hints, hints, "{src}");
        }
        // Two constant keys, one derived: no alternative start.
        for src in [
            "ins[X].t -> 1 <= X.kind -> live & mod(Y).tag -> t.",
            "ins[X].t -> 1 <= X.kind -> live & ins[Y].tag -> t.",
        ] {
            assert!(plan_of(src).starts.is_empty(), "{src}: {:?}", plan_of(src).starts);
        }
        // Three, one derived: the two initial ones are the candidates.
        let plan = plan_of("ins[X].t -> 1 <= X.kind -> live & mod(Y).tag -> t & Z.m -> c.");
        let keys: Vec<_> = plan.starts.iter().map(|c| c.key).collect();
        let key = |method, value| (Chain::EMPTY, sym(method), ruvo_term::oid(value));
        assert_eq!(keys, [key("kind", "live"), key("m", "c")]);
    }

    #[test]
    fn a_rule_without_an_alternative_start_lists_none() {
        for src in [
            // One constant key.
            "ins[E].tag -> 1 <= E.isa -> empl & E.sal -> S.",
            // Step 0 is an assignment, then a ground base: never rotated.
            "ins[X].ok -> 1 <= X = a & X.kind -> live & Y.tag -> t.",
            "ins[x].ok -> A <= b.kind -> live & A.tag -> t & A.kind -> live.",
            // $V scans and del/mod body scans are not keyed starts.
            "ins[x].ok -> 1 <= $V.kind -> live & E.tag -> t.",
        ] {
            assert!(plan_of(src).starts.is_empty(), "{src}: {:?}", plan_of(src).starts);
        }
    }

    #[test]
    fn open_scan_stays_full() {
        let plan = plan_of("ins[X].copy -> R <= X.p -> R.");
        assert_eq!(plan.hints, vec![ScanHint::Full]);
    }

    #[test]
    fn bound_first_arg_gets_arg0_key() {
        // dist@a -> W: first argument constant, result unbound.
        let plan = plan_of("ins[X].d -> W <= X.dist @ a -> W.");
        assert_eq!(plan.hints, vec![ScanHint::Arg0Key]);
    }

    #[test]
    fn ground_base_scan_needs_no_key() {
        let plan = plan_of("ins[x].ok -> 1 <= phil.sal -> 4000.");
        assert_eq!(plan.hints, vec![ScanHint::Full]);
    }

    #[test]
    fn vid_variable_scan_reads_anything() {
        let plan = plan_of("ins[x].seen -> R <= $V.m -> R.");
        assert_eq!(plan.hints, vec![ScanHint::Full]);
        assert_eq!(plan.reads, vec![None]);
    }

    #[test]
    fn del_body_reads_cover_created_and_prefix_chains() {
        let p = Program::parse("ins[x].fired -> E <= del[E].sal -> S.").unwrap();
        let reads = literal_reads(&p.rules[0].body()[0]).unwrap();
        let del_chain = Chain::EMPTY.push(UpdateKind::Del).unwrap();
        assert!(reads.contains(&(del_chain, exists_sym())));
        assert!(reads.contains(&(del_chain, sym("sal"))));
        assert!(reads.contains(&(Chain::EMPTY, sym("sal"))));
    }

    #[test]
    fn checks_and_assigns_read_nothing() {
        let plan = plan_of("mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.");
        assert_eq!(plan.hints.len(), 3);
        assert_eq!(plan.reads.len(), 3);
        // Every non-scan step reads Some(empty).
        for (step, reads) in plan.reads.iter().enumerate() {
            let r = reads.as_ref().expect("no VID vars here");
            if r.is_empty() {
                // must be the Assign step
                assert_eq!(step, 2, "only the assignment reads nothing");
            }
        }
    }
}
