//! The object base: a set of ground version-terms with join indexes.

use std::fmt;
use std::sync::Arc;

use ruvo_lang::{parse_facts, ParseError};
use ruvo_term::{Chain, Const, FastHashMap, FastHashSet, Symbol, Vid};

use crate::bag::Bag;
use crate::shard::{route, ShardKey, ShardedMap, Slot, SHARD_COUNT};
use crate::{exists_sym, Args, ChangedSince, CowStats, MethodApp, ObStats, VersionState};

// Slot routing for the index key types. The key indexes pick their
// shard by their method so that one relation — the unit a version-state
// commit dirties — stays within one shard per index; the full key picks
// the leaf.
impl ShardKey for Const {
    fn slot(&self) -> Slot {
        route(Vid::object(*self), ())
    }
}

impl ShardKey for (Chain, Symbol) {
    fn slot(&self) -> Slot {
        route(self, ())
    }
}

impl ShardKey for (Symbol, Const) {
    fn slot(&self) -> Slot {
        route(self.0, self.1)
    }
}

/// One ground version-term `vid.m@args -> r`, as stored.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fact {
    /// The version carrying the method-application.
    pub vid: Vid,
    /// Method name.
    pub method: Symbol,
    /// Ground arguments.
    pub args: Args,
    /// Ground result.
    pub result: Const,
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let method = ruvo_lang::pretty::symbol_str(self.method);
        write!(f, "{}.{}", self.vid, method)?;
        if !self.args.is_empty() {
            write!(f, " @ {}", self.args)?;
        }
        write!(f, " -> {} .", ruvo_lang::pretty::const_str(self.result))
    }
}

/// The method index of the initial versions: `(method, key) → {base →
/// multiplicity}`, where `key` is a fact's result or its first argument.
///
/// This is the scan accelerator behind
/// [`ObjectBase::versions_with_result`] /
/// [`ObjectBase::versions_with_arg0`]: a body literal like
/// `E.isa -> empl` (base unbound, result bound) enumerates exactly the
/// objects whose `isa` set contains `empl` instead of every object
/// defining `isa`. Multiplicities are needed because several facts of
/// one version can share a key (same result under different
/// arguments, and vice versa).
///
/// Only initial versions are keyed: §5 commits no other, so a derived
/// version lives inside one run, and keying its facts would cost a write
/// (on a working copy, a leaf copy) per fact for reads that rarely come.
#[derive(Clone, Default)]
struct KeyIndex {
    map: ShardedMap<(Symbol, Const), Bag<Const>>,
}

impl KeyIndex {
    fn add(&mut self, method: Symbol, key: Const, base: Const) {
        self.map.get_or_default((method, key)).add(base);
    }

    fn remove(&mut self, method: Symbol, key: Const, base: Const) {
        let full = (method, key);
        // Peek through the shared leaf first: in a consistent index
        // the entry is always present, and a miss — an index bug —
        // must not CoW-copy the leaf on its way to doing nothing.
        let present = self.map.get(&full).is_some_and(|bases| bases.contains(base));
        crate::invariant_assert!(
            present,
            "KeyIndex multiplicity underflow: removing absent entry \
             method={method} key={key} base={base}"
        );
        if !present {
            return;
        }
        let bases = self.map.get_mut(&full).expect("presence checked above");
        bases.remove(base);
        if bases.is_empty() {
            self.map.remove(&full);
        }
    }

    fn bases(&self, method: Symbol, key: Const) -> impl Iterator<Item = Const> + '_ {
        self.map.get(&(method, key)).into_iter().flat_map(Bag::members)
    }

    /// How many bases [`KeyIndex::bases`] yields, in O(1).
    fn count(&self, method: Symbol, key: Const) -> usize {
        self.map.get(&(method, key)).map_or(0, Bag::len)
    }
}

/// One object's entry in the version table: the `(chain, state)` pair
/// of each of its versions. A single pair — every object of a flat
/// base — is stored inline; two or more sit in a vector sorted by
/// chain, back inline when removals leave one. As with [`Bag`], the
/// form is canonical, so the derived `==` is content equality. Empty
/// only as the default, before the first [`Versions::insert`].
#[derive(Clone, PartialEq, Eq)]
enum Versions {
    One((Chain, Arc<VersionState>)),
    Many(Vec<(Chain, Arc<VersionState>)>),
}

impl Default for Versions {
    fn default() -> Self {
        Versions::Many(Vec::new())
    }
}

impl Versions {
    /// The pairs, sorted by chain.
    fn pairs(&self) -> &[(Chain, Arc<VersionState>)] {
        match self {
            Versions::One(pair) => std::slice::from_ref(pair),
            Versions::Many(pairs) => pairs,
        }
    }

    fn pairs_mut(&mut self) -> &mut [(Chain, Arc<VersionState>)] {
        match self {
            Versions::One(pair) => std::slice::from_mut(pair),
            Versions::Many(pairs) => pairs,
        }
    }

    /// Where `chain` is, or where it would go. An entry holds a few
    /// pairs, so an equality scan beats a search on `Chain`'s order.
    fn find(&self, chain: Chain) -> Result<usize, usize> {
        let pairs = self.pairs();
        pairs
            .iter()
            .position(|&(c, _)| c == chain)
            .ok_or_else(|| pairs.partition_point(|&(c, _)| c < chain))
    }

    fn get(&self, chain: Chain) -> Option<&Arc<VersionState>> {
        self.find(chain).ok().map(|i| &self.pairs()[i].1)
    }

    fn get_mut(&mut self, chain: Chain) -> Option<&mut Arc<VersionState>> {
        let i = self.find(chain).ok()?;
        Some(&mut self.pairs_mut()[i].1)
    }

    /// The state under `chain`, an empty one installed first if absent.
    fn get_or_default(&mut self, chain: Chain) -> &mut Arc<VersionState> {
        let i = self.find(chain).unwrap_or_else(|_| self.insert(chain, Arc::default()));
        &mut self.pairs_mut()[i].1
    }

    /// Install `state` under `chain`, replacing any; returns its index.
    fn insert(&mut self, chain: Chain, state: Arc<VersionState>) -> usize {
        let (found, pair) = (self.find(chain), (chain, state));
        *self = match (found, std::mem::take(self)) {
            (Ok(i), mut entry) => {
                entry.pairs_mut()[i] = pair;
                entry
            }
            (Err(_), Versions::Many(pairs)) if pairs.is_empty() => Versions::One(pair),
            (Err(0), Versions::One(one)) => Versions::Many(vec![pair, one]),
            (Err(_), Versions::One(one)) => Versions::Many(vec![one, pair]),
            (Err(i), Versions::Many(mut pairs)) => {
                pairs.insert(i, pair);
                Versions::Many(pairs)
            }
        };
        found.unwrap_or_else(|i| i)
    }

    /// Remove the state under `chain`; the last one leaves it empty.
    fn remove(&mut self, chain: Chain) -> Option<Arc<VersionState>> {
        let i = self.find(chain).ok()?;
        let mut pairs = match std::mem::take(self) {
            Versions::One((_, state)) => return Some(state),
            Versions::Many(pairs) => pairs,
        };
        let (_, state) = pairs.remove(i);
        *self =
            if pairs.len() == 1 { Versions::One(pairs.remove(0)) } else { Versions::Many(pairs) };
        Some(state)
    }

    /// The versions of object `base`, with their states.
    fn states(&self, base: Const) -> impl Iterator<Item = (Vid, &Arc<VersionState>)> {
        self.pairs().iter().map(move |(chain, state)| (Vid::new(base, *chain), state))
    }
}

/// Whether `vid.exists @ args -> result` is §3's `v.exists -> base(v)`,
/// the only `exists` fact there is. The parser and the snapshot
/// decoders refuse any other; [`ObjectBase::insert`] never stores one.
pub(crate) fn is_canonical_exists(vid: Vid, args: &[Const], result: Const) -> bool {
    args.is_empty() && result == vid.base()
}

/// The facts a version contributes to the enumerations
/// ([`ObjectBase::iter`], [`ObjectBase::len`], text, snapshots): its
/// stored facts, or — for an empty state — the one canonical `exists`
/// fact that is all it holds (§5's "only `exists` is defined").
fn version_facts(vid: Vid, state: &VersionState) -> impl Iterator<Item = Fact> + '_ {
    let exists = state.is_empty().then(|| Fact {
        vid,
        method: exists_sym(),
        args: Args::empty(),
        result: vid.base(),
    });
    exists.into_iter().chain(state.iter().map(move |(method, app)| Fact {
        vid,
        method,
        args: app.args.clone(),
        result: app.result,
    }))
}

/// How many facts [`version_facts`] enumerates for `state`.
fn weight(state: &VersionState) -> usize {
    state.len().max(1)
}

/// The version-table shard a version lives in: its object's, which
/// routes by the hash of the object's initial version. The dirty-set
/// unit of incremental checkpoints ([`ObjectBase::shard_facts_sorted`]
/// / [`ObjectBase::version_shards_differing`]).
pub fn vid_shard(vid: Vid) -> usize {
    ShardKey::shard(&vid.base())
}

/// The deterministic fact order used by [`ObjectBase::facts_sorted`]
/// and the binary snapshot/delta encodings.
fn fact_cmp(a: &Fact, b: &Fact) -> std::cmp::Ordering {
    (a.vid, a.method.as_str(), &a.args, a.result).cmp(&(
        b.vid,
        b.method.as_str(),
        &b.args,
        b.result,
    ))
}

/// A set of ground version-terms, indexed for bottom-up evaluation.
///
/// See the crate docs for the index structure. All mutating operations
/// keep the indexes consistent; inline invariants go through
/// [`invariant_assert!`](crate::invariant_assert) (armed in debug *and*
/// `cfg(test)` release builds) and the test suite cross-checks whole
/// bases via [`ObjectBase::check_invariants`].
///
/// ## Copy-on-write clones
///
/// Sharing is structural at every level. Every map — the version
/// table and all three join indexes — is split into [`SHARD_COUNT`]
/// fixed `Arc`-wrapped shards of 16 `Arc`-wrapped leaves (see
/// [`crate::shard`]), and every per-version fact set is an
/// `Arc<VersionState>` of its own. [`Clone`] therefore bumps
/// 4 × [`SHARD_COUNT`] reference counts — **O(shards), not O(facts) or
/// O(versions)** — and a subsequent mutation unshares only the shard
/// nodes, the leaves and the one state it actually dirties
/// ([`Arc::make_mut`]). This is what makes engine runs (which evaluate
/// on a working copy), session savepoints, hypothetical what-if
/// transactions and [`crate::Snapshot`] read views pay for what they
/// touch rather than for what the base holds; see
/// [`ObjectBase::cow_stats`] for the sharing diagnostics.
///
/// ## `exists` is the version table
///
/// §3's system method `v.exists -> base(v)` cannot be updated, so it
/// holds exactly when the version table lists `v`, and no
/// [`VersionState`] stores it. A version may sit in the table with an
/// empty state (every fact deleted, §5's "only `exists` is defined").
/// Reads of `exists` — [`ObjectBase::exists_fact`],
/// [`ObjectBase::v_star`], [`ObjectBase::contains`],
/// [`ObjectBase::results`], [`ObjectBase::versions_with`] and
/// [`ObjectBase::versions_with_result`] — answer from the table.
#[derive(Clone, Default)]
pub struct ObjectBase {
    /// The version table, keyed by object.
    versions: ShardedMap<Const, Versions>,
    /// `(chain, method) → bases`: which objects have a version with this
    /// chain defining this method. Under `(chain, exists)` it lists
    /// every version of the chain (the presence index). Each set is
    /// `Arc`-shared, so unsharing a leaf for a write to one key does not
    /// clone the other keys' sets — each may list every object.
    by_chain_method: ShardedMap<(Chain, Symbol), Arc<FastHashSet<Const>>>,
    /// `(method, result) → bases` of the initial versions: a scan index.
    by_result: KeyIndex,
    /// `(method, first-arg) → bases`: ditto for argument keys.
    by_arg0: KeyIndex,
    /// Facts the enumerations yield: Σ [`weight`] over the versions.
    fact_count: usize,
}

impl ObjectBase {
    /// An empty object base.
    pub fn new() -> ObjectBase {
        ObjectBase::default()
    }

    /// Parse the textual format (see [`ruvo_lang::parse_facts`]).
    ///
    /// Every version the text names exists (§3). A canonical
    /// `v.exists -> o` fact only makes `v` present — the form the text
    /// dump gives an empty version; any other `exists` fact is a
    /// [`ParseError`].
    pub fn parse(src: &str) -> Result<ObjectBase, ParseError> {
        let mut ob = ObjectBase::new();
        for f in parse_facts(src)? {
            ob.insert(f.vid, f.method, Args::new(f.args), f.result);
        }
        Ok(ob)
    }

    // ----- mutation --------------------------------------------------

    /// Insert one ground version-term. Returns true if it was new.
    ///
    /// `vid` exists afterwards. A canonical `v.exists -> o` fact adds
    /// nothing else; any other `exists` fact is not a fact (§3) and is
    /// not stored (returns false).
    pub fn insert(
        &mut self,
        vid: Vid,
        method: Symbol,
        args: impl Into<Args>,
        result: Const,
    ) -> bool {
        self.insert_app(vid, method, &MethodApp::new(args, result)).is_some()
    }

    /// Insert one application: `None` if it is not new (or is an
    /// `exists` fact other than the canonical one), else whether `vid`
    /// appeared with it.
    ///
    /// A version that exists is probed once; once its leaf, state and
    /// method set are this base's own, the insert hashes the set once.
    /// Until then each level is peeked before it is unshared, so a
    /// duplicate copies nothing.
    fn insert_app(&mut self, vid: Vid, method: Symbol, app: &MethodApp) -> Option<bool> {
        let (chain, exists) = (vid.chain(), exists_sym());
        let fresh = |entry: &Versions| entry.get(chain).is_some_and(|s| !s.contains(method, app));
        let state = if method == exists {
            None
        } else {
            self.versions.get_mut_if(&vid.base(), fresh).and_then(|e| e.get_mut(chain))
        };
        if let Some(state) = state {
            if Arc::strong_count(state) > 1 && state.contains(method, app) {
                return None;
            }
            let state = Arc::make_mut(state);
            let (was_empty, had_method) = (state.is_empty(), state.has_method(method));
            if !state.insert(method, app.clone()) {
                return None;
            }
            // An empty state already counted its canonical `exists` fact.
            self.fact_count += usize::from(!was_empty);
            if !had_method {
                self.index_method(vid, method);
            }
            self.index_app(vid, method, app);
            return Some(false);
        }
        // A duplicate through a shared leaf, an `exists` fact, or a new
        // version.
        if self.exists_fact(vid)
            || (method == exists && !is_canonical_exists(vid, app.args.as_slice(), app.result))
        {
            return None;
        }
        self.fact_count += 1;
        self.index_method(vid, exists);
        let state = Arc::make_mut(self.state_mut(vid));
        if method != exists {
            state.insert(method, app.clone());
            self.index_method(vid, method);
            self.index_app(vid, method, app);
        }
        Some(true)
    }

    /// Mutable access to `vid`'s state, an empty one installed first if
    /// absent. Unshares its object's leaf.
    fn state_mut(&mut self, vid: Vid) -> &mut Arc<VersionState> {
        self.versions.get_or_default(vid.base()).get_or_default(vid.chain())
    }

    /// Take a version's state out of the table, and its object's entry
    /// with the last one. A miss copies nothing.
    fn take_state(&mut self, vid: Vid) -> Option<Arc<VersionState>> {
        self.version_shared(vid)?;
        let entry = self.versions.get_mut(&vid.base())?;
        let state = entry.remove(vid.chain());
        if entry.pairs().is_empty() {
            self.versions.remove(&vid.base());
        }
        state
    }

    /// Record that `vid` defines `method` in `by_chain_method`.
    fn index_method(&mut self, vid: Vid, method: Symbol) {
        Arc::make_mut(self.by_chain_method.get_or_default((vid.chain(), method)))
            .insert(vid.base());
    }

    /// Key one fact of `vid` in the value-keyed indexes, if `vid` is initial.
    fn index_app(&mut self, vid: Vid, method: Symbol, app: &MethodApp) {
        if vid.chain() == Chain::EMPTY {
            self.by_result.add(method, app.result, vid.base());
            if let Some(&a0) = app.args.as_slice().first() {
                self.by_arg0.add(method, a0, vid.base());
            }
        }
    }

    /// Unkey one fact of `vid`, if `vid` is initial.
    fn unindex_app(&mut self, vid: Vid, method: Symbol, app: &MethodApp) {
        if vid.chain() == Chain::EMPTY {
            self.by_result.remove(method, app.result, vid.base());
            if let Some(&a0) = app.args.as_slice().first() {
                self.by_arg0.remove(method, a0, vid.base());
            }
        }
    }

    /// Remove one ground version-term. Returns true if it was present.
    ///
    /// The version stays, with an empty state once its last fact goes:
    /// deleting facts never deletes `exists` (§3). `exists` itself is
    /// not removable here (returns false); [`ObjectBase::remove_version`]
    /// removes a whole version.
    pub fn remove(&mut self, vid: Vid, method: Symbol, args: &Args, result: Const) -> bool {
        let app = MethodApp { args: args.clone(), result };
        // Peek before copying: a miss must not CoW-copy the leaf or
        // the state.
        if method == exists_sym()
            || !self.version_shared(vid).is_some_and(|s| s.contains(method, &app))
        {
            return false;
        }
        let (method_gone, emptied) = {
            let state = Arc::make_mut(self.state_mut(vid));
            let removed = state.remove(method, &app);
            crate::invariant_assert!(removed, "presence peeked above");
            (!state.has_method(method), state.is_empty())
        };
        self.fact_count -= usize::from(!emptied);
        self.unindex_app(vid, method, &app);
        if method_gone {
            self.unindex_method(vid, method);
        }
        true
    }

    /// [`ObjectBase::insert`] recording an effective insertion — the
    /// fact itself, and `(chain, exists)` if the version is new — into
    /// `changed`. With [`ObjectBase::remove_tracked`] this is the
    /// in-place write path of a fixpoint round: an active version is
    /// *repaired* by the round's updates (its state unshared once, its
    /// indexes adjusted per fact) instead of being rebuilt and diffed.
    pub fn insert_tracked(
        &mut self,
        vid: Vid,
        method: Symbol,
        args: Args,
        result: Const,
        changed: &mut ChangedSince,
    ) -> bool {
        let app = MethodApp { args, result };
        let Some(appeared) = self.insert_app(vid, method, &app) else { return false };
        if appeared {
            changed.record(vid.chain(), exists_sym(), vid.base());
        }
        changed.record_added(vid.chain(), method, vid.base(), app);
        true
    }

    /// [`ObjectBase::remove`] recording an effective removal into
    /// `changed` (the base alone: see [`ChangedSince`]).
    pub fn remove_tracked(
        &mut self,
        vid: Vid,
        method: Symbol,
        args: &Args,
        result: Const,
        changed: &mut ChangedSince,
    ) -> bool {
        let removed = self.remove(vid, method, args, result);
        if removed {
            changed.record(vid.chain(), method, vid.base());
        }
        removed
    }

    /// Remove a whole version and all its facts; returns the old state
    /// (unsharing it first if a clone still references it).
    pub fn remove_version(&mut self, vid: Vid) -> Option<VersionState> {
        let state = self.discard_version(vid)?;
        Some(Arc::try_unwrap(state).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Remove a whole version, unindexing its facts, without forcing
    /// the state out of its (possibly shared) allocation.
    pub(crate) fn discard_version(&mut self, vid: Vid) -> Option<Arc<VersionState>> {
        let state = self.take_state(vid)?;
        self.fact_count -= weight(&state);
        for method in state.methods().chain([exists_sym()]) {
            self.unindex_method(vid, method);
        }
        for (method, app) in state.iter() {
            self.unindex_app(vid, method, app);
        }
        Some(state)
    }

    /// Install `state` as the (complete) new state of `vid`, replacing
    /// whatever was there — the engine's per-stratum *overwrite* step
    /// (ARCHITECTURE.md, decision D1). An empty state keeps the version
    /// present. The one-edit, untracked call of
    /// [`ObjectBase::replace_versions_tracked_shared`].
    pub fn replace_version(&mut self, vid: Vid, state: VersionState) {
        self.replace_versions_tracked_shared(&[(vid, Some(Arc::new(state)))], None);
    }

    /// The commit: install `edits` — per **distinct** vid, its complete
    /// new state, or `None` to remove the version — and, given a
    /// `changed` set, record the semantic delta into it (the engine's
    /// rounds read it; a commit nobody reads the delta of passes
    /// `None` and records nothing). The store adopts each `Arc`
    /// as-is, so a state read out of one version (or another base) is
    /// installed without a deep copy. No state may hold `exists`.
    ///
    /// Each edit is diffed against the stored state, and the *net*
    /// index mutations (facts in old∖new removed, new∖old added) are
    /// written through the maps' own mutators, each unsharing at most
    /// the one leaf it writes ([`crate::shard`]). The same diff feeds
    /// `changed`: every changed method's base, `(chain, exists)` for a
    /// version that appears or goes, and — for a version that already
    /// existed and a method that only grew — the facts in new∖old.
    /// Re-committing the very `Arc` the store already holds (the shape
    /// an idempotent fixpoint round produces) or a content-equal state
    /// under a fresh `Arc` is a no-op: no diff recorded, no leaf
    /// unshared, the stored state kept.
    pub fn replace_versions_tracked_shared(
        &mut self,
        edits: &[(Vid, Option<Arc<VersionState>>)],
        mut changed: Option<&mut ChangedSince>,
    ) {
        crate::invariant_assert!(
            edits.iter().map(|(v, _)| v).collect::<FastHashSet<_>>().len() == edits.len(),
            "replace_versions_tracked_shared requires distinct vids"
        );
        for (vid, new) in edits {
            self.commit_version(*vid, new.as_ref(), changed.as_deref_mut());
        }
    }

    /// One edit of [`ObjectBase::replace_versions_tracked_shared`].
    fn commit_version(
        &mut self,
        vid: Vid,
        new: Option<&Arc<VersionState>>,
        mut changed: Option<&mut ChangedSince>,
    ) {
        let exists = exists_sym();
        let old = self.version_shared(vid).cloned();
        let diff: Vec<Symbol> = match (&old, new) {
            (None, None) => return, // removing what is not there
            // Idempotent recommit: nothing to diff or record.
            (Some(o), Some(n)) if Arc::ptr_eq(o, n) => return,
            (Some(o), Some(n)) => match o.changed_methods(n) {
                d if d.is_empty() => return, // content-equal: keep the stored state
                d => d,
            },
            (Some(o), None) => o.methods().collect(),
            (None, Some(n)) => n.methods().collect(),
        };
        crate::invariant_assert!(
            new.is_none_or(|n| !n.has_method(exists)),
            "a version state never holds `exists` ({vid})"
        );
        let absent = VersionState::new();
        let (old, new_state) = (old.as_deref(), new.map_or(&absent, |n| &**n));
        self.fact_count = self.fact_count + new.map_or(0, |n| weight(n)) - old.map_or(0, weight);
        if old.is_some() != new.is_some() {
            // The version appears or goes: `(chain, exists)` changes.
            if new.is_some() {
                self.index_method(vid, exists);
            } else {
                self.unindex_method(vid, exists);
            }
            if let Some(changed) = changed.as_deref_mut() {
                changed.record(vid.chain(), exists, vid.base());
            }
        }

        for &m in &diff {
            match (old.is_some_and(|s| s.has_method(m)), new_state.has_method(m)) {
                (true, false) => self.unindex_method(vid, m),
                (false, true) => self.index_method(vid, m),
                _ => {}
            }
            // Net fact diff, removals before additions. A method of a
            // pre-existing version that only grew records the added
            // facts; anything else records the base alone.
            let mut grew_only = old.is_some();
            for app in old.into_iter().flat_map(|o| o.apps(m)) {
                if !new_state.contains(m, app) {
                    self.unindex_app(vid, m, app);
                    grew_only = false;
                }
            }
            for app in new_state.apps(m) {
                if old.is_none_or(|o| !o.contains(m, app)) {
                    self.index_app(vid, m, app);
                    if let Some(changed) = changed.as_deref_mut().filter(|_| grew_only) {
                        changed.record_added(vid.chain(), m, vid.base(), app.clone());
                    }
                }
            }
            if let Some(changed) = changed.as_deref_mut().filter(|_| !grew_only) {
                changed.record(vid.chain(), m, vid.base());
            }
        }
        if let Some(n) = new {
            self.versions.get_or_default(vid.base()).insert(vid.chain(), Arc::clone(n));
        } else {
            self.take_state(vid);
        }
    }

    fn unindex_method(&mut self, vid: Vid, method: Symbol) {
        if let Some(set) = self.by_chain_method.get_mut(&(vid.chain(), method)) {
            let set = Arc::make_mut(set);
            set.remove(&vid.base());
            if set.is_empty() {
                self.by_chain_method.remove(&(vid.chain(), method));
            }
        }
    }

    /// Drop every version whose state is empty — what §5's extraction
    /// does to an object whose final state holds only `exists`.
    /// O(versions); copies nothing when there is nothing to drop.
    pub fn remove_empty_versions(&mut self) {
        let empty: Vec<Vid> =
            self.states().filter(|(_, s)| s.is_empty()).map(|(vid, _)| vid).collect();
        for vid in empty {
            self.discard_version(vid);
        }
    }

    /// A no-op: `exists` is the version table, so there is nothing to
    /// prepare (§3). Kept only for callers that still name it.
    #[doc(hidden)]
    pub fn ensure_exists(&mut self) {}

    // ----- queries ---------------------------------------------------

    /// The state of a version, if it has any facts.
    pub fn version(&self, vid: Vid) -> Option<&VersionState> {
        self.version_shared(vid).map(Arc::as_ref)
    }

    /// The shared handle to a version's state. Cloning the `Arc` and
    /// handing it back through
    /// [`ObjectBase::replace_versions_tracked_shared`] (possibly after
    /// [`Arc::make_mut`] writes) is the allocation-free commit path
    /// the engine's `T_P` step 2 uses.
    pub fn version_shared(&self, vid: Vid) -> Option<&Arc<VersionState>> {
        self.versions.get(&vid.base())?.get(vid.chain())
    }

    /// Every version, with its state.
    fn states(&self) -> impl Iterator<Item = (Vid, &Arc<VersionState>)> {
        self.versions.iter().flat_map(|(&base, entry)| entry.states(base))
    }

    /// The versions in version-table shard `i`, with their states.
    fn shard_states(&self, i: usize) -> impl Iterator<Item = (Vid, &Arc<VersionState>)> {
        self.versions.shard_at(i).flat_map(|leaf| leaf.iter()).flat_map(|(&b, e)| e.states(b))
    }

    /// Copy-on-write sharing diagnostics against another base —
    /// typically a clone of this one, before or after mutations —
    /// counted in shard nodes. A fresh clone shares everything; each
    /// write unshares at most one shard node (and one leaf) per
    /// affected index.
    pub fn cow_stats(&self, other: &ObjectBase) -> CowStats {
        CowStats {
            indexes: 4,
            shards_per_index: SHARD_COUNT,
            shared_shards: self.versions.shards_shared_with(&other.versions)
                + self.by_chain_method.shards_shared_with(&other.by_chain_method)
                + self.by_result.map.shards_shared_with(&other.by_result.map)
                + self.by_arg0.map.shards_shared_with(&other.by_arg0.map),
        }
    }

    /// Membership of one ground version-term.
    pub fn contains(&self, vid: Vid, method: Symbol, args: &[Const], result: Const) -> bool {
        if method == exists_sym() {
            return is_canonical_exists(vid, args, result) && self.exists_fact(vid);
        }
        self.version_shared(vid).is_some_and(|s| s.contains_parts(method, args, result))
    }

    /// True if `vid.exists -> base(vid)` holds — the version is in the
    /// table. The paper's criterion for "the version exists", used by
    /// `v*` and by step 2 of `T_P`.
    pub fn exists_fact(&self, vid: Vid) -> bool {
        self.version_shared(vid).is_some()
    }

    /// §3's `v*`: "the largest subterm of `v`, such that
    /// `v*.exists -> o ∈ I`" — the deepest existing version at or below
    /// `v`. `None` when not even the bare object exists (a brand-new
    /// object being created by an `ins`; ARCHITECTURE.md, decision D3).
    pub fn v_star(&self, vid: Vid) -> Option<Vid> {
        // The entry is sorted by chain, and a chain sorts after its
        // prefixes: the last prefix of `vid`'s chain is the deepest.
        let pairs = self.versions.get(&vid.base())?.pairs();
        let (chain, _) = pairs.iter().rev().find(|(c, _)| c.is_prefix_of(vid.chain()))?;
        Some(Vid::new(vid.base(), *chain))
    }

    /// Results of `method@args` on `vid`.
    pub fn results<'a>(
        &'a self,
        vid: Vid,
        method: Symbol,
        args: &'a [Const],
    ) -> impl Iterator<Item = Const> + 'a {
        let exists = (method == exists_sym() && self.contains(vid, method, args, vid.base()))
            .then_some(vid.base());
        let stored =
            self.version_shared(vid).into_iter().flat_map(move |s| s.results(method, args));
        exists.into_iter().chain(stored)
    }

    /// All stored applications of `method` on `vid` (none for `exists`,
    /// which is the version table: see [`ObjectBase::exists_fact`]).
    pub fn apps(&self, vid: Vid, method: Symbol) -> impl Iterator<Item = &MethodApp> {
        self.version_shared(vid).into_iter().flat_map(move |s| s.apps(method))
    }

    /// The versions with update-chain `chain` that define `method` —
    /// the scan index for a body literal with an unbound base variable.
    /// For `exists`: every version of the chain.
    pub fn versions_with(&self, chain: Chain, method: Symbol) -> impl Iterator<Item = Vid> + '_ {
        self.by_chain_method
            .get(&(chain, method))
            .into_iter()
            .flat_map(|bases| bases.iter())
            .map(move |&base| Vid::new(base, chain))
    }

    /// The versions with update-chain `chain` that have at least one
    /// `method` application whose **result** is `result` — the indexed
    /// scan for a body literal whose result position is bound (e.g.
    /// `E.isa -> empl` with `E` unbound enumerates only the versions
    /// that are `empl`s, not every version defining `isa`).
    ///
    /// O(answers) on the initial chain, through the key index; a derived
    /// chain is not keyed, so there it filters its relation, O(relation).
    ///
    /// For `exists` the only candidate is `result@chain`, present or
    /// not (`exists` is not value-indexed: it is the version table).
    pub fn versions_with_result(
        &self,
        chain: Chain,
        method: Symbol,
        result: Const,
    ) -> impl Iterator<Item = Vid> + '_ {
        let exists = Some(Vid::new(result, chain))
            .filter(|&vid| method == exists_sym() && self.exists_fact(vid));
        let stored =
            self.keyed(&self.by_result, (chain, method, result), move |app| app.result == result);
        exists.into_iter().chain(stored)
    }

    /// The versions with update-chain `chain` that have at least one
    /// `method` application whose **first argument** is `arg0` (the
    /// indexed scan for a bound first argument): O(answers) on the
    /// initial chain, O(relation) on a derived one.
    pub fn versions_with_arg0(
        &self,
        chain: Chain,
        method: Symbol,
        arg0: Const,
    ) -> impl Iterator<Item = Vid> + '_ {
        self.keyed(&self.by_arg0, (chain, method, arg0), move |app| {
            app.args.as_slice().first() == Some(&arg0)
        })
    }

    /// The versions of `chain` with a `method` application under `key`:
    /// `index`'s entry on the initial chain, else a filter by `has_key`.
    fn keyed<'a>(
        &'a self,
        index: &'a KeyIndex,
        (chain, method, key): (Chain, Symbol, Const),
        has_key: impl Fn(&MethodApp) -> bool + 'a,
    ) -> impl Iterator<Item = Vid> + 'a {
        let initial = (chain == Chain::EMPTY).then(|| index.bases(method, key).map(Vid::object));
        let derived = (chain != Chain::EMPTY && method != exists_sym()).then(|| {
            self.versions_with(chain, method)
                .filter(move |&vid| self.apps(vid, method).any(&has_key))
        });
        initial.into_iter().flatten().chain(derived.into_iter().flatten())
    }

    /// How many versions [`ObjectBase::versions_with_result`] yields:
    /// the matcher's cost of starting a join at that key. O(1) on the
    /// initial chain and for `exists`, O(relation) on a derived chain.
    pub fn count_with_result(&self, chain: Chain, method: Symbol, result: Const) -> usize {
        if chain != Chain::EMPTY || method == exists_sym() {
            return self.versions_with_result(chain, method, result).count();
        }
        self.by_result.count(method, result)
    }

    /// How many versions [`ObjectBase::versions_with_arg0`] yields: O(1)
    /// on the initial chain, O(relation) on a derived one.
    pub fn count_with_arg0(&self, chain: Chain, method: Symbol, arg0: Const) -> usize {
        if chain != Chain::EMPTY {
            return self.versions_with_arg0(chain, method, arg0).count();
        }
        self.by_arg0.count(method, arg0)
    }

    /// Every version of an object, as VIDs.
    pub fn versions_of(&self, base: Const) -> impl Iterator<Item = Vid> + '_ {
        self.versions
            .get(&base)
            .into_iter()
            .flat_map(move |entry| entry.states(base))
            .map(|(v, _)| v)
    }

    /// Every object (base OID) with at least one version in the store.
    pub fn objects(&self) -> impl Iterator<Item = Const> + '_ {
        self.versions.keys().copied()
    }

    /// Number of objects, in O(leaves): 256 per map, not O(objects).
    pub fn object_count(&self) -> usize {
        self.versions.len()
    }

    /// True when every version is an initial one: the shape of a §5
    /// `ob′`, for a base that also holds no empty version (as a
    /// committed head never does). O(leaves + relations): the `(chain,
    /// exists)` presence index lists every chain in the store.
    pub fn is_flat(&self) -> bool {
        self.by_chain_method.keys().all(|&(chain, _)| chain == Chain::EMPTY)
    }

    /// Every version in the store.
    pub fn versions(&self) -> impl Iterator<Item = Vid> + '_ {
        self.states().map(|(vid, _)| vid)
    }

    /// All facts (unordered): the stored ones, and the canonical
    /// `v.exists -> o` of every empty version.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        self.states().flat_map(|(vid, state)| version_facts(vid, state))
    }

    /// All facts, sorted for deterministic output.
    pub fn facts_sorted(&self) -> Vec<Fact> {
        let mut v: Vec<Fact> = self.iter().collect();
        v.sort_by(fact_cmp);
        v
    }

    // ----- incremental-checkpoint surface ----------------------------

    /// The version-table shards whose versions differ from `prev`'s —
    /// the dirty set a shard-delta checkpoint writes against the state
    /// it last wrote. Exact, by content: a shard or leaf still sharing
    /// its allocation with `prev` costs one pointer comparison, any
    /// other leaf an entry-wise one, however either base was built. Only the
    /// version table matters here: every join index is reconstructible
    /// from the facts, and the snapshot codec encodes facts straight
    /// out of the version states.
    pub fn version_shards_differing(&self, prev: &ObjectBase) -> [bool; SHARD_COUNT] {
        self.versions.shards_differing(&prev.versions)
    }

    /// The facts of every version routed to version-table shard `i`,
    /// in the same deterministic order [`ObjectBase::facts_sorted`]
    /// uses — the unit of a shard-delta checkpoint.
    pub fn shard_facts_sorted(&self, i: usize) -> Vec<Fact> {
        let mut v: Vec<Fact> =
            self.shard_states(i).flat_map(|(vid, state)| version_facts(vid, state)).collect();
        v.sort_by(fact_cmp);
        v
    }

    /// The version ids routed to version-table shard `i`, sorted.
    /// With [`ObjectBase::shard_facts_sorted`] this is the writer-side
    /// unit of a shard-delta: the encoder diffs a dirty shard's vid
    /// set against the previously checkpointed state to find the
    /// versions the delta must explicitly remove.
    pub fn shard_vids_sorted(&self, i: usize) -> Vec<Vid> {
        let mut v: Vec<Vid> = self.shard_states(i).map(|(vid, _)| vid).collect();
        v.sort_unstable();
        v
    }

    /// Build a base from a decoded fact stream through one tracked
    /// batch commit — the reopen path. Equivalent to inserting every
    /// fact in order (duplicates collapse, as [`ObjectBase::insert`]
    /// does).
    pub fn from_facts(facts: Vec<Fact>) -> ObjectBase {
        let mut states: FastHashMap<Vid, VersionState> = FastHashMap::default();
        for f in facts {
            if f.method != exists_sym() {
                states.entry(f.vid).or_default().insert(f.method, MethodApp::new(f.args, f.result));
            } else if is_canonical_exists(f.vid, f.args.as_slice(), f.result) {
                states.entry(f.vid).or_default();
            }
        }
        let edits: Vec<(Vid, Option<Arc<VersionState>>)> =
            states.into_iter().map(|(vid, s)| (vid, Some(Arc::new(s)))).collect();
        let mut ob = ObjectBase::new();
        ob.replace_versions_tracked_shared(&edits, None);
        ob
    }

    /// Number of facts the enumerations yield: the stored ones, plus
    /// one canonical `exists` fact per empty version. A flat `ob′` has
    /// no empty version, so this is its stored facts.
    pub fn len(&self) -> usize {
        self.fact_count
    }

    /// True if the store has no version.
    pub fn is_empty(&self) -> bool {
        self.fact_count == 0
    }

    /// Convenience for tests and examples: the sorted results of a
    /// 0-ary method on the *initial* version of `base`.
    pub fn lookup1(&self, base: Const, method: &str) -> Vec<Const> {
        let mut v: Vec<Const> =
            self.results(Vid::object(base), ruvo_term::sym(method), &[]).collect();
        v.sort();
        v
    }

    /// Summary statistics (of the facts [`ObjectBase::iter`] yields).
    pub fn stats(&self) -> ObStats {
        let mut methods: FastHashSet<Symbol> = FastHashSet::default();
        let (mut max_depth, mut versions) = (0, 0);
        for (vid, state) in self.states() {
            versions += 1;
            max_depth = max_depth.max(vid.depth());
            methods.extend(state.methods());
            if state.is_empty() {
                methods.insert(exists_sym());
            }
        }
        ObStats {
            objects: self.versions.len(),
            versions,
            facts: self.fact_count,
            distinct_methods: methods.len(),
            max_version_depth: max_depth,
        }
    }

    /// Exhaustive index consistency check (test helper; O(n)): among
    /// others, every object entry is in canonical form, no state holds
    /// `exists`, the `(chain, exists)` presence index equals the
    /// version table and the key indexes hold exactly the initial
    /// versions' facts.
    pub fn check_invariants(&self) {
        let exists = exists_sym();
        for (base, entry) in self.versions.iter() {
            let pairs = entry.pairs();
            assert!(!pairs.is_empty(), "empty version-table entry for {base}");
            let inline = matches!(entry, Versions::One(_));
            assert!(inline == (pairs.len() == 1), "one version of {base} held in a vector");
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "{base}'s chains not sorted");
        }
        let mut count = 0;
        for (vid, state) in self.states() {
            assert!(!state.has_method(exists), "version state for {vid} holds `exists`");
            count += weight(state);
            assert!(
                self.by_chain_method
                    .get(&(vid.chain(), exists))
                    .is_some_and(|s| s.contains(&vid.base())),
                "missing (chain, exists) presence entry for {vid}"
            );
            for method in state.methods() {
                assert!(
                    self.by_chain_method
                        .get(&(vid.chain(), method))
                        .is_some_and(|s| s.contains(&vid.base())),
                    "missing by_chain_method entry for {vid}.{method}"
                );
            }
        }
        assert_eq!(count, self.fact_count, "fact_count out of sync");
        for (&(chain, method), bases) in self.by_chain_method.iter() {
            for base in bases.iter() {
                let vid = Vid::new(*base, chain);
                assert!(
                    self.version_shared(vid)
                        .is_some_and(|s| method == exists || s.has_method(method)),
                    "stale by_chain_method entry {vid}.{method}"
                );
            }
        }
        // The key indexes must hold exactly the initial versions' facts.
        let mut expect_result: FastHashMap<(Symbol, Const), FastHashMap<Const, u32>> =
            FastHashMap::default();
        let mut expect_arg0: FastHashMap<(Symbol, Const), FastHashMap<Const, u32>> =
            FastHashMap::default();
        for (vid, state) in self.states().filter(|(vid, _)| vid.chain() == Chain::EMPTY) {
            for (method, app) in state.iter() {
                *expect_result
                    .entry((method, app.result))
                    .or_default()
                    .entry(vid.base())
                    .or_insert(0) += 1;
                if let Some(&a0) = app.args.as_slice().first() {
                    *expect_arg0.entry((method, a0)).or_default().entry(vid.base()).or_insert(0) +=
                        1;
                }
            }
        }
        let flatten = |idx: &KeyIndex| -> FastHashMap<(Symbol, Const), FastHashMap<Const, u32>> {
            idx.map.iter().map(|(k, v)| (*k, v.counts().collect())).collect()
        };
        assert_eq!(flatten(&self.by_result), expect_result, "by_result index out of sync");
        assert_eq!(flatten(&self.by_arg0), expect_arg0, "by_arg0 index out of sync");
        // Every entry must live in the shard its key routes to —
        // otherwise lookups would miss it while iteration still sees it.
        self.versions.check_residency();
        self.by_chain_method.check_residency();
        self.by_result.map.check_residency();
        self.by_arg0.map.check_residency();
    }
}

impl PartialEq for ObjectBase {
    fn eq(&self, other: &Self) -> bool {
        self.versions == other.versions
    }
}

impl Eq for ObjectBase {}

impl fmt::Display for ObjectBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fact in self.facts_sorted() {
            writeln!(f, "{fact}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for ObjectBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectBase({} facts)\n{self}", self.fact_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, oid, sym, UpdateKind};

    fn mk() -> ObjectBase {
        ObjectBase::parse(
            "phil.isa -> empl / pos -> mgr / sal -> 4000.
             bob.isa -> empl / boss -> phil / sal -> 4200.",
        )
        .unwrap()
    }

    type Edits = Vec<(Vid, Option<Arc<VersionState>>)>;

    /// A broad base plus a batch of edits covering every commit shape:
    /// in-place modification, version creation (object and mod-chain),
    /// emptying, deletion, idempotent (pointer-equal) recommit and
    /// content-equal recommit under a fresh `Arc`, spread over many
    /// shards.
    fn shard_commit_fixture() -> (ObjectBase, Edits) {
        let n = if cfg!(miri) { 40 } else { 120 };
        let mut ob = ObjectBase::new();
        for i in 0..n {
            let v = Vid::object(oid(&format!("o{i}")));
            ob.insert(v, sym("p"), Args::empty(), int(i));
            ob.insert(v, sym("q"), vec![int(1)], int(i * 2));
        }
        let mut edits: Edits = Vec::new();
        for i in 0..n {
            let v = Vid::object(oid(&format!("o{i}")));
            let stored = ob.version_shared(v).unwrap();
            match i % 6 {
                0 => {
                    // Modify: new result for p, keep everything else.
                    let mut s = (**stored).clone();
                    s.remove(sym("p"), &MethodApp::new(Args::empty(), int(i)));
                    s.insert(sym("p"), MethodApp::new(Args::empty(), int(i + 1000)));
                    edits.push((v, Some(Arc::new(s))));
                }
                1 => edits.push((v, None)),                     // delete
                2 => edits.push((v, Some(Arc::clone(stored)))), // ptr-equal recommit
                3 => edits.push((v, Some(Arc::new((**stored).clone())))), // content-equal
                4 => edits.push((v, Some(Arc::new(VersionState::new())))), // empty it
                _ => {
                    // Create a mod-chain version aliasing the stored
                    // state plus the modification — the shape step 2
                    // of T_P produces.
                    let mv = v.apply(UpdateKind::Mod).unwrap();
                    let mut s = (**stored).clone();
                    s.remove(sym("q"), &MethodApp::new(vec![int(1)], int(i * 2)));
                    s.insert(sym("q"), MethodApp::new(vec![int(1)], int(i * 3)));
                    edits.push((mv, Some(Arc::new(s))));
                }
            }
        }
        // Brand-new objects too (no prior version at all), one empty.
        for i in 0..n / 4 {
            let v = Vid::object(oid(&format!("fresh{i}")));
            let mut s = VersionState::new();
            if i > 0 {
                s.insert(sym("p"), MethodApp::new(Args::empty(), int(i)));
            }
            edits.push((v, Some(Arc::new(s))));
        }
        (ob, edits)
    }

    #[test]
    fn batch_commit_matches_serial_across_shards() {
        let (ob, edits) = shard_commit_fixture();
        let mut serial = ob.clone();
        let mut ch_serial = ChangedSince::new();
        for edit in &edits {
            serial
                .replace_versions_tracked_shared(std::slice::from_ref(edit), Some(&mut ch_serial));
        }
        serial.check_invariants();
        let mut batch = ob.clone();
        let mut ch_batch = ChangedSince::new();
        batch.replace_versions_tracked_shared(&edits, Some(&mut ch_batch));
        assert_eq!(batch, serial);
        assert_eq!(ch_batch, ch_serial);
        assert_eq!(batch.len(), serial.len());
        batch.check_invariants();
    }

    /// The tracked in-place edits — the repair path of a fixpoint round
    /// — land on the base, counters and indexes a from-scratch rebuild
    /// of the expected facts gives, and record exactly the effective
    /// writes: added facts for what only grew, the base alone for what
    /// shrank.
    #[test]
    fn tracked_in_place_edits_match_a_rebuild_across_shards() {
        let n = if cfg!(miri) { 12 } else { 90 };
        let obj = |i: i64| Vid::object(oid(&format!("o{i}")));
        let app = |r: i64| MethodApp::new(Args::empty(), int(r));
        let mut ob = ObjectBase::new();
        for i in 0..n {
            ob.insert(obj(i), sym("p"), Args::empty(), int(i));
            ob.insert(obj(i), sym("q"), vec![int(1)], int(i * 2));
        }
        // Every shard and state starts shared, as in an engine run.
        let before = ob.clone();
        let mut expect: std::collections::BTreeSet<Fact> = ob.iter().collect();
        let fact = |i: i64, m: &str, args: Args, r: i64| Fact {
            vid: obj(i),
            method: sym(m),
            args,
            result: int(r),
        };

        let mut changed = ChangedSince::new();
        let (ch, none, one) = (&mut changed, Args::empty(), Args::new(vec![int(1)]));
        let (p, q, r) = (sym("p"), sym("q"), sym("r"));
        for i in 0..n {
            match i % 3 {
                0 => {
                    // Grow a method, add a new one; a duplicate is a no-op.
                    assert!(ob.insert_tracked(obj(i), p, none.clone(), int(i + 1000), ch));
                    assert!(ob.insert_tracked(obj(i), r, none.clone(), int(7), ch));
                    assert!(!ob.insert_tracked(obj(i), p, none.clone(), int(i), ch));
                    expect.insert(fact(i, "p", none.clone(), i + 1000));
                    expect.insert(fact(i, "r", none.clone(), 7));
                }
                1 => {
                    // Empty the version; removing an absent fact is a no-op.
                    assert!(ob.remove_tracked(obj(i), p, &none, int(i), ch));
                    assert!(ob.remove_tracked(obj(i), q, &one, int(i * 2), ch));
                    assert!(!ob.remove_tracked(obj(i), p, &none, int(999), ch));
                    expect.remove(&fact(i, "p", none.clone(), i));
                    expect.remove(&fact(i, "q", one.clone(), i * 2));
                    expect.extend(version_facts(obj(i), &VersionState::new()));
                    assert!(ob.exists_fact(obj(i)), "an emptied version still exists");
                    assert!(ob.version(obj(i)).unwrap().is_empty());
                }
                _ => {}
            }
        }
        ob.check_invariants();
        assert_eq!(ob, ObjectBase::from_facts(expect.into_iter().collect()));
        before.check_invariants();
        assert_eq!(before.len(), 2 * n as usize, "the shared clone must not see the edits");

        let bases = |m: &str| {
            let mut v: Vec<Const> =
                changed.relation(&(Chain::EMPTY, sym(m))).unwrap().bases().collect();
            v.sort();
            v
        };
        let every = |k: i64| {
            let mut v: Vec<Const> = (0..n).filter(|i| i % 3 == k).map(|i| obj(i).base()).collect();
            v.sort();
            v
        };
        assert_eq!(changed.len(), 3);
        assert_eq!(bases("r"), every(0));
        assert_eq!(bases("q"), every(1));
        assert_eq!(bases("p"), {
            let mut v = [every(0), every(1)].concat();
            v.sort();
            v
        });
        let q = changed.relation(&(Chain::EMPTY, sym("q"))).unwrap();
        assert!(q.grown().next().is_none(), "removals record no facts");
        let added_p = changed.relation(&(Chain::EMPTY, sym("p"))).unwrap();
        let added_r = changed.relation(&(Chain::EMPTY, sym("r"))).unwrap();
        assert_eq!(
            (added_p.grown().count(), added_r.grown().count()),
            (every(0).len(), every(0).len())
        );
        for i in (0..n).filter(|i| i % 3 == 0) {
            assert_eq!(added_p.added(obj(i).base()), Some(&[app(i + 1000)][..]));
            assert_eq!(added_r.added(obj(i).base()), Some(&[app(7)][..]));
        }
    }

    /// A write copies its key's leaf, not the member sets of the other
    /// keys in that leaf: a set of two or more bases is `Arc`-shared
    /// between the copies until a write reaches it.
    #[test]
    fn a_write_shares_the_large_index_entries_of_its_shard_leaf() {
        let mut original = ObjectBase::new();
        let (kind, live, none) = (sym("kind"), oid("live"), Args::empty());
        for i in 0..200 {
            original.insert(Vid::object(oid(&format!("a{i}"))), kind, none.clone(), live);
        }
        let presence = (Chain::EMPTY, kind);
        let result = (kind, live);
        // A method whose presence entry shares `(ε, kind)`'s leaf, and
        // a result of `kind` that shares `(kind, live)`'s leaf: the
        // inserts below unshare both leaves.
        let method = (0..)
            .map(|i| sym(&format!("m{i}")))
            .find(|&m| (Chain::EMPTY, m).slot() == presence.slot());
        let value = (0..).map(int).find(|&v| (kind, v).slot() == result.slot());
        let mut ob = original.clone();
        ob.insert(Vid::object(oid("x")), method.unwrap(), none.clone(), int(1));
        ob.insert(Vid::object(oid("a0")), kind, none.clone(), value.unwrap());
        let bases = |b: &ObjectBase| Arc::clone(b.by_chain_method.get(&presence).unwrap());
        assert!(Arc::ptr_eq(&bases(&ob), &bases(&original)), "the presence set was cloned");
        match (ob.by_result.map.get(&result), original.by_result.map.get(&result)) {
            (Some(Bag::Many(a)), Some(Bag::Many(b))) => {
                assert!(Arc::ptr_eq(a, b), "the result entry's table was cloned")
            }
            other => panic!("expected two shared tables, got {other:?}"),
        }
        ob.check_invariants();
    }

    /// A duplicate `insert_tracked` and an absent `remove_tracked` are
    /// no-ops at every level: on a fresh clone they record nothing and
    /// unshare no shard, leaf or state; once the base owns the version,
    /// the one-probe path records nothing for a duplicate either.
    #[test]
    fn tracked_noops_on_a_fresh_clone_unshare_no_shard() {
        let mut original = ObjectBase::new();
        let phil = Vid::object(oid("phil"));
        let (likes, none) = (sym("likes"), Args::empty());
        for what in ["tea", "jazz"] {
            original.insert(phil, likes, none.clone(), oid(what));
        }
        original.insert(phil, sym("sal"), vec![int(1)], int(4000));
        let mut ob = original.clone();
        let mut changed = ChangedSince::new();
        let state = Arc::clone(ob.version_shared(phil).unwrap());
        assert!(!ob.insert_tracked(phil, likes, none.clone(), oid("tea"), &mut changed));
        assert!(!ob.insert_tracked(phil, sym("sal"), vec![int(1)].into(), int(4000), &mut changed));
        assert!(!ob.remove_tracked(phil, likes, &none, oid("golf"), &mut changed));
        assert!(!ob.remove_tracked(phil, sym("boss"), &none, oid("bob"), &mut changed));
        assert!(changed.is_empty());
        assert_eq!(ob.cow_stats(&original), original.cow_stats(&original));
        assert!(ob.cow_stats(&original).fully_shared());
        assert_eq!(ob.versions.leaves_unshared_with(&original.versions), 0);
        assert!(Arc::ptr_eq(ob.version_shared(phil).unwrap(), &state));

        // One effective insert makes the leaf, the state and the set the
        // clone's own; a duplicate then goes through the one-probe path.
        assert!(ob.insert_tracked(phil, likes, none.clone(), oid("golf"), &mut changed));
        assert!(!Arc::ptr_eq(ob.version_shared(phil).unwrap(), &state));
        let mut again = ChangedSince::new();
        assert!(!ob.insert_tracked(phil, likes, none.clone(), oid("golf"), &mut again));
        assert!(!ob.insert_tracked(phil, likes, none.clone(), oid("tea"), &mut again));
        assert!(again.is_empty());
        let relation = changed.relation(&(Chain::EMPTY, likes)).unwrap();
        assert_eq!(relation.added(oid("phil")), Some(&[MethodApp::new(none, oid("golf"))][..]));
        assert_eq!(ob.len(), 4);
        ob.check_invariants();
        original.check_invariants();
        assert_eq!(original.len(), 3, "the original must not see the edit");
    }

    /// The tracked commit on random batches — fresh versions, growing
    /// and shrinking hot versions, emptied states, pointer- and
    /// content-equal recommits — lands on the base and counters a
    /// from-scratch rebuild of the expected facts gives.
    #[test]
    fn random_batches_commit_identically_at_every_width_across_shards() {
        let mut rng = proptest::TestRng::for_test("single_tracked_commit");
        let (cases, objects) = if cfg!(miri) { (2, 8) } else { (30, 40) };
        for case in 0..cases {
            let mut ob = ObjectBase::new();
            for i in 0..1 + rng.below(objects) {
                let v = Vid::object(oid(&format!("o{i}")));
                ob.insert(v, sym("p"), Args::empty(), int(rng.below(4) as i64));
                ob.insert(v, sym("q"), vec![int(rng.below(3) as i64)], int(i as i64));
            }
            // Successive batches, so versions created by one are the
            // hot versions the next one grows.
            for batch in 0..4 {
                let mut edits: Edits = Vec::new();
                for vid in ob.versions().collect::<Vec<_>>() {
                    let stored = ob.version_shared(vid).unwrap();
                    let mut s = (**stored).clone();
                    match rng.below(8) {
                        0 => edits.push((vid, Some(Arc::new(VersionState::new())))),
                        1 => edits.push((vid, Some(Arc::clone(stored)))),
                        2 => edits.push((vid, Some(Arc::new(s)))),
                        3 => {
                            s.insert(sym("p"), MethodApp::new(Args::empty(), int(10 + batch)));
                            s.insert(sym("r"), MethodApp::new(vec![int(batch)], int(case)));
                            edits.push((vid, Some(Arc::new(s))));
                        }
                        4 => {
                            for app in s.apps(sym("q")).cloned().collect::<Vec<_>>() {
                                s.remove(sym("q"), &app);
                            }
                            edits.push((vid, Some(Arc::new(s))));
                        }
                        5 => {
                            let Ok(fresh) = vid.apply(UpdateKind::Mod) else { continue };
                            if ob.version(fresh).is_none() {
                                edits.push((fresh, Some(Arc::new(s))));
                            }
                        }
                        6 => edits.push((vid, None)),
                        _ => {}
                    }
                }
                let edited: FastHashSet<Vid> = edits.iter().map(|(v, _)| *v).collect();
                let mut expect = ObjectBase::new();
                for f in ob.iter().filter(|f| !edited.contains(&f.vid)) {
                    expect.insert(f.vid, f.method, f.args, f.result);
                }
                for (vid, state) in &edits {
                    for f in state.iter().flat_map(|s| version_facts(*vid, s)) {
                        expect.insert(f.vid, f.method, f.args, f.result);
                    }
                }
                ob.replace_versions_tracked_shared(&edits, None);
                ob.check_invariants();
                assert_eq!(ob, expect, "case {case} batch {batch}");
                assert_eq!(ob.fact_count, expect.fact_count);
            }
        }
    }

    /// Every `exists` read answers from the version table — emptied,
    /// removed and brand-new versions included — and the commit records
    /// a version's appearance or removal under `(chain, exists)`.
    #[test]
    fn exists_is_the_version_table_across_shards() {
        let (before, edits) = shard_commit_fixture();
        let mut ob = before.clone();
        let mut changed = ChangedSince::new();
        ob.replace_versions_tracked_shared(&edits, Some(&mut changed));
        ob.check_invariants();
        let exists = exists_sym();
        for (vid, state) in &edits {
            let present = state.is_some();
            assert_eq!(ob.exists_fact(*vid), present, "{vid}");
            assert_eq!(ob.contains(*vid, exists, &[], vid.base()), present);
            assert!(!ob.contains(*vid, exists, &[], int(0)));
            assert_eq!(ob.results(*vid, exists, &[]).collect::<Vec<_>>().len(), present as usize);
            let found: Vec<Vid> =
                ob.versions_with_result(vid.chain(), exists, vid.base()).collect();
            assert_eq!(found, if present { vec![*vid] } else { vec![] });
            assert_eq!(ob.v_star(*vid), if present { Some(*vid) } else { None });
            let recorded =
                changed.relation(&(vid.chain(), exists)).is_some_and(|r| r.contains(vid.base()));
            assert_eq!(recorded, before.exists_fact(*vid) != present, "{vid}");
        }
        for chain in [Chain::EMPTY, Chain::EMPTY.push(UpdateKind::Mod).unwrap()] {
            let mut indexed: Vec<Vid> = ob.versions_with(chain, exists).collect();
            let mut table: Vec<Vid> = ob.versions().filter(|v| v.chain() == chain).collect();
            indexed.sort();
            table.sort();
            assert_eq!(indexed, table);
        }
        let empty = ob.versions().filter(|&v| ob.version(v).unwrap().is_empty()).count();
        assert!(empty > 0);
        assert_eq!(ob.len(), ob.iter().count());
        assert_eq!(ob.iter().filter(|f| f.method == exists).count(), empty);
    }

    #[test]
    fn batch_commit_empty_and_noop_edits_across_shards() {
        let ob = mk();
        // Empty edit list: nothing changes, no recording.
        let mut a = ob.clone();
        let mut ch = ChangedSince::new();
        a.replace_versions_tracked_shared(&[], Some(&mut ch));
        assert_eq!(a, ob);
        assert!(ch.keys().next().is_none());
        // Removing a version that never existed is a no-op.
        let ghost = Vid::object(oid("nobody"));
        let edits = vec![(ghost, None), (ghost.apply(UpdateKind::Del).unwrap(), None)];
        a.replace_versions_tracked_shared(&edits, Some(&mut ch));
        assert_eq!(a, ob);
        assert!(ch.keys().next().is_none());
        a.check_invariants();
    }

    #[test]
    fn parse_and_lookup() {
        let ob = mk();
        assert_eq!(ob.len(), 6);
        assert_eq!(ob.lookup1(oid("phil"), "sal"), vec![int(4000)]);
        assert_eq!(ob.lookup1(oid("bob"), "boss"), vec![oid("phil")]);
        ob.check_invariants();
    }

    #[test]
    fn insert_is_idempotent() {
        let mut ob = mk();
        assert!(!ob.insert(Vid::object(oid("phil")), sym("sal"), Args::empty(), int(4000)));
        assert_eq!(ob.len(), 6);
        ob.check_invariants();
    }

    #[test]
    fn remove_updates_indexes() {
        let mut ob = mk();
        let phil = Vid::object(oid("phil"));
        assert!(ob.remove(phil, sym("sal"), &Args::empty(), int(4000)));
        assert_eq!(ob.lookup1(oid("phil"), "sal"), vec![]);
        // sal chain-index no longer lists phil.
        let sal_versions: Vec<Vid> = ob.versions_with(Chain::EMPTY, sym("sal")).collect();
        assert_eq!(sal_versions, vec![Vid::object(oid("bob"))]);
        ob.check_invariants();
    }

    #[test]
    fn removing_the_last_fact_keeps_the_version() {
        let mut ob = ObjectBase::new();
        let v = Vid::object(oid("x"));
        ob.insert(v, sym("p"), Args::empty(), int(1));
        assert!(ob.remove(v, sym("p"), &Args::empty(), int(1)));
        // Deleting facts never deletes `exists` (§3): the version stays,
        // and enumerates as its one canonical `exists` fact.
        assert!(ob.version(v).unwrap().is_empty());
        assert!(ob.exists_fact(v));
        assert!(!ob.remove(v, exists_sym(), &Args::empty(), oid("x")), "`exists` is not removable");
        assert_eq!(ob.to_string(), "x.exists -> x .\n");
        assert_eq!(ob.len(), 1);
        ob.check_invariants();
        assert!(ob.remove_version(v).is_some());
        assert!(ob.is_empty());
        ob.check_invariants();
    }

    #[test]
    fn versions_with_chain_index() {
        let mut ob = mk();
        let mod_phil = Vid::object(oid("phil")).apply(UpdateKind::Mod).unwrap();
        ob.insert(mod_phil, sym("sal"), Args::empty(), int(4600));
        let mod_chain = mod_phil.chain();
        let found: Vec<Vid> = ob.versions_with(mod_chain, sym("sal")).collect();
        assert_eq!(found, vec![mod_phil]);
        // The initial versions are still found under the empty chain.
        assert_eq!(ob.versions_with(Chain::EMPTY, sym("sal")).count(), 2);
        ob.check_invariants();
    }

    #[test]
    fn v_star_reads_the_version_table() {
        let mut ob = mk();
        let phil = Vid::object(oid("phil"));
        assert!(ob.exists_fact(phil));
        let mod_phil = phil.apply(UpdateKind::Mod).unwrap();
        // mod(phil) does not exist yet: v* falls back to phil.
        assert_eq!(ob.v_star(mod_phil), Some(phil));
        // After creating it, v* is mod(phil) itself.
        ob.insert(mod_phil, exists_sym(), Args::empty(), oid("phil"));
        assert_eq!(ob.v_star(mod_phil), Some(mod_phil));
        // A brand-new object has no v*.
        assert_eq!(ob.v_star(Vid::object(oid("nobody"))), None);
    }

    #[test]
    fn replace_version_overwrites() {
        let mut ob = mk();
        let phil = Vid::object(oid("phil"));
        let mut st = VersionState::new();
        st.insert(sym("sal"), MethodApp::new(Args::empty(), int(1)));
        ob.replace_version(phil, st);
        assert_eq!(ob.lookup1(oid("phil"), "sal"), vec![int(1)]);
        assert_eq!(ob.lookup1(oid("phil"), "isa"), vec![]);
        ob.check_invariants();
        // An empty state keeps the version present.
        ob.replace_version(phil, VersionState::new());
        assert!(ob.version(phil).unwrap().is_empty());
        assert_eq!(ob.lookup1(oid("phil"), "exists"), vec![oid("phil")]);
        ob.check_invariants();
    }

    #[test]
    fn display_parses_back() {
        let mut ob = mk();
        ob.insert(
            Vid::object(oid("phil")).apply(UpdateKind::Mod).unwrap(),
            sym("sal"),
            Args::empty(),
            int(4600),
        );
        ob.replace_version(
            Vid::object(oid("bob")).apply(UpdateKind::Del).unwrap(),
            VersionState::new(),
        );
        let text = ob.to_string();
        let back = ObjectBase::parse(&text).unwrap();
        assert_eq!(ob, back, "text was:\n{text}");
    }

    #[test]
    fn stats_reflect_store() {
        let mut ob = mk();
        ob.insert(
            Vid::object(oid("phil")).apply(UpdateKind::Mod).unwrap(),
            sym("sal"),
            Args::empty(),
            int(4600),
        );
        let st = ob.stats();
        assert_eq!(st.objects, 2);
        assert_eq!(st.versions, 3);
        assert_eq!(st.facts, 7);
        assert_eq!(st.max_version_depth, 1);
        assert_eq!(st.distinct_methods, 4); // isa, pos, sal, boss
    }

    #[test]
    fn keyed_index_finds_versions_by_result() {
        let mut ob = mk();
        let empls: Vec<Vid> =
            ob.versions_with_result(Chain::EMPTY, sym("isa"), oid("empl")).collect();
        assert_eq!(empls.len(), 2);
        let mgrs: Vec<Vid> =
            ob.versions_with_result(Chain::EMPTY, sym("pos"), oid("mgr")).collect();
        assert_eq!(mgrs, vec![Vid::object(oid("phil"))]);
        assert_eq!(ob.versions_with_result(Chain::EMPTY, sym("pos"), oid("ceo")).count(), 0);
        // Removing the fact removes the entry; re-adding restores it.
        ob.remove(Vid::object(oid("phil")), sym("pos"), &Args::empty(), oid("mgr"));
        assert_eq!(ob.versions_with_result(Chain::EMPTY, sym("pos"), oid("mgr")).count(), 0);
        ob.insert(Vid::object(oid("bob")), sym("pos"), Args::empty(), oid("mgr"));
        assert_eq!(
            ob.versions_with_result(Chain::EMPTY, sym("pos"), oid("mgr")).collect::<Vec<_>>(),
            vec![Vid::object(oid("bob"))]
        );
        ob.check_invariants();
    }

    #[test]
    fn keyed_index_finds_versions_by_first_arg() {
        let mut ob = ObjectBase::new();
        let g = Vid::object(oid("g"));
        ob.insert(g, sym("edge"), Args::new(vec![oid("a"), oid("b")]), int(1));
        ob.insert(g, sym("edge"), Args::new(vec![oid("a"), oid("c")]), int(2));
        ob.insert(Vid::object(oid("h")), sym("edge"), Args::new(vec![oid("b")]), int(3));
        let from_a: Vec<Vid> = ob.versions_with_arg0(Chain::EMPTY, sym("edge"), oid("a")).collect();
        assert_eq!(from_a, vec![g]);
        // Multiplicity: removing one of g's two `a`-keyed facts keeps g.
        ob.remove(g, sym("edge"), &Args::new(vec![oid("a"), oid("b")]), int(1));
        assert_eq!(ob.versions_with_arg0(Chain::EMPTY, sym("edge"), oid("a")).count(), 1);
        ob.remove(g, sym("edge"), &Args::new(vec![oid("a"), oid("c")]), int(2));
        assert_eq!(ob.versions_with_arg0(Chain::EMPTY, sym("edge"), oid("a")).count(), 0);
        ob.check_invariants();
    }

    #[test]
    fn key_counts_equal_keyed_enumerations() {
        let mut ob = mk();
        let g = Vid::object(oid("g"));
        ob.insert(g, sym("edge"), Args::new(vec![oid("a"), oid("b")]), int(1));
        ob.insert(g, sym("edge"), Args::new(vec![oid("a"), oid("c")]), int(1));
        let del_bob = Vid::object(oid("bob")).apply(UpdateKind::Del).unwrap();
        ob.replace_version(del_bob, VersionState::new());
        // Derived versions holding facts: the key indexes do not cover
        // them, so their reads filter the relation.
        let (mod_phil, mod_g) =
            (Vid::object(oid("phil")).apply(UpdateKind::Mod).unwrap(), g.apply(UpdateKind::Mod));
        let mod_g = mod_g.unwrap();
        let mod_chain = mod_phil.chain();
        ob.insert(mod_phil, sym("isa"), Args::empty(), oid("empl"));
        ob.insert(mod_phil, sym("sal"), Args::empty(), int(4400));
        ob.insert(mod_g, sym("edge"), Args::new(vec![oid("a"), oid("b")]), int(1));
        ob.insert(mod_g, sym("edge"), Args::new(vec![oid("a"), oid("c")]), int(1));
        ob.insert(mod_g, sym("edge"), Args::new(vec![oid("b")]), int(2));
        let (isa, edge, exists) = (sym("isa"), sym("edge"), exists_sym());
        for (chain, method, key) in [
            (Chain::EMPTY, isa, oid("empl")),
            (Chain::EMPTY, sym("pos"), oid("mgr")),
            (Chain::EMPTY, edge, int(1)),
            (mod_chain, isa, oid("empl")),
            (mod_chain, sym("sal"), int(4400)),
            (mod_chain, edge, int(1)),
            (mod_chain, edge, int(2)),
            // Absent keys, methods and chains count 0.
            (Chain::EMPTY, isa, oid("ceo")),
            (Chain::EMPTY, sym("nope"), oid("empl")),
            (del_bob.chain(), isa, oid("empl")),
            (mod_chain, sym("sal"), int(4000)),
            (mod_chain, sym("nope"), oid("empl")),
            // `exists` is the version table: 0 or 1.
            (Chain::EMPTY, exists, oid("phil")),
            (Chain::EMPTY, exists, oid("nobody")),
            (del_bob.chain(), exists, oid("bob")),
            (del_bob.chain(), exists, oid("phil")),
            (mod_chain, exists, oid("g")),
            (mod_chain, exists, oid("bob")),
        ] {
            let listed = ob.versions_with_result(chain, method, key).count();
            assert_eq!(ob.count_with_result(chain, method, key), listed, "{chain} {method} {key}");
            let listed = ob.versions_with_arg0(chain, method, key).count();
            assert_eq!(ob.count_with_arg0(chain, method, key), listed, "{chain} {method} @ {key}");
        }
        let keyed = |chain, method, key| -> Vec<Vid> {
            ob.versions_with_result(chain, method, key).collect()
        };
        assert_eq!(keyed(mod_chain, isa, oid("empl")), vec![mod_phil]);
        assert_eq!(keyed(mod_chain, edge, int(1)), vec![mod_g]);
        assert_eq!(keyed(mod_chain, edge, int(2)), vec![mod_g]);
        assert_eq!(keyed(mod_chain, exists, oid("g")), vec![mod_g]);
        assert_eq!(ob.versions_with_arg0(mod_chain, edge, oid("a")).collect::<Vec<_>>(), [mod_g]);
        assert_eq!(ob.count_with_arg0(mod_chain, edge, oid("b")), 1);
        assert_eq!(ob.count_with_arg0(mod_chain, edge, oid("c")), 0);
        ob.check_invariants();
        assert_eq!(ob.count_with_result(Chain::EMPTY, isa, oid("empl")), 2);
        assert_eq!(ob.count_with_result(Chain::EMPTY, exists, oid("phil")), 1);
        assert_eq!(ob.count_with_result(del_bob.chain(), exists, oid("bob")), 1);
        assert_eq!(ob.count_with_result(Chain::EMPTY, exists, oid("nobody")), 0);
        // Two facts of g share the key: one version, counted once.
        assert_eq!(ob.count_with_result(Chain::EMPTY, edge, int(1)), 1);
        assert_eq!(ob.count_with_arg0(Chain::EMPTY, edge, oid("a")), 1);
        assert_eq!(ob.count_with_arg0(Chain::EMPTY, edge, oid("b")), 0);
        assert_eq!(ob.count_with_arg0(Chain::EMPTY, sym("sal"), oid("a")), 0);
    }

    #[test]
    fn keyed_index_survives_replace_version() {
        let mut ob = mk();
        let phil = Vid::object(oid("phil"));
        let mut st = VersionState::new();
        st.insert(sym("pos"), MethodApp::new(Args::empty(), oid("ceo")));
        ob.replace_version(phil, st);
        assert_eq!(ob.versions_with_result(Chain::EMPTY, sym("pos"), oid("mgr")).count(), 0);
        assert_eq!(
            ob.versions_with_result(Chain::EMPTY, sym("pos"), oid("ceo")).collect::<Vec<_>>(),
            vec![phil]
        );
        assert_eq!(ob.versions_with_result(Chain::EMPTY, sym("isa"), oid("empl")).count(), 1);
        ob.check_invariants();
    }

    #[test]
    fn tracked_replace_records_exact_method_diff() {
        let mut ob = mk();
        let phil = Vid::object(oid("phil"));
        let mut changed = ChangedSince::new();

        // Same state back: no delta recorded.
        let same = ob.version(phil).unwrap().clone();
        ob.replace_versions_tracked_shared(&[(phil, Some(Arc::new(same)))], Some(&mut changed));
        assert!(changed.is_empty(), "idempotent commit must record nothing");

        // Change sal, drop pos, keep isa.
        let mut st = ob.version(phil).unwrap().clone();
        st.remove(sym("pos"), &MethodApp::new(Args::empty(), oid("mgr")));
        st.remove(sym("sal"), &MethodApp::new(Args::empty(), int(4000)));
        st.insert(sym("sal"), MethodApp::new(Args::empty(), int(4600)));
        ob.replace_versions_tracked_shared(&[(phil, Some(Arc::new(st)))], Some(&mut changed));
        assert!(changed.contains(&(Chain::EMPTY, sym("sal"))));
        assert!(changed.contains(&(Chain::EMPTY, sym("pos"))));
        assert!(!changed.contains(&(Chain::EMPTY, sym("isa"))));
        assert!(changed.relation(&(Chain::EMPTY, sym("sal"))).unwrap().contains(oid("phil")));

        // A brand-new version records all of its methods.
        let mut changed = ChangedSince::new();
        let mod_phil = phil.apply(ruvo_term::UpdateKind::Mod).unwrap();
        let mut st = VersionState::new();
        st.insert(sym("sal"), MethodApp::new(Args::empty(), int(5000)));
        ob.replace_versions_tracked_shared(&[(mod_phil, Some(Arc::new(st)))], Some(&mut changed));
        assert!(changed.contains(&(mod_phil.chain(), sym("sal"))));
        assert!(changed.contains(&(mod_phil.chain(), exists_sym())), "the version appeared");
        ob.check_invariants();
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = ObjectBase::parse("x.p -> 1. x.q -> 2.").unwrap();
        let b = ObjectBase::parse("x.q -> 2. x.p -> 1.").unwrap();
        assert_eq!(a, b);
    }

    // Armed even in `--release` test runs: `invariant_assert!` checks
    // `cfg!(test)` as well as `cfg!(debug_assertions)`.
    #[test]
    #[should_panic(expected = "KeyIndex multiplicity underflow")]
    fn key_index_remove_of_absent_entry_is_flagged() {
        let mut idx = KeyIndex::default();
        idx.add(sym("p"), int(1), oid("x"));
        // Removing under a key that was never added is an
        // index-consistency bug, not a silent no-op.
        idx.remove(sym("p"), int(2), oid("x"));
    }

    #[test]
    #[should_panic(expected = "KeyIndex multiplicity underflow")]
    fn key_index_double_remove_is_flagged() {
        let mut idx = KeyIndex::default();
        idx.add(sym("p"), int(1), oid("x"));
        idx.remove(sym("p"), int(1), oid("x"));
        idx.remove(sym("p"), int(1), oid("x"));
    }

    #[test]
    fn clone_is_fully_shared_until_written() {
        let original = mk();
        let mut copy = original.clone();
        assert!(copy.cow_stats(&original).fully_shared());
        assert_eq!(copy.cow_stats(&original).total(), 4 * SHARD_COUNT);
        // A no-op mutation (duplicate insert, miss remove) must not
        // unshare anything.
        copy.insert(Vid::object(oid("phil")), sym("sal"), Args::empty(), int(4000));
        assert!(!copy.remove(Vid::object(oid("phil")), sym("sal"), &Args::empty(), int(9)));
        assert!(copy.cow_stats(&original).fully_shared());
        // A real write dirties at most one shard per index, plus the
        // `(chain, exists)` entry of a new version.
        copy.insert(Vid::object(oid("newbie")), sym("sal"), Args::empty(), int(1));
        let stats = copy.cow_stats(&original);
        assert!(!stats.fully_shared());
        assert!(stats.unshared_shards() <= 4, "dirtied {} shards", stats.unshared_shards());
        copy.check_invariants();
        original.check_invariants();
        assert_eq!(original, mk(), "original must be untouched");
    }

    /// Leaves each map of `a` no longer shares with `b`: the version
    /// table, `by_chain_method`, `by_result`, `by_arg0`.
    fn leaves_unshared(a: &ObjectBase, b: &ObjectBase) -> [usize; 4] {
        [
            a.versions.leaves_unshared_with(&b.versions),
            a.by_chain_method.leaves_unshared_with(&b.by_chain_method),
            a.by_result.map.leaves_unshared_with(&b.by_result.map),
            a.by_arg0.map.leaves_unshared_with(&b.by_arg0.map),
        ]
    }

    /// The key indexes cover initial versions only: committing a new
    /// derived version and repairing an active one in place — what a
    /// run's rounds write — unshare no key-index leaf of a fresh clone,
    /// while a fact on an initial version still unshares one of each.
    #[test]
    fn derived_versions_unshare_no_key_index_leaf() {
        let n = if cfg!(miri) { 200 } else { 4000 };
        let mut base = ObjectBase::new();
        let o = |i: i64| Vid::object(oid(&format!("o{i}")));
        let e = |i: i64| Args::new(vec![int(i)]);
        for i in 0..n {
            base.insert(o(i), sym("p"), e(i), int(i));
        }
        let ins7 = o(7).apply(UpdateKind::Ins).unwrap();
        base.insert(ins7, sym("p"), e(1), int(1));
        // A tracked commit of a new derived version.
        let mut ob = base.clone();
        let mut changed = ChangedSince::new();
        let mut state = (**ob.version_shared(o(9)).unwrap()).clone();
        state.insert(sym("p"), MethodApp::new(e(n), int(n)));
        let mod9 = o(9).apply(UpdateKind::Mod).unwrap();
        ob.replace_versions_tracked_shared(&[(mod9, Some(Arc::new(state)))], Some(&mut changed));
        assert_eq!(leaves_unshared(&ob, &base)[2..], [0, 0]);
        // In-place repairs of an active derived version.
        let mut ob = base.clone();
        assert!(ob.insert_tracked(ins7, sym("p"), e(2), int(2), &mut changed));
        assert!(ob.remove_tracked(ins7, sym("p"), &e(1), int(1), &mut changed));
        assert_eq!(leaves_unshared(&ob, &base)[2..], [0, 0]);
        assert_eq!(
            ob.versions_with_result(ins7.chain(), sym("p"), int(2)).collect::<Vec<_>>(),
            [ins7]
        );
        assert_eq!(ob.count_with_arg0(ins7.chain(), sym("p"), int(1)), 0);
        ob.check_invariants();
        // A fact on an initial version is keyed.
        ob.insert(o(7), sym("p"), e(n + 7), int(n + 7));
        assert_eq!(leaves_unshared(&ob, &base)[2..], [1, 1]);
        ob.check_invariants();
        base.check_invariants();
    }

    /// A point query's writes on a working copy — one fact on an
    /// existing object, one new `ins(o)` version — copy one leaf
    /// (≈ 1/256) of each map they write, not a shard.
    #[test]
    fn one_fact_and_one_new_version_unshare_one_leaf_per_map_across_shards() {
        let n = if cfg!(miri) { 200 } else { 4000 };
        let mut base = ObjectBase::new();
        for i in 0..n {
            base.insert(Vid::object(oid(&format!("o{i}"))), sym("p"), Args::empty(), int(i));
        }
        let mut ob = base.clone();
        ob.insert(Vid::object(oid("o7")), sym("p"), Args::empty(), int(n + 7));
        assert_eq!(leaves_unshared(&ob, &base), [1, 0, 1, 0]);
        let after_fact = ob.clone();
        let ins = Vid::object(oid("o9")).apply(UpdateKind::Ins).unwrap();
        ob.insert(ins, exists_sym(), Args::empty(), oid("o9"));
        assert_eq!(leaves_unshared(&ob, &after_fact), [1, 1, 0, 0]);
        // Each write also copied one shard node per map it wrote.
        let version_shards = 1 + usize::from(vid_shard(Vid::object(oid("o7"))) != vid_shard(ins));
        assert_eq!(ob.cow_stats(&base).unshared_shards(), version_shards + 2);
        ob.check_invariants();
        base.check_invariants();
    }

    /// A point query's demand fact on an existing object and that
    /// object's new `ins(o)` version land in one version-table leaf:
    /// the one the first write already copied.
    #[test]
    fn object_entry_takes_a_fact_and_a_new_version_of_one_object_in_one_leaf() {
        let n = if cfg!(miri) { 200 } else { 4000 };
        let mut base = ObjectBase::new();
        for i in 0..n {
            base.insert(Vid::object(oid(&format!("o{i}"))), sym("p"), Args::empty(), int(i));
        }
        let mut ob = base.clone();
        let o7 = Vid::object(oid("o7"));
        ob.insert(o7, sym("p"), Args::empty(), int(n + 7));
        let ins = o7.apply(UpdateKind::Ins).unwrap();
        ob.insert(ins, exists_sym(), Args::empty(), oid("o7"));
        assert_eq!(ob.versions.leaves_unshared_with(&base.versions), 1);
        // One shard node each of the version table, `(ins, exists)` and
        // `(p, result)`.
        assert_eq!(ob.cow_stats(&base).unshared_shards(), 3);
        assert_eq!(ob.versions_of(oid("o7")).collect::<Vec<_>>(), vec![o7, ins]);
        ob.check_invariants();
    }

    fn entry<'a>(ob: &'a ObjectBase, base: &str) -> Option<&'a Versions> {
        ob.versions.get(&oid(base))
    }

    fn entry_len(ob: &ObjectBase, base: &str) -> (bool, usize) {
        let e = entry(ob, base).unwrap();
        (matches!(e, Versions::One(_)), e.pairs().len())
    }

    /// An object's entry spills from inline into a vector at its second
    /// version and folds back inline when removals leave one, whichever
    /// way the versions go: `remove_version`, the tracked commit, or
    /// `remove_empty_versions`.
    #[test]
    fn object_entry_goes_from_inline_to_a_vector_and_back() {
        let mut ob = mk();
        let phil = Vid::object(oid("phil"));
        let ins = phil.apply(UpdateKind::Ins).unwrap();
        let mod_ins = ins.apply(UpdateKind::Mod).unwrap();
        assert_eq!(entry_len(&ob, "phil"), (true, 1));
        ob.insert(ins, sym("sal"), Args::empty(), int(1));
        assert_eq!(entry_len(&ob, "phil"), (false, 2));
        ob.replace_version(mod_ins, VersionState::new());
        assert_eq!(entry_len(&ob, "phil"), (false, 3));
        assert_eq!(ob.versions_of(oid("phil")).collect::<Vec<_>>(), vec![phil, ins, mod_ins]);
        assert_eq!(ob.v_star(mod_ins.apply(UpdateKind::Del).unwrap()), Some(mod_ins));
        ob.check_invariants();
        ob.replace_versions_tracked_shared(&[(ins, None)], None);
        assert_eq!(entry_len(&ob, "phil"), (false, 2));
        assert_eq!(ob.v_star(mod_ins), Some(mod_ins));
        assert_eq!(ob.v_star(ins), Some(phil), "ins(phil) is gone: v* falls back");
        // Back to one version: inline again, and the survivor need not
        // be the initial version.
        assert!(ob.remove_version(phil).is_some());
        assert_eq!(entry_len(&ob, "phil"), (true, 1));
        assert_eq!(ob.v_star(mod_ins), Some(mod_ins));
        assert_eq!(ob.v_star(phil), None);
        ob.check_invariants();
        // The last version takes the entry with it.
        ob.remove_empty_versions();
        assert!(entry(&ob, "phil").is_none());
        assert_eq!((ob.object_count(), ob.versions_of(oid("phil")).count()), (1, 0));
        ob.check_invariants();
    }

    /// Chains stay sorted whatever the insertion order, entries built
    /// in different orders compare equal, and the states' `Arc`s are
    /// moved between the two forms, never leaked or duplicated.
    #[test]
    fn object_entry_keeps_chains_sorted_across_insertion_orders() {
        use UpdateKind::{Del, Ins, Mod};
        let chains: Vec<Chain> = [&[][..], &[Ins], &[Ins, Mod], &[Mod], &[Del], &[Mod, Del]]
            .iter()
            .map(|kinds| Chain::from_kinds(kinds).unwrap())
            .collect();
        let state = Arc::new(VersionState::new());
        let build = |order: &[usize]| {
            let mut e = Versions::default();
            for &i in order {
                e.insert(chains[i], Arc::clone(&state));
            }
            e
        };
        let a = build(&[0, 1, 2, 3, 4, 5]);
        let mut b = build(&[5, 2, 4, 0, 3, 1]);
        assert!(a == b);
        assert!(a.pairs().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(Arc::strong_count(&state), 1 + 2 * chains.len());
        // Re-inserting a chain replaces its state in place.
        b.insert(chains[3], Arc::new(VersionState::new()));
        assert!(a == b, "content-equal states compare equal");
        assert_eq!(Arc::strong_count(&state), 2 * chains.len());
        for i in [2, 0, 5, 4, 3] {
            assert!(b.remove(chains[i]).is_some());
        }
        assert!(matches!(&b, Versions::One((c, _)) if *c == chains[1]));
        assert!(b.remove(chains[1]).is_some() && b.pairs().is_empty());
        assert!(b.remove(chains[1]).is_none());
        drop(a);
        assert_eq!(Arc::strong_count(&state), 1);
        // The same through the store: two bases, two orders, one base.
        let vids = |order: &[usize]| {
            let mut ob = mk();
            for &i in order {
                ob.insert(
                    Vid::new(oid("bob"), chains[i]),
                    sym("sal"),
                    Args::empty(),
                    int(i as i64),
                );
            }
            ob.check_invariants();
            ob
        };
        let (x, y) = (vids(&[1, 2, 3, 4, 5]), vids(&[5, 3, 1, 4, 2]));
        assert_eq!(x, y);
        let listed: Vec<Chain> = x.versions_of(oid("bob")).map(Vid::chain).collect();
        let mut sorted = chains.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
    }

    #[test]
    #[should_panic(expected = "held in a vector")]
    fn object_entry_with_one_pair_in_a_vector_fails_the_invariants() {
        let mut ob = mk();
        let entry = ob.versions.get_mut(&oid("phil")).unwrap();
        let Versions::One(pair) = std::mem::take(entry) else { panic!("phil has one version") };
        *entry = Versions::Many(vec![pair]);
        ob.check_invariants();
    }

    #[test]
    #[should_panic(expected = "empty version-table entry")]
    fn object_entry_that_is_empty_fails_the_invariants() {
        let mut ob = mk();
        ob.versions.get_or_default(oid("ghost"));
        ob.check_invariants();
    }

    #[test]
    fn tracked_shared_recommit_short_circuits_on_pointer_identity() {
        let mut ob = mk();
        let phil = Vid::object(oid("phil"));
        let shared = Arc::clone(ob.version_shared(phil).unwrap());
        let mut changed = ChangedSince::new();
        let snapshot = ob.clone();
        ob.replace_versions_tracked_shared(&[(phil, Some(shared))], Some(&mut changed));
        assert!(changed.is_empty(), "pointer-identical recommit must record nothing");
        assert!(ob.cow_stats(&snapshot).fully_shared(), "recommit must not reindex");
        ob.check_invariants();
    }

    #[test]
    fn noop_commits_dirty_zero_version_shards() {
        let (mut ob, _) = shard_commit_fixture();
        let before = ob.clone();
        let vids: Vec<Vid> = ob.versions().collect();
        // Pointer-equal and content-equal recommits of every version,
        // serial and batched: no shard may differ afterwards.
        for &vid in &vids {
            let shared = Arc::clone(ob.version_shared(vid).unwrap());
            let mut ch = ChangedSince::new();
            ob.replace_versions_tracked_shared(&[(vid, Some(shared))], Some(&mut ch));
            let fresh = Arc::new((**ob.version_shared(vid).unwrap()).clone());
            ob.replace_versions_tracked_shared(&[(vid, Some(fresh))], Some(&mut ch));
            assert!(ch.is_empty());
        }
        let edits: Edits = vids
            .iter()
            .map(|&v| (v, Some(Arc::new((**ob.version_shared(v).unwrap()).clone()))))
            .collect();
        let mut ch = ChangedSince::new();
        ob.replace_versions_tracked_shared(&edits, Some(&mut ch));
        assert!(ch.is_empty());
        assert_eq!(
            ob.version_shards_differing(&before),
            [false; SHARD_COUNT],
            "no-op commits must dirty zero shards"
        );
        assert!(ob.cow_stats(&before).fully_shared(), "no-op commits must not unshare");
        ob.check_invariants();
    }

    #[test]
    fn rebuilt_base_differs_in_no_shard() {
        let (ob, _) = shard_commit_fixture();
        let rebuilt = ObjectBase::from_facts(ob.facts_sorted());
        assert_eq!(rebuilt.cow_stats(&ob).shared_shards, 0, "a rebuild shares no allocation");
        assert_eq!(rebuilt.version_shards_differing(&ob), [false; SHARD_COUNT]);
    }

    #[test]
    fn one_insert_differs_in_exactly_its_shard() {
        let before = mk();
        let mut ob = before.clone();
        let phil = Vid::object(oid("phil"));
        ob.insert(phil, sym("note"), Args::empty(), int(1));
        let differing = ob.version_shards_differing(&before);
        assert!((0..SHARD_COUNT).all(|i| differing[i] == (i == vid_shard(phil))));
        // Undoing the write makes the shard equal again.
        assert!(ob.remove(phil, sym("note"), &Args::empty(), int(1)));
        assert_eq!(ob.version_shards_differing(&before), [false; SHARD_COUNT]);
    }

    #[test]
    fn shard_facts_partition_the_base() {
        let (ob, _) = shard_commit_fixture();
        let mut all: Vec<Fact> = Vec::new();
        for i in 0..SHARD_COUNT {
            for f in ob.shard_facts_sorted(i) {
                assert_eq!(vid_shard(f.vid), i, "fact reported under wrong shard");
                all.push(f);
            }
        }
        all.sort_by(super::fact_cmp);
        assert_eq!(all, ob.facts_sorted());
    }

    #[test]
    fn from_facts_matches_serial_inserts() {
        let (ob, _) = shard_commit_fixture();
        let facts = ob.facts_sorted();
        let rebuilt = ObjectBase::from_facts(facts.clone());
        assert_eq!(rebuilt, ob);
        assert_eq!(rebuilt.len(), ob.len());
        rebuilt.check_invariants();
        // Duplicate facts collapse exactly like ObjectBase::insert.
        let mut doubled = facts.clone();
        doubled.extend(facts);
        let rebuilt = ObjectBase::from_facts(doubled);
        assert_eq!(rebuilt, ob);
        assert_eq!(rebuilt.len(), ob.len());
    }

    #[test]
    fn tracked_commit_adopts_foreign_state() {
        let mut ob = mk();
        let phil = Vid::object(oid("phil"));
        let bob = Vid::object(oid("bob"));
        // Alias bob's state under a new version of phil.
        let state = Arc::clone(ob.version_shared(bob).unwrap());
        let mod_phil = phil.apply(UpdateKind::Mod).unwrap();
        ob.replace_versions_tracked_shared(&[(mod_phil, Some(state))], None);
        assert_eq!(ob.lookup1(oid("bob"), "boss"), vec![oid("phil")]);
        assert!(ob.contains(mod_phil, sym("boss"), &[], oid("phil")));
        ob.check_invariants();
    }
}
