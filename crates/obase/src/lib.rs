//! # ruvo-obase — versioned object-base storage
//!
//! §2.1 of the paper: "A set of ground version-terms is called an
//! *object-base*." This crate stores such sets with the indexes the
//! evaluator needs:
//!
//! * a version table keyed by object: each object's versions live
//!   together in one entry, one `(chain, state)` pair inline and two or
//!   more in a vector sorted by chain — the table behind §3's `v*` and
//!   §5's final-version extraction. A per-version state (`{method →
//!   {(args, result)}}`) — "The state of a version w.r.t. a certain
//!   object-base is given by the set of all ground method-applications,
//!   which can be derived from its version-terms" — is one vector sorted
//!   by method, a single application inline ([`VersionState`]),
//! * a `(chain, method) → bases` index, so a rule literal like
//!   `mod(E).sal -> S` enumerates exactly the `mod(·)`-versions that
//!   define `sal`,
//! * a value-keyed method index (`(chain, method, result/first-arg) →
//!   bases`), so a literal with a bound key like `E.isa -> empl`
//!   enumerates only the matching versions
//!   ([`ObjectBase::versions_with_result`] /
//!   [`ObjectBase::versions_with_arg0`]),
//! * incremental delta sets ([`ChangedSince`]) recorded by the tracked
//!   commit ([`ObjectBase::replace_versions_tracked_shared`]) and the
//!   tracked in-place edits ([`ObjectBase::insert_tracked`] /
//!   [`ObjectBase::remove_tracked`]), feeding the engine's semi-naive
//!   evaluation,
//! * copy-on-write structural sharing throughout: every index is
//!   split into [`SHARD_COUNT`] `Arc`-wrapped shards of 16 lazily
//!   allocated `Arc`-wrapped leaves, and every per-version state is
//!   `Arc`-shared, so cloning an [`ObjectBase`] is O(shards) and a
//!   write copies one shard node and one leaf (≈ 1/256) of each map it
//!   writes (see [`mod@shard`] and [`ObjectBase::cow_stats`]),
//! * the `exists` system method bookkeeping and the `v*` operator of §3,
//! * the §5 *version-linearity* tracker ([`LinearityTracker`]).
//!
//! Methods are set-valued by construction (§2.1: "Whenever an
//! object-base contains several method-applications for a certain
//! object(-version) … we consider the method to be set-valued"), so
//! inserting a second result for the same method and arguments simply
//! grows the set; functional-dependency enforcement is deliberately out
//! of scope, as in the paper.

pub mod args;
mod bag;
pub mod base;
pub mod codec;
pub mod delta;
pub mod linearity;
pub mod shard;
pub mod snapshot;
pub mod state;
pub mod stats;

pub use args::Args;
pub use base::{vid_shard, Fact, ObjectBase};
pub use bytes::Bytes;
pub use codec::DecodeError;
pub use delta::{ChangedSince, RelationDelta};
pub use linearity::{check_all_linear, LinearityTracker, LinearityViolation};
pub use shard::SHARD_COUNT;
pub use snapshot::{Snapshot, SnapshotError, SnapshotFileError};
pub use state::{MethodApp, VersionState};
pub use stats::{CowStats, ObStats};

/// The name of the paper's system method: `o.exists -> o`.
pub const EXISTS_METHOD: &str = "exists";

/// Assert an internal index invariant.
///
/// Like `debug_assert!`, but also armed when the enclosing crate is
/// compiled for its test harness (`cfg(test)`), so `cargo test
/// --release` still catches index-consistency bugs the optimizer
/// would otherwise let slide silently. In ordinary release builds the
/// whole expansion is a constant-false branch and the condition is
/// never evaluated.
#[macro_export]
macro_rules! invariant_assert {
    ($($arg:tt)*) => {
        if cfg!(debug_assertions) || cfg!(test) {
            assert!($($arg)*);
        }
    };
}

// The serving layer (ruvo-core's `ServingDatabase`) shares these
// types across threads behind `Arc`s; losing `Send + Sync` — say by
// introducing an `Rc` or `Cell` into a shard — would silently make
// the whole concurrent read path impossible, so the bound is pinned
// here at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ObjectBase>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<VersionState>();
    assert_send_sync::<Fact>();
    assert_send_sync::<ChangedSince>();
};

/// The interned `exists` symbol (cached — this is called in the
/// store's per-fact hot paths).
pub fn exists_sym() -> ruvo_term::Symbol {
    static CACHE: std::sync::OnceLock<ruvo_term::Symbol> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| ruvo_term::sym(EXISTS_METHOD))
}
