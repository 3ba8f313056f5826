//! The live book: incremental per-shard state between queries.
//!
//! A [`LiveBook`] is the event-driven counterpart of the flat engine's
//! batch pass. Offers carry stable logical ids (a monotone counter, never
//! reused); adds route to the shard a stable hash of the id names
//! ([`stable_shard`]), and the *logical portfolio* at any instant is the
//! live offers in id order — exactly the portfolio a from-scratch build
//! would hold, which is what every query answer is pinned against.
//!
//! # Cache architecture
//!
//! The cache is per offer, lives in this module alone, and never leaves
//! the process: an export, a snapshot or a worker's reply carries offers
//! only, and whoever imports them re-evaluates what it cannot prove
//! unchanged. Four pieces of incremental state, each invalidated as
//! narrowly as the mutation allows:
//!
//! * **Measure-major shard columns** — `columns[j][local]` holds measure
//!   `j` on the shard's offer at `local`, the layout
//!   [`ColumnarBatch::columns`] returns. An add or update marks one slot
//!   stale; a remove swap-removes the slot in every column. A refresh
//!   evaluates only the stale offers, through the engine's kernel
//!   selection ([`Engine::per_offer_columns_in`]), and writes them into
//!   their slots. The measure query folds straight off the columns in id
//!   order with the engine's own [`reduce_measure_values`], so no row is
//!   materialised. [`LiveBook::offers_evaluated`] counts the
//!   offers evaluated; [`LiveBook::evaluations`] counts refresh passes per
//!   shard.
//! * **Per-shard baseline partials** — the no-flexibility load summed per
//!   shard, computed only when a trade query asks and dropped by any
//!   mutation of the shard. Integer series addition is exact, so folding
//!   partials equals the flat [`Engine::baseline_load_parallel`] bit for
//!   bit.
//! * **Group-key state** — a sorted [`KeyIndex`] maintained per event
//!   (no per-query sort), the cached grouping as member-id lists, and
//!   per-shard **key digests** (a commutative multiset hash of the shard's
//!   `(tes, tf)` keys, maintained in O(1) per mutation). An update that
//!   keeps its offer's grouping key leaves every digest unchanged and
//!   keeps the grouping warm (the in-process check compares the old and
//!   new key directly; the digests are the same fact summarized per shard
//!   and exposed for observability). Only key-changing mutations force
//!   the (linear, sort-free) re-sweep.
//! * **Group aggregates** — one start-alignment aggregate per group,
//!   built from borrowed offers and kept across queries. An aggregating
//!   query re-aggregates only the groups whose member-id list changed or
//!   that hold an offer mutated since the last aggregating query.
//!
//! Queries recombine this state through the engine's own public reduction
//! and report-assembly functions, which is what makes every answer
//! byte-identical to a batch rebuild ([`crate::batch::answer`]).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

use flexoffers_aggregation::{aggregate_refs, Aggregate, KeyIndex};
use flexoffers_engine::scenario::ScenarioError;
use flexoffers_engine::{
    parallel_map, reduce_measure_values, splitmix64, stable_shard, Engine, EngineError,
    PortfolioReport, ScenarioKind,
};
use flexoffers_market::baseline_load;
use flexoffers_measures::{all_measures, ColumnarBatch, MeasureError};
use flexoffers_model::{Assignment, FlexOffer, Portfolio};
use flexoffers_scheduling::{earliest_start_assignment, Schedule};
use flexoffers_timeseries::ops::sum_series;
use flexoffers_timeseries::Series;
use flexoffers_workloads::OfferEvent;

use crate::config::ServeConfig;
use crate::event::{Event, QueryKind};
use crate::report::{aggregate_report, answer_line, error_line};

/// One measure's per-offer values over a shard, in local slot order.
type Column = Vec<Result<f64, MeasureError>>;

/// What a slot holds until its first evaluation. Never read: a stale slot
/// is re-evaluated before any query folds it.
const UNEVALUATED: Result<f64, MeasureError> = Ok(f64::NAN);

/// Errors applying a mutation to a live book.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LiveError {
    /// An update or remove referenced an id that is not live (never added,
    /// or already removed — ids are not reused).
    UnknownId {
        /// The dead id.
        id: u64,
    },
    /// An [`add_at`](LiveBook::add_at) named an id that is already live —
    /// caller-assigned ids must be fresh.
    IdTaken {
        /// The live id.
        id: u64,
    },
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::UnknownId { id } => write!(f, "unknown offer id {id} — not live"),
            LiveError::IdTaken { id } => {
                write!(
                    f,
                    "offer id {id} is already live — caller-assigned ids must be fresh"
                )
            }
        }
    }
}

impl Error for LiveError {}

/// Why a [`BookExport`] could not be turned back into a [`LiveBook`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImportError {
    /// The export held no shards.
    ZeroShards,
    /// The same logical id appeared twice.
    DuplicateId {
        /// The repeated id.
        id: u64,
    },
    /// An id sat in a shard other than its `stable_shard` placement.
    MisplacedId {
        /// The misplaced id.
        id: u64,
    },
    /// The id counter was not strictly past every live id — replaying a
    /// journal suffix would reassign a live id.
    StaleNextId {
        /// The exported counter.
        next_id: u64,
        /// A live id it failed to clear.
        id: u64,
    },
    /// The id counter sat at `u64::MAX`: the next add would take that id
    /// and leave the counter unable to clear it, so a second add would
    /// reassign a live id.
    ExhaustedIds,
    /// A shard's stored key digest disagreed with its offers.
    DigestMismatch {
        /// The offending shard index.
        shard: usize,
    },
    /// A shard's parallel `ids`/`offers` arrays disagreed in length.
    CacheShape {
        /// The offending shard index.
        shard: usize,
    },
    /// An [`import_shard`](LiveBook::import_shard) named a shard index the
    /// book does not have.
    NoSuchShard {
        /// The out-of-range index.
        shard: usize,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::ZeroShards => f.write_str("export holds no shards"),
            ImportError::DuplicateId { id } => write!(f, "duplicate offer id {id}"),
            ImportError::MisplacedId { id } => {
                write!(f, "offer id {id} is not in its stable shard")
            }
            ImportError::StaleNextId { next_id, id } => {
                write!(f, "next id {next_id} does not clear live id {id}")
            }
            ImportError::ExhaustedIds => {
                write!(f, "next id {} leaves no fresh id to assign", u64::MAX)
            }
            ImportError::DigestMismatch { shard } => {
                write!(f, "shard {shard}: key digest disagrees with its offers")
            }
            ImportError::CacheShape { shard } => {
                write!(f, "shard {shard}: parallel arrays disagree in length")
            }
            ImportError::NoSuchShard { shard } => {
                write!(f, "shard index {shard} is out of range")
            }
        }
    }
}

impl Error for ImportError {}

/// A serializable image of one [`LiveBook`] shard: its offers, never its
/// evaluation cache.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardExport {
    /// The shard's live ids, in local (arrival/swap-remove) order.
    pub ids: Vec<u64>,
    /// The offers, aligned with `ids`.
    pub offers: Vec<FlexOffer>,
    /// The shard's commutative `(tes, tf)` key digest.
    pub key_digest: u64,
}

/// A full serializable image of a live book — what a snapshot persists
/// and [`LiveBook::from_export`] validates back into a book. Carries the
/// offers and the id counter only: the evaluation cache, counters and
/// scratch arenas are rebuilt by whoever imports it.
#[derive(Clone, Debug, PartialEq)]
pub struct BookExport {
    /// The monotone id counter (strictly past every live id).
    pub next_id: u64,
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardExport>,
}

/// Locks a scratch arena, recovering from poison: the arena holds no
/// results — only reusable buffers that every pass overwrites before
/// reading — so a worker panicking mid-fill leaves nothing worth
/// preserving and nothing that can corrupt a later refresh.
fn lock_scratch(arena: &Mutex<ColumnarBatch>) -> std::sync::MutexGuard<'_, ColumnarBatch> {
    arena
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Unwraps a scratch arena back out of its fan-out wrapper, recovering
/// from poison for the same reason as [`lock_scratch`].
fn reclaim_scratch(arena: Mutex<ColumnarBatch>) -> ColumnarBatch {
    arena
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One shard of a [`LiveBook`]: parallel id/offer/value arrays (local
/// order is arrival order with swap-remove holes — global order is
/// restored through the id ranks, never from shard order).
struct LiveShard {
    ids: Vec<u64>,
    offers: Vec<FlexOffer>,
    /// Measure-major per-offer values, `columns[j][local]`, aligned with
    /// `ids`. A slot's values are current unless `stale[local]`.
    columns: Vec<Column>,
    /// Per slot: its values predate the offer now in it.
    stale: Vec<bool>,
    /// The no-flexibility baseline partial, computed when a trade query
    /// asks and dropped by any mutation of the shard.
    baseline: Option<Series<i64>>,
    key_digest: u64,
    evaluations: usize,
    /// The shard's columnar scratch arena: refreshes and the baseline run
    /// inside it ([`Engine::per_offer_columns_in`]), and its buffers
    /// persist across refreshes.
    arena: ColumnarBatch,
}

impl LiveShard {
    /// A shard holding `ids`/`offers` with every slot stale.
    fn restored(measures: usize, ids: Vec<u64>, offers: Vec<FlexOffer>, key_digest: u64) -> Self {
        let n = ids.len();
        Self {
            ids,
            offers,
            columns: vec![vec![UNEVALUATED; n]; measures],
            stale: vec![true; n],
            baseline: None,
            key_digest,
            evaluations: 0,
            arena: ColumnarBatch::new(),
        }
    }

    fn push(&mut self, id: u64, offer: FlexOffer) {
        self.ids.push(id);
        self.offers.push(offer);
        for column in &mut self.columns {
            column.push(UNEVALUATED);
        }
        self.stale.push(true);
        self.baseline = None;
    }

    fn replace(&mut self, local: usize, offer: FlexOffer) {
        self.offers[local] = offer;
        self.stale[local] = true;
        self.baseline = None;
    }

    fn swap_remove(&mut self, local: usize) {
        self.ids.swap_remove(local);
        self.offers.swap_remove(local);
        for column in &mut self.columns {
            let _ = column.swap_remove(local);
        }
        self.stale.swap_remove(local);
        self.baseline = None;
    }

    /// The stale slots, ascending. A scan of one flag per offer, which is
    /// noise beside the fold every query makes over the same offers.
    fn stale_slots(&self) -> Vec<usize> {
        (0..self.stale.len()).filter(|&i| self.stale[i]).collect()
    }

    /// Stores freshly evaluated `values` (measure-major, aligned with
    /// `slots`) and marks those slots current.
    fn store(&mut self, slots: &[usize], values: Vec<Column>) {
        if slots.len() == self.ids.len() {
            self.columns = values;
        } else {
            for (column, fresh) in self.columns.iter_mut().zip(values) {
                for (&i, value) in slots.iter().zip(fresh) {
                    column[i] = value;
                }
            }
        }
        for &i in slots {
            self.stale[i] = false;
        }
        self.evaluations += 1;
    }
}

/// One owner-table entry: a live id and its slot, or a tombstone.
#[derive(Clone, Copy, Debug)]
struct Owner {
    id: u64,
    shard: u32,
    local: u32,
}

/// The `shard` of a tombstone.
const DEAD: u32 = u32::MAX;

impl Owner {
    fn new(id: u64, shard: usize, local: usize) -> Self {
        let narrow = |n: usize| u32::try_from(n).ok().filter(|&n| n != DEAD);
        Self {
            id,
            shard: narrow(shard).expect("fewer than 2^32 - 1 shards"),
            local: narrow(local).expect("fewer than 2^32 - 1 offers per shard"),
        }
    }

    fn slot(self) -> Option<(usize, usize)> {
        (self.shard != DEAD).then_some((self.shard as usize, self.local as usize))
    }
}

/// The owner table: every live id with its `(shard, local)` slot, in id
/// order — logical portfolio order — in one flat vector, so query folds
/// walk it linearly. Lookups are binary searches. Adds of fresh (largest)
/// ids append; removals leave tombstones, which are dropped once they
/// outnumber the live entries.
#[derive(Debug, Default)]
struct Owners {
    entries: Vec<Owner>,
    live: usize,
}

impl Owners {
    /// A table over `entries` in any order; ids must be unique.
    fn from_unsorted(mut entries: Vec<Owner>) -> Self {
        entries.sort_unstable_by_key(|owner| owner.id);
        let live = entries.len();
        Self { entries, live }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn get(&self, id: u64) -> Option<(usize, usize)> {
        let at = self.entries.binary_search_by_key(&id, |o| o.id).ok()?;
        self.entries[at].slot()
    }

    fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Records `id` at `(shard, local)`, replacing the slot it had.
    fn insert(&mut self, id: u64, shard: usize, local: usize) {
        let owner = Owner::new(id, shard, local);
        if self.entries.last().is_none_or(|last| last.id < id) {
            self.entries.push(owner);
            self.live += 1;
            return;
        }
        match self.entries.binary_search_by_key(&id, |o| o.id) {
            Ok(at) => {
                if self.entries[at].shard == DEAD {
                    self.live += 1;
                }
                self.entries[at] = owner;
            }
            Err(at) => {
                self.entries.insert(at, owner);
                self.live += 1;
            }
        }
    }

    /// Tombstones `id`, returning the slot it had.
    fn bury(&mut self, id: u64) -> Option<(usize, usize)> {
        let at = self.entries.binary_search_by_key(&id, |o| o.id).ok()?;
        let slot = self.entries[at].slot()?;
        self.entries[at].shard = DEAD;
        self.live -= 1;
        Some(slot)
    }

    /// Drops the tombstones once they outnumber the live entries.
    fn compact(&mut self) {
        if self.entries.len() > 2 * self.live + 64 {
            self.entries.retain(|o| o.shard != DEAD);
        }
    }

    /// `(id, shard, local)` of every live id, in id order.
    fn iter(&self) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        self.entries
            .iter()
            .filter_map(|o| o.slot().map(|(s, local)| (o.id, s, local)))
    }
}

/// An offer's grouping key — the 16 bytes the aggregation layer sweeps.
fn grouping_key(offer: &FlexOffer) -> (i64, i64) {
    (offer.earliest_start(), offer.time_flexibility())
}

/// A commutative multiset hash of one grouping key: shard digests are the
/// wrapping sum of member key hashes, so insert/remove/update maintain
/// them in O(1) and equal key multisets give equal digests regardless of
/// arrival order. (The engine's [`splitmix64`] twice — the exact mix
/// shard placement uses — so near-identical keys do not cancel.)
fn key_hash((tes, tf): (i64, i64)) -> u64 {
    splitmix64(splitmix64(tes as u64) ^ (tf as u64))
}

/// The event-driven book — see the module docs for the cache architecture
/// and the crate docs for the byte-identity contract.
pub struct LiveBook {
    config: ServeConfig,
    engine: Engine,
    shards: Vec<LiveShard>,
    /// Every live id's `(shard, local)` slot; iteration order is id
    /// order, i.e. logical portfolio order.
    owners: Owners,
    next_id: u64,
    /// The live `(tes, tf)` keys, kept sorted across mutations.
    keys: KeyIndex,
    /// The tolerance grouping as member-id lists, in sweep order. Current
    /// while `groups_valid`; after a key- or id-set-changing mutation it
    /// is the previous grouping, kept so its aggregates can be reused.
    groups: Vec<Vec<u64>>,
    groups_valid: bool,
    /// `aggregates[g]` aggregates `groups[g]` as of the last aggregating
    /// query; empty before the first.
    aggregates: Vec<Aggregate>,
    /// Ids added or updated since `aggregates` was built (tracked only
    /// while there are aggregates to invalidate).
    touched: Vec<u64>,
    offers_evaluated: usize,
}

impl LiveBook {
    /// An empty book over `shards` shards, answering queries under
    /// `config` with `engine`'s budget.
    pub fn new(config: ServeConfig, shards: usize, engine: Engine) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let measures = all_measures().len();
        let shards = (0..shards)
            .map(|_| LiveShard::restored(measures, Vec::new(), Vec::new(), 0))
            .collect();
        Ok(Self::assemble(
            config,
            engine,
            shards,
            Owners::default(),
            0,
            KeyIndex::new(),
        ))
    }

    fn assemble(
        config: ServeConfig,
        engine: Engine,
        shards: Vec<LiveShard>,
        owners: Owners,
        next_id: u64,
        keys: KeyIndex,
    ) -> Self {
        Self {
            config,
            engine,
            shards,
            owners,
            next_id,
            keys,
            groups: Vec::new(),
            groups_valid: false,
            aggregates: Vec::new(),
            touched: Vec::new(),
            offers_evaluated: 0,
        }
    }

    /// Number of live offers.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// `true` when no offers are live.
    pub fn is_empty(&self) -> bool {
        self.owners.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard live offer counts, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.ids.len()).collect()
    }

    /// The serving configuration queries run under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// How many refresh passes each shard has run — a shard's counter
    /// steps once per refresh that found any of its offers stale, however
    /// many. After a warm query, a single-offer update followed by another
    /// query bumps exactly one shard's counter.
    pub fn evaluations(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.evaluations).collect()
    }

    /// How many offers refreshes have evaluated in total — after a warm
    /// query, a single-offer update followed by another query adds one.
    pub fn offers_evaluated(&self) -> usize {
        self.offers_evaluated
    }

    /// Per-shard group-key digests (commutative multiset hashes of the
    /// shard's `(tes, tf)` keys). Equal digests across a mutation mean the
    /// grouping inputs did not change. In process the warm-cache decision
    /// uses the exact old-vs-new key comparison (see
    /// [`update`](Self::update)); the digests are the shard-level summary
    /// of the same fact — what tests observe, and what an import checks
    /// an image's keys against.
    pub fn key_digests(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.key_digest).collect()
    }

    /// `true` while the cached grouping is valid (no key- or
    /// id-set-changing mutation since it was computed).
    pub fn groups_cached(&self) -> bool {
        self.groups_valid
    }

    /// The live ids in logical (id) order.
    pub fn live_ids(&self) -> Vec<u64> {
        self.owners.iter().map(|(id, _, _)| id).collect()
    }

    /// The id the next add will receive. Together with
    /// [`live_ids`](Self::live_ids) this is the state
    /// [`parse_script_from`](crate::parse_script_from) needs to validate a
    /// script that *continues* this book's history.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The logical portfolio at this instant: live offers in id order —
    /// exactly what a from-scratch build would evaluate. Clones every
    /// offer; meant for oracles and tests, not the serving hot path.
    pub fn to_portfolio(&self) -> Portfolio {
        self.owners
            .iter()
            .map(|(_, s, local)| self.shards[s].offers[local].clone())
            .collect()
    }

    /// The live offer with id `id`.
    fn offer(&self, id: u64) -> &FlexOffer {
        let (s, local) = self.owners.get(id).expect("a live id");
        &self.shards[s].offers[local]
    }

    /// A serializable image of the book — per-shard ids, offers and key
    /// digests, and the id counter. Clones every offer; meant for the
    /// snapshot path, which runs off the hot loop's cadence.
    pub fn export(&self) -> BookExport {
        BookExport {
            next_id: self.next_id,
            shards: (0..self.shards.len())
                .map(|s| self.export_shard(s))
                .collect(),
        }
    }

    /// A serializable image of one shard — the per-shard slice of
    /// [`export`](Self::export). The cluster tier uses it on both sides of
    /// the pipe: a shard worker serializes *its own* shard (the rest of
    /// its book is empty), and the supervisor extracts a respawn baseline
    /// for one worker from its persistent merged book.
    ///
    /// # Panics
    ///
    /// If `s` is not a shard index of this book.
    pub fn export_shard(&self, s: usize) -> ShardExport {
        let shard = &self.shards[s];
        ShardExport {
            ids: shard.ids.clone(),
            offers: shard.offers.clone(),
            key_digest: shard.key_digest,
        }
    }

    /// Rebuilds a book from an export, revalidating every structural
    /// invariant a fresh build would have established: unique ids in their
    /// stable shards, an id counter strictly past every live id and below
    /// `u64::MAX` (so every later add gets a fresh id), key
    /// digests that match the offers, and aligned parallel arrays. The
    /// owner table and sorted key index are reconstructed (they are pure
    /// functions of the shard arrays); every offer starts stale, so the
    /// first query evaluates the whole book.
    pub fn from_export(
        config: ServeConfig,
        engine: Engine,
        export: BookExport,
    ) -> Result<Self, ImportError> {
        if export.shards.is_empty() {
            return Err(ImportError::ZeroShards);
        }
        if export.next_id == u64::MAX {
            return Err(ImportError::ExhaustedIds);
        }
        let shard_count = export.shards.len();
        let measures = all_measures().len();
        let mut owners = Vec::new();
        let mut seen = HashSet::new();
        let mut keys = KeyIndex::new();
        let mut shards = Vec::with_capacity(shard_count);
        for (s, shard) in export.shards.into_iter().enumerate() {
            if shard.ids.len() != shard.offers.len() {
                return Err(ImportError::CacheShape { shard: s });
            }
            let mut digest = 0u64;
            for (local, (&id, offer)) in shard.ids.iter().zip(&shard.offers).enumerate() {
                if stable_shard(id, shard_count) != s {
                    return Err(ImportError::MisplacedId { id });
                }
                if !seen.insert(id) {
                    return Err(ImportError::DuplicateId { id });
                }
                owners.push(Owner::new(id, s, local));
                if id >= export.next_id {
                    return Err(ImportError::StaleNextId {
                        next_id: export.next_id,
                        id,
                    });
                }
                let key = grouping_key(offer);
                digest = digest.wrapping_add(key_hash(key));
                keys.insert(id, key);
            }
            if digest != shard.key_digest {
                return Err(ImportError::DigestMismatch { shard: s });
            }
            shards.push(LiveShard::restored(
                measures,
                shard.ids,
                shard.offers,
                shard.key_digest,
            ));
        }
        Ok(Self::assemble(
            config,
            engine,
            shards,
            Owners::from_unsorted(owners),
            export.next_id,
            keys,
        ))
    }

    /// Advances the id counter to at least `next_id` (it never rewinds).
    /// The delta-gather supervisor owns the global counter and raises its
    /// merged book's before importing shards, so
    /// [`import_shard`](Self::import_shard)'s `StaleNextId` check is
    /// against the *global* horizon, not whatever this book last saw.
    pub fn reserve_ids(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Replaces shard `s` with an exported image — the delta gather's
    /// merge step: a persistent merged book swaps in only the shards whose
    /// digests changed, instead of [`from_export`](Self::from_export)
    /// rebuilding all of them.
    ///
    /// Revalidates everything `from_export` would for that shard (stable
    /// placement, no duplicate ids — including against offers *other*
    /// shards of this book already hold — an id counter that clears every
    /// imported id, a key digest matching the offers, aligned parallel
    /// arrays) **before** mutating, so a failed import leaves the book
    /// untouched. Callers whose counter may trail the import call
    /// [`reserve_ids`](Self::reserve_ids) first.
    ///
    /// Every `(id, offer)` pair the image leaves unchanged keeps its
    /// evaluated values; only the rest are marked stale. The owner table
    /// and sorted key index are patched incrementally; the grouping stays
    /// valid exactly when the shard's id sequence and per-position
    /// grouping keys are unchanged (a profile-only refresh), and the
    /// shard's scratch arena and evaluation counter are kept.
    pub fn import_shard(&mut self, s: usize, shard: ShardExport) -> Result<(), ImportError> {
        let shard_count = self.shards.len();
        if s >= shard_count {
            return Err(ImportError::NoSuchShard { shard: s });
        }
        if shard.ids.len() != shard.offers.len() {
            return Err(ImportError::CacheShape { shard: s });
        }
        let mut digest = 0u64;
        let mut fresh = BTreeSet::new();
        for (&id, offer) in shard.ids.iter().zip(&shard.offers) {
            if stable_shard(id, shard_count) != s {
                return Err(ImportError::MisplacedId { id });
            }
            // An owner entry pointing at shard `s` is being replaced; one
            // pointing anywhere else means the id is live twice.
            if !fresh.insert(id) || self.owners.get(id).is_some_and(|(owner, _)| owner != s) {
                return Err(ImportError::DuplicateId { id });
            }
            if id >= self.next_id {
                return Err(ImportError::StaleNextId {
                    next_id: self.next_id,
                    id,
                });
            }
            digest = digest.wrapping_add(key_hash(grouping_key(offer)));
        }
        if digest != shard.key_digest {
            return Err(ImportError::DigestMismatch { shard: s });
        }

        // Validation passed — commit. Carry every unchanged pair's values
        // over, found through the owner table before it is patched.
        let old = &mut self.shards[s];
        let same_keys = old.ids == shard.ids
            && old
                .offers
                .iter()
                .zip(&shard.offers)
                .all(|(old, new)| grouping_key(old) == grouping_key(new));
        let same_offers = same_keys && old.offers == shard.offers;
        let mut next =
            LiveShard::restored(old.columns.len(), shard.ids, shard.offers, shard.key_digest);
        let mut changed = Vec::new();
        for (local, (&id, offer)) in next.ids.iter().zip(&next.offers).enumerate() {
            let kept = self
                .owners
                .get(id)
                .map(|(_, was)| was)
                .filter(|&was| !old.stale[was] && old.offers[was] == *offer);
            match kept {
                Some(was) => {
                    for (column, previous) in next.columns.iter_mut().zip(&old.columns) {
                        column[local] = previous[was].clone();
                    }
                    next.stale[local] = false;
                }
                None => changed.push(id),
            }
        }
        if same_offers {
            next.baseline = old.baseline.take();
        }
        next.evaluations = old.evaluations;
        next.arena = std::mem::take(&mut old.arena);
        let old = std::mem::replace(&mut self.shards[s], next);

        for (&id, offer) in old.ids.iter().zip(&old.offers) {
            self.owners.bury(id);
            assert!(
                self.keys.remove(id, grouping_key(offer)),
                "owner table and keys agree"
            );
        }
        let shard = &self.shards[s];
        for (local, (&id, offer)) in shard.ids.iter().zip(&shard.offers).enumerate() {
            self.owners.insert(id, s, local);
            self.keys.insert(id, grouping_key(offer));
        }
        self.owners.compact();
        if !same_keys {
            self.groups_valid = false;
        }
        for id in changed {
            self.touch(id);
        }
        Ok(())
    }

    /// Applies one mutation or query. Mutations return `Ok(None)`; queries
    /// return `Ok(Some(answer))` with the one-line JSON answer.
    pub fn apply(&mut self, event: Event) -> Result<Option<String>, LiveError> {
        match event {
            Event::Add(offer) => {
                self.add(offer);
                Ok(None)
            }
            Event::Update { id, offer } => self.update(id, offer).map(|()| None),
            Event::Remove { id } => self.remove(id).map(|()| None),
            Event::Query(kind) => Ok(Some(self.answer(kind))),
        }
    }

    /// Applies one workload mutation ([`flexoffers_workloads::OfferEvent`]).
    pub fn apply_offer_event(&mut self, event: OfferEvent) -> Result<(), LiveError> {
        self.apply(event.into()).map(|answer| {
            debug_assert!(answer.is_none(), "offer events are never queries");
        })
    }

    /// Adds an offer, assigning and returning the next logical id. Routes
    /// to `stable_shard(id, shards)`; the placement is irrelevant to
    /// answers (the merge is partition-independent), it only spreads
    /// load.
    pub fn add(&mut self, offer: FlexOffer) -> u64 {
        let id = self.next_id;
        self.add_at(id, offer)
            .expect("next_id is strictly past every live id");
        id
    }

    /// Adds an offer under a *caller-assigned* logical id — the
    /// cross-process shard worker's entry point: the supervisor owns the
    /// monotone id counter, and a worker inserts each routed offer under
    /// the global id it arrived with, so the worker's shard arrays stay
    /// byte-equal to the in-process book's. The id must not be live
    /// ([`LiveError::IdTaken`] otherwise) but *may* sit below
    /// [`next_id`](Self::next_id): a respawned worker replays journal
    /// events whose ids its counter already passed. The counter only ever
    /// advances (`next_id = max(next_id, id + 1)`, saturating), keeping
    /// the export invariant that it strictly clears every live id.
    pub fn add_at(&mut self, id: u64, offer: FlexOffer) -> Result<(), LiveError> {
        if self.owners.contains(id) {
            return Err(LiveError::IdTaken { id });
        }
        self.next_id = self.next_id.max(id.saturating_add(1));
        let s = stable_shard(id, self.shards.len());
        let key = grouping_key(&offer);
        let shard = &mut self.shards[s];
        self.owners.insert(id, s, shard.ids.len());
        shard.push(id, offer);
        shard.key_digest = shard.key_digest.wrapping_add(key_hash(key));
        self.keys.insert(id, key);
        self.groups_valid = false;
        self.touch(id);
        Ok(())
    }

    /// Replaces the offer with logical id `id` in place. Marks exactly
    /// that offer stale; when the replacement keeps the offer's grouping
    /// key, the key index, digests, and grouping all stay warm and only
    /// the offer's group is re-aggregated.
    pub fn update(&mut self, id: u64, offer: FlexOffer) -> Result<(), LiveError> {
        let (s, local) = self.owners.get(id).ok_or(LiveError::UnknownId { id })?;
        let shard = &mut self.shards[s];
        let old_key = grouping_key(&shard.offers[local]);
        let new_key = grouping_key(&offer);
        if old_key != new_key {
            assert!(self.keys.remove(id, old_key), "owner table and keys agree");
            self.keys.insert(id, new_key);
            shard.key_digest = shard
                .key_digest
                .wrapping_sub(key_hash(old_key))
                .wrapping_add(key_hash(new_key));
            self.groups_valid = false;
        }
        shard.replace(local, offer);
        self.touch(id);
        Ok(())
    }

    /// Removes the offer with logical id `id` (ids are never reused).
    pub fn remove(&mut self, id: u64) -> Result<(), LiveError> {
        let (s, local) = self.owners.bury(id).ok_or(LiveError::UnknownId { id })?;
        self.owners.compact();
        let shard = &mut self.shards[s];
        let key = grouping_key(&shard.offers[local]);
        shard.swap_remove(local);
        if let Some(&moved) = shard.ids.get(local) {
            // swap_remove relocated the former tail into the hole.
            self.owners.insert(moved, s, local);
        }
        shard.key_digest = shard.key_digest.wrapping_sub(key_hash(key));
        assert!(self.keys.remove(id, key), "owner table and keys agree");
        self.groups_valid = false;
        Ok(())
    }

    /// Records that `id`'s offer changed, so the aggregate of its group is
    /// rebuilt even if the group's member list is unchanged (a
    /// key-preserving update, or a dead id re-added through
    /// [`add_at`](Self::add_at)). Once more ids are touched than are live,
    /// the aggregates are dropped instead: rebuilding all is then cheaper
    /// than locating each.
    fn touch(&mut self, id: u64) {
        if self.aggregates.is_empty() {
            return;
        }
        if self.touched.len() >= self.owners.len() {
            self.aggregates.clear();
            self.touched.clear();
        } else {
            self.touched.push(id);
        }
    }

    /// Answers one query from the incremental state as a single JSON line
    /// — byte-identical to a from-scratch batch evaluation of the current
    /// logical portfolio ([`crate::batch::answer`]).
    pub fn answer(&mut self, kind: QueryKind) -> String {
        match kind {
            QueryKind::Measure => self.measure_answer(),
            QueryKind::Aggregate => self.aggregate_answer(),
            QueryKind::Schedule => self.schedule_answer(),
            QueryKind::Trade => self.trade_answer(),
        }
    }

    fn measure_answer(&mut self) -> String {
        let started = Instant::now();
        self.refresh_dirty();
        let measures = all_measures();
        let offers = self.len();
        let summaries = measures
            .iter()
            .enumerate()
            .map(|(j, m)| {
                let columns: Vec<&[Result<f64, MeasureError>]> = self
                    .shards
                    .iter()
                    .map(|shard| &shard.columns[j][..])
                    .collect();
                reduce_measure_values(
                    m.as_ref(),
                    offers,
                    self.owners.iter().map(|(_, s, local)| &columns[s][local]),
                )
            })
            .collect();
        let report = PortfolioReport {
            offers,
            threads: self.engine.budget().threads(),
            chunk_size: self.engine.budget().chunk_size_for(offers),
            elapsed: started.elapsed(),
            summaries,
        };
        answer_line(QueryKind::Measure, &report.json())
    }

    fn aggregate_answer(&mut self) -> String {
        self.ensure_aggregates();
        answer_line(
            QueryKind::Aggregate,
            &aggregate_report(self.len(), &self.aggregates),
        )
    }

    fn schedule_answer(&mut self) -> String {
        let kind = QueryKind::Schedule;
        if self.is_empty() {
            return error_line(kind, &ScenarioError::EmptyPortfolio.to_string());
        }
        let started = Instant::now();
        self.refresh_dirty();
        self.ensure_aggregates();
        let scenario = self.config.scenario(ScenarioKind::Schedule);
        let n = self.len();
        let target = scenario.target_for(n);

        // The Scenario 1 pipeline over incrementally grouped state — the
        // engine's own back half, so the stages cannot drift from the
        // flat path.
        let ids = self.live_ids();
        let groups: Vec<Vec<usize>> = self
            .groups
            .iter()
            .map(|members| {
                members
                    .iter()
                    .map(|id| ids.binary_search(id).expect("grouped ids are live"))
                    .collect()
            })
            .collect();
        let scheduler = scenario.scheduler.build();
        let outcome = match self.engine.schedule_aggregates(
            &self.aggregates,
            &groups,
            n,
            &target,
            scheduler.as_ref(),
        ) {
            Ok(outcome) => outcome,
            Err(e) => return error_line(kind, &ScenarioError::from(e).to_string()),
        };

        // Earliest-start baseline: per-offer, computed per shard and
        // scattered back to logical order.
        let per_shard: Vec<Vec<Assignment>> =
            parallel_map(&self.shards, self.engine.budget().threads(), |shard| {
                shard.offers.iter().map(earliest_start_assignment).collect()
            });
        let baseline = Schedule::new(self.scatter(&ids, per_shard));
        let imbalance_before = baseline.imbalance(&target);
        let imbalance_after = outcome.schedule.imbalance(&target);

        // Correlations read the evaluated columns in id order (errors
        // flattened to `None`); shifts come from the realized schedule
        // against each offer's earliest start.
        let rows: Vec<Vec<Option<f64>>> = self
            .owners
            .iter()
            .map(|(_, s, local)| {
                let columns = &self.shards[s].columns;
                columns
                    .iter()
                    .map(|c| c[local].as_ref().ok().copied())
                    .collect()
            })
            .collect();
        let shifts: Vec<f64> = outcome
            .schedule
            .assignments()
            .iter()
            .zip(self.owners.iter())
            .map(|(a, (_, s, local))| {
                (a.start() - self.shards[s].offers[local].earliest_start()) as f64
            })
            .collect();

        let report = self.engine.schedule_report(
            &scenario,
            n,
            &outcome,
            imbalance_before,
            imbalance_after,
            &rows,
            &shifts,
            started,
        );
        answer_line(kind, &report.json())
    }

    fn trade_answer(&mut self) -> String {
        let kind = QueryKind::Trade;
        if self.is_empty() {
            return error_line(kind, &ScenarioError::EmptyPortfolio.to_string());
        }
        let started = Instant::now();
        self.ensure_aggregates();
        self.ensure_baselines();
        let scenario = self.config.scenario(ScenarioKind::Market);
        // The baseline folds the per-shard partials — integer series
        // addition makes this the flat baseline bit for bit.
        let baseline = sum_series(
            self.shards
                .iter()
                .map(|s| s.baseline.as_ref().expect("ensured above")),
        );
        let report =
            self.engine
                .market_report(&scenario, self.len(), &self.aggregates, &baseline, started);
        answer_line(kind, &report.json())
    }

    /// Evaluates every stale offer — the public face of the per-query
    /// refresh, for callers that time it apart from the answer.
    pub fn refresh(&mut self) {
        self.refresh_dirty();
    }

    /// Runs `job` once per listed shard, the shards fanned out across the
    /// budget's threads. Each worker gets an equal split of the budget
    /// over the listed count (on the one-shard hot path that single worker
    /// gets the whole budget; the split is throughput-only, results are
    /// budget-invariant) and holds its shard's scratch arena, which is
    /// taken out of the shard for the call and handed back after, so its
    /// buffers survive the round trip. Results come back in `jobs` order.
    fn fan_out<J: Sync, R: Send>(
        &mut self,
        jobs: &[(usize, J)],
        job: impl Fn(&Engine, &LiveShard, &J, &mut ColumnarBatch) -> R + Sync,
    ) -> Vec<R> {
        let worker = Engine::new(self.engine.budget().per_shard(jobs.len()));
        let arenas: Vec<Mutex<ColumnarBatch>> = jobs
            .iter()
            .map(|&(s, _)| Mutex::new(std::mem::take(&mut self.shards[s].arena)))
            .collect();
        let results = {
            let work: Vec<(&LiveShard, &J, &Mutex<ColumnarBatch>)> = jobs
                .iter()
                .zip(&arenas)
                .map(|((s, input), arena)| (&self.shards[*s], input, arena))
                .collect();
            parallel_map(
                &work,
                self.engine.budget().threads(),
                |&(shard, input, arena)| job(&worker, shard, input, &mut lock_scratch(arena)),
            )
        };
        for (&(s, _), arena) in jobs.iter().zip(arenas) {
            self.shards[s].arena = reclaim_scratch(arena);
        }
        results
    }

    /// Evaluates the stale offers of every shard and writes their values
    /// into their slots, bumping each such shard's pass counter once.
    /// Current slots are not touched — this is the "one offer per
    /// single-offer update" contract.
    fn refresh_dirty(&mut self) {
        let jobs: Vec<(usize, Vec<usize>)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| (s, shard.stale_slots()))
            .filter(|(_, slots)| !slots.is_empty())
            .collect();
        if jobs.is_empty() {
            return;
        }
        let measures = all_measures();
        let values = self.fan_out(&jobs, |engine, shard, slots, arena| {
            if slots.len() == shard.offers.len() {
                engine.per_offer_columns_in(arena, &shard.offers, &measures)
            } else {
                let picked: Vec<FlexOffer> =
                    slots.iter().map(|&i| shard.offers[i].clone()).collect();
                engine.per_offer_columns_in(arena, &picked, &measures)
            }
        });
        for ((s, slots), values) in jobs.into_iter().zip(values) {
            self.offers_evaluated += slots.len();
            self.shards[s].store(&slots, values);
        }
    }

    /// Computes the baseline partial of every shard that lacks one.
    fn ensure_baselines(&mut self) {
        let jobs: Vec<(usize, ())> = (0..self.shards.len())
            .filter(|&s| self.shards[s].baseline.is_none())
            .map(|s| (s, ()))
            .collect();
        let partials = self.fan_out(&jobs, |engine, shard, (), arena| {
            if shard.offers.is_empty() {
                baseline_load(&[])
            } else {
                engine.baseline_load_parallel_in(arena, &shard.offers)
            }
        });
        for ((s, ()), partial) in jobs.into_iter().zip(partials) {
            self.shards[s].baseline = Some(partial);
        }
    }

    /// Brings the grouping and one aggregate per group up to date. A
    /// stale grouping is re-swept over the already-sorted [`KeyIndex`]
    /// (no per-query sort; id order is position order, so the groups are
    /// exactly [`flexoffers_aggregation::group_keys`] over the logical
    /// portfolio). A previous aggregate is reused when its group's
    /// member-id list is unchanged and no member was touched since; the
    /// rest are rebuilt in parallel from borrowed offers.
    fn ensure_aggregates(&mut self) {
        let mut kept: Vec<Option<Aggregate>> = std::mem::take(&mut self.aggregates)
            .into_iter()
            .map(Some)
            .collect();
        if !self.groups_valid {
            let previous =
                std::mem::replace(&mut self.groups, self.keys.group_ids(&self.config.grouping));
            // Groups partition the ids, so a first member names at most
            // one previous group.
            let by_first: HashMap<u64, usize> = previous
                .iter()
                .enumerate()
                .filter(|&(g, _)| g < kept.len())
                .map(|(g, members)| (members[0], g))
                .collect();
            kept = self
                .groups
                .iter()
                .map(|members| {
                    let &g = by_first.get(&members[0])?;
                    if previous[g] == *members {
                        kept[g].take()
                    } else {
                        None
                    }
                })
                .collect();
            self.groups_valid = true;
        } else if kept.is_empty() {
            kept = self.groups.iter().map(|_| None).collect();
        }
        for id in std::mem::take(&mut self.touched) {
            if let Some(g) = self.group_of(id) {
                kept[g] = None;
            }
        }
        let stale: Vec<usize> = (0..kept.len()).filter(|&g| kept[g].is_none()).collect();
        let built = parallel_map(&stale, self.engine.budget().threads(), |&g| {
            let members: Vec<&FlexOffer> =
                self.groups[g].iter().map(|&id| self.offer(id)).collect();
            aggregate_refs(&members).expect("grouping never yields empty groups")
        });
        for (g, aggregate) in stale.into_iter().zip(built) {
            kept[g] = Some(aggregate);
        }
        self.aggregates = kept
            .into_iter()
            .map(|aggregate| aggregate.expect("every group aggregated"))
            .collect();
    }

    /// The index of the current group holding live id `id`, or `None`
    /// when `id` is not live. Groups are consecutive runs of the
    /// `(key, id)` order, so the holder is the last group whose first
    /// entry does not sort after `id`'s.
    fn group_of(&self, id: u64) -> Option<usize> {
        if !self.owners.contains(id) {
            return None;
        }
        let entry = (grouping_key(self.offer(id)), id);
        let after = self.groups.partition_point(|members| {
            let first = members[0];
            (grouping_key(self.offer(first)), first) <= entry
        });
        after.checked_sub(1)
    }

    /// The merge tier's scatter: per-shard results reassembled into
    /// logical portfolio order (`ids`, the live ids ascending) through the
    /// id ranks.
    fn scatter<T>(&self, ids: &[u64], per_shard: Vec<Vec<T>>) -> Vec<T> {
        let mut out: Vec<Option<T>> = (0..ids.len()).map(|_| None).collect();
        for (shard, results) in self.shards.iter().zip(per_shard) {
            assert_eq!(shard.ids.len(), results.len(), "one result per offer");
            for (&id, r) in shard.ids.iter().zip(results) {
                let pos = ids.binary_search(&id).expect("shard ids are live");
                out[pos] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("shards partition the book"))
            .collect()
    }
}

impl fmt::Debug for LiveBook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveBook")
            .field("offers", &self.len())
            .field("shards", &self.shard_count())
            .field("next_id", &self.next_id)
            .field("groups_cached", &self.groups_cached())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn offer(tes: i64, window: i64, lo: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + window, vec![Slice::new(lo, lo + 2).unwrap()]).unwrap()
    }

    fn book(shards: usize) -> LiveBook {
        LiveBook::new(ServeConfig::default(), shards, Engine::sequential()).unwrap()
    }

    #[test]
    fn zero_shards_is_the_documented_error() {
        assert_eq!(
            LiveBook::new(ServeConfig::default(), 0, Engine::sequential()).unwrap_err(),
            EngineError::ZeroShards
        );
    }

    #[test]
    fn ids_are_monotone_and_the_logical_portfolio_is_id_ordered() {
        let mut book = book(3);
        let a = book.add(offer(0, 2, 1));
        let b = book.add(offer(1, 3, -1));
        let c = book.add(offer(2, 1, 0));
        assert_eq!((a, b, c), (0, 1, 2));
        book.remove(b).unwrap();
        let d = book.add(offer(5, 2, 2));
        assert_eq!(d, 3, "ids are never reused");
        let logical = book.to_portfolio();
        assert_eq!(logical.len(), 3);
        assert_eq!(logical.as_slice()[0], offer(0, 2, 1));
        assert_eq!(logical.as_slice()[1], offer(2, 1, 0));
        assert_eq!(logical.as_slice()[2], offer(5, 2, 2));
    }

    #[test]
    fn unknown_ids_are_reported_not_panicked() {
        let mut book = book(2);
        assert_eq!(
            book.update(4, offer(0, 1, 0)).unwrap_err(),
            LiveError::UnknownId { id: 4 }
        );
        assert_eq!(book.remove(4).unwrap_err(), LiveError::UnknownId { id: 4 });
        assert!(LiveError::UnknownId { id: 4 }
            .to_string()
            .contains("unknown offer id 4"));
    }

    #[test]
    fn single_offer_update_reevaluates_exactly_one_shard() {
        let mut book = book(4);
        let ids: Vec<u64> = (0..40).map(|i| book.add(offer(i % 5, i % 3, -1))).collect();
        book.answer(QueryKind::Measure);
        let warm = book.evaluations();
        assert!(warm.iter().all(|&e| e == 1), "first query evaluates all");
        assert_eq!(book.offers_evaluated(), 40);

        let victim = ids[7];
        let (victim_shard, _) = book.owners.get(victim).unwrap();
        book.update(victim, offer(9, 1, 1)).unwrap();
        book.answer(QueryKind::Measure);
        let after = book.evaluations();
        for (s, (&w, &a)) in warm.iter().zip(&after).enumerate() {
            if s == victim_shard {
                assert_eq!(a, w + 1, "dirty shard re-evaluates");
            } else {
                assert_eq!(a, w, "clean shard {s} must not re-evaluate");
            }
        }
        assert_eq!(book.offers_evaluated(), 41, "only the updated offer");

        // A query with nothing dirty evaluates nothing.
        book.answer(QueryKind::Measure);
        assert_eq!(book.evaluations(), after);
    }

    #[test]
    fn the_owner_table_keeps_id_order_through_tombstones() {
        let mut owners = Owners::default();
        for id in 0..200u64 {
            owners.insert(id, (id % 3) as usize, id as usize);
        }
        // Out-of-order inserts land in place; re-inserting moves a slot.
        owners.insert(500, 1, 9);
        owners.insert(300, 2, 8);
        owners.insert(5, 0, 77);
        assert_eq!(owners.get(5), Some((0, 77)));
        assert_eq!(owners.len(), 202);
        // Bury enough to force a compaction, then revive a buried id.
        for id in 0..150u64 {
            let slot = if id == 5 {
                (0, 77)
            } else {
                ((id % 3) as usize, id as usize)
            };
            assert_eq!(owners.bury(id), Some(slot));
            owners.compact();
        }
        assert!(owners.entries.len() < 150, "tombstones were dropped");
        assert_eq!(owners.bury(7), None, "already buried");
        owners.insert(7, 1, 1);
        let ids: Vec<u64> = owners.iter().map(|(id, _, _)| id).collect();
        let mut expected: Vec<u64> = (150..200).chain([7, 300, 500]).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected);
        assert_eq!(owners.len(), expected.len());
        assert!(!owners.contains(0));
    }

    #[test]
    fn key_preserving_updates_keep_the_grouping_cache_warm() {
        let mut book = book(2);
        let id = book.add(offer(0, 2, 1));
        book.add(offer(0, 2, -1));
        book.answer(QueryKind::Aggregate);
        assert!(book.groups_cached());
        let digests = book.key_digests();

        // Same (tes, tf), different profile: grouping inputs unchanged.
        book.update(id, offer(0, 2, 0)).unwrap();
        assert_eq!(book.key_digests(), digests, "digest spots the no-op");
        assert!(book.groups_cached(), "grouping cache survives");

        // A key-changing update invalidates.
        book.update(id, offer(7, 2, 0)).unwrap();
        assert_ne!(book.key_digests(), digests);
        assert!(!book.groups_cached());
    }

    #[test]
    fn adds_and_removes_invalidate_the_grouping_cache() {
        let mut book = book(2);
        book.add(offer(0, 2, 1));
        book.answer(QueryKind::Aggregate);
        assert!(book.groups_cached());
        let id = book.add(offer(1, 2, 1));
        assert!(!book.groups_cached());
        book.answer(QueryKind::Aggregate);
        assert!(book.groups_cached());
        book.remove(id).unwrap();
        assert!(!book.groups_cached());
    }

    #[test]
    fn empty_book_answers_match_the_batch_semantics() {
        let mut book = book(3);
        let measure = book.answer(QueryKind::Measure);
        assert!(measure.contains("\"offers\":0"), "{measure}");
        let aggregate = book.answer(QueryKind::Aggregate);
        assert!(aggregate.contains("\"aggregates\":0"), "{aggregate}");
        for kind in [QueryKind::Schedule, QueryKind::Trade] {
            let answer = book.answer(kind);
            assert!(answer.contains("\"error\":\"empty portfolio"), "{answer}");
        }
    }

    #[test]
    fn a_panicking_worker_does_not_poison_subsequent_refreshes() {
        let mut book = book(2);
        book.add(offer(0, 2, 1));
        book.add(offer(1, 3, -1));

        // Simulate a measure kernel panicking while it holds a shard's
        // scratch arena — the scenario that used to trip the refresh-time
        // `expect` on the poisoned lock.
        let arena = Mutex::new(std::mem::take(&mut book.shards[0].arena));
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _guard = lock_scratch(&arena);
                panic!("custom measure panicked");
            });
            assert!(worker.join().is_err());
        });
        assert!(arena.is_poisoned());
        drop(lock_scratch(&arena)); // the lock path recovers
        book.shards[0].arena = reclaim_scratch(arena); // the reclaim path too

        // Refreshes keep working on the recovered arena.
        let answer = book.answer(QueryKind::Measure);
        assert!(answer.contains("\"offers\":2"), "{answer}");
        let again = book.answer(QueryKind::Measure);
        assert_eq!(answer, again);
    }

    #[test]
    fn add_at_inserts_under_caller_ids_and_rejects_live_ones() {
        let mut routed = book(3);
        let mut direct = book(3);
        for i in 0..12 {
            direct.add(offer(i, 2, 1));
            routed.add_at(i as u64, offer(i, 2, 1)).unwrap();
        }
        // Same ids in the same order → byte-equal shard state.
        assert_eq!(routed.export(), direct.export());

        let taken = routed.add_at(3, offer(0, 1, 0)).unwrap_err();
        assert_eq!(taken, LiveError::IdTaken { id: 3 });
        assert!(taken.to_string().contains("already live"));

        // A dead below-counter id is insertable again — exactly what a
        // respawned worker's journal replay does — without rewinding the
        // counter.
        routed.remove(3).unwrap();
        routed.add_at(3, offer(3, 2, 1)).unwrap();
        assert_eq!(routed.next_id(), 12, "counter already cleared id 3");

        // Gaps advance the counter past the id.
        routed.add_at(100, offer(0, 2, 1)).unwrap();
        assert_eq!(routed.next_id(), 101);
        assert_eq!(routed.add(offer(1, 1, 1)), 101);
    }

    #[test]
    fn refresh_evaluates_stale_offers_without_a_query() {
        let mut book = book(2);
        for i in 0..8 {
            book.add(offer(i, 2, 1));
        }
        assert_eq!(book.offers_evaluated(), 0, "mutations evaluate nothing");
        book.refresh();
        assert_eq!(book.offers_evaluated(), 8);
        // The refreshed values are the ones a query would have computed.
        let evals = book.evaluations();
        book.answer(QueryKind::Measure);
        assert_eq!(book.evaluations(), evals, "query found everything current");
        assert_eq!(book.offers_evaluated(), 8);
    }

    #[test]
    fn removes_keep_the_columns_aligned_with_the_offers() {
        // Remove current and stale slots, including ones whose swap moves
        // a stale tail into a current hole, then compare with the batch
        // oracle.
        let mut live = book(2);
        for i in 0..12 {
            live.add(offer(i % 4, i % 3, i - 6));
        }
        live.refresh();
        live.update(1, offer(7, 1, 2)).unwrap();
        live.add(offer(3, 3, 3));
        live.remove(0).unwrap();
        live.remove(12).unwrap();
        live.remove(5).unwrap();
        live.update(9, offer(2, 2, -2)).unwrap();
        let evaluated = live.offers_evaluated();
        let logical = live.to_portfolio();
        let config = ServeConfig::default();
        for kind in QueryKind::all() {
            let oracle =
                crate::batch::answer(&Engine::sequential(), &config, logical.as_slice(), kind);
            assert_eq!(live.answer(kind), oracle, "{kind}");
        }
        assert_eq!(live.offers_evaluated() - evaluated, 2, "updates 1 and 9");
    }

    #[test]
    fn export_round_trips_and_answers_identically() {
        let mut book = book(3);
        for i in 0..20 {
            book.add(offer(i % 5, i % 3 + 1, -1));
        }
        book.remove(7).unwrap();
        book.update(3, offer(9, 2, 2)).unwrap();
        book.answer(QueryKind::Measure); // warm the caches

        let export = book.export();
        let mut revived =
            LiveBook::from_export(ServeConfig::default(), Engine::sequential(), export.clone())
                .unwrap();
        assert_eq!(revived.live_ids(), book.live_ids());
        assert_eq!(revived.key_digests(), book.key_digests());
        for kind in QueryKind::all() {
            assert_eq!(revived.answer(kind), book.answer(kind), "{kind}");
        }
        // An export carries no cache: the revived book evaluated every
        // offer exactly once, on its first query.
        assert_eq!(revived.offers_evaluated(), revived.len());
        // And mutation after import keeps going where the export left off.
        let id = revived.add(offer(1, 1, 0));
        assert_eq!(id, 20, "ids continue past the exported counter");
        assert_eq!(revived.export().next_id, 21);
        // Round trip of the round trip is exact.
        let again = LiveBook::from_export(
            ServeConfig::default(),
            Engine::sequential(),
            revived.export(),
        )
        .unwrap()
        .export();
        assert_eq!(again, revived.export());
        let _ = export;
    }

    #[test]
    fn imports_revalidate_structural_invariants() {
        let mut book = book(3);
        for i in 0..9 {
            book.add(offer(i, 2, 1));
        }
        book.answer(QueryKind::Measure); // warm the caches
        let export = book.export();
        let full = export
            .shards
            .iter()
            .position(|s| !s.offers.is_empty())
            .expect("nine offers fill some shard");
        let config = ServeConfig::default;
        let import = |e| LiveBook::from_export(config(), Engine::sequential(), e);

        assert_eq!(
            import(BookExport {
                next_id: 0,
                shards: Vec::new()
            })
            .unwrap_err(),
            ImportError::ZeroShards
        );

        let mut stale = export.clone();
        stale.next_id = 5;
        assert!(matches!(
            import(stale).unwrap_err(),
            ImportError::StaleNextId { next_id: 5, .. }
        ));

        let mut exhausted = export.clone();
        exhausted.next_id = u64::MAX;
        assert_eq!(import(exhausted).unwrap_err(), ImportError::ExhaustedIds);

        let mut tampered = export.clone();
        tampered.shards[0].key_digest ^= 1;
        assert_eq!(
            import(tampered).unwrap_err(),
            ImportError::DigestMismatch { shard: 0 }
        );

        let mut misplaced = export.clone();
        let moved = misplaced.shards[0].ids[0];
        let moved_offer = misplaced.shards[0].offers[0].clone();
        let wrong = (stable_shard(moved, 3) + 1) % 3;
        misplaced.shards[wrong].ids.push(moved);
        misplaced.shards[wrong].offers.push(moved_offer);
        let err = import(misplaced).unwrap_err();
        assert_eq!(err, ImportError::MisplacedId { id: moved });

        let mut duplicated = export.clone();
        let dup = duplicated.shards[0].ids[0];
        let dup_offer = duplicated.shards[0].offers[0].clone();
        duplicated.shards[0].ids.push(dup);
        duplicated.shards[0].offers.push(dup_offer);
        assert_eq!(
            import(duplicated).unwrap_err(),
            ImportError::DuplicateId { id: dup }
        );

        let mut ragged = export;
        ragged.shards[full].ids.pop();
        assert_eq!(
            import(ragged).unwrap_err(),
            ImportError::CacheShape { shard: full }
        );
    }

    #[test]
    fn import_shard_swaps_one_shard_and_answers_like_a_full_rebuild() {
        // Reference: an in-process book driven through a mutation history.
        let mut reference = book(3);
        for i in 0..20 {
            reference.add(offer(i % 5, i % 3 + 1, -1));
        }
        reference.answer(QueryKind::Measure);

        // Merged: seeded from the same export, then kept current shard by
        // shard as the reference mutates.
        let mut merged = LiveBook::from_export(
            ServeConfig::default(),
            Engine::sequential(),
            reference.export(),
        )
        .unwrap();
        merged.refresh();

        reference.update(3, offer(9, 2, 2)).unwrap();
        reference.remove(7).unwrap();
        let id = reference.add(offer(2, 4, 1));
        reference.answer(QueryKind::Measure); // warm the dirty shards

        let dirty: Vec<usize> = [3, 7, id]
            .iter()
            .map(|&id| stable_shard(id, 3))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        merged.reserve_ids(reference.next_id());
        for &s in &dirty {
            merged.import_shard(s, reference.export_shard(s)).unwrap();
        }
        assert_eq!(merged.export(), reference.export(), "state converges");
        let evaluated = merged.offers_evaluated();
        for kind in QueryKind::all() {
            assert_eq!(merged.answer(kind), reference.answer(kind), "{kind}");
        }
        // Unchanged offers kept their values through the import, so the
        // merged book re-evaluated only the updated and the added offer.
        assert_eq!(merged.offers_evaluated() - evaluated, 2);
    }

    #[test]
    fn import_shard_validates_before_mutating() {
        let mut book3 = book(3);
        for i in 0..9 {
            book3.add(offer(i, 2, 1));
        }
        book3.answer(QueryKind::Measure);
        let pristine = book3.export();
        let full = pristine
            .shards
            .iter()
            .position(|s| !s.offers.is_empty())
            .expect("nine offers fill some shard");

        assert_eq!(
            book3
                .import_shard(3, pristine.shards[0].clone())
                .unwrap_err(),
            ImportError::NoSuchShard { shard: 3 }
        );
        assert!(ImportError::NoSuchShard { shard: 3 }
            .to_string()
            .contains("out of range"));

        // Misplaced: a shard image handed to the wrong index.
        let wrong = (full + 1) % 3;
        let err = book3
            .import_shard(wrong, pristine.shards[full].clone())
            .unwrap_err();
        assert!(matches!(err, ImportError::MisplacedId { .. }), "{err}");

        // Duplicate against an id another shard already holds.
        let mut invaded = pristine.shards[full].clone();
        let foreign = pristine
            .shards
            .iter()
            .enumerate()
            .find(|(s, shard)| *s != full && !shard.ids.is_empty())
            .expect("another populated shard");
        invaded.ids.push(foreign.1.ids[0]);
        invaded.offers.push(foreign.1.offers[0].clone());
        invaded.key_digest = invaded
            .key_digest
            .wrapping_add(key_hash(grouping_key(&foreign.1.offers[0])));
        // (placement check fires first only if the id routes elsewhere —
        // pick the error without pinning which one)
        assert!(book3.import_shard(full, invaded).is_err());

        // An id at or past the counter is stale until reserved.
        let horizon = book3.next_id();
        let mut future = pristine.shards[full].clone();
        let future_id = (horizon..).find(|&id| stable_shard(id, 3) == full).unwrap();
        future.ids.push(future_id);
        future.offers.push(offer(1, 2, 1));
        future.key_digest = future
            .key_digest
            .wrapping_add(key_hash(grouping_key(&offer(1, 2, 1))));
        assert!(matches!(
            book3.import_shard(full, future.clone()).unwrap_err(),
            ImportError::StaleNextId { .. }
        ));
        book3.reserve_ids(future_id + 1);
        book3.import_shard(full, future).unwrap();

        // Tampered digest and ragged arrays are named; the failed imports
        // above and below leave the book coherent (round-trips exactly).
        let mut tampered = book3.export_shard(full);
        tampered.key_digest ^= 1;
        assert_eq!(
            book3.import_shard(full, tampered).unwrap_err(),
            ImportError::DigestMismatch { shard: full }
        );
        let mut ragged = book3.export_shard(full);
        ragged.ids.pop();
        assert_eq!(
            book3.import_shard(full, ragged).unwrap_err(),
            ImportError::CacheShape { shard: full }
        );
        let snapshot = book3.export();
        let revived = LiveBook::from_export(
            ServeConfig::default(),
            Engine::sequential(),
            snapshot.clone(),
        )
        .unwrap();
        assert_eq!(revived.export(), snapshot);
    }

    #[test]
    fn import_shard_keeps_the_grouping_cache_only_for_key_preserving_swaps() {
        let mut source = book(2);
        let mut merged = book(2);
        let id = source.add(offer(0, 2, 1));
        source.add(offer(0, 2, -1));
        source.refresh();
        merged.reserve_ids(source.next_id());
        for s in 0..2 {
            merged.import_shard(s, source.export_shard(s)).unwrap();
        }
        merged.answer(QueryKind::Aggregate);
        assert!(merged.groups_cached());

        // Same (tes, tf), different profile: the re-imported shard keeps
        // the grouping warm.
        source.update(id, offer(0, 2, 0)).unwrap();
        source.refresh();
        let s = stable_shard(id, 2);
        merged.import_shard(s, source.export_shard(s)).unwrap();
        assert!(merged.groups_cached(), "key-preserving import stays warm");

        // A key-changing update invalidates through the import too.
        source.update(id, offer(7, 2, 0)).unwrap();
        source.refresh();
        merged.import_shard(s, source.export_shard(s)).unwrap();
        assert!(!merged.groups_cached());
        assert_eq!(
            merged.answer(QueryKind::Aggregate),
            source.answer(QueryKind::Aggregate)
        );
    }

    #[test]
    fn apply_routes_queries_and_mutations() {
        let mut book = book(2);
        assert_eq!(book.apply(Event::Add(offer(0, 1, 1))).unwrap(), None);
        let answer = book
            .apply(Event::Query(QueryKind::Measure))
            .unwrap()
            .expect("queries answer");
        assert!(answer.starts_with("{\"query\":\"measure\""));
        assert_eq!(
            book.apply(Event::Remove { id: 9 }).unwrap_err(),
            LiveError::UnknownId { id: 9 }
        );
    }
}
