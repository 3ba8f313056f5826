//! `flexoffers_serving` — the live serving tier on top of the engine.
//!
//! The paper's measures are defined over a portfolio *snapshot*; a
//! production flexibility platform receives a continuous stream of
//! flex-offers (adds, revisions, withdrawals) and must answer
//! measure/schedule/trade queries *between* updates. Rebuilding the
//! portfolio and restarting the batch pipelines on every query throws away
//! almost all of the previous evaluation: a single-offer update
//! invalidates one offer's values, not the book's.
//!
//! This crate keeps exactly that incremental state:
//!
//! * [`LiveBook`] — the event-driven book. Adds route to a shard by a
//!   stable hash of their id
//!   ([`stable_shard`](flexoffers_engine::stable_shard)); each
//!   shard keeps its offers' **measure values in measure-major columns**
//!   with a per-offer stale flag, so a query evaluates only the offers
//!   mutated since the last one and folds the rest straight off the
//!   columns. Aggregates are cached per tolerance group and rebuilt only
//!   for groups a mutation touched. A per-shard **group-key digest** spots
//!   updates that leave the `(tes, tf)` key multiset unchanged, keeping
//!   the grouping warm; when keys do change, re-grouping is a re-sweep
//!   over the already-sorted
//!   [`KeyIndex`](flexoffers_aggregation::KeyIndex) — no per-query sort.
//! * [`LiveServer`] / [`LiveHandle`] — the mpsc event loop:
//!   [`Event`]`::{Add, Update, Remove, Query}` messages drain into a
//!   `LiveBook` on a dedicated thread, queries reply with one JSON line.
//! * [`Event`] / script parsing ([`parse_script`]) — the JSONL wire format
//!   `flexctl serve --script` replays, statically validated (line-numbered
//!   errors, unknown-id references, empty scripts).
//! * [`batch`] — the from-scratch oracle: the same queries answered by
//!   rebuilding the portfolio and running the flat engine.
//!
//! # Determinism
//!
//! Every query answer is **byte-identical** to rebuilding the book from
//! scratch at that point and running the flat engine ([`batch::answer`]),
//! at any shards × threads × chunk budget. The measure reduction, the
//! correlation tables, and the scenario report assembly are the engine's
//! own public functions — the live path feeds them cached per-shard columns
//! instead of freshly computed rows, and the property suite in
//! `tests/props.rs` pins the bytes across random Add/Update/Remove/Query
//! interleavings.
//!
//! # Quickstart
//!
//! ```
//! use flexoffers_engine::Engine;
//! use flexoffers_serving::{LiveBook, QueryKind, ServeConfig};
//! use flexoffers_workloads::event_stream;
//!
//! let mut book = LiveBook::new(ServeConfig::default(), 4, Engine::sequential())?;
//! for event in event_stream(7, 30, 0.1) {
//!     book.apply_offer_event(event)?;
//! }
//! let answer = book.answer(QueryKind::Measure);
//! assert!(answer.starts_with("{\"query\":\"measure\""));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod config;
pub mod event;
pub mod live;
pub mod report;
pub mod server;

pub use config::{DurabilityConfig, ServeConfig};
pub use event::{parse_script, parse_script_from, Event, QueryKind, ScriptError};
pub use live::{BookExport, ImportError, LiveBook, LiveError, ShardExport};
pub use report::{AggregateReportJson, AggregateSummaryJson};
pub use server::{EventSink, LiveHandle, LiveServer, ServeError};
