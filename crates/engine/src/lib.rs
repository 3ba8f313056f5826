//! `flexoffers_engine` — batched, multi-threaded evaluation over flex-offer
//! portfolios.
//!
//! The paper defines its measures per flex-offer; both of its scenarios (and
//! the ROADMAP north-star of serving millions of prosumers) evaluate them
//! over whole *portfolios*. This crate is the portfolio-scale execution
//! layer on top of the per-offer primitives:
//!
//! * [`Engine::measure_portfolio`] — every requested measure over N offers,
//!   chunked across `std::thread::scope` workers with a deterministic merge
//!   order, producing a [`PortfolioReport`];
//! * [`Engine::aggregate_portfolio`] — tolerance grouping plus per-group
//!   start-alignment aggregation, each group aggregated in parallel;
//! * [`Engine::schedule_portfolio`] — the full Scenario 1 pipeline
//!   (group → aggregate → schedule → realize) with the per-group and
//!   per-aggregate stages fanned out, bitwise identical to the sequential
//!   [`schedule_via_aggregation`](flexoffers_scheduling::schedule_via_aggregation);
//! * [`Engine::trade_portfolio`] — the full Scenario 2 pipeline
//!   (group → plan → settle) with per-aggregate parallelism, bitwise
//!   identical to the sequential
//!   [`Aggregator::run`](flexoffers_market::Aggregator::run);
//! * [`Engine::simulate`] — a [`Scenario`] (workload seed, tolerance and
//!   market knobs, scheduler choice) run end to end into a
//!   [`ScenarioReport`] with text/JSON rendering —
//!   [`Engine::simulate_portfolio`] runs the same pipelines over a
//!   caller-supplied portfolio;
//! * [`stable_shard`] — the fixed id → shard placement the serving tier's
//!   live book, the cluster router and snapshot validation share;
//! * [`parallel_map`] — the shared deterministic fan-out helper the engine
//!   and the experiment binaries use, so thread logic lives in one place.
//!
//! # Determinism
//!
//! Results are *bitwise identical* across thread counts and chunk sizes,
//! and bitwise identical to the sequential per-offer loop
//! ([`Measure::of_set`](flexoffers_measures::Measure::of_set)). Workers
//! only compute per-offer values; the reduction into set-level values
//! happens on the calling thread, in portfolio order, with the same
//! floating-point addition sequence the sequential loop performs. The
//! property suite in `tests/props.rs` pins this down.
//!
//! # Work hoisting
//!
//! Evaluating all eight measures naively recomputes the assignment-union
//! area (the dominant sub-computation) once per area measure. The engine
//! wraps each offer in a
//! [`PreparedOffer`](flexoffers_measures::PreparedOffer) exactly once per
//! pass, and every measure's `of_prepared` path reuses the cached
//! intermediates.
//!
//! # Quickstart
//!
//! ```
//! use flexoffers_engine::{Budget, Engine};
//! use flexoffers_model::{FlexOffer, Portfolio, Slice};
//!
//! let portfolio = Portfolio::from_offers(vec![
//!     FlexOffer::new(0, 2, vec![Slice::new(1, 3)?])?,
//!     FlexOffer::new(1, 5, vec![Slice::new(0, 2)?])?,
//! ]);
//! let engine = Engine::new(Budget::with_threads(2)?);
//! let report = engine.measure_portfolio_all(portfolio.as_slice());
//! assert_eq!(report.offers, 2);
//! assert_eq!(report.summaries.len(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod chunk;
pub mod engine;
pub mod report;
pub mod scenario;
pub mod scenario_report;
pub mod shard;

pub use budget::{Budget, EngineError, Kernel};
pub use chunk::{chunk_ranges, parallel_map};
pub use engine::{reduce_measure_rows, reduce_measure_values, Engine, TradeOutcome};
pub use report::{MeasureSummary, PortfolioReport};
pub use scenario::{Scenario, ScenarioError, ScenarioKind, SchedulerChoice};
pub use scenario_report::{CorrelationSummary, MarketSummary, ScenarioReport, ScheduleSummary};
pub use shard::{splitmix64, stable_shard};
