//! Flex-offer aggregation and disaggregation.
//!
//! Scenario 1 of Valsomatzis et al. (EDBT 2015): scheduling complexity is
//! tamed by aggregating many small flex-offers into few large ones while
//! "retaining as much as possible of their flexibility" — and the paper's
//! measures exist precisely to quantify what aggregation loses. This crate
//! implements the machinery the paper references:
//!
//! * **start-alignment aggregation** ([`start_align`]) after Šikšnys et al.
//!   (SSDBM 2012): members are locked at their earliest-start alignment, the
//!   aggregate keeps the *minimum* time flexibility and the *sum* of energy
//!   profiles and total constraints;
//! * **tolerance-based grouping** ([`group`]): partitioning a portfolio by
//!   earliest-start and time-flexibility tolerances before aggregating, the
//!   knob the flexibility-loss experiment (EXPERIMENTS.md, E1) sweeps;
//! * **disaggregation** ([`disaggregate`]): translating an assignment of the
//!   aggregate back into one valid assignment per member — greedy with
//!   feasibility lookahead, falling back to an exact feasible-flow solver
//!   ([`flow`]) because aggregates of members with heterogeneous *total*
//!   constraints can admit assignments that no member combination realises
//!   (an overestimation documented in the tests);
//! * **balance-aware grouping** ([`balance`]) after Valsomatzis et al.
//!   (DARE 2014): pairing production with consumption so aggregates
//!   pre-balance — which makes them *mixed* and demonstrates Section 4's
//!   point that area measures cannot value such aggregates;
//! * **flexibility-loss evaluation** ([`loss`]) across all eight measures;
//! * **measure-aware aggregation** ([`measure_aware`]) — the paper's future
//!   work (§6): grouping whose merge criterion *is* a flexibility measure,
//!   bounding the measured loss instead of fixed tolerances.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod balance;
pub mod disaggregate;
pub mod error;
pub mod flow;
pub mod group;
pub mod loss;
pub mod measure_aware;
pub mod start_align;

pub use balance::{balance_aggregate, balance_groups};
pub use error::{AggregationError, DisaggregationError};
pub use group::{group_indices, group_keys, group_offers, GroupingParams, KeyIndex};
pub use loss::{flexibility_loss, loss_table, LossReport};
pub use measure_aware::{MeasureAwareError, MeasureAwareGrouping};
pub use start_align::{
    aggregate, aggregate_indices, aggregate_portfolio, aggregate_refs, Aggregate,
};
