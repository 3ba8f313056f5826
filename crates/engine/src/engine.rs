//! The batched evaluation pipeline itself.

use std::time::Instant;

use flexoffers_aggregation::{aggregate_indices, group_indices, Aggregate, GroupingParams};
use flexoffers_market::{baseline_load, Aggregator, LotDecision, SpotMarket};
use flexoffers_measures::{
    all_measures, ColumnarBatch, Measure, MeasureError, PreparedOffer, SetAggregation,
};
use flexoffers_model::{Assignment, FlexOffer, Portfolio};
use flexoffers_scheduling::{
    assemble_member_schedule, realize_aggregate, PipelineOutcome, Scheduler, SchedulingError,
    SchedulingProblem,
};
use flexoffers_timeseries::ops::sum_series;
use flexoffers_timeseries::Series;

use crate::budget::{Budget, Kernel};
use crate::chunk::{chunk_ranges, parallel_map};
use crate::report::{MeasureSummary, PortfolioReport};

/// Result of [`Engine::trade_portfolio`]: the settled market outcome plus
/// pipeline context.
#[derive(Clone, Debug, PartialEq)]
pub struct TradeOutcome {
    /// The settled market outcome — bitwise identical to the sequential
    /// [`Aggregator::run`] on the same inputs.
    pub outcome: flexoffers_market::MarketOutcome,
    /// Number of aggregates the grouping produced (admitted + rejected).
    pub aggregates: usize,
}

/// A portfolio-scale evaluator with a fixed [`Budget`].
///
/// The engine is a pure scheduler: all semantics live in the per-offer
/// primitives it drives ([`Measure::of_prepared`],
/// [`aggregate_indices`]), and every knob changes throughput only — see
/// the crate docs for the determinism guarantee.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    budget: Budget,
}

impl Engine {
    /// An engine over the given budget.
    pub fn new(budget: Budget) -> Self {
        Self { budget }
    }

    /// A single-threaded engine.
    pub fn sequential() -> Self {
        Self::new(Budget::sequential())
    }

    /// An engine sized to the host (see [`Budget::detected`]).
    pub fn detected() -> Self {
        Self::new(Budget::detected())
    }

    /// The engine's budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Evaluates `measures` over every offer and reduces to set-level
    /// values, exactly as the sequential
    /// [`Measure::of_set`] loop would — same values, same errors, same
    /// floating-point addition order — but with the per-offer work chunked
    /// across worker threads and each offer prepared once
    /// ([`PreparedOffer`]) for all measures.
    pub fn measure_portfolio(
        &self,
        offers: &[FlexOffer],
        measures: &[Box<dyn Measure>],
    ) -> PortfolioReport {
        let started = Instant::now();
        let chunk_size = self.budget.chunk_size_for(offers.len());
        let summaries = if self.use_columnar(measures) {
            // Columnar fast path: workers hand back measure-major columns
            // per chunk and each measure's fold walks the chunks in range
            // order — the same per-offer value sequence the row-major
            // reduction sees, without ever materialising a row.
            let ranges = chunk_ranges(offers.len(), chunk_size);
            let chunked: Vec<Vec<Vec<Result<f64, MeasureError>>>> =
                parallel_map(&ranges, self.budget.threads(), |range| {
                    ColumnarBatch::new().columns(&offers[range.clone()], measures)
                });
            measures
                .iter()
                .enumerate()
                .map(|(j, m)| {
                    reduce_measure_values(
                        m.as_ref(),
                        offers.len(),
                        chunked.iter().flat_map(|columns| columns[j].iter()),
                    )
                })
                .collect()
        } else {
            let rows = self.per_offer_rows(offers, measures);
            reduce_measure_rows(measures, &rows)
        };

        PortfolioReport {
            offers: offers.len(),
            threads: self.budget.threads(),
            chunk_size,
            elapsed: started.elapsed(),
            summaries,
        }
    }

    /// [`Engine::measure_portfolio`] over the paper's eight measures.
    pub fn measure_portfolio_all(&self, offers: &[FlexOffer]) -> PortfolioReport {
        self.measure_portfolio(offers, &all_measures())
    }

    /// Per-offer values of `measures` over `offers` — each offer prepared
    /// once ([`PreparedOffer`]), work chunked across workers, rows merged
    /// in portfolio order. The single prepared-evaluation hot loop behind
    /// both the measurement pass and the scenario correlations; nothing is
    /// reduced off the calling thread.
    ///
    /// Each row is a pure function of its offer alone (no cross-offer
    /// arithmetic), so rows computed per live shard and gathered in
    /// portfolio order are bitwise the rows of one flat pass, ready for
    /// [`reduce_measure_rows`].
    pub fn per_offer_rows(
        &self,
        offers: &[FlexOffer],
        measures: &[Box<dyn Measure>],
    ) -> Vec<Vec<Result<f64, MeasureError>>> {
        let chunk_size = self.budget.chunk_size_for(offers.len());
        let ranges = chunk_ranges(offers.len(), chunk_size);
        type Row = Vec<Result<f64, MeasureError>>;
        let chunks: Vec<Vec<Row>> = if self.use_columnar(measures) {
            parallel_map(&ranges, self.budget.threads(), |range| {
                ColumnarBatch::new().rows(&offers[range.clone()], measures)
            })
        } else {
            parallel_map(&ranges, self.budget.threads(), |range| {
                offers[range.clone()]
                    .iter()
                    .map(|fo| {
                        let prepared = PreparedOffer::new(fo);
                        measures.iter().map(|m| m.of_prepared(&prepared)).collect()
                    })
                    .collect()
            })
        };
        chunks.into_iter().flatten().collect()
    }

    /// Per-offer values of `measures` over `offers`, measure-major:
    /// `columns[j][i]` is measure `j` on offer `i` — the layout
    /// [`ColumnarBatch::columns`] produces and the serving tier caches per
    /// shard. The budget's [`Kernel`] picks the columnar kernels or the
    /// scalar prepared-offer loop, exactly as for
    /// [`Engine::per_offer_rows`]. On a single-threaded columnar budget the
    /// whole slice runs as one batch inside the caller-owned `arena`, whose
    /// buffers survive the call, so a worker that keeps its arena does no
    /// steady-state kernel allocation; any other budget chunks the slice
    /// across workers and leaves `arena` untouched. Each value is a pure
    /// function of its offer, so batching cannot change a bit.
    pub fn per_offer_columns_in(
        &self,
        arena: &mut ColumnarBatch,
        offers: &[FlexOffer],
        measures: &[Box<dyn Measure>],
    ) -> Vec<Vec<Result<f64, MeasureError>>> {
        let columnar = self.use_columnar(measures);
        if self.budget.threads() <= 1 && columnar {
            return arena.columns(offers, measures);
        }
        let ranges = chunk_ranges(offers.len(), self.budget.chunk_size_for(offers.len()));
        let chunked = parallel_map(&ranges, self.budget.threads(), |range| {
            let chunk = &offers[range.clone()];
            if columnar {
                return ColumnarBatch::new().columns(chunk, measures);
            }
            let mut columns: Vec<Vec<Result<f64, MeasureError>>> = measures
                .iter()
                .map(|_| Vec::with_capacity(chunk.len()))
                .collect();
            for fo in chunk {
                let prepared = PreparedOffer::new(fo);
                for (column, m) in columns.iter_mut().zip(measures) {
                    column.push(m.of_prepared(&prepared));
                }
            }
            columns
        });
        (0..measures.len())
            .map(|j| {
                chunked
                    .iter()
                    .flat_map(|columns| columns[j].iter().cloned())
                    .collect()
            })
            .collect()
    }

    /// Whether this budget's [`Kernel`] resolves to the columnar path for
    /// the given measure set: never for [`Kernel::Scalar`], always for
    /// [`Kernel::Columnar`] (kernel-less measures fall back per offer
    /// inside the batch), and for [`Kernel::Auto`] only when the set is
    /// non-empty and every measure advertises a columnar kernel.
    fn use_columnar(&self, measures: &[Box<dyn Measure>]) -> bool {
        match self.budget.kernel() {
            Kernel::Scalar => false,
            Kernel::Columnar => true,
            Kernel::Auto => {
                !measures.is_empty() && measures.iter().all(|m| m.columnar_kernel().is_some())
            }
        }
    }

    /// Groups `offers` under `params` and start-alignment-aggregates each
    /// group, groups fanned out across worker threads. Output order (and
    /// content) is identical to the sequential
    /// [`flexoffers_aggregation::aggregate_portfolio`].
    pub fn aggregate_portfolio(
        &self,
        offers: &[FlexOffer],
        params: &GroupingParams,
    ) -> Vec<Aggregate> {
        let groups = group_indices(offers, params);
        parallel_map(&groups, self.budget.threads(), |indices| {
            aggregate_indices(offers, indices).expect("grouping never yields empty groups")
        })
    }

    /// The full Scenario 1 pipeline at portfolio scale: group with
    /// `params`, aggregate every tolerance group in parallel, schedule the
    /// (much smaller) aggregate problem with `scheduler` on the calling
    /// thread, then realize every aggregate's plan at member level in
    /// parallel — each aggregate's scheduled load is its partition of the
    /// residual target, and
    /// [`realize_aggregate`] fits members against exactly that partition
    /// when the plan proves unrealizable.
    ///
    /// The parallel units are the tolerance groups (a pure function of the
    /// portfolio, never of the budget), and the merge scatters member
    /// assignments back to input positions in group order, so the outcome
    /// is **bitwise identical** at any thread count and chunk size — and
    /// bitwise identical to the sequential
    /// [`flexoffers_scheduling::schedule_via_aggregation`].
    pub fn schedule_portfolio(
        &self,
        problem: &SchedulingProblem,
        params: &GroupingParams,
        scheduler: &dyn Scheduler,
    ) -> Result<PipelineOutcome, SchedulingError> {
        let offers = problem.offers();
        let groups = group_indices(offers, params);
        let aggregates: Vec<Aggregate> = parallel_map(&groups, self.budget.threads(), |indices| {
            aggregate_indices(offers, indices).expect("grouping never yields empty groups")
        });
        let outcome = self.schedule_aggregates(
            &aggregates,
            &groups,
            offers.len(),
            problem.target(),
            scheduler,
        )?;
        debug_assert!(problem.is_feasible(&outcome.schedule));
        Ok(outcome)
    }

    /// The back half of the Scenario 1 pipeline, starting from
    /// already-computed aggregates and their member groups: schedule the
    /// reduced problem on the calling thread, realize every aggregate's
    /// plan at member level in parallel, and scatter the member
    /// assignments back to input positions. One implementation behind
    /// [`Engine::schedule_portfolio`] and the serving tier's incremental
    /// schedule query — so the pipeline's stages cannot drift between the
    /// flat and live paths.
    pub fn schedule_aggregates(
        &self,
        aggregates: &[Aggregate],
        groups: &[Vec<usize>],
        offers_len: usize,
        target: &Series<i64>,
        scheduler: &dyn Scheduler,
    ) -> Result<PipelineOutcome, SchedulingError> {
        let reduced = SchedulingProblem::new(
            aggregates.iter().map(|a| a.flexoffer().clone()).collect(),
            target.clone(),
        );
        let aggregate_schedule = scheduler.schedule(&reduced)?;

        let planned: Vec<(&Aggregate, &Assignment)> = aggregates
            .iter()
            .zip(aggregate_schedule.assignments())
            .collect();
        let realized: Vec<(Vec<Assignment>, bool)> =
            parallel_map(&planned, self.budget.threads(), |(agg, assignment)| {
                realize_aggregate(agg, assignment)
            });

        Ok(assemble_member_schedule(offers_len, groups, realized))
    }

    /// The full Scenario 2 pipeline at portfolio scale: group and
    /// aggregate in parallel ([`Engine::aggregate_portfolio`]), evaluate
    /// every aggregate against the market in parallel
    /// ([`Aggregator::evaluate`]: admission, planning, realizability), and
    /// settle the decisions on the calling thread in aggregate order.
    ///
    /// The baseline load is summed in parallel over portfolio chunks —
    /// integer series addition is exact, so chunking cannot perturb it —
    /// and the settlement fold reproduces the sequential accumulation
    /// order, making the outcome **bitwise identical** to
    /// [`Aggregator::run`] at any thread count and chunk size.
    pub fn trade_portfolio(
        &self,
        portfolio: &Portfolio,
        aggregator: &Aggregator,
        market: &SpotMarket,
    ) -> TradeOutcome {
        let offers = portfolio.as_slice();
        let aggregates = self.aggregate_portfolio(offers, &aggregator.grouping);
        let decisions: Vec<LotDecision> = parallel_map(&aggregates, self.budget.threads(), |agg| {
            aggregator.evaluate(agg, market)
        });
        let baseline_cost = market.cost_of(&self.baseline_load_parallel(offers));
        TradeOutcome {
            outcome: Aggregator::settle(decisions, baseline_cost, market),
            aggregates: aggregates.len(),
        }
    }

    /// The portfolio's no-flexibility baseline load, chunked across
    /// workers. Partial sums are integer series, so the chunked total is
    /// exactly [`baseline_load`] over the whole slice — and exactly the
    /// fold of any other partition's partials (the serving tier caches one
    /// partial per shard and sums them on every trade query).
    pub fn baseline_load_parallel(&self, offers: &[FlexOffer]) -> Series<i64> {
        let chunk_size = self.budget.chunk_size_for(offers.len());
        let ranges = chunk_ranges(offers.len(), chunk_size);
        let partials = if self.budget.kernel() == Kernel::Scalar {
            parallel_map(&ranges, self.budget.threads(), |range| {
                baseline_load(&offers[range.clone()])
            })
        } else {
            // The baseline always has a columnar form, so Auto picks it.
            parallel_map(&ranges, self.budget.threads(), |range| {
                ColumnarBatch::new().baseline_partial(&offers[range.clone()])
            })
        };
        sum_series(partials.iter())
    }

    /// [`Engine::baseline_load_parallel`] through a caller-owned columnar
    /// arena — the baseline counterpart of [`Engine::per_offer_columns_in`],
    /// with the same single-threaded-columnar arena reuse and the same
    /// bitwise-identity guarantee (the columnar partial reproduces the
    /// scalar fold's series representation exactly).
    pub fn baseline_load_parallel_in(
        &self,
        arena: &mut ColumnarBatch,
        offers: &[FlexOffer],
    ) -> Series<i64> {
        if self.budget.threads() <= 1 && self.budget.kernel() != Kernel::Scalar {
            arena.baseline_partial(offers)
        } else {
            self.baseline_load_parallel(offers)
        }
    }
}

/// The deterministic merge behind [`Engine::measure_portfolio`]: rows
/// arrive in portfolio order, and each measure's reduction walks offers in
/// that order, mirroring its [`Measure::of_set`] semantics (short-circuit
/// on the first error; sum, or average for relative area). Keeping the
/// reduction in one function is what makes flat and *incrementally
/// cached* measurement (the serving tier feeds it rows gathered from
/// per-shard caches) bitwise identical by construction.
pub fn reduce_measure_rows(
    measures: &[Box<dyn Measure>],
    rows: &[Vec<Result<f64, MeasureError>>],
) -> Vec<MeasureSummary> {
    measures
        .iter()
        .enumerate()
        .map(|(j, m)| reduce_measure_values(m.as_ref(), rows.len(), rows.iter().map(|row| &row[j])))
        .collect()
}

/// One measure's reduction over its per-offer values in portfolio order —
/// the shared fold behind [`reduce_measure_rows`] (row-major input), the
/// engine's columnar fast path, and the serving tier's per-shard columns
/// (measure-major input: the caller walks one measure's column in
/// portfolio order, so no row is ever materialised). `offer_count` is the
/// portfolio size the values were drawn from; the fold consumes exactly
/// one value per offer.
pub fn reduce_measure_values<'a>(
    m: &dyn Measure,
    offer_count: usize,
    values: impl Iterator<Item = &'a Result<f64, MeasureError>>,
) -> MeasureSummary {
    let mut total = 0.0;
    let mut first_error: Option<MeasureError> = None;
    let mut evaluated = 0usize;
    let mut failed = 0usize;
    let mut min: Option<f64> = None;
    let mut max: Option<f64> = None;
    for value in values {
        match value {
            Ok(v) => {
                evaluated += 1;
                min = Some(min.map_or(*v, |m| m.min(*v)));
                max = Some(max.map_or(*v, |m| m.max(*v)));
                if first_error.is_none() {
                    total += v;
                }
            }
            Err(e) => {
                failed += 1;
                if first_error.is_none() {
                    first_error = Some(e.clone());
                }
            }
        }
    }
    let value = match first_error {
        Some(e) => Err(e),
        None => match m.set_aggregation() {
            SetAggregation::Sum => Ok(total),
            SetAggregation::Average => {
                if offer_count == 0 {
                    Err(MeasureError::EmptySet {
                        measure: m.short_name(),
                    })
                } else {
                    Ok(total / offer_count as f64)
                }
            }
        },
    };
    MeasureSummary {
        measure: m.short_name(),
        value,
        evaluated,
        failed,
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn offers() -> Vec<FlexOffer> {
        vec![
            FlexOffer::new(0, 2, vec![Slice::new(1, 3).unwrap()]).unwrap(),
            FlexOffer::new(1, 5, vec![Slice::new(0, 2).unwrap()]).unwrap(),
            FlexOffer::new(2, 4, vec![Slice::new(-3, -1).unwrap()]).unwrap(),
        ]
    }

    #[test]
    fn matches_sequential_of_set_exactly() {
        let fos = offers();
        let report = Engine::new(Budget::with_threads(3).unwrap()).measure_portfolio_all(&fos);
        for (summary, m) in report.summaries.iter().zip(all_measures()) {
            assert_eq!(summary.value, m.of_set(&fos), "{}", summary.measure);
            assert_eq!(summary.evaluated + summary.failed, fos.len());
        }
    }

    #[test]
    fn empty_portfolio_reduces_like_of_set() {
        let report = Engine::sequential().measure_portfolio_all(&[]);
        assert_eq!(report.offers, 0);
        for (summary, m) in report.summaries.iter().zip(all_measures()) {
            assert_eq!(summary.value, m.of_set(&[]), "{}", summary.measure);
        }
    }

    #[test]
    fn mixed_offer_short_circuits_like_of_set() {
        // A mixed flex-offer makes the strict measures error; the engine
        // must surface the same error of_set does.
        let mut fos = offers();
        fos.push(FlexOffer::new(0, 1, vec![Slice::new(-1, 1).unwrap()]).unwrap());
        let strict: Vec<Box<dyn Measure>> = vec![Box::new(
            flexoffers_measures::AbsoluteAreaFlexibility::rejecting_mixed(),
        )];
        let report = Engine::detected().measure_portfolio(&fos, &strict);
        assert_eq!(report.summaries[0].value, strict[0].of_set(&fos));
        assert!(report.summaries[0].value.is_err());
        assert_eq!(report.summaries[0].failed, 1);
    }

    #[test]
    fn schedule_portfolio_matches_sequential_pipeline() {
        use flexoffers_scheduling::{schedule_via_aggregation, GreedyScheduler};
        let fos = offers();
        let problem = SchedulingProblem::new(fos, Series::new(0, vec![4, 4, 2, 2, 1]));
        for params in [
            GroupingParams::strict(),
            GroupingParams::single_group(),
            GroupingParams::with_tolerances(2, 2),
        ] {
            let sequential =
                schedule_via_aggregation(&problem, &params, &GreedyScheduler::new()).unwrap();
            let parallel = Engine::new(Budget::with_threads(4).unwrap())
                .schedule_portfolio(&problem, &params, &GreedyScheduler::new())
                .unwrap();
            assert_eq!(parallel, sequential);
            assert!(problem.is_feasible(&parallel.schedule));
        }
    }

    #[test]
    fn trade_portfolio_matches_sequential_aggregator() {
        use flexoffers_market::SpotMarket;
        let portfolio = Portfolio::from_offers(offers());
        let market = SpotMarket::new(Series::new(0, vec![2.0, 5.0, 3.0, 1.5, 4.0]), 2.0).unwrap();
        for params in [
            GroupingParams::strict(),
            GroupingParams::single_group(),
            GroupingParams::with_tolerances(2, 2),
        ] {
            let aggregator = Aggregator::new(params, 3);
            let sequential = aggregator.run(&portfolio, &market);
            let traded = Engine::new(Budget::with_threads(4).unwrap()).trade_portfolio(
                &portfolio,
                &aggregator,
                &market,
            );
            assert_eq!(traded.outcome, sequential);
            assert_eq!(
                traded.aggregates,
                traded.outcome.orders.len() + traded.outcome.rejected_lots
            );
        }
    }

    #[test]
    fn parallel_aggregation_matches_sequential() {
        let fos = offers();
        for params in [
            GroupingParams::strict(),
            GroupingParams::single_group(),
            GroupingParams::with_tolerances(1, 2),
        ] {
            let parallel =
                Engine::new(Budget::with_threads(4).unwrap()).aggregate_portfolio(&fos, &params);
            let sequential = flexoffers_aggregation::aggregate_portfolio(&fos, &params);
            assert_eq!(parallel, sequential);
        }
    }
}
