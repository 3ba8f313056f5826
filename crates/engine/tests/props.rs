//! Engine determinism properties.
//!
//! The engine's contract is that *no* scheduling knob is observable in its
//! results: any thread count, any chunk size, and the plain sequential
//! per-offer loop all produce bitwise-identical values and errors. These
//! properties drive randomly shaped portfolios (mixed signs included, so
//! the error paths get exercised) through every comparison.

use flexoffers_aggregation::{aggregate_portfolio, GroupingParams};
use flexoffers_engine::{Budget, Engine, Kernel};
use flexoffers_market::{Aggregator, SpotMarket};
use flexoffers_measures::all_measures;
use flexoffers_model::{FlexOffer, Portfolio, Slice};
use flexoffers_scheduling::{schedule_via_aggregation, GreedyScheduler, SchedulingProblem};
use flexoffers_timeseries::Series;
use proptest::prelude::*;

fn arb_flexoffer() -> impl Strategy<Value = FlexOffer> {
    (
        0i64..4,
        0i64..5,
        prop::collection::vec((-5i64..5, 0i64..5), 1..5),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(tes, window, raw, cmin_pos, cmax_pos)| {
            let slices: Vec<Slice> = raw
                .into_iter()
                .map(|(min, w)| Slice::new(min, min + w).unwrap())
                .collect();
            let pmin: i64 = slices.iter().map(Slice::min).sum();
            let pmax: i64 = slices.iter().map(Slice::max).sum();
            let cmin = pmin + ((pmax - pmin) as f64 * cmin_pos) as i64;
            let cmax = cmin + ((pmax - cmin) as f64 * cmax_pos) as i64;
            FlexOffer::with_totals(tes, tes + window, slices, cmin, cmax).unwrap()
        })
}

fn arb_portfolio() -> impl Strategy<Value = Vec<FlexOffer>> {
    prop::collection::vec(arb_flexoffer(), 0..33)
}

fn arb_target() -> impl Strategy<Value = Series<i64>> {
    prop::collection::vec(-6i64..12, 1..10).prop_map(|values| Series::new(0, values))
}

fn arb_market() -> impl Strategy<Value = SpotMarket> {
    (prop::collection::vec(0.5f64..20.0, 1..10), 1.0f64..4.0)
        .prop_map(|(prices, penalty)| SpotMarket::new(Series::new(0, prices), penalty).unwrap())
}

/// A realistic seeded workload (not just the proptest shapes): regenerating
/// the same city portfolio and measuring it at 1 vs 8 threads is
/// reproducible end to end.
#[test]
fn seeded_city_portfolio_is_reproducible_across_thread_counts() {
    let a = flexoffers_workloads::city(3, 300);
    let b = flexoffers_workloads::city(3, 300);
    assert_eq!(a, b, "same seed must regenerate the same portfolio");
    let one = Engine::sequential().measure_portfolio_all(a.as_slice());
    let eight = Engine::new(Budget::with_threads(8).unwrap()).measure_portfolio_all(b.as_slice());
    assert_eq!(one.summaries, eight.summaries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same portfolio, 1 vs N threads: identical summaries, bit for bit.
    #[test]
    fn thread_count_never_changes_results(
        fos in arb_portfolio(),
        threads in 2usize..9,
    ) {
        let one = Engine::sequential().measure_portfolio_all(&fos);
        let many = Engine::new(Budget::with_threads(threads).unwrap())
            .measure_portfolio_all(&fos);
        prop_assert_eq!(one.summaries, many.summaries);
    }

    /// Chunk size is a throughput knob only.
    #[test]
    fn chunk_size_never_changes_results(
        fos in arb_portfolio(),
        chunk in 1usize..17,
        threads in 1usize..9,
    ) {
        let default = Engine::new(Budget::with_threads(threads).unwrap())
            .measure_portfolio_all(&fos);
        let pinned = Engine::new(
            Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap(),
        )
        .measure_portfolio_all(&fos);
        prop_assert_eq!(default.summaries, pinned.summaries);
    }

    /// The engine agrees exactly with the sequential per-offer `of_set`
    /// loop — values where the loop succeeds, the same error where it
    /// short-circuits.
    #[test]
    fn engine_matches_sequential_of_set(fos in arb_portfolio()) {
        let report = Engine::new(Budget::with_threads(8).unwrap())
            .measure_portfolio_all(&fos);
        for (summary, m) in report.summaries.iter().zip(all_measures()) {
            prop_assert_eq!(
                summary.value.clone(),
                m.of_set(&fos),
                "{} diverges from its sequential loop",
                summary.measure
            );
            prop_assert_eq!(summary.evaluated + summary.failed, fos.len());
        }
    }

    /// The kernel knob is a pure throughput switch: scalar, columnar and
    /// auto produce bitwise-identical per-offer rows at any threads ×
    /// chunk combination — including chunks larger than the portfolio,
    /// empty portfolios, and singletons.
    #[test]
    fn kernel_never_changes_per_offer_rows(
        fos in arb_portfolio(),
        threads in 1usize..5,
        chunk in 1usize..40,
    ) {
        let measures = all_measures();
        let budget = |kernel| {
            Budget::with_threads(threads)
                .unwrap()
                .with_chunk_size(chunk)
                .unwrap()
                .with_kernel(kernel)
        };
        let scalar = Engine::new(budget(Kernel::Scalar)).per_offer_rows(&fos, &measures);
        let columnar = Engine::new(budget(Kernel::Columnar)).per_offer_rows(&fos, &measures);
        let auto = Engine::new(budget(Kernel::Auto)).per_offer_rows(&fos, &measures);
        prop_assert_eq!(scalar.len(), fos.len());
        prop_assert_eq!(columnar.len(), fos.len());
        for (i, (s_row, c_row)) in scalar.iter().zip(&columnar).enumerate() {
            prop_assert_eq!(s_row.len(), c_row.len());
            for (j, (s, c)) in s_row.iter().zip(c_row).enumerate() {
                match (s, c) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "offer {} measure {}: {} vs {}", i, j, a, b
                    ),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => prop_assert!(
                        false,
                        "offer {} measure {}: {:?} vs {:?}", i, j, a, b
                    ),
                }
            }
        }
        prop_assert_eq!(&columnar, &auto);
    }

    /// Every kernel's chunked baseline partials merge to exactly the
    /// market crate's sequential earliest-start baseline.
    #[test]
    fn baseline_kernels_agree_with_the_market_baseline(
        fos in arb_portfolio(),
        threads in 1usize..5,
        chunk in 1usize..40,
    ) {
        let reference = flexoffers_market::baseline_load(&fos);
        for kernel in [Kernel::Scalar, Kernel::Columnar, Kernel::Auto] {
            let engine = Engine::new(
                Budget::with_threads(threads)
                    .unwrap()
                    .with_chunk_size(chunk)
                    .unwrap()
                    .with_kernel(kernel),
            );
            prop_assert_eq!(
                engine.baseline_load_parallel(&fos),
                reference.clone(),
                "kernel {:?}", kernel
            );
        }
    }

    /// Parallel grouping + aggregation reproduces the sequential
    /// `aggregate_portfolio` exactly, group order included.
    #[test]
    fn parallel_aggregation_matches_sequential(
        fos in arb_portfolio(),
        est in 0i64..6,
        tft in 0i64..6,
        threads in 1usize..9,
    ) {
        let params = GroupingParams::with_tolerances(est, tft);
        let parallel = Engine::new(Budget::with_threads(threads).unwrap())
            .aggregate_portfolio(&fos, &params);
        prop_assert_eq!(parallel, aggregate_portfolio(&fos, &params));
    }

    /// The parallel Scenario 1 pipeline reproduces the sequential
    /// `schedule_via_aggregation` exactly — schedule, aggregate count and
    /// unrealizable count — at any thread count.
    #[test]
    fn schedule_portfolio_matches_sequential_pipeline(
        fos in arb_portfolio(),
        target in arb_target(),
        est in 0i64..6,
        tft in 0i64..6,
        threads in 1usize..9,
    ) {
        let problem = SchedulingProblem::new(fos, target);
        let params = GroupingParams::with_tolerances(est, tft);
        let scheduler = GreedyScheduler::new();
        let sequential = schedule_via_aggregation(&problem, &params, &scheduler).unwrap();
        let parallel = Engine::new(Budget::with_threads(threads).unwrap())
            .schedule_portfolio(&problem, &params, &scheduler)
            .unwrap();
        prop_assert_eq!(&parallel, &sequential);
        prop_assert!(problem.is_feasible(&parallel.schedule));
    }

    /// Scheduling knobs (threads, chunk size) are throughput-only for the
    /// Scenario 1 pipeline: 1 thread vs N threads vs a pinned chunk size
    /// all match bit for bit.
    #[test]
    fn schedule_portfolio_thread_and_chunk_invariance(
        fos in arb_portfolio(),
        target in arb_target(),
        threads in 2usize..9,
        chunk in 1usize..17,
    ) {
        let problem = SchedulingProblem::new(fos, target);
        let params = GroupingParams::with_tolerances(2, 2);
        let scheduler = GreedyScheduler::new();
        let one = Engine::sequential()
            .schedule_portfolio(&problem, &params, &scheduler)
            .unwrap();
        let many = Engine::new(Budget::with_threads(threads).unwrap())
            .schedule_portfolio(&problem, &params, &scheduler)
            .unwrap();
        let pinned = Engine::new(
            Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap(),
        )
        .schedule_portfolio(&problem, &params, &scheduler)
        .unwrap();
        prop_assert_eq!(&one, &many);
        prop_assert_eq!(&one, &pinned);
    }

    /// The parallel Scenario 2 pipeline reproduces the sequential
    /// `Aggregator::run` exactly — orders, all cost accumulators, the
    /// baseline — at any thread count and chunk size.
    #[test]
    fn trade_portfolio_matches_sequential_aggregator(
        fos in arb_portfolio(),
        market in arb_market(),
        est in 0i64..6,
        tft in 0i64..6,
        min_lot in 0i64..8,
        threads in 1usize..9,
        chunk in 1usize..17,
    ) {
        let portfolio = Portfolio::from_offers(fos);
        let aggregator = Aggregator::new(GroupingParams::with_tolerances(est, tft), min_lot);
        let sequential = aggregator.run(&portfolio, &market);
        let budget = Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap();
        let traded = Engine::new(budget).trade_portfolio(&portfolio, &aggregator, &market);
        prop_assert_eq!(&traded.outcome, &sequential);
        prop_assert_eq!(
            traded.aggregates,
            traded.outcome.orders.len() + traded.outcome.rejected_lots
        );
    }
}
