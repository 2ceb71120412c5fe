//! Property-based cross-strategy and cross-evaluator equivalence: the
//! invariants behind `fig:exp3_strategies` and `fig:exp5_windows`, checked
//! on randomized workloads.

use std::sync::Arc;

use datacell::catalog::StreamCatalog;
use datacell::factory::FactoryOutput;
use datacell::scheduler::{Scheduler, Transition};
use datacell::strategy::{deploy, RangeQuery, Strategy};
use datacell::window::BasicWindowAgg;
use datacell::window_join::WindowJoin;
use datacell_bat::aggregate::AggFunc;
use datacell_bat::types::{DataType, Value};
use datacell_sql::Schema;
use parking_lot::RwLock;
use proptest::prelude::*;

fn run_strategy(
    strategy: Strategy,
    data: &[i64],
    ranges: &[(i64, i64)],
    batch: usize,
) -> Vec<Vec<i64>> {
    let catalog = Arc::new(RwLock::new(StreamCatalog::new()));
    let scheduler = Scheduler::new(Arc::clone(&catalog));
    let queries: Vec<RangeQuery> = ranges
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| RangeQuery::new(format!("q{i}"), "v", lo, hi))
        .collect();
    let deployment = {
        let mut cat = catalog.write();
        deploy(
            &mut cat,
            &scheduler,
            strategy,
            "s",
            Schema::new(vec![("v".into(), DataType::Int)]),
            &queries,
        )
        .unwrap()
    };
    let rows: Vec<Vec<Value>> = data.iter().map(|&v| vec![Value::Int(v)]).collect();
    for chunk in rows.chunks(batch.max(1)) {
        deployment.ingest_rows(chunk).unwrap();
        scheduler.run_until_quiescent(100_000);
    }
    deployment
        .outputs
        .iter()
        .map(|(_, b)| {
            let mut vals = b.snapshot().columns[0].as_ints().unwrap().to_vec();
            vals.sort_unstable();
            vals
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn strategies_agree_on_random_workloads(
        data in prop::collection::vec(0i64..300, 1..400),
        batch in 1usize..64,
        n_queries in 1usize..6,
    ) {
        // Disjoint adjacent ranges so cascading is applicable.
        let width = 300 / n_queries as i64;
        let ranges: Vec<(i64, i64)> = (0..n_queries as i64)
            .map(|i| (i * width, (i + 1) * width - 1))
            .collect();
        let sep = run_strategy(Strategy::SeparateBaskets, &data, &ranges, batch);
        let sha = run_strategy(Strategy::SharedBaskets, &data, &ranges, batch);
        let cas = run_strategy(Strategy::CascadingBaskets, &data, &ranges, batch);
        prop_assert_eq!(&sep, &sha);
        prop_assert_eq!(&sha, &cas);
        // Oracle: every qualifying value appears in the right output.
        for (qi, &(lo, hi)) in ranges.iter().enumerate() {
            let mut want: Vec<i64> = data
                .iter()
                .copied()
                .filter(|v| (lo..=hi).contains(v))
                .collect();
            want.sort_unstable();
            prop_assert_eq!(&sep[qi], &want);
        }
    }

    #[test]
    fn window_evaluators_agree_on_random_streams(
        data in prop::collection::vec(-100i64..100, 1..600),
        slide in 1usize..20,
        multiple in 1usize..10,
        batch in 1usize..100,
    ) {
        let size = slide * multiple;
        let mut cat = StreamCatalog::new();
        let re_in = cat
            .create_basket("w", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let re_out = cat
            .create_basket("ro", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();
        let inc_in = cat
            .create_basket("w2", Schema::new(vec![("v".into(), DataType::Int)]))
            .unwrap();
        let inc_out = cat
            .create_basket("io", Schema::new(vec![("value".into(), DataType::Int)]))
            .unwrap();
        let re = WindowJoin::compile(
            "re",
            &format!("select sum(w.v) as value from w [rows {size} slide {slide}]"),
            &cat,
            FactoryOutput::Basket(Arc::clone(&re_out)),
        )
        .unwrap();
        let inc = BasicWindowAgg::new(
            "inc",
            Arc::clone(&inc_in),
            "v",
            AggFunc::Sum,
            None,
            size,
            slide,
            Arc::clone(&inc_out),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = data.iter().map(|&v| vec![Value::Int(v)]).collect();
        for chunk in rows.chunks(batch) {
            re_in.append_rows(chunk).unwrap();
            re.step(None).unwrap();
            inc_in.append_rows(chunk).unwrap();
            inc.step(None).unwrap();
        }
        let revals = re_out.snapshot().columns[0].as_ints().unwrap().to_vec();
        let incvals = inc_out.snapshot().columns[0].as_ints().unwrap().to_vec();
        prop_assert_eq!(&revals, &incvals);
        // Oracle for the first window, if any.
        if data.len() >= size {
            prop_assert_eq!(revals[0], data[..size].iter().sum::<i64>());
        }
    }
}
