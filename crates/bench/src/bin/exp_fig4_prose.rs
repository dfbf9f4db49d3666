//! E2 — the **Figure 4** experiment: extraction quality on *prose*
//! weather pages ("the best precision in the extraction of temperatures
//! and dates is obtained for [the prose] URL … because temperatures …
//! and dates … are clearly identified").
//!
//! For every city the pipeline asks one question per day of the month and
//! the extracted (temperature, date, city) tuples are scored against the
//! generator's ground truth, across several corpus seeds.

use dwqa_bench::{build_fixture, daily_questions, section, FixtureConfig};
use dwqa_common::Month;
use dwqa_core::{evaluate_temperatures, ExtractionEval};
use dwqa_corpus::PageStyle;
use dwqa_engine::QaEngine;
use dwqa_obs::names;

fn main() {
    section("Figure 4 — extraction from prose weather pages");
    println!("seed | city        | precision | recall |   f1");
    println!("-----+-------------+-----------+--------+------");
    let mut overall = ExtractionEval::default();
    for seed in [42u64, 7, 1234] {
        let fx = build_fixture(FixtureConfig {
            seed,
            styles: vec![PageStyle::Prose],
            ..FixtureConfig::default()
        });
        // One engine per fixture: the per-day questions for a city go in
        // as one batch, answered by the worker pool in input order.
        let engine = QaEngine::new(&fx.pipeline);
        let mut distinct: Vec<&str> = Vec::new();
        for c in &fx.cities {
            if !distinct.contains(&c.city) {
                distinct.push(c.city);
            }
        }
        for city in distinct {
            // CLEF-style: the system's answer to a question is its top
            // candidate.
            let batch = daily_questions(city, 2004, Month::January);
            let answers: Vec<_> = engine
                .answer_batch(&batch)
                .into_iter()
                .filter_map(|a| a.into_iter().next())
                .collect();
            let expected: Vec<(String, dwqa_common::Date)> =
                dwqa_common::Date::month_days(2004, Month::January)
                    .map(|d| (city.to_owned(), d))
                    .collect();
            let eval =
                evaluate_temperatures(&answers, |c, d| fx.truth.temperature(c, d), &expected, 0.51);
            println!(
                "{seed:>4} | {city:<11} | {:>9.3} | {:>6.3} | {:>5.3}",
                eval.precision(),
                eval.recall(),
                eval.f1()
            );
            overall.merge(&eval);
        }
        let m = engine.metrics();
        println!(
            "     ({} questions on {} worker(s): analyze {} µs, passages {} µs, extract {} µs mean)",
            m.counter_value(names::QUESTIONS),
            engine.workers(),
            m.histogram(names::STAGE_ANALYZE).mean_us(),
            m.histogram(names::STAGE_PASSAGES).mean_us(),
            m.histogram(names::STAGE_EXTRACT).mean_us()
        );
    }
    section("Overall (all seeds, all cities)");
    println!(
        "precision = {:.3}   recall = {:.3}   f1 = {:.3}   (TP={}, FP={}, FN={})",
        overall.precision(),
        overall.recall(),
        overall.f1(),
        overall.true_positives,
        overall.false_positives,
        overall.false_negatives
    );
    println!(
        "\nPaper claim: prose pages yield the *best* precision — compare with exp_fig5_tables."
    );
}
