//! Tests for the `ssd-workload` harness (SSD06x band):
//!
//! * the seeded generator is a pure function of its config — the same
//!   seed yields a byte-identical op stream however it is consumed, and
//!   the fingerprint witnesses exactly that stream;
//! * deterministic replay against the pure scheduler yields an
//!   identical admission decision trace for a fixed seed;
//! * the regression checker raises SSD060 on scenario errors, SSD061 on
//!   regressions beyond tolerance, and SSD062 (warning) when the
//!   baseline is not comparable;
//! * a small end-to-end `run_bench` against a real server completes
//!   every scenario class without unexpected errors and reproduces both
//!   determinism witnesses on a second run.

use proptest::prelude::*;
use ssd_workload::gen::{self, GenConfig, GenOp, Generator};
use ssd_workload::scenario::ALL;
use ssd_workload::{check_against_baseline, replay, DriveConfig, Scenario};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ identical op stream, whether drained in one pass or
    /// in arbitrary chunk sizes; different seed ⇒ different fingerprint.
    #[test]
    fn generator_is_deterministic(
        scale in 500u64..6_000,
        seed in 0u64..1_000,
        chunk in 1usize..97,
    ) {
        let cfg = GenConfig::new(scale, seed);
        let all: Vec<GenOp> = Generator::new(cfg.clone()).collect();

        // Chunked consumption: pull `chunk` ops at a time through a
        // persistent iterator; the stream must not depend on pull shape.
        let mut chunked = Vec::with_capacity(all.len());
        let mut it = Generator::new(cfg.clone());
        loop {
            let batch: Vec<GenOp> = it.by_ref().take(chunk).collect();
            if batch.is_empty() {
                break;
            }
            chunked.extend(batch);
        }
        prop_assert_eq!(&all, &chunked);

        // The fingerprint is a function of exactly that stream.
        let fp = gen::fingerprint(&cfg);
        prop_assert_eq!(fp, gen::fingerprint(&cfg));
        let other = GenConfig::new(scale, seed ^ 0x5bd1_e995);
        prop_assert_ne!(fp, gen::fingerprint(&other));
    }

    /// Structural invariants of the stream: node ids are emitted
    /// sequentially before use, edge count tracks the scale target, and
    /// a positive cycle density produces backward `References` edges.
    #[test]
    fn generator_stream_is_well_formed(scale in 500u64..6_000, seed in 0u64..1_000) {
        let cfg = GenConfig::new(scale, seed);
        // `Graph::new()` allocates the root (id 0) itself; the stream's
        // first Node op is id 1.
        let mut next_id = 1u64;
        let mut edges = 0u64;
        let mut backward = 0u64;
        for op in Generator::new(cfg.clone()) {
            match op {
                GenOp::Node { id } => {
                    prop_assert_eq!(id, next_id);
                    next_id += 1;
                }
                GenOp::SymEdge { from, name, to } => {
                    prop_assert!(from < next_id && to < next_id);
                    edges += 1;
                    if name == "References" && to < from {
                        backward += 1;
                    }
                }
                GenOp::ValEdge { from, to, .. } => {
                    prop_assert!(from < next_id && to < next_id);
                    edges += 1;
                }
            }
        }
        prop_assert_eq!(edges, gen::edge_count(&cfg));
        // The stream lands within one movie's worth of the scale target.
        let slack = 2 * cfg.fanout + 12;
        prop_assert!(edges + slack >= scale, "{} edges for scale {}", edges, scale);
        // cycle_density defaults > 0: the References chains must bend back.
        prop_assert!(backward > 0);
    }

    /// Replaying the same config twice yields the identical scheduler
    /// decision trace — counts and trace fingerprint both.
    #[test]
    fn replay_is_deterministic(scale in 500u64..4_000, seed in 0u64..1_000) {
        let cfg = GenConfig::new(scale, seed);
        let dcfg = DriveConfig::default();
        let a = replay(&cfg, &dcfg, None);
        let b = replay(&cfg, &dcfg, None);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.trace_len > 0);
        // Every op is dispatched (directly or after queueing), rejected,
        // or evicted from the queue by a cancel.
        let total: u64 = ALL.iter().map(|s| s.ops_at(scale)).sum();
        prop_assert!(a.dispatched + a.rejected <= total);
        prop_assert!(a.dispatched + a.rejected + a.cancelled >= total);
    }
}

/// A minimal but envelope-complete report for checker tests.
fn report(scale: u64, errors: u64, p99: u64, thr: u64) -> String {
    format!(
        r#"{{"experiment": "E21", "schema_version": 1, "scale": {scale},
            "seed": 42, "scenario": "mixed",
            "scenarios": [{{"name": "rpe3", "ops": 32, "errors": {errors},
                            "p99_us": {p99}, "throughput_ops_s": {thr}}}]}}"#
    )
}

#[test]
fn checker_passes_identical_reports() {
    let r = report(10_000, 0, 1_500, 100);
    assert!(check_against_baseline(&r, &r).is_empty());
}

#[test]
fn checker_flags_scenario_errors_as_ssd060() {
    // Fresh-run op failures are SSD060 errors even against a clean baseline.
    let fresh = report(10_000, 3, 1_500, 100);
    let base = report(10_000, 0, 1_500, 100);
    let out = check_against_baseline(&fresh, &base);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].code.as_str(), "SSD060");
    assert!(out[0].is_error());
}

#[test]
fn checker_flags_regressions_as_ssd061() {
    // p99 blown past 3× (and above the 2 ms jitter floor), throughput
    // collapsed below a third: two SSD061s.
    let fresh = report(10_000, 0, 9_000, 10);
    let base = report(10_000, 0, 1_000, 100);
    let out = check_against_baseline(&fresh, &base);
    assert_eq!(out.len(), 2);
    assert!(out
        .iter()
        .all(|d| d.code.as_str() == "SSD061" && d.is_error()));
}

#[test]
fn checker_tolerates_noise_within_bounds() {
    // 2.5× worse p99 and half the throughput: inside the 3× tolerance.
    let fresh = report(10_000, 0, 2_500, 50);
    let base = report(10_000, 0, 1_000, 100);
    assert!(check_against_baseline(&fresh, &base).is_empty());
}

#[test]
fn checker_exempts_cancel_latency() {
    // Cancel-op latency is the cancel-vs-completion race; an apparent
    // blowup there must not fail the gate (errors still would).
    let fresh = report(10_000, 0, 900_000, 1).replace("rpe3", "cancel");
    let base = report(10_000, 0, 100, 1_000).replace("rpe3", "cancel");
    assert!(check_against_baseline(&fresh, &base).is_empty());
}

#[test]
fn checker_warns_on_incomparable_baselines_as_ssd062() {
    let fresh = report(10_000, 0, 1_500, 100);
    // Garbage baseline: warn, don't fail.
    let out = check_against_baseline(&fresh, "not json");
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].code.as_str(), "SSD062");
    assert!(!out[0].is_error());
    // Envelope mismatch (different scale): warn and skip comparison,
    // even though the p99s would otherwise scream regression.
    let base = report(1_000, 0, 100, 100_000);
    let out = check_against_baseline(&fresh, &base);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].code.as_str(), "SSD062");
}

#[test]
fn checker_survives_pathologically_deep_baselines() {
    // A million open brackets used to overflow the reader's stack; the
    // shared parser caps nesting, so this is just an incomparable baseline.
    let fresh = report(10_000, 0, 1_500, 100);
    let out = check_against_baseline(&fresh, &"[".repeat(1_000_000));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].code.as_str(), "SSD062");
    assert!(!out[0].is_error());
}

#[test]
fn bench_end_to_end_reproduces_both_witnesses() {
    // One real run per scenario mix is dear; keep it small and make it
    // count: every class present, zero unexpected errors, and a second
    // run reproducing the graph and trace fingerprints exactly.
    let cfg = GenConfig::new(1_500, 42);
    let dcfg = DriveConfig::default();
    let (a, profile) = ssd_workload::run_bench(&cfg, &dcfg, None, false).expect("bench run");
    assert!(profile.is_none());
    assert_eq!(a.drive.total_errors(), 0, "unexpected scenario errors");
    assert_eq!(a.drive.scenarios.len(), ALL.len());
    for s in &a.drive.scenarios {
        assert_eq!(
            s.ops,
            s.scenario.ops_at(cfg.scale),
            "{} submitted every op",
            s.scenario.name()
        );
    }
    let json = a.to_json();
    assert!(check_against_baseline(&json, &json).is_empty());

    let (b, _) = ssd_workload::run_bench(&cfg, &dcfg, None, false).expect("bench rerun");
    assert_eq!(a.graph_fingerprint, b.graph_fingerprint);
    assert_eq!(a.replay, b.replay);
}

#[test]
fn single_scenario_runs_stay_single() {
    // SigmaLookup has no cancels, so every op either dispatches
    // (directly or after queueing) or is rejected — exactly once.
    let cfg = GenConfig::new(1_000, 7);
    let dcfg = DriveConfig::default();
    let rep = replay(&cfg, &dcfg, Some(Scenario::SigmaLookup));
    assert_eq!(
        rep.dispatched + rep.rejected,
        Scenario::SigmaLookup.ops_at(cfg.scale)
    );
    assert_eq!(rep.cancelled, 0);
}

#[test]
fn select_results_on_a_generated_graph_are_sets_in_both_engines() {
    // The generator's root and every select result root are wide nodes,
    // so they are built by the bulk edge paths. At 10^4 edges: the loaded
    // graph and every result are proper sets, the batched and interpreted
    // engines agree up to bisimulation, and each result root has the fanout
    // the generator's arithmetic predicts.
    use semistructured::graph::bisim::graphs_bisimilar;
    use semistructured::query::{evaluate_batched, evaluate_select, parse_query, plan_access};
    use semistructured::{Database, EvalOptions, Graph};

    let cfg = GenConfig::new(10_000, 42);
    let db = Database::new(gen::build_graph(&cfg));
    let g = db.graph();
    g.validate().expect("generated graph is a set");
    // One `Entry` per movie, plus the `Genres` table.
    assert_eq!(g.out_degree(g.root()), cfg.movies() as usize + 1);
    let index = db.triple_index().expect("triple index");
    let opts = EvalOptions::default();
    let movies = cfg.movies() as usize;
    let rpe = format!("select X from db.{} X", Scenario::Rpe3.text(&cfg, 0));
    let cases = [
        (Scenario::SelectJoin.text(&cfg, 0), 2 * movies),
        (rpe, movies),
        ("select X from db.Entry.%*.Title X".to_owned(), movies),
    ];
    let mut titles: Option<Graph> = None;
    for (text, rows) in cases {
        let q = parse_query(&text).expect("query parses");
        let (interp, _) = evaluate_select(g, &q, &opts).expect("interpreter");
        interp.validate().expect("interpreted result is a set");
        assert_eq!(interp.out_degree(interp.root()), rows, "{text}");
        match plan_access(g, index, db.plan_stats(), &q) {
            Ok(plan) => {
                let (batched, _) = evaluate_batched(g, index, &q, &plan, &opts).expect("batched");
                batched.validate().expect("batched result is a set");
                assert_eq!(batched.out_degree(batched.root()), rows, "{text}");
                assert!(graphs_bisimilar(&batched, &interp), "{text}");
            }
            // `%*` has no batched plan; its titles are the 3-step path's.
            Err(why) => {
                assert!(text.contains("%*"), "{text} has no batched plan: {why}");
                let path = titles.as_ref().expect("3-step result came first");
                assert!(graphs_bisimilar(path, &interp), "{text}");
            }
        }
        if rows == movies {
            titles.get_or_insert(interp);
        }
    }
}
