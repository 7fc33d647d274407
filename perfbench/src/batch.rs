//! The `match` pipeline: `MatchingEngine::run` over generated Cora with a
//! fixed selective conjunction (`rules/conjunction.dsl`).
//!
//! The learned Cora rule is a single loose title comparison that scores
//! almost the whole cross product, so it would measure the evaluator, not
//! the index; the committed conjunction keeps the multiblock index and the
//! candidate layer busy instead.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use linkdisc_datasets::{cora, Dataset};
use linkdisc_entity::{DataSource, Entity};
use linkdisc_matching::{MatchingEngine, MatchingOptions, MatchingReport, ScoredLink};
use linkdisc_rule::{
    CompiledRule, DistanceFunction, EvalStats, LinkageRule, TransformFunction, ValueCache,
    LINK_THRESHOLD,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::pace;
use crate::stats::{fastest, median, ratio, time_kernel, Tally};
use crate::trace::{ledger, Span, Tracer};
use crate::{Report, PROBE_SEED};

const THREADS: usize = 2;
/// Positive Cora links of the focus inputs (10 000 entities per side) and
/// of the probe inputs (2 000 per side).
const FOCUS_LINKS: usize = 8572;
const PROBE_LINKS: usize = 1715;
/// Matching runs of a probe part.
const PROBE_RUNS: usize = 6;
/// Source entities whose blocked links are checked against an exhaustive
/// run over the whole target.
const CHECK_SOURCES: usize = 40;
/// Passes of the candidate-like pairs replayed through `CompiledRule` for
/// the per-pair score cost.
const SCORE_PASSES: usize = 5;
const KERNEL_PAIRS: usize = 2000;
const KERNEL_PASSES: usize = 10;
/// One-entity runs timed for the index build.
const INDEX_PROBES: usize = 3;

struct MatchInputs {
    data: Dataset,
    rule: LinkageRule,
}

/// Generates Cora with `links` positive links (`links + links / 6`
/// entities per side).
fn setup(links: usize, seed: u64) -> MatchInputs {
    MatchInputs {
        data: cora::generate(links, seed ^ 0x6d61_7463),
        rule: crate::conjunction_rule(),
    }
}

fn engine(rule: &LinkageRule, use_blocking: bool) -> MatchingEngine {
    MatchingEngine::new(rule.clone()).with_options(MatchingOptions {
        use_blocking,
        threads: THREADS,
        ..MatchingOptions::default()
    })
}

type LinkKey = (String, String, u64);

fn keys<'a>(links: impl IntoIterator<Item = &'a ScoredLink>) -> Vec<LinkKey> {
    let mut keys: Vec<LinkKey> = links
        .into_iter()
        .map(|l| (l.source.clone(), l.target.clone(), l.score.to_bits()))
        .collect();
    keys.sort();
    keys
}

struct Untraced {
    times: Vec<f64>,
    /// A pace probe after every run.
    paces: Vec<f64>,
    report: MatchingReport,
}

/// One part of the match pipeline on the inputs seeded by `seed` when
/// focused (full size) or by [`PROBE_SEED`] (probe size); every part
/// generates the same inputs: matching runs for `share_s` (at least one;
/// [`PROBE_RUNS`] as a probe), reporting every run's seconds.  Part 0 also
/// checks blocked links against an exhaustive run; traced, it adds the
/// `match.*` layer metrics and returns the ledger.
pub fn child(
    seed: u64,
    part: usize,
    focus: bool,
    share_s: f64,
    traced: bool,
    report: &mut Report,
) -> Option<(String, Vec<Span>)> {
    let data_seed = if focus { seed } else { PROBE_SEED }.wrapping_mul(0x9e37_79b9);
    pace::prepare();
    let start = Instant::now();
    let inputs = setup(if focus { FOCUS_LINKS } else { PROBE_LINKS }, data_seed);
    report.sample("setup_match_s", &[start.elapsed().as_secs_f64()]);
    let min_runs = if focus { 1 } else { PROBE_RUNS };
    let untraced = run_untraced(&inputs, share_s, min_runs, report.tally());
    if part == 0 {
        exhaustive_check(&inputs, &untraced.report, data_seed, report.tally());
    }
    report.sample("match_s", &untraced.times);
    report.sample("pace_s", &untraced.paces);
    traced.then(|| trace_metrics(&inputs, &untraced, data_seed, report))
}

/// Matching runs until `budget_s` has elapsed (at least `min_runs`); every
/// run must produce the first run's links.
fn run_untraced(
    inputs: &MatchInputs,
    budget_s: f64,
    min_runs: usize,
    tally: &mut Tally,
) -> Untraced {
    let engine = engine(&inputs.rule, true);
    let start = Instant::now();
    let mut times = Vec::new();
    let mut paces = Vec::new();
    let mut first: Option<(MatchingReport, Vec<LinkKey>)> = None;
    while times.len() < min_runs || start.elapsed().as_secs_f64() < budget_s {
        let run_start = Instant::now();
        let report = engine.run(&inputs.data.source, &inputs.data.target);
        times.push(run_start.elapsed().as_secs_f64());
        paces.push(pace::probe());
        let links = keys(&report.links);
        match &first {
            None => {
                tally.op(!links.is_empty());
                first = Some((report, links));
            }
            Some((_, expected)) => tally.op(&links == expected),
        }
    }
    eprintln!("match: {} runs, s {:.3?}", times.len(), times);
    let (report, _) = first.expect("at least one run");
    Untraced {
        times,
        paces,
        report,
    }
}

/// The [`CHECK_SOURCES`] seeded source entities of the exhaustive check.
fn check_sources(inputs: &MatchInputs, seed: u64) -> Vec<&Entity> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe4a5);
    let mut picked: Vec<&Entity> = inputs.data.source.entities().iter().collect();
    picked.shuffle(&mut rng);
    picked.truncate(CHECK_SOURCES);
    picked
}

fn exhaustive_check(inputs: &MatchInputs, report: &MatchingReport, seed: u64, tally: &mut Tally) {
    let source = &inputs.data.source;
    let picked = check_sources(inputs, seed);
    let mut subset = DataSource::new("check", (**source.schema()).clone());
    for entity in &picked {
        subset
            .add_entity((*entity).clone())
            .expect("subset ids are unique");
    }
    let exhaustive = engine(&inputs.rule, false).run(&subset, &inputs.data.target);
    let blocked = keys(
        report
            .links
            .iter()
            .filter(|l| picked.iter().any(|e| e.id() == l.source)),
    );
    let ok = blocked == keys(&exhaustive.links);
    tally.op(ok);
    tally.check(
        ok,
        "blocked links differ from the exhaustive run on the checked sources",
    );
}

/// Per-pair cost in ns of `CompiledRule` bounded evaluation over `pairs`,
/// with warm value caches (the engine memoizes transforms per run too).
fn score_ns(inputs: &MatchInputs, pairs: &[(&Entity, &Entity)]) -> f64 {
    let (source, target) = (&inputs.data.source, &inputs.data.target);
    let compiled = CompiledRule::compile(&inputs.rule, source.schema(), target.schema());
    let source_cache = ValueCache::new();
    let target_cache = ValueCache::new();
    let mut stats = EvalStats::default();
    let mut per_pass = Vec::new();
    for _ in 0..SCORE_PASSES {
        let start = Instant::now();
        for &(s, t) in pairs {
            std::hint::black_box(compiled.evaluate_bounded_two_stats(
                s,
                t,
                &source_cache,
                &target_cache,
                LINK_THRESHOLD,
                &mut stats,
            ));
        }
        per_pass.push(start.elapsed().as_nanos() as f64 / pairs.len().max(1) as f64);
    }
    median(&per_pass)
}

/// Lower-cased values of `property`, as the conjunction's leaves read them.
fn lower(entity: &Entity, property: &str) -> Vec<String> {
    TransformFunction::LowerCase.apply(&[entity.values(property).to_vec()])
}

/// Candidate-like pairs of the checked sources: every target that shares a
/// block key with the source under both of the conjunction's comparisons
/// (lower-cased title Levenshtein at distance bound 1.5, author tokens at
/// Jaccard bound 0.5, the bounds at which a comparison can still reach
/// `LINK_THRESHOLD`).  This is the blocking condition the multiblock index
/// intersects for a `min`; the engine does not expose the pairs it scored.
fn candidate_pairs<'a>(
    inputs: &'a MatchInputs,
    sources: &[&'a Entity],
) -> Vec<(&'a Entity, &'a Entity)> {
    let title_keys = |e: &Entity| -> Vec<u64> {
        let keys = DistanceFunction::Levenshtein.block_keys(&lower(e, "title"), 1.5);
        keys.iter().map(|k| k.raw()).collect()
    };
    let author_keys = |e: &Entity| -> Vec<u64> {
        let tokens = TransformFunction::Tokenize.apply(&[lower(e, "author")]);
        let keys = DistanceFunction::Jaccard.block_keys(&tokens, 0.5);
        keys.iter().map(|k| k.raw()).collect()
    };
    let mut by_title: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut target_authors: Vec<HashSet<u64>> = Vec::new();
    for (at, target) in inputs.data.target.entities().iter().enumerate() {
        for key in title_keys(target) {
            by_title.entry(key).or_default().push(at);
        }
        target_authors.push(author_keys(target).into_iter().collect());
    }
    let targets = inputs.data.target.entities();
    let mut pairs = Vec::new();
    for &source in sources {
        let authors = author_keys(source);
        let mut hits: Vec<usize> = title_keys(source)
            .iter()
            .filter_map(|key| by_title.get(key))
            .flatten()
            .copied()
            .filter(|&at| authors.iter().any(|key| target_authors[at].contains(key)))
            .collect();
        hits.sort_unstable();
        hits.dedup();
        pairs.extend(hits.into_iter().map(|at| (source, &targets[at])));
    }
    pairs
}

fn author_tokens(entity: Option<&Entity>) -> Option<Vec<String>> {
    let author = entity?.first_value("author")?.to_string();
    let lower = TransformFunction::LowerCase.apply(&[vec![author]]);
    Some(TransformFunction::Tokenize.apply(&[lower]))
}

/// Author token pairs from the workload: linked pairs plus random pairs.
fn token_pairs(
    inputs: &MatchInputs,
    report: &MatchingReport,
    seed: u64,
) -> Vec<(Vec<String>, Vec<String>)> {
    let (source, target) = (&inputs.data.source, &inputs.data.target);
    let mut pairs = Vec::new();
    for link in report.links.iter().take(KERNEL_PAIRS / 2) {
        if let (Some(a), Some(b)) = (
            author_tokens(source.get(&link.source)),
            author_tokens(target.get(&link.target)),
        ) {
            pairs.push((a, b));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ca);
    while pairs.len() < KERNEL_PAIRS {
        let a = author_tokens(source.at(rng.gen_range(0..source.len())));
        let b = author_tokens(target.at(rng.gen_range(0..target.len())));
        if let (Some(a), Some(b)) = (a, b) {
            pairs.push((a, b));
        }
    }
    pairs
}

/// The traced run: one matching run inside spans, the index build timed on
/// one-entity runs of the same engine, and the score cost estimated by
/// replaying candidate-like pairs through `CompiledRule`.  Adds the `match.*` layer metrics.
fn trace_metrics(
    inputs: &MatchInputs,
    untraced: &Untraced,
    seed: u64,
    report_out: &mut Report,
) -> (String, Vec<Span>) {
    let tracer = Tracer::new(true);
    let engine = engine(&inputs.rule, true);
    let start = Instant::now();
    let report = tracer.span("match.run", None, || {
        tracer.span("matching.engine_run", Some("match.run"), || {
            engine.run(&inputs.data.source, &inputs.data.target)
        })
    });
    let wall_s = start.elapsed().as_secs_f64();
    let ok = keys(&report.links) == keys(&untraced.report.links);
    report_out.tally().op(ok);
    report_out
        .tally()
        .check(ok, "traced match run produced different links");
    let metrics = report_out.layers();
    let spans = tracer.spans();
    let rows = ledger(&spans, "match.run");
    let engine_s = rows
        .iter()
        .find(|r| r.layer == "matching.engine_run")
        .map(|r| r.self_s)
        .unwrap_or(0.0);

    let mut one = DataSource::new("one", (**inputs.data.source.schema()).clone());
    one.add_entity(inputs.data.source.entities()[0].clone())
        .expect("one entity");
    let index_build_s = fastest(
        &(0..INDEX_PROBES)
            .map(|_| {
                let probe = Instant::now();
                engine.run(&one, &inputs.data.target);
                probe.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    // busy seconds: every evaluated pair at the replayed cost of the
    // candidate-like pairs; the remainder assumes both threads score
    let sources = check_sources(inputs, seed);
    let pairs = candidate_pairs(inputs, &sources);
    let score_busy_s = report.evaluated_pairs as f64 * score_ns(inputs, &pairs) * 1e-9;
    let candidates_s = (engine_s - index_build_s - score_busy_s / THREADS as f64).max(0.0);

    metrics.push("match.matching.index_build_s", index_build_s, "s");
    metrics.push("match.matching.candidates_s", candidates_s, "s");
    metrics.push("match.rule.score_s", score_busy_s, "s");
    metrics.push(
        "match.matching.candidates_per_source",
        ratio(report.evaluated_pairs as u64, report.source_entities as u64),
        "count",
    );
    metrics.push(
        "match.matching.evaluated_frac",
        ratio(report.evaluated_pairs as u64, report.cross_product as u64),
        "ratio",
    );
    metrics.push(
        "match.matching.link_yield",
        ratio(report.links.len() as u64, report.evaluated_pairs as u64),
        "ratio",
    );
    metrics.push("match.rule.skip_rate", report.skip_rate(), "ratio");
    let (ns, calls, bytes) = time_kernel(
        DistanceFunction::Jaccard,
        &token_pairs(inputs, &report, seed),
        KERNEL_PASSES,
    );
    metrics.push("match.similarity.jaccard_ns", ns, "ns");
    metrics.push("match.similarity.jaccard_calls", calls as f64, "count");
    metrics.push("match.similarity.jaccard_bytes", bytes as f64, "bytes");
    let unattributed = rows.first().map(|r| r.self_s).unwrap_or(0.0);
    metrics.push("match.unattributed_s", unattributed, "s");
    let untraced_s = median(&untraced.times);
    metrics.push(
        "match.trace_overhead_frac",
        wall_s / untraced_s - 1.0,
        "ratio",
    );

    let table = crate::trace::render("match (one traced MatchingEngine::run)", &rows, wall_s, Some(untraced_s))
        + &format!(
            "  inside matching.engine_run (estimates): index build {index_build_s:.4} s (one-entity run), \
             score {:.4} s wall ({score_busy_s:.4} busy over {} evaluated pairs at the cost of {} \
             candidate-like pairs replayed through CompiledRule: {:.1} per checked source, \
             {:.1} per source in the run), candidates {candidates_s:.4} s (remainder)\n",
            score_busy_s / THREADS as f64,
            report.evaluated_pairs,
            pairs.len(),
            pairs.len() as f64 / sources.len() as f64,
            ratio(report.evaluated_pairs as u64, report.source_entities as u64),
        );
    (table, spans)
}
