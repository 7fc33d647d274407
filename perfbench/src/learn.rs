//! The `learn` pipeline: one `GenLink::learn` run on generated Cora.
//!
//! Untraced runs call `GenLink::learn` exactly as a user would.  The traced
//! run assembles the same `GenLinkProblem` the learner builds, wraps it in a
//! timing `Problem` and drives it through `Evolution`, so breeding, batch
//! evaluation and the loop itself get spans; it must learn exactly the rule
//! the untraced run learned.

use std::time::Instant;

use genlink::fitness::FitnessFunction;
use genlink::problem::GenLinkProblem;
use genlink::random::RandomRuleGenerator;
use genlink::{find_compatible_properties, GenLink, GenLinkConfig, LearningMode};
use linkdisc_datasets::{cora, Dataset};
use linkdisc_entity::{ReferenceLinks, ResolvedReferenceLinks};
use linkdisc_evaluation::evaluate_rule_on_links;
use linkdisc_gp::{CacheStats, EvalCounters, Evaluated, Evolution, PhaseTimers, Problem};
use linkdisc_rule::{print_rule, DistanceFunction, LinkageRule, TransformFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pace;
use crate::stats::{median, ratio, time_kernel, Tally};
use crate::trace::{ledger, LayerRow, Span, Tracer};
use crate::{Report, PROBE_SEED};

/// Positive Cora links generated for learning: 233 entities per side.
const LINKS: usize = 200;
/// Fixed GP budget; early stopping is disabled so every run does this work.
const POPULATION: usize = 80;
const ITERATIONS: usize = 3;
const THREADS: usize = 2;
/// Title pairs timed through the Levenshtein kernel, and passes over them.
const KERNEL_PAIRS: usize = 2000;
const KERNEL_PASSES: usize = 20;

/// Learning runs of each part: every run learns the same problem from the
/// same seed, so the runs repeat identical work.
const RUNS: usize = 3;

struct LearnInputs {
    data: Dataset,
    train: ReferenceLinks,
    validation: ReferenceLinks,
}

/// Generates Cora and a seeded 2-fold split: fold 0 trains, fold 1
/// validates.
fn setup(links: usize, seed: u64) -> LearnInputs {
    let data = cora::generate(links, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1ea2_f01d);
    let mut folds = data.links.split_folds(2, &mut rng);
    let validation = folds.pop().expect("two folds");
    let train = folds.pop().expect("two folds");
    LearnInputs {
        data,
        train,
        validation,
    }
}

fn config() -> GenLinkConfig {
    let mut config = GenLinkConfig::paper().with_mode(LearningMode::Generational);
    config.gp.population_size = POPULATION;
    config.gp.max_iterations = ITERATIONS;
    config.gp.stop_f_measure = f64::INFINITY;
    config.gp.threads = THREADS;
    config
}

/// One untraced learning run: wall seconds and the learned rule.
fn learn_once(inputs: &LearnInputs, learn_seed: u64) -> (f64, LinkageRule) {
    let learner = GenLink::new(config());
    let start = Instant::now();
    let outcome = learner.learn(
        &inputs.data.source,
        &inputs.data.target,
        &inputs.train,
        learn_seed,
    );
    (start.elapsed().as_secs_f64(), outcome.rule)
}

fn validation_f1(inputs: &LearnInputs, rule: &LinkageRule) -> f64 {
    evaluate_rule_on_links(
        rule,
        &inputs.validation,
        &inputs.data.source,
        &inputs.data.target,
    )
    .f_measure()
}

/// The untraced learning runs of one part.
struct Learned {
    /// Wall seconds, one per run.
    times: Vec<f64>,
    /// A pace probe after every run.
    paces: Vec<f64>,
    /// The learned rule and its validation F1.
    rule: LinkageRule,
    f1: f64,
}

/// Learns [`RUNS`] times from the reference seed; every run must learn the
/// first run's rule DSL.
fn run_reference(inputs: &LearnInputs, tally: &mut Tally) -> Learned {
    let mut times = Vec::with_capacity(RUNS);
    let mut paces = Vec::with_capacity(RUNS);
    let mut first: Option<(LinkageRule, String)> = None;
    for _ in 0..RUNS {
        let (secs, rule) = learn_once(inputs, PROBE_SEED);
        times.push(secs);
        paces.push(pace::probe());
        let dsl = print_rule(&rule);
        match &first {
            None => {
                tally.op(!rule.is_empty());
                first = Some((rule, dsl));
            }
            Some((_, expected)) => {
                let same = &dsl == expected;
                tally.op(same);
                tally.check(same, "the same learning seed learned a different rule");
            }
        }
    }
    eprintln!("learn: {RUNS} runs, s {times:.3?}");
    let (rule, _) = first.expect("at least one run");
    let f1 = validation_f1(inputs, &rule);
    tally.check(
        f1 > 0.0,
        "the learned rule links nothing on the validation fold",
    );
    Learned {
        times,
        paces,
        rule,
        f1,
    }
}

/// One part of the learn pipeline: the reference problem ([`PROBE_SEED`]
/// for data, split and GP) learned [`RUNS`] times.  Reports every run's
/// seconds, the rule's validation F1 and the pace probes; traced, it adds
/// the `learn.*` layer metrics and returns the ledger.
pub fn child(traced: bool, report: &mut Report) -> Option<(String, Vec<Span>)> {
    pace::prepare();
    let start = Instant::now();
    let inputs = setup(LINKS, PROBE_SEED);
    report.sample("setup_learn_s", &[start.elapsed().as_secs_f64()]);
    let learned = run_reference(&inputs, report.tally());
    report.sample("learn_s", &learned.times);
    report.sample("learn_f1", &[learned.f1]);
    report.sample("pace_s", &learned.paces);
    traced.then(|| trace_metrics(&inputs, &learned, report))
}

/// A timing wrapper around a problem: spans around breeding and batch
/// evaluation, everything else forwarded unchanged.
struct Timed<'a, P: Problem> {
    inner: &'a P,
    tracer: &'a Tracer,
}

impl<P: Problem> Problem for Timed<'_, P> {
    type Genome = P::Genome;

    fn random_genome(&self, rng: &mut StdRng) -> P::Genome {
        self.tracer.span("core.breed", Some("gp.loop"), || {
            self.inner.random_genome(rng)
        })
    }

    fn crossover(&self, first: &P::Genome, second: &P::Genome, rng: &mut StdRng) -> P::Genome {
        self.tracer.span("core.breed", Some("gp.loop"), || {
            self.inner.crossover(first, second, rng)
        })
    }

    fn evaluate(&self, genome: &P::Genome) -> Evaluated {
        self.inner.evaluate(genome)
    }

    fn evaluate_batch(&self, genomes: &[P::Genome], threads: usize) -> Vec<Evaluated> {
        self.tracer
            .span("core.evaluate_batch", Some("gp.loop"), || {
                self.inner.evaluate_batch(genomes, threads)
            })
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn phase_timers(&self) -> Option<PhaseTimers> {
        self.inner.phase_timers()
    }

    fn eval_counters(&self) -> Option<EvalCounters> {
        self.inner.eval_counters()
    }

    fn on_window(&self) {
        self.inner.on_window()
    }
}

/// What the traced run observed through the problem's own counters.
struct Traced {
    rule: LinkageRule,
    spans: Vec<Span>,
    wall_s: f64,
    rows: Vec<LayerRow>,
    phases: PhaseTimers,
    cache: CacheStats,
    eval: EvalCounters,
}

/// One traced learning run: the learner's own assembly of the problem
/// (seeded compatible properties, fitness, generator), driven through
/// `Evolution` with the same seed.
fn run_traced(inputs: &LearnInputs, learn_seed: u64, tracer: &Tracer) -> Traced {
    let config = config();
    let (source, target) = (&inputs.data.source, &inputs.data.target);
    let start = Instant::now();
    let (rule, phases, cache, eval) = tracer.span("learn.run", None, || {
        let pairs = tracer.span("core.setup", Some("learn.run"), || {
            find_compatible_properties(source, target, &inputs.train, &config.seeding_config)
        });
        let resolved = ResolvedReferenceLinks::resolve(&inputs.train, source, target);
        let fitness =
            FitnessFunction::new(&resolved, config.parsimony).with_indexing(config.indexed_fitness);
        let mut generator = RandomRuleGenerator::new(pairs, config.representation);
        generator.transformation_probability = config.transformation_probability;
        generator.max_comparisons = config.max_initial_comparisons;
        generator.distance_functions = config.distance_functions.clone();
        generator.transform_functions = config.transform_functions.clone();
        let problem = GenLinkProblem::new(
            fitness,
            generator,
            config.crossover_operators.clone(),
            config.representation,
        );
        let timed = Timed {
            inner: &problem,
            tracer,
        };
        let mut rng = StdRng::seed_from_u64(learn_seed);
        let result = tracer.span("gp.loop", Some("learn.run"), || {
            Evolution::new(&timed, config.gp).run(&mut rng)
        });
        (
            result.best.genome,
            problem.phase_timers().unwrap_or_default(),
            problem.cache_stats().unwrap_or_default(),
            problem.eval_counters().unwrap_or_default(),
        )
    });
    let wall_s = start.elapsed().as_secs_f64();
    let spans = tracer.spans();
    Traced {
        rule,
        wall_s,
        rows: ledger(&spans, "learn.run"),
        spans,
        phases,
        cache,
        eval,
    }
}

/// [`KERNEL_PAIRS`] lower-cased title pairs from the workload: positive
/// training links for up to half of them, random pairs for the rest.
fn title_pairs(inputs: &LearnInputs, seed: u64) -> Vec<(String, String)> {
    let title = |entity: Option<&linkdisc_entity::Entity>| {
        entity
            .and_then(|e| e.first_value("title"))
            .map(|t| TransformFunction::LowerCase.apply(&[vec![t.to_string()]]))
            .and_then(|v| v.into_iter().next())
    };
    let (source, target) = (&inputs.data.source, &inputs.data.target);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7173);
    let mut pairs = Vec::new();
    for link in inputs.train.positive() {
        if pairs.len() >= KERNEL_PAIRS / 2 {
            break;
        }
        if let (Some(a), Some(b)) = (
            title(source.get(&link.source)),
            title(target.get(&link.target)),
        ) {
            pairs.push((a, b));
        }
    }
    while pairs.len() < KERNEL_PAIRS {
        let a = title(source.at(rng.gen_range(0..source.len())));
        let b = title(target.at(rng.gen_range(0..target.len())));
        if let (Some(a), Some(b)) = (a, b) {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Runs the traced learn, checks it against the untraced rule and adds the
/// `learn.*` layer metrics.
fn trace_metrics(
    inputs: &LearnInputs,
    learned: &Learned,
    report: &mut Report,
) -> (String, Vec<Span>) {
    let tracer = Tracer::new(true);
    let traced = run_traced(inputs, PROBE_SEED, &tracer);
    let same = print_rule(&traced.rule) == print_rule(&learned.rule);
    report.tally().op(same);
    report
        .tally()
        .check(same, "the traced learn run learned a different rule");
    let metrics = report.layers();
    let row = |name: &str| {
        traced
            .rows
            .iter()
            .find(|r| r.layer == name)
            .map(|r| r.self_s)
            .unwrap_or(0.0)
    };
    metrics.push("learn.core.breed_s", row("core.breed"), "s");
    metrics.push(
        "learn.core.evaluate_batch_s",
        row("core.evaluate_batch"),
        "s",
    );
    metrics.push("learn.gp.loop_s", row("gp.loop"), "s");
    metrics.push("learn.rule.compile_s", traced.phases.compile_s, "s");
    metrics.push("learn.matching.leaf_build_s", traced.phases.index_s, "s");
    metrics.push("learn.core.score_s", traced.phases.score_s, "s");
    metrics.push(
        "learn.gp.fitness_cache_hit_rate",
        ratio(
            traced.cache.fitness_hits,
            traced.cache.fitness_hits + traced.cache.fitness_misses,
        ),
        "ratio",
    );
    metrics.push(
        "learn.matching.leaf_reuse_hit_rate",
        ratio(
            traced.cache.leaf_reuse_hits,
            traced.cache.leaf_reuse_hits + traced.cache.leaf_reuse_misses,
        ),
        "ratio",
    );
    metrics.push("learn.rule.skip_rate", traced.eval.skip_rate(), "ratio");
    metrics.push("learn.core.pairs_scored", traced.eval.pairs as f64, "count");
    metrics.push(
        "learn.similarity.fast_path_frac",
        ratio(
            traced.eval.kernel_fast_path,
            traced.eval.kernel_fast_path + traced.eval.kernel_fallback,
        ),
        "ratio",
    );
    let pairs: Vec<(Vec<String>, Vec<String>)> = title_pairs(inputs, PROBE_SEED)
        .into_iter()
        .map(|(a, b)| (vec![a], vec![b]))
        .collect();
    let (ns, calls, bytes) = time_kernel(DistanceFunction::Levenshtein, &pairs, KERNEL_PASSES);
    metrics.push("learn.similarity.levenshtein_ns", ns, "ns");
    metrics.push("learn.similarity.levenshtein_calls", calls as f64, "count");
    metrics.push("learn.similarity.levenshtein_bytes", bytes as f64, "bytes");
    metrics.push("learn.unattributed_s", row("learn.run"), "s");
    let untraced_s = median(&learned.times);
    metrics.push(
        "learn.trace_overhead_frac",
        traced.wall_s / untraced_s - 1.0,
        "ratio",
    );
    let table = crate::trace::render("learn (one traced GenLink run)", &traced.rows, traced.wall_s, Some(untraced_s))
        + &format!(
            "  program phase timers (busy s, summed over threads): compile {:.4}  leaf build {:.4}  score {:.4}\n",
            traced.phases.compile_s, traced.phases.index_s, traced.phases.score_s
        );
    (table, traced.spans)
}
