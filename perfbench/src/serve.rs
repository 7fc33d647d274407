//! The `serve` pipeline: a `ShardedDurableService` with two shards over
//! generated Cora targets, two registered rules that share the title leaf,
//! one closed-loop reader and one open-loop writer.
//!
//! * Reader: one thread calls `query_rule` back to back, alternating the
//!   conjunction and the title rule over the source citations.
//! * Writer: the main thread runs a fixed-rate schedule; each op removes
//!   the oldest served entity or inserts one held back from setup (removed
//!   entities rejoin the held-back queue).  Latency counts from the time
//!   the op was due, so a stall also charges the ops queued behind it.
//! * A closed-loop warm-up of the same script runs first, so the window
//!   does not time a freshly created service's first ops.
//! * The run ends with a drop and `recover`; the recovered service must
//!   answer exactly like the live one, and the live one exactly like a
//!   fresh `ShardedService::build` over the final entity set.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use linkdisc_datasets::cora;
use linkdisc_entity::{DataSource, Entity};
use linkdisc_matching::{
    DurabilityOptions, ScoredLink, ServiceOptions, ShardedDurableService, ShardedReader,
    ShardedService, DEFAULT_RULE,
};
use linkdisc_rule::LinkageRule;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::stats::{median, percentile, ratio, Tally};
use crate::trace::{ledger, LayerRow, Span, Tracer};
use crate::{Metrics, Report, PROBE_SEED};

const SHARDS: usize = 2;
const TITLE_RULE: &str = "title";
/// Query entities compared between live, rebuilt and recovered services.
const CHECK_QUERIES: usize = 200;
/// Queries timed twice each after the window (traced run only).
const SHARD_SAMPLE: usize = 2000;
/// Recoveries per part, each on its own copy of the service directory.
const RECOVERIES: usize = 3;
/// Measuring window of the probe, shared by the parts.
const PROBE_WINDOW_S: f64 = 10.0;
/// The writer of each part runs at least this many timed ops (the window
/// grows if its rate would run fewer), so that the run's four parts pooled
/// give a p95 with ten samples beyond it.
const MIN_PART_OPS: usize = 50;
/// Ops applied after a forced checkpoint on every shard and before the
/// drop: what each recovery replays.  Few enough that no shard's log
/// reaches its budget again.
const RECOVERY_TAIL_OPS: usize = 6;
/// Closed-loop ops before timing starts.
const WARMUP_OPS: usize = 100;
/// Log budget per shard; small enough for several checkpoints a run.
const LOG_BUDGET_BYTES: u64 = 1 << 10;
/// Nominal length of the slices the reader's window is cut into; each
/// slice yields its own latency percentiles and throughput.
const SLICE_S: f64 = 1.0;

/// Sizes when `serve` is the focus: 4 000 served targets.
const FOCUS: ServeSize = ServeSize {
    links: 3772,
    held_back: 400,
    ops_per_s: 12.5,
};
/// Probe sizes: 1 000 served targets.
const PROBE: ServeSize = ServeSize {
    links: 1029,
    held_back: 200,
    ops_per_s: 20.0,
};

/// Sizes of one serve run.
#[derive(Debug, Clone, Copy)]
struct ServeSize {
    /// Positive Cora links generated (`links + links / 6` per side).
    links: usize,
    /// Target entities held back from the initial service for inserts.
    held_back: usize,
    /// Open-loop writer rate.
    ops_per_s: f64,
}

/// The registered rules: the conjunction under the default name and the
/// title rule, which shares its title leaf.
fn rules() -> [(String, LinkageRule); 2] {
    [
        (DEFAULT_RULE.to_string(), crate::conjunction_rule()),
        (TITLE_RULE.to_string(), crate::title_rule()),
    ]
}

struct ServeInputs {
    size: ServeSize,
    queries: Vec<Entity>,
    initial: DataSource,
    held_back: Vec<Entity>,
    service: ShardedDurableService,
    dir: PathBuf,
}

/// Generates the corpus from `corpus_seed`, draws the held-back targets and
/// the served and query orders from `order_seed`, and creates the durable
/// service under `dir` (which must not hold service state yet).
fn setup(size: ServeSize, corpus_seed: u64, order_seed: u64, dir: &Path) -> ServeInputs {
    let data = cora::generate(size.links, corpus_seed ^ 0x5e4e);
    let mut rng = StdRng::seed_from_u64(order_seed ^ 0x9e11);
    let mut targets: Vec<Entity> = data.target.entities().to_vec();
    targets.shuffle(&mut rng);
    let held_back = targets.split_off(targets.len() - size.held_back);
    let mut initial = DataSource::new("served", (**data.target.schema()).clone());
    for entity in targets {
        initial
            .add_entity(entity)
            .expect("generated ids are unique");
    }
    let mut queries = data.source.entities().to_vec();
    queries.shuffle(&mut rng);
    let [(_, conjunction), (title_name, title)] = rules();
    let mut service = ShardedDurableService::create(
        dir,
        conjunction,
        data.source.schema(),
        &initial,
        SHARDS,
        options(),
        durability(),
    )
    .expect("creating the durable service in a fresh directory");
    service
        .register_rule(&title_name, title)
        .expect("registering the title rule");
    ServeInputs {
        size,
        queries,
        initial,
        held_back,
        service,
        dir: dir.to_path_buf(),
    }
}

fn options() -> ServiceOptions {
    ServiceOptions {
        threads: 2,
        ..ServiceOptions::default()
    }
}

fn durability() -> DurabilityOptions {
    DurabilityOptions {
        log_budget_bytes: LOG_BUDGET_BYTES,
    }
}

/// The deterministic op script: even ops remove the oldest served entity,
/// odd ops insert the next held-back one.
struct Script {
    live: VecDeque<Entity>,
    out: VecDeque<Entity>,
    next: usize,
}

enum Op {
    Remove(Entity),
    Insert(Entity),
}

impl Script {
    fn new(initial: &DataSource, held_back: &[Entity]) -> Self {
        Script {
            live: initial.entities().iter().cloned().collect(),
            out: held_back.iter().cloned().collect(),
            next: 0,
        }
    }

    fn next_op(&mut self) -> Op {
        self.next += 1;
        if self.next % 2 == 1 {
            let entity = self.live.pop_front().expect("the service is never emptied");
            self.out.push_back(entity.clone());
            Op::Remove(entity)
        } else {
            let entity = self
                .out
                .pop_front()
                .expect("a removal precedes every insert");
            self.live.push_back(entity.clone());
            Op::Insert(entity)
        }
    }
}

trait Mutable {
    fn apply(&mut self, op: &Op) -> bool;
}

impl Mutable for ShardedDurableService {
    fn apply(&mut self, op: &Op) -> bool {
        match op {
            Op::Remove(entity) => matches!(self.remove(entity.id()), Ok(true)),
            Op::Insert(entity) => self.insert(entity).is_ok(),
        }
    }
}

impl Mutable for ShardedService {
    fn apply(&mut self, op: &Op) -> bool {
        match op {
            Op::Remove(entity) => self.remove(entity.id()),
            Op::Insert(entity) => self.insert(entity).is_ok(),
        }
    }
}

/// Per-op record of the timed window.
struct OpRecord {
    /// The slice of the window the op was due in.
    slice: usize,
    /// From due time to completion.
    latency_ms: f64,
    /// From start to completion.
    service_ms: f64,
    /// From due time to start: how late the generator ran.
    lateness_ms: f64,
    /// The op rolled a shard's log into a new checkpoint generation.
    checkpoint: bool,
    /// Log bytes the op appended (`None` for checkpointing ops).
    wal_bytes: Option<u64>,
}

/// Every use of the unsharded types `DurableService` and `ServiceReader`
/// is in this module; the rest of the pipeline goes through the sharded
/// pair only.  ROADMAP.md ("four serving front doors") plans to make those
/// types shard internals, and this is what a change there has to follow.
/// The sharded pair does not expose what these helpers read: each shard's
/// log generation and log bytes (checkpoints and WAL bytes per op), the
/// comparisons evaluated and skipped (the sharded `rule_stats` sums
/// neither) and a shard query without the merge.
mod per_shard {
    use linkdisc_entity::Entity;
    use linkdisc_matching::{RuleServingStats, ShardedDurableService, ShardedReader};

    /// Each shard's log generation; it moves when an op checkpoints.
    pub fn generations(service: &ShardedDurableService) -> Vec<u64> {
        service.shards().iter().map(|s| s.generation()).collect()
    }

    /// Log bytes summed over the shards.
    pub fn log_bytes(service: &ShardedDurableService) -> u64 {
        service.shards().iter().map(|s| s.log_bytes()).sum()
    }

    /// Summed serving counters over every shard and rule.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Counters {
        pub shard_queries: u64,
        pub candidates: u64,
        pub evaluated: u64,
        pub skipped: u64,
        pub leaf_hits: u64,
        pub leaf_misses: u64,
    }

    pub fn counters(reader: &ShardedReader) -> Counters {
        let mut total = Counters::default();
        for shard in 0..reader.shard_count() {
            for stats in reader.shard(shard).rule_stats() {
                let RuleServingStats {
                    queries,
                    candidates,
                    comparisons_evaluated,
                    comparisons_skipped,
                    leaf_hits,
                    leaf_misses,
                    ..
                } = stats;
                total.shard_queries += queries;
                total.candidates += candidates;
                total.evaluated += comparisons_evaluated;
                total.skipped += comparisons_skipped;
                total.leaf_hits += leaf_hits;
                total.leaf_misses += leaf_misses;
            }
        }
        total
    }

    /// Queries every shard under `name`, without the merge.
    pub fn query_each(reader: &ShardedReader, name: &str, entity: &Entity) {
        for shard in 0..reader.shard_count() {
            std::hint::black_box(reader.shard(shard).query_rule(name, entity));
        }
    }
}

fn rule_name(at: usize) -> &'static str {
    if at.is_multiple_of(2) {
        DEFAULT_RULE
    } else {
        TITLE_RULE
    }
}

type Answer = Vec<(String, u64)>;

fn answer(links: Option<Vec<ScoredLink>>) -> Answer {
    let mut answer: Answer = links
        .unwrap_or_default()
        .into_iter()
        .map(|l| (l.target, l.score.to_bits()))
        .collect();
    answer.sort();
    answer
}

fn answers(
    query: impl Fn(&str, &Entity) -> Option<Vec<ScoredLink>>,
    queries: &[Entity],
) -> Vec<Answer> {
    let mut out = Vec::with_capacity(2 * CHECK_QUERIES);
    for entity in queries.iter().take(CHECK_QUERIES) {
        out.push(answer(query(DEFAULT_RULE, entity)));
        out.push(answer(query(TITLE_RULE, entity)));
    }
    out
}

/// What one serve run measured.
struct Outcome {
    /// Query latencies by slice of the window.
    slices: Vec<Vec<f64>>,
    slice_s: f64,
    ops: Vec<OpRecord>,
    /// Seconds of every successful recovery.
    recover_s: Vec<f64>,
    replayed_epochs: u64,
    checkpoints: u64,
    before: per_shard::Counters,
    after: per_shard::Counters,
    trace: Option<TraceOutcome>,
}

struct TraceOutcome {
    spans: Vec<Span>,
    reader_rows: Vec<LayerRow>,
    writer_rows: Vec<LayerRow>,
    reader_wall_s: f64,
    writer_wall_s: f64,
    untraced_query_p50_us: f64,
    traced_query_p50_us: f64,
    shard_query_us: f64,
    merge_us: f64,
    write_split: WriteSplit,
}

/// One part of the serve pipeline on its own inputs: set-up, warm-up, a
/// window of `share_s` (longer until the writer has run [`MIN_PART_OPS`]),
/// the output checks and the recoveries.  Each part generates its own
/// corpus, the same in every run, because generated corpora differ in how
/// costly they are to query.  `seed` (focus size) or [`PROBE_SEED`] (probe
/// size) and the part pick the held-back targets, the served order and so
/// the op script, and the query order.  Reports the query percentiles and throughput of
/// each slice of the window, every mutation latency and every recovery;
/// traced, it adds the `serve.*` layer metrics and returns the ledgers.
#[allow(clippy::too_many_arguments)]
pub fn child(
    seed: u64,
    part: usize,
    parts: usize,
    focus: bool,
    share_s: f64,
    traced: bool,
    work: &Path,
    report: &mut Report,
) -> Option<(String, Vec<Span>)> {
    let part_seed = |seed: u64| seed.wrapping_mul(0x9e37_79b9).wrapping_add(part as u64);
    let start = Instant::now();
    let inputs = setup(
        if focus { FOCUS } else { PROBE },
        part_seed(PROBE_SEED),
        part_seed(if focus { seed } else { PROBE_SEED }),
        &work.join("service"),
    );
    report.sample("setup_serve_s", &[start.elapsed().as_secs_f64()]);
    let window_s = if focus {
        share_s
    } else {
        PROBE_WINDOW_S / parts as f64
    };
    let outcome = run(inputs, window_s, MIN_PART_OPS, traced, report.tally());
    for slice in &outcome.slices {
        report.sample("query_slice_p50_us", &[percentile(slice, 0.50)]);
        report.sample("query_slice_p99_us", &[percentile(slice, 0.99)]);
        report.sample("query_slice_per_s", &[slice.len() as f64 / outcome.slice_s]);
    }
    let latencies: Vec<f64> = outcome.ops.iter().map(|o| o.latency_ms).collect();
    report.sample("mutate_ms", &latencies);
    // like the reader's, the writer's p50 is taken per slice
    for slice in 0..outcome.slices.len() {
        let due_in: Vec<f64> = outcome
            .ops
            .iter()
            .filter(|o| o.slice == slice)
            .map(|o| o.latency_ms)
            .collect();
        report.sample("mutate_slice_p50_ms", &[percentile(&due_in, 0.50)]);
    }
    report.sample("recover_s", &outcome.recover_s);
    traced.then(|| push_trace_metrics(&outcome, report.layers()))
}

/// Runs warm-up, the timed window of `window_s` (longer until the writer
/// has run `min_ops`), the output checks and the recoveries.  With
/// `traced`, the window records spans and the write
/// path is decomposed afterwards.
fn run(
    inputs: ServeInputs,
    window_s: f64,
    min_ops: usize,
    traced: bool,
    tally: &mut Tally,
) -> Outcome {
    let ServeInputs {
        size,
        queries,
        initial,
        held_back,
        mut service,
        dir,
    } = inputs;
    let mut script = Script::new(&initial, &held_back);
    for _ in 0..WARMUP_OPS {
        let op = script.next_op();
        tally.op(service.apply(&op));
    }

    let reader = service.reader();
    let before = per_shard::counters(&reader);
    let stop = AtomicBool::new(false);
    let tracer = Tracer::new(traced);
    let period = Duration::from_secs_f64(1.0 / size.ops_per_s);
    // the window is at least as long as `min_ops` take at the writer's rate
    let window_s = window_s.max(min_ops as f64 / size.ops_per_s);
    let slice_count = (window_s / SLICE_S).round().max(1.0) as usize;
    let slice_s = window_s / slice_count as f64;
    let mut records: Vec<OpRecord> = Vec::new();
    let window_start = Instant::now();
    let slices = std::thread::scope(|scope| {
        let (thread_reader, stop, tracer, queries) = (service.reader(), &stop, &tracer, &queries);
        let reader_thread = scope.spawn(move || {
            let mut slices: Vec<Vec<f64>> = (0..slice_count)
                .map(|_| Vec::with_capacity(1 << 16))
                .collect();
            let mut at = 0usize;
            let pass = |at: usize| {
                let entity = &queries[at % queries.len()];
                thread_reader.query_rule(rule_name(at), entity).is_some()
            };
            let mut ok = true;
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                ok &= if traced {
                    tracer.span("matching.query", Some("serve.reader"), || pass(at))
                } else {
                    pass(at)
                };
                let latency_us = start.elapsed().as_nanos() as f64 * 1e-3;
                // a query the writer's last op kept running past the
                // window counts as an op but belongs to no slice
                let slice = ((start - window_start).as_secs_f64() / slice_s) as usize;
                if let Some(slice) = slices.get_mut(slice) {
                    slice.push(latency_us);
                }
                at += 1;
            }
            (slices, at, ok)
        });

        let mut op_index = 0u32;
        loop {
            let due = window_start + period * op_index;
            if op_index as usize >= min_ops
                && due.duration_since(window_start).as_secs_f64() >= window_s
            {
                break;
            }
            let now = Instant::now();
            if now < due {
                let idle = || std::thread::sleep(due - now);
                if traced {
                    tracer.span("bench.writer_idle", Some("serve.writer"), idle);
                } else {
                    idle();
                }
            }
            let op = script.next_op();
            let generations_before = per_shard::generations(&service);
            let bytes_before = per_shard::log_bytes(&service);
            let start = Instant::now();
            let ok = if traced {
                tracer.span("matching.mutate", Some("serve.writer"), || {
                    service.apply(&op)
                })
            } else {
                service.apply(&op)
            };
            let end = Instant::now();
            tally.op(ok);
            let checkpoint = per_shard::generations(&service) != generations_before;
            records.push(OpRecord {
                slice: ((due - window_start).as_secs_f64() / slice_s) as usize,
                latency_ms: (end - due).as_secs_f64() * 1e3,
                service_ms: (end - start).as_secs_f64() * 1e3,
                lateness_ms: start.saturating_duration_since(due).as_secs_f64() * 1e3,
                checkpoint,
                wal_bytes: (!checkpoint).then(|| per_shard::log_bytes(&service) - bytes_before),
            });
            op_index += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let (slices, queries_run, ok) = reader_thread.join().expect("reader thread panicked");
        tally.check(ok, "a query named an unregistered rule");
        tally.attempted += queries_run as u64;
        slices
    });
    let window_s = window_start.elapsed().as_secs_f64();
    let after = per_shard::counters(&reader);

    // the roots are the lanes' traced intervals
    let trace = traced.then(|| {
        let spans = tracer.spans();
        let lane_root = |root: &'static str, child_names: &[&str]| {
            let mut lane: Vec<_> = spans
                .iter()
                .filter(|s| child_names.contains(&s.name))
                .copied()
                .collect();
            let start = lane.iter().map(|s| s.start_ns).min().unwrap_or(0);
            let end = lane.iter().map(|s| s.end_ns).max().unwrap_or(0);
            lane.push(Span {
                name: root,
                parent: None,
                lane: u32::MAX,
                start_ns: start,
                end_ns: end,
            });
            ((end - start) as f64 * 1e-9, ledger(&lane, root))
        };
        let (reader_wall_s, reader_rows) = lane_root("serve.reader", &["matching.query"]);
        let (writer_wall_s, writer_rows) =
            lane_root("serve.writer", &["matching.mutate", "bench.writer_idle"]);
        let (untraced_query_p50_us, traced_query_p50_us) = trace_cost(&reader, &queries);
        let (shard_query_us, merge_us) = shard_split(&reader, &queries);
        TraceOutcome {
            spans,
            reader_rows,
            writer_rows,
            reader_wall_s,
            writer_wall_s,
            untraced_query_p50_us,
            traced_query_p50_us,
            shard_query_us,
            merge_us,
            write_split: replay_paired(
                &initial,
                &held_back,
                queries[0].schema(),
                records.len(),
                &dir.with_file_name("replay"),
            ),
        }
    });

    // the log every recovery replays: a fresh checkpoint on every shard,
    // then a fixed tail of ops, whatever the window left in the logs
    let ok = service.compact().is_ok();
    tally.op(ok);
    tally.check(ok, "compacting before the recoveries failed");
    for _ in 0..RECOVERY_TAIL_OPS {
        let op = script.next_op();
        tally.op(service.apply(&op));
    }

    // live == fresh build over the final entity set
    let live = answers(|name, e| reader.query_rule(name, e), &queries);
    let mut final_set = DataSource::new("final", (**initial.schema()).clone());
    for entity in &script.live {
        final_set
            .add_entity(entity.clone())
            .expect("live ids are unique");
    }
    let [(_, conjunction), (title_name, title)] = rules();
    let mut rebuilt = ShardedService::build(
        conjunction,
        queries[0].schema(),
        &final_set,
        SHARDS,
        options(),
    )
    .expect("rebuilding over the final entity set");
    rebuilt
        .register_rule(&title_name, title)
        .expect("registering the title rule");
    let ok = answers(|name, e| rebuilt.query_rule(name, e), &queries) == live;
    tally.op(ok);
    tally.check(
        ok,
        "live answers differ from a fresh build over the final entity set",
    );
    let ok = service.len() == final_set.len();
    tally.check(ok, "served entity count differs from the op script");
    drop(rebuilt);
    drop(reader);
    drop(service);

    // recovery rewrites a checkpoint, so every repetition recovers its own
    // copy of the directory the live service left behind
    let mut recover_times = Vec::new();
    let mut replayed_epochs = 0;
    for rep in 0..RECOVERIES {
        let copy = dir.with_file_name(format!("recover-{rep}"));
        copy_dir(&dir, &copy).expect("copying the service directory");
        let start = Instant::now();
        let recovered = ShardedDurableService::recover_with_rules(
            &copy,
            &rules(),
            queries[0].schema(),
            durability(),
        );
        let elapsed = start.elapsed().as_secs_f64();
        match recovered {
            Ok((recovered, reports)) => {
                recover_times.push(elapsed);
                replayed_epochs = reports.iter().map(|r| r.replayed_epochs).sum();
                let reader = recovered.reader();
                let ok = answers(|name, e| reader.query_rule(name, e), &queries) == live;
                tally.op(ok);
                tally.check(ok, "recovered answers differ from the live service");
            }
            Err(err) => {
                eprintln!("recovery failed: {err}");
                tally.op(false);
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    let checkpoints = records.iter().filter(|r| r.checkpoint).count() as u64;
    let service_ms: Vec<f64> = records.iter().map(|r| r.service_ms).collect();
    eprintln!(
        "serve: {} ops in {window_s:.1} s, service p10/p50/p90 {:.2}/{:.2}/{:.2} ms, {checkpoints} checkpoints, \
         queries per slice {:?}, slice p50 us {:.1?}, recoveries s {recover_times:.3?}",
        records.len(),
        percentile(&service_ms, 0.1),
        percentile(&service_ms, 0.5),
        percentile(&service_ms, 0.9),
        slices.iter().map(Vec::len).collect::<Vec<_>>(),
        slices
            .iter()
            .map(|slice| percentile(slice, 0.5))
            .collect::<Vec<_>>(),
    );
    Outcome {
        slices,
        slice_s,
        ops: records,
        recover_s: recover_times,
        replayed_epochs,
        checkpoints,
        before,
        after,
        trace,
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Times two ways of answering the same query back to back, alternating
/// which goes first, over a sample of queries after the window; returns the
/// median latency of each in µs.
fn paired(
    queries: &[Entity],
    first: impl Fn(&str, &Entity),
    second: impl Fn(&str, &Entity),
) -> (f64, f64) {
    let time = |query: &dyn Fn(&str, &Entity), name: &str, entity: &Entity| {
        let start = Instant::now();
        query(name, entity);
        start.elapsed().as_nanos() as f64 * 1e-3
    };
    let (mut a, mut b) = (
        Vec::with_capacity(SHARD_SAMPLE),
        Vec::with_capacity(SHARD_SAMPLE),
    );
    for at in 0..SHARD_SAMPLE {
        let (name, entity) = (rule_name(at), &queries[at % queries.len()]);
        if (at / 2) % 2 == 0 {
            a.push(time(&first, name, entity));
            b.push(time(&second, name, entity));
        } else {
            b.push(time(&second, name, entity));
            a.push(time(&first, name, entity));
        }
    }
    (median(&a), median(&b))
}

/// Median query latency without and with a span around the query.
fn trace_cost(reader: &ShardedReader, queries: &[Entity]) -> (f64, f64) {
    let tracer = Tracer::new(true);
    paired(
        queries,
        |name, entity| {
            std::hint::black_box(reader.query_rule(name, entity));
        },
        |name, entity| {
            tracer.span("matching.query", None, || {
                std::hint::black_box(reader.query_rule(name, entity));
            });
        },
    )
}

/// Median per-query time of the shard queries alone, and what the sharded
/// query adds on top of them (the merge).
fn shard_split(reader: &ShardedReader, queries: &[Entity]) -> (f64, f64) {
    let (shards, full) = paired(
        queries,
        |name, entity| per_shard::query_each(reader, name, entity),
        |name, entity| {
            std::hint::black_box(reader.query_rule(name, entity));
        },
    );
    (shards, full - shards)
}

/// The write path of the same op script, replayed closed loop after the
/// window.
struct WriteSplit {
    /// Median per-op ms on a non-durable `ShardedService`: the index
    /// update alone.
    index_update_ms: f64,
    /// Median per-op ms on a fresh durable service, ops that did not
    /// checkpoint.
    durable_ms: f64,
    /// Median over those ops of durable minus non-durable time of the same
    /// op: what logging and fsync add.
    wal_ms: f64,
}

/// Replays the warm-up and window ops on a fresh durable service (created
/// under `dir`, removed afterwards) and on a non-durable `ShardedService`
/// built over the same initial set, op by op in turn with the order
/// alternating, so both see the same host.
fn replay_paired(
    initial: &DataSource,
    held_back: &[Entity],
    source_schema: &std::sync::Arc<linkdisc_entity::Schema>,
    window_ops: usize,
    dir: &Path,
) -> WriteSplit {
    let [(_, conjunction), (title_name, title)] = rules();
    let mut memory = ShardedService::build(
        conjunction.clone(),
        source_schema,
        initial,
        SHARDS,
        options(),
    )
    .expect("building the in-memory service");
    memory
        .register_rule(&title_name, title.clone())
        .expect("registering the title rule");
    let _ = std::fs::remove_dir_all(dir);
    let mut durable = ShardedDurableService::create(
        dir,
        conjunction,
        source_schema,
        initial,
        SHARDS,
        options(),
        durability(),
    )
    .expect("creating the replay service in a fresh directory");
    durable
        .register_rule(&title_name, title)
        .expect("registering the title rule");
    let mut script = Script::new(initial, held_back);
    for _ in 0..WARMUP_OPS {
        let op = script.next_op();
        memory.apply(&op);
        durable.apply(&op);
    }
    let time = |service: &mut dyn Mutable, op: &Op| {
        let start = Instant::now();
        service.apply(op);
        start.elapsed().as_secs_f64() * 1e3
    };
    let (mut memory_ms, mut durable_ms, mut wal_ms) = (Vec::new(), Vec::new(), Vec::new());
    for at in 0..window_ops {
        let op = script.next_op();
        let generations_before = per_shard::generations(&durable);
        let (m, d) = if at % 2 == 0 {
            let m = time(&mut memory, &op);
            (m, time(&mut durable, &op))
        } else {
            let d = time(&mut durable, &op);
            (time(&mut memory, &op), d)
        };
        memory_ms.push(m);
        if per_shard::generations(&durable) == generations_before {
            durable_ms.push(d);
            wal_ms.push(d - m);
        }
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);
    WriteSplit {
        index_update_ms: median(&memory_ms),
        durable_ms: median(&durable_ms),
        wal_ms: median(&wal_ms),
    }
}

/// Per-layer serve metrics and the "where the time goes" tables.
fn push_trace_metrics(outcome: &Outcome, metrics: &mut Metrics) -> (String, Vec<Span>) {
    let trace = outcome.trace.as_ref().expect("traced run");
    let (before, after) = (outcome.before, outcome.after);
    let sharded_queries = (after.shard_queries - before.shard_queries) / SHARDS as u64;
    metrics.push("serve.matching.shard_query_us", trace.shard_query_us, "us");
    metrics.push("serve.matching.merge_us", trace.merge_us, "us");
    metrics.push(
        "serve.matching.candidates_per_query",
        ratio(after.candidates - before.candidates, sharded_queries),
        "count",
    );
    metrics.push(
        "serve.rule.skip_rate",
        ratio(
            after.skipped - before.skipped,
            (after.skipped - before.skipped) + (after.evaluated - before.evaluated),
        ),
        "ratio",
    );
    metrics.push(
        "serve.matching.leaf_share",
        ratio(after.leaf_hits, after.leaf_hits + after.leaf_misses),
        "ratio",
    );
    let service_ms: Vec<f64> = outcome
        .ops
        .iter()
        .filter(|o| !o.checkpoint)
        .map(|o| o.service_ms)
        .collect();
    let split = &trace.write_split;
    metrics.push(
        "serve.matching.index_update_ms",
        split.index_update_ms,
        "ms",
    );
    metrics.push("serve.matching.wal_fsync_ms", split.wal_ms, "ms");
    let wal: Vec<f64> = outcome
        .ops
        .iter()
        .filter_map(|o| o.wal_bytes)
        .map(|b| b as f64)
        .collect();
    metrics.push(
        "serve.matching.wal_bytes_per_op",
        wal.iter().sum::<f64>() / wal.len().max(1) as f64,
        "bytes",
    );
    metrics.push(
        "serve.matching.checkpoints",
        outcome.checkpoints as f64,
        "count",
    );
    let checkpoint_ms: Vec<f64> = outcome
        .ops
        .iter()
        .filter(|o| o.checkpoint)
        .map(|o| o.service_ms)
        .collect();
    metrics.push(
        "serve.matching.checkpoint_ms",
        if checkpoint_ms.is_empty() {
            0.0
        } else {
            median(&checkpoint_ms)
        },
        "ms",
    );
    metrics.push(
        "serve.matching.replayed_epochs",
        outcome.replayed_epochs as f64,
        "count",
    );
    let lateness: Vec<f64> = outcome.ops.iter().map(|o| o.lateness_ms).collect();
    metrics.push("serve.bench.writer_lateness_ms", median(&lateness), "ms");
    metrics.push(
        "serve.bench.writer_lateness_max_ms",
        lateness.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    metrics.push("serve.bench.mutations", outcome.ops.len() as f64, "count");
    let root_self = |rows: &[LayerRow]| rows.first().map(|r| r.self_s).unwrap_or(0.0);
    metrics.push(
        "serve.unattributed_s",
        root_self(&trace.reader_rows) + root_self(&trace.writer_rows),
        "s",
    );
    metrics.push(
        "serve.trace_overhead_frac",
        trace.traced_query_p50_us / trace.untraced_query_p50_us - 1.0,
        "ratio",
    );
    let mut out = crate::trace::render(
        "serve reader lane (traced window)",
        &trace.reader_rows,
        trace.reader_wall_s,
        None,
    );
    out.push_str(&format!(
        "  query p50 traced {:.2} us vs untraced {:.2} us; per query: shards {:.2} us + merge {:.2} us\n",
        trace.traced_query_p50_us, trace.untraced_query_p50_us, trace.shard_query_us, trace.merge_us
    ));
    out.push_str(&crate::trace::render(
        "serve writer lane (traced window)",
        &trace.writer_rows,
        trace.writer_wall_s,
        None,
    ));
    out.push_str(&format!(
        "  per mutation (median): window {:.3} ms; closed-loop replay: in-memory index update {:.3} ms, \
         durable {:.3} ms, durable minus in-memory {:.3} ms\n",
        median(&service_ms),
        split.index_update_ms,
        split.durable_ms,
        split.wal_ms
    ));
    (out, trace.spans.clone())
}
