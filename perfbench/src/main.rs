//! The repository benchmark: `match` and `serve` workloads over generated
//! Cora, one JSON result line per run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload match --seed 1 --seconds 16 --trace 0
//! ```
//!
//! Every run executes all three pipelines (learn, match, serve) so that it
//! can report every end-to-end metric; the workload names the pipeline that
//! gets the `--seconds` measuring window and the full-size inputs from
//! `--seed`, the match or serve pipeline that is not the focus runs its
//! probe size, and the learn pipeline always learns the same reference
//! problem.  Each pipeline runs in [`PARTS`] child processes, one at a time
//! and interleaved with the other pipelines' parts, so that every
//! pipeline's repetitions spread over the whole run: the speed of a small
//! shared host changes in spells of seconds to minutes, and a median over
//! repetitions spread in time moves less than one long measurement.  The
//! drift that outlasts a run is taken out by quoting every time at the
//! reference pace (see [`pace`]).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of each pipeline's first part, writes its spans and
//! "where the time goes" table to `.bench_trace/` and echoes the tables on
//! standard error.

mod batch;
mod learn;
mod pace;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use linkdisc_rule::{parse_rule, LinkageRule};
use stats::{median, percentile, Tally};

/// Child processes per pipeline.
const PARTS: usize = 4;
/// Seed of the probe inputs: a pipeline that is not the workload's focus
/// times the same work in every run.
pub const PROBE_SEED: u64 = 20_120_829;
const PIPELINES: [&str; 3] = ["learn", "match", "serve"];
/// The pipelines a workload can focus on.  The learn pipeline has no
/// workload of its own: every run learns the same reference problem.
const WORKLOADS: [&str; 2] = ["match", "serve"];

/// The committed selective conjunction: title Levenshtein and author-token
/// Jaccard.
pub fn conjunction_rule() -> LinkageRule {
    parse_rule(include_str!("../rules/conjunction.dsl").trim())
        .expect("the committed conjunction parses")
}

/// The committed title rule, sharing the conjunction's title leaf.
pub fn title_rule() -> LinkageRule {
    parse_rule(include_str!("../rules/title.dsl").trim()).expect("the committed title rule parses")
}

/// Named metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    fn set(&mut self, name: &str, value: f64) {
        if let Some(metric) = self.0.iter_mut().find(|(n, _, _)| n == name) {
            metric.1 = value;
        }
    }
}

/// What a child process hands back to the parent: raw samples by name, the
/// per-layer metrics of a traced part, and its op tally.
#[derive(Default)]
pub struct Report {
    samples: BTreeMap<String, Vec<f64>>,
    layers: Metrics,
    tally: Tally,
}

impl Report {
    pub fn sample(&mut self, name: &str, values: &[f64]) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(values);
    }

    pub fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }

    pub fn layers(&mut self) -> &mut Metrics {
        &mut self.layers
    }

    fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The line format a child prints on standard output.
    fn encode(&self) -> String {
        let mut out = format!(
            "tally {} {} {}\n",
            self.tally.attempted, self.tally.failed, self.tally.correct as u8
        );
        for (name, values) in &self.samples {
            out.push_str("sample ");
            out.push_str(name);
            for value in values {
                let _ = write!(out, " {value:?}");
            }
            out.push('\n');
        }
        for (name, value, unit) in &self.layers.0 {
            let _ = writeln!(out, "layer {name} {unit} {value:?}");
        }
        out
    }

    /// Merges a child's output into this report.
    fn absorb(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines() {
            let mut words = line.split_whitespace();
            let bad = || format!("malformed child line {line:?}");
            let number = |word: Option<&str>| -> Result<f64, String> {
                word.ok_or_else(bad)?.parse::<f64>().map_err(|_| bad())
            };
            match words.next() {
                Some("tally") => {
                    self.tally.attempted += number(words.next())? as u64;
                    self.tally.failed += number(words.next())? as u64;
                    self.tally.correct &= number(words.next())? == 1.0;
                }
                Some("sample") => {
                    let name = words.next().ok_or_else(bad)?;
                    let values = words
                        .map(|w| number(Some(w)))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.sample(name, &values);
                }
                Some("layer") => {
                    let name = words.next().ok_or_else(bad)?;
                    let unit = words.next().ok_or_else(bad)?;
                    let value = number(words.next())?;
                    self.layers.push(name, value, unit);
                }
                _ => return Err(bad()),
            }
        }
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process: which pipeline and which part it runs.
    child: Option<(String, usize)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut pipeline = None;
    let mut part = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--child" => pipeline = Some(value),
            "--part" => part = Some(value.parse().map_err(|e| format!("--part: {e}"))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (match, serve)"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let child = match (pipeline, part) {
        (Some(pipeline), Some(part)) if PIPELINES.contains(&pipeline.as_str()) && part < PARTS => {
            Some((pipeline, part))
        }
        (None, None) => None,
        _ => return Err("--child and --part go together".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    if let Some((pipeline, part)) = &args.child {
        print!("{}", run_child(&args, pipeline, *part).encode());
        return;
    }
    let result = run_parent(&args);
    // the parts remove their own state; this drops the emptied parent
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(result) => println!("{result}"),
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}

/// Runs every part of every pipeline in a child process, one at a time,
/// and turns their samples into the metrics of this run.
fn run_parent(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut report = Report::default();
    // parts interleave across pipelines, so a slow spell of the host spreads
    // over every pipeline instead of landing on one
    for part in 0..PARTS {
        for pipeline in PIPELINES {
            let output = Command::new(&exe)
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .args(["--child", pipeline, "--part", &part.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start the {pipeline} part {part}: {e}"))?;
            if !output.status.success() {
                return Err(format!(
                    "the {pipeline} part {part} failed: {}",
                    output.status
                ));
            }
            report.absorb(&String::from_utf8_lossy(&output.stdout))?;
        }
    }
    let metrics = if args.trace {
        let mut layers = std::mem::take(&mut report.layers);
        // the traced part counts its own ops; the run's are every part's
        layers.set(
            "serve.bench.mutations",
            report.get("mutate_ms").len() as f64,
        );
        layers
    } else {
        end_to_end(&report)
    };
    if let Some((name, _, _)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} was not measured"));
    }
    Ok(render_result(&report.tally, &metrics))
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The end-to-end metrics from the samples of every part.
///
/// The host is shared: its speed swings by up to a half within seconds and
/// drifts for minutes.  A time metric is therefore a median over
/// repetitions spread across the four parts (the learning runs, the
/// matching runs, the recoveries of a fixed log tail) or over the
/// one-second slices of the reader's windows, so a spell that covers less
/// than half of them does not move it.  The writer's p50 is the lower
/// quartile over its slices, which a spell moves only when it covers more
/// than three quarters of them; its p95 is pooled over the parts.  Every
/// time is then quoted at the reference pace, which takes out the drift
/// that outlasts a run (see [`pace`]).
fn end_to_end(report: &Report) -> Metrics {
    let pace = median(report.get("pace_s"));
    let at_pace = pace::factor(pace);
    let mut m = Metrics::default();
    m.push("learn_s", median(report.get("learn_s")) * at_pace, "s");
    m.push("learn_val_f1", mean(report.get("learn_f1")), "f1");
    m.push("match_s", median(report.get("match_s")) * at_pace, "s");
    m.push(
        "query_p50_us",
        median(report.get("query_slice_p50_us")) * at_pace,
        "us",
    );
    m.push(
        "query_p99_us",
        median(report.get("query_slice_p99_us")) * at_pace,
        "us",
    );
    m.push(
        "query_per_s",
        median(report.get("query_slice_per_s")) / at_pace,
        "1/s",
    );
    // a slow spell of the host raises the writer's costs most, up to twice
    // in a part, so its p50 is the lower quartile of the slice p50s; the p95
    // is pooled over every op of the run, at least ten samples beyond it
    let mutations = report.get("mutate_ms");
    m.push(
        "mutate_p50_ms",
        percentile(report.get("mutate_slice_p50_ms"), 0.25) * at_pace,
        "ms",
    );
    m.push("mutate_p95_ms", percentile(mutations, 0.95) * at_pace, "ms");
    m.push("recover_s", median(report.get("recover_s")) * at_pace, "s");
    let setup: f64 = PIPELINES
        .iter()
        .map(|p| median(report.get(&format!("setup_{p}_s"))))
        .sum();
    m.push("setup_s", setup * at_pace, "s");
    m.push(
        "peak_rss_mb",
        report
            .get("rss_mb")
            .iter()
            .copied()
            .fold(f64::NAN, f64::max),
        "MiB",
    );
    eprintln!(
        "perfbench: {} learning runs, {} query slices, {} mutations over {PARTS} parts \
         (pooled p50 {:.3} ms, median slice p50 {:.3} ms); pace {:.1} us over {} probes \
         (reference {:.1} us)",
        report.get("learn_s").len(),
        report.get("query_slice_p50_us").len(),
        mutations.len(),
        percentile(mutations, 0.50),
        median(report.get("mutate_slice_p50_ms")),
        pace * 1e6,
        report.get("pace_s").len(),
        pace::REFERENCE_S * 1e6,
    );
    m
}

/// One part of one pipeline.  The focus pipeline gets `seconds / PARTS`
/// of measuring time and its full-size inputs; part 0 of a traced run also
/// records the per-layer metrics.
fn run_child(args: &Args, pipeline: &str, part: usize) -> Report {
    let focus = args.workload == pipeline;
    let share_s = if focus {
        args.seconds / PARTS as f64
    } else {
        0.0
    };
    let traced = args.trace && part == 0;
    let mut report = Report::default();
    let trace = match pipeline {
        "learn" => learn::child(traced, &mut report),
        "match" => batch::child(args.seed, part, focus, share_s, traced, &mut report),
        _ => {
            let work = PathBuf::from(".bench_work").join(std::process::id().to_string());
            let _ = std::fs::remove_dir_all(&work);
            let trace = serve::child(
                args.seed,
                part,
                PARTS,
                focus,
                share_s,
                traced,
                &work,
                &mut report,
            );
            let _ = std::fs::remove_dir_all(&work);
            trace
        }
    };
    report.sample("rss_mb", &[stats::peak_rss_mb()]);
    if let Some((table, spans)) = trace {
        write_trace(args, pipeline, &table, &spans);
    }
    report
}

/// Writes a pipeline's "where the time goes" table and spans under
/// `.bench_trace/` and echoes the table on standard error.
fn write_trace(args: &Args, pipeline: &str, table: &str, spans: &[trace::Span]) {
    eprint!("{table}");
    let dir = std::path::Path::new(".bench_trace");
    let stem = format!("{}-seed{}-{pipeline}", args.workload, args.seed);
    let files = [
        (dir.join(format!("{stem}.txt")), table.to_string()),
        (
            dir.join(format!("{stem}.spans.jsonl")),
            trace::spans_json(spans),
        ),
    ];
    for (file, text) in &files {
        if let Err(err) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(file, text)) {
            eprintln!("perfbench: cannot write {}: {err}", file.display());
        }
    }
}

fn render_result(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct && tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (at, (name, value, unit)) in metrics.0.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if at == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}
