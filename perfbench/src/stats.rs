//! Small statistics and process helpers.

use std::hint::black_box;
use std::time::Instant;

use linkdisc_rule::DistanceFunction;

/// Nearest-rank percentile (`p` in `[0, 1]`) of an unsorted sample; `NaN`
/// for an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The smallest of a sample of durations of identical work: on a host
/// whose speed drifts between runs, the fastest repetition is the one
/// least disturbed.  `NaN` for an empty sample.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// `part / whole`, or `0.0` when nothing was counted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Ops attempted and failed, plus whether every output check held.
#[derive(Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }
}

impl Tally {
    /// Records one op; a failed op also fails the run's correctness.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
        }
    }

    /// Records an output check that is not an op.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.correct = false;
        }
    }
}

/// ns per `DistanceFunction` call over value-set pairs, with the call count
/// and total bytes compared.
pub fn time_kernel(
    function: DistanceFunction,
    pairs: &[(Vec<String>, Vec<String>)],
    passes: usize,
) -> (f64, u64, u64) {
    let bytes_per_pass: usize = pairs
        .iter()
        .map(|(a, b)| {
            a.iter().map(String::len).sum::<usize>() + b.iter().map(String::len).sum::<usize>()
        })
        .sum();
    let mut per_pass = Vec::with_capacity(passes);
    let mut sink = 0.0;
    for _ in 0..passes {
        let start = Instant::now();
        for (a, b) in pairs {
            sink += function.evaluate(black_box(a), black_box(b));
        }
        per_pass.push(start.elapsed().as_nanos() as f64 / pairs.len() as f64);
    }
    black_box(sink);
    (
        median(&per_pass),
        (pairs.len() * passes) as u64,
        (bytes_per_pass * passes) as u64,
    )
}
