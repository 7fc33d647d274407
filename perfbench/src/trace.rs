//! In-memory span recorder and the "where the time goes" ledger.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public entry points; nothing inside the library is
//! instrumented.  Every span carries a static layer name, the name of the
//! layer that caused it, the lane (thread) it ran on and its interval.  A
//! layer's self time is the wall-clock union of its spans minus the part of
//! that union its child layers' spans cover, so child work on other lanes
//! (parallel breeding under the evolution loop) is attributed correctly and
//! the self times of one tree add up to its root's wall time.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: `[start_ns, end_ns)` relative to the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any number of threads.  A disabled tracer records
/// nothing and costs one branch per span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_lane: AtomicU32,
}

thread_local! {
    static LANE: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(if enabled { 1 << 16 } else { 0 })),
            next_lane: AtomicU32::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lane(&self) -> u32 {
        LANE.with(|lane| {
            if lane.get() == u32::MAX {
                lane.set(self.next_lane.fetch_add(1, Ordering::Relaxed));
            }
            lane.get()
        })
    }

    /// Runs `work` inside a span of layer `name` caused by layer `parent`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        work: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return work();
        }
        let start_ns = self.now_ns();
        let out = work();
        let end_ns = self.now_ns();
        let span = Span {
            name,
            parent,
            lane: self.lane(),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// One row of the ledger: a layer's self time (wall seconds no child layer
/// covers), its busy time (span durations summed over lanes) and its span
/// count.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub layer: &'static str,
    pub self_s: f64,
    pub busy_s: f64,
    pub spans: usize,
}

/// The ledger of the span tree rooted at layer `root`: one row per layer,
/// root first.  The root's own row is its unattributed time.
pub fn ledger(spans: &[Span], root: &'static str) -> Vec<LayerRow> {
    let mut layers = vec![root];
    let mut frontier = vec![root];
    while let Some(layer) = frontier.pop() {
        for span in spans {
            if span.parent == Some(layer) && !layers.contains(&span.name) {
                layers.push(span.name);
                frontier.push(span.name);
            }
        }
    }
    layers
        .into_iter()
        .map(|layer| {
            let own: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.name == layer)
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.parent == Some(layer))
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            let lo = own.iter().map(|&(s, _)| s).min().unwrap_or(0);
            let hi = own.iter().map(|&(_, e)| e).max().unwrap_or(0);
            let covered = union_len(own.clone(), lo, hi);
            // child cover counted only inside this layer's own spans
            let child_cover: u64 = own
                .iter()
                .map(|&(s, e)| union_len(children.clone(), s, e))
                .sum::<u64>()
                .min(covered);
            LayerRow {
                layer,
                self_s: (covered - child_cover) as f64 * 1e-9,
                busy_s: own.iter().map(|&(s, e)| e - s).sum::<u64>() as f64 * 1e-9,
                spans: own.len(),
            }
        })
        .collect()
}

/// Renders a ledger as a text table with each layer's share of the root.
pub fn render(title: &str, rows: &[LayerRow], root_wall_s: f64, untraced_s: Option<f64>) -> String {
    let mut out = format!("where the time goes: {title}\n");
    out.push_str(&format!(
        "  {:<28} {:>10} {:>8} {:>10} {:>8}\n",
        "layer", "self_s", "share", "busy_s", "spans"
    ));
    for (at, row) in rows.iter().enumerate() {
        let label = if at == 0 {
            format!("{} (unattributed)", row.layer)
        } else {
            row.layer.to_string()
        };
        out.push_str(&format!(
            "  {:<28} {:>10.4} {:>7.1}% {:>10.4} {:>8}\n",
            label,
            row.self_s,
            100.0 * row.self_s / root_wall_s.max(1e-12),
            row.busy_s,
            row.spans
        ));
    }
    if let Some(untraced_s) = untraced_s {
        out.push_str(&format!(
            "  traced wall {root_wall_s:.4} s vs untraced {untraced_s:.4} s: tracing overhead {:+.1}%\n",
            100.0 * (root_wall_s / untraced_s.max(1e-12) - 1.0)
        ));
    }
    out
}

/// Writes the spans as JSON lines.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"parent\":{},\"lane\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name,
            s.parent
                .map(|p| format!("\"{p}\""))
                .unwrap_or_else(|| "null".into()),
            s.lane,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, lane: u32, s: u64, e: u64) -> Span {
        Span {
            name,
            parent,
            lane,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            span("root", None, 0, 0, 100),
            span("loop", Some("root"), 0, 10, 90),
            // two lanes breeding in parallel: union 20..50
            span("breed", Some("loop"), 1, 20, 40),
            span("breed", Some("loop"), 2, 30, 50),
            span("eval", Some("loop"), 0, 50, 80),
        ];
        let rows = ledger(&spans, "root");
        let get = |name: &str| rows.iter().find(|r| r.layer == name).unwrap().self_s * 1e9;
        assert!((get("root") - 20.0).abs() < 1e-6);
        assert!((get("loop") - 20.0).abs() < 1e-6);
        assert!((get("breed") - 30.0).abs() < 1e-6);
        assert!((get("eval") - 30.0).abs() < 1e-6);
        let total: f64 = rows.iter().map(|r| r.self_s).sum::<f64>() * 1e9;
        assert!((total - 100.0).abs() < 1e-6);
    }
}
