//! Order statistics and trace arithmetic for the benchmark's reports.
//!
//! Kept free of any workload code so the rules the numbers rest on —
//! which percentile a sample count supports, and what a span's self
//! time is — are tested on synthetic inputs (`tests/analysis.rs`).

use adsim_trace::{Event, EventKind};
use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the value at
/// 1-based rank `ceil(q·n)` of the sorted samples. Returns `None` when
/// `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(
        q > 0.0 && q <= 1.0,
        "percentile fraction must be in (0, 1], got {q}"
    );
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The 1-based nearest rank of fraction `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.95 × 200` from rounding up past rank 190.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// A tail percentile under the reporting rule: the nearest-rank `q`
/// percentile, or `None` unless at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    percentile(samples, q)
}

/// Median (nearest rank), or 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// One completed span with its self time: its duration minus the part
/// covered by its direct children on the same thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanTime {
    /// Span name.
    pub name: &'static str,
    /// Recording thread.
    pub tid: u32,
    /// Start (ns since the trace epoch).
    pub start_ns: u64,
    /// Duration (ns).
    pub dur_ns: u64,
    /// Duration minus direct children's durations (ns).
    pub self_ns: u64,
    /// FLOPs attributed to the span.
    pub flops: u64,
}

impl SpanTime {
    /// End of the span (ns since the trace epoch).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Every span of `events` with its self time. Spans named in
/// `transparent` are dropped before nesting is resolved, so their
/// children count against the enclosing span instead: a kernel's
/// fork/join scheduling spans must not hide the kernel's own work.
/// Output is ordered by thread, then start time.
pub fn self_times(events: &[Event], transparent: &[&str]) -> Vec<SpanTime> {
    let mut by_thread: BTreeMap<u32, Vec<SpanTime>> = BTreeMap::new();
    for e in events {
        if let EventKind::Span { dur_ns, flops, .. } = e.kind {
            if transparent.contains(&e.name) {
                continue;
            }
            by_thread.entry(e.tid).or_default().push(SpanTime {
                name: e.name,
                tid: e.tid,
                start_ns: e.ts_ns,
                dur_ns,
                self_ns: dur_ns,
                flops,
            });
        }
    }
    let mut out = Vec::new();
    for (_, mut spans) in by_thread {
        // Parents sort before the children they enclose: earlier start
        // first, and on a tied start the longer span first.
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        let mut open: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            while let Some(&top) = open.last() {
                if spans[top].end_ns() <= spans[i].start_ns {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = open.last() {
                let child = spans[i].dur_ns;
                spans[parent].self_ns = spans[parent].self_ns.saturating_sub(child);
            }
            open.push(i);
        }
        out.extend(spans);
    }
    out
}

/// Percentage by which `traced` exceeds `untraced`.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced - untraced) / untraced * 100.0
}
