//! The reporting rules the benchmark's numbers rest on, checked on
//! synthetic inputs: which tail percentile a sample count supports,
//! and what a span's self time is.

use adsim_perfbench::analysis::{
    beyond, median, overhead_pct, percentile, self_times, tail_percentile, MIN_BEYOND,
};
use adsim_trace::{Event, EventKind, NO_INDEX};

fn samples(n: usize) -> Vec<f64> {
    // Shuffled, so the functions must sort.
    (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
}

#[test]
fn nearest_rank_percentiles() {
    let s = samples(200);
    assert_eq!(percentile(&s, 0.95), Some(190.0));
    assert_eq!(percentile(&s, 1.0), Some(200.0));
    assert_eq!(median(&s), 100.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn tail_needs_ten_samples_beyond() {
    assert_eq!(beyond(200, 0.95), MIN_BEYOND);
    assert_eq!(tail_percentile(&samples(200), 0.95), Some(190.0));
    // One frame short of 200: only nine frames lie beyond p95.
    assert_eq!(beyond(199, 0.95), 9);
    assert_eq!(tail_percentile(&samples(199), 0.95), None);
    // p99 needs a thousand samples.
    assert_eq!(tail_percentile(&samples(999), 0.99), None);
    assert_eq!(tail_percentile(&samples(1000), 0.99), Some(990.0));
    assert_eq!(tail_percentile(&[], 0.5), None);
}

fn span(name: &'static str, tid: u32, start: u64, dur: u64, flops: u64) -> Event {
    Event {
        name,
        index: NO_INDEX,
        tid,
        ts_ns: start,
        kind: EventKind::Span {
            dur_ns: dur,
            flops,
            bytes: 0,
        },
    }
}

fn self_of(spans: &[adsim_perfbench::analysis::SpanTime], name: &str) -> u64 {
    spans
        .iter()
        .find(|s| s.name == name)
        .expect("span present")
        .self_ns
}

#[test]
fn self_time_subtracts_direct_children_on_the_same_thread() {
    let events = [
        span("frame", 0, 0, 100, 0),
        span("det", 0, 10, 30, 0),
        span("conv", 0, 12, 8, 0),
        span("tra", 0, 50, 40, 0),
        // Another thread inside the frame's interval is not a child.
        span("loc", 1, 5, 90, 0),
        // Marker events carry no duration.
        Event {
            name: "mark",
            index: NO_INDEX,
            tid: 0,
            ts_ns: 20,
            kind: EventKind::Instant,
        },
    ];
    let spans = self_times(&events, &[]);
    assert_eq!(spans.len(), 5);
    assert_eq!(self_of(&spans, "frame"), 100 - 30 - 40);
    assert_eq!(self_of(&spans, "det"), 30 - 8);
    assert_eq!(self_of(&spans, "conv"), 8);
    assert_eq!(self_of(&spans, "tra"), 40);
    assert_eq!(self_of(&spans, "loc"), 90);
}

#[test]
fn self_time_handles_tied_starts_and_back_to_back_spans() {
    // A child starting on its parent's first nanosecond, and a sibling
    // starting exactly where the previous one ended.
    let events = [
        span("child_b", 0, 20, 10, 0),
        span("child_a", 0, 0, 20, 0),
        span("parent", 0, 0, 50, 0),
    ];
    let spans = self_times(&events, &[]);
    assert_eq!(self_of(&spans, "parent"), 50 - 20 - 10);
    assert_eq!(self_of(&spans, "child_a"), 20);
    assert_eq!(self_of(&spans, "child_b"), 10);
}

#[test]
fn transparent_spans_pass_their_children_to_the_enclosing_span() {
    let events = [
        span("tensor.conv2d", 0, 0, 100, 4000),
        span("runtime.region", 0, 10, 80, 0),
        span("runtime.worker", 0, 11, 70, 0),
        span("inner", 0, 20, 10, 0),
    ];
    let spans = self_times(&events, &["runtime.region", "runtime.worker"]);
    assert_eq!(spans.len(), 2, "transparent spans are dropped");
    assert_eq!(self_of(&spans, "tensor.conv2d"), 90);
    assert_eq!(spans[0].flops, 4000);
    // Without transparency the kernel's own time would vanish into its
    // fork/join region.
    let opaque = self_times(&events, &[]);
    assert_eq!(self_of(&opaque, "tensor.conv2d"), 20);
}

#[test]
fn tracing_overhead_is_relative_to_the_untraced_run() {
    assert_eq!(overhead_pct(2.0, 2.5), 25.0);
    assert_eq!(overhead_pct(2.0, 1.5), -25.0);
}
