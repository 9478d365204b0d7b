//! Per-layer metrics of a traced run.
//!
//! Reads the spans the program already emits (`pipeline.frame`,
//! `stage.*`, `dnn.*`, `tensor.*`, `orb.*`, `loc.*`, `tra.*`,
//! `runtime.region`, `runtime.worker`) plus the benchmark's own
//! `bench.frame` and `bench.campaign` spans, and counts from the
//! workloads' public results. Nothing here instruments the program.

use crate::workloads::Setup;
use adsim_fleet::BatchStats;
use adsim_perfbench::analysis::{median, overhead_pct, self_times, SpanTime};
use adsim_trace::{Event, REGION_SPAN, WORKER_SPAN};

/// Counts read from the workloads' public results.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Vehicle-frames completed (replays excluded).
    pub frames: u64,
    /// Frames re-executed by crash recovery.
    pub replayed_frames: u64,
    /// Wall time of the traced campaign (0 for `drive`).
    pub campaign_wall_s: f64,
    /// `Localizer::stats().relocalizations`, where a localizer is in
    /// reach (`drive`); fleets count `loc.reloc` spans instead.
    pub relocalizations: Option<u64>,
    /// Batching counters of `run_batched`.
    pub batch: Option<BatchStats>,
    pub checkpoint_bytes_peak: u64,
    pub telemetry_series: u64,
    pub flight_dumps: u64,
    pub quality_reduced_frames: u64,
    pub guard_trips: u64,
    /// Injected crashes contained.
    pub crashes: u64,
}

/// `(name, value, unit)` rows, in report order.
pub type Layers = Vec<(&'static str, f64, &'static str)>;

/// Spans of one name, sorted by start.
struct Named(Vec<SpanTime>);

impl Named {
    fn of(spans: &[SpanTime], name: &str) -> Self {
        let mut v: Vec<SpanTime> = spans.iter().filter(|s| s.name == name).copied().collect();
        v.sort_by_key(|s| s.start_ns);
        Self(v)
    }

    fn ms(&self) -> Vec<f64> {
        self.0.iter().map(|s| s.dur_ns as f64 / 1e6).collect()
    }

    fn total_ms(&self) -> f64 {
        self.0.iter().map(|s| s.dur_ns as f64).sum::<f64>() / 1e6
    }

    fn p50_ms(&self) -> f64 {
        median(&self.ms())
    }

    /// Spans `outer` holds: on any thread when `outer` had the process
    /// to itself (`drive`, the lockstep fleet), else only on its own
    /// thread (concurrent fleet cells).
    fn inside<'a>(&'a self, outer: &'a Frame) -> impl Iterator<Item = &'a SpanTime> + 'a {
        let first = self.0.partition_point(|s| s.start_ns < outer.span.start_ns);
        self.0[first..]
            .iter()
            .take_while(move |s| s.start_ns < outer.span.end_ns())
            .filter(move |s| outer.holds(s))
    }

    /// Total duration (ms) of the spans inside `outer`.
    fn ms_inside(&self, outer: &Frame) -> f64 {
        self.inside(outer).map(|s| s.dur_ns as f64).sum::<f64>() / 1e6
    }
}

/// One `pipeline.frame` span, and whether no other frame overlapped it.
struct Frame {
    span: SpanTime,
    alone: bool,
}

impl Frame {
    /// Whether `s` ran inside this frame: within its interval, and on
    /// its thread unless the frame had the process to itself.
    fn holds(&self, s: &SpanTime) -> bool {
        s.start_ns >= self.span.start_ns
            && s.end_ns() <= self.span.end_ns()
            && (self.alone || s.tid == self.span.tid)
    }
}

fn frames(spans: &[SpanTime]) -> Vec<Frame> {
    let sorted = Named::of(spans, "pipeline.frame").0;
    let mut out: Vec<Frame> = Vec::with_capacity(sorted.len());
    let mut max_end = 0u64;
    for (i, s) in sorted.iter().enumerate() {
        let overlaps_prev = i > 0 && max_end > s.start_ns;
        let overlaps_next = sorted.get(i + 1).is_some_and(|n| n.start_ns < s.end_ns());
        out.push(Frame {
            span: *s,
            alone: !overlaps_prev && !overlaps_next,
        });
        max_end = max_end.max(s.end_ns());
    }
    out
}

/// A fork/join region with its workers' busy spans.
struct Region {
    span: SpanTime,
    busy_ns: Vec<u64>,
    first_worker_end: u64,
}

impl Region {
    fn workers(&self) -> usize {
        self.busy_ns.len()
    }

    /// Wall time of the region not covered by its busiest worker:
    /// thread spawn, hand-out and join.
    fn overhead_ns(&self) -> u64 {
        self.span
            .dur_ns
            .saturating_sub(self.busy_ns.iter().copied().max().unwrap_or(0))
    }
}

/// Regions, each worker span attached to the innermost region whose
/// interval holds it.
fn regions(spans: &[SpanTime]) -> Vec<Region> {
    let mut regions: Vec<Region> = Named::of(spans, REGION_SPAN)
        .0
        .into_iter()
        .map(|span| Region {
            span,
            busy_ns: Vec::new(),
            first_worker_end: u64::MAX,
        })
        .collect();
    for w in Named::of(spans, WORKER_SPAN).0 {
        let upto = regions.partition_point(|r| r.span.start_ns <= w.start_ns);
        if let Some(r) = regions[..upto]
            .iter_mut()
            .rev()
            .find(|r| w.end_ns() <= r.span.end_ns())
        {
            r.busy_ns.push(w.dur_ns);
            r.first_worker_end = r.first_worker_end.min(w.end_ns());
        }
    }
    regions
}

fn busy_ratio(regions: &[&Region]) -> f64 {
    let busy: u64 = regions.iter().flat_map(|r| &r.busy_ns).sum();
    let capacity: u64 = regions
        .iter()
        .map(|r| r.span.dur_ns * r.workers() as u64)
        .sum();
    if capacity == 0 {
        0.0
    } else {
        busy as f64 / capacity as f64
    }
}

/// FLOPs per nanosecond of self time (= GFLOP/s) of the spans named
/// `name`. Fork/join spans are transparent, so a kernel's self time is
/// the wall time of its parallel region.
fn gflops(self_spans: &[SpanTime], name: &str) -> f64 {
    let (flops, ns) = self_spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(f, t), s| (f + s.flops, t + s.self_ns));
    if ns == 0 {
        0.0
    } else {
        flops as f64 / ns as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of one traced run. `untraced_s` and
/// `traced_s` are the wall times of the same work without and with
/// tracing.
pub fn compute(
    events: &[Event],
    c: &Counts,
    setup: Setup,
    untraced_s: f64,
    traced_s: f64,
) -> Layers {
    let spans = self_times(events, &[]);
    let frames = frames(&spans);
    let n_frames = frames.len() as f64;
    let named = |name: &str| Named::of(&spans, name);
    let (det, loc, tra) = (named("stage.det"), named("stage.loc"), named("stage.tra"));
    let (fus, mot, fwd) = (
        named("stage.fusion"),
        named("stage.motplan"),
        named("dnn.forward"),
    );

    // Per-frame stage breakdown.
    let mut join_wait = Vec::new();
    let mut gap = Vec::new();
    let mut planning = Vec::new();
    let mut tracker_forwards = 0usize;
    for f in &frames {
        let (d, l, t) = (det.ms_inside(f), loc.ms_inside(f), tra.ms_inside(f));
        let p = fus.ms_inside(f) + mot.ms_inside(f);
        // DET and LOC fork only on a parallel runtime; on a serial one
        // they run back to back and nobody waits at the join.
        let forked = match (det.inside(f).next(), loc.inside(f).next()) {
            (Some(a), Some(b)) => a.start_ns < b.end_ns() && b.start_ns < a.end_ns(),
            _ => false,
        };
        if forked {
            join_wait.push((d - l).abs());
        }
        let critical = if forked { d.max(l) } else { d + l };
        gap.push(f.span.dur_ns as f64 / 1e6 - (critical + t + p));
        planning.push(p);
        for t in tra.inside(f) {
            let window = Frame {
                span: *t,
                alone: f.alone,
            };
            tracker_forwards += fwd.inside(&window).count();
        }
    }

    // Fork/join regions inside a frame belong to the intra-frame
    // runtime; the rest are fleet-level (the engine's cell pool, the
    // batched forward's kernels).
    let all_regions = regions(&spans);
    let in_frame = |s: &SpanTime| frames.iter().any(|f| f.holds(s));
    let (intra, fleet): (Vec<&Region>, Vec<&Region>) =
        all_regions.iter().partition(|r| in_frame(&r.span));
    let intra_overhead_ms: f64 = intra.iter().map(|r| r.overhead_ns() as f64).sum::<f64>() / 1e6;
    let tail_idle_s: f64 = fleet
        .iter()
        .filter(|r| r.workers() > 0)
        .map(|r| r.span.end_ns().saturating_sub(r.first_worker_end) as f64)
        .sum::<f64>()
        / 1e9;

    // The batched forward runs outside every frame.
    let shared_fwd_ms: f64 = fwd
        .0
        .iter()
        .filter(|s| !in_frame(s))
        .map(|s| s.dur_ns as f64)
        .sum::<f64>()
        / 1e6;
    let requests = c.batch.map_or(0, |b| b.requests) as f64;
    let lockstep_ms = if c.batch.is_some() {
        c.campaign_wall_s * 1e3 - shared_fwd_ms
    } else {
        0.0
    };

    // Time spent in a vehicle's frames outside `pipeline.frame`:
    // supervision, guard, governor, telemetry, checkpoints, replays.
    let cell_ms = if c.batch.is_some() {
        lockstep_ms
    } else if c.campaign_wall_s > 0.0 {
        fleet.iter().flat_map(|r| &r.busy_ns).sum::<u64>() as f64 / 1e6
    } else {
        named("bench.frame").total_ms()
    };
    let frame_ms: f64 = frames.iter().map(|f| f.span.dur_ns as f64).sum::<f64>() / 1e6;

    let self_spans = self_times(events, &[REGION_SPAN, WORKER_SPAN]);
    let relocalizations = c
        .relocalizations
        .unwrap_or_else(|| named("loc.reloc").0.len() as u64) as f64;

    vec![
        (
            "runtime.regions_per_frame",
            ratio(intra.len() as f64, n_frames),
            "count",
        ),
        (
            "runtime.region_overhead_ms_per_frame",
            ratio(intra_overhead_ms, n_frames),
            "ms",
        ),
        ("runtime.worker_busy_ratio", busy_ratio(&intra), "ratio"),
        ("core.join_wait_ms_p50", median(&join_wait), "ms"),
        ("core.frame_gap_ms_p50", median(&gap), "ms"),
        (
            "core.supervision_ms_per_frame",
            ratio(cell_ms - frame_ms, n_frames),
            "ms",
        ),
        ("perception.det_ms_p50", det.p50_ms(), "ms"),
        ("perception.tra_ms_p50", tra.p50_ms(), "ms"),
        (
            "perception.tra_update_ms_p50",
            named("tra.update").p50_ms(),
            "ms",
        ),
        (
            "perception.tra_associate_ms_p50",
            named("tra.associate").p50_ms(),
            "ms",
        ),
        (
            "perception.tracks_per_frame",
            ratio(tracker_forwards as f64, n_frames),
            "count",
        ),
        (
            "dnn.forward_calls_per_frame",
            ratio(fwd.0.len() as f64, n_frames),
            "count",
        ),
        (
            "dnn.conv2d_ms_per_frame",
            ratio(named("dnn.conv2d").total_ms(), n_frames),
            "ms",
        ),
        (
            "dnn.maxpool2d_ms_per_frame",
            ratio(named("dnn.maxpool2d").total_ms(), n_frames),
            "ms",
        ),
        (
            "dnn.linear_ms_per_frame",
            ratio(named("dnn.linear").total_ms(), n_frames),
            "ms",
        ),
        (
            "dnn.batched_forward_ms_per_image",
            ratio(shared_fwd_ms, requests),
            "ms",
        ),
        (
            "tensor.conv2d_gflops",
            gflops(&self_spans, "tensor.conv2d"),
            "GFLOP/s",
        ),
        (
            "tensor.linear_gflops",
            gflops(&self_spans, "tensor.linear"),
            "GFLOP/s",
        ),
        (
            "vision.orb_extract_ms_p50",
            named("orb.extract").p50_ms(),
            "ms",
        ),
        (
            "vision.orb_describe_ms_p50",
            named("orb.describe").p50_ms(),
            "ms",
        ),
        ("slam.loc_ms_p50", loc.p50_ms(), "ms"),
        ("slam.loc_track_ms_p50", named("loc.track").p50_ms(), "ms"),
        (
            "slam.map_update_ms_p50",
            named("loc.map_update").p50_ms(),
            "ms",
        ),
        ("slam.relocalizations", relocalizations, "count"),
        ("planning.ms_p50", median(&planning), "ms"),
        ("fleet.worker_busy_ratio", busy_ratio(&fleet), "ratio"),
        ("fleet.tail_idle_s", tail_idle_s, "s"),
        (
            "fleet.batch_size_mean",
            ratio(requests, c.batch.map_or(0, |b| b.batches) as f64),
            "count",
        ),
        (
            "fleet.lockstep_serial_ms_per_vehicle_frame",
            ratio(lockstep_ms, c.frames as f64),
            "ms",
        ),
        (
            "recovery.useful_frame_ratio",
            ratio(c.frames as f64, (c.frames + c.replayed_frames) as f64),
            "ratio",
        ),
        (
            "recovery.checkpoint_bytes_peak",
            c.checkpoint_bytes_peak as f64,
            "bytes",
        ),
        ("telemetry.series", c.telemetry_series as f64, "count"),
        ("telemetry.flight_dumps", c.flight_dumps as f64, "count"),
        (
            "anytime.quality_reduced_frames",
            c.quality_reduced_frames as f64,
            "count",
        ),
        ("guard.trips", c.guard_trips as f64, "count"),
        ("setup.prior_map_s", setup.prior_map_s, "s"),
        ("setup.pipeline_s", setup.pipeline_s, "s"),
        (
            "trace.overhead_pct",
            overhead_pct(untraced_s, traced_s),
            "%",
        ),
    ]
}
