//! The three workloads: how each is set up from the seed, what is
//! timed, and how its outputs are checked against a reference.
//!
//! Every workload drives `UrbanDrive` at HHD. The scenario, the prior
//! map and the fleet cells' injector seeds all derive from the seed
//! argument; the program only ever sees the generated inputs.

use crate::layers::{self, Counts, Layers};
use adsim_core::{
    build_prior_map, DetectorKind, NativePipeline, NativePipelineConfig, TrackerKind,
};
use adsim_faults::FaultConfig;
use adsim_fleet::{
    BatchStats, CampaignResult, CellSpec, FleetAssets, FleetConfig, FleetEngine, RecoveryPolicy,
    TelemetrySession,
};
use adsim_guard::Hasher;
use adsim_perception::TrackerPoolConfig;
use adsim_perfbench::analysis::{median, tail_percentile};
use adsim_planning::MotionPlan;
use adsim_runtime::Runtime;
use adsim_slam::PriorMap;
use adsim_trace::TraceSession;
use adsim_vision::{OrthoCamera, Pose2};
use adsim_workload::{Resolution, Scenario, ScenarioKind};
use std::sync::Arc;
use std::time::Instant;

const RES: Resolution = Resolution::Hhd;

/// `drive` frames per episode.
const DRIVE_FRAMES: usize = 100;
/// Least `drive` episodes per untraced run: 200 frames, so p95 has ten
/// frames beyond it.
const DRIVE_MIN_EPISODES: usize = 2;
/// `drive` frames re-run on a 1-thread reference pipeline.
const DRIVE_REF_FRAMES: usize = 16;
/// YOLO grid of the paper configuration (`drive`, `fleet_batched`).
const PAPER_GRID: usize = 56;
/// YOLO grid of the LOC-bound `fleet` cells.
const FLEET_GRID: usize = 4;
/// Seed indices of `fleet`, one cell per fault mix each.
const FLEET_SEEDS: u64 = 9;
/// Frames per `fleet` cell.
const FLEET_FRAMES: usize = 12;
/// Seed indices of `fleet_batched`, one cell per fault mix each.
const BATCHED_SEEDS: u64 = 6;
/// Frames per `fleet_batched` cell (lockstep rounds per campaign).
const BATCHED_FRAMES: usize = 8;
/// Crash rate of the `fleet` crash mix.
const CRASH_RATE: f64 = 0.04;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Drive,
    Fleet,
    FleetBatched,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "drive" => Some(Self::Drive),
            "fleet" => Some(Self::Fleet),
            "fleet_batched" => Some(Self::FleetBatched),
            _ => None,
        }
    }
}

/// Set-up time, split by what it builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Scenario and prior-map survey.
    pub prior_map_s: f64,
    /// Model caches plus pipeline or engine construction.
    pub pipeline_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.prior_map_s + self.pipeline_s
    }
}

/// What one run of a workload produced.
pub struct Run {
    pub setup: Setup,
    /// Operations attempted: frames (`drive`) or vehicle-frames.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Digest over every checked output of the run.
    pub digest: String,
    pub report: Report,
}

/// What a run reports: the end-to-end metrics of an untraced run, or
/// the per-layer metrics of a traced one.
pub enum Report {
    EndToEnd {
        frame_ms_mean: f64,
        frame_ms_p95: f64,
        vehicle_frames_per_s: f64,
    },
    Layers(Layers),
}

/// SplitMix64: spreads consecutive seed arguments over the seed space.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The scenario and its prior map, surveyed at 120 poses: three
/// lateral passes every ten frames along the drive corridor.
struct World {
    scenario: Scenario,
    camera: OrthoCamera,
    map: Arc<PriorMap>,
}

impl World {
    fn build(seed: u64) -> Self {
        let scenario = Scenario::new(ScenarioKind::UrbanDrive, mix(seed));
        let camera = scenario.camera(RES);
        let poses: Vec<Pose2> = (0..40)
            .flat_map(|i| {
                let p = scenario.pose_at(i * 10);
                [
                    p,
                    Pose2::new(p.x, p.y + 25.0, p.theta),
                    Pose2::new(p.x, p.y - 25.0, p.theta),
                ]
            })
            .collect();
        let map = Arc::new(build_prior_map(scenario.world(), &camera, poses, 300, 25));
        Self {
            scenario,
            camera,
            map,
        }
    }
}

fn threads() -> usize {
    adsim_runtime::available_parallelism()
}

// ---------------------------------------------------------------- drive

/// The paper configuration: YOLO grid 56, a GOTURN pool of 64, ORB-300.
fn drive_config(threads: usize) -> NativePipelineConfig {
    NativePipelineConfig {
        detector: DetectorKind::Yolo {
            grid: PAPER_GRID,
            threshold: 0.10,
        },
        tracker: TrackerKind::Goturn,
        tracker_pool: TrackerPoolConfig {
            capacity: 64,
            ..Default::default()
        },
        runtime: Runtime::new(threads),
        ..Default::default()
    }
}

struct Drive {
    world: World,
}

impl Drive {
    fn setup(seed: u64) -> (Self, Setup) {
        let t = Instant::now();
        let world = World::build(seed);
        let prior_map_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        warm_models(PAPER_GRID);
        let drive = Self { world };
        std::hint::black_box(drive.pipeline(threads()));
        (
            drive,
            Setup {
                prior_map_s,
                pipeline_s: t.elapsed().as_secs_f64(),
            },
        )
    }

    fn pipeline(&self, threads: usize) -> NativePipeline {
        let mut pipe = NativePipeline::new(
            self.world.camera,
            self.world.map.clone(),
            drive_config(threads),
        );
        pipe.seed_pose(self.world.scenario.pose_at(0));
        pipe
    }

    /// One closed-loop episode on a fresh pipeline: each frame is sent
    /// only after the previous one returns.
    fn episode(&self, threads: usize, frames: usize) -> Episode {
        let mut pipe = self.pipeline(threads);
        let mut ms = Vec::with_capacity(frames);
        let mut digests = Vec::with_capacity(frames);
        for frame in self.world.scenario.stream(RES).take(frames) {
            let sp = adsim_trace::span("bench.frame");
            let t = Instant::now();
            let out = pipe.process(&frame.image, frame.time_s);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(sp);
            digests.push(frame_digest(&out));
        }
        Episode {
            ms,
            digests,
            relocalizations: pipe.localizer().stats().relocalizations,
        }
    }
}

struct Episode {
    ms: Vec<f64>,
    digests: Vec<u64>,
    relocalizations: u64,
}

/// The frame's deterministic outputs: pose, tracks and plan.
fn frame_digest(out: &adsim_core::NativeFrameResult) -> u64 {
    let mut h = Hasher::new();
    match out.pose {
        Some(p) => {
            h.word(1);
            h.word(p.x.to_bits());
            h.word(p.y.to_bits());
            h.word(p.theta.to_bits());
        }
        None => h.word(0),
    }
    for t in &out.tracks {
        h.word(t.track_id);
        h.f32s(&[t.bbox.cx, t.bbox.cy, t.bbox.w, t.bbox.h]);
    }
    h.word(out.tracks.len() as u64);
    match &out.plan {
        MotionPlan::Trajectory(t) => {
            h.word(1);
            h.word(t.speed_mps.to_bits());
        }
        MotionPlan::Path(_) => h.word(2),
        MotionPlan::EmergencyStop => h.word(3),
    }
    if let Some(wp) = out.plan.next_waypoint() {
        h.word(wp.x.to_bits());
        h.word(wp.y.to_bits());
        h.word(wp.theta.to_bits());
    }
    h.finish().0
}

fn fold(digests: impl IntoIterator<Item = u64>) -> String {
    let mut h = Hasher::new();
    for d in digests {
        h.word(d);
    }
    h.finish().to_string()
}

fn run_drive(seed: u64, seconds: f64, trace: bool) -> Run {
    let (drive, setup) = Drive::setup(seed);
    let n = threads();
    let mut ms = Vec::new();
    let mut episodes = Vec::new();
    let mut layers = None;
    if trace {
        // The traced episode sits between two untraced ones, whose mean
        // is its baseline: a steady drift in host speed cancels out.
        let before = drive.episode(n, DRIVE_FRAMES);
        let session = TraceSession::begin();
        let traced = drive.episode(n, DRIVE_FRAMES);
        let events = session.finish().events;
        let after = drive.episode(n, DRIVE_FRAMES);
        let counts = Counts {
            frames: DRIVE_FRAMES as u64,
            relocalizations: Some(traced.relocalizations),
            ..Counts::default()
        };
        let wall_s = |ep: &Episode| ep.ms.iter().sum::<f64>() / 1e3;
        layers = Some(layers::compute(
            &events,
            &counts,
            setup,
            (wall_s(&before) + wall_s(&after)) / 2.0,
            wall_s(&traced),
        ));
        episodes.extend([before, traced, after]);
    } else {
        // Whole episodes until the run has measured `seconds`: every
        // episode replays the same frames, so a faster program gets
        // more samples of the same distribution, never other frames.
        let start = Instant::now();
        while episodes.len() < DRIVE_MIN_EPISODES || start.elapsed().as_secs_f64() < seconds {
            let ep = drive.episode(n, DRIVE_FRAMES);
            ms.extend(&ep.ms);
            episodes.push(ep);
        }
    }

    // Outputs: every episode must reproduce the first frame for frame,
    // and a prefix must match a 1-thread reference pipeline.
    let reference = drive.episode(1, DRIVE_REF_FRAMES);
    let first = &episodes[0].digests;
    let mut failed = 0u64;
    for ep in &episodes {
        for (i, d) in ep.digests.iter().enumerate() {
            let ok = *d == first[i] && reference.digests.get(i).is_none_or(|r| r == d);
            failed += u64::from(!ok);
        }
    }
    let attempted = episodes.iter().map(|e| e.digests.len() as u64).sum();
    println!(
        "drive: {} episode(s) of {DRIVE_FRAMES} frames",
        episodes.len()
    );
    let report = match layers {
        Some(layers) => Report::Layers(layers),
        None => {
            // Printed, not reported: on a host whose cores drift between
            // two speeds, the median frame flips from one speed to the
            // other between runs, where the mean moves in proportion.
            println!("drive: frame p50 {:.3} ms", median(&ms));
            let total_ms: f64 = ms.iter().sum();
            Report::EndToEnd {
                frame_ms_mean: total_ms / ms.len() as f64,
                frame_ms_p95: tail_percentile(&ms, 0.95).expect("a run has at least 200 frames"),
                vehicle_frames_per_s: ms.len() as f64 / (total_ms / 1e3),
            }
        }
    };
    Run {
        setup,
        attempted,
        failed,
        digest: fold(first.iter().copied()),
        report,
    }
}

/// Fills the process-wide model caches the pipelines share.
fn warm_models(grid: usize) {
    std::hint::black_box(adsim_dnn::models::yolo_tiny_shared(grid));
    std::hint::black_box(adsim_dnn::models::goturn_tiny_shared());
}

// ---------------------------------------------------------------- fleets

/// The `data` fault mix: sensor blackouts, pixel corruption and stuck
/// frames, every other class off.
fn data_mix() -> FaultConfig {
    FaultConfig {
        blackout_rate: 0.06,
        blackout_frames: (2, 5),
        pixel_corruption_rate: 0.25,
        corrupted_fraction: 0.05,
        stuck_rate: 0.12,
        stuck_frames: (1, 3),
        ..FaultConfig::off()
    }
}

/// Mixes interleave within a seed index, so every prefix of
/// `mixes.len()` cells covers every mix (the reference runs a prefix,
/// and spec order fixes each cell's vehicle id).
fn specs(
    seed: u64,
    seeds: u64,
    frames: usize,
    mixes: &[(&str, FaultConfig, bool)],
) -> Vec<CellSpec> {
    let base = mix(seed ^ 0xF1EE7);
    let mut out = Vec::new();
    for i in 0..seeds {
        for (name, faults, recover) in mixes {
            let cell_seed = mix(base.wrapping_add(i));
            let spec = CellSpec::new(format!("{name}/{i}"), faults.clone(), cell_seed, frames);
            out.push(if *recover {
                spec.with_recovery(RecoveryPolicy::new(4, 64))
            } else {
                spec
            });
        }
    }
    out
}

struct Fleet {
    engine: FleetEngine,
    specs: Vec<CellSpec>,
    /// Cells the reference re-runs (a prefix of `specs`).
    ref_cells: usize,
    batched: bool,
}

impl Fleet {
    fn setup(seed: u64, batched: bool) -> (Self, Setup) {
        let t = Instant::now();
        let world = World::build(seed);
        let prior_map_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let grid = if batched { PAPER_GRID } else { FLEET_GRID };
        warm_models(grid);
        let assets = FleetAssets::new(world.scenario, RES, world.map);
        let cfg = FleetConfig {
            pipeline: NativePipelineConfig {
                detector: DetectorKind::Yolo {
                    grid,
                    threshold: 0.5,
                },
                tracker: TrackerKind::Goturn,
                runtime: Runtime::serial(),
                ..Default::default()
            },
            ..FleetConfig::with_workers(threads())
        };
        let engine = FleetEngine::new(assets, cfg);
        let (specs, ref_cells) = if batched {
            let mixes = [
                ("clean", FaultConfig::off(), false),
                ("data", data_mix(), false),
            ];
            (specs(seed, BATCHED_SEEDS, BATCHED_FRAMES, &mixes), 2)
        } else {
            let mixes = [
                ("clean", FaultConfig::off(), false),
                ("data", data_mix(), false),
                ("stress", FaultConfig::stress(), false),
                (
                    "crash",
                    FaultConfig {
                        crash_rate: CRASH_RATE,
                        ..FaultConfig::stress()
                    },
                    true,
                ),
            ];
            (specs(seed, FLEET_SEEDS, FLEET_FRAMES, &mixes), 4)
        };
        let fleet = Self {
            engine,
            specs,
            ref_cells,
            batched,
        };
        (
            fleet,
            Setup {
                prior_map_s,
                pipeline_s: t.elapsed().as_secs_f64(),
            },
        )
    }

    /// One timed campaign through the public entry point.
    fn campaign(&self) -> Campaign {
        let sp = adsim_trace::span("bench.campaign");
        let t = Instant::now();
        let (result, batch) = if self.batched {
            let (r, s) = self.engine.run_batched(&self.specs);
            (r, Some(s))
        } else {
            (self.engine.run(&self.specs), None)
        };
        let wall_s = t.elapsed().as_secs_f64();
        drop(sp);
        Campaign::read(&result, batch, wall_s)
    }

    /// The reference for the first `ref_cells` cells: unbatched `run`
    /// for the batched engine, `run_serial` for the work-stealing one.
    fn reference(&self) -> Vec<String> {
        let prefix = &self.specs[..self.ref_cells];
        let r = if self.batched {
            self.engine.run(prefix)
        } else {
            self.engine.run_serial(prefix)
        };
        r.signatures()
    }
}

/// What the checks and metrics need from one campaign. The full
/// result (per-cell telemetry registries, flight dumps) is dropped once
/// read, so the peak RSS does not grow with the number of campaigns.
struct Campaign {
    cells: Vec<Cell>,
    /// Mean per-vehicle-frame end-to-end latency in the fleet sink (ms).
    e2e_mean_ms: f64,
    counts: Counts,
    wall_s: f64,
}

struct Cell {
    label: String,
    signature: String,
    frames: u64,
    /// Nothing uncaught, every crash restarted, nothing quarantined.
    contained: bool,
    p99_ms: f64,
}

impl Campaign {
    fn read(r: &CampaignResult, batch: Option<BatchStats>, wall_s: f64) -> Self {
        let cells = r
            .outcomes
            .iter()
            .map(|o| Cell {
                label: o.label.clone(),
                signature: o.signature(),
                frames: o.frames,
                contained: o.uncaught == 0 && o.restarts == o.crashes && !o.quarantined,
                p99_ms: o.p99_ms,
            })
            .collect();
        let sum = |f: fn(&adsim_fleet::CellOutcome) -> u64| r.outcomes.iter().map(f).sum::<u64>();
        let counts = Counts {
            frames: r.sink.frames,
            replayed_frames: r.sink.replayed_frames,
            campaign_wall_s: wall_s,
            relocalizations: None,
            batch,
            checkpoint_bytes_peak: r
                .outcomes
                .iter()
                .map(|o| o.checkpoint_bytes)
                .max()
                .unwrap_or(0),
            telemetry_series: r.telemetry.len() as u64,
            flight_dumps: r.outcomes.iter().map(|o| o.dumps.len() as u64).sum(),
            quality_reduced_frames: sum(|o| o.quality_reduced_frames),
            guard_trips: sum(|o| o.monitor_trips),
            crashes: r.sink.crashes,
        };
        Self {
            cells,
            e2e_mean_ms: r.sink.stages.end_to_end.mean(),
            counts,
            wall_s,
        }
    }
}

fn run_fleet(seed: u64, seconds: f64, trace: bool, batched: bool) -> Run {
    let (fleet, setup) = Fleet::setup(seed, batched);
    // Only the work-stealing fleet records telemetry; the session spans
    // every campaign of the run so each sees the same recorder state.
    let telemetry = (!batched).then(TelemetrySession::begin);
    let mut campaigns = Vec::new();
    let mut layers = None;
    if trace {
        // Untraced campaigns either side of the traced one, as in `drive`.
        let before = fleet.campaign();
        let session = TraceSession::begin();
        let traced = fleet.campaign();
        let events = session.finish().events;
        let after = fleet.campaign();
        layers = Some(layers::compute(
            &events,
            &traced.counts,
            setup,
            (before.wall_s + after.wall_s) / 2.0,
            traced.wall_s,
        ));
        campaigns.extend([before, traced, after]);
    } else {
        let start = Instant::now();
        while campaigns.is_empty() || start.elapsed().as_secs_f64() < seconds {
            campaigns.push(fleet.campaign());
        }
    }
    drop(telemetry);

    // Outputs: every campaign must reproduce the first cell for cell,
    // a prefix must match the reference engine, and the crash
    // contract must hold: nothing uncaught, every crash restarted,
    // nothing quarantined.
    let reference = fleet.reference();
    let first = &campaigns[0].cells;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for c in &campaigns {
        attempted += c.counts.frames;
        for (i, cell) in c.cells.iter().enumerate() {
            let ok = cell.signature == first[i].signature
                && reference.get(i).is_none_or(|r| *r == cell.signature)
                && cell.contained;
            if !ok {
                println!("check failed: cell {}", cell.label);
                failed += cell.frames;
            }
        }
    }
    // Pooled over the run's campaigns, which repeat the same cells: a
    // run that straddles a change in host speed lands between the two
    // speeds, where a median of a few campaigns would pick one.
    let n = campaigns.len() as f64;
    let e2e_mean_ms = campaigns.iter().map(|c| c.e2e_mean_ms).sum::<f64>() / n;
    let frames: u64 = campaigns.iter().map(|c| c.counts.frames).sum();
    let wall_s: f64 = campaigns.iter().map(|c| c.wall_s).sum();
    // The clean mix injects no latency, so its cells' p99 is wall clock.
    let tails: Vec<f64> = campaigns
        .iter()
        .flat_map(|c| &c.cells)
        .filter(|cell| cell.label.starts_with("clean/"))
        .map(|cell| cell.p99_ms)
        .collect();
    let counts = &campaigns[0].counts;
    println!(
        "{}: {} campaign(s) of {} cells, {} vehicle-frames, {} crashes, {} replayed{}",
        if batched { "fleet_batched" } else { "fleet" },
        campaigns.len(),
        fleet.specs.len(),
        counts.frames,
        counts.crashes,
        counts.replayed_frames,
        counts.batch.map_or(String::new(), |s| format!(
            ", batches {} mean {:.1} max {}",
            s.batches,
            s.requests as f64 / s.batches.max(1) as f64,
            s.largest_batch
        )),
    );
    Run {
        setup,
        attempted,
        failed,
        digest: {
            let mut h = Hasher::new();
            first
                .iter()
                .for_each(|cell| h.bytes(cell.signature.as_bytes()));
            h.finish().to_string()
        },
        report: layers.map_or(
            Report::EndToEnd {
                frame_ms_mean: e2e_mean_ms,
                frame_ms_p95: median(&tails),
                vehicle_frames_per_s: frames as f64 / wall_s,
            },
            Report::Layers,
        ),
    }
}

/// Builds the workload's world and pipeline or engine, and nothing else.
pub fn setup_only(w: Workload, seed: u64) -> Setup {
    match w {
        Workload::Drive => Drive::setup(seed).1,
        Workload::Fleet => Fleet::setup(seed, false).1,
        Workload::FleetBatched => Fleet::setup(seed, true).1,
    }
}

/// Sets the workload up, measures it and checks its outputs.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Run {
    match w {
        Workload::Drive => run_drive(seed, seconds, trace),
        Workload::Fleet => run_fleet(seed, seconds, trace, false),
        Workload::FleetBatched => run_fleet(seed, seconds, trace, true),
    }
}
