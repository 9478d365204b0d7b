//! Microbenchmarks of the real computational kernels, so the
//! substrate's own performance can be tracked independently of the
//! calibrated platform models. Std-only timing (see
//! `adsim_bench::timing`); run with
//! `cargo bench -p adsim-bench --bench kernels`.

use adsim_bench::timing::{measure, report};
use adsim_dnn::fuse::fold_batch_norm;
use adsim_dnn::models::yolo_tiny;
use adsim_dnn::quant::{quant_conv2d, QuantTensor};
use adsim_dnn::{Activation, NetworkBuilder};
use adsim_perception::{BlobDetector, Detector};
use adsim_planning::{Centerline, ConformalPlanner, LatticePlanner, Obstacle};
use adsim_slam::{Landmark, PriorMap};
use adsim_runtime::Runtime;
use adsim_tensor::{ops, simd, Tensor};
use adsim_vision::{match_descriptors, Descriptor, GrayImage, OrbExtractor, Point2, Pose2};
use std::hint::black_box;

const BUDGET_MS: f64 = 300.0;

fn scene() -> GrayImage {
    GrayImage::from_fn(320, 240, |x, y| {
        let mut h = (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 31;
        (h % 200) as u8
    })
}

fn bench_tensor() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    let input = Tensor::filled([1, 16, 32, 32], 0.5);
    let weight = Tensor::filled([32, 16, 3, 3], 0.01);
    report(
        "conv2d_16x32x32_k32f3",
        &measure(BUDGET_MS, || {
            black_box(
                ops::conv2d(&rt, isa, black_box(&input), black_box(&weight), None, 1, 1).unwrap(),
            );
        }),
    );
    let a = Tensor::filled([128, 128], 1.0);
    let bm = Tensor::filled([128, 128], 2.0);
    report(
        "matmul_128",
        &measure(BUDGET_MS, || {
            black_box(ops::matmul(&rt, isa, black_box(&a), black_box(&bm)).unwrap());
        }),
    );
}

fn bench_dnn() {
    let rt = Runtime::serial();
    let net = yolo_tiny(4);
    let input = Tensor::zeros([1, 1, 32, 32]);
    report(
        "yolo_tiny_forward_32",
        &measure(BUDGET_MS, || {
            black_box(net.forward(&rt, black_box(&input)).unwrap());
        }),
    );

    // Int8 fixed-point conv (the ASIC arithmetic path).
    let qin = Tensor::filled([1, 16, 32, 32], 0.3);
    let qw = QuantTensor::quantize(&Tensor::filled([32, 16, 3, 3], 0.02));
    report(
        "quant_conv2d_16x32x32_k32f3",
        &measure(BUDGET_MS, || {
            black_box(quant_conv2d(&rt, black_box(&qin), black_box(&qw), None, 1, 1).unwrap());
        }),
    );

    // Batch-norm folded vs unfolded forward pass.
    let bn_net = NetworkBuilder::new("bn", [1, 8, 32, 32], 3)
        .conv(16, 3, 1, 1, Activation::None)
        .batch_norm()
        .conv(16, 3, 1, 1, Activation::None)
        .batch_norm()
        .build()
        .unwrap();
    let (folded, _) = fold_batch_norm(&bn_net);
    let bn_in = Tensor::filled([1, 8, 32, 32], 0.1);
    report(
        "forward_with_batchnorm",
        &measure(BUDGET_MS, || {
            black_box(bn_net.forward(&rt, black_box(&bn_in)).unwrap());
        }),
    );
    report(
        "forward_bn_folded",
        &measure(BUDGET_MS, || {
            black_box(folded.forward(&rt, black_box(&bn_in)).unwrap());
        }),
    );
}

fn bench_slam_io() {
    let map: PriorMap = (0..5_000u64)
        .map(|i| {
            Landmark::new(
                i,
                Point2::new((i % 100) as f64 * 2.0, (i / 100) as f64 * 2.0),
                Descriptor::new([(i % 251) as u8; 32]),
            )
        })
        .collect();
    let bytes = map.to_bytes();
    report(
        "prior_map_serialize_5k",
        &measure(BUDGET_MS, || {
            black_box(black_box(&map).to_bytes());
        }),
    );
    report(
        "prior_map_deserialize_5k",
        &measure(BUDGET_MS, || {
            black_box(PriorMap::from_bytes(black_box(&bytes)).unwrap());
        }),
    );
    report(
        "prior_map_query_5k",
        &measure(BUDGET_MS, || {
            black_box(black_box(&map).near(Point2::new(100.0, 50.0), 40.0));
        }),
    );
}

fn bench_vision() {
    let img = scene();
    let orb = OrbExtractor::new(300, 25).with_levels(2);
    report(
        "orb_extract_320x240",
        &measure(BUDGET_MS, || {
            black_box(orb.extract(black_box(&img)));
        }),
    );

    let descs: Vec<Descriptor> =
        (0..200).map(|i| Descriptor::new([(i % 256) as u8; 32])).collect();
    let train: Vec<Descriptor> =
        (0..1000).map(|i| Descriptor::new([(i % 251) as u8; 32])).collect();
    report(
        "hamming_match_200x1000",
        &measure(BUDGET_MS, || {
            black_box(match_descriptors(black_box(&descs), black_box(&train), 64, 0.85));
        }),
    );
}

fn bench_perception() {
    let mut img = scene();
    img.fill_rect(100, 100, 20, 10, 235);
    img.fill_rect(200, 60, 8, 8, 140);
    let mut det = BlobDetector::new();
    report(
        "blob_detect_320x240",
        &measure(BUDGET_MS, || {
            black_box(det.detect(black_box(&img)));
        }),
    );
}

fn bench_planning() {
    let planner = LatticePlanner::default();
    let obstacles: Vec<Obstacle> = (0..8)
        .map(|i| Obstacle::new(Point2::new(10.0 + i as f64, (i % 3) as f64 * 4.0 - 4.0), 1.0))
        .collect();
    report(
        "lattice_plan_30m",
        &measure(BUDGET_MS, || {
            black_box(planner.plan(Pose2::identity(), Point2::new(30.0, 0.0), black_box(&obstacles)));
        }),
    );
    let road = Centerline::straight(500.0);
    let conformal = ConformalPlanner::default();
    report(
        "conformal_plan",
        &measure(BUDGET_MS, || {
            black_box(conformal.plan(black_box(&road), 0.0, 0.0, 15.0, &[]));
        }),
    );
}

fn main() {
    adsim_bench::header("kernels", "Computational-kernel microbenchmarks");
    bench_tensor();
    bench_dnn();
    bench_vision();
    bench_perception();
    bench_planning();
    bench_slam_io();
}
