//! Property-based tests over the core data structures and numerical
//! invariants.
//!
//! Each property runs on [`CASES`] inputs drawn from a seeded
//! [`Rng64`], so the suite is offline, deterministic and reproducible:
//! a failure names the case index, and re-running replays it exactly.

use adsim::dnn::detection::BBox;
use adsim::runtime::Runtime;
use adsim::stats::{LatencyRecorder, Rng64};
use adsim::tensor::{ops, simd, Tensor};
use adsim::vision::{geometry::normalize_angle, Descriptor, Point2, Pose2};

/// Inputs checked per property.
const CASES: u64 = 64;

/// Runs `property` once per case, each on its own generator seeded
/// from the property's `salt` and the case index.
fn for_cases(salt: u64, mut property: impl FnMut(u64, &mut Rng64)) {
    for case in 0..CASES {
        let mut rng = Rng64::new(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case);
        property(case, &mut rng);
    }
}

/// `n` values on the grid `k / 10` for integer `k` in `[-100, 100)`.
fn small_f32s(rng: &mut Rng64, n: usize) -> Vec<f32> {
    (0..n).map(|_| (rng.range_usize(0, 200) as i32 - 100) as f32 / 10.0).collect()
}

fn pose(rng: &mut Rng64) -> Pose2 {
    let (x, y) = (rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0));
    Pose2::new(x, y, rng.range_f64(-10.0, 10.0))
}

fn point(rng: &mut Rng64) -> Point2 {
    Point2::new(rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0))
}

fn descriptor(rng: &mut Rng64) -> Descriptor {
    Descriptor::new(std::array::from_fn(|_| rng.next_u64() as u8))
}

// ---- tensor kernels ----

#[test]
fn conv2d_im2col_matches_direct() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    for_cases(1, |case, rng| {
        let (n, c_in, c_out) =
            (rng.range_usize(1, 3), rng.range_usize(1, 4), rng.range_usize(1, 4));
        // `k <= 3 <= h, w`, so every shape admits at least one window.
        let (h, w) = (rng.range_usize(3, 8), rng.range_usize(3, 8));
        let k = rng.range_usize(1, 4);
        let (stride, pad) = (rng.range_usize(1, 3), rng.range_usize(0, 2));
        let input = Tensor::from_fn([n, c_in, h, w], |_| rng.range_f32(-2.0, 2.0));
        let weight = Tensor::from_fn([c_out, c_in, k, k], |_| rng.range_f32(-2.0, 2.0));
        let fast = ops::conv2d(&rt, isa, &input, &weight, None, stride, pad).unwrap();
        let slow = ops::conv2d_direct(&input, &weight, None, stride, pad).unwrap();
        assert_eq!(fast.shape(), slow.shape(), "case {case}");
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-3, "case {case}: {a} vs {b}");
        }
    });
}

#[test]
fn tensor_add_commutes() {
    for_cases(2, |case, rng| {
        let a = Tensor::from_vec([3, 4], small_f32s(rng, 12)).unwrap();
        let b = Tensor::from_vec([3, 4], small_f32s(rng, 12)).unwrap();
        assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap(), "case {case}");
    });
}

#[test]
fn softmax_is_a_distribution() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    for_cases(3, |case, rng| {
        let t = Tensor::from_vec([2, 4], small_f32s(rng, 8)).unwrap();
        let s = ops::softmax(&rt, isa, &t);
        for row in 0..2 {
            let sum: f32 = s.as_slice()[row * 4..(row + 1) * 4].iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case}: row {row} sums to {sum}");
        }
        assert!(s.iter().all(|&x| (0.0..=1.0).contains(&x)), "case {case}");
    });
}

#[test]
fn max_pool_output_bounded_by_input() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    for_cases(4, |case, rng| {
        let v = small_f32s(rng, 16);
        let t = Tensor::from_vec([1, 1, 4, 4], v.clone()).unwrap();
        let p = ops::max_pool2d(&rt, isa, &t, 2, 2).unwrap();
        let max_in = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(p.iter().all(|&x| x <= max_in), "case {case}");
        assert!((p.max() - max_in).abs() < 1e-6, "case {case}: global max survives pooling");
    });
}

// ---- geometry ----

#[test]
fn pose_transform_round_trips() {
    for_cases(5, |case, rng| {
        let (p, q) = (pose(rng), point(rng));
        let r = p.inverse_transform(p.transform(q));
        assert!((r.x - q.x).abs() < 1e-6 && (r.y - q.y).abs() < 1e-6, "case {case}");
    });
}

#[test]
fn pose_inverse_composes_to_identity() {
    for_cases(6, |case, rng| {
        let p = pose(rng);
        let id = p.compose(&p.inverse());
        assert!(id.x.abs() < 1e-6 && id.y.abs() < 1e-6 && id.theta.abs() < 1e-6, "case {case}");
    });
}

#[test]
fn pose_transform_preserves_distance() {
    for_cases(7, |case, rng| {
        let (p, a, b) = (pose(rng), point(rng), point(rng));
        let d0 = a.distance(&b);
        let d1 = p.transform(a).distance(&p.transform(b));
        assert!((d0 - d1).abs() < 1e-6, "case {case}: rigid transforms are isometries");
    });
}

#[test]
fn normalized_angles_stay_in_range() {
    for_cases(8, |case, rng| {
        let t = rng.range_f64(-100.0, 100.0);
        let n = normalize_angle(t);
        assert!(
            n > -std::f64::consts::PI - 1e-12 && n <= std::f64::consts::PI + 1e-12,
            "case {case}: {t} -> {n}"
        );
        // Same direction: sin/cos agree.
        assert!((n.sin() - t.sin()).abs() < 1e-6, "case {case}");
        assert!((n.cos() - t.cos()).abs() < 1e-6, "case {case}");
    });
}

// ---- bounding boxes ----

#[test]
fn iou_is_symmetric_and_bounded() {
    for_cases(9, |case, rng| {
        let mut bbox = || {
            BBox::new(
                rng.range_f32(0.0, 1.0),
                rng.range_f32(0.0, 1.0),
                rng.range_f32(0.01, 0.5),
                rng.range_f32(0.01, 0.5),
            )
        };
        let (a, b) = (bbox(), bbox());
        let iab = a.iou(&b);
        let iba = b.iou(&a);
        assert!((iab - iba).abs() < 1e-6, "case {case}: {iab} vs {iba}");
        assert!((0.0..=1.0 + 1e-6).contains(&iab), "case {case}: {iab}");
        // Self-IoU through corner round-trips suffers f32 cancellation
        // on small boxes; allow a relative slack.
        assert!((a.iou(&a) - 1.0).abs() < 5e-3, "case {case}");
    });
}

// ---- descriptors ----

#[test]
fn hamming_is_a_metric() {
    for_cases(10, |case, rng| {
        let (da, db, dc) = (descriptor(rng), descriptor(rng), descriptor(rng));
        assert_eq!(da.hamming(&db), db.hamming(&da), "case {case}");
        assert_eq!(da.hamming(&da), 0, "case {case}");
        assert!(
            da.hamming(&dc) <= da.hamming(&db) + db.hamming(&dc),
            "case {case}: triangle inequality"
        );
    });
}

// ---- statistics ----

#[test]
fn quantiles_are_monotone() {
    for_cases(11, |case, rng| {
        let n = rng.range_usize(2, 200);
        let mut rec: LatencyRecorder = (0..n).map(|_| rng.range_f64(0.0, 1000.0)).collect();
        let mut last = 0.0;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = rec.quantile_fraction(q);
            assert!(v >= last - 1e-9, "case {case}: quantile({q}) = {v} < {last}");
            last = v;
        }
        let s = rec.summary();
        assert!(s.mean >= rec.min() && s.mean <= rec.max(), "case {case}");
        assert!((rec.quantile_fraction(1.0) - rec.max()).abs() < 1e-9, "case {case}");
    });
}

// ---- pose solving ----

#[test]
fn estimate_pose_recovers_rigid_motion() {
    use adsim::slam::{estimate_pose, Correspondence};
    for_cases(12, |case, rng| {
        let p = pose(rng);
        let corrs: Vec<Correspondence> = (0..8)
            .map(|_| {
                let v = Point2::new(rng.range_f64(-10.0, 10.0), rng.range_f64(-10.0, 10.0));
                Correspondence { vehicle: v, world: p.transform(v) }
            })
            .collect();
        if let Some(est) = estimate_pose(&corrs, 6) {
            assert!(est.pose.distance(&p) < 1e-6, "case {case}: {:?} vs {p:?}", est.pose);
        } else {
            // Only acceptable when the points were degenerate.
            let spread = corrs
                .iter()
                .map(|c| c.vehicle.distance(&corrs[0].vehicle))
                .fold(0.0f64, f64::max);
            assert!(spread < 1e-3, "case {case}: non-degenerate solve must succeed");
        }
    });
}
