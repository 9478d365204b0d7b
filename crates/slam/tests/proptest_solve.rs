//! Property-based tests of the robust pose solver.
//!
//! Each property runs on [`CASES`] inputs drawn from a seeded
//! [`Rng64`], so the suite is offline, deterministic and reproducible:
//! a failure names the case index, and re-running replays it exactly.

use adsim_slam::{estimate_pose, Correspondence};
use adsim_stats::Rng64;
use adsim_vision::{Point2, Pose2};

/// Inputs checked per property.
const CASES: u64 = 48;

/// Runs `property` once per case, each on its own generator seeded
/// from the property's `salt` and the case index.
fn for_cases(salt: u64, mut property: impl FnMut(u64, &mut Rng64)) {
    for case in 0..CASES {
        let mut rng = Rng64::new(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case);
        property(case, &mut rng);
    }
}

fn pose(rng: &mut Rng64) -> Pose2 {
    Pose2::new(rng.range_f64(-50.0, 50.0), rng.range_f64(-50.0, 50.0), rng.range_f64(-3.0, 3.0))
}

/// 6 to 14 points in a 40 m square. Uniform draws that many are never
/// a degenerate cluster; the spread is asserted, not assumed.
fn spread_points(rng: &mut Rng64) -> Vec<Point2> {
    let n = rng.range_usize(6, 15);
    let pts: Vec<Point2> = (0..n)
        .map(|_| Point2::new(rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0)))
        .collect();
    let spread = pts.iter().map(|q| q.distance(&pts[0])).fold(0.0f64, f64::max);
    assert!(spread > 0.5, "degenerate point cluster drawn");
    pts
}

#[test]
fn exact_correspondences_recover_the_pose() {
    for_cases(1, |case, rng| {
        let (p, pts) = (pose(rng), spread_points(rng));
        let corrs: Vec<Correspondence> =
            pts.iter().map(|&v| Correspondence { vehicle: v, world: p.transform(v) }).collect();
        let est = estimate_pose(&corrs, corrs.len().min(6)).expect("solvable");
        assert!(est.pose.distance(&p) < 1e-6, "case {case}: {:?} vs {p:?}", est.pose);
        assert!(est.pose.heading_error(&p) < 1e-6, "case {case}");
    });
}

#[test]
fn minority_outliers_do_not_move_the_solution() {
    for_cases(2, |case, rng| {
        let (p, pts) = (pose(rng), spread_points(rng));
        let (ox, oy) = (rng.range_f64(100.0, 500.0), rng.range_f64(100.0, 500.0));
        let mut corrs: Vec<Correspondence> =
            pts.iter().map(|&v| Correspondence { vehicle: v, world: p.transform(v) }).collect();
        let n_inliers = corrs.len();
        // Up to 1/3 outliers.
        for k in 0..n_inliers / 3 {
            corrs.push(Correspondence {
                vehicle: Point2::new(k as f64, -(k as f64)),
                world: Point2::new(ox + 13.0 * k as f64, oy - 7.0 * k as f64),
            });
        }
        let est = estimate_pose(&corrs, n_inliers.min(6)).expect("solvable");
        assert!(est.pose.distance(&p) < 1e-6, "case {case}");
        assert!(est.inliers >= n_inliers - 1, "case {case}: {} inliers", est.inliers);
    });
}
