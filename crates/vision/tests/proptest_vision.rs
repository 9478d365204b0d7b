//! Property-based tests of camera geometry and image resampling.
//!
//! Each property runs on [`CASES`] inputs drawn from a seeded
//! [`Rng64`], so the suite is offline, deterministic and reproducible:
//! a failure names the case index, and re-running replays it exactly.

use adsim_stats::Rng64;
use adsim_vision::{GrayImage, OrthoCamera, Point2, Pose2};

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

fn pose(rng: &mut Rng64) -> Pose2 {
    Pose2::new(rng.range_f64(-200.0, 200.0), rng.range_f64(-200.0, 200.0), rng.range_f64(-7.0, 7.0))
}

#[test]
fn camera_world_image_round_trip() {
    let cam = OrthoCamera::new(320, 240, 0.25);
    for_cases(1, |case, rng| {
        let p = pose(rng);
        let world = Point2::new(p.x + rng.range_f64(-50.0, 50.0), p.y + rng.range_f64(-50.0, 50.0));
        let (u, v) = cam.world_to_image(&p, world);
        let back = cam.image_to_world(&p, u, v);
        assert!((back.x - world.x).abs() < 1e-9, "case {case}");
        assert!((back.y - world.y).abs() < 1e-9, "case {case}");
    });
}

#[test]
fn vehicle_frame_distances_preserved() {
    let cam = OrthoCamera::new(320, 240, 0.25);
    for_cases(2, |case, rng| {
        let p = pose(rng);
        // Pixel distance x GSD equals world distance for an ortho camera.
        let a = Point2::new(p.x, p.y);
        let b = Point2::new(p.x + rng.range_f64(-20.0, 20.0), p.y + rng.range_f64(-20.0, 20.0));
        let (ua, va) = cam.world_to_image(&p, a);
        let (ub, vb) = cam.world_to_image(&p, b);
        let px = ((ua - ub).powi(2) + (va - vb).powi(2)).sqrt();
        assert!((px * 0.25 - a.distance(&b)).abs() < 1e-9, "case {case}");
    });
}

#[test]
fn crop_is_translation_of_clamped_reads() {
    let img = GrayImage::from_fn(32, 32, |x, y| ((x * 7 + y * 13) % 251) as u8);
    for_cases(3, |case, rng| {
        let (ox, oy) = (rng.range_usize(0, 45) as isize - 5, rng.range_usize(0, 45) as isize - 5);
        let (w, h) = (rng.range_usize(1, 12), rng.range_usize(1, 12));
        let c = img.crop(ox, oy, w, h);
        for cy in 0..h {
            for cx in 0..w {
                assert_eq!(
                    c.get(cx, cy),
                    img.get_clamped(ox + cx as isize, oy + cy as isize),
                    "case {case}: ({cx}, {cy})"
                );
            }
        }
    });
}

#[test]
fn downsample_output_within_input_range() {
    for_cases(4, |case, rng| {
        let seed = rng.range_usize(0, 500) as u64;
        let img = GrayImage::from_fn(16, 16, |x, y| {
            (seed.wrapping_mul(31).wrapping_add((x * 17 + y * 29) as u64) % 256) as u8
        });
        let d = img.downsample();
        let lo = *img.as_slice().iter().min().unwrap();
        let hi = *img.as_slice().iter().max().unwrap();
        assert!(d.as_slice().iter().all(|&p| p >= lo && p <= hi), "case {case}");
    });
}
