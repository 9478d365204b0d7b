//! Property-based tests of kernel algebraic identities.
//!
//! Each property runs on [`CASES`] inputs drawn from a seeded
//! [`Rng64`], so the suite is offline, deterministic and reproducible:
//! a failure names the case index, and re-running replays it exactly.

use adsim_runtime::Runtime;
use adsim_stats::Rng64;
use adsim_tensor::{ops, simd, Tensor};

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

/// `n` values on the grid `k / 100` for integer `k` in `[-1000, 1000)`,
/// i.e. within `[-10, 10)`.
fn vec_f32(rng: &mut Rng64, n: usize) -> Vec<f32> {
    (0..n).map(|_| (rng.range_usize(0, 2000) as i32 - 1000) as f32 / 100.0).collect()
}

#[test]
fn linear_equals_matmul_against_transpose() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    for_cases(1, |case, rng| {
        let x = vec_f32(rng, 2 * 5);
        let w = vec_f32(rng, 3 * 5);
        let input = Tensor::from_vec([2, 5], x).unwrap();
        let weight = Tensor::from_vec([3, 5], w.clone()).unwrap();
        let lin = ops::linear(&rt, isa, &input, &weight, None).unwrap();
        // Build the transpose manually.
        let mut wt = vec![0.0; 15];
        for r in 0..3 {
            for c in 0..5 {
                wt[c * 3 + r] = w[r * 5 + c];
            }
        }
        let wt = Tensor::from_vec([5, 3], wt).unwrap();
        let mm = ops::matmul(&rt, isa, &input, &wt).unwrap();
        for (a, b) in lin.iter().zip(mm.iter()) {
            assert!((a - b).abs() < 1e-3, "case {case}: {a} vs {b}");
        }
    });
}

#[test]
fn matmul_distributes_over_addition() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    for_cases(2, |case, rng| {
        let a = Tensor::from_vec([2, 3], vec_f32(rng, 6)).unwrap();
        let b = Tensor::from_vec([3, 2], vec_f32(rng, 6)).unwrap();
        let c = Tensor::from_vec([3, 2], vec_f32(rng, 6)).unwrap();
        let lhs = ops::matmul(&rt, isa, &a, &b.add(&c).unwrap()).unwrap();
        let ab = ops::matmul(&rt, isa, &a, &b).unwrap();
        let rhs = ab.add(&ops::matmul(&rt, isa, &a, &c).unwrap()).unwrap();
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            assert!((x - y).abs() < 1e-2, "case {case}: {x} vs {y}");
        }
    });
}

#[test]
fn relu_is_idempotent() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    for_cases(3, |case, rng| {
        let t = Tensor::from_vec([16], vec_f32(rng, 16)).unwrap();
        let once = ops::relu(&rt, isa, &t);
        let twice = ops::relu(&rt, isa, &once);
        assert_eq!(once, twice, "case {case}");
    });
}

#[test]
fn avg_pool_preserves_mean_on_exact_tiling() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    for_cases(4, |case, rng| {
        let t = Tensor::from_vec([1, 1, 4, 4], vec_f32(rng, 16)).unwrap();
        let p = ops::avg_pool2d(&rt, isa, &t, 2, 2).unwrap();
        let mean_in = t.sum() / 16.0;
        let mean_out = p.sum() / 4.0;
        assert!((mean_in - mean_out).abs() < 1e-4, "case {case}: {mean_in} vs {mean_out}");
    });
}

#[test]
fn batch_norm_with_identity_params_is_noop() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    let gamma = Tensor::filled([3], 1.0);
    let beta = Tensor::zeros([3]);
    let mean = Tensor::zeros([3]);
    let var = Tensor::filled([3], 1.0);
    for_cases(5, |case, rng| {
        let t = Tensor::from_vec([1, 3, 2, 2], vec_f32(rng, 12)).unwrap();
        let out = ops::batch_norm(&rt, isa, &t, &gamma, &beta, &mean, &var, 0.0).unwrap();
        for (a, b) in t.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-5, "case {case}: {a} vs {b}");
        }
    });
}

#[test]
fn conv_is_linear_in_the_input() {
    let (rt, isa) = (Runtime::serial(), simd::active());
    for_cases(6, |case, rng| {
        let a = Tensor::from_vec([1, 1, 5, 5], vec_f32(rng, 25)).unwrap();
        let b = Tensor::from_vec([1, 1, 5, 5], vec_f32(rng, 25)).unwrap();
        let k = Tensor::from_vec([1, 1, 3, 3], vec_f32(rng, 9)).unwrap();
        let conv = |x: &Tensor| ops::conv2d(&rt, isa, x, &k, None, 1, 1).unwrap();
        let sum_then_conv = conv(&a.add(&b).unwrap());
        let conv_then_sum = conv(&a).add(&conv(&b)).unwrap();
        for (x, y) in sum_then_conv.iter().zip(conv_then_sum.iter()) {
            assert!((x - y).abs() < 1e-2, "case {case}: {x} vs {y}");
        }
    });
}
