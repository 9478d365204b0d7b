//! SIMD-vs-scalar parity and dispatch coverage.
//!
//! Every kernel is exercised on **both** the detected backend
//! (`simd::active()`) and the portable scalar backend (`Isa::SCALAR`,
//! passed directly as each op's `isa` argument — not via the
//! `force-scalar` feature) in one run, so CI on any host covers both
//! paths. The contract under test is the crate's numerics policy:
//!
//! * FMA-free kernels (relu, leaky-relu, pooling, batch-norm, conv
//!   bias) are **bit-identical** across backends;
//! * the FMA-contracted GEMM kernels (matmul, conv2d, linear) agree
//!   with scalar to ≤1e-5 **relative** error;
//! * for a fixed backend, every kernel is bit-identical across
//!   1/2/8-thread runtimes.

use adsim_runtime::Runtime;
use adsim_tensor::simd::{self, Isa};
use adsim_tensor::{ops, Tensor};

const THREADS: [usize; 3] = [1, 2, 8];

/// Deterministic non-trivial fill: varied signs and magnitudes.
fn fill(shape: impl Into<adsim_tensor::Shape>) -> Tensor {
    let shape = shape.into();
    let n = shape.len();
    Tensor::from_vec(
        shape,
        (0..n)
            .map(|i| ((i * 2_654_435_761 % 1_000) as f32 / 500.0 - 1.0) * 0.7)
            .collect(),
    )
    .unwrap()
}

fn assert_rel_close(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shapes differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= 1e-5 * y.abs().max(1.0),
            "{ctx}: element {i} differs: {x} vs {y}"
        );
    }
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shapes differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
}

#[test]
fn dispatch_reports_both_paths() {
    let active = simd::active();
    // With force-scalar the probe must be pinned to the fallback;
    // without it the probe may be either, but SCALAR is constructible
    // and callable everywhere.
    if cfg!(feature = "force-scalar") {
        assert!(active.is_scalar(), "force-scalar must pin the fallback");
    }
    assert!(Isa::SCALAR.is_scalar());
    assert_ne!(Isa::SCALAR.name(), "");
    assert_ne!(active.name(), "");
}

#[test]
fn matmul_simd_matches_scalar_within_fma_tolerance() {
    // Non-multiple-of-4 rows, non-multiple-of-16 columns, and a
    // k larger than one 256-row panel.
    for (m, k, n) in [(1, 1, 1), (4, 8, 16), (7, 300, 23), (33, 65, 40)] {
        let a = fill([m, k]);
        let b = fill([k, n]);
        let scalar = ops::matmul(&Runtime::serial(), Isa::SCALAR, &a, &b).unwrap();
        for t in THREADS {
            let rt = Runtime::new(t);
            let vec = ops::matmul(&rt, simd::active(), &a, &b).unwrap();
            assert_rel_close(&vec, &scalar, &format!("matmul {m}x{k}x{n} t={t}"));
            let sc = ops::matmul(&rt, Isa::SCALAR, &a, &b).unwrap();
            assert_bits_equal(&sc, &scalar, &format!("scalar matmul {m}x{k}x{n} t={t}"));
        }
    }
}

#[test]
fn linear_simd_matches_scalar_within_fma_tolerance() {
    let x = fill([3, 70]);
    let w = fill([19, 70]);
    let bias = fill([19]);
    let scalar = ops::linear(&Runtime::serial(), Isa::SCALAR, &x, &w, Some(&bias)).unwrap();
    for t in THREADS {
        let rt = Runtime::new(t);
        let vec = ops::linear(&rt, simd::active(), &x, &w, Some(&bias)).unwrap();
        assert_rel_close(&vec, &scalar, &format!("linear t={t}"));
        let sc = ops::linear(&rt, Isa::SCALAR, &x, &w, Some(&bias)).unwrap();
        assert_bits_equal(&sc, &scalar, &format!("scalar linear t={t}"));
    }
}

#[test]
fn conv2d_simd_matches_scalar_within_fma_tolerance() {
    let input = fill([2, 3, 13, 17]);
    let weight = fill([5, 3, 3, 3]);
    let bias = fill([5]);
    for (stride, pad) in [(1, 1), (2, 0)] {
        let scalar = ops::conv2d(
            &Runtime::serial(),
            Isa::SCALAR,
            &input,
            &weight,
            Some(&bias),
            stride,
            pad,
        )
        .unwrap();
        for t in THREADS {
            let rt = Runtime::new(t);
            let vec =
                ops::conv2d(&rt, simd::active(), &input, &weight, Some(&bias), stride, pad)
                    .unwrap();
            assert_rel_close(&vec, &scalar, &format!("conv s={stride} p={pad} t={t}"));
            let sc = ops::conv2d(&rt, Isa::SCALAR, &input, &weight, Some(&bias), stride, pad)
                .unwrap();
            assert_bits_equal(&sc, &scalar, &format!("scalar conv s={stride} p={pad} t={t}"));
        }
    }
}

#[test]
fn activations_are_bit_identical_across_backends() {
    // Length not a multiple of 8 exercises the scalar tails.
    let t = fill([3, 7, 11]);
    let scalar_relu = ops::relu(&Runtime::serial(), Isa::SCALAR, &t);
    let scalar_leaky = ops::leaky_relu(&Runtime::serial(), Isa::SCALAR, &t, 0.1);
    for threads in THREADS {
        let rt = Runtime::new(threads);
        assert_bits_equal(
            &ops::relu(&rt, simd::active(), &t),
            &scalar_relu,
            &format!("relu t={threads}"),
        );
        assert_bits_equal(
            &ops::leaky_relu(&rt, simd::active(), &t, 0.1),
            &scalar_leaky,
            &format!("leaky_relu t={threads}"),
        );
    }
}

#[test]
fn pooling_is_bit_identical_across_backends() {
    let t = fill([2, 3, 19, 21]);
    for (window, stride) in [(2, 1), (3, 1), (2, 2), (3, 2)] {
        let max_s =
            ops::max_pool2d(&Runtime::serial(), Isa::SCALAR, &t, window, stride).unwrap();
        let avg_s =
            ops::avg_pool2d(&Runtime::serial(), Isa::SCALAR, &t, window, stride).unwrap();
        for threads in THREADS {
            let rt = Runtime::new(threads);
            assert_bits_equal(
                &ops::max_pool2d(&rt, simd::active(), &t, window, stride).unwrap(),
                &max_s,
                &format!("max_pool w={window} s={stride} t={threads}"),
            );
            assert_bits_equal(
                &ops::avg_pool2d(&rt, simd::active(), &t, window, stride).unwrap(),
                &avg_s,
                &format!("avg_pool w={window} s={stride} t={threads}"),
            );
        }
    }
}

#[test]
fn batch_norm_is_bit_identical_across_backends() {
    let x = fill([2, 5, 9, 13]);
    let gamma = fill([5]);
    let beta = fill([5]);
    let mean = fill([5]);
    let var = Tensor::from_vec([5], vec![0.5, 1.0, 2.0, 0.25, 4.0]).unwrap();
    let scalar = ops::batch_norm(
        &Runtime::serial(),
        Isa::SCALAR,
        &x,
        &gamma,
        &beta,
        &mean,
        &var,
        1e-5,
    )
    .unwrap();
    // A serial run on the active backend must match exactly too.
    let (serial, isa) = (Runtime::serial(), simd::active());
    let plain = ops::batch_norm(&serial, isa, &x, &gamma, &beta, &mean, &var, 1e-5).unwrap();
    for threads in THREADS {
        let rt = Runtime::new(threads);
        let vec = ops::batch_norm(&rt, simd::active(), &x, &gamma, &beta, &mean, &var, 1e-5)
            .unwrap();
        assert_bits_equal(&vec, &scalar, &format!("batch_norm t={threads}"));
        assert_bits_equal(&vec, &plain, &format!("batch_norm vs plain t={threads}"));
    }
}

/// Deterministic int8 fill covering the full quantized range.
fn fill_i8(n: usize) -> Vec<i8> {
    (0..n)
        .map(|i| ((i * 2_654_435_761 % 255) as i32 - 127) as i8)
        .collect()
}

#[test]
fn matmul_i8_is_bit_identical_across_backends_and_threads() {
    // Integer accumulation is exact, so unlike the f32 GEMM the
    // contract here is bit-identity — across backends, thread counts
    // and tilings alike. Shapes cover the 16/8/scalar column tails,
    // odd k (the (a_k, 0) trailing pair), and k > one 256-row panel.
    for (m, k, n) in [(1, 1, 1), (4, 8, 16), (7, 301, 23), (33, 65, 40)] {
        let a = fill_i8(m * k);
        let b = fill_i8(k * n);
        let mut scalar = vec![0i32; m * n];
        ops::matmul_i8_into(&Runtime::serial(), Isa::SCALAR, &a, &b, &mut scalar, m, k, n);
        for t in THREADS {
            let rt = Runtime::new(t);
            let mut vec_out = vec![0i32; m * n];
            ops::matmul_i8_into(&rt, simd::active(), &a, &b, &mut vec_out, m, k, n);
            assert_eq!(vec_out, scalar, "matmul_i8 {m}x{k}x{n} t={t}");
            let mut sc = vec![0i32; m * n];
            ops::matmul_i8_into(&rt, Isa::SCALAR, &a, &b, &mut sc, m, k, n);
            assert_eq!(sc, scalar, "scalar matmul_i8 {m}x{k}x{n} t={t}");
        }
    }
}

#[test]
fn conv2d_batch_of_n_matches_n_single_image_convs_bitwise() {
    // The batched conv appends each image's im2col columns to one GEMM;
    // with the mul_add_s tail policy an output element's value depends
    // only on its k-order, never its column position, so batch-N must
    // be bit-identical to N separate batch-1 calls — on every backend
    // and thread count.
    let n_imgs = 3;
    let input = fill([n_imgs, 3, 13, 17]);
    let weight = fill([5, 3, 3, 3]);
    let bias = fill([5]);
    let per_image_len = 3 * 13 * 17;
    for isa in [simd::active(), Isa::SCALAR] {
        for (stride, pad) in [(1, 1), (2, 0)] {
            for t in THREADS {
                let rt = Runtime::new(t);
                let batched =
                    ops::conv2d(&rt, isa, &input, &weight, Some(&bias), stride, pad).unwrap();
                let (_, c_out, h_out, w_out) = batched.shape().as_nchw().unwrap();
                let out_len = c_out * h_out * w_out;
                for img in 0..n_imgs {
                    let single = Tensor::from_vec(
                        [1, 3, 13, 17],
                        input.as_slice()[img * per_image_len..][..per_image_len].to_vec(),
                    )
                    .unwrap();
                    let one =
                        ops::conv2d(&rt, isa, &single, &weight, Some(&bias), stride, pad)
                            .unwrap();
                    let got = &batched.as_slice()[img * out_len..][..out_len];
                    for (i, (x, y)) in got.iter().zip(one.iter()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "conv batch-parity img={img} elem={i} s={stride} p={pad} t={t} \
                             isa={}: {x} vs {y}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn im2col_batched_stacks_per_image_columns() {
    let input = fill([2, 2, 6, 7]);
    let cols = ops::im2col_batched(&input, 3, 3, 1, 1).unwrap();
    let per_image_len = 2 * 6 * 7;
    let (h_out, w_out) = (6, 7);
    let cols_n = h_out * w_out;
    let k = 2 * 3 * 3;
    assert_eq!(cols.shape().dims(), &[k, 2 * cols_n]);
    for img in 0..2 {
        let single = Tensor::from_vec(
            [1, 2, 6, 7],
            input.as_slice()[img * per_image_len..][..per_image_len].to_vec(),
        )
        .unwrap();
        let one = ops::im2col(&single, 3, 3, 1, 1).unwrap();
        for row in 0..k {
            let got = &cols.as_slice()[row * 2 * cols_n + img * cols_n..][..cols_n];
            let want = &one.as_slice()[row * cols_n..][..cols_n];
            assert_eq!(got, want, "im2col_batched img={img} row={row}");
        }
    }
}

#[test]
fn hamming_is_exact_on_both_backends() {
    let mut a = [0u8; 32];
    let mut b = [0u8; 32];
    for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
        *x = (i as u8).wrapping_mul(37);
        *y = (i as u8).wrapping_mul(37) ^ (1 << (i % 8));
    }
    // Exactly one flipped bit per byte.
    assert_eq!(simd::hamming256_isa(Isa::SCALAR, &a, &b), 32);
    assert_eq!(simd::hamming256_isa(simd::active(), &a, &b), 32);
    assert_eq!(simd::hamming256(&a, &b), 32);
}
