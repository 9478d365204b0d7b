use super::linear::matmul_into;
use super::out_extent;
use adsim_runtime::Runtime;
use std::cell::RefCell;

use crate::simd::{self, Isa};
use crate::{Result, Tensor, TensorError};

thread_local! {
    /// Reusable im2col / GEMM-output scratch for [`conv2d`].
    ///
    /// Batched convolutions need `k·n·cols_n`-sized staging buffers that
    /// exceed the allocator's mmap threshold, so allocating them fresh
    /// per layer costs a page-fault sweep over tens of megabytes —
    /// which is what used to make per-image latency *rise* with batch
    /// size. Keeping one warm buffer pair per thread turns that into a
    /// plain memset over already-mapped pages. Contents never survive a
    /// call (both buffers are re-zeroed), so results are unaffected.
    static CONV_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Zeroes and returns the first `len` elements of `buf`.
fn zeroed(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(len, 0.0);
    &mut buf[..]
}

/// 2-D convolution (really cross-correlation, as in every DNN framework)
/// of an NCHW `input` with an OIHW `weight`, implemented as im2col
/// followed by a matrix multiply — the same lowering cuDNN and the
/// paper's FPGA processing elements use.
///
/// * `input`: `[n, c_in, h, w]`
/// * `weight`: `[c_out, c_in, kh, kw]`
/// * `bias`: optional `[c_out]`
/// * output: `[n, c_out, h_out, w_out]`
///
/// Batches are **column-appended**: every image's im2col columns land
/// in one `[k, n·h_out·w_out]` matrix (image `b` owning the column
/// band `b·cols_n..(b+1)·cols_n`) and a single
/// `[c_out, k] × [k, n·cols_n]` GEMM covers the whole batch, so the
/// weight matrix streams through the cache **once per batch** instead
/// of once per image — the weight-traffic amortization the fleet's
/// cross-vehicle batched inference is built on. The GEMM runs on the
/// `isa` lane microkernels (im2col itself stays scalar — it is a pure
/// memory permutation) and parallelizes over output-row blocks of the
/// combined matrix on `rt`'s workers, so wider batches also mean
/// better core utilization at small `c_out`.
///
/// Because an output element's k-accumulation order is fixed and the
/// lane kernels are column-position-invariant (see `simd`), the result
/// for image `b` in a batch of any size is **bit-identical** to
/// running that image alone — and identical on every thread count.
///
/// # Errors
///
/// Returns an error if ranks differ from 4/1, the channel counts
/// disagree, the bias length differs from `c_out`, the stride is zero,
/// or the kernel does not fit the padded input.
///
/// # Examples
///
/// ```
/// use adsim_runtime::Runtime;
/// use adsim_tensor::{ops, simd, Tensor};
///
/// let input = Tensor::filled([1, 1, 3, 3], 1.0);
/// let weight = Tensor::filled([1, 1, 3, 3], 1.0);
/// let (rt, isa) = (Runtime::serial(), simd::active());
/// let out = ops::conv2d(&rt, isa, &input, &weight, None, 1, 0).unwrap();
/// assert_eq!(out.as_slice(), &[9.0]);
/// ```
pub fn conv2d(
    rt: &Runtime,
    isa: Isa,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (c_out, wc_in, kh, kw) = weight.shape().as_nchw()?;
    validate_conv_args(c_in, wc_in, bias, c_out, stride)?;
    let (h_out, w_out) = conv_output_hw(h, w, kh, kw, stride, pad)?;

    // OIHW weight data is already laid out as [c_out, c_in*kh*kw].
    let k = c_in * kh * kw;
    let cols_n = h_out * w_out;
    let plane = c_out * cols_n;
    let _sp = adsim_trace::span("tensor.conv2d").with_cost(
        2 * (n * c_out * k * cols_n) as u64,
        4 * (input.len() + weight.len() + n * plane) as u64,
    );
    let mut out = Tensor::zeros([n, c_out, h_out, w_out]);
    let rt = rt.for_work(2 * n * c_out * k * cols_n);
    let total_cols = n * cols_n;
    CONV_SCRATCH.with_borrow_mut(|(cols_buf, gemm_buf)| {
        let cols = zeroed(cols_buf, k * total_cols);
        for b in 0..n {
            im2col_into(
                input, b, kh, kw, stride, pad, h_out, w_out, b * cols_n, total_cols, cols,
            );
        }
        if n == 1 {
            // Single image: the GEMM output layout already is the NCHW
            // plane, so no scatter pass is needed.
            matmul_into(rt, isa, weight.as_slice(), cols, out.as_mut_slice(), c_out, k, cols_n);
        } else {
            // One GEMM over the appended columns, then scatter the
            // [c_out, n·cols_n] product into [n, c_out, cols_n] planes (a
            // pure copy — the arithmetic all happened in the GEMM).
            let gemm_out = zeroed(gemm_buf, c_out * total_cols);
            matmul_into(rt, isa, weight.as_slice(), cols, gemm_out, c_out, k, total_cols);
            let dst = out.as_mut_slice();
            for b in 0..n {
                for oc in 0..c_out {
                    let src = &gemm_out[oc * total_cols + b * cols_n..][..cols_n];
                    dst[(b * c_out + oc) * cols_n..][..cols_n].copy_from_slice(src);
                }
            }
        }
    });
    if let Some(bias) = bias {
        add_channel_bias(&mut out, bias, isa);
    }
    Ok(out)
}

/// Reference direct (sextuple-loop) convolution, used to validate the
/// im2col path in tests. Same contract as [`conv2d`].
///
/// # Errors
///
/// See [`conv2d`].
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (c_out, wc_in, kh, kw) = weight.shape().as_nchw()?;
    validate_conv_args(c_in, wc_in, bias, c_out, stride)?;
    let (h_out, w_out) = conv_output_hw(h, w, kh, kw, stride, pad)?;

    let mut out = Tensor::zeros([n, c_out, h_out, w_out]);
    for b in 0..n {
        for oc in 0..c_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let mut acc = 0.0f32;
                    for ic in 0..c_in {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                    continue;
                                }
                                acc += input.at(&[b, ic, iy as usize, ix as usize])
                                    * weight.at(&[oc, ic, ky, kx]);
                            }
                        }
                    }
                    *out.at_mut(&[b, oc, oy, ox]) = acc;
                }
            }
        }
    }
    if let Some(bias) = bias {
        add_channel_bias(&mut out, bias, Isa::SCALAR);
    }
    Ok(out)
}

/// Unrolls one image into convolution columns: the result is a
/// `[c_in*kh*kw, h_out*w_out]` matrix whose columns are flattened
/// receptive fields.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4 or the kernel does not fit.
pub fn im2col(
    input: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let (_, c_in, h, w) = input.shape().as_nchw()?;
    let (h_out, w_out) = conv_output_hw(h, w, kh, kw, stride, pad)?;
    let cols_n = h_out * w_out;
    let mut cols = Tensor::zeros([c_in * kh * kw, cols_n]);
    im2col_into(input, 0, kh, kw, stride, pad, h_out, w_out, 0, cols_n, cols.as_mut_slice());
    Ok(cols)
}

/// [`im2col`] over a whole `[n, c, h, w]` batch with column appending:
/// the result is `[c·kh·kw, n·h_out·w_out]` where image `b` owns the
/// column band `b·h_out·w_out..(b+1)·h_out·w_out` — the layout the
/// batched conv GEMM consumes, exposed for the quantized conv path.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4 or the kernel does not fit.
pub fn im2col_batched(
    input: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (h_out, w_out) = conv_output_hw(h, w, kh, kw, stride, pad)?;
    let cols_n = h_out * w_out;
    let total_cols = n * cols_n;
    let mut cols = Tensor::zeros([c_in * kh * kw, total_cols]);
    let dst = cols.as_mut_slice();
    for b in 0..n {
        im2col_into(input, b, kh, kw, stride, pad, h_out, w_out, b * cols_n, total_cols, dst);
    }
    Ok(cols)
}

/// Unrolls image `batch` of `input` into the column band starting at
/// `col_base` of `out`, a zeroed `[c_in*kh*kw, row_stride]` matrix —
/// the allocation-free core of [`im2col`]. With `col_base = b·cols_n`
/// and `row_stride = n·cols_n` the bands of a whole batch append into
/// one matrix for the batched GEMM; a single image passes `0, cols_n`.
#[allow(clippy::too_many_arguments)]
fn im2col_into(
    input: &Tensor,
    batch: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    h_out: usize,
    w_out: usize,
    col_base: usize,
    row_stride: usize,
    out: &mut [f32],
) {
    let (_, c_in, h, w) = input
        .shape()
        .as_nchw()
        .expect("caller validated rank");
    let cols_n = h_out * w_out;
    debug_assert!(col_base + cols_n <= row_stride);
    debug_assert_eq!(out.len(), c_in * kh * kw * row_stride);
    let data = input.as_slice();
    let in_plane = h * w;
    let in_base = batch * c_in * in_plane;
    for ic in 0..c_in {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ic * kh + ky) * kw + kx;
                let row_base = row * row_stride + col_base;
                for oy in 0..h_out {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = in_base + ic * in_plane + iy as usize * w;
                    let dst_row = row_base + oy * w_out;
                    for ox in 0..w_out {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[dst_row + ox] = data[src_row + ix as usize];
                    }
                }
            }
        }
    }
}

fn validate_conv_args(
    c_in: usize,
    wc_in: usize,
    bias: Option<&Tensor>,
    c_out: usize,
    stride: usize,
) -> Result<()> {
    if c_in != wc_in {
        return Err(TensorError::InvalidParameter {
            op: "conv2d",
            reason: format!("input has {c_in} channels but weight expects {wc_in}"),
        });
    }
    if stride == 0 {
        return Err(TensorError::InvalidParameter {
            op: "conv2d",
            reason: "stride must be positive".into(),
        });
    }
    if let Some(b) = bias {
        if b.shape().rank() != 1 || b.shape().dim(0) != c_out {
            return Err(TensorError::InvalidParameter {
                op: "conv2d",
                reason: format!(
                    "bias shape {} does not match {c_out} output channels",
                    b.shape()
                ),
            });
        }
    }
    Ok(())
}

fn conv_output_hw(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<(usize, usize)> {
    match (out_extent(h, kh, stride, pad), out_extent(w, kw, stride, pad)) {
        (Some(h_out), Some(w_out)) => Ok((h_out, w_out)),
        _ => Err(TensorError::InvalidParameter {
            op: "conv2d",
            reason: format!("kernel {kh}x{kw} does not fit input {h}x{w} with pad {pad}"),
        }),
    }
}

fn add_channel_bias(out: &mut Tensor, bias: &Tensor, isa: Isa) {
    let (n, c, h, w) = out.shape().as_nchw().expect("conv output is rank 4");
    let b = bias.as_slice();
    let data = out.as_mut_slice();
    for batch in 0..n {
        for (ch, &bias_ch) in b.iter().enumerate().take(c) {
            let base = (batch * c + ch) * h * w;
            simd::add_scalar(isa, &mut data[base..base + h * w], bias_ch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: impl Into<crate::Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.len();
        Tensor::from_vec(shape, (0..n).map(|i| i as f32 * 0.1 - 1.0).collect()).unwrap()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let input = seq_tensor([1, 1, 5, 5]);
        let mut weight = Tensor::zeros([1, 1, 3, 3]);
        *weight.at_mut(&[0, 0, 1, 1]) = 1.0;
        let out = conv2d(&rt, isa, &input, &weight, None, 1, 1).unwrap();
        assert_eq!(out.shape(), input.shape());
        for y in 0..5 {
            for x in 0..5 {
                assert!((out.at(&[0, 0, y, x]) - input.at(&[0, 0, y, x])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn im2col_matches_direct_convolution() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let input = seq_tensor([2, 3, 7, 6]);
        let weight = seq_tensor([4, 3, 3, 3]);
        let bias = Tensor::from_vec([4], vec![0.1, -0.2, 0.3, 0.0]).unwrap();
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (2, 0)] {
            let fast = conv2d(&rt, isa, &input, &weight, Some(&bias), stride, pad).unwrap();
            let slow = conv2d_direct(&input, &weight, Some(&bias), stride, pad).unwrap();
            assert_eq!(fast.shape(), slow.shape());
            // Relative tolerance: the im2col GEMM may use FMA while
            // the direct reference accumulates with separate roundings.
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!(
                    (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                    "stride={stride} pad={pad}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn stride_two_halves_output() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let input = Tensor::filled([1, 1, 8, 8], 1.0);
        let weight = Tensor::filled([1, 1, 2, 2], 1.0);
        let out = conv2d(&rt, isa, &input, &weight, None, 2, 0).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 4, 4]);
        assert!(out.iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn bias_adds_per_channel() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let input = Tensor::filled([1, 1, 2, 2], 0.0);
        let weight = Tensor::zeros([2, 1, 1, 1]);
        let bias = Tensor::from_vec([2], vec![1.5, -2.5]).unwrap();
        let out = conv2d(&rt, isa, &input, &weight, Some(&bias), 1, 0).unwrap();
        assert!(out.as_slice()[..4].iter().all(|&v| v == 1.5));
        assert!(out.as_slice()[4..].iter().all(|&v| v == -2.5));
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let input = Tensor::zeros([1, 2, 4, 4]);
        let weight = Tensor::zeros([1, 3, 3, 3]);
        assert!(conv2d(&rt, isa, &input, &weight, None, 1, 0).is_err());
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let input = Tensor::zeros([1, 1, 2, 2]);
        let weight = Tensor::zeros([1, 1, 3, 3]);
        assert!(conv2d(&rt, isa, &input, &weight, None, 1, 0).is_err());
    }

    #[test]
    fn bad_bias_is_rejected() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let input = Tensor::zeros([1, 1, 4, 4]);
        let weight = Tensor::zeros([2, 1, 1, 1]);
        let bias = Tensor::zeros([3]);
        assert!(conv2d(&rt, isa, &input, &weight, Some(&bias), 1, 0).is_err());
    }

    #[test]
    fn im2col_shape_is_receptive_fields_by_positions() {
        let input = Tensor::zeros([1, 3, 5, 5]);
        let cols = im2col(&input, 3, 3, 1, 1).unwrap();
        assert_eq!(cols.shape().dims(), &[3 * 3 * 3, 5 * 5]);
    }
}
