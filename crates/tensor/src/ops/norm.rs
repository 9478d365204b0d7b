use adsim_runtime::Runtime;

use crate::simd::{self, Isa};
use crate::{Result, Tensor, TensorError};

/// Inference-time batch normalization over an NCHW tensor.
///
/// Applies `gamma[c] * (x - mean[c]) / sqrt(var[c] + eps) + beta[c]`
/// per channel, using the folded statistics a trained network would
/// carry. YOLOv2 batch-normalizes every convolutional layer.
///
/// Each `n × c` plane is one task on `rt`'s workers, folded to
/// `x·scale + shift` with the channel's statistics. The `isa` plane
/// kernel keeps multiply and add as separate roundings (no FMA), so
/// every backend is bit-identical.
///
/// # Errors
///
/// Returns an error if the input is not rank 4 or any parameter vector
/// length differs from the channel count.
///
/// # Examples
///
/// ```
/// use adsim_runtime::Runtime;
/// use adsim_tensor::{ops, simd, Tensor};
///
/// let x = Tensor::filled([1, 1, 2, 2], 3.0);
/// let gamma = Tensor::filled([1], 2.0);
/// let beta = Tensor::filled([1], 1.0);
/// let mean = Tensor::filled([1], 3.0);
/// let var = Tensor::filled([1], 1.0);
/// let (rt, isa) = (Runtime::serial(), simd::active());
/// let y = ops::batch_norm(&rt, isa, &x, &gamma, &beta, &mean, &var, 0.0).unwrap();
/// assert!(y.iter().all(|&v| (v - 1.0).abs() < 1e-6));
/// ```
#[allow(clippy::too_many_arguments)]
pub fn batch_norm(
    rt: &Runtime,
    isa: Isa,
    input: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    let (_, c, h, w) = input.shape().as_nchw()?;
    for (name, t) in [("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)] {
        if t.shape().rank() != 1 || t.shape().dim(0) != c {
            return Err(TensorError::InvalidParameter {
                op: "batch_norm",
                reason: format!("{name} shape {} does not match {c} channels", t.shape()),
            });
        }
    }
    let mut out = input.clone();
    let (g, b, m, v) = (gamma.as_slice(), beta.as_slice(), mean.as_slice(), var.as_slice());
    let plane = h * w;
    if plane > 0 && c > 0 {
        let rt = rt.for_work(3 * out.len());
        rt.par_chunks_mut(out.as_mut_slice(), plane, |idx, chunk| {
            let ch = idx % c;
            let scale = g[ch] / (v[ch] + eps).sqrt();
            let shift = b[ch] - m[ch] * scale;
            simd::scale_shift(isa, chunk, scale, shift);
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_to_zero_mean_unit_variance() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        // Channel with mean 10, var 4 -> values +-1 after normalization.
        let x = Tensor::from_vec([1, 1, 1, 2], vec![8.0, 12.0]).unwrap();
        let gamma = Tensor::filled([1], 1.0);
        let beta = Tensor::filled([1], 0.0);
        let mean = Tensor::filled([1], 10.0);
        let var = Tensor::filled([1], 4.0);
        let y = batch_norm(&rt, isa, &x, &gamma, &beta, &mean, &var, 0.0).unwrap();
        assert!((y.as_slice()[0] + 1.0).abs() < 1e-6);
        assert!((y.as_slice()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn per_channel_parameters_are_independent() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let x = Tensor::filled([1, 2, 1, 1], 1.0);
        let gamma = Tensor::from_vec([2], vec![1.0, 10.0]).unwrap();
        let beta = Tensor::from_vec([2], vec![0.0, 5.0]).unwrap();
        let mean = Tensor::zeros([2]);
        let var = Tensor::filled([2], 1.0);
        let y = batch_norm(&rt, isa, &x, &gamma, &beta, &mean, &var, 0.0).unwrap();
        assert!((y.as_slice()[0] - 1.0).abs() < 1e-6);
        assert!((y.as_slice()[1] - 15.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_mismatched_parameters() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let x = Tensor::zeros([1, 3, 2, 2]);
        let ok = Tensor::zeros([3]);
        let bad = Tensor::zeros([2]);
        assert!(batch_norm(&rt, isa, &x, &bad, &ok, &ok, &ok, 1e-5).is_err());
        assert!(batch_norm(&rt, isa, &x, &ok, &ok, &ok, &bad, 1e-5).is_err());
    }

    #[test]
    fn eps_guards_zero_variance() {
        let (rt, isa) = (Runtime::serial(), simd::active());
        let x = Tensor::filled([1, 1, 1, 1], 5.0);
        let ones = Tensor::filled([1], 1.0);
        let zeros = Tensor::zeros([1]);
        let y = batch_norm(&rt, isa, &x, &ones, &zeros, &zeros, &zeros, 1e-5).unwrap();
        assert!(y.as_slice()[0].is_finite());
    }
}
