use adsim_runtime::Runtime;

use crate::simd::{self, Isa};
use crate::Tensor;

/// Contiguous spans of elements for the worker pool: a few chunks per
/// worker so an uneven finisher cannot straggle the join.
fn elementwise_span(len: usize, threads: usize) -> usize {
    len.div_ceil(4 * threads).max(1)
}

/// Rectified linear unit: `max(0, x)` element-wise, on `rt`'s workers
/// with the `isa` lane kernels. The kernel is FMA-free, so every
/// backend is bit-identical.
///
/// # Examples
///
/// ```
/// use adsim_runtime::Runtime;
/// use adsim_tensor::{ops, simd, Tensor};
///
/// let t = Tensor::from_vec([3], vec![-1.0, 0.0, 2.0]).unwrap();
/// let y = ops::relu(&Runtime::serial(), simd::active(), &t);
/// assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
/// ```
pub fn relu(rt: &Runtime, isa: Isa, t: &Tensor) -> Tensor {
    let mut out = t.clone();
    let rt = rt.for_work(out.len());
    let span = elementwise_span(out.len(), rt.threads());
    rt.par_chunks_mut(out.as_mut_slice(), span, |_, chunk| simd::relu(isa, chunk));
    out
}

/// Leaky ReLU with negative slope `alpha`, the activation YOLO uses
/// throughout its convolutional trunk. FMA-free, so every backend is
/// bit-identical.
pub fn leaky_relu(rt: &Runtime, isa: Isa, t: &Tensor, alpha: f32) -> Tensor {
    let mut out = t.clone();
    let rt = rt.for_work(out.len());
    let span = elementwise_span(out.len(), rt.threads());
    rt.par_chunks_mut(out.as_mut_slice(), span, |_, chunk| {
        simd::leaky_relu(isa, chunk, alpha);
    });
    out
}

/// Logistic sigmoid, used by the detection head to squash objectness
/// confidences into `[0, 1]`. There is no lane kernel: every backend
/// runs the same scalar `exp`, so `isa` only keeps the op signature
/// uniform.
pub fn sigmoid(rt: &Runtime, _isa: Isa, t: &Tensor) -> Tensor {
    t.map_with(rt, |x| 1.0 / (1.0 + (-x).exp()))
}

/// Hyperbolic tangent. Scalar on every backend, like [`sigmoid`].
pub fn tanh(rt: &Runtime, _isa: Isa, t: &Tensor) -> Tensor {
    t.map_with(rt, f32::tanh)
}

/// Softmax along the final axis, used to turn class scores into a
/// distribution over the four object categories the paper cares about.
/// Rows normalize independently on `rt`'s workers; scalar on every
/// backend, like [`sigmoid`].
///
/// Numerically stabilized by subtracting the row maximum.
pub fn softmax(rt: &Runtime, _isa: Isa, t: &Tensor) -> Tensor {
    let rank = t.shape().rank();
    let last = t.shape().dim(rank - 1);
    let mut out = t.clone();
    if last == 0 {
        return out;
    }
    let rt = rt.for_work(3 * t.len());
    rt.par_chunks_mut(out.as_mut_slice(), last, |_, row| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives_only() {
        let t = Tensor::from_vec([4], vec![-5.0, -0.1, 0.1, 5.0]).unwrap();
        let y = relu(&Runtime::serial(), simd::active(), &t);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.1, 5.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let t = Tensor::from_vec([2], vec![-10.0, 10.0]).unwrap();
        let y = leaky_relu(&Runtime::serial(), simd::active(), &t, 0.1);
        assert_eq!(y.as_slice(), &[-1.0, 10.0]);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let t = Tensor::from_vec([3], vec![-100.0, 0.0, 100.0]).unwrap();
        let s = sigmoid(&Runtime::serial(), simd::active(), &t);
        assert!(s.as_slice()[0] < 1e-6);
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(s.as_slice()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        let t = Tensor::from_vec([2], vec![-1.0, 1.0]).unwrap();
        let y = tanh(&Runtime::serial(), simd::active(), &t);
        assert!((y.as_slice()[0] + y.as_slice()[1]).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = softmax(&Runtime::serial(), simd::active(), &t);
        for r in 0..2 {
            let sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Largest logit keeps the largest probability.
        assert_eq!(
            s.as_slice()[..3]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0,
            2
        );
    }

    #[test]
    fn parallel_activations_match_serial() {
        let t = Tensor::from_vec(
            [3, 7],
            (0..21).map(|i| (i as f32 - 10.0) * 0.3).collect(),
        )
        .unwrap();
        let (par, serial, isa) = (Runtime::new(4), Runtime::serial(), simd::active());
        assert_eq!(relu(&par, isa, &t), relu(&serial, isa, &t));
        assert_eq!(leaky_relu(&par, isa, &t, 0.1), leaky_relu(&serial, isa, &t, 0.1));
        assert_eq!(sigmoid(&par, isa, &t), sigmoid(&serial, isa, &t));
        assert_eq!(tanh(&par, isa, &t), tanh(&serial, isa, &t));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec([1, 2], vec![1000.0, 1000.0]).unwrap();
        let s = softmax(&Runtime::serial(), simd::active(), &t);
        assert!((s.as_slice()[0] - 0.5).abs() < 1e-6);
    }
}
