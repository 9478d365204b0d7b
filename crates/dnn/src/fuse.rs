//! Inference-graph optimization: batch-norm folding.
//!
//! Deployed inference engines (cuDNN graphs, FPGA bitstreams, ASIC
//! datapaths — everything the paper accelerates with) never execute
//! batch normalization as a separate layer: its folded statistics are
//! algebraically merged into the preceding convolution's weights and
//! bias. This pass performs that fold, shrinking both layer count and
//! per-frame FLOPs with bit-identical semantics up to floating-point
//! rounding.

use crate::layer::Layer;
use crate::network::Network;
use adsim_tensor::Tensor;

/// Result of a fusion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuseReport {
    /// Batch-norm layers folded away.
    pub folded: usize,
    /// Layers remaining.
    pub layers: usize,
}

/// Folds every `Conv2d → BatchNorm` pair of `net` into a single
/// convolution with adjusted weights and bias. Batch-norm layers not
/// preceded by a convolution are left in place.
///
/// For `y = γ·(conv(x, W) + b − μ)/√(σ²+ε) + β`, the folded layer is
/// `conv(x, W·s) + (b − μ)·s + β` with `s = γ/√(σ²+ε)` per output
/// channel.
pub fn fold_batch_norm(net: &Network) -> (Network, FuseReport) {
    let mut layers: Vec<Layer> = Vec::with_capacity(net.layers().len());
    let mut folded = 0;
    for layer in net.layers() {
        match layer {
            Layer::BatchNorm { gamma, beta, mean, var, eps } => {
                // Folding through a nonlinearity would change results:
                // the original computes BN(act(conv(x))), the fold
                // act(BN-scaled conv). Only identity activations fold.
                let fused = match layers.last() {
                    Some(Layer::Conv2d { weight, bias, stride, pad, activation })
                        if *activation == crate::layer::Activation::None =>
                    {
                        let (c_out, c_in, kh, kw) =
                            weight.shape().as_nchw().expect("conv weight is OIHW");
                        let mut new_weight = weight.clone();
                        let mut new_bias = match bias {
                            Some(b) => b.clone(),
                            None => Tensor::zeros([c_out]),
                        };
                        let g = gamma.as_slice();
                        let be = beta.as_slice();
                        let m = mean.as_slice();
                        let v = var.as_slice();
                        let taps = c_in * kh * kw;
                        let wdata = new_weight.as_mut_slice();
                        for oc in 0..c_out {
                            let scale = g[oc] / (v[oc] + eps).sqrt();
                            for w in &mut wdata[oc * taps..(oc + 1) * taps] {
                                *w *= scale;
                            }
                            let b = &mut new_bias.as_mut_slice()[oc];
                            *b = (*b - m[oc]) * scale + be[oc];
                        }
                        Some(Layer::Conv2d {
                            weight: new_weight,
                            bias: Some(new_bias),
                            stride: *stride,
                            pad: *pad,
                            activation: *activation,
                        })
                    }
                    _ => None,
                };
                match fused {
                    Some(conv) => {
                        *layers.last_mut().expect("checked above") = conv;
                        folded += 1;
                    }
                    None => layers.push(layer.clone()),
                }
            }
            other => layers.push(other.clone()),
        }
    }
    let report = FuseReport { folded, layers: layers.len() };
    (Network::from_parts(net.name().to_string(), net.input_shape().clone(), layers), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::network::NetworkBuilder;
    use adsim_runtime::Runtime;

    fn bn_network() -> Network {
        NetworkBuilder::new("bn-test", [1, 2, 8, 8], 42)
            .conv(4, 3, 1, 1, Activation::None)
            .batch_norm()
            .conv(4, 3, 1, 1, Activation::LeakyRelu(0.1))
            .batch_norm()
            .max_pool(2, 2)
            .flatten()
            .linear(3, Activation::None)
            .build()
            .unwrap()
    }

    #[test]
    fn folding_preserves_outputs() {
        let net = bn_network();
        let (fused, report) = fold_batch_norm(&net);
        // Only the BN behind the identity-activation conv folds; the
        // one behind the LeakyRelu conv must stay.
        assert_eq!(report.folded, 1);
        assert_eq!(fused.layers().len(), net.layers().len() - 1);
        let input = Tensor::from_fn([1, 2, 8, 8], |i| ((i[2] * 3 + i[3]) % 7) as f32 / 7.0 - 0.4);
        let a = net.forward(&Runtime::serial(), &input).unwrap();
        let b = fused.forward(&Runtime::serial(), &input).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn folding_reduces_flops() {
        let net = bn_network();
        let (fused, _) = fold_batch_norm(&net);
        assert!(fused.cost().unwrap().total.flops < net.cost().unwrap().total.flops);
    }

    #[test]
    fn identity_activation_conv_folds_exactly() {
        let net = NetworkBuilder::new("t", [1, 1, 6, 6], 7)
            .conv(2, 3, 1, 1, Activation::None)
            .batch_norm()
            .build()
            .unwrap();
        let (fused, report) = fold_batch_norm(&net);
        assert_eq!(report.folded, 1);
        let input = Tensor::from_fn([1, 1, 6, 6], |i| i[3] as f32 / 6.0);
        let a = net.forward(&Runtime::serial(), &input).unwrap();
        let b = fused.forward(&Runtime::serial(), &input).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn orphan_batch_norm_is_kept() {
        // BN as the very first layer has no conv to fold into.
        let net = NetworkBuilder::new("t", [1, 2, 4, 4], 1)
            .batch_norm()
            .conv(2, 3, 1, 1, Activation::None)
            .build()
            .unwrap();
        let (fused, report) = fold_batch_norm(&net);
        assert_eq!(report.folded, 0);
        assert_eq!(fused.layers().len(), net.layers().len());
    }
}
