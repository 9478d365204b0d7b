//! Ablation: int8 quantized inference (the fixed-point arithmetic of
//! the paper's ASIC accelerators) vs f32 — accuracy cost and memory
//! footprint on a real convolution workload.

use adsim_bench::header;
use adsim_dnn::quant::{quant_conv2d, QuantTensor};
use adsim_runtime::Runtime;
use adsim_tensor::{ops, simd, Tensor};
use std::time::Instant;

fn main() {
    header("Ablation", "Int8 quantization vs f32 (ASIC fixed-point path)");
    let mut seed = 0xAB3u64;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((seed >> 33) as i32 % 256) as f32 / 128.0 - 1.0
    };
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "Layer", "f32 (ms)", "int8 (ms)", "max |err|", "rel err", "mem ratio"
    );
    let rt = Runtime::serial();
    for (c_in, c_out, hw) in [(8usize, 16usize, 32usize), (16, 32, 16), (32, 64, 8)] {
        let input = Tensor::from_fn([1, c_in, hw, hw], |_| next());
        let weight = Tensor::from_fn([c_out, c_in, 3, 3], |_| next());
        let qweight = QuantTensor::quantize(&weight);

        let t = Instant::now();
        let exact = ops::conv2d(&rt, simd::active(), &input, &weight, None, 1, 1).unwrap();
        let t_f32 = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let approx = quant_conv2d(&rt, &input, &qweight, None, 1, 1).unwrap();
        let t_i8 = t.elapsed().as_secs_f64() * 1e3;

        let out_scale = exact.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let worst = exact
            .iter()
            .zip(approx.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!(
            "{:<18} {:>10.2} {:>10.2} {:>12.4} {:>11.2}% {:>9.2}x",
            format!("{c_in}->{c_out} @{hw}"),
            t_f32,
            t_i8,
            worst,
            worst / out_scale * 100.0,
            4.0
        );
        assert!(worst / out_scale < 0.05, "int8 error must stay under 5%");
    }
    println!("\nInt8 keeps outputs within a few percent while quartering weight");
    println!("memory — why the paper's ASICs (EIE/Eyeriss lineage) run fixed point");
    println!("inside KB-scale on-chip buffers (Table 2: 181.5 KB).");
}
