//! Property-based tests of quantile estimation.
//!
//! Each property runs on [`CASES`] inputs drawn from a seeded
//! [`Rng64`], so the suite is offline, deterministic and reproducible:
//! a failure names the case index, and re-running replays it exactly.

use adsim_stats::{LatencyRecorder, Quantile, Rng64};

/// Inputs checked per property.
const CASES: u64 = 128;

/// Runs `property` once per case, each on its own generator seeded
/// from the property's `salt` and the case index.
fn for_cases(salt: u64, mut property: impl FnMut(u64, &mut Rng64)) {
    for case in 0..CASES {
        let mut rng = Rng64::new(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case);
        property(case, &mut rng);
    }
}

/// `len_lo..len_hi` samples, each uniform in `[0, hi)`.
fn samples(rng: &mut Rng64, len_lo: usize, len_hi: usize, hi: f64) -> Vec<f64> {
    let n = rng.range_usize(len_lo, len_hi);
    (0..n).map(|_| rng.range_f64(0.0, hi)).collect()
}

#[test]
fn summary_is_ordered() {
    for_cases(1, |case, rng| {
        let rec: LatencyRecorder = samples(rng, 1, 300, 10_000.0).into_iter().collect();
        let s = rec.summary();
        assert!(s.p50 <= s.p95 + 1e-12, "case {case}");
        assert!(s.p95 <= s.p99 + 1e-12, "case {case}");
        assert!(s.p99 <= s.p99_9 + 1e-12, "case {case}");
        assert!(s.p99_9 <= s.p99_99 + 1e-12, "case {case}");
        assert!(s.p99_99 <= s.max + 1e-12, "case {case}");
        assert!(s.mean >= rec.min() - 1e-12 && s.mean <= rec.max() + 1e-12, "case {case}");
    });
}

#[test]
fn quantiles_are_within_sample_range() {
    for_cases(2, |case, rng| {
        let mut rec: LatencyRecorder = samples(rng, 1, 100, 1e6).into_iter().collect();
        for q in Quantile::all() {
            let v = rec.quantile(q);
            assert!(v >= rec.min() && v <= rec.max(), "case {case}: {q:?} = {v}");
        }
    });
}

#[test]
fn insertion_order_is_irrelevant() {
    for_cases(3, |case, rng| {
        let mut samples = samples(rng, 2, 100, 100.0);
        let a: LatencyRecorder = samples.iter().copied().collect();
        samples.reverse();
        let b: LatencyRecorder = samples.into_iter().collect();
        let (sa, sb) = (a.summary(), b.summary());
        // Quantiles are exact order statistics; the mean differs only
        // by floating-point summation order.
        assert_eq!(sa.p50, sb.p50, "case {case}");
        assert_eq!(sa.p99_99, sb.p99_99, "case {case}");
        assert_eq!(sa.max, sb.max, "case {case}");
        assert!((sa.mean - sb.mean).abs() < 1e-9, "case {case}");
    });
}

#[test]
fn histogram_conserves_samples() {
    for_cases(4, |case, rng| {
        let samples = samples(rng, 0, 200, 50.0);
        let bins = rng.range_usize(1, 16);
        let rec: LatencyRecorder = samples.iter().copied().collect();
        let h = rec.histogram(bins);
        assert_eq!(h.total(), samples.len(), "case {case}");
        let counted: usize = h.bins().iter().map(|b| b.count).sum();
        assert_eq!(counted, samples.len(), "case {case}");
    });
}
