//! Baseline comparison for `BENCH_*.json` artifacts.
//!
//! The bench harnesses separate two kinds of fields (the same split
//! `CellOutcome::signature` makes): **deterministic** fields are pure
//! functions of seeds and virtual-clock state and must reproduce
//! *exactly* on any machine; **wall-clock** fields (latency quantiles,
//! overhead percentages, utilization) legitimately drift between hosts
//! and runs. The comparator walks two parsed documents and applies the
//! band policy from EXPERIMENTS.md: exact equality for deterministic
//! leaves, a relative tolerance (or, by default, a type-and-finiteness
//! check) for wall-clock leaves.

use adsim_trace::json::Value;

/// One divergence between baseline and fresh documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    /// Dotted path to the offending leaf (`cells[3].p99_ms`).
    pub path: String,
    /// What went wrong, human-readable.
    pub what: String,
}

impl std::fmt::Display for Diff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.what)
    }
}

/// Classifies a leaf by its key: wall-clock keys get the tolerance
/// band, everything else must match exactly. Virtual-clock quantities
/// are deterministic even when their names look like latencies
/// (`virtual_miss_rate`, `e2e_virtual_ms`), so `virtual` exempts first.
pub fn is_wallclock_key(key: &str) -> bool {
    if key.contains("virtual") {
        return false;
    }
    key.ends_with("_ms") || key.ends_with("_s") || key.ends_with("_pct") || key == "miss_rate"
        || key.contains("wall") || key.contains("overhead") || key.contains("p50")
        || key.contains("p95") || key.contains("p99") || key.contains("gflops")
        || key.contains("gops") || key.contains("throughput") || key.contains("util")
        || key.contains("fps") || key.contains("speedup")
}

/// Compares `fresh` against `baseline`. `tol` is the relative band for
/// wall-clock numbers (`0.25` = ±25 %, floored at an absolute unit of
/// 1.0 so near-zero baselines don't explode the ratio); `tol = 0`
/// checks only that wall-clock leaves keep their type and stay finite.
/// Returns every divergence found, in document order.
pub fn compare(baseline: &Value, fresh: &Value, tol: f64) -> Vec<Diff> {
    // Refuse cross-mode comparisons up front: a smoke-mode artifact has
    // a different grid than the committed full-mode baseline, and every
    // array length would "fail" confusingly.
    if let (Some(b), Some(f)) = (
        baseline.get("mode").and_then(Value::as_str),
        fresh.get("mode").and_then(Value::as_str),
    ) {
        if b != f {
            return vec![Diff {
                path: "mode".into(),
                what: format!(
                    "baseline is \"{b}\" but fresh run is \"{f}\" — regenerate with matching flags"
                ),
            }];
        }
    }
    let mut diffs = Vec::new();
    walk(baseline, fresh, "", false, tol, &mut diffs);
    diffs
}

fn push(diffs: &mut Vec<Diff>, path: &str, what: String) {
    let path = if path.is_empty() { "<root>" } else { path };
    diffs.push(Diff { path: path.to_string(), what });
}

fn walk(base: &Value, fresh: &Value, path: &str, wallclock: bool, tol: f64, diffs: &mut Vec<Diff>) {
    match (base, fresh) {
        (Value::Obj(bm), Value::Obj(fm)) => {
            for (key, bv) in bm {
                let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                match fresh.get(key) {
                    Some(fv) => {
                        walk(bv, fv, &child, wallclock || is_wallclock_key(key), tol, diffs)
                    }
                    None => push(diffs, &child, "missing from fresh run".into()),
                }
            }
            for (key, _) in fm {
                if base.get(key).is_none() {
                    let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    push(diffs, &child, "not in baseline (new field?)".into());
                }
            }
        }
        (Value::Arr(ba), Value::Arr(fa)) => {
            if ba.len() != fa.len() {
                push(diffs, path, format!("length {} != baseline {}", fa.len(), ba.len()));
                return;
            }
            for (i, (bv, fv)) in ba.iter().zip(fa).enumerate() {
                walk(bv, fv, &format!("{path}[{i}]"), wallclock, tol, diffs);
            }
        }
        (Value::Num(b), Value::Num(f)) if wallclock => {
            if !f.is_finite() {
                push(diffs, path, format!("wall-clock value {f} is not finite"));
            } else if tol > 0.0 {
                let band = tol * b.abs().max(1.0);
                if (f - b).abs() > band {
                    push(
                        diffs,
                        path,
                        format!("{f} outside ±{:.0}% band around baseline {b}", tol * 100.0),
                    );
                }
            }
        }
        (Value::Num(b), Value::Num(f)) => {
            if b != f {
                push(diffs, path, format!("deterministic value {f} != baseline {b}"));
            }
        }
        _ if base.kind() != fresh.kind() => {
            push(diffs, path, format!("type {} != baseline {}", fresh.kind(), base.kind()));
        }
        _ => {
            // Same kind, not a number: strings / bools / null compare
            // exactly regardless of the wall-clock flag (a wall-clock
            // *label* changing is still a regression).
            if base != fresh {
                push(diffs, path, format!("{fresh:?} != baseline {base:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_trace::json::parse;

    #[test]
    fn wallclock_keys_are_classified() {
        for wall in [
            "p99_ms", "wall_s", "overhead_pct", "miss_rate", "guards_off_p50_ms", "util",
            "int8_gops", "kernel_speedup",
        ] {
            assert!(is_wallclock_key(wall), "{wall} should be wall-clock");
        }
        for det in [
            "virtual_miss_rate",
            "e2e_virtual_ms",
            "frames",
            "seed",
            "mota",
            "safe_stops",
            // Recovery metrics count virtual frames and bytes — pure
            // functions of the seeds, never of the host clock.
            "mttr_frames",
            "replay_ratio",
            "peak_checkpoint_bytes",
            "replayed_frames",
        ] {
            assert!(!is_wallclock_key(det), "{det} should be deterministic");
        }
    }

    #[test]
    fn identical_documents_have_no_diffs() {
        let v = parse(r#"{"mode": "full", "seed": 7, "cells": [{"p99_ms": 31.5}]}"#).unwrap();
        assert!(compare(&v, &v, 0.0).is_empty());
        assert!(compare(&v, &v, 0.25).is_empty());
    }

    #[test]
    fn deterministic_drift_fails_even_inside_tolerance() {
        let b = parse(r#"{"seed": 7, "safe_stops": 3}"#).unwrap();
        let f = parse(r#"{"seed": 7, "safe_stops": 4}"#).unwrap();
        let diffs = compare(&b, &f, 0.5);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].path == "safe_stops", "{diffs:?}");
    }

    #[test]
    fn wallclock_drift_passes_within_band_and_fails_outside() {
        let b = parse(r#"{"p99_ms": 100.0}"#).unwrap();
        let near = parse(r#"{"p99_ms": 110.0}"#).unwrap();
        let far = parse(r#"{"p99_ms": 200.0}"#).unwrap();
        assert!(compare(&b, &near, 0.25).is_empty());
        assert_eq!(compare(&b, &far, 0.25).len(), 1);
        // tol = 0: type/finite check only, any finite drift passes.
        assert!(compare(&b, &far, 0.0).is_empty());
    }

    #[test]
    fn wallclock_band_applies_inside_nested_wallclock_objects() {
        // The `overhead` key marks the whole subtree wall-clock, so
        // leaves inside it get the band even without suffix matches.
        let b = parse(r#"{"overhead": {"ratio": 1.0}}"#).unwrap();
        let f = parse(r#"{"overhead": {"ratio": 1.1}}"#).unwrap();
        assert!(compare(&b, &f, 0.25).is_empty());
    }

    #[test]
    fn shape_changes_are_reported() {
        let b = parse(r#"{"cells": [1, 2], "gone": true}"#).unwrap();
        let f = parse(r#"{"cells": [1, 2, 3], "new_field": 1}"#).unwrap();
        let diffs = compare(&b, &f, 0.0);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"cells"), "{paths:?}");
        assert!(paths.contains(&"gone"), "{paths:?}");
        assert!(paths.contains(&"new_field"), "{paths:?}");
    }

    #[test]
    fn cross_mode_comparison_is_refused_with_one_clear_diff() {
        let b = parse(r#"{"mode": "full", "cells": [1, 2, 3]}"#).unwrap();
        let f = parse(r#"{"mode": "smoke", "cells": [1]}"#).unwrap();
        let diffs = compare(&b, &f, 0.0);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "mode");
    }
}
