//! Baseline checker for `BENCH_*.json` artifacts.
//!
//! Two modes (band policy documented in EXPERIMENTS.md):
//!
//! * `--all` — parse every `BENCH_*.json` in the working directory and
//!   fail on the first malformed one. This is the tier-1 CI wiring: the
//!   smoke benches just rewrote those files, so a parse failure means a
//!   bench's hand-rolled JSON writer regressed.
//! * `<baseline> <fresh> [--tol F]` — full comparison of a fresh
//!   artifact against a committed baseline: deterministic fields must
//!   match exactly; wall-clock fields (`*_ms`, `*_pct`, `p99*`, …)
//!   must stay finite and, when `--tol` is given, inside the relative
//!   band (`--tol 0.25` = ±25 %). Cross-mode comparisons (smoke vs
//!   full) are refused.
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_check -- --all
//! cargo run --release -p adsim-bench --bin bench_check -- \
//!     /tmp/BENCH_soak.baseline.json BENCH_soak.json --tol 0.25
//! ```

use adsim_bench::check::compare;
use adsim_trace::json::{parse, Value};

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_check: cannot read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("bench_check: {path} is not valid JSON: {e}"))
}

/// Top-level keys each known artifact must carry beyond the universal
/// `bench`/`seed`/`mode` trio. A bench whose writer drops one of these
/// regressed its schema even if the JSON still parses.
fn required_keys(bench: &str) -> &'static [&'static str] {
    match bench {
        "bench_recovery" => &[
            "seed",
            "mode",
            "frames",
            "parity",
            "containment",
            "crash_free_transparency",
            "exhaustion",
            "sweep",
        ],
        "bench_fleet" => &["seed", "mode", "parity", "memory", "campaigns", "full", "fleet_tails_ms"],
        "bench_telemetry" => {
            &["seed", "mode", "parity", "rerun_byte_identical", "dump_causality", "overhead"]
        }
        _ => &[],
    }
}

fn check_all() {
    let mut names: Vec<String> = std::fs::read_dir(".")
        .expect("bench_check: cannot list working directory")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "bench_check --all: no BENCH_*.json artifacts found");
    for name in &names {
        let doc = load(name);
        // Every artifact carries its bench id; a missing one means the
        // writer and this checker disagree about the contract.
        let bench = doc
            .get("bench")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("bench_check: {name} has no \"bench\" field"));
        for key in required_keys(bench) {
            assert!(
                doc.get(key).is_some(),
                "bench_check: {name} ({bench}) is missing required key \"{key}\""
            );
        }
        println!("  {name}: ok ({bench})");
    }
    println!("bench_check: {} artifact(s) parse clean", names.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--all") {
        check_all();
        return;
    }
    let mut tol = 0.0f64;
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tol" {
            let v = it.next().expect("bench_check: --tol needs a value");
            tol = v.parse().unwrap_or_else(|_| panic!("bench_check: bad --tol {v:?}"));
        } else {
            files.push(arg);
        }
    }
    let [baseline_path, fresh_path] = files[..] else {
        eprintln!("usage: bench_check --all | bench_check <baseline> <fresh> [--tol F]");
        std::process::exit(2);
    };
    let baseline = load(baseline_path);
    let fresh = load(fresh_path);
    let diffs = compare(&baseline, &fresh, tol);
    if diffs.is_empty() {
        println!(
            "bench_check: {fresh_path} matches {baseline_path} \
             (deterministic exact, wall-clock {})",
            if tol > 0.0 { format!("±{:.0}%", tol * 100.0) } else { "type-checked".into() }
        );
        return;
    }
    eprintln!("bench_check: {} divergence(s) against {baseline_path}:", diffs.len());
    for d in &diffs {
        eprintln!("  {d}");
    }
    std::process::exit(1);
}
