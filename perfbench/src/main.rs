//! The repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <drive|fleet|fleet_batched> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures it for at
//! least `--seconds`, checks its outputs against a reference, and
//! prints as its last line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of a traced run with `--trace 1`. See
//! `README.md` beside this file for the workloads and metrics.

mod layers;
mod workloads;

use adsim_perfbench::analysis::median;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Report, Workload};

/// Set-up samples per untraced run: this process plus fresh child
/// processes, since the model caches live for a process's lifetime.
const SETUP_SAMPLES: usize = 3;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name)
            .ok_or_else(|| format!("unknown workload {name} (drive, fleet, fleet_batched)"))?,
        workload_name: name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_only,
    })
}

/// Injected crashes unwind through the fleet's containment by design;
/// keep the default hook from printing a backtrace for each inside the
/// timed section, while genuine panics are still reported in full.
fn silence_injected_crashes() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<adsim_faults::InjectedCrash>()
            .is_none()
        {
            default_hook(info);
        }
    }));
}

fn main() -> ExitCode {
    silence_injected_crashes();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let setup = workloads::setup_only(args.workload, args.seed);
        println!("{}", setup.total_s());
        return ExitCode::SUCCESS;
    }

    let steal_before = host::steal_ticks();
    let started = Instant::now();
    let run = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    let peak_rss_mib = host::peak_rss_mib();
    let mut metrics: Vec<(&str, f64, &str)> = match &run.report {
        Report::Layers(layers) => layers.clone(),
        Report::EndToEnd {
            frame_ms_mean,
            frame_ms_p95,
            vehicle_frames_per_s,
        } => {
            let setup_s = match setup_samples(&args, run.setup.total_s()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perfbench: set-up probe failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            vec![
                ("setup_s", setup_s, "s"),
                ("frame_ms_mean", *frame_ms_mean, "ms"),
                ("frame_ms_p95", *frame_ms_p95, "ms"),
                ("vehicle_frames_per_s", *vehicle_frames_per_s, "1/s"),
                ("peak_rss_mib", peak_rss_mib, "MiB"),
            ]
        }
    };
    for m in &mut metrics {
        if !m.1.is_finite() {
            eprintln!("perfbench: metric {} is not finite ({})", m.0, m.1);
            return ExitCode::FAILURE;
        }
        // An empty float sum is -0.0; report it as 0.
        m.1 += 0.0;
    }

    let wall_s = started.elapsed().as_secs_f64();
    println!(
        "host {{\"cpu\": \"{}\", \"nproc\": {}, \"simd\": \"{}\", \"git_rev\": \"{}\", \
         \"steal_ticks\": {}, \"wall_s\": {wall_s:.3}}}",
        json_escape(&host::cpu_model()),
        adsim_runtime::available_parallelism(),
        adsim_tensor::simd::active().name(),
        json_escape(&host::git_rev()),
        host::steal_ticks().saturating_sub(steal_before),
    );
    println!(
        "workload {} seed {} trace {}: output digest {}",
        args.workload_name,
        args.seed,
        u8::from(args.trace),
        run.digest
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<44} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Median set-up time over this process's set-up and fresh child
/// processes that set up the same workload and seed, one at a time.
fn setup_samples(args: &Args, own_s: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = vec![own_s];
    for _ in 1..SETUP_SAMPLES {
        let out = std::process::Command::new(&exe)
            .args(["--setup-only", "--workload", &args.workload_name, "--seed"])
            .arg(args.seed.to_string())
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("child exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or("");
        samples.push(
            last.trim()
                .parse::<f64>()
                .map_err(|e| format!("{e}: {last:?}"))?,
        );
    }
    Ok(median(&samples))
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if c.is_control() => Vec::new(),
            c => vec![c],
        })
        .collect()
}

/// Host fingerprint and process counters, read from `/proc` where the
/// platform has it (every reader degrades to a placeholder elsewhere).
mod host {
    use std::fs;

    /// The CPU model string.
    pub fn cpu_model() -> String {
        fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into())
    }

    /// Aggregate CPU-steal ticks since boot (`/proc/stat`), or 0.
    pub fn steal_ticks() -> u64 {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s.lines().find(|l| l.starts_with("cpu "))?.to_string();
                cpu.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0)
    }

    /// The process's peak resident set (`VmHWM`) in MiB, or 0.
    pub fn peak_rss_mib() -> f64 {
        fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// The checked-out commit, read from `.git` in the working
    /// directory; "unknown" outside a git checkout.
    pub fn git_rev() -> String {
        let head = match fs::read_to_string(".git/HEAD") {
            Ok(h) => h.trim().to_string(),
            Err(_) => return "unknown".into(),
        };
        let Some(reference) = head.strip_prefix("ref: ") else {
            return head;
        };
        if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
            return rev.trim().to_string();
        }
        fs::read_to_string(".git/packed-refs")
            .ok()
            .and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into())
    }
}
