//! The repository benchmark: one command, three workloads, every answer
//! checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <regions|live|scatter> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! * `regions` — in-process analytic queries (`core`, `index`, `pietql`,
//!   `rayon`);
//! * `live` — ingest, flush, replication, subscriptions and rollups
//!   through a real server (`stream`, `store`, `repl`, `sub`, `serve`);
//! * `scatter` — sharded rollups through a real server (`shard`,
//!   `stream::extract_partials`, `serve`).
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (`BENCHMARK.json` lists both). Lines starting with `#` are facts
//! about the host, the configuration and the run; the last line is the
//! JSON result. A failed correctness check prints `"correct": false`
//! and exits with code 1. The tests run every workload at a tiny size
//! (`RunConfig::smoke`) with every check on.
//!
//! Stores are written under `.perfbench_work/` in the current directory
//! and removed afterwards.

mod common;
mod live;
mod regions;
mod report;
mod scatter;

use std::path::PathBuf;
use std::process::ExitCode;

use common::RunConfig;
use report::{result_line, Outcome, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 3] = ["regions", "live", "scatter"];

struct Args {
    workload: String,
    cfg: RunConfig,
    child_seq_mix: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut child_seq_mix = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--child-seq-mix" => child_seq_mix = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed,
            seconds,
            trace,
            smoke: false,
            work,
        },
        child_seq_mix,
    })
}

/// Runs one workload.
fn run_workload(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "regions" => regions::run(cfg),
        "live" => live::run(cfg),
        "scatter" => scatter::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Host and configuration facts printed with every result.
fn host_facts(workload: &str, cfg: &RunConfig) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let mut facts = vec![
        ("workload".to_string(), workload.to_string()),
        ("seed".to_string(), cfg.seed.to_string()),
        ("seconds".to_string(), cfg.seconds.to_string()),
        ("trace".to_string(), u8::from(cfg.trace).to_string()),
        ("smoke".to_string(), cfg.smoke.to_string()),
        ("nproc".to_string(), nproc.to_string()),
        ("profile".to_string(), profile.to_string()),
        ("commit".to_string(), commit),
    ];
    for flag in gisolap_obs::config::ALL {
        let value = flag
            .raw()
            .unwrap_or_else(|| format!("unset ({})", flag.default));
        facts.push((format!("env.{}", flag.name), value));
    }
    facts
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child_seq_mix {
        println!("seq_mix_s={}", regions::child_seq_mix(&args.cfg));
        return ExitCode::SUCCESS;
    }
    for (k, v) in host_facts(&args.workload, &args.cfg) {
        println!("# {k}={v}");
    }
    let outcome = match run_workload(&args.workload, &args.cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (k, v) in &outcome.facts {
        println!("# {k}={v}");
    }
    println!(
        "# failed_op_ratio={}",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for v in &outcome.violations {
        println!("# VIOLATION {v}");
    }
    let defs = if args.cfg.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", result_line(&outcome, defs));
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny run of `workload` with every correctness check on.
    fn smoke(workload: &str, trace: bool) {
        let cfg = RunConfig {
            seed: 3,
            seconds: 1.2,
            trace,
            smoke: true,
            work: PathBuf::from(".perfbench_work").join(format!(
                "test-{workload}-{}-{}",
                u8::from(trace),
                std::process::id()
            )),
        };
        let out = run_workload(workload, &cfg).expect("workload runs");
        assert!(
            out.violations.is_empty(),
            "{workload}: {:?}",
            out.violations
        );
        assert!(out.attempted > 0, "{workload} attempted nothing");
        assert_eq!(out.failed, 0, "{workload} had failed operations");
        assert!(
            out.metrics.contains_key("setup_s"),
            "{workload} timed no set-up"
        );
    }

    #[test]
    fn smoke_regions() {
        smoke("regions", false);
        smoke("regions", true);
    }

    #[test]
    fn smoke_live() {
        smoke("live", false);
        smoke("live", true);
    }

    #[test]
    fn smoke_scatter() {
        smoke("scatter", false);
        smoke("scatter", true);
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
        let layer_at = text.find("\"per_layer\"").expect("per_layer section");
        let (workloads, rest) = text.split_at(e2e_at);
        let (e2e, layers) = rest.split_at(layer_at - e2e_at);
        for (section, defs) in [(e2e, END_TO_END), (layers, PER_LAYER)] {
            assert_eq!(section.matches("\"name\"").count(), defs.len());
            for m in defs {
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    m.name, m.unit, m.better
                );
                assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        for w in WORKLOADS {
            assert!(
                workloads.contains(&format!("{{\"name\": \"{w}\"")),
                "workload {w}"
            );
        }
    }
}
