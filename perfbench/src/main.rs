//! End-to-end benchmark of the GENIE workspace.
//!
//! ```text
//! genie-perfbench --workload <ann_1m_batch|doc_wire_live|seq_verify_batch>
//!                 --seed <n> --seconds <s> --trace <0|1> [--delay-us <n>]
//!                 [--inputs-only]
//! ```
//!
//! One process runs one workload. With `--trace 0` it prints every
//! end-to-end metric; with `--trace 1` it runs the measured phase once
//! untraced and once traced, probes each layer through its public entry
//! point, and prints the per-layer metrics. The last line of standard
//! output is the JSON result; every answer is checked against the
//! independent computations of [`check`]. `--delay-us` swaps in the
//! [`slow::DelayedBackend`] sensitivity wrapper (never for recorded
//! numbers). `--inputs-only` prints the digest of the seed's inputs and
//! stops. See `perfbench/README.md` for the workloads and metrics.

mod ann;
mod check;
mod common;
mod doc;
mod rng;
mod seq;
mod slow;
mod util;

use std::path::PathBuf;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric; `BENCHMARK.json` lists
/// the same names in the same order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("search_qps", "1/s"),
    ("search_p50_ms", "ms"),
    ("recover_s", "s"),
    ("store_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("ann_approx_ratio", "ratio"),
];

/// `(name, unit)` of every per-layer metric of the traced run. A layer
/// a workload does not exercise reads 0 there (see the README).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lsh.build_transform_s", "s"),
    ("lsh.query_transform_us", "us"),
    ("index.build_s", "s"),
    ("index.postings_m", "count"),
    ("backend.us_per_query", "us"),
    ("kernel.postings_per_query", "count"),
    ("kernel.candidates_per_query", "count"),
    ("kernel.ns_per_posting", "ns"),
    ("kernel.dense_finalize", "count"),
    ("service.batch_occupancy", "count"),
    ("service.deadline_triggers", "count"),
    ("service.size_triggers", "count"),
    ("service.wait_ms_p50", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cost_fit", "ratio"),
    ("shard.runs_per_request", "count"),
    ("delta.pending_end", "count"),
    ("delta.tombstones_end", "count"),
    ("compaction.count", "count"),
    ("compaction.stale", "count"),
    ("compaction.s", "s"),
    ("store.fsync_ms", "ms"),
    ("store.events_per_mutation_batch", "count"),
    ("store.checkpoint_s", "s"),
    ("recovery.events_replayed", "count"),
    ("net.server_ms_p50", "ms"),
    ("net.full_ms_p50", "ms"),
    ("net.overhead_ms_p50", "ms"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("sa.encode_us_per_query", "us"),
    ("sa.verify_us_per_query", "us"),
    ("sa.candidates_per_query", "count"),
    ("sa.certified_share", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["ann_1m_batch", "doc_wire_live", "seq_verify_batch"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-query delay of the sensitivity wrapper; 0 = plain CPU backend.
    pub delay_us: u64,
    /// Generate the inputs, print their digest and stop.
    pub inputs_only: bool,
    /// Scratch directory for stores and traces, inside the working
    /// directory.
    pub work: PathBuf,
    pub origin: Instant,
}

/// What a workload hands back: its checks and its numbers.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Figures printed for reading only, outside the JSON result: the
    /// mutation latencies and the tail percentiles, which do not hold
    /// steady run to run on a small shared host (see the README).
    pub notes: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.errors.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.errors.push(msg);
    }

    /// Record a check: `Err` becomes a failed check.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(format!("{what}: {e}"));
        }
    }
}

impl Args {
    /// Log the time since start at a phase boundary (standard error).
    pub fn mark(&self, phase: &str) {
        eprintln!("# {:>8.3} s  {phase}", self.origin.elapsed().as_secs_f64());
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: genie-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--delay-us <n>] [--inputs-only]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut delay_us = 0;
    let mut inputs_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inputs-only" {
            inputs_only = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--delay-us" => delay_us = value.parse::<u64>().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    Args {
        workload,
        seed,
        seconds,
        trace,
        delay_us,
        inputs_only,
        work,
        origin: Instant::now(),
    }
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn json_result(report: &Report, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = report
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "# provenance: workload={} seed={} seconds={} trace={} delay_us={} revision={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.delay_us,
        git_revision(),
        nproc
    );
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("cannot create {}: {e}", args.work.display());
        std::process::exit(1);
    }
    let mut report = match args.workload.as_str() {
        "ann_1m_batch" => ann::run(&args),
        "doc_wire_live" => doc::run(&args),
        "seq_verify_batch" => seq::run(&args),
        _ => unreachable!("parse_args accepts known workloads only"),
    };
    // stores are removed; traces (under .perfbench_work/traces) stay
    let _ = std::fs::remove_dir_all(&args.work);
    if args.inputs_only {
        std::process::exit(i32::from(!report.errors.is_empty()));
    }
    report.set("peak_rss_mb", util::peak_rss_mb());
    for (name, value) in &report.metrics {
        println!("# metric {name} = {value}");
    }
    for (name, value) in &report.notes {
        println!("# note {name} = {value}");
    }
    println!("{}", json_result(&report, args.trace));
    if !report.errors.is_empty() {
        eprintln!("{} check(s) failed", report.errors.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above name the same metrics.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut r = Report::default();
        r.set("setup_s", 1.5);
        let line = json_result(&r, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        r.fail("x");
        assert!(json_result(&r, true).starts_with("{\"correct\": false"));
    }
}
