//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.  An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run (`--trace 1`)
//! is a separate run that reports the per-layer metrics, with spans timed
//! around the calls into each layer.  `--spans <path>` names where a traced
//! run writes its spans.  Diagnostics go to standard error.

mod affinity;
mod allreduce;
mod common;
mod papersim;
mod pingpong;
mod replay;
mod stats;
mod stream;
mod trace;

use common::{max_rss_mb, steal_s, Outcome};
use std::path::PathBuf;

/// Every workload, with the function that runs it.
type Runner = fn(u64, f64, bool) -> Outcome;
const WORKLOADS: &[(&str, Runner)] = &[
    ("pingpong_intra", pingpong::run),
    ("stream_reactor", stream::run),
    ("allreduce_intra", allreduce::run),
];

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p99_slice_median_us", "us"),
    ("ops_per_s", "ops/s"),
    ("goodput_mb_s", "MB/s"),
];

/// Per-layer metrics, printed by every traced run; a layer the workload
/// does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transport.post_send_us", "us"),
    ("transport.post_recv_us", "us"),
    ("transport.wait_us", "us"),
    ("engine.post_send_ns", "ns"),
    ("engine.post_recv_ns", "ns"),
    ("engine.handle_ns", "ns"),
    ("engine.poll_ns", "ns"),
    ("engine.frames_per_msg", "count"),
    ("engine.pull_requests_per_msg", "count"),
    ("engine.bytes_pulled_per_msg", "bytes"),
    ("engine.staged_copy_ratio", "ratio"),
    ("wire.codec_ns_per_msg", "ns"),
    ("wire.overhead_ratio", "ratio"),
    ("reliability.frames_sent_per_msg", "count"),
    ("reliability.acks_per_frame", "ratio"),
    ("reliability.retransmit_ratio", "ratio"),
    ("reliability.duplicates", "count"),
    ("reliability.timeouts", "count"),
    ("reactor.batches_per_msg", "count"),
    ("reactor.recv_batch_p50", "log2-count"),
    ("reactor.send_batch_p50", "log2-count"),
    ("reactor.batch_lock_ns_p50", "log2-ns"),
    ("reactor.batch_lock_ns_p99", "log2-ns"),
    ("reactor.user_lock_ns_p50", "log2-ns"),
    ("reactor.timers_fired_per_msg", "count"),
    ("coll.all_reduce_us", "us"),
    ("coll.rank_skew_us", "us"),
    ("coll.msgs_per_op", "count"),
    ("driver.polls_per_op", "count"),
    ("driver.poll_busy_us_per_op", "us"),
    ("sim_intra_latency_us", "us-virtual"),
    ("sim_inter_latency_us", "us-virtual"),
    ("sim_intra_bw_mb_s", "MB/s-virtual"),
    ("sim_inter_bw_mb_s", "MB/s-virtual"),
    ("sim.events_per_msg", "count"),
    ("sim.frames_per_msg", "count"),
    ("sim.copy_us", "us-computed"),
    ("sim.translate_us", "us-computed"),
    ("sim.nic_us", "us-computed"),
    ("sim.wire_us", "us-computed"),
    ("op_p99_us", "us"),
    ("failed_ratio", "ratio"),
    ("proc.max_rss_mb", "MB"),
    ("trace.overhead_p50_us", "us"),
    ("trace.unexplained_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} outside (0, 60]", args.seconds));
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every digit and always marks the value as a number.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let Some(&(_, runner)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        std::process::exit(2);
    };
    let steal0 = steal_s();
    let mut out = runner(args.seed, args.seconds, args.trace);
    out.notes.push(affinity::summary());
    if let (Some(a), Some(b)) = (steal0, steal_s()) {
        out.notes.push(format!(
            "cpu time stolen by the host during the run: {:.2} s",
            b - a
        ));
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        out.metric(
            "failed_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        out.metric("proc.max_rss_mb", max_rss_mb());
        if let Some(path) = &args.spans {
            match trace::write_spans(path, &out.traces) {
                Ok(()) => out.notes.push(format!("spans: {}", path.display())),
                Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
            }
        }
    }
    for note in &out.notes {
        println!("# {}: {note}", args.workload);
    }
    let mut fields = Vec::new();
    let mut correct = !out.incorrect;
    for &(name, unit) in table {
        let values: Vec<f64> = out
            .metrics
            .iter()
            .filter(|m| m.0 == name)
            .map(|m| m.1)
            .collect();
        if values.len() > 1 {
            eprintln!("perfbench: metric {name} reported twice");
            correct = false;
        }
        let value = values.first().copied().unwrap_or(0.0);
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for (name, _) in &out.metrics {
        if !table.iter().any(|(n, _)| n == name) {
            eprintln!("perfbench: metric {name} is not in the metric table");
            correct = false;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and units this binary prints, and gives `op_p50_us` the bound the
    /// drift check uses.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect("section");
            let end = text[start..].find(']').expect("section end") + start;
            text[start..end].to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = section(key);
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{key}: count");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{key}: missing {entry}");
            }
        }
        let p50 = format!(
            "\"name\": \"op_p50_us\", \"unit\": \"us\", \"better\": \"lower\", \"bound\": {:?}}}",
            common::DRIFT_BOUND
        );
        assert!(text.contains(&p50), "op_p50_us bound is not {p50}");
        for (name, _) in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
    }
}
