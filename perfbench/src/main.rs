//! The repository benchmark: one command, four workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-cold|execute-warm|serve-hits|serve-miss \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it re-drives the same work through spans recorded around
//! each layer's public functions and reports per-layer metrics. Human
//! readable lines go to stderr; stdout carries a provenance line and, as
//! its last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. The exit code is 0 only when every output was correct.
//! See `perfbench/README.md` for what each metric means.

mod calib;
mod inproc;
mod inputs;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics (name, unit), reported by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("guest_minsts_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by every `--trace 1` run. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("engine.trace_builder.self_ms", "ms"),
    ("engine.translate.self_ms", "ms"),
    ("ir.dfg.self_ms", "ms"),
    ("spectaint.analyze.self_ms", "ms"),
    ("ghostbusters.mitigate.self_ms", "ms"),
    ("engine.schedule.self_ms", "ms"),
    ("engine.regalloc.self_ms", "ms"),
    ("engine.codegen.self_ms", "ms"),
    ("engine.compile.other_ms", "ms"),
    ("engine.blocks_compiled", "count"),
    ("engine.superblocks_compiled", "count"),
    ("engine.ir_insts_compiled", "count"),
    ("vliw.execute_block.self_ms", "ms"),
    ("engine.block_for_hit.self_ms", "ms"),
    ("service.translate_hit.self_ms", "ms"),
    ("service.hit_ratio", "ratio"),
    ("engine.note_block_exit.self_ms", "ms"),
    ("platform.build.self_ms", "ms"),
    ("op.other_ms", "ms"),
    ("vliw.cycles", "cycles"),
    ("vliw.rollbacks", "count"),
    ("cache.l1d_miss_ratio", "ratio"),
    ("router.relay.self_ms", "ms"),
    ("serve.transport.self_ms", "ms"),
    ("lab.backend.self_ms", "ms"),
    ("platform.memo.hit_ratio", "ratio"),
    ("serve.bytes_per_op", "B"),
    ("riscv.parse_asm.self_ms", "ms"),
    ("platform.store.upload.self_ms", "ms"),
    ("service.evictions", "count"),
    ("serve.busy_share", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = ["compile-cold", "execute-warm", "serve-hits", "serve-miss"];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (every one checked).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Checks outside individual operations (set-up, self-tests) passed.
    pub checks_passed: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes: sample counts, first failures, findings.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {reason}"));
        }
    }

    /// Records a failed run-level check.
    pub fn fail_check(&mut self, reason: String) {
        self.checks_passed = false;
        self.notes.push(format!("CHECK FAILED: {reason}"));
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} expects a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit of the working tree, read from `.git` without spawning git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    let window = Duration::from_secs(args.seconds);
    let result = match args.workload.as_str() {
        "compile-cold" => inproc::run(true, args.seed, window, args.trace),
        "execute-warm" => inproc::run(false, args.seed, window, args.trace),
        "serve-hits" => serving::run_hits(args.seed, window, args.trace),
        _ => serving::run_miss(args.seed, window, args.trace),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", args.workload);
            std::process::exit(1);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // Every layer metric is present on every traced run: a layer the
    // workload never reaches reads 0.
    if args.trace {
        for (name, _) in PER_LAYER {
            outcome.metrics.entry(name).or_insert(0.0);
        }
    }
    let emitted: Vec<&str> = outcome.metrics.keys().copied().collect();
    let mut expected: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
    expected.sort_unstable();
    assert_eq!(emitted, expected, "the run must emit exactly its metric table");
    let non_finite: Vec<&str> =
        outcome.metrics.iter().filter(|(_, v)| !v.is_finite()).map(|(name, _)| *name).collect();
    for name in non_finite {
        outcome.fail_check(format!("{name} is not a finite number"));
    }

    let correct = outcome.checks_passed && outcome.failed == 0;
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!(
        "[perfbench] {} seed={} seconds={} trace={} size={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::SIZE_LABEL
    );
    for note in &outcome.notes {
        eprintln!("[perfbench]   {note}");
    }
    for (name, unit) in table {
        eprintln!("[perfbench]   {name:<32} {:>14.6} {unit}", outcome.metrics[name]);
    }
    eprintln!(
        "[perfbench]   {:<32} {:>14.6} ratio ({} of {} ops)",
        "failed_share", failed_share, outcome.failed, outcome.attempted
    );

    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"size\": \"{}\", \"host_cpus\": {host_cpus}, \"commit\": \"{}\", \
         \"failed_share\": {failed_share}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::SIZE_LABEL,
        commit()
    );
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", outcome.metrics[name])
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_serve::JsonValue;

    /// The metric tables in code and the names in `BENCHMARK.json` agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = JsonValue::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
