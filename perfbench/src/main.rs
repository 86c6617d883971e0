//! The repository benchmark: one command per workload that measures the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace
//! 1`), checks every output, and prints one JSON result as its last
//! line.
//!
//! ```text
//! perfbench --workload sweep_paper|fig10_64q|serve_mixed --seed N --seconds S --trace 0|1
//!           [--out-dir DIR]
//! ```
//!
//! `--out-dir` is where a traced run writes its spans (JSON lines).

mod fig10;
mod metrics;
mod serve;
mod stats;
mod sweep;
mod trace;

use metrics::{E2E, LAYERS, STORE_NAMESPACES, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Profile;

/// The seed at which the committed `BENCH_*.json` digests are pinned.
pub const DEFAULT_SEED: u64 = 0;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = PathBuf::from(".bench_build/perfbench-traces");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Counts `n` failed operations.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Records the end-to-end metrics.
    pub fn e2e(
        &mut self,
        setup_s: f64,
        throughput_per_s: f64,
        latency_ms: f64,
        miss_latency_ms: f64,
        peak_rss_mb: f64,
    ) {
        self.metrics.insert("setup_s", setup_s);
        self.metrics.insert("throughput_per_s", throughput_per_s);
        self.metrics.insert("latency_ms", latency_ms);
        self.metrics.insert("miss_latency_ms", miss_latency_ms);
        self.metrics.insert("peak_rss_mb", peak_rss_mb);
    }

    /// Folds per-operation layer metrics (median per metric), the
    /// tracing overhead (median traced ÷ median untraced wall time) and
    /// the coverage note into the outcome, and writes the spans out.
    pub fn trace_summary(
        &mut self,
        per_op: Vec<BTreeMap<&'static str, f64>>,
        profile: &Profile,
        plain_walls: &[f64],
        traced_walls: &[f64],
        args: &Args,
    ) {
        let mut keys: Vec<&'static str> = per_op.iter().flat_map(|m| m.keys().copied()).collect();
        keys.sort_unstable();
        keys.dedup();
        for k in keys {
            let vals: Vec<f64> = per_op.iter().filter_map(|m| m.get(k).copied()).collect();
            self.metrics.insert(k, stats::median(&vals));
        }
        self.metrics.insert(
            "trace.overhead",
            stats::median(traced_walls) / stats::median(plain_walls),
        );
        self.notes.push(format!(
            "{} untraced and {} traced operations; tracing overhead {:.4}",
            plain_walls.len(),
            traced_walls.len(),
            self.metrics["trace.overhead"]
        ));
        let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
        match profile.write_jsonl(&path) {
            Ok(()) => self.notes.push(format!(
                "{} spans written to {}",
                profile.spans().len(),
                path.display()
            )),
            Err(e) => self
                .notes
                .push(format!("cannot write spans to {}: {e}", path.display())),
        }
    }
}

/// The catalogue's static name for a metric name built at run time.
pub fn layer_name(name: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|l| l.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
        .name
}

/// Store hit/miss counters and the tracing thread's qsim counters.
pub fn layer_counters(
    m: &mut BTreeMap<&'static str, f64>,
    store: &digiq_core::StoreStats,
    kernel: qsim::counters::KernelCounters,
) {
    for (ns, key) in STORE_NAMESPACES {
        let (hits, misses) = store.get(ns).map_or((0, 0), |s| (s.hits, s.misses));
        m.insert(layer_name(&format!("core.store.{key}.hits")), hits as f64);
        m.insert(
            layer_name(&format!("core.store.{key}.misses")),
            misses as f64,
        );
    }
    m.insert("qsim.flops", kernel.flops as f64);
    m.insert("qsim.allocs", kernel.allocs as f64);
}

/// Coverage of `wall_s` seconds of one thread by top-level layer spans,
/// the uncovered gap, and self time per layer.
pub fn coverage_metrics(m: &mut BTreeMap<&'static str, f64>, profile: &Profile, wall_s: f64) {
    let covered_ms = profile.covered_ns() as f64 / 1e6;
    m.insert("trace.coverage", covered_ms / (wall_s * 1e3));
    m.insert("trace.gap_ms", wall_s * 1e3 - covered_ms);
    for layer in ["qcircuit", "calib", "core", "serve"] {
        m.insert(layer_name(&format!("{layer}.self_ms")), 0.0);
    }
    for (layer, ms) in profile.self_ms_by_layer() {
        m.insert(layer_name(&format!("{layer}.self_ms")), ms);
    }
}

/// What the uncovered share of a traced run is spent on, per workload.
fn gap_note(workload: &str) -> &'static str {
    match workload {
        "sweep_paper" => "job enumeration, record assembly and engine cache-stat reads",
        "fig10_64q" => "loop glue between the per-qubit and per-coupler spans",
        _ => "client-side request draws, the reference-byte compares and thread start-up",
    }
}

fn print_result(args: &Args, out: &Outcome) {
    for line in &out.notes {
        eprintln!("note: {line}");
    }
    for line in &out.errors {
        eprintln!("FAILED: {line}");
    }
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut fields = Vec::new();
    let mut emit = |name: &str, unit: &str, value: Option<f64>, why: String| {
        let v = value.unwrap_or(0.0);
        if !v.is_finite() {
            eprintln!("FAILED: metric {name} is not finite");
            correct = false;
        }
        let v = if v.is_finite() { v } else { 0.0 };
        println!("{name:<40} {v:>16.6} {unit:<6}{why}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    if args.trace {
        for l in LAYERS {
            let v = out.metrics.get(l.name).copied();
            let here: Vec<&str> = l
                .moves
                .iter()
                .filter(|(_, w)| *w == args.workload)
                .map(|(e2e, _)| *e2e)
                .collect();
            let why = if v.is_none() {
                " not exercised by this workload".to_string()
            } else if l.quiet.contains(&args.workload.as_str()) {
                " no move predicted on this workload".to_string()
            } else {
                format!(" should move {} ({} is better)", here.join(", "), l.better)
            };
            emit(l.name, l.unit, v, why);
        }
        if let Some(c) = out.metrics.get("trace.coverage") {
            eprintln!(
                "note: named layer spans cover {:.1}% of traced wall time (target >= 95%); the gap is {}",
                c * 100.0,
                gap_note(&args.workload)
            );
        }
    } else {
        for m in E2E {
            let why = format!(" ({} is better)", m.better);
            emit(m.name, m.unit, out.metrics.get(m.name).copied(), why);
        }
        let ratio = out.failed as f64 / out.attempted.max(1) as f64;
        println!("{:<40} {ratio:>16.6} ratio", "failed_ratio");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed.min(out.attempted.max(1)),
        fields.join(", ")
    );
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Keeps every allocation in glibc's main arena. The batch workloads
/// run one short-lived engine worker thread per operation. When the next
/// operation's thread starts before the last one has handed its arena
/// back, glibc gives it a new arena, and the memory parked in the old one
/// raised the peak RSS of some sweep runs by a third (70 to 94 MB), more
/// often when the host was busy. A user's sweep or figure runs once per
/// process, so that race is an artefact of repeating operations here.
fn single_arena() {
    // SAFETY: mallopt only sets an allocator parameter; it runs before
    // the workload starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--out-dir DIR]",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    if args.workload != "serve_mixed" {
        single_arena();
    }
    let out = match (args.workload.as_str(), args.trace) {
        ("sweep_paper", false) => sweep::run(&args),
        ("sweep_paper", true) => sweep::trace(&args),
        ("fig10_64q", false) => fig10::run(&args),
        ("fig10_64q", true) => fig10::trace(&args),
        (_, false) => serve::run(&args),
        (_, true) => serve::trace(&args),
    };
    print_result(&args, &out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload fig10_64q --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fig10_64q", 7, 12.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve_mixed --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
