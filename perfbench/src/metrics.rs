//! The benchmark's metric catalogue: every end-to-end and per-layer
//! metric it prints, with units, and for each per-layer metric the
//! end-to-end metric it should move, on which workload, and where no
//! move is predicted. `BENCHMARK.json` lists the same names (a test
//! keeps the two in step).

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sweep_paper", "fig10_64q", "serve_mixed"];

/// An end-to-end metric: what a user of the system sees.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The end-to-end metrics every workload prints with `--trace 0`. Each
/// is defined on all three workloads; the operation behind it is a cold
/// 30-job paper sweep (sweep_paper), one full Fig 10 figure (fig10_64q)
/// or one request (serve_mixed). The serve run also prints its latency
/// percentiles up to the highest one with ten samples beyond it.
pub const E2E: &[E2e] = &[
    E2e {
        // Process start excluded; median of several set-ups in one run.
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    E2e {
        // Jobs, qubits or requests completed per host second.
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
    },
    E2e {
        // Operation latency: the lower quartile of the sweeps or figures
        // (host interference only adds time, in bursts that fill a
        // varying share of a run), and the mean request. With two clients behind one eval worker, request
        // latencies form two clusters (served at once, or after waiting
        // for the other client's never-seen request) and the median falls
        // in the gap between them, where it jumps run to run; the mean
        // weighs both and still shows any change to the waiting.
        name: "latency_ms",
        unit: "ms",
        better: "lower",
    },
    E2e {
        // Latency of operations that build new artifacts: every cold
        // sweep and every figure (fresh stores), so the same value as
        // `latency_ms` there, and the mean never-seen serve request
        // (a mix of ones served at once and ones that waited, as above).
        name: "miss_latency_ms",
        unit: "ms",
        better: "lower",
    },
    E2e {
        // Peak resident memory of the benchmark process (VmHWM).
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

/// A per-layer metric and the end-to-end effect it predicts.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// (end-to-end metric, workload) pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads where no move is predicted.
    pub quiet: &'static [&'static str],
}

const SWEEP: &[(&str, &str)] = &[("throughput_per_s", "sweep_paper")];
// Set-up generates the six paper circuits for the expected accounting.
const GENERATE: &[(&str, &str)] = &[
    ("throughput_per_s", "sweep_paper"),
    ("setup_s", "sweep_paper"),
];
const EXEC: &[(&str, &str)] = &[
    ("throughput_per_s", "sweep_paper"),
    ("miss_latency_ms", "serve_mixed"),
];
const SEQ_DB: &[(&str, &str)] = &[
    ("throughput_per_s", "sweep_paper"),
    ("throughput_per_s", "fig10_64q"),
];
const FIG10: &[(&str, &str)] = &[("throughput_per_s", "fig10_64q")];
// Set-up computes the reference shared calibration.
const CALIBRATE: &[(&str, &str)] = &[("throughput_per_s", "fig10_64q"), ("setup_s", "fig10_64q")];
const SERVE_MISS: &[(&str, &str)] = &[("miss_latency_ms", "serve_mixed")];
const SERVE_HIT: &[(&str, &str)] = &[("latency_ms", "serve_mixed")];
const SERVE_LOAD: &[(&str, &str)] = &[
    ("latency_ms", "serve_mixed"),
    ("throughput_per_s", "serve_mixed"),
];
const ALL: &[(&str, &str)] = &[
    ("throughput_per_s", "sweep_paper"),
    ("throughput_per_s", "fig10_64q"),
    ("throughput_per_s", "serve_mixed"),
];
const QUIET_EXCEPT_SWEEP: &[&str] = &["fig10_64q", "serve_mixed"];
const QUIET_FIG10: &[&str] = &["fig10_64q"];
const QUIET_EXCEPT_SERVE: &[&str] = &["sweep_paper", "fig10_64q"];
const QUIET_EXCEPT_FIG10: &[&str] = &["sweep_paper", "serve_mixed"];
const QUIET_SERVE: &[&str] = &["serve_mixed"];
const NONE: &[&str] = &[];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $moves:expr, $quiet:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
            quiet: $quiet,
        }
    };
}

/// Store namespaces whose hit/miss counters the traced run reports, with
/// the metric-name form of each (`/` is not allowed in a name).
pub const STORE_NAMESPACES: [(&str, &str); 10] = [
    ("circuit", "circuit"),
    ("stage/lower", "stage_lower"),
    ("stage/route", "stage_route"),
    ("stage/lower_swaps", "stage_lower_swaps"),
    ("stage/schedule", "stage_schedule"),
    ("seq_db", "seq_db"),
    ("min_lengths", "min_lengths"),
    ("baseline", "baseline"),
    ("cosim", "cosim"),
    ("calib/memo", "calib_memo"),
];

/// Every per-layer metric the traced run prints. Compile passes hit on
/// fig10_64q (no compile) and serve_mixed (compile artifacts are warm),
/// so no move is predicted there.
#[rustfmt::skip]
pub const LAYERS: &[Layer] = &[
    layer!("qcircuit.bench.generate_ms", "ms", "lower", GENERATE, QUIET_EXCEPT_SWEEP),
    layer!("qcircuit.pipeline.lower_ms", "ms", "lower", SWEEP, QUIET_EXCEPT_SWEEP),
    layer!("qcircuit.pipeline.route_ms", "ms", "lower", SWEEP, QUIET_EXCEPT_SWEEP),
    layer!("qcircuit.pipeline.lower_swaps_ms", "ms", "lower", SWEEP, QUIET_EXCEPT_SWEEP),
    layer!("qcircuit.pipeline.schedule_ms", "ms", "lower", SWEEP, QUIET_EXCEPT_SWEEP),
    layer!("qcircuit.pipeline.swaps_added", "count", "lower", SWEEP, QUIET_EXCEPT_SWEEP),
    layer!("qcircuit.pipeline.slots_out", "count", "lower", SWEEP, QUIET_EXCEPT_SWEEP),
    layer!("core.exec.digiq_opt_ms", "ms", "lower", EXEC, QUIET_FIG10),
    layer!("core.exec.digiq_min_ms", "ms", "lower", EXEC, QUIET_FIG10),
    layer!("core.exec.baseline_ms", "ms", "lower", EXEC, QUIET_FIG10),
    layer!("core.exec.opt_host_ns_per_slot", "ns", "lower", EXEC, QUIET_FIG10),
    // Simulated counts: a host-only change must leave them equal.
    layer!("core.exec.slots", "count", "lower", EXEC, QUIET_FIG10),
    layer!("core.exec.serialization_cycles", "count", "lower", EXEC, QUIET_FIG10),
    layer!("calib.min_decomp.seq_db_ms", "ms", "lower", SEQ_DB, QUIET_SERVE),
    layer!("calib.bitstream.calibrate_ms", "ms", "lower", CALIBRATE, QUIET_EXCEPT_FIG10),
    layer!("calib.bitstream.basis_op_ms", "ms", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("calib.opt_decomp.tables_ms", "ms", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("calib.opt_decomp.decompose_ms", "ms", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("calib.opt_decomp.calls", "count", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("calib.opt_decomp.l3_results", "count", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("calib.min_decomp.decompose_ms", "ms", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("calib.min_decomp.calls", "count", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("calib.cz.pulse_ms", "ms", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("calib.cz.uqq_ms", "ms", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("calib.cz.error_ms", "ms", "lower", FIG10, QUIET_EXCEPT_FIG10),
    layer!("core.cosim.simulate_ms", "ms", "lower", SERVE_MISS, QUIET_EXCEPT_SERVE),
    layer!("core.engine.miss_eval_ms", "ms", "lower", SERVE_MISS, QUIET_EXCEPT_SERVE),
    layer!("serve.overhead_ms_p50", "ms", "lower", SERVE_MISS, QUIET_EXCEPT_SERVE),
    layer!("serve.hit_ms_p50", "ms", "lower", SERVE_HIT, QUIET_EXCEPT_SERVE),
    layer!("serve.proto.encode_us", "us", "lower", SERVE_HIT, QUIET_EXCEPT_SERVE),
    layer!("serve.proto.decode_us", "us", "lower", SERVE_HIT, QUIET_EXCEPT_SERVE),
    layer!("serve.report_bytes_p50", "bytes", "lower", SERVE_HIT, QUIET_EXCEPT_SERVE),
    layer!("serve.store.report_hits", "count", "higher", SERVE_LOAD, QUIET_EXCEPT_SERVE),
    layer!("serve.store.report_misses", "count", "lower", SERVE_LOAD, QUIET_EXCEPT_SERVE),
    layer!("serve.store.coalesced", "count", "higher", SERVE_LOAD, QUIET_EXCEPT_SERVE),
    layer!("serve.busy_refusals", "count", "lower", SERVE_LOAD, QUIET_EXCEPT_SERVE),
    layer!("core.store.circuit.hits", "count", "higher", ALL, NONE),
    layer!("core.store.circuit.misses", "count", "lower", ALL, NONE),
    layer!("core.store.stage_lower.hits", "count", "higher", ALL, NONE),
    layer!("core.store.stage_lower.misses", "count", "lower", ALL, NONE),
    layer!("core.store.stage_route.hits", "count", "higher", ALL, NONE),
    layer!("core.store.stage_route.misses", "count", "lower", ALL, NONE),
    layer!("core.store.stage_lower_swaps.hits", "count", "higher", ALL, NONE),
    layer!("core.store.stage_lower_swaps.misses", "count", "lower", ALL, NONE),
    layer!("core.store.stage_schedule.hits", "count", "higher", ALL, NONE),
    layer!("core.store.stage_schedule.misses", "count", "lower", ALL, NONE),
    layer!("core.store.seq_db.hits", "count", "higher", ALL, NONE),
    layer!("core.store.seq_db.misses", "count", "lower", ALL, NONE),
    layer!("core.store.min_lengths.hits", "count", "higher", ALL, NONE),
    layer!("core.store.min_lengths.misses", "count", "lower", ALL, NONE),
    layer!("core.store.baseline.hits", "count", "higher", ALL, NONE),
    layer!("core.store.baseline.misses", "count", "lower", ALL, NONE),
    layer!("core.store.cosim.hits", "count", "higher", ALL, NONE),
    layer!("core.store.cosim.misses", "count", "lower", ALL, NONE),
    layer!("core.store.calib_memo.hits", "count", "higher", ALL, NONE),
    layer!("core.store.calib_memo.misses", "count", "lower", ALL, NONE),
    layer!("qsim.flops", "count", "lower", ALL, NONE),
    layer!("qsim.allocs", "count", "lower", ALL, NONE),
    layer!("qcircuit.self_ms", "ms", "lower", ALL, NONE),
    layer!("calib.self_ms", "ms", "lower", ALL, NONE),
    layer!("core.self_ms", "ms", "lower", ALL, NONE),
    layer!("serve.self_ms", "ms", "lower", ALL, NONE),
    layer!("trace.coverage", "ratio", "higher", ALL, NONE),
    layer!("trace.gap_ms", "ms", "lower", ALL, NONE),
    layer!("trace.overhead", "ratio", "lower", ALL, NONE),
];

#[cfg(test)]
/// True for a valid metric or workload name: it starts with a letter or
/// digit and uses at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_hw::json::Json;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(j: &'a Json, key: &str) -> &'a [Json] {
        match j.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("BENCHMARK.json `{key}` is not an array"),
        }
    }

    #[test]
    fn names_are_valid_unique_and_within_limits() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(E2E.iter().map(|m| m.name))
            .chain(LAYERS.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!((1..=16).contains(&E2E.len()));
        assert!((1..=128).contains(&LAYERS.len()));
        assert!(!valid_name("core.store.calib/memo"));
        assert!(!valid_name("_x"));
    }

    #[test]
    fn every_prediction_names_a_known_metric_and_workload() {
        for m in LAYERS {
            for (e2e, workload) in m.moves {
                assert!(E2E.iter().any(|e| e.name == *e2e), "{}: {e2e}", m.name);
                assert!(WORKLOADS.contains(workload), "{}: {workload}", m.name);
            }
            // Every workload either has a predicted move or is quiet.
            for w in &WORKLOADS {
                let moves = m.moves.iter().any(|(_, x)| x == w);
                assert_ne!(moves, m.quiet.contains(w), "{} on {w}", m.name);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let j = benchmark_json();
        let names = |key: &str| -> Vec<String> {
            entries(&j, key)
                .iter()
                .map(|e| e.str_field("name", key).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            E2E.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            LAYERS.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (e, m) in entries(&j, "end_to_end").iter().zip(E2E) {
            assert_eq!(e.str_field("unit", "e2e"), Ok(m.unit));
            assert_eq!(e.str_field("better", "e2e"), Ok(m.better));
            let bound = e.num_field("bound", "e2e").expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        for (e, m) in entries(&j, "per_layer").iter().zip(LAYERS) {
            assert_eq!(e.str_field("unit", "layer"), Ok(m.unit));
            assert_eq!(e.str_field("better", "layer"), Ok(m.better));
        }
        for w in entries(&j, "workloads") {
            let why = w.str_field("why", "workload").expect("why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }
}
