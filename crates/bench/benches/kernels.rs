//! Timing kernels for the computational hot paths behind every figure:
//! Hamiltonian propagation (Fig 7), bitstream fitness and search (§V-A
//! step 1), gate decomposition (Fig 10a), routing, DigiQ_opt execution
//! and synthesis (Figs 8/9).
//!
//! Runs on the std-only harness in `digiq_bench::timing` (no criterion —
//! the workspace is offline and dependency-free). `--quick` shrinks the
//! budgets for CI smoke runs; `--filter SUBSTR` runs only the kernels
//! whose name contains the substring (iterating on one hot path without
//! paying for the rest); `--json-out FILE` additionally writes the
//! collected stats as a JSON array (what `scripts/ci.sh --bench-json`
//! records in `BENCH_<date>.json`).
//!
//! Besides wall time, each kernel is run once under
//! `qsim::counters::counted` to record its deterministic flop and
//! allocation counts. `--compare FILE` diffs the fresh run against a
//! committed `BENCH_<date>.json` record: counter regressions are hard
//! failures (exit 1), wall-time regressions only warn — the CI container
//! timing is too noisy to gate on.

use digiq_bench::timing::{fmt_ns, Harness, Stats};
use qsim::counters::KernelCounters;
use sfq_hw::counters::SynthCounters;
use sfq_hw::json::{Json, ToJson};
use std::hint::black_box;

/// The timing harness plus one deterministic counter snapshot per kernel
/// (both tiers: qsim flops/allocs and sfq-hw cells/DFFs/allocs).
struct Bench {
    h: Harness,
    counters: Vec<KernelCounters>,
    synth: Vec<SynthCounters>,
    /// `--filter SUBSTR`: only kernels whose name contains this run.
    filter: Option<String>,
}

impl Bench {
    fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if let Some(fl) = &self.filter {
            if !name.contains(fl.as_str()) {
                return;
            }
        }
        let ((_, sc), c) = qsim::counters::counted(|| sfq_hw::counters::counted(|| black_box(f())));
        self.counters.push(c);
        self.synth.push(sc);
        self.h.bench(name, f);
    }
}

/// Naive two-pass cyclic Jacobi reference (the pre-workspace `eigh`):
/// allocating `dagger`/`identity`, separate column and row rotation
/// passes, exact O(n²) off-norm rescan at the top of every sweep. Priced
/// here so `eigh_9x9_cold`'s speedup has an in-record denominator.
mod naive_eigen {
    use qsim::complex::C64;
    use qsim::eigen::EigH;
    use qsim::matrix::CMat;

    #[allow(clippy::too_many_arguments)]
    fn rotate_columns(
        data: &mut [C64],
        n: usize,
        p: usize,
        q: usize,
        c: f64,
        s: f64,
        jqp: C64,
        jqq: C64,
    ) {
        for row in data.chunks_exact_mut(n) {
            let (akp, akq) = (row[p], row[q]);
            row[p] = C64::new(
                akp.re * c + (akq.re * jqp.re - akq.im * jqp.im),
                akp.im * c + (akq.re * jqp.im + akq.im * jqp.re),
            );
            row[q] = C64::new(
                -akp.re * s + (akq.re * jqq.re - akq.im * jqq.im),
                -akp.im * s + (akq.re * jqq.im + akq.im * jqq.re),
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rotate_rows(
        data: &mut [C64],
        n: usize,
        p: usize,
        q: usize,
        c: f64,
        s: f64,
        jqp: C64,
        jqq: C64,
    ) {
        let (head, tail) = data.split_at_mut(q * n);
        let prow = &mut head[p * n..(p + 1) * n];
        let qrow = &mut tail[..n];
        let (cqp, cqq) = (jqp.conj(), jqq.conj());
        for (ap, aq) in prow.iter_mut().zip(qrow.iter_mut()) {
            let (apk, aqk) = (*ap, *aq);
            *ap = C64::new(
                apk.re * c + (aqk.re * cqp.re - aqk.im * cqp.im),
                apk.im * c + (aqk.re * cqp.im + aqk.im * cqp.re),
            );
            *aq = C64::new(
                -apk.re * s + (aqk.re * cqq.re - aqk.im * cqq.im),
                -apk.im * s + (aqk.re * cqq.im + aqk.im * cqq.re),
            );
        }
    }

    pub fn naive_eigh(a: &CMat) -> EigH {
        let n = a.rows();
        let mut m = a.dagger();
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = (m[(i, j)] + a[(i, j)]) * 0.5;
            }
        }
        let mut v = CMat::identity(n);
        let scale = m.frobenius_norm().max(1.0);
        let tol = (scale * 1e-15).powi(2) * (n * n) as f64;
        let thresh = scale * 1e-16;
        let md = m.as_mut_slice();
        let vd = v.as_mut_slice();
        for _sweep in 0..100 {
            let mut off = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        off += md[i * n + j].abs2();
                    }
                }
            }
            if off <= tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let beta = md[p * n + q];
                    let b = beta.abs();
                    if b <= thresh {
                        continue;
                    }
                    let phi = beta.arg();
                    let alpha = md[p * n + p].re;
                    let gamma = md[q * n + q].re;
                    let zeta = (alpha - gamma) / (2.0 * b);
                    let t = if zeta >= 0.0 {
                        1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                    } else {
                        -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    let e_m = C64::cis(-phi);
                    let jqp = e_m * s;
                    let jqq = e_m * c;
                    rotate_columns(md, n, p, q, c, s, jqp, jqq);
                    rotate_rows(md, n, p, q, c, s, jqp, jqq);
                    rotate_columns(vd, n, p, q, c, s, jqp, jqq);
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        let vals: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
        order.sort_by(|&i, &j| vals[i].total_cmp(&vals[j]));
        let sorted_vals: Vec<f64> = order.iter().map(|&i| vals[i]).collect();
        let sorted_vecs = CMat::from_fn(n, n, |i, j| v[(i, order[j])]);
        EigH {
            values: sorted_vals,
            vectors: sorted_vecs,
        }
    }
}

fn bench_eigen(h: &mut Bench) {
    let pair = qsim::two_qubit::CoupledTransmons::paper_pair(6.21286, 4.14238);
    let ham = pair.hamiltonian(-1.8);
    // "cold" = no eigendecomposition memo in play: the raw workspace
    // Jacobi core, the deepest numeric tier under every propagator.
    h.bench("eigh_9x9_cold", || qsim::eigen::eigh(black_box(&ham)));
    h.bench("eigh_9x9_naive", || {
        naive_eigen::naive_eigh(black_box(&ham))
    });
}

fn bench_expm(h: &mut Bench) {
    let pair = qsim::two_qubit::CoupledTransmons::paper_pair(6.21286, 4.14238);
    let ham = pair.hamiltonian(-1.8);
    h.bench("expm_9x9_propagator", || {
        qsim::expm::expm_hermitian_propagator(black_box(&ham), 0.25)
    });
    let wf =
        qsim::two_qubit::DetuningWaveform::rounded(pair.cz_resonance_detuning(), 4.0, 35.0, 0.5);
    h.bench("uqq_full_pulse", || pair.propagate(black_box(&wf)));
}

fn bench_bitstream(h: &mut Bench) {
    use qsim::pulse::{SfqParams, SfqPulseSim};
    let sim = SfqPulseSim::new(qsim::transmon::Transmon::new(6.21286), SfqParams::default());
    let bits = sim.resonant_comb(63);
    let target = qsim::gates::ry(std::f64::consts::FRAC_PI_2);
    h.bench("bitstream_frame_gate_253", || {
        sim.frame_gate_qubit(black_box(&bits))
    });
    let m = sim.frame_gate_qubit(&bits);
    h.bench("bitstream_fitness_free_z", || {
        calib::bitstream::fidelity_with_freedom(
            black_box(&m),
            &target,
            calib::bitstream::ZFreedom::PrePost,
        )
    });
    // One whole `calibrate_shared` search (the Fig 10 set-up): Ry(π/2)
    // with free z-phases at the high parking frequency, 253 ticks, the
    // bounded error model's GA, then the prefix-reused polish.
    let cfg = calib::bitstream::SearchConfig {
        length: 253,
        ga: digiq_core::error_model::ErrorModelConfig::small(1).ga,
    };
    h.bench("find_bitstream_ry_253", || {
        calib::bitstream::find_bitstream(
            qsim::transmon::Transmon::new(6.21286),
            SfqParams::default(),
            black_box(&target),
            calib::bitstream::ZFreedom::PrePost,
            &cfg,
        )
    });
}

fn bench_decomposition(h: &mut Bench) {
    let basis = calib::opt_decomp::OptBasis::ideal(255);
    let target = qsim::gates::h();
    h.bench("opt_decompose_L2", || {
        calib::opt_decomp::decompose_opt(black_box(&target), &basis, 0.0, 2, 0.0)
    });
    // The Fig 10a hot path: X on a drifted basis at err_target 0 never
    // exits early, so every L = 3 stem (96 best L = 2 + the 32×32 grid)
    // and the refinement run.
    let drifted = calib::opt_decomp::OptBasis {
        ubs: qsim::gates::rz(0.21)
            .matmul(&qsim::gates::ry(std::f64::consts::FRAC_PI_2 + 0.07))
            .matmul(&qsim::gates::rz(-0.13)),
        phase_per_tick: 2.0 * std::f64::consts::PI * 0.2487,
        n_delays: 255,
    };
    let tables = calib::opt_decomp::OptTables::build(&drifted);
    let x = qsim::gates::x();
    h.bench("opt_decompose_L3", || {
        calib::opt_decomp::decompose_opt_with(&tables, black_box(&x), 0.0, 3, 0.0)
    });
    let min_basis = calib::min_decomp::MinBasis::ideal_ry_t();
    let db = calib::min_decomp::SequenceDb::build(&min_basis, 10);
    h.bench("min_mitm_query_depth20", || {
        calib::min_decomp::decompose_min(black_box(&target), &min_basis, &db, 1e-4)
    });
}

fn bench_compile(h: &mut Bench) {
    use qcircuit::lower::lower_to_cz;
    use qcircuit::mapping::{route, Layout, RouterConfig};
    use qcircuit::topology::Grid;
    let grid = Grid::new(8, 8);
    let circuit = lower_to_cz(&qcircuit::bench::ising_chain(64, 2, 0.3, 0.7));
    let snake = Layout::snake(64, &grid);
    h.bench("route_ising64", || {
        route(
            black_box(&circuit),
            &grid,
            black_box(&snake),
            &RouterConfig::default(),
        )
    });
    let routed = route(&circuit, &grid, &snake, &RouterConfig::default());
    let phys = lower_to_cz(&routed.circuit);
    h.bench("schedule_ising64", || {
        qcircuit::schedule::schedule_crosstalk_aware(black_box(&phys), &grid)
    });

    // The whole pass pipeline (lower → route → lower_swaps → schedule,
    // post-validated per stage) on the same workload, default vs the
    // alternative strategies.
    use qcircuit::pipeline::{
        CompileArtifact, Pipeline, PipelineConfig, RouteStrategy, ScheduleStrategy,
    };
    let logical = qcircuit::bench::ising_chain(64, 2, 0.3, 0.7);
    let mut pipe = |name: &'static str, cfg: PipelineConfig| {
        let pipeline = Pipeline::standard(&cfg);
        h.bench(name, || {
            pipeline
                .run(
                    CompileArtifact::new(black_box(&logical).clone(), snake.clone()),
                    &grid,
                )
                .unwrap()
                .0
                .scheduled()
                .len()
        });
    };
    pipe("pipeline_default_ising64", PipelineConfig::default());
    pipe(
        "pipeline_lookahead_asap_ising64",
        PipelineConfig::default()
            .with_router(RouteStrategy::Lookahead { window: 16 })
            .with_scheduler(ScheduleStrategy::Asap),
    );
}

fn bench_exec(h: &mut Bench) {
    use digiq_core::design::{ControllerDesign, SystemConfig};
    use digiq_core::exec::{checkerboard_groups, execute, ExecParams};
    use qcircuit::pipeline::{CompileArtifact, Pipeline, PipelineConfig};
    use qcircuit::topology::Grid;
    // DigiQ_opt slot demand and the DigiQ_min timelines at paper scale:
    // the 256-bit lookahead adder on the 32×32 grid (the benchmark with
    // the most slots, and most of the paper sweep's exec work), compiled
    // once outside the timed closures. The `allocs` counter is the
    // `SlotDemand` workspace growth of one run (draw tables and demand
    // buffers) — a few warm-up grows, never one per slot or gate.
    let grid = Grid::new(32, 32);
    let logical = qcircuit::bench::Benchmark::Add2.paper_scale();
    let layout = qcircuit::mapping::Layout::snake(logical.n_qubits(), &grid);
    let (compiled, _) = Pipeline::standard(&PipelineConfig::default())
        .run(CompileArtifact::new(logical, layout), &grid)
        .unwrap();
    let groups = checkerboard_groups(grid.cols(), compiled.circuit.n_qubits(), 2);
    let mut params = ExecParams::new(SystemConfig::paper_default(
        ControllerDesign::DigiqOpt { bs: 8 },
        2,
    ));
    params.config.n_qubits = compiled.circuit.n_qubits();
    let mut exec_row = |name: &'static str, design: ControllerDesign| {
        params.config.design = design;
        h.bench(name, || {
            execute(
                black_box(&compiled.circuit),
                compiled.scheduled(),
                &groups,
                &params,
            )
        });
    };
    exec_row("exec_opt_bs8_paper", ControllerDesign::DigiqOpt { bs: 8 });
    exec_row("exec_min_bs2_paper", ControllerDesign::DigiqMin { bs: 2 });
}

fn bench_synthesis(h: &mut Bench) {
    h.bench("synthesize_mux16", || {
        let mut nl = sfq_hw::generators::one_hot_mux(16);
        sfq_hw::passes::synthesize(&mut nl);
        nl.stats().total_jj
    });
    let cfg = digiq_core::design::SystemConfig::paper_default(
        digiq_core::design::ControllerDesign::DigiqOpt { bs: 8 },
        2,
    );
    let model = sfq_hw::cost::CostModel::default();
    // Reset the module memo *outside* the closure: the counted (first)
    // run is then deterministically cold regardless of which kernels ran
    // before, while the timed iterations measure the memoized steady
    // state the Fig 8 sweep actually sees.
    digiq_core::hardware::clear_module_memo();
    h.bench("build_hardware_opt_bs8", || {
        digiq_core::hardware::build_hardware(black_box(&cfg), &model)
    });
    digiq_core::hardware::clear_module_memo();
    h.bench("fig8_sweep_serial", || {
        digiq_core::hardware::fig8_sweep(black_box(&model)).len()
    });
}

/// One fresh result row: timing stats plus the deterministic counters.
struct Row {
    name: String,
    stats: Stats,
    counters: KernelCounters,
    synth: SynthCounters,
}

impl Row {
    /// The deterministic counter fields of this row, in record order —
    /// the single source of truth for both `--json-out` and `--compare`.
    fn counter_fields(&self) -> [(&'static str, u64); 5] {
        [
            ("flops", self.counters.flops),
            ("allocs", self.counters.allocs),
            ("cells", self.synth.cells),
            ("dffs_moved", self.synth.dffs_moved),
            ("synth_allocs", self.synth.allocs),
        ]
    }
}

/// Extracts the kernel rows from a committed benchmark record — either a
/// full `BENCH_<date>.json` object (`{"kernels": [...]}`) or a bare array
/// as written by `--json-out`.
fn baseline_rows(j: &Json) -> Result<&[Json], String> {
    match j {
        Json::Arr(items) => Ok(items),
        Json::Obj(_) => j.arr_field("kernels", "benchmark record"),
        _ => Err("benchmark record is neither an array nor an object".to_string()),
    }
}

/// Diffs the fresh rows against a committed record. Returns `false` (fail)
/// if any kernel's flop or allocation count exceeds its baseline; wall-time
/// regressions only print a warning.
fn compare(rows: &[Row], baseline_path: &str, baseline: &Json) -> bool {
    let base = match baseline_rows(baseline) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read baseline `{baseline_path}`: {e}");
            return false;
        }
    };
    println!("\ncomparison vs {baseline_path}:");
    println!(
        "{:<32} {:>12} {:>12} {:>8}  counters",
        "kernel", "base median", "median", "speedup"
    );
    let mut ok = true;
    for row in rows {
        let Some(b) = base
            .iter()
            .find(|b| b.str_field("name", "row") == Ok(row.name.as_str()))
        else {
            println!("{:<32} (new kernel, no baseline)", row.name);
            continue;
        };
        let base_median = b.num_field("median_ns", "row").unwrap_or(f64::NAN);
        let speedup = base_median / row.stats.median_ns;
        // Counters are exact and deterministic: any increase is a real
        // regression, not noise. Fields the baseline lacks (older records
        // predate the synthesis counters) are skipped — the fresh record
        // picks up the gate from there.
        let covered: Vec<(&str, u64, u64)> = row
            .counter_fields()
            .into_iter()
            .filter_map(|(field, fresh)| {
                b.count_field(field, "row")
                    .ok()
                    .map(|bv| (field, bv, fresh))
            })
            .collect();
        let counter_note = if covered.is_empty() {
            "baseline has none".to_string()
        } else if covered.iter().all(|&(_, bv, _)| bv == 0)
            && row.counter_fields().iter().any(|&(_, fresh)| fresh > 0)
        {
            // An all-zero baseline against a counting kernel means the
            // record predates counter coverage of this path (not a
            // regression from literally zero work); a fresh record picks
            // up the gate from here.
            let now: Vec<String> = row
                .counter_fields()
                .iter()
                .map(|(f, v)| format!("{f} {v}"))
                .collect();
            format!(
                "baseline predates counter coverage (now {})",
                now.join(", ")
            )
        } else if covered.iter().any(|&(_, bv, fresh)| fresh > bv) {
            ok = false;
            let diffs: Vec<String> = covered
                .iter()
                .map(|(f, bv, fresh)| format!("{f} {bv} -> {fresh}"))
                .collect();
            format!("REGRESSED {}", diffs.join(", "))
        } else {
            let diffs: Vec<String> = covered
                .iter()
                .map(|(f, bv, fresh)| format!("{f} {bv} -> {fresh}"))
                .collect();
            format!("ok ({})", diffs.join(", "))
        };
        println!(
            "{:<32} {:>12} {:>12} {:>7.2}x  {}",
            row.name,
            fmt_ns(base_median),
            fmt_ns(row.stats.median_ns),
            speedup,
            counter_note
        );
        if row.stats.median_ns > base_median * 1.5 {
            eprintln!(
                "warning: {} wall time regressed {:.2}x (warn-only: timing is noisy in CI)",
                row.name,
                row.stats.median_ns / base_median
            );
        }
    }
    ok
}

fn main() {
    let mut h = Bench {
        h: if digiq_bench::has_flag("--quick") {
            Harness::quick()
        } else {
            Harness::standard()
        },
        counters: Vec::new(),
        synth: Vec::new(),
        filter: digiq_bench::arg_value("--filter"),
    };
    bench_eigen(&mut h);
    bench_expm(&mut h);
    bench_bitstream(&mut h);
    bench_decomposition(&mut h);
    bench_compile(&mut h);
    bench_exec(&mut h);
    bench_synthesis(&mut h);
    println!("\n{} kernels timed.", h.h.results.len());
    let rows: Vec<Row> =
        h.h.results
            .iter()
            .zip(h.counters.iter())
            .zip(h.synth.iter())
            .map(|(((name, stats), &counters), &synth)| Row {
                name: name.clone(),
                stats: *stats,
                counters,
                synth,
            })
            .collect();
    if let Some(path) = digiq_bench::arg_value("--json-out") {
        let out = Json::Arr(
            rows.iter()
                .map(|row| {
                    let mut fields = vec![("name".to_string(), row.name.to_json())];
                    if let Json::Obj(stat_fields) = row.stats.to_json() {
                        fields.extend(stat_fields);
                    }
                    for (field, value) in row.counter_fields() {
                        fields.push((field.to_string(), value.to_json()));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        );
        std::fs::write(&path, out.render()).unwrap_or_else(|e| {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(1);
        });
        eprintln!("kernel stats written to {path}");
    }
    if let Some(path) = digiq_bench::arg_value("--compare") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(1);
        });
        let baseline = Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: cannot parse `{path}`: {e:?}");
            std::process::exit(1);
        });
        if !compare(&rows, &path, &baseline) {
            eprintln!("error: deterministic counter regression vs {path}");
            std::process::exit(1);
        }
        println!("bench compare OK vs {path}");
    }
}
