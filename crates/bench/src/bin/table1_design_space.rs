//! Regenerates Table I: the SFQ single-qubit-gate controller design space.
//!
//! `--json` emits the rows via `sfq_hw::json`; the printed design points
//! are exactly the ones `SweepSpec::table_one_designs` enumerates for the
//! evaluation engine (flags parsed by `digiq_bench::cli`).
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::{default_workers, SweepSpec};
use sfq_hw::json::ToJson;

fn main() {
    let args = CommonArgs::parse(default_workers());
    let rows = digiq_core::design::design_space_table();
    if args.json {
        println!("{}", rows.to_json_string());
        return;
    }
    println!("Table I: design space for SFQ-based single-qubit gate controllers");
    digiq_bench::rule(100);
    println!(
        "{:22} | {:42} | {:24} | calibration",
        "design", "scalability", "execution"
    );
    digiq_bench::rule(100);
    for row in &rows {
        println!(
            "{:22} | {:42} | {:24} | {}",
            row.design, row.scalability, row.execution, row.calibration
        );
    }
    println!();
    let points = SweepSpec::table_one_designs();
    let names: Vec<String> = points.iter().map(|p| p.design.to_string()).collect();
    println!("engine sweep axis: {}", names.join(", "));
}
