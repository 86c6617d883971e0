//! Paper-scale fixtures shared by the execution-model integration tests.

use digiq_core::exec::checkerboard_groups;
use qcircuit::bench::{Benchmark, ALL_BENCHMARKS};
use qcircuit::ir::Circuit;
use qcircuit::mapping::Layout;
use qcircuit::pipeline::{CompileArtifact, Pipeline, PipelineConfig};
use qcircuit::schedule::Slot;
use qcircuit::topology::Grid;
use std::sync::OnceLock;

/// One paper-scale benchmark compiled through the default pipeline.
pub struct Compiled {
    pub bench: Benchmark,
    pub circuit: Circuit,
    pub slots: Vec<Slot>,
    pub groups: Vec<usize>,
}

/// Every Table IV benchmark at paper scale on the 32×32 grid, compiled
/// once per test binary (the tests in it share it).
pub fn paper_benchmarks() -> &'static [Compiled] {
    static COMPILED: OnceLock<Vec<Compiled>> = OnceLock::new();
    COMPILED.get_or_init(|| {
        let grid = Grid::new(32, 32);
        let pipeline = Pipeline::standard(&PipelineConfig::default());
        ALL_BENCHMARKS
            .into_iter()
            .map(|bench| {
                let logical = bench.paper_scale();
                let layout = Layout::snake(logical.n_qubits(), &grid);
                let (artifact, _) = pipeline
                    .run(CompileArtifact::new(logical, layout), &grid)
                    .unwrap();
                let groups = checkerboard_groups(grid.cols(), artifact.circuit.n_qubits(), 2);
                Compiled {
                    bench,
                    slots: artifact.scheduled().to_vec(),
                    circuit: artifact.circuit,
                    groups,
                }
            })
            .collect()
    })
}
