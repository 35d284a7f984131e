//! One sweep: generate a workload's cells, run each through the library's
//! public entry point, and render the workload's JSON report. A sweep is the
//! unit the benchmark times; with a tracer it also records a span around
//! every call into a layer, and with a yardstick it runs one yardstick chunk
//! after every stage (cell generation, each cell, the report).

use std::hint::black_box;
use std::time::Instant;

use ddio_bench::report::{render_json, ScenarioRun};
use ddio_bench::Scale;
use ddio_core::experiment::run_data_point;
use ddio_core::experiment::scenario::{Cell, CellResult, Report, Scenario};
use ddio_core::experiment::DataPoint;
use ddio_core::{FaultConfig, FileLayout, LayoutStorage, PatternInstance, ServeConfig};
use ddio_sim::SimRng;

use crate::cpuclock::thread_cpu_s;
use crate::trace::{SpanId, Tracer};
use crate::workload::{self, Workload};
use crate::yardstick::Yardstick;

/// The RNG stream tags the machine build derives its layout, fault schedule
/// and serving schedule from. The traced run derives the same streams, so
/// each layer's entry point is timed on exactly the inputs the build uses.
const LAYOUT_STREAM: u64 = 0xD15C;
const FAULT_STREAM: u64 = 0xFA17;
pub const SERVE_STREAM: u64 = 0x5E12;

const MIB: f64 = 1024.0 * 1024.0;

/// What one sweep measured and produced.
pub struct Sweep {
    /// Host seconds from cell generation through the rendered report,
    /// yardstick chunks excluded.
    pub wall_s: f64,
    /// CPU seconds of the same span, yardstick chunks excluded.
    pub cpu_s: f64,
    /// The yardstick chunks run between the stages (none without a
    /// yardstick).
    pub yardstick: Yardstick,
    /// Host seconds before simulation: cell generation plus every
    /// transfer's machine build.
    pub setup_s: f64,
    /// Per-cell results, in generation order.
    pub results: Vec<CellResult>,
}

/// Runs every cell of `workload` once. A cell's transfer runs through
/// [`run_data_point`] with one trial, which runs `run_transfer_in` on the
/// calling thread's reusable `MachineArena`.
pub fn run(
    workload: Workload,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
    mut yardstick: Option<&mut Yardstick>,
) -> Sweep {
    let start = Instant::now();
    let cpu_start = thread_cpu_s();
    let root = tracer.as_deref_mut().map(|t| t.open("sweep", None, None));
    let span = tracer
        .as_deref_mut()
        .map(|t| t.open("experiment", None, root));
    let cells = workload::cells(workload, seed);
    close(&mut tracer, span);
    let mut setup_s = start.elapsed().as_secs_f64();
    stage_end(&mut yardstick);

    let mut storage = LayoutStorage::default();
    let mut results = Vec::with_capacity(cells.len());
    for (id, cell) in cells.into_iter().enumerate() {
        let point = match tracer.as_deref_mut() {
            None => run_data_point(
                &cell.config,
                cell.method,
                cell.pattern,
                cell.record_bytes,
                1,
                cell.seed,
            ),
            Some(t) => {
                let (point, reused) = traced_cell(t, root, id, &cell, storage);
                storage = reused;
                point
            }
        };
        setup_s += point.build_wall_secs;
        stage_end(&mut yardstick);
        results.push(CellResult {
            scenario: cell.scenario,
            axes: cell.axes,
            seed: cell.seed,
            hardware_limit_mibs: cell.config.hardware_limit() / MIB,
            point,
        });
    }

    let span = tracer.as_deref_mut().map(|t| t.open("report", None, root));
    let run = ScenarioRun {
        scenario: scenario(workload),
        results,
    };
    let scale = Scale {
        file_mib: ddio_core::MachineConfig::default().file_bytes >> 20,
        trials: 1,
        small_records: false,
        seed,
        ..Scale::default()
    };
    black_box(render_json(&scale, std::slice::from_ref(&run), None).len());
    close(&mut tracer, span);
    stage_end(&mut yardstick);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s() - cpu_start;
    close(&mut tracer, root);
    let yardstick = yardstick.map(Yardstick::take).unwrap_or_default();
    Sweep {
        wall_s: wall_s - yardstick.wall_s,
        cpu_s: cpu_s - yardstick.cpu_s,
        yardstick,
        setup_s,
        results: run.results,
    }
}

/// Runs a yardstick chunk, if there is a yardstick, at the end of a stage.
fn stage_end(yardstick: &mut Option<&mut Yardstick>) {
    if let Some(y) = yardstick.as_deref_mut() {
        y.chunk();
    }
}

fn close(tracer: &mut Option<&mut Tracer>, span: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
        t.close(id);
    }
}

/// The registry-style entry the report renderer labels the workload with.
fn scenario(workload: Workload) -> Scenario {
    Scenario {
        name: workload.name(),
        title: workload.name(),
        description: "benchmark workload",
        headline: "",
        report: Report::Flat,
        build: |_| Vec::new(),
        note: None,
    }
}

/// Runs one cell under spans: each setup layer's entry point on the cell's
/// inputs, then the transfer, whose returned build/run split becomes the
/// machine span's two children. Returns the layout storage for reuse.
fn traced_cell(
    t: &mut Tracer,
    root: Option<SpanId>,
    id: usize,
    cell: &Cell,
    storage: LayoutStorage,
) -> (DataPoint, LayoutStorage) {
    let c = Some(id);
    let cell_span = t.open("cell", c, root);
    let p = Some(cell_span);
    let config = &cell.config;
    let rng = SimRng::seed_from_u64(cell.seed);

    let s = t.open("layout", c, p);
    let layout = black_box(FileLayout::generate_in(
        config,
        &rng.derive(LAYOUT_STREAM),
        storage,
    ));
    t.close(s);
    let storage = layout.into_storage();

    let s = t.open("patterns", c, p);
    black_box(PatternInstance::new(
        cell.pattern,
        config.n_cps,
        config.file_bytes / cell.record_bytes,
        cell.record_bytes,
    ));
    t.close(s);

    let s = t.open("fault", c, p);
    black_box(FaultConfig::derive(
        config.faults,
        config,
        &rng.derive(FAULT_STREAM),
    ));
    t.close(s);

    let s = t.open("serve", c, p);
    black_box(ServeConfig::derive(
        &config.serve,
        config,
        &rng.derive(SERVE_STREAM),
    ));
    t.close(s);

    let s = t.open("machine", c, p);
    let point = run_data_point(
        config,
        cell.method,
        cell.pattern,
        cell.record_bytes,
        1,
        cell.seed,
    );
    t.close(s);
    let start = t.span(s).start_ns;
    let build_end = start + (point.build_wall_secs * 1e9) as u64;
    let run_end = build_end + (point.run_wall_secs * 1e9) as u64;
    t.record("machine.build", c, Some(s), start, build_end);
    t.record("machine.run", c, Some(s), build_end, run_end);
    t.close(cell_span);
    (point, storage)
}
