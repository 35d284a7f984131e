//! The repository benchmark for the disk-directed I/O simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! One process, one worker thread. The seed generates the workload's cells;
//! the simulator receives only those inputs. The run first executes one
//! untimed warm-up sweep, whose simulated outputs are the reference, then
//! repeats timed sweeps for `--seconds`, then runs the correctness check.
//! Human-readable lines come first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! With `--trace 0` the metrics are the host end-to-end figures and the
//! simulated throughput. Timed sweeps run a fixed yardstick computation
//! between their stages, and the gated host times, `sweep_s` and `setup_s`,
//! are scaled by the yardstick's speed in the same sweep to a host of fixed
//! speed, so the shared host's momentary load cancels out (see
//! `yardstick.rs`); `run.py` adds the
//! process's peak resident memory, which only the parent can observe after
//! exit. With `--trace 1`, untraced and traced sweeps alternate, and the
//! metrics are the per-layer figures; spans are written to `--trace-file`.
//!
//! The simulated model has no hardware reference: its figures are compared
//! between commits only, never against hardware or another host.

mod check;
mod cpuclock;
mod digest;
mod metrics;
mod sweep;
#[cfg(test)]
mod tests;
mod trace;
mod workload;
mod yardstick;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use ddio_core::experiment::scenario::{Cell, CellResult};

use crate::check::Verdict;
use crate::metrics::Metric;
use crate::trace::Tracer;
use crate::workload::{Workload, LOAD_LADDER, P99_LIMIT_MS, P99_LOAD, REQUESTS_PER_TENANT};
use crate::yardstick::{Yardstick, REFERENCE_CHUNK_CPU_S};

/// Fewest timed sweeps a run makes, however short `--seconds` is, so every
/// reported host time is a median.
const MIN_SWEEPS: usize = 3;

/// Host-time layer metrics of the traced run: span name → metric name.
const HOST_LAYERS: [(&str, &str); 8] = [
    ("experiment", "experiment.cells_s"),
    ("layout", "layout.generate_s"),
    ("patterns", "patterns.instance_s"),
    ("fault", "fault.derive_s"),
    ("serve", "serve.derive_s"),
    ("machine.build", "machine.build_s"),
    ("machine.run", "machine.run_s"),
    ("report", "report.render_s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_file = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, not {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace is 0 or 1, not {value:?}")),
                }
            }
            "--trace-file" => trace_file = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_file,
    })
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn fingerprints(results: &[CellResult]) -> Vec<u64> {
    results
        .iter()
        .map(|r| digest::fingerprint(&r.point.last_outcome))
        .collect()
}

/// Cells of a sweep whose simulated outputs differ from the reference.
fn mismatches(reference: &[u64], results: &[CellResult]) -> u64 {
    fingerprints(results)
        .iter()
        .zip(reference)
        .filter(|(a, b)| a != b)
        .count() as u64
}

/// The untimed reference sweep, checked: its rows feed every simulated
/// metric, its fingerprints every determinism comparison.
struct Reference {
    cells: Vec<Cell>,
    results: Vec<CellResult>,
    fingerprints: Vec<u64>,
    verdict: Verdict,
}

impl Reference {
    fn new(workload: Workload, seed: u64) -> Reference {
        let results = sweep::run(workload, seed, None, None).results;
        let cells = workload::cells(workload, seed);
        let verdict = check::check(&metrics::rows(&cells, &results));
        Reference {
            fingerprints: fingerprints(&results),
            cells,
            results,
            verdict,
        }
    }

    fn rows(&self) -> Vec<metrics::Row<'_>> {
        metrics::rows(&self.cells, &self.results)
    }

    fn digest(&self) -> u64 {
        digest::combine(&self.fingerprints)
    }

    fn events(&self) -> u64 {
        self.results.iter().map(|r| r.point.sim_events).sum()
    }
}

/// The host-time samples of the timed, untraced sweeps.
#[derive(Default)]
struct HostSamples {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    setup_wall_s: Vec<f64>,
    yardstick_chunk_s: Vec<f64>,
}

impl HostSamples {
    fn push(&mut self, s: &sweep::Sweep) {
        self.wall_s.push(s.wall_s);
        self.cpu_s.push(s.cpu_s);
        self.setup_wall_s.push(s.setup_s);
        self.yardstick_chunk_s
            .push(s.yardstick.cpu_s / f64::from(s.yardstick.chunks));
    }

    /// Median of `samples[i]` scaled to the reference host by sweep i's
    /// yardstick speed.
    fn at_reference(&self, samples: &[f64]) -> f64 {
        let scaled: Vec<f64> = samples
            .iter()
            .zip(&self.yardstick_chunk_s)
            .map(|(s, y)| s * REFERENCE_CHUNK_CPU_S / y)
            .collect();
        median(&scaled)
    }

    fn times(&self) -> HostTimes {
        HostTimes {
            sweep_s: self.at_reference(&self.cpu_s),
            setup_s: self.at_reference(&self.setup_wall_s),
            wall_s: median(&self.wall_s),
            setup_wall_s: median(&self.setup_wall_s),
        }
    }
}

/// Host seconds of a sweep, medians over the timed sweeps: as measured, and
/// (`sweep_s`, `setup_s`) scaled to the reference host.
struct HostTimes {
    /// CPU seconds of the whole sweep on the reference host.
    sweep_s: f64,
    /// Set-up seconds (`setup_wall_s`) on the reference host.
    setup_s: f64,
    wall_s: f64,
    /// Cell generation plus every transfer's machine build, wall clock.
    setup_wall_s: f64,
}

/// The end-to-end figures of an untraced run, in the order printed: the
/// BENCHMARK.json metrics plus the ones that apply only to some workloads.
/// `peak_rss_mib` is added by `run.py`.
fn end_to_end(
    workload: Workload,
    host: &HostTimes,
    fail_ratio: f64,
    reference: &Reference,
) -> Vec<Metric> {
    let rows = reference.rows();
    let mut out = vec![
        Metric::new("sweep_s", "s", host.sweep_s),
        Metric::new("setup_s", "s", host.setup_s),
        Metric::new("wall_s", "s", host.wall_s),
        Metric::new("setup_wall_s", "s", host.setup_wall_s),
        Metric::new("fail_ratio", "ratio", fail_ratio),
    ];
    out.extend(metrics::sim_throughput(&rows));
    if workload.is_open_loop() {
        out.extend(metrics::serve_latency(&rows));
    }
    out
}

/// The traced run's metrics: host seconds per layer (medians over the traced
/// sweeps), the executor's host cost per event, the tracing overhead, and
/// the deterministic model counters.
fn per_layer(
    reference: &Reference,
    layer_secs: &BTreeMap<&str, Vec<f64>>,
    overhead_s: f64,
) -> Vec<Metric> {
    let host = |span: &str| layer_secs.get(span).map_or(0.0, |v| median(v));
    let mut out: Vec<Metric> = HOST_LAYERS
        .iter()
        .map(|(span, name)| Metric::new(*name, "s", host(span)))
        .collect();
    let ns_per_event = host("machine.run") * 1e9 / reference.events().max(1) as f64;
    out.push(Metric::new("sim.ns_per_event", "ns", ns_per_event));
    out.push(Metric::new("trace.overhead_s", "s", overhead_s));
    let rows = reference.rows();
    out.extend(metrics::model_layers(&rows));
    out.extend(metrics::serve_latency(&rows));
    out
}

/// The metrics the final JSON line carries with `--trace 0` (BENCHMARK.json's
/// `end_to_end` list, less `peak_rss_mib`). `fail_ratio` is 0 on a correct
/// run, so it travels as `failed` / `attempted`; the serve-open latency
/// figures apply to one workload only, so they travel with the traced run.
/// The unscaled host times are printed but not gated: on a shared host they
/// measure the host's load as much as the program.
const GATED: [&str; 4] = ["sweep_s", "setup_s", "sim_mibs_tc", "sim_mibs_ddio"];

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn print_metric(m: &Metric, note: &str) {
    println!(
        "  {:<28} {:>16} {:<7} {note}",
        m.name,
        format!("{:.6}", m.value),
        m.unit
    );
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let reference = Reference::new(w, args.seed);
    let n_cells = reference.cells.len();

    let mut host = HostSamples::default();
    let mut yardstick = Yardstick::default();
    let mut traced_walls = Vec::new();
    let mut layer_secs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut tracer = args.trace.then(Tracer::default);
    let mut mismatched = 0u64;
    let start = Instant::now();
    while host.wall_s.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() < args.seconds {
        let s = sweep::run(w, args.seed, None, Some(&mut yardstick));
        mismatched += mismatches(&reference.fingerprints, &s.results);
        host.push(&s);
        if let Some(t) = tracer.as_mut() {
            let mark = t.len();
            let s = sweep::run(w, args.seed, Some(t), None);
            mismatched += mismatches(&reference.fingerprints, &s.results);
            traced_walls.push(s.wall_s);
            let by_name = t.seconds_by_name(mark);
            for (span, _) in HOST_LAYERS {
                layer_secs
                    .entry(span)
                    .or_default()
                    .push(by_name.get(span).copied().unwrap_or(0.0));
            }
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let sweeps = host.wall_s.len() as u64;
    let runs = sweeps + traced_walls.len() as u64;

    let v = &reference.verdict;
    let attempted = runs * v.operations;
    let failed = runs * v.failed + mismatched;
    let correct = failed == 0 && v.problems.is_empty();

    println!(
        "perfbench {}: seed {}, {n_cells} cells per sweep, {sweeps} timed sweeps{} in {measured_s:.2} s, one worker thread",
        w.name(),
        args.seed,
        if args.trace { " (each followed by a traced sweep)" } else { "" },
    );
    println!(
        "  simulated digest {:016x}, sim.events {} per sweep",
        reference.digest(),
        reference.events()
    );
    println!("  simulated figures: unvalidated model (no hardware reference); compare between commits only");
    if w.is_open_loop() {
        println!(
            "  serve-open: {} tenants x {REQUESTS_PER_TENANT} single-block requests, load ladder {LOAD_LADDER:?}, p99 limit {P99_LIMIT_MS} ms, p99 read at load {P99_LOAD}",
            ddio_core::ServeParams::default().tenants
        );
    }
    for p in &v.problems {
        println!("  FAILED {p}");
    }
    if mismatched > 0 {
        println!("  FAILED {mismatched} cell runs differed from the reference sweep");
    }
    let fail_ratio = failed as f64 / attempted.max(1) as f64;

    let metrics = if let Some(t) = &tracer {
        let plain = median(&host.wall_s);
        let traced = median(&traced_walls);
        println!(
            "  traced sweeps reproduce the reference digest: {}; tracing overhead {:.6} s per sweep ({} spans)",
            mismatched == 0,
            traced - plain,
            t.len()
        );
        let out = per_layer(&reference, &layer_secs, traced - plain);
        if let Some(path) = &args.trace_file {
            if let Err(e) = std::fs::write(path, t.to_chrome_json()) {
                eprintln!("perfbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("  spans written to {path}");
        }
        for m in &out {
            print_metric(m, "");
        }
        out
    } else {
        let e2e = end_to_end(w, &host.times(), fail_ratio, &reference);
        for m in &e2e {
            let note = match m.name.as_str() {
                "sweep_s" | "setup_s" => format!(
                    "median of {sweeps} sweeps, at reference speed (yardstick chunk {:.3e} s, reference {REFERENCE_CHUNK_CPU_S:.3e} s)",
                    median(&host.yardstick_chunk_s)
                ),
                "wall_s" | "setup_wall_s" => format!("median of {sweeps} sweeps, as measured"),
                "fail_ratio" => format!("{failed} failed of {attempted} operations"),
                n if n.starts_with("sim_mibs") => {
                    "geometric mean over the class's cells".to_owned()
                }
                n if n.starts_with("sim_p99") => "geometric mean over arrival x QoS".to_owned(),
                _ => String::new(),
            };
            print_metric(m, &note);
        }
        e2e.into_iter()
            .filter(|m| GATED.contains(&m.name.as_str()))
            .collect()
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
