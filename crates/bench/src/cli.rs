//! The `ddio-bench` command line: `list` the registry, `run` any scenario
//! (or `all`) in parallel, and emit text tables, JSON, or CSV.
//!
//! ```text
//! ddio-bench list [--format table|json]
//! ddio-bench run <scenario>|all [--jobs N] [--format table|json|csv]
//!                [--out FILE] [--trials N] [--seed N] [--file-mb N]
//!                [--small-records 0|1] [--cache-bufs N] [--perf]
//!                [--sched LIST] [--cache LIST] [--topology LIST] [--net LIST]
//!                [--faults LIST] [--redundancy LIST] [--arrival LIST]
//!                [--qos LIST]
//! ```
//!
//! The `DDIO_*` environment variables provide the defaults (see the crate
//! docs); the numeric flags override them. The eight policy flags are the
//! rows of [`AXES`] and filter cells (see [`Axis`]). All parsing errors are
//! reported before any simulation starts.

use std::fmt;
use std::io::Write;

use ddio_core::experiment::pool;
use ddio_core::experiment::scenario::{self, Cell, Scenario, SweepParams};
use ddio_core::{
    ArrivalProcess, CacheConfig, CacheFilter, CacheSet, ContentionModel, FaultPolicy, Policy,
    PolicySet, PrefetchPolicy, QosPolicy, RedundancyPolicy, ReplacementPolicy, SchedPolicy,
    TopologyKind, WritePolicy,
};

use crate::report::{self, ScenarioRun};
use crate::Scale;

/// Output format of `ddio-bench run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable aligned tables (the exhibit binaries' output).
    Table,
    /// One JSON document with a stable schema.
    Json,
    /// One CSV row per cell.
    Csv,
}

/// One policy axis of `ddio-bench run`: the flag that filters cells on it
/// and, for machine-wide policies, the `DDIO_*` variable that sets it.
///
/// A flag narrows every scenario whose cells take two or more distinct
/// values on its axis. Cells with a listed value stay, and so do cells with
/// no value on the axis (cacheless DDIO under `--cache`). A scenario fixed
/// on the axis runs whole.
pub struct Axis {
    /// The `run` flag, e.g. `"--sched"`.
    pub flag: &'static str,
    /// What one value of the axis is called, e.g. `"scheduling policy"`.
    pub noun: &'static str,
    /// The accepted values, for `--help` and error messages.
    pub expected: fn() -> String,
    /// Parses the flag's comma-separated list into the admitted values, one
    /// bit per `value_of` index.
    parse: fn(&str) -> Result<u64, String>,
    /// The index of a cell's value on the axis; `None` if it has none.
    value_of: fn(&Cell) -> Option<usize>,
    /// The `DDIO_*` variable holding the machine-wide value, and its setter.
    pub env: Option<(&'static str, SetDefault)>,
}

/// Applies one name of an axis's `DDIO_*` variable to the scale; `None` if
/// the name is unknown.
pub type SetDefault = fn(&mut Scale, &str) -> Option<()>;

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.flag)
    }
}

impl Axis {
    /// True if `cells` take two or more distinct values on this axis.
    fn varies(&self, cells: &[Cell]) -> bool {
        let mut values = cells.iter().filter_map(self.value_of);
        let first = values.next();
        values.any(|v| Some(v) != first)
    }
}

/// Every policy axis `run` can filter, in `--help` order.
pub static AXES: [Axis; 8] = [
    policy_axis::<SchedPolicy>("--sched", |c| Some(c.method.sched().index()), None),
    Axis {
        flag: "--cache",
        noun: "cache composition",
        expected: CacheFilter::expected,
        parse: cache_bits,
        value_of: |c| c.method.cache().map(cache_index),
        env: None,
    },
    policy_axis::<TopologyKind>(
        "--topology",
        |c| Some(c.config.fabric.topology.index()),
        Some(("DDIO_NET_TOPOLOGY", |s, v| {
            TopologyKind::parse(v).map(|p| s.topology = p)
        })),
    ),
    policy_axis::<ContentionModel>(
        "--net",
        |c| Some(c.config.fabric.contention.index()),
        Some(("DDIO_NET_CONTENTION", |s, v| {
            ContentionModel::parse(v).map(|p| s.contention = p)
        })),
    ),
    policy_axis::<FaultPolicy>(
        "--faults",
        |c| Some(c.config.faults.index()),
        Some(("DDIO_FAULT_POLICY", |s, v| {
            FaultPolicy::parse(v).map(|p| s.faults = p)
        })),
    ),
    policy_axis::<RedundancyPolicy>(
        "--redundancy",
        |c| Some(c.config.redundancy.index()),
        Some(("DDIO_FAULT_REDUNDANCY", |s, v| {
            RedundancyPolicy::parse(v).map(|p| s.redundancy = p)
        })),
    ),
    policy_axis::<ArrivalProcess>(
        "--arrival",
        |c| Some(c.config.serve.arrival.index()),
        Some(("DDIO_ARRIVAL_PROCESS", |s, v| {
            ArrivalProcess::parse(v).map(|p| s.arrival = p)
        })),
    ),
    policy_axis::<QosPolicy>(
        "--qos",
        |c| Some(c.config.serve.qos.index()),
        Some(("DDIO_ARRIVAL_QOS", |s, v| {
            QosPolicy::parse(v).map(|p| s.qos = p)
        })),
    ),
];

/// The [`AXES`] row of a policy enum.
const fn policy_axis<P: Policy>(
    flag: &'static str,
    value_of: fn(&Cell) -> Option<usize>,
    env: Option<(&'static str, SetDefault)>,
) -> Axis {
    Axis {
        flag,
        noun: P::NOUN,
        expected: P::expected,
        parse: policy_bits::<P>,
        value_of,
        env,
    }
}

/// [`Axis::parse`] for a policy enum: one bit per [`Policy::index`].
fn policy_bits<P: Policy>(list: &str) -> Result<u64, String> {
    let set = PolicySet::<P>::parse_list(list)?;
    Ok(set.iter().fold(0, |bits, p| bits | 1 << p.index()))
}

/// A cache composition's index among all of them (replacement-major).
fn cache_index(c: CacheConfig) -> usize {
    (c.replacement.index() * PrefetchPolicy::ALL.len() + c.prefetch.index())
        * WritePolicy::ALL.len()
        + c.write.index()
}

/// [`Axis::parse`] for `--cache`: one bit per composition any element of
/// the [`CacheSet`] matches.
fn cache_bits(list: &str) -> Result<u64, String> {
    let set = CacheSet::parse_list(list)?;
    let mut bits = 0;
    for replacement in ReplacementPolicy::ALL {
        for prefetch in PrefetchPolicy::ALL {
            for write in WritePolicy::ALL {
                let config = CacheConfig {
                    replacement,
                    prefetch,
                    write,
                };
                if set.matches(config) {
                    bits |= 1 << cache_index(config);
                }
            }
        }
    }
    Ok(bits)
}

/// A parsed axis flag: the axis and the values it admits.
#[derive(Debug, Clone, Copy)]
pub struct AxisFilter {
    /// The filtered axis.
    pub axis: &'static Axis,
    admitted: u64,
}

impl AxisFilter {
    /// True if `cell` has no value on the axis or an admitted one.
    pub fn admits(&self, cell: &Cell) -> bool {
        (self.axis.value_of)(cell).map_or(true, |v| self.admitted & (1 << v) != 0)
    }
}

/// A fully parsed `run` invocation.
#[derive(Debug, Clone)]
pub struct RunCommand {
    /// Scenarios to run, in registry order.
    pub scenarios: Vec<Scenario>,
    /// Worker threads.
    pub jobs: usize,
    /// Output format.
    pub format: Format,
    /// Output file (stdout when `None`).
    pub out: Option<String>,
    /// Report executor performance (events/sec and wall-clock) per cell and
    /// for the whole run — the `BENCH_*.json` trajectory data.
    pub perf: bool,
    /// Scaling knobs after environment + flag resolution.
    pub scale: Scale,
    /// One filter per policy flag given (none: every cell runs).
    pub filters: Vec<AxisFilter>,
}

const USAGE_HEAD: &str = "\
ddio-bench: unified scenario runner for the disk-directed-I/O reproduction

USAGE:
    ddio-bench list [--format table|json]
    ddio-bench run <scenario>|all [OPTIONS]

OPTIONS (run):
    --jobs N              worker threads (default: all cores)
    --format table|json|csv   output format (default: table)
    --out FILE            write the report to FILE instead of stdout
    --perf                add executor perf (events, wall-clock, events/sec)
                          per cell and for the whole run; wall-clock numbers
                          are host-dependent and excluded from goldens
    --trials N            trials per data point (default: env DDIO_TRIALS or 5)
    --seed N              base random seed (default: env DDIO_SEED or 1994)
    --file-mb N           file size in MiB (default: env DDIO_FILE_MB or 10)
    --small-records 0|1   run the 8-byte-record half of fig3/fig4
    --cache-bufs N        TC cache buffers per disk per CP (default:
                          env DDIO_CACHE_BUFS or 2)
";

const USAGE_TAIL: &str = "
Each LIST is comma-separated (a --cache entry is a +-joined composition,
e.g. `mru,lru+strided`). A LIST flag narrows every scenario whose cells
differ on that policy; cells without one (cacheless DDIO under --cache)
stay, and a scenario fixed on the policy runs whole. The env variables set
the machine-wide policy of every scenario that does not sweep it (default:
the paper's healthy, closed-loop torus); DDIO_ARRIVAL_TENANTS and
DDIO_ARRIVAL_REQUESTS size the open-loop tenants.

Scenarios (see `ddio-bench list` for descriptions and headline results):
table1 fig3 fig4 fig5 fig6 fig7 fig8 mixed-rw degraded-disk sched-sweep
cache-sweep record-cp-cross net-sweep fault-sweep serve-sweep";

/// The `--help` text; the policy flags and their values come from [`AXES`].
fn usage() -> String {
    let mut out = USAGE_HEAD.to_owned();
    for axis in &AXES {
        let flag = format!("{} LIST", axis.flag);
        out.push_str(&format!(
            "    {flag:<22}keep cells whose {} is listed:\n{:26}{}\n",
            axis.noun,
            "",
            (axis.expected)()
        ));
        if let Some((var, _)) = axis.env {
            out.push_str(&format!("{:26}(machine-wide: env {var})\n", ""));
        }
    }
    out.push_str(USAGE_TAIL);
    out
}

fn usage_err(message: impl Into<String>) -> String {
    format!("{}\n\n{}", message.into(), usage())
}

/// Parses a numeric flag value that must be a positive integer.
fn parse_at_least_one(flag: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| usage_err(format!("{flag} {v:?}: expected an integer >= 1")))
}

/// Parses `run` arguments. `lookup` supplies the `DDIO_*` environment
/// (injectable for tests); a knob explicitly set by a flag shadows its
/// environment variable entirely, so e.g. `--trials 3` works even when a
/// stale `DDIO_TRIALS=0` would be rejected on its own.
pub fn parse_run(
    args: &[String],
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<RunCommand, String> {
    let mut targets: Vec<String> = Vec::new();
    let mut jobs = pool::default_jobs();
    let mut format = Format::Table;
    let mut out = None;
    let mut trials: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut file_mib: Option<u64> = None;
    let mut small_records: Option<bool> = None;
    let mut cache_bufs: Option<usize> = None;
    let mut filters: Vec<AxisFilter> = Vec::new();
    let mut perf = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| usage_err(format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--jobs" => {
                jobs = parse_at_least_one("--jobs", &flag_value("--jobs")?)? as usize;
            }
            "--format" => {
                format = match flag_value("--format")?.as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => {
                        return Err(usage_err(format!(
                            "--format {other:?}: expected table, json, or csv"
                        )))
                    }
                };
            }
            "--out" => out = Some(flag_value("--out")?),
            "--perf" => perf = true,
            "--trials" => {
                trials = Some(parse_at_least_one("--trials", &flag_value("--trials")?)? as usize);
            }
            "--seed" => {
                let v = flag_value("--seed")?;
                seed = Some(v.parse::<u64>().map_err(|_| {
                    usage_err(format!("--seed {v:?}: expected an unsigned integer"))
                })?);
            }
            "--file-mb" => {
                file_mib = Some(parse_at_least_one("--file-mb", &flag_value("--file-mb")?)?);
            }
            "--cache-bufs" => {
                cache_bufs = Some(
                    parse_at_least_one("--cache-bufs", &flag_value("--cache-bufs")?)? as usize,
                );
            }
            "--small-records" => {
                let v = flag_value("--small-records")?;
                small_records = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(usage_err(format!(
                            "--small-records {other:?}: expected 0 or 1"
                        )))
                    }
                });
            }
            flag if flag.starts_with("--") => {
                let axis = AXES
                    .iter()
                    .find(|a| a.flag == flag)
                    .ok_or_else(|| usage_err(format!("unknown option {flag:?}")))?;
                let admitted = (axis.parse)(&flag_value(flag)?)
                    .map_err(|e| usage_err(format!("{flag}: {e}")))?;
                // A repeated flag replaces its earlier value.
                filters.retain(|f| f.axis.flag != flag);
                filters.push(AxisFilter { axis, admitted });
            }
            name => targets.push(name.to_owned()),
        }
    }

    if targets.is_empty() {
        return Err(usage_err("run: name one or more scenarios, or `all`"));
    }

    // Resolve the environment only for knobs no flag overrode, then layer
    // the flag values on top.
    let mut scale = Scale::from_lookup(|var| {
        let shadowed = match var {
            "DDIO_FILE_MB" => file_mib.is_some(),
            "DDIO_TRIALS" => trials.is_some(),
            "DDIO_SEED" => seed.is_some(),
            "DDIO_SMALL_RECORDS" => small_records.is_some(),
            "DDIO_CACHE_BUFS" => cache_bufs.is_some(),
            _ => false,
        };
        if shadowed {
            None
        } else {
            lookup(var)
        }
    })
    .map_err(|e| e.to_string())?;
    if let Some(v) = file_mib {
        scale.file_mib = v;
    }
    if let Some(v) = trials {
        scale.trials = v;
    }
    if let Some(v) = seed {
        scale.seed = v;
    }
    if let Some(v) = small_records {
        scale.small_records = v;
    }
    if let Some(v) = cache_bufs {
        scale.cache_bufs = v;
    }

    let scenarios = if targets.iter().any(|t| t == "all") {
        scenario::registry()
    } else {
        let mut list = Vec::new();
        for name in &targets {
            let s = scenario::find(name).ok_or_else(|| {
                usage_err(format!("unknown scenario {name:?} (try `ddio-bench list`)"))
            })?;
            list.push(s);
        }
        list
    };
    Ok(RunCommand {
        scenarios,
        jobs,
        format,
        out,
        perf,
        scale,
        filters,
    })
}

/// The cells each scenario of `cmd` runs once the axis filters narrowed
/// it. Each cell's seed derives from its own identity, so dropping cells
/// never moves the numbers of the cells that stay.
fn scenario_cells(cmd: &RunCommand, params: &SweepParams) -> Vec<Vec<Cell>> {
    cmd.scenarios
        .iter()
        .map(|s| {
            let cells = (s.build)(params);
            let narrowing: Vec<&AxisFilter> = cmd
                .filters
                .iter()
                .filter(|f| f.axis.varies(&cells))
                .collect();
            cells
                .into_iter()
                .filter(|c| narrowing.iter().all(|f| f.admits(c)))
                .collect()
        })
        .collect()
}

/// Executes a parsed `run`: all cells of all requested scenarios go through
/// one parallel pass, then the report is rendered whole.
pub fn execute_run(cmd: &RunCommand) -> Result<String, String> {
    let params = cmd.scale.sweep_params();
    // Flatten every scenario's cells into one work list so small scenarios
    // can't leave workers idle while a big one still has cells queued.
    let mut cells = Vec::new();
    let mut spans = Vec::new();
    for scenario_cells in scenario_cells(cmd, &params) {
        spans.push(scenario_cells.len());
        cells.extend(scenario_cells);
    }
    let wall_start = std::time::Instant::now();
    let mut results = scenario::run_cells(cells, params.trials, cmd.jobs);
    let wall_s = wall_start.elapsed().as_secs_f64();
    let mut runs = Vec::with_capacity(cmd.scenarios.len());
    for (s, span) in cmd.scenarios.iter().zip(spans) {
        let rest = results.split_off(span);
        runs.push(ScenarioRun {
            scenario: *s,
            results,
        });
        results = rest;
    }
    // Whole-run perf: wall-clock covers the parallel pass, so events/sec
    // here is the machine's aggregate rate across all `--jobs` workers.
    let perf = cmd.perf.then(|| {
        let sim_events: u64 = runs
            .iter()
            .flat_map(|run| &run.results)
            .map(|r| r.point.sim_events)
            .sum();
        report::RunPerf {
            sim_events,
            wall_s,
            jobs: cmd.jobs,
        }
    });
    Ok(match cmd.format {
        Format::Table => report::render_table(&params, &runs, perf.as_ref()),
        Format::Json => {
            let mut s = report::render_json(&cmd.scale, &runs, perf.as_ref());
            s.push('\n');
            s
        }
        Format::Csv => report::render_csv(&runs, perf.is_some()),
    })
}

/// The registry listing printed by `ddio-bench list`: each scenario's name,
/// the one-line question it answers, and its headline result, all sourced
/// from the registry (the README's scenario catalog is generated from the
/// same fields, so the two cannot drift apart).
pub fn render_list() -> String {
    let mut out = String::from("Registered scenarios:\n");
    for s in scenario::registry() {
        out.push_str(&format!("  {:<16} {}\n", s.name, s.description));
        out.push_str(&format!("  {:<16} -> {}\n", "", s.headline));
    }
    out
}

/// The registry listing as one JSON document (`ddio-bench list --format
/// json`), so CI and scripts can enumerate scenarios without scraping the
/// table. Schema:
/// `{"scenarios":[{"name","title","description","headline"}...]}`.
pub fn render_list_json() -> String {
    let entries = scenario::registry()
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"title\":\"{}\",\"description\":\"{}\",\"headline\":\"{}\"}}",
                report::json_escape(s.name),
                report::json_escape(s.title),
                report::json_escape(s.description),
                report::json_escape(s.headline)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"scenarios\":[{entries}]}}\n")
}

/// Parses the arguments of `list`: no flags for the table, or
/// `--format table|json`.
fn parse_list_format(args: &[String]) -> Result<Format, String> {
    let mut format = Format::Table;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--format requires a value"))?;
                format = match v.as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    other => {
                        return Err(usage_err(format!(
                            "list --format {other:?}: expected table or json"
                        )))
                    }
                };
            }
            other => return Err(usage_err(format!("list: unexpected argument {other:?}"))),
        }
    }
    Ok(format)
}

/// Full CLI entry point; returns the process exit code.
pub fn main_from_args(args: Vec<String>) -> i32 {
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return 2;
    };
    match command.as_str() {
        "list" => match parse_list_format(&args[1..]) {
            Ok(Format::Json) => {
                print!("{}", render_list_json());
                0
            }
            Ok(_) => {
                print!("{}", render_list());
                0
            }
            Err(e) => {
                eprintln!("ddio-bench: {e}");
                2
            }
        },
        "run" => {
            let cmd = match parse_run(&args[1..], |var| std::env::var(var).ok()) {
                Ok(cmd) => cmd,
                Err(e) => {
                    eprintln!("ddio-bench: {e}");
                    return 2;
                }
            };
            let rendered = match execute_run(&cmd) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ddio-bench: {e}");
                    return 1;
                }
            };
            match &cmd.out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, rendered) {
                        eprintln!("ddio-bench: cannot write {path:?}: {e}");
                        return 1;
                    }
                }
                None => {
                    let mut stdout = std::io::stdout().lock();
                    if stdout.write_all(rendered.as_bytes()).is_err() {
                        return 1;
                    }
                }
            }
            0
        }
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            0
        }
        other => {
            eprintln!("ddio-bench: unknown command {other:?}\n\n{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// A smoke-scale environment: 1 MiB file, one trial.
    fn smoke_env(var: &str) -> Option<String> {
        match var {
            "DDIO_FILE_MB" => Some("1".to_owned()),
            "DDIO_TRIALS" => Some("1".to_owned()),
            "DDIO_SMALL_RECORDS" => Some("0".to_owned()),
            _ => None,
        }
    }

    #[test]
    fn parse_run_resolves_all_and_flags() {
        let cmd = parse_run(
            &args(&["all", "--jobs", "3", "--format", "csv", "--seed", "9"]),
            smoke_env,
        )
        .unwrap();
        assert_eq!(cmd.scenarios.len(), scenario::registry().len());
        assert_eq!(cmd.jobs, 3);
        assert_eq!(cmd.format, Format::Csv);
        assert_eq!(cmd.scale.seed, 9);
        assert_eq!(cmd.scale.file_mib, 1, "env knob not picked up");
    }

    #[test]
    fn parse_run_rejects_unknowns() {
        assert!(parse_run(&args(&["no-such"]), smoke_env)
            .unwrap_err()
            .contains("unknown scenario"));
        assert!(parse_run(&args(&["fig5", "--bogus"]), smoke_env)
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_run(&args(&["fig5", "--jobs", "0"]), smoke_env)
            .unwrap_err()
            .contains("--jobs"));
        assert!(parse_run(&args(&[]), smoke_env)
            .unwrap_err()
            .contains("name one or more"));
    }

    #[test]
    fn flags_shadow_invalid_environment_knobs() {
        let broken_env = |var: &str| match var {
            "DDIO_TRIALS" => Some("0".to_owned()),
            other => smoke_env(other),
        };
        // Without the flag, the stale env value is rejected...
        let err = parse_run(&args(&["fig5"]), broken_env).unwrap_err();
        assert!(err.contains("DDIO_TRIALS"), "{err}");
        // ...but an explicit --trials makes the env value irrelevant.
        let cmd = parse_run(&args(&["fig5", "--trials", "3"]), broken_env).unwrap();
        assert_eq!(cmd.scale.trials, 3);
    }

    /// One filtered sweep per row: (arguments, labels that must stay,
    /// labels that must be gone). Together the rows exercise every axis.
    const AXIS_RUNS: [(&str, &[&str], &[&str]); 5] = [
        (
            "sched-sweep --sched fcfs,presort",
            &["DDIO(sort)", "DDIO"],
            &["cscan"],
        ),
        (
            "cache-sweep --cache mru,default",
            // The cacheless DDIO baseline survives the filter.
            &["TC[mru+one+onfull]", "TC", "DDIO(sort)"],
            &["clock"],
        ),
        (
            "net-sweep --topology torus,crossbar --net link",
            &["topology=torus net=link", "topology=crossbar net=link"],
            &["topology=mesh", "net=ni-only"],
        ),
        (
            "fault-sweep --faults none,failure --redundancy none,mirror",
            &[
                "faults=failure redundancy=mirror",
                "faults=none redundancy=none",
            ],
            &["faults=transient", "redundancy=parity"],
        ),
        (
            "serve-sweep --arrival poisson --qos fifo,weighted",
            &["arrival=poisson qos=fifo", "qos=weighted"],
            &["arrival=bursty", "qos=fair-share"],
        ),
    ];

    /// Runs row `row` of [`AXIS_RUNS`] and checks what it kept and dropped.
    fn check_axis_run(row: usize, filters: usize) {
        let (run, kept, dropped) = AXIS_RUNS[row];
        let argv: Vec<&str> = run.split(' ').chain(["--jobs", "2"]).collect();
        let cmd = parse_run(&args(&argv), smoke_env).unwrap();
        assert_eq!(cmd.filters.len(), filters, "{run:?}");
        let out = execute_run(&cmd).unwrap();
        for label in kept {
            assert!(out.contains(label), "{run:?} lost {label}:\n{out}");
        }
        for label in dropped {
            assert!(!out.contains(label), "{run:?} still ran {label}:\n{out}");
        }
    }

    #[test]
    fn sched_flag_filters_the_sweep() {
        check_axis_run(0, 1);
        let err = parse_run(&args(&["sched-sweep", "--sched", "elevator"]), smoke_env).unwrap_err();
        assert!(err.contains("unknown scheduling policy"), "{err}");
    }

    #[test]
    fn cache_flag_filters_the_sweep() {
        check_axis_run(1, 1);
        let err = parse_run(&args(&["cache-sweep", "--cache", "arc"]), smoke_env).unwrap_err();
        assert!(err.contains("unknown cache policy"), "{err}");
    }

    #[test]
    fn topology_and_net_flags_filter_the_fabric_sweep() {
        check_axis_run(2, 2);
        let err = parse_run(&args(&["net-sweep", "--topology", "ring"]), smoke_env).unwrap_err();
        assert!(err.contains("unknown topology"), "{err}");
        let err = parse_run(&args(&["net-sweep", "--net", "flit"]), smoke_env).unwrap_err();
        assert!(err.contains("unknown contention model"), "{err}");
    }

    #[test]
    fn fault_flags_filter_the_sweep() {
        check_axis_run(3, 2);
        let err = parse_run(&args(&["fault-sweep", "--faults", "meteor"]), smoke_env).unwrap_err();
        assert!(err.contains("unknown fault policy"), "{err}");
        let err =
            parse_run(&args(&["fault-sweep", "--redundancy", "raid9"]), smoke_env).unwrap_err();
        assert!(err.contains("unknown redundancy policy"), "{err}");
    }

    #[test]
    fn arrival_and_qos_flags_filter_the_serving_sweep() {
        check_axis_run(4, 2);
        let err =
            parse_run(&args(&["serve-sweep", "--arrival", "drizzle"]), smoke_env).unwrap_err();
        assert!(err.contains("unknown arrival process"), "{err}");
        let err = parse_run(&args(&["serve-sweep", "--qos", "anarchy"]), smoke_env).unwrap_err();
        assert!(err.contains("unknown QoS policy"), "{err}");
    }

    #[test]
    fn axis_flags_filter_their_sweeps() {
        // Every axis is exercised by a row of AXIS_RUNS, and each rejects an
        // unknown value before anything runs, naming the flag and every
        // accepted value.
        for axis in &AXES {
            assert!(
                AXIS_RUNS
                    .iter()
                    .any(|(run, _, _)| run.split(' ').any(|a| a == axis.flag)),
                "{} is never exercised",
                axis.flag
            );
            let err = parse_run(&args(&["all", axis.flag, "bogus"]), smoke_env).unwrap_err();
            let unknown = match axis.flag {
                "--cache" => "unknown cache policy".to_owned(),
                _ => format!("unknown {}", axis.noun),
            };
            assert!(
                err.starts_with(&format!("{}: {unknown}", axis.flag)),
                "{err}"
            );
            assert!(err.contains(&(axis.expected)()), "{err}");
        }
    }

    #[test]
    fn a_filter_narrows_every_scenario_that_varies_its_axis() {
        use ddio_core::Method;
        let cmd = parse_run(&args(&["fig3", "--sched", "presort"]), smoke_env).unwrap();
        let cells = scenario_cells(&cmd, &cmd.scale.sweep_params());
        assert!(!cells[0].is_empty());
        assert!(cells[0].iter().all(|c| c.method == Method::DDIO_SORTED));
        let out = execute_run(&cmd).unwrap();
        assert!(out.contains("Figure 3b"), "{out}");
        let header = out.lines().find(|l| l.starts_with("pattern")).unwrap();
        let columns: Vec<&str> = header.split_whitespace().collect();
        assert_eq!(columns, ["pattern", "DDIO(sort)", "max", "cv"]);

        // Scenarios fixed on the axis (or with no cells at all) run whole.
        let whole = parse_run(&args(&["table1", "fig4"]), smoke_env).unwrap();
        let mesh = parse_run(&args(&["table1", "fig4", "--topology", "mesh"]), smoke_env).unwrap();
        let count = |cmd: &RunCommand| -> Vec<usize> {
            scenario_cells(cmd, &cmd.scale.sweep_params())
                .iter()
                .map(Vec::len)
                .collect()
        };
        assert_eq!(count(&mesh), count(&whole));
        assert!(count(&whole)[1] > 0);
    }

    #[test]
    fn help_lists_every_axis_with_its_values() {
        let help = usage();
        for axis in &AXES {
            assert!(help.contains(&format!("{} LIST", axis.flag)), "{help}");
            assert!(help.contains(&(axis.expected)()), "{help}");
            if let Some((var, _)) = axis.env {
                assert!(help.contains(var), "{help}");
            }
        }
    }

    #[test]
    fn a_repeated_axis_flag_keeps_its_last_value() {
        let cmd = parse_run(
            &args(&["fig3", "--sched", "fcfs", "--sched", "presort"]),
            smoke_env,
        )
        .unwrap();
        assert_eq!(cmd.filters.len(), 1);
        let cells = scenario_cells(&cmd, &cmd.scale.sweep_params());
        assert!(!cells[0].is_empty());
        assert!(cells[0]
            .iter()
            .all(|c| c.method.sched() == SchedPolicy::Presort));
    }

    #[test]
    fn cache_bufs_flag_resizes_the_cache() {
        let cmd = parse_run(&args(&["fig5", "--cache-bufs", "4"]), smoke_env).unwrap();
        assert_eq!(cmd.scale.cache_bufs, 4);
        assert_eq!(cmd.scale.base_config().cache.buffers_per_disk_per_cp, 4);
        assert!(parse_run(&args(&["fig5", "--cache-bufs", "0"]), smoke_env)
            .unwrap_err()
            .contains("--cache-bufs"));
    }

    #[test]
    fn list_json_is_valid_and_complete() {
        let json = render_list_json();
        assert!(
            crate::report::json_is_valid(json.trim()),
            "bad JSON:\n{json}"
        );
        for s in scenario::registry() {
            assert!(
                json.contains(&format!("\"{}\"", s.name)),
                "missing {}",
                s.name
            );
        }
        assert_eq!(parse_list_format(&args(&[])).unwrap(), Format::Table);
        assert_eq!(
            parse_list_format(&args(&["--format", "json"])).unwrap(),
            Format::Json
        );
        assert!(parse_list_format(&args(&["--format", "csv"])).is_err());
        assert!(parse_list_format(&args(&["bogus"])).is_err());
    }

    #[test]
    fn execute_run_emits_valid_json_for_multiple_scenarios() {
        let cmd = parse_run(
            &args(&["table1", "mixed-rw", "--format", "json", "--jobs", "2"]),
            smoke_env,
        )
        .unwrap();
        let out = execute_run(&cmd).unwrap();
        assert!(crate::report::json_is_valid(out.trim()), "bad JSON:\n{out}");
        assert!(out.contains("\"table1\""));
        assert!(out.contains("\"mixed-rw\""));
    }

    #[test]
    fn perf_flag_adds_cell_and_run_totals() {
        let cmd = parse_run(
            &args(&["mixed-rw", "--perf", "--format", "json", "--jobs", "2"]),
            smoke_env,
        )
        .unwrap();
        assert!(cmd.perf);
        let out = execute_run(&cmd).unwrap();
        assert!(crate::report::json_is_valid(out.trim()), "bad JSON:\n{out}");
        for landmark in [
            "\"perf\"",
            "\"sim_events\"",
            "\"wall_s\"",
            "\"build_wall_secs\"",
            "\"run_wall_secs\"",
            "\"events_per_sec\"",
        ] {
            assert!(out.contains(landmark), "missing {landmark}:\n{out}");
        }

        // CSV gets the same per-cell columns.
        let cmd = parse_run(&args(&["mixed-rw", "--perf", "--format", "csv"]), smoke_env).unwrap();
        let out = execute_run(&cmd).unwrap();
        for column in ["sim_events", "build_wall_secs", "run_wall_secs"] {
            assert!(out.contains(column), "missing CSV column {column}:\n{out}");
        }

        // The table format gets a human-readable footer...
        let cmd = parse_run(&args(&["mixed-rw", "--perf"]), smoke_env).unwrap();
        let out = execute_run(&cmd).unwrap();
        assert!(out.contains("events/sec"), "no perf footer:\n{out}");

        // ...and without the flag nothing perf-related leaks into the
        // golden-bearing formats: wall-clock fields are non-deterministic,
        // so any leak would break run-to-run bit-identity.
        for format in ["json", "csv"] {
            let cmd = parse_run(&args(&["mixed-rw", "--format", format]), smoke_env).unwrap();
            let out = execute_run(&cmd).unwrap();
            assert!(!out.contains("perf"), "perf leaked into {format}");
            assert!(
                !out.contains("wall_secs") && !out.contains("wall_s"),
                "wall-clock leaked into {format} without --perf"
            );
        }
    }

    #[test]
    fn execute_run_table_splits_results_per_scenario() {
        let cmd = parse_run(&args(&["mixed-rw", "degraded-disk"]), smoke_env).unwrap();
        let out = execute_run(&cmd).unwrap();
        assert!(out.contains("Mixed read/write phases"));
        assert!(out.contains("Degraded disks"));
    }

    #[test]
    fn list_names_every_scenario() {
        let listing = render_list();
        for s in scenario::registry() {
            assert!(listing.contains(s.name), "missing {}", s.name);
            assert!(
                listing.contains(s.description),
                "missing description of {}",
                s.name
            );
            assert!(
                listing.contains(s.headline),
                "missing headline of {}",
                s.name
            );
        }
        let json = render_list_json();
        for s in scenario::registry() {
            assert!(
                json.contains(&format!(
                    "\"headline\":\"{}\"",
                    report::json_escape(s.headline)
                )),
                "JSON listing missing headline of {}",
                s.name
            );
        }
    }

    /// The README's scenario catalog is generated from the registry; this
    /// test is the generator's contract. If it fails, re-derive the table
    /// from `ddio-bench list` — never hand-edit one side only.
    #[test]
    fn readme_catalog_matches_the_registry() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the workspace root");
        for s in scenario::registry() {
            let row = format!("| `{}` | {} | {} |", s.name, s.description, s.headline);
            assert!(
                readme.contains(&row),
                "README catalog row for {:?} is missing or stale; expected:\n{row}",
                s.name
            );
        }
        // The catalog has no rows for unregistered scenarios.
        let catalog = readme
            .split("### Scenario catalog")
            .nth(1)
            .expect("README has a '### Scenario catalog' section")
            .split("\n## ")
            .next()
            .expect("section text");
        let catalog_rows = catalog.lines().filter(|l| l.starts_with("| `")).count();
        assert_eq!(
            catalog_rows,
            scenario::registry().len(),
            "README catalog has rows the registry does not"
        );
    }
}
