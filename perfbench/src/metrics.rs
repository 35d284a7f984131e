//! Metrics computed from a sweep's deterministic simulated outputs: the
//! simulated end-to-end figures, the serve-open latency figures and the
//! per-layer model counters. Host times are measured by the caller.

use ddio_core::experiment::scenario::{Cell, CellResult};
use ddio_core::{ServeConfig, TransferOutcome};
use ddio_sim::SimRng;

use crate::sweep::SERVE_STREAM;

use crate::workload::{offered_load, LOAD_LADDER, P99_LIMIT_MS, P99_LOAD};

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit (`s`, `MiB/s`, `count`, ...).
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The two method classes every model metric is split by: traditional
/// caching, and disk-directed I/O (plain and sorted).
pub const CLASSES: [&str; 2] = ["tc", "ddio"];

/// A cell's inputs beside its simulated outcome.
pub struct Row<'a> {
    /// The generated inputs.
    pub cell: &'a Cell,
    /// The simulated outputs.
    pub outcome: &'a TransferOutcome,
}

impl Row<'_> {
    fn class(&self) -> &'static str {
        if self.cell.method.is_disk_directed() {
            "ddio"
        } else {
            "tc"
        }
    }

    /// Requests in the cell's serving schedule, derived exactly as the
    /// machine build derives it (0 when closed loop).
    pub fn scheduled(&self) -> u64 {
        let config = &self.cell.config;
        let rng = SimRng::seed_from_u64(self.cell.seed).derive(SERVE_STREAM);
        ServeConfig::derive(&config.serve, config, &rng)
            .requests
            .len() as u64
    }

    /// Requests the cell completed, by the per-tenant counters.
    pub fn served(&self) -> u64 {
        self.outcome
            .serve
            .per_tenant
            .iter()
            .map(|t| t.requests)
            .sum()
    }
}

/// Pairs generated cells with their results.
pub fn rows<'a>(cells: &'a [Cell], results: &'a [CellResult]) -> Vec<Row<'a>> {
    assert_eq!(cells.len(), results.len(), "one result per cell");
    cells
        .iter()
        .zip(results)
        .map(|(cell, r)| Row {
            cell,
            outcome: &r.point.last_outcome,
        })
        .collect()
}

/// Geometric mean of positive values; 0 when empty or when any value is not
/// positive (a zero throughput means a cell lost data).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        if !(v > 0.0 && v.is_finite()) {
            return 0.0;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum of floats; unlike `Iterator::sum`, an empty sum is +0.0, not -0.0.
fn total(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |a, b| a + b)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    ratio(sum, n as f64)
}

fn of_class<'r, 'a>(rows: &'r [Row<'a>], class: &'r str) -> impl Iterator<Item = &'r Row<'a>> {
    rows.iter().filter(move |r| r.class() == class)
}

/// Simulated throughput (paper definition: file or served bytes over
/// simulated elapsed time), geometric mean over each class's cells.
pub fn sim_throughput(rows: &[Row]) -> Vec<Metric> {
    CLASSES
        .iter()
        .map(|class| {
            let v = geomean(of_class(rows, class).map(|r| r.outcome.throughput_mibs));
            Metric::new(format!("sim_mibs_{class}"), "MiB/s", v)
        })
        .collect()
}

/// Geometric mean of `f` over a class's serving cells at `load`.
fn at_load(rows: &[Row], class: &str, load: f64, f: impl Fn(&Row) -> f64) -> f64 {
    geomean(
        of_class(rows, class)
            .filter(|r| offered_load(&r.cell.config) == Some(load))
            .map(f),
    )
}

/// The highest ladder load up to which every arrival × QoS composition of
/// `class` meets the p99 limit and serves every request; 0 when the lowest
/// load already misses.
fn max_load(rows: &[Row], class: &str) -> f64 {
    let mut best = 0.0;
    for load in LOAD_LADDER {
        let mut cells = of_class(rows, class)
            .filter(|r| offered_load(&r.cell.config) == Some(load))
            .peekable();
        if cells.peek().is_none() {
            return 0.0;
        }
        if !cells.all(|r| r.outcome.serve.p99_ms <= P99_LIMIT_MS && r.served() == r.scheduled()) {
            break;
        }
        best = load;
    }
    best
}

/// The serve-open figures: p99 at the top of the ladder and the highest
/// load meeting the p99 limit, per class (all 0 on closed-loop workloads).
pub fn serve_latency(rows: &[Row]) -> Vec<Metric> {
    let mut out = Vec::new();
    for class in CLASSES {
        out.push(Metric::new(
            format!("sim_p99_ms_{class}"),
            "ms",
            at_load(rows, class, P99_LOAD, |r| r.outcome.serve.p99_ms),
        ));
    }
    for class in CLASSES {
        out.push(Metric::new(
            format!("sim_max_load_{class}"),
            "load",
            max_load(rows, class),
        ));
    }
    out
}

/// Per-layer counters of the simulated machine, each suffixed by class.
/// Every ratio is given beside its base.
pub fn model_layers(rows: &[Row]) -> Vec<Metric> {
    let mut out = Vec::new();
    for class in CLASSES {
        let cells: Vec<&Row> = of_class(rows, class).collect();
        let mut m = |name: &str, unit: &'static str, value: f64| {
            out.push(Metric::new(format!("{name}.{class}"), unit, value));
        };
        let outs = || cells.iter().map(|r| r.outcome);
        let disks = || outs().flat_map(|o| o.disk_stats.iter());
        let sum_u = |f: fn(&TransferOutcome) -> u64| outs().map(f).sum::<u64>() as f64;

        m("sim.events", "count", sum_u(|o| o.sim_events));

        let requests = disks().map(|d| d.requests).sum::<u64>() as f64;
        let secs = |f: fn(&ddio_disk::DiskStats) -> f64| total(disks().map(f));
        let busy = secs(|d| d.busy_time.as_secs_f64());
        let seek = secs(|d| d.seek_time.as_secs_f64());
        let rotation = secs(|d| d.rotation_time.as_secs_f64());
        m("disk.requests", "count", requests);
        m("disk.busy_s", "sim_s", busy);
        m("disk.seek_s", "sim_s", seek);
        m("disk.rotation_s", "sim_s", rotation);
        m(
            "disk.transfer_s",
            "sim_s",
            secs(|d| d.transfer_time.as_secs_f64()),
        );
        m(
            "disk.positioning_share",
            "ratio",
            ratio(seek + rotation, busy),
        );
        m(
            "disk.util_mean",
            "ratio",
            mean(outs().map(|o| o.mean_disk_utilization())),
        );
        m(
            "disk.queue_depth_mean",
            "count",
            ratio(
                disks().map(|d| d.queue_depth_sum).sum::<u64>() as f64,
                requests,
            ),
        );
        m(
            "disk.sequential_ratio",
            "ratio",
            ratio(
                disks().map(|d| d.sequential_hits).sum::<u64>() as f64,
                requests,
            ),
        );
        m(
            "bus.util_mean",
            "ratio",
            mean(outs().flat_map(|o| o.bus_utilization.iter().copied())),
        );

        if class == "tc" {
            let mut c = ddio_core::CacheStats::default();
            for total in outs().filter_map(|o| o.cache_totals()) {
                c.accumulate(total);
            }
            let lookups = (c.hits + c.misses) as f64;
            m("cache.lookups", "count", lookups);
            m("cache.hit_ratio", "ratio", ratio(c.hits as f64, lookups));
            m("cache.prefetch_issued", "count", c.prefetches as f64);
            m(
                "cache.prefetch_used_ratio",
                "ratio",
                ratio(c.prefetch_used as f64, c.prefetches as f64),
            );
            m("cache.evictions", "count", c.evictions as f64);
            m("cache.dirty_evictions", "count", c.dirty_evictions as f64);
            m("cache.flushes", "count", c.flushes as f64);
            m("cache.overflows", "count", c.overflows as f64);
        }

        m("net.messages", "count", sum_u(|o| o.messages));
        m("net.bytes", "count", sum_u(|o| o.network_bytes));
        m(
            "net.link_busy_s",
            "sim_s",
            total(outs().map(|o| o.link_busy_total_secs())),
        );
        m(
            "net.ni_recv_util_max",
            "ratio",
            outs()
                .map(|o| o.max_ni_recv_utilization())
                .fold(0.0, f64::max),
        );

        m(
            "fault.events_fired",
            "count",
            sum_u(|o| o.fault_stats.events_fired),
        );
        m(
            "fault.reconstruction_reads",
            "count",
            sum_u(|o| o.fault_stats.reconstruction_reads),
        );
        m(
            "fault.degraded_s",
            "sim_s",
            total(outs().map(|o| o.fault_stats.degraded_secs)),
        );
        m(
            "fault.lost_blocks",
            "count",
            sum_u(|o| o.fault_stats.lost_blocks),
        );

        m(
            "serve.requests",
            "count",
            cells.iter().map(|r| r.scheduled()).sum::<u64>() as f64,
        );
        m("serve.served", "count", sum_u(|o| o.serve.requests));
        let top = |f: fn(&Row) -> f64| at_load(rows, class, P99_LOAD, f);
        m(
            "serve.queue_ms_mean",
            "sim_ms",
            top(|r| r.outcome.serve.mean_queue_ms),
        );
        m("serve.p50_ms", "sim_ms", top(|r| r.outcome.serve.p50_ms));
        m("serve.p999_ms", "sim_ms", top(|r| r.outcome.serve.p999_ms));
    }
    out
}
