//! The correctness check. Every closed-loop cell is run once more with
//! data-placement verification on; it must place every byte exactly once,
//! lose no block, and reproduce the timed pass's simulated outputs bit for
//! bit. Every serving cell must complete its whole schedule, with the latency
//! histogram counting each completed request once.

use ddio_core::experiment::run_data_point;
use ddio_core::experiment::scenario::Cell;

use crate::digest::fingerprint;
use crate::metrics::Row;

/// The check's result for one sweep's worth of operations.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations in one sweep: one per transfer, one per scheduled request.
    pub operations: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// One line per failed cell.
    pub problems: Vec<String>,
}

fn describe(cell: &Cell) -> String {
    let axes: Vec<String> = cell
        .axes
        .iter()
        .map(|a| format!("{}={}", a.name, a.value))
        .collect();
    format!(
        "{} {} {} [{}]",
        cell.scenario,
        cell.pattern.name(),
        cell.method.label(),
        axes.join(",")
    )
}

/// Checks every cell of a timed sweep, given as `rows`.
pub fn check(rows: &[Row]) -> Verdict {
    let mut v = Verdict::default();
    for row in rows {
        let cell = row.cell;
        let o = row.outcome;
        if cell.config.serve.is_open_loop() {
            let scheduled = row.scheduled();
            let served = row.served();
            v.operations += scheduled;
            if served != scheduled || o.serve.requests != served {
                v.failed += scheduled.saturating_sub(served).max(1);
                v.problems.push(format!(
                    "{}: served {served} of {scheduled} requests, histogram counted {}",
                    describe(cell),
                    o.serve.requests
                ));
            }
            continue;
        }
        v.operations += 1;
        let mut config = cell.config.clone();
        config.verify = true;
        let checked = run_data_point(
            &config,
            cell.method,
            cell.pattern,
            cell.record_bytes,
            1,
            cell.seed,
        )
        .last_outcome;
        let placement = checked.verify.as_ref().map_or_else(
            || "no verification report".to_owned(),
            |r| {
                if r.complete {
                    String::new()
                } else {
                    r.detail.clone()
                }
            },
        );
        let problem = if !placement.is_empty() {
            placement
        } else if o.fault_stats.lost_blocks > 0 {
            format!("{} blocks lost", o.fault_stats.lost_blocks)
        } else if fingerprint(&checked) != fingerprint(o) {
            "simulated outputs differ between the timed and the checking pass".to_owned()
        } else {
            continue;
        };
        v.failed += 1;
        v.problems.push(format!("{}: {problem}", describe(cell)));
    }
    v
}
