//! Integration tests of the open-loop serving subsystem end to end: the
//! `serve-sweep` scenario is jobs-invariant (throughput *and* tail
//! latencies), every open-loop cell serves its full request schedule with
//! ordered percentiles and per-tenant accounting, the headline claim
//! (disk-directed batching keeps admission queueing far below TC's) holds
//! across every matched composition, and the default-composition and
//! headline cells, plus serving through a drive failure under each redundant
//! layout, are pinned bit-exactly.
//!
//! Snapshot scale: 1 MiB file, one trial, seed 1994 — the same reduced scale
//! as `tests/golden_figures.rs` and the CI smoke runs.

use disk_directed_io::core::experiment::scenario::{find, run_scenario, CellResult, SweepParams};
use disk_directed_io::{LatencyHistogram, MachineConfig, ServeStats};

fn sweep_params() -> SweepParams {
    SweepParams {
        base: MachineConfig {
            file_bytes: 1024 * 1024,
            ..MachineConfig::default()
        },
        trials: 1,
        seed: 1994,
        small_records: false,
    }
}

fn run_sweep(jobs: usize) -> Vec<CellResult> {
    let scenario = find("serve-sweep").expect("registered scenario");
    run_scenario(&scenario, &sweep_params(), jobs)
}

/// The parallel sweep, computed once and shared by every read-only test
/// (the jobs-invariance test proves any jobs count gives these exact
/// results, so re-simulating per test would only burn time).
fn sweep_results() -> &'static [CellResult] {
    static RESULTS: std::sync::OnceLock<Vec<CellResult>> = std::sync::OnceLock::new();
    RESULTS.get_or_init(|| run_sweep(8))
}

/// `name=value;...` — the same packing the CSV renderer uses, so test
/// failures print coordinates a reader can cross-reference.
fn axes_key(r: &CellResult) -> String {
    r.axes
        .iter()
        .map(|a| format!("{}={}", a.name, a.value))
        .collect::<Vec<_>>()
        .join(";")
}

fn cell<'a>(results: &'a [CellResult], label: &str, axes: &str) -> &'a CellResult {
    results
        .iter()
        .find(|r| r.point.method.label() == label && axes_key(r) == axes)
        .unwrap_or_else(|| panic!("no cell for {label} {axes}"))
}

fn stats_of(label: &str, axes: &str) -> (f64, &'static ServeStats) {
    let c = cell(sweep_results(), label, axes);
    (c.point.mean(), &c.point.last_outcome.serve)
}

#[test]
fn serve_sweep_is_jobs_invariant() {
    let serial = run_sweep(1);
    let parallel = sweep_results();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.point.method, p.point.method);
        assert_eq!(axes_key(s), axes_key(p));
        let bits = |r: &CellResult| -> Vec<u64> {
            let serve = &r.point.last_outcome.serve;
            let mut v: Vec<u64> = r.point.trials.iter().map(|t| t.to_bits()).collect();
            v.extend([
                serve.p50_ms.to_bits(),
                serve.p99_ms.to_bits(),
                serve.p999_ms.to_bits(),
                serve.mean_ms.to_bits(),
                serve.max_ms.to_bits(),
                serve.mean_queue_ms.to_bits(),
            ]);
            v.push(serve.requests);
            v.extend(serve.per_tenant.iter().map(|t| t.mibs.to_bits()));
            v
        };
        assert_eq!(
            bits(s),
            bits(p),
            "--jobs 1 and --jobs 8 diverged at {} {}",
            s.point.method.label(),
            axes_key(s)
        );
    }
}

/// Every open-loop cell completes its entire arrival schedule — serving is
/// lossless under every arrival process x QoS policy x load composition —
/// with ordered percentiles and per-tenant counters that sum to the totals.
#[test]
fn every_cell_serves_the_full_schedule_with_ordered_percentiles() {
    let results = sweep_results();
    assert_eq!(results.len(), 2 * 2 * 4 * 3);
    for r in results {
        let serve = &r.point.last_outcome.serve;
        let key = format!("{} {}", r.point.method.label(), axes_key(r));
        // The default ServeParams: 4 tenants x 64 requests of one block.
        assert_eq!(serve.requests, 4 * 64, "{key}: dropped requests");
        assert_eq!(serve.served_bytes, 4 * 64 * 8192, "{key}: short reads");
        // Percentiles come from log-bucket representatives (midpoints), so
        // the tail may overshoot the exactly-tracked max by one bucket's
        // relative error — never undershoot order.
        assert!(
            serve.p50_ms <= serve.p99_ms
                && serve.p99_ms <= serve.p999_ms
                && serve.p999_ms <= serve.max_ms * (1.0 + LatencyHistogram::RELATIVE_ERROR),
            "{key}: percentiles out of order"
        );
        assert!(serve.p50_ms > 0.0, "{key}: zero median latency");
        assert!(serve.mean_queue_ms > 0.0, "{key}: queueing cost vanished");
        assert_eq!(serve.per_tenant.len(), 4, "{key}: missing tenants");
        let req_sum: u64 = serve.per_tenant.iter().map(|t| t.requests).sum();
        let byte_sum: u64 = serve.per_tenant.iter().map(|t| t.bytes).sum();
        assert_eq!(req_sum, serve.requests, "{key}: tenant requests drifted");
        assert_eq!(byte_sum, serve.served_bytes, "{key}: tenant bytes drifted");
        for t in &serve.per_tenant {
            assert!(t.requests > 0, "{key}: tenant {} starved", t.tenant);
            assert!(t.mibs > 0.0, "{key}: tenant {} throughput lost", t.tenant);
        }
    }
}

/// The registry headline: disk-directed serving batches each admission
/// window into one collective request per IOP group, so its admission
/// queueing delay sits far below traditional caching's per-request path at
/// every matched composition.
#[test]
fn ddio_batching_beats_tc_queueing_at_every_composition() {
    let results = sweep_results();
    for r in results {
        if r.point.method.label() != "TC" {
            continue;
        }
        let axes = axes_key(r);
        let tc = &r.point.last_outcome.serve;
        let (_, ddio) = stats_of("DDIO(sort)", &axes);
        assert!(
            tc.mean_queue_ms > 5.0 * ddio.mean_queue_ms,
            "{axes}: TC queueing {} ms vs DDIO {} ms — headline inverted",
            tc.mean_queue_ms,
            ddio.mean_queue_ms
        );
    }
}

/// Pinned snapshot of the sweep's default-composition and headline cells at
/// the reduced scale. These are bit-exact goldens: re-pin them only when a
/// deliberate model change moves the numbers, never to quiet a surprise
/// diff.
#[test]
fn golden_serve_snapshot() {
    // (method, axes, mean MiB/s, p999 ms, mean queue-wait ms)
    let golden: [(&str, &str, f64, f64, f64); 4] = [
        (
            "TC",
            "arrival=poisson;qos=fifo;load=1000",
            3.2770900943491115,
            562.036736,
            173.09001352734376,
        ),
        (
            "DDIO(sort)",
            "arrival=poisson;qos=fifo;load=1000",
            3.069735838287507,
            595.591168,
            10.1105214609375,
        ),
        (
            "TC",
            "arrival=bursty;qos=fair-share;load=1500",
            3.3432503108608467,
            578.813952,
            200.68719097265625,
        ),
        (
            "DDIO(sort)",
            "arrival=bursty;qos=fair-share;load=1500",
            3.3667163799374045,
            545.25952,
            12.99826058984375,
        ),
    ];
    for (label, axes, mean, p999, queue) in golden {
        let (got_mean, serve) = stats_of(label, axes);
        for (what, got, expected) in [
            ("mean MiB/s", got_mean, mean),
            ("p999 ms", serve.p999_ms, p999),
            ("mean queue ms", serve.mean_queue_ms, queue),
        ] {
            assert!(
                got.to_bits() == expected.to_bits(),
                "{label} {axes} {what}: got {got} (bits {:#018x}), golden {expected}",
                got.to_bits()
            );
        }
    }
}

/// Open-loop serving under a dying drive: every request still completes,
/// reads of the dead drive's blocks are rebuilt from the mirror copy or the
/// parity group (each rebuilt block crossing the fabric from the IOP holding
/// its sources), and nothing is lost. Pinned bit-exactly at the reduced
/// scale, so any change to the request, reply or reconstruction hops that
/// moves a serving figure under faults shows up here.
#[test]
fn golden_serving_under_drive_failure() {
    use disk_directed_io::{run_transfer, AccessPattern, FaultPolicy, Method, RedundancyPolicy};
    use disk_directed_io::{ArrivalProcess, QosPolicy, ServeParams};

    // (redundancy, method, mean ms, p999 ms, mean queue ms,
    //  reconstruction reads, lost blocks)
    let golden: [(RedundancyPolicy, Method, f64, f64, f64, u64, u64); 4] = [
        (
            RedundancyPolicy::Mirrored,
            Method::TC,
            285.506035453125,
            947.912704,
            198.31935963671876,
            23,
            0,
        ),
        (
            RedundancyPolicy::Mirrored,
            Method::DDIO_SORTED,
            245.61782583984376,
            998.244352,
            16.31701288671875,
            23,
            0,
        ),
        (
            RedundancyPolicy::Parity,
            Method::TC,
            381.78764472265624,
            1291.845632,
            256.41314289453123,
            345,
            0,
        ),
        (
            RedundancyPolicy::Parity,
            Method::DDIO_SORTED,
            275.7821196132812,
            1015.021568,
            18.20642307421875,
            345,
            0,
        ),
    ];
    let pattern = AccessPattern::parse("rb").expect("known pattern");
    for (redundancy, method, mean, p999, queue, rebuilt, lost) in golden {
        let config = MachineConfig {
            file_bytes: 1024 * 1024,
            faults: FaultPolicy::Failure,
            redundancy,
            serve: ServeParams {
                arrival: ArrivalProcess::Poisson,
                qos: QosPolicy::Fifo,
                offered_load: 1.0,
                ..ServeParams::default()
            },
            ..MachineConfig::default()
        };
        let out = run_transfer(&config, method, pattern, config.block_bytes, 1994);
        let key = format!("{} {}", redundancy.name(), method.label());
        let serve = &out.serve;
        assert_eq!(serve.requests, 4 * 64, "{key}: dropped requests");
        for (what, got, expected) in [
            ("mean ms", serve.mean_ms, mean),
            ("p999 ms", serve.p999_ms, p999),
            ("mean queue ms", serve.mean_queue_ms, queue),
        ] {
            assert!(
                got.to_bits() == expected.to_bits(),
                "{key} {what}: got {got} (bits {:#018x}), golden {expected}",
                got.to_bits()
            );
        }
        assert_eq!(
            out.fault_stats.reconstruction_reads, rebuilt,
            "{key}: rebuilt reads"
        );
        assert_eq!(out.fault_stats.lost_blocks, lost, "{key}: lost blocks");
    }
}
