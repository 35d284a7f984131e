//! Self-tests of the benchmark. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (each test runs whole sweeps, which are slow without optimisation).

use std::collections::{BTreeMap, BTreeSet};

use super::*;

fn cells_text(w: Workload, seed: u64) -> String {
    format!("{:?}", workload::cells(w, seed))
}

fn digest_of(w: Workload, seed: u64, tracer: Option<&mut Tracer>) -> u64 {
    digest::combine(&fingerprints(&sweep::run(w, seed, tracer, None).results))
}

#[test]
fn same_seed_gives_identical_cells_and_digest_traced_or_not() {
    for w in Workload::ALL {
        assert_eq!(cells_text(w, 7), cells_text(w, 7), "{}", w.name());
        let plain = digest_of(w, 7, None);
        assert_eq!(plain, digest_of(w, 7, None), "{}: rerun", w.name());
        let mut tracer = Tracer::default();
        assert_eq!(
            plain,
            digest_of(w, 7, Some(&mut tracer)),
            "{}: traced",
            w.name()
        );
        let names: BTreeSet<&str> = (0..tracer.len()).map(|i| tracer.span(i).name).collect();
        for (span, _) in HOST_LAYERS {
            assert!(names.contains(span), "{}: no {span} span", w.name());
        }
    }
}

#[test]
fn the_yardstick_runs_once_per_stage_and_leaves_outputs_alone() {
    let w = Workload::FaultRedundant;
    let mut yardstick = Yardstick::default();
    let s = sweep::run(w, 7, None, Some(&mut yardstick));
    assert_eq!(s.yardstick.chunks as usize, workload::cells(w, 7).len() + 2);
    assert!(s.yardstick.cpu_s > 0.0 && s.cpu_s > 0.0);
    assert_eq!(yardstick.chunks, 0, "the sweep takes its chunks");
    assert_eq!(
        digest::combine(&fingerprints(&s.results)),
        digest_of(w, 7, None)
    );
}

#[test]
fn a_different_seed_gives_different_inputs() {
    for w in Workload::ALL {
        let a = workload::cells(w, 7);
        let b = workload::cells(w, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.seed, y.seed, "{}: a cell kept its seed", w.name());
        }
    }
    let w = Workload::FaultRedundant;
    assert_ne!(digest_of(w, 7, None), digest_of(w, 8, None));
}

/// The `"name"` values of one top-level array of BENCHMARK.json.
fn benchmark_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

/// Every metric of every workload, as printed by an untraced and a traced
/// run (host times zero).
fn all_metrics() -> BTreeMap<&'static str, (Vec<Metric>, Vec<Metric>)> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let reference = Reference::new(w, 3);
            assert!(
                reference.verdict.problems.is_empty(),
                "{:?}",
                reference.verdict.problems
            );
            let host = HostTimes {
                sweep_s: 1.0,
                setup_s: 1.0,
                wall_s: 1.0,
                setup_wall_s: 1.0,
            };
            let e2e = end_to_end(w, &host, 0.0, &reference);
            let layers = per_layer(&reference, &BTreeMap::new(), 0.0);
            (w.name(), (e2e, layers))
        })
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed_and_match_benchmark_json() {
    let metrics = all_metrics();
    let e2e_names = benchmark_names("end_to_end");
    let layer_names = benchmark_names("per_layer");
    let workload_names = benchmark_names("workloads");
    assert_eq!(
        workload_names,
        Workload::ALL.iter().map(|w| w.name()).collect::<Vec<_>>()
    );
    for name in e2e_names.iter().chain(&layer_names).chain(&workload_names) {
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(well_formed(name, 64, ""), "{name}");
    }
    for (w, (e2e, layers)) in &metrics {
        for m in e2e.iter().chain(layers) {
            assert!(well_formed(&m.name, 64, ""), "{w}: {}", m.name);
            assert!(well_formed(m.unit, 16, "/%"), "{w}: {}", m.unit);
        }
        // The JSON line of an untraced run carries GATED; run.py adds
        // peak_rss_mib. Together they are BENCHMARK.json's end_to_end list.
        let mut gated: Vec<String> = GATED.iter().map(|s| s.to_string()).collect();
        gated.push("peak_rss_mib".to_owned());
        assert_eq!(
            gated.iter().collect::<BTreeSet<_>>(),
            e2e_names.iter().collect(),
            "{w}"
        );
        for g in GATED {
            assert!(e2e.iter().any(|m| m.name == g), "{w}: {g} not printed");
        }
        let printed: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            printed, layer_names,
            "{w}: traced metrics differ from BENCHMARK.json"
        );
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit_where_it_applies() {
    // The ten end-to-end metrics and the host times as measured and at
    // reference speed (peak_rss_mib comes from run.py).
    let everywhere = [
        ("sweep_s", "s"),
        ("wall_s", "s"),
        ("setup_wall_s", "s"),
        ("setup_s", "s"),
        ("fail_ratio", "ratio"),
        ("sim_mibs_tc", "MiB/s"),
        ("sim_mibs_ddio", "MiB/s"),
    ];
    let serve_only = [
        ("sim_p99_ms_tc", "ms"),
        ("sim_p99_ms_ddio", "ms"),
        ("sim_max_load_tc", "load"),
        ("sim_max_load_ddio", "load"),
    ];
    for (w, (e2e, _)) in all_metrics() {
        let printed: BTreeMap<&str, &str> = e2e.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        for (name, unit) in everywhere {
            assert_eq!(printed.get(name), Some(&unit), "{w}: {name}");
        }
        for (name, unit) in serve_only {
            let expected = (w == "serve-open").then_some(&unit);
            assert_eq!(printed.get(name), expected, "{w}: {name}");
        }
        for m in &e2e {
            if m.name != "fail_ratio" {
                assert!(m.value > 0.0, "{w}: {} is {}", m.name, m.value);
            }
        }
    }
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    assert!(args("--workload read-random --seed 1 --seconds 10 --trace 0").is_ok());
    assert!(args("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
    assert!(args("--workload read-random --seed x --seconds 10 --trace 0").is_err());
    assert!(args("--workload read-random --seed 1 --seconds 0 --trace 0").is_err());
    assert!(args("--workload read-random --seed 1 --seconds 10 --trace 2").is_err());
    assert!(args("--workload read-random --seconds 10 --trace 0").is_err());
    assert!(args("--workload read-random --seed 1 --seconds 10 --trace").is_err());
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}
