//! The benchmark's four workloads and the cells each one generates from the
//! seed argument. The program under test receives only these generated
//! inputs: a machine configuration, a method, a pattern, a record size and a
//! per-cell seed.

use ddio_core::experiment::scenario::{derive_seed, Axis, Cell};
use ddio_core::{
    AccessPattern, ArrivalProcess, CacheConfig, ContentionModel, FaultPolicy, LayoutPolicy,
    MachineConfig, Method, NetConfig, QosPolicy, RedundancyPolicy, ServeParams, TopologyKind,
};

/// Record size of every cell (the paper's 8 KiB records; one block).
pub const RECORD_BYTES: u64 = 8192;

/// Requests each serve-open tenant issues. With four tenants a cell serves
/// 2048 requests, so its p99 has 20 samples beyond it and admission plus
/// histogram recording are most of the cell's events.
pub const REQUESTS_PER_TENANT: usize = 512;

/// The serve-open offered-load ladder, as fractions of the machine's hardware
/// bandwidth limit. It starts below both methods' knee (near 0.1 on this
/// machine with single-block requests) and ends at 1.0, where the p99
/// metrics are read.
pub const LOAD_LADDER: [f64; 9] = [0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.25, 0.5, 1.0];

/// The fixed serve-open p99 limit, in simulated milliseconds: several times
/// the unloaded p99 of a single-block read (60-85 ms) and far below either
/// method's saturated tail (seconds).
pub const P99_LIMIT_MS: f64 = 500.0;

/// The offered load at which the p99 metrics are read.
pub const P99_LOAD: f64 = 1.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3's regime: read patterns on random blocks, seek-bound disks,
    /// the TC cache's lookup and prefetch path.
    ReadRandom,
    /// Write patterns on contiguous blocks over a link-contended torus: the
    /// TC cache's write-back and flush path, busy fabric links.
    WriteLink,
    /// Open-loop serving over an offered-load ladder: admission, the latency
    /// histogram and per-request dispatch.
    ServeOpen,
    /// Fault schedules under mirror and parity redundancy: reconstruction
    /// reads, redirected and redundant writes.
    FaultRedundant,
}

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 4] = [
        Workload::ReadRandom,
        Workload::WriteLink,
        Workload::ServeOpen,
        Workload::FaultRedundant,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadRandom => "read-random",
            Workload::WriteLink => "write-link",
            Workload::ServeOpen => "serve-open",
            Workload::FaultRedundant => "fault-redundant",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// True for the open-loop workload (the others are closed loop: every
    /// CP issues its next request only after the previous one completed).
    pub fn is_open_loop(self) -> bool {
        self == Workload::ServeOpen
    }
}

/// The TC variant whose write-back runs the high-watermark policy.
fn tc_watermark() -> Method {
    Method::TC.with_cache(CacheConfig::parse("watermark").expect("known write policy"))
}

/// Generates every cell of `workload` from `seed`. Each cell's own seed is
/// derived from `seed` and the cell's identity, so the same seed always
/// yields the same cells and a different seed reshuffles every layout,
/// fault schedule and arrival stream.
pub fn cells(workload: Workload, seed: u64) -> Vec<Cell> {
    let base = MachineConfig::default();
    let mut out = Vec::new();
    let mut push =
        |config: MachineConfig, method: Method, pattern: AccessPattern, axes: Vec<Axis>| {
            let mut tags = vec![workload.name().to_owned(), pattern.name(), method.label()];
            tags.extend(axes.iter().map(|a| format!("{}={}", a.name, a.value)));
            let tags: Vec<&str> = tags.iter().map(String::as_str).collect();
            out.push(Cell {
                scenario: workload.name(),
                config,
                method,
                pattern,
                record_bytes: RECORD_BYTES,
                axes,
                seed: derive_seed(seed, &tags, &[]),
            });
        };
    match workload {
        Workload::ReadRandom => {
            let config = MachineConfig {
                layout: LayoutPolicy::RandomBlocks,
                ..base
            };
            for pattern in AccessPattern::paper_read_patterns() {
                for method in [Method::TC, Method::DDIO, Method::DDIO_SORTED] {
                    push(config.clone(), method, pattern, Vec::new());
                }
            }
        }
        Workload::WriteLink => {
            let config = MachineConfig {
                layout: LayoutPolicy::Contiguous,
                fabric: NetConfig {
                    topology: TopologyKind::Torus,
                    contention: ContentionModel::Link,
                },
                ..base
            };
            for pattern in AccessPattern::paper_write_patterns() {
                for method in [Method::TC, tc_watermark(), Method::DDIO_SORTED] {
                    push(config.clone(), method, pattern, Vec::new());
                }
            }
        }
        Workload::ServeOpen => {
            let rb = AccessPattern::parse("rb").expect("known pattern");
            for method in [Method::TC, Method::DDIO_SORTED] {
                for arrival in [ArrivalProcess::Poisson, ArrivalProcess::Bursty] {
                    for qos in QosPolicy::ALL {
                        for load in LOAD_LADDER {
                            let config = MachineConfig {
                                serve: ServeParams {
                                    arrival,
                                    qos,
                                    requests_per_tenant: REQUESTS_PER_TENANT,
                                    offered_load: load,
                                    ..ServeParams::default()
                                },
                                ..base.clone()
                            };
                            let axes = vec![
                                Axis::new("arrival", arrival.name()),
                                Axis::new("qos", qos.name()),
                                Axis::new("load_permille", (load * 1000.0).round() as u64),
                            ];
                            push(config, method, rb, axes);
                        }
                    }
                }
            }
        }
        Workload::FaultRedundant => {
            for name in ["rb", "wb"] {
                let pattern = AccessPattern::parse(name).expect("known pattern");
                for faults in [FaultPolicy::Transient, FaultPolicy::Failure] {
                    for redundancy in [RedundancyPolicy::Mirrored, RedundancyPolicy::Parity] {
                        let config = MachineConfig {
                            layout: LayoutPolicy::RandomBlocks,
                            faults,
                            redundancy,
                            ..base.clone()
                        };
                        for method in [Method::TC, Method::DDIO_SORTED] {
                            let axes = vec![
                                Axis::new("faults", faults.name()),
                                Axis::new("redundancy", redundancy.name()),
                            ];
                            push(config.clone(), method, pattern, axes);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The offered load of a serve-open cell (`None` for closed-loop cells).
pub fn offered_load(cell_config: &MachineConfig) -> Option<f64> {
    cell_config
        .serve
        .is_open_loop()
        .then_some(cell_config.serve.offered_load)
}
