//! `ddio-bench`: the unified benchmark harness.
//!
//! The [`ddio-bench` CLI](crate::cli) binary runs any registered scenario —
//! Table 1, Figures 3–8, and the newer sweeps — in parallel across all
//! cores (`ddio-bench run all --jobs N`) and emits text tables, JSON, or
//! CSV. The seven per-exhibit binaries (`table1`, `fig3` … `fig8`) are thin
//! wrappers over the same registry (see [`run_exhibit`]), and the Criterion
//! micro-benchmarks of the simulator, disk model, and pattern generator
//! live in `benches/`.
//!
//! Every entry point accepts the same scaling knobs through the environment
//! so the full-fidelity (10 MB file, five trials) runs of the paper can be
//! traded for quicker ones:
//!
//! | variable          | default | meaning                                   |
//! |-------------------|---------|-------------------------------------------|
//! | `DDIO_FILE_MB`    | `10`    | file size in MiB (must be ≥ 1)            |
//! | `DDIO_TRIALS`     | `5`     | independent trials per data point (≥ 1)   |
//! | `DDIO_SMALL_RECORDS` | `1`  | also run the 8-byte-record sweep (0 = skip) |
//! | `DDIO_SEED`       | `1994`  | base random seed                          |
//! | `DDIO_CACHE_BUFS` | `2`     | TC cache buffers per disk per CP (≥ 1)    |
//! | `DDIO_NET_TOPOLOGY` | `torus` | interconnect topology: torus, mesh, hypercube, crossbar |
//! | `DDIO_NET_CONTENTION` | `ni-only` | fabric contention model: ni-only or link |
//! | `DDIO_FAULT_POLICY` | `none` | machine-wide fault injection: none, cacheless, worn, transient, failure |
//! | `DDIO_FAULT_REDUNDANCY` | `none` | redundant block placement: none, mirror, parity |
//! | `DDIO_ARRIVAL_PROCESS` | `closed-loop` | request arrivals: closed-loop, poisson, bursty |
//! | `DDIO_ARRIVAL_QOS` | `fifo` | serving admission policy: fifo, fair-share, weighted, tenant-priority |
//! | `DDIO_ARRIVAL_TENANTS` | `4` | independent open-loop tenants (≥ 1)  |
//! | `DDIO_ARRIVAL_REQUESTS` | `64` | open-loop requests per tenant (≥ 1)  |
//!
//! Zero or unparseable values are rejected at startup with a clear error
//! (see [`Scale::from_env`]) instead of panicking mid-run.
//!
//! The six policy variables are rows of [`cli::AXES`]: each sets the policy
//! of every cell a scenario does not sweep itself. Its `run` flag
//! (`--topology`, `--net`, `--faults`, `--redundancy`, `--arrival`,
//! `--qos`) leaves that default alone and filters cells instead, in every
//! scenario whose cells take two or more values on the policy (see
//! [`cli::Axis`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod report;

use std::fmt;

use ddio_core::experiment::scenario::{self, SweepParams};
use ddio_core::{
    ArrivalProcess, ContentionModel, FaultPolicy, MachineConfig, NetConfig, QosPolicy,
    RedundancyPolicy, ServeParams, TopologyKind,
};

/// Scaling knobs shared by the CLI and all figure binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// File size in MiB.
    pub file_mib: u64,
    /// Independent trials per data point.
    pub trials: usize,
    /// Whether to run the 8-byte-record half of Figures 3 and 4.
    pub small_records: bool,
    /// Base random seed.
    pub seed: u64,
    /// Traditional-caching cache buffers per disk per CP (the paper's
    /// double-buffering default is 2).
    pub cache_bufs: usize,
    /// Interconnect topology every scenario's machine runs on (the paper's
    /// torus by default; the `net-sweep` scenario sweeps its own).
    pub topology: TopologyKind,
    /// Fabric contention model (NI-only by default).
    pub contention: ContentionModel,
    /// Machine-wide fault-injection policy (healthy by default; the
    /// `fault-sweep` scenario sweeps its own).
    pub faults: FaultPolicy,
    /// Machine-wide redundant block placement (none by default).
    pub redundancy: RedundancyPolicy,
    /// Machine-wide arrival process (the paper's closed loop by default;
    /// the `serve-sweep` scenario sweeps its own).
    pub arrival: ArrivalProcess,
    /// Machine-wide serving admission policy (FIFO by default).
    pub qos: QosPolicy,
    /// Independent open-loop tenants.
    pub tenants: usize,
    /// Open-loop requests per tenant.
    pub requests_per_tenant: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            file_mib: 10,
            trials: 5,
            small_records: true,
            seed: 1994,
            cache_bufs: 2,
            topology: TopologyKind::Torus,
            contention: ContentionModel::NiOnly,
            faults: FaultPolicy::None,
            redundancy: RedundancyPolicy::None,
            arrival: ArrivalProcess::ClosedLoop,
            qos: QosPolicy::Fifo,
            tenants: ServeParams::default().tenants,
            requests_per_tenant: ServeParams::default().requests_per_tenant,
        }
    }
}

/// A rejected `DDIO_*` environment variable (or CLI override).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleError {
    /// The offending variable name.
    pub var: String,
    /// The value it held.
    pub value: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is invalid: {}",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for ScaleError {}

/// Reads one integer knob: `None` if unset or blank, else a non-negative
/// integer of at least `min`.
fn knob(
    lookup: &impl Fn(&str) -> Option<String>,
    var: &str,
    min: u64,
) -> Result<Option<u64>, ScaleError> {
    let Some(raw) = lookup(var).filter(|v| !v.trim().is_empty()) else {
        return Ok(None);
    };
    let invalid = |reason: String| ScaleError {
        var: var.to_owned(),
        value: raw.clone(),
        reason,
    };
    match raw.trim().parse::<u64>() {
        Ok(n) if n >= min => Ok(Some(n)),
        Ok(_) => Err(invalid(format!("must be at least {min}"))),
        Err(_) => Err(invalid("expected an unsigned integer".to_owned())),
    }
}

impl Scale {
    /// Reads the scaling knobs from the environment (see the crate docs).
    ///
    /// Unset or blank variables keep their defaults. Garbage (`DDIO_TRIALS=x`)
    /// and out-of-range values (`DDIO_TRIALS=0`, `DDIO_FILE_MB=0`) are
    /// rejected here, at startup, rather than reaching an assertion deep in
    /// the experiment harness.
    pub fn from_env() -> Result<Scale, ScaleError> {
        Scale::from_lookup(|var| std::env::var(var).ok())
    }

    /// [`Scale::from_env`] with an injectable variable source, for tests.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Scale, ScaleError> {
        let mut s = Scale::default();
        if let Some(v) = knob(&lookup, "DDIO_FILE_MB", 1)? {
            s.file_mib = v;
        }
        if let Some(v) = knob(&lookup, "DDIO_TRIALS", 1)? {
            s.trials = v as usize;
        }
        if let Some(v) = knob(&lookup, "DDIO_SMALL_RECORDS", 0)? {
            s.small_records = v != 0;
        }
        if let Some(v) = knob(&lookup, "DDIO_SEED", 0)? {
            s.seed = v;
        }
        if let Some(v) = knob(&lookup, "DDIO_CACHE_BUFS", 1)? {
            s.cache_bufs = v as usize;
        }
        for axis in &cli::AXES {
            let Some((var, set)) = axis.env else { continue };
            if let Some(raw) = lookup(var).filter(|v| !v.trim().is_empty()) {
                set(&mut s, raw.trim()).ok_or_else(|| ScaleError {
                    var: var.to_owned(),
                    value: raw.clone(),
                    reason: format!("expected {}", (axis.expected)()),
                })?;
            }
        }
        if let Some(v) = knob(&lookup, "DDIO_ARRIVAL_TENANTS", 1)? {
            s.tenants = v as usize;
        }
        if let Some(v) = knob(&lookup, "DDIO_ARRIVAL_REQUESTS", 1)? {
            s.requests_per_tenant = v as usize;
        }
        Ok(s)
    }

    /// [`Scale::from_env`], exiting with status 2 and a message on stderr if
    /// the environment is invalid — the shared startup path of every binary.
    pub fn from_env_or_exit() -> Scale {
        Scale::from_env().unwrap_or_else(|e| {
            eprintln!("ddio-bench: {e}");
            std::process::exit(2);
        })
    }

    /// The Table 1 machine with this scale's file size, cache sizing, and
    /// interconnect fabric.
    pub fn base_config(&self) -> MachineConfig {
        MachineConfig {
            file_bytes: self.file_mib * 1024 * 1024,
            cache: ddio_core::CacheParams {
                buffers_per_disk_per_cp: self.cache_bufs,
                ..ddio_core::CacheParams::default()
            },
            fabric: NetConfig {
                topology: self.topology,
                contention: self.contention,
            },
            faults: self.faults,
            redundancy: self.redundancy,
            serve: ServeParams {
                arrival: self.arrival,
                qos: self.qos,
                tenants: self.tenants,
                requests_per_tenant: self.requests_per_tenant,
                ..ServeParams::default()
            },
            ..MachineConfig::default()
        }
    }

    /// The sweep parameters handed to every scenario builder.
    pub fn sweep_params(&self) -> SweepParams {
        SweepParams {
            base: self.base_config(),
            trials: self.trials,
            seed: self.seed,
            small_records: self.small_records,
        }
    }

    /// A one-line description printed at the top of every table
    /// (delegates to [`SweepParams::describe`], the single source of the
    /// wording).
    pub fn describe(&self) -> String {
        self.sweep_params().describe()
    }
}

/// The main function of every thin exhibit binary: look the exhibit up in
/// the registry, run it serially at the environment's scale, and print its
/// text report.
///
/// Serial execution is deliberate here — the exhibit binaries are the
/// reference output; `ddio-bench run --jobs N` produces bit-identical
/// numbers in parallel (the determinism suite proves it).
pub fn run_exhibit(name: &str) {
    let scale = Scale::from_env_or_exit();
    let scenario = scenario::find(name).unwrap_or_else(|| {
        eprintln!("ddio-bench: unknown exhibit {name:?}");
        std::process::exit(2);
    });
    let params = scale.sweep_params();
    let results = scenario::run_scenario(&scenario, &params, 1);
    print!("{}", scenario::render(&scenario, &params, &results));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| {
            pairs
                .iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| (*v).to_owned())
        }
    }

    #[test]
    fn default_scale_matches_the_paper() {
        let s = Scale::default();
        assert_eq!(s.file_mib, 10);
        assert_eq!(s.trials, 5);
        assert!(s.small_records);
        assert_eq!(s.base_config().file_bytes, 10 * 1024 * 1024);
        assert!(s.describe().contains("10 MiB"));
        let p = s.sweep_params();
        assert_eq!(p.trials, 5);
        assert_eq!(p.seed, 1994);
    }

    #[test]
    fn env_overrides_apply() {
        let s = Scale::from_lookup(lookup_of(&[
            ("DDIO_FILE_MB", "2"),
            ("DDIO_TRIALS", "3"),
            ("DDIO_SMALL_RECORDS", "0"),
            ("DDIO_SEED", "42"),
            ("DDIO_CACHE_BUFS", "4"),
        ]))
        .unwrap();
        assert_eq!(s.file_mib, 2);
        assert_eq!(s.trials, 3);
        assert!(!s.small_records);
        assert_eq!(s.seed, 42);
        assert_eq!(s.cache_bufs, 4);
        assert_eq!(s.base_config().cache.buffers_per_disk_per_cp, 4);
    }

    #[test]
    fn net_knobs_select_the_fabric() {
        let s = Scale::from_lookup(lookup_of(&[
            ("DDIO_NET_TOPOLOGY", "mesh"),
            ("DDIO_NET_CONTENTION", "link"),
        ]))
        .unwrap();
        assert_eq!(s.topology, TopologyKind::Mesh);
        assert_eq!(s.contention, ContentionModel::Link);
        let fabric = s.base_config().fabric;
        assert_eq!(fabric.topology, TopologyKind::Mesh);
        assert_eq!(fabric.contention, ContentionModel::Link);
        // Blank values keep the defaults; garbage is rejected at startup.
        let s = Scale::from_lookup(lookup_of(&[("DDIO_NET_TOPOLOGY", " ")])).unwrap();
        assert_eq!(s.topology, TopologyKind::Torus);
        assert_eq!(s.base_config().fabric, NetConfig::DEFAULT);
        let err = Scale::from_lookup(lookup_of(&[("DDIO_NET_TOPOLOGY", "ring")])).unwrap_err();
        assert_eq!(err.var, "DDIO_NET_TOPOLOGY");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_NET_CONTENTION", "flit")])).unwrap_err();
        assert_eq!(err.var, "DDIO_NET_CONTENTION");
    }

    #[test]
    fn fault_knobs_select_the_composition() {
        let s = Scale::from_lookup(lookup_of(&[
            ("DDIO_FAULT_POLICY", "transient"),
            ("DDIO_FAULT_REDUNDANCY", "mirror"),
        ]))
        .unwrap();
        assert_eq!(s.faults, FaultPolicy::Transient);
        assert_eq!(s.redundancy, RedundancyPolicy::Mirrored);
        let config = s.base_config();
        assert_eq!(config.faults, FaultPolicy::Transient);
        assert_eq!(config.redundancy, RedundancyPolicy::Mirrored);
        // Blank keeps the healthy defaults; garbage is rejected at startup.
        let s = Scale::from_lookup(lookup_of(&[("DDIO_FAULT_POLICY", " ")])).unwrap();
        assert_eq!(s.faults, FaultPolicy::None);
        let err = Scale::from_lookup(lookup_of(&[("DDIO_FAULT_POLICY", "meteor")])).unwrap_err();
        assert_eq!(err.var, "DDIO_FAULT_POLICY");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_FAULT_REDUNDANCY", "raid9")])).unwrap_err();
        assert_eq!(err.var, "DDIO_FAULT_REDUNDANCY");
    }

    #[test]
    fn arrival_knobs_select_the_serving_composition() {
        let s = Scale::from_lookup(lookup_of(&[
            ("DDIO_ARRIVAL_PROCESS", "bursty"),
            ("DDIO_ARRIVAL_QOS", "fair-share"),
            ("DDIO_ARRIVAL_TENANTS", "8"),
            ("DDIO_ARRIVAL_REQUESTS", "32"),
        ]))
        .unwrap();
        assert_eq!(s.arrival, ArrivalProcess::Bursty);
        assert_eq!(s.qos, QosPolicy::FairShare);
        assert_eq!(s.tenants, 8);
        assert_eq!(s.requests_per_tenant, 32);
        let serve = s.base_config().serve;
        assert_eq!(serve.arrival, ArrivalProcess::Bursty);
        assert_eq!(serve.qos, QosPolicy::FairShare);
        assert_eq!(serve.tenants, 8);
        assert_eq!(serve.requests_per_tenant, 32);
        // Blank keeps the closed-loop defaults; garbage is rejected.
        let s = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_PROCESS", " ")])).unwrap();
        assert_eq!(s.arrival, ArrivalProcess::ClosedLoop);
        assert_eq!(s.base_config().serve, ServeParams::default());
        let err = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_PROCESS", "sneaky")])).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_PROCESS");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_QOS", "anarchy")])).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_QOS");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_TENANTS", "0")])).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_TENANTS");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_REQUESTS", "0")])).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_REQUESTS");
    }

    #[test]
    fn policy_variables_name_every_accepted_value() {
        for axis in &cli::AXES {
            let Some((var, _)) = axis.env else { continue };
            let err = Scale::from_lookup(lookup_of(&[(var, "bogus")])).unwrap_err();
            assert_eq!(err.var, var);
            assert_eq!(
                err.to_string(),
                format!("{var}=\"bogus\" is invalid: expected {}", (axis.expected)())
            );
        }
    }

    #[test]
    fn zero_cache_bufs_is_rejected() {
        let err = Scale::from_lookup(lookup_of(&[("DDIO_CACHE_BUFS", "0")])).unwrap_err();
        assert_eq!(err.var, "DDIO_CACHE_BUFS");
    }

    #[test]
    fn blank_values_keep_defaults() {
        let s = Scale::from_lookup(lookup_of(&[("DDIO_TRIALS", "  ")])).unwrap();
        assert_eq!(s.trials, 5);
    }

    #[test]
    fn zero_trials_is_rejected_at_startup() {
        let err = Scale::from_lookup(lookup_of(&[("DDIO_TRIALS", "0")])).unwrap_err();
        assert_eq!(err.var, "DDIO_TRIALS");
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn zero_file_size_is_rejected() {
        let err = Scale::from_lookup(lookup_of(&[("DDIO_FILE_MB", "0")])).unwrap_err();
        assert_eq!(err.var, "DDIO_FILE_MB");
    }

    #[test]
    fn garbage_values_are_rejected() {
        for (var, value) in [
            ("DDIO_FILE_MB", "ten"),
            ("DDIO_TRIALS", "-3"),
            ("DDIO_SEED", "0x12"),
            ("DDIO_SMALL_RECORDS", "yes"),
        ] {
            let err = Scale::from_lookup(lookup_of(&[(var, value)])).unwrap_err();
            assert_eq!(err.var, var, "{value} accepted for {var}");
            assert!(err.to_string().contains("unsigned integer"));
        }
    }

    #[test]
    fn seed_zero_is_a_valid_seed() {
        let s = Scale::from_lookup(lookup_of(&[("DDIO_SEED", "0")])).unwrap();
        assert_eq!(s.seed, 0);
    }
}
