//! The [`Policy`] / [`PolicySet`] contract, checked once generically and run
//! over every subsystem's policy enum.

use std::fmt::Debug;

use ddio_core::{
    ArrivalProcess, ContentionModel, FaultPolicy, PrefetchPolicy, QosPolicy, RedundancyPolicy,
    ReplacementPolicy, SchedPolicy, TopologyKind, WritePolicy,
};
use ddio_sim::{Policy, PolicySet};

/// Checks `P` against its inherent `ALL` array and `names` (in `ALL`
/// order), plus one sample list: `subset` parses to the set whose
/// `names()` is `subset_names`.
fn check<P: Policy + Debug>(inherent: &[P], names: &[&str], subset: &str, subset_names: &str) {
    assert_eq!(
        P::ALL,
        inherent,
        "{}: trait and inherent ALL differ",
        P::NOUN
    );
    let listed: Vec<&str> = P::ALL.iter().map(|p| p.name()).collect();
    assert_eq!(listed, names, "{}", P::NOUN);

    // name/parse round trip; index is the position in ALL.
    for (i, &p) in P::ALL.iter().enumerate() {
        assert_eq!(P::parse(p.name()), Some(p));
        assert_eq!(p.index(), i);
    }
    assert_eq!(P::parse("bogus"), None);
    assert_eq!(
        P::parse(&format!(" {}", names[0])),
        None,
        "parse does not trim"
    );

    // all/empty, and names() in ALL order whatever the input order.
    let all = PolicySet::<P>::all();
    assert_eq!(all.iter().collect::<Vec<_>>(), P::ALL);
    assert_eq!(all.names(), names.join(","));
    assert!(!all.is_empty());
    assert!(PolicySet::<P>::empty().is_empty());
    assert_eq!(PolicySet::<P>::empty().iter().count(), 0);
    let reversed: Vec<&str> = names.iter().rev().copied().collect();
    let padded = format!(" , {} ,, ", reversed.join(" ,  "));
    assert_eq!(PolicySet::<P>::parse_list(&padded), Ok(all), "{padded:?}");

    // The sample subset: trimmed, blanks skipped, membership exact.
    let set = PolicySet::<P>::parse_list(subset).unwrap();
    assert_eq!(set.names(), subset_names);
    for &p in P::ALL {
        let listed = subset_names.split(',').any(|n| n == p.name());
        assert_eq!(set.contains(p), listed, "{subset:?} vs {}", p.name());
    }
    let mut built = PolicySet::<P>::empty();
    for p in set.iter() {
        built.insert(p);
    }
    assert_eq!(built, set);

    // Unknown names and empty lists are rejected; the error lists every
    // accepted name, in ALL order.
    let expected = P::expected();
    let words: Vec<&str> = expected
        .split([',', ' '])
        .filter(|w| !w.is_empty() && *w != "or")
        .collect();
    assert_eq!(words, names, "{expected:?}");
    assert_eq!(
        PolicySet::<P>::parse_list(&format!("{},bogus", names[0])),
        Err(format!(
            "unknown {} \"bogus\" (expected {expected})",
            P::NOUN
        ))
    );
    for empty in ["", " , ", ",,"] {
        assert_eq!(
            PolicySet::<P>::parse_list(empty),
            Err(format!(
                "expected a comma-separated list of {} names: {expected}",
                P::NOUN
            ))
        );
    }
}

#[test]
fn every_policy_enum_names_parses_and_filters() {
    check(
        &SchedPolicy::ALL,
        &["fcfs", "sstf", "cscan", "presort"],
        "fcfs, cscan",
        "fcfs,cscan",
    );
    check(
        &TopologyKind::ALL,
        &["torus", "mesh", "hypercube", "crossbar"],
        "torus, crossbar",
        "torus,crossbar",
    );
    check(&ContentionModel::ALL, &["ni-only", "link"], "link", "link");
    check(
        &ReplacementPolicy::ALL,
        &["lru", "mru", "clock"],
        "clock,lru",
        "lru,clock",
    );
    check(
        &PrefetchPolicy::ALL,
        &["none", "one", "strided"],
        "strided",
        "strided",
    );
    check(
        &WritePolicy::ALL,
        &["through", "onfull", "watermark"],
        "watermark, through",
        "through,watermark",
    );
    check(
        &FaultPolicy::ALL,
        &["none", "cacheless", "worn", "transient", "failure"],
        "none, failure",
        "none,failure",
    );
    check(
        &RedundancyPolicy::ALL,
        &["none", "mirror", "parity"],
        "mirror,parity",
        "mirror,parity",
    );
    check(
        &ArrivalProcess::ALL,
        &["closed-loop", "poisson", "bursty"],
        "poisson, bursty",
        "poisson,bursty",
    );
    check(
        &QosPolicy::ALL,
        &["fifo", "fair-share", "weighted", "tenant-priority"],
        "fifo,tenant-priority",
        "fifo,tenant-priority",
    );
    // The accepted-names list reads as English.
    assert_eq!(ContentionModel::expected(), "ni-only or link");
    assert_eq!(RedundancyPolicy::expected(), "none, mirror, or parity");
}
