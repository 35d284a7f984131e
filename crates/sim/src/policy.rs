//! The shared vocabulary of pluggable policies: every subsystem's policy
//! enum (disk scheduling, cache, interconnect, faults, serving) names its
//! values through [`Policy`], and every filter over them is a
//! [`PolicySet`].
//!
//! A new policy value is one enum variant plus its entry in the enum's
//! `ALL` array and `name` match; parsing, sets, and error messages follow
//! from those.
//!
//! ```
//! use ddio_core::SchedPolicy;
//! use ddio_sim::{Policy, PolicySet};
//!
//! assert_eq!(SchedPolicy::parse("cscan"), Some(SchedPolicy::Cscan));
//! let set = PolicySet::<SchedPolicy>::parse_list("presort, fcfs").unwrap();
//! assert_eq!(set.names(), "fcfs,presort");
//! assert_eq!(
//!     PolicySet::<SchedPolicy>::parse_list("elevator").unwrap_err(),
//!     "unknown scheduling policy \"elevator\" (expected fcfs, sstf, cscan, or presort)"
//! );
//! ```

use std::fmt;
use std::marker::PhantomData;

/// A closed set of named policy values.
pub trait Policy: Copy + Eq + 'static {
    /// Every value, in a stable order (sweeps, listings, and set bits).
    const ALL: &'static [Self];

    /// What one value is called in error messages, e.g.
    /// `"scheduling policy"`.
    const NOUN: &'static str;

    /// The value's lower-case name as used by flags and reports.
    fn name(self) -> &'static str;

    /// Parses a name (the inverse of [`Policy::name`]).
    fn parse(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|p| p.name() == s)
    }

    /// The value's position in [`Policy::ALL`].
    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&p| p == self)
            .expect("every value is listed in ALL")
    }

    /// Every name in [`Policy::ALL`] order as an English list, e.g.
    /// `"torus, mesh, hypercube, or crossbar"` (`"a or b"` for two).
    fn expected() -> String {
        let names: Vec<&str> = Self::ALL.iter().map(|p| p.name()).collect();
        match names.split_last() {
            Some((last, init)) if init.len() >= 2 => format!("{}, or {last}", init.join(", ")),
            _ => names.join(" or "),
        }
    }
}

/// A small, copyable set of `P` values; each value's bit is its position in
/// [`Policy::ALL`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PolicySet<P: Policy> {
    bits: u64,
    policy: PhantomData<P>,
}

impl<P: Policy> PolicySet<P> {
    /// The empty set.
    pub const fn empty() -> Self {
        PolicySet {
            bits: 0,
            policy: PhantomData,
        }
    }

    /// The set of every value.
    pub fn all() -> Self {
        let mut set = Self::empty();
        for &p in P::ALL {
            set.insert(p);
        }
        set
    }

    /// Adds a value to the set.
    pub fn insert(&mut self, p: P) {
        self.bits |= 1 << p.index();
    }

    /// True if the set contains `p`.
    pub fn contains(self, p: P) -> bool {
        self.bits & (1 << p.index()) != 0
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// The contained values, in [`Policy::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = P> {
        P::ALL.iter().copied().filter(move |&p| self.contains(p))
    }

    /// Parses a comma-separated list of names (`"fcfs, cscan"`); blank
    /// entries are skipped, and an unknown name or an empty list is an
    /// error naming every accepted value.
    pub fn parse_list(s: &str) -> Result<Self, String> {
        let mut set = Self::empty();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let p = P::parse(part).ok_or_else(|| {
                format!("unknown {} {part:?} (expected {})", P::NOUN, P::expected())
            })?;
            set.insert(p);
        }
        if set.is_empty() {
            return Err(format!(
                "expected a comma-separated list of {} names: {}",
                P::NOUN,
                P::expected()
            ));
        }
        Ok(set)
    }

    /// The contained names, comma-separated, in [`Policy::ALL`] order.
    pub fn names(self) -> String {
        self.iter().map(P::name).collect::<Vec<_>>().join(",")
    }
}

impl<P: Policy> fmt::Debug for PolicySet<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PolicySet({:?})", self.names())
    }
}
