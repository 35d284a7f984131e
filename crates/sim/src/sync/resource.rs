//! A served resource: a facility with limited concurrency and a service time.
//!
//! Buses, DMA engines and CPUs are all "use me for this long" facilities with
//! FIFO queueing. [`Resource`] wraps a [`Semaphore`] with convenience helpers
//! and utilization accounting, which the experiment harness reports.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::executor::SimContext;
use crate::time::{SimDuration, SimTime};

use super::semaphore::Semaphore;

/// A lazily rendered resource name.
///
/// Machines build thousands of resources per cell ("cp0.cpu", "iop3.bus",
/// "link2-5", …) but the names are only ever read by debug and tracing paths,
/// so constructing them must not allocate. The enum captures the handful of
/// shapes the models use and renders on [`fmt::Display`] only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceName {
    /// A fixed name, e.g. `"scsi-bus"`.
    Static(&'static str),
    /// `"{prefix}{index}{suffix}"`, e.g. `"iop3.cpu"`.
    Indexed {
        /// Leading literal, e.g. `"iop"`.
        prefix: &'static str,
        /// The numeric component.
        index: usize,
        /// Trailing literal, e.g. `".cpu"`.
        suffix: &'static str,
    },
    /// `"{prefix}{a}{sep}{b}"`, e.g. `"link2-5"`.
    Pair {
        /// Leading literal, e.g. `"link"`.
        prefix: &'static str,
        /// First numeric component.
        a: usize,
        /// Separator literal, e.g. `"-"`.
        sep: &'static str,
        /// Second numeric component.
        b: usize,
    },
}

impl From<&'static str> for ResourceName {
    fn from(name: &'static str) -> Self {
        ResourceName::Static(name)
    }
}

impl fmt::Display for ResourceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceName::Static(name) => f.write_str(name),
            ResourceName::Indexed {
                prefix,
                index,
                suffix,
            } => write!(f, "{prefix}{index}{suffix}"),
            ResourceName::Pair { prefix, a, sep, b } => write!(f, "{prefix}{a}{sep}{b}"),
        }
    }
}

#[derive(Default)]
struct Stats {
    acquisitions: u64,
    busy: SimDuration,
    queue_wait: SimDuration,
    first_use: Option<SimTime>,
    last_release: SimTime,
}

/// A limited-concurrency facility with FIFO queueing and usage statistics.
///
/// # Example
///
/// ```
/// use ddio_sim::{Sim, SimDuration, sync::Resource};
///
/// let mut sim = Sim::new();
/// let ctx = sim.context();
/// // A 10 MB/s bus shared by two talkers.
/// let bus = Resource::new(ctx.clone(), "scsi-bus", 1);
/// for _ in 0..2 {
///     let bus = bus.clone();
///     sim.spawn(async move {
///         // Each moves 1 MB: 100 ms of bus time, serialized.
///         bus.use_for(SimDuration::from_millis(100)).await;
///     });
/// }
/// assert_eq!(sim.run().as_nanos(), 200_000_000);
/// assert_eq!(bus.acquisitions(), 2);
/// ```
#[derive(Clone)]
pub struct Resource {
    /// One shared allocation for everything: cloning a handle (and building a
    /// guard) is a single refcount bump, and the stats live next to the
    /// semaphore pointer — resources are acquired on every bus transfer and
    /// disk service, so handle traffic is a hot path.
    inner: Rc<ResourceInner>,
}

struct ResourceInner {
    ctx: SimContext,
    name: ResourceName,
    capacity: u64,
    sem: Semaphore,
    stats: RefCell<Stats>,
}

impl Resource {
    /// Creates a resource with `capacity` concurrent servers. The name is
    /// stored un-rendered; see [`ResourceName`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(ctx: SimContext, name: impl Into<ResourceName>, capacity: u64) -> Self {
        assert!(capacity > 0, "resource capacity must be non-zero");
        Resource {
            inner: Rc::new(ResourceInner {
                ctx,
                name: name.into(),
                capacity,
                sem: Semaphore::new(capacity),
                stats: RefCell::new(Stats::default()),
            }),
        }
    }

    /// The resource's name (rendered on demand for debug/tracing output).
    pub fn name(&self) -> ResourceName {
        self.inner.name
    }

    /// The configured concurrency.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Acquires one server of the resource; the guard releases it on drop.
    pub async fn acquire(&self) -> ResourceGuard {
        let inner = &self.inner;
        let requested = inner.ctx.now();
        // The guard returns the server via `add_permits` itself, so the
        // permit's own guard object is not kept around.
        inner.sem.acquire(1).await.forget();
        ResourceGuard {
            inner: Rc::clone(inner),
            acquired_at: inner.granted(requested),
        }
    }

    /// Acquires the resource, holds it for `duration` of simulated time, and
    /// releases it. This is the common "transfer n bytes over the bus" call.
    ///
    /// Same waits, statistics and FIFO hand-off as `acquire` followed by a
    /// sleep, but an idle resource is taken without the acquire future or
    /// a refcounted guard: only a contended one queues.
    pub async fn use_for(&self, duration: SimDuration) {
        let inner = &*self.inner;
        let requested = inner.ctx.now();
        if !inner.sem.try_take(1) {
            inner.sem.acquire(1).await.forget();
        }
        let _hold = Hold {
            inner,
            acquired_at: inner.granted(requested),
        };
        inner.ctx.sleep(duration).await;
    }

    /// Number of completed or in-progress acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.inner.stats.borrow().acquisitions
    }

    /// Total simulated time the resource's servers have been held.
    pub fn busy_time(&self) -> SimDuration {
        self.inner.stats.borrow().busy
    }

    /// Total time acquirers spent queued before being served.
    pub fn total_queue_wait(&self) -> SimDuration {
        self.inner.stats.borrow().queue_wait
    }

    /// Number of tasks currently waiting for the resource.
    pub fn queue_len(&self) -> usize {
        self.inner.sem.queue_len()
    }

    /// Utilization over the window from first use to last release:
    /// busy time divided by (capacity × window). Returns zero before any use.
    pub fn utilization(&self) -> f64 {
        let st = self.inner.stats.borrow();
        let Some(first) = st.first_use else {
            return 0.0;
        };
        let window = st.last_release.saturating_duration_since(first);
        if window.is_zero() {
            return 0.0;
        }
        st.busy.as_secs_f64() / (self.inner.capacity as f64 * window.as_secs_f64())
    }
}

impl ResourceInner {
    /// Records a grant to an acquirer that asked at `requested`; returns
    /// the grant time.
    fn granted(&self, requested: SimTime) -> SimTime {
        let granted = self.ctx.now();
        let mut st = self.stats.borrow_mut();
        st.acquisitions += 1;
        st.queue_wait += granted - requested;
        st.first_use.get_or_insert(granted);
        granted
    }

    /// Returns a server held since `acquired_at`: the stats are settled
    /// first, then the next waiter is granted (the same FIFO hand-off as
    /// dropping a permit).
    fn release(&self, acquired_at: SimTime) {
        let now = self.ctx.now();
        {
            let mut st = self.stats.borrow_mut();
            st.busy += now - acquired_at;
            if now > st.last_release {
                st.last_release = now;
            }
        }
        self.sem.add_permits(1);
    }
}

/// Guard for an acquired [`Resource`] server.
pub struct ResourceGuard {
    inner: Rc<ResourceInner>,
    acquired_at: SimTime,
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        self.inner.release(self.acquired_at);
    }
}

/// [`Resource::use_for`]'s hold on a server: a borrowed [`ResourceGuard`],
/// so a cancelled `use_for` still returns its server and settles its busy
/// time.
struct Hold<'a> {
    inner: &'a ResourceInner,
    acquired_at: SimTime,
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        self.inner.release(self.acquired_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use std::cell::Cell;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::Poll;

    #[test]
    fn serializes_when_capacity_one() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let bus = Resource::new(ctx, "bus", 1);
        for _ in 0..3 {
            let bus = bus.clone();
            sim.spawn(async move {
                bus.use_for(SimDuration::from_millis(5)).await;
            });
        }
        assert_eq!(sim.run().as_nanos(), 15_000_000);
        assert_eq!(bus.acquisitions(), 3);
        assert_eq!(bus.busy_time(), SimDuration::from_millis(15));
        assert!((bus.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_when_capacity_allows() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx, "dual", 2);
        for _ in 0..4 {
            let r = r.clone();
            sim.spawn(async move {
                r.use_for(SimDuration::from_millis(5)).await;
            });
        }
        assert_eq!(sim.run().as_nanos(), 10_000_000);
        assert!((r.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn queue_wait_is_tracked() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx, "single", 1);
        for _ in 0..2 {
            let r = r.clone();
            sim.spawn(async move {
                r.use_for(SimDuration::from_millis(10)).await;
            });
        }
        sim.run();
        // The second task waits 10 ms for the first to finish.
        assert_eq!(r.total_queue_wait(), SimDuration::from_millis(10));
    }

    #[test]
    fn utilization_zero_when_unused() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx, "idle", 1);
        sim.run();
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.acquisitions(), 0);
    }

    /// Polls `future` once and hands it back (still pending, or finished).
    async fn poll_once<F: Future + Unpin>(mut future: F) -> F {
        std::future::poll_fn(|cx| {
            let _ = Pin::new(&mut future).poll(cx);
            Poll::Ready(())
        })
        .await;
        future
    }

    #[test]
    fn dropping_a_holding_use_for_returns_the_server() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let bus = Resource::new(ctx.clone(), "bus", 1);
        let granted = Rc::new(Cell::new(None));
        {
            let (bus, ctx) = (bus.clone(), ctx.clone());
            sim.spawn(async move {
                let hold = poll_once(Box::pin(bus.use_for(SimDuration::from_millis(10)))).await;
                ctx.sleep(SimDuration::from_millis(4)).await;
                drop(hold);
            });
        }
        {
            let (bus, ctx, granted) = (bus.clone(), ctx.clone(), Rc::clone(&granted));
            sim.spawn(async move {
                let _guard = bus.acquire().await;
                granted.set(Some(ctx.now()));
            });
        }
        sim.run();
        // Cancelled after 4 ms of its 10: the server went straight to the
        // waiter, and only the time actually held counts as busy.
        assert_eq!(
            granted.get(),
            Some(SimTime::ZERO + SimDuration::from_millis(4))
        );
        assert_eq!(bus.acquisitions(), 2);
        assert_eq!(bus.busy_time(), SimDuration::from_millis(4));
        assert_eq!(bus.total_queue_wait(), SimDuration::from_millis(4));
        assert_eq!(bus.queue_len(), 0);
    }

    #[test]
    fn dropping_a_queued_use_for_leaks_no_server() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let bus = Resource::new(ctx.clone(), "bus", 1);
        let ms = SimDuration::from_millis;
        let finished = Rc::new(RefCell::new(Vec::new()));
        // (label, start, hold): `a` holds 0–10 ms; `b` queues at 0 and is
        // cancelled at 2 ms; `c` queues at 1 ms and must get the server
        // when `a` lets go; `d` and `e` arrive together at 20 ms and, with
        // exactly one server, run back to back.
        for (label, start, hold) in [("a", 0, 10), ("c", 1, 5), ("d", 20, 1), ("e", 20, 1)] {
            let (bus, ctx, finished) = (bus.clone(), ctx.clone(), Rc::clone(&finished));
            sim.spawn(async move {
                ctx.sleep(ms(start)).await;
                bus.use_for(ms(hold)).await;
                finished.borrow_mut().push((label, ctx.now()));
            });
        }
        {
            let (bus, ctx) = (bus.clone(), ctx.clone());
            sim.spawn(async move {
                let queued = poll_once(Box::pin(bus.use_for(ms(100)))).await;
                assert_eq!(bus.queue_len(), 1);
                ctx.sleep(ms(2)).await;
                drop(queued);
                assert_eq!(bus.queue_len(), 1, "only c is still queued");
            });
        }
        assert_eq!(sim.run(), SimTime::ZERO + ms(22));
        let at = |t| SimTime::ZERO + ms(t);
        assert_eq!(
            *finished.borrow(),
            [("a", at(10)), ("c", at(15)), ("d", at(21)), ("e", at(22))]
        );
        assert_eq!(bus.acquisitions(), 4);
        assert_eq!(bus.busy_time(), ms(17));
        // c waited 1–10 ms, e waited 20–21 ms; b never held the server.
        assert_eq!(bus.total_queue_wait(), ms(10));
        assert_eq!(bus.queue_len(), 0);
    }

    #[test]
    fn use_for_accounts_like_acquire_then_sleep() {
        // Three tasks contending for two servers, each holding twice.
        let run = |guarded: bool| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            let r = Resource::new(ctx.clone(), "dual", 2);
            for (start, hold) in [(0u64, 7u64), (1, 5), (2, 3)] {
                let (r, ctx) = (r.clone(), ctx.clone());
                sim.spawn(async move {
                    ctx.sleep(SimDuration::from_micros(start)).await;
                    for round in 0..2 {
                        let hold = SimDuration::from_micros(hold + round);
                        if guarded {
                            let guard = r.acquire().await;
                            ctx.sleep(hold).await;
                            drop(guard);
                        } else {
                            r.use_for(hold).await;
                        }
                    }
                });
            }
            let end = sim.run();
            (
                end,
                r.acquisitions(),
                r.busy_time(),
                r.total_queue_wait(),
                r.utilization().to_bits(),
            )
        };
        let guarded = run(true);
        assert!(guarded.3 > SimDuration::ZERO, "the script must contend");
        assert_eq!(run(false), guarded);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let sim = Sim::new();
        let _ = Resource::new(sim.context(), "bad", 0);
    }
}
