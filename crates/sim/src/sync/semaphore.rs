//! An async counting semaphore with FIFO fairness.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::TaskRef;

struct Waiter {
    wants: u64,
    granted: bool,
    cancelled: bool,
    waker: Option<TaskRef>,
}

struct Inner {
    permits: u64,
    /// FIFO queue of `slots` indices. Cancelled entries stay queued and are
    /// skipped (and recycled) when they reach the front.
    waiters: VecDeque<u32>,
    /// Waiter slab: acquiring under contention reuses retired slots instead
    /// of allocating — the executor hot path creates waiters constantly.
    slots: Vec<Waiter>,
    free: Vec<u32>,
    /// Queued-and-not-cancelled count, kept so the uncontended acquire path
    /// is O(1) instead of scanning the queue.
    live: usize,
}

impl Inner {
    fn alloc_waiter(&mut self, wants: u64, waker: TaskRef) -> u32 {
        let w = Waiter {
            wants,
            granted: false,
            cancelled: false,
            waker: Some(waker),
        };
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = w;
                idx
            }
            None => {
                self.slots.push(w);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Retires a slot that is no longer queued. Exactly one party frees each
    /// slot: the owning `Acquire` once it observes the grant, or [`grant`]
    /// when a cancelled entry surfaces at the head of the queue.
    fn free_waiter(&mut self, idx: u32) {
        self.slots[idx as usize].waker = None;
        self.free.push(idx);
    }

    /// Takes `n` permits if nobody is queued and enough are free.
    fn try_take(&mut self, n: u64) -> bool {
        if self.live > 0 || self.permits < n {
            return false;
        }
        self.permits -= n;
        true
    }

    /// Hands permits to queued waiters in FIFO order while enough are free.
    fn grant(&mut self) {
        loop {
            // Recycle cancelled waiters at the head of the queue.
            while let Some(&front) = self.waiters.front() {
                if self.slots[front as usize].cancelled {
                    self.waiters.pop_front();
                    self.free_waiter(front);
                } else {
                    break;
                }
            }
            let Some(&front) = self.waiters.front() else {
                return;
            };
            let slot = &mut self.slots[front as usize];
            if self.permits < slot.wants {
                return;
            }
            self.permits -= slot.wants;
            slot.granted = true;
            let waker = slot.waker.take();
            self.waiters.pop_front();
            self.live -= 1;
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }
}

/// An asynchronous counting semaphore.
///
/// Waiters are served strictly first-come first-served, which keeps the
/// simulation deterministic and models FIFO hardware queues (buses, DMA
/// engines) faithfully.
///
/// # Example
///
/// ```
/// use ddio_sim::{Sim, SimDuration, sync::Semaphore};
///
/// let mut sim = Sim::new();
/// let ctx = sim.context();
/// let sem = Semaphore::new(2);
/// for _ in 0..4 {
///     let ctx = ctx.clone();
///     let sem = sem.clone();
///     sim.spawn(async move {
///         let _permit = sem.acquire(1).await;
///         ctx.sleep(SimDuration::from_millis(10)).await;
///     });
/// }
/// // Four 10 ms critical sections through a 2-wide semaphore take 20 ms.
/// assert_eq!(sim.run().as_nanos(), 20_000_000);
/// ```
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<Inner>>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initially available permits.
    pub fn new(permits: u64) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(Inner {
                permits,
                waiters: VecDeque::new(),
                slots: Vec::new(),
                free: Vec::new(),
                live: 0,
            })),
        }
    }

    /// Number of currently available permits.
    pub fn available(&self) -> u64 {
        self.inner.borrow().permits
    }

    /// Number of tasks currently queued waiting for permits.
    pub fn queue_len(&self) -> usize {
        self.inner.borrow().live
    }

    /// Acquires `n` permits, waiting if necessary. The returned guard releases
    /// the permits when dropped.
    pub fn acquire(&self, n: u64) -> Acquire {
        Acquire {
            sem: self.clone(),
            wants: n,
            waiter: None,
            done: false,
        }
    }

    /// Attempts to acquire `n` permits without waiting.
    pub fn try_acquire(&self, n: u64) -> Option<Permit> {
        self.try_take(n).then(|| Permit {
            sem: self.clone(),
            n,
            released: false,
        })
    }

    /// Takes `n` permits without waiting and without a guard, under the
    /// condition on which [`Semaphore::acquire`]'s first poll grants them:
    /// nobody is queued and `n` permits are free. Returns whether it took
    /// them; the caller owes them back through [`Semaphore::add_permits`].
    pub fn try_take(&self, n: u64) -> bool {
        self.inner.borrow_mut().try_take(n)
    }

    /// Adds `n` permits to the semaphore (independently of any guard).
    pub fn add_permits(&self, n: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.permits += n;
        inner.grant();
    }

    fn release(&self, n: u64) {
        self.add_permits(n);
    }
}

/// A guard holding `n` permits of a [`Semaphore`]; dropping it releases them.
pub struct Permit {
    sem: Semaphore,
    n: u64,
    released: bool,
}

impl Permit {
    /// Number of permits held by this guard.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Releases the permits early (equivalent to dropping the guard).
    pub fn release(mut self) {
        self.release_inner();
    }

    /// Forgets the permits: they are *not* returned to the semaphore.
    ///
    /// Used to model consumable resources (e.g. buffer slots handed to
    /// another task which will release them itself via
    /// [`Semaphore::add_permits`]).
    pub fn forget(mut self) {
        self.released = true;
    }

    fn release_inner(&mut self) {
        if !self.released {
            self.released = true;
            self.sem.release(self.n);
        }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.release_inner();
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    wants: u64,
    waiter: Option<u32>,
    done: bool,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        let this = &mut *self;
        let mut inner = this.sem.inner.borrow_mut();
        if let Some(idx) = this.waiter {
            let slot = &mut inner.slots[idx as usize];
            if slot.granted {
                this.done = true;
                this.waiter = None;
                inner.free_waiter(idx);
                drop(inner);
                return Poll::Ready(Permit {
                    sem: this.sem.clone(),
                    n: this.wants,
                    released: false,
                });
            }
            slot.waker = Some(TaskRef::capture(cx));
            return Poll::Pending;
        }
        if inner.try_take(this.wants) {
            drop(inner);
            this.done = true;
            return Poll::Ready(Permit {
                sem: this.sem.clone(),
                n: this.wants,
                released: false,
            });
        }
        let idx = inner.alloc_waiter(this.wants, TaskRef::capture(cx));
        inner.waiters.push_back(idx);
        inner.live += 1;
        drop(inner);
        this.waiter = Some(idx);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if let Some(idx) = self.waiter {
            let mut inner = self.sem.inner.borrow_mut();
            let slot = &mut inner.slots[idx as usize];
            if slot.granted {
                // Permits were granted but never observed: give them back.
                inner.free_waiter(idx);
                drop(inner);
                self.sem.release(self.wants);
            } else {
                // Stays queued; `grant` recycles it at the head of the line.
                slot.cancelled = true;
                slot.waker = None;
                inner.live -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::Cell;

    #[test]
    fn uncontended_acquire_is_immediate() {
        let mut sim = Sim::new();
        let sem = Semaphore::new(3);
        let got = Rc::new(Cell::new(false));
        let got2 = Rc::clone(&got);
        let sem2 = sem.clone();
        sim.spawn(async move {
            let p = sem2.acquire(2).await;
            assert_eq!(p.count(), 2);
            got2.set(true);
        });
        sim.run();
        assert!(got.get());
        assert_eq!(sem.available(), 3);
    }

    #[test]
    fn permits_limit_concurrency() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let sem = Semaphore::new(1);
        for _ in 0..5 {
            let ctx = ctx.clone();
            let sem = sem.clone();
            sim.spawn(async move {
                let _p = sem.acquire(1).await;
                ctx.sleep(SimDuration::from_millis(2)).await;
            });
        }
        assert_eq!(sim.run().as_nanos(), 10_000_000);
    }

    #[test]
    fn fifo_ordering() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let sem = Semaphore::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let sem = sem.clone();
            let order = Rc::clone(&order);
            let ctx = ctx.clone();
            sim.spawn(async move {
                // Stagger arrival so queue order is well-defined.
                ctx.sleep(SimDuration::from_nanos(i as u64)).await;
                let _p = sem.acquire(1).await;
                order.borrow_mut().push(i);
            });
        }
        let sem2 = sem.clone();
        let ctx2 = ctx.clone();
        sim.spawn(async move {
            ctx2.sleep(SimDuration::from_micros(1)).await;
            sem2.add_permits(4);
        });
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_acquire_respects_queue() {
        let mut sim = Sim::new();
        let sem = Semaphore::new(1);
        let sem2 = sem.clone();
        sim.spawn(async move {
            let _held = sem2.acquire(1).await;
            // A second waiter queues up.
            let waiting = sem2.acquire(1);
            // try_acquire must fail both because no permits are free and
            // (after release) because someone is queued ahead.
            assert!(sem2.try_acquire(1).is_none());
            drop(waiting);
        });
        sim.run();
        assert!(sem.try_acquire(1).is_some());
    }

    #[test]
    fn try_take_grants_like_a_first_poll() {
        let mut sim = Sim::new();
        let sem = Semaphore::new(2);
        assert!(sem.try_take(2));
        assert_eq!(sem.available(), 0);
        assert!(!sem.try_take(1), "no permits free");
        let sem2 = sem.clone();
        let granted = Rc::new(Cell::new(false));
        let granted2 = Rc::clone(&granted);
        sim.spawn(async move {
            let _p = sem2.acquire(1).await;
            granted2.set(true);
        });
        sim.run();
        assert_eq!(sem.queue_len(), 1);
        sem.add_permits(1);
        assert!(!sem.try_take(1), "the queued waiter goes first");
        sim.run();
        assert!(granted.get());
        assert_eq!(sem.available(), 1, "the waiter released its permit");
        assert!(sem.try_take(1));
    }

    #[test]
    fn forget_moves_ownership_of_permits() {
        let mut sim = Sim::new();
        let sem = Semaphore::new(2);
        let sem2 = sem.clone();
        sim.spawn(async move {
            let p = sem2.acquire(2).await;
            p.forget();
        });
        sim.run();
        assert_eq!(sem.available(), 0);
        sem.add_permits(2);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn queue_len_counts_waiters() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let sem = Semaphore::new(1);
        let observed = Rc::new(Cell::new(usize::MAX));
        {
            let sem = sem.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                let _p = sem.acquire(1).await;
                ctx.sleep(SimDuration::from_millis(1)).await;
            });
        }
        for _ in 0..3 {
            let sem = sem.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_micros(1)).await;
                let _p = sem.acquire(1).await;
            });
        }
        {
            let sem = sem.clone();
            let ctx = ctx.clone();
            let observed = Rc::clone(&observed);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_micros(500)).await;
                observed.set(sem.queue_len());
            });
        }
        sim.run();
        assert_eq!(observed.get(), 3);
    }
}
