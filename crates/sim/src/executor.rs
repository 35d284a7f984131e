//! The discrete-event simulation executor.
//!
//! The executor is a single-threaded, deterministic async runtime whose notion
//! of "time" is the simulation clock rather than the wall clock. Simulated
//! processes (compute processors, I/O processors, disk servers, buffer
//! threads, ...) are ordinary `async` functions; waiting for simulated time to
//! pass is `ctx.sleep(duration).await`, and waiting for another process is
//! done through the primitives in [`crate::sync`].
//!
//! The design mirrors what the paper used Proteus for: an event-driven engine
//! that interleaves many logical threads and charges each action a configurable
//! amount of simulated time.
//!
//! # Runtime internals
//!
//! The hot path is built around four mechanisms (see DESIGN.md §8):
//!
//! * **Slab task storage** — tasks live in a `Vec` of slots indexed by the low
//!   32 bits of their [`TaskId`]; the high 32 bits carry a per-slot generation
//!   so a recycled slot never confuses a stale wake-up with a live task. Each
//!   slot owns its task's `Waker`, created once at spawn.
//! * **A thread-local wake path** — primitives capture a [`TaskRef`] (task id
//!   plus a weak reference to the simulation state) and waking is a plain
//!   `VecDeque::push_back`, no locking or allocation. Standard `Waker`s still
//!   work (they are required by `Future::poll`); they find their simulation
//!   through a thread-local registry, falling back to a mutex-protected queue
//!   only if woken from a foreign thread.
//! * **A `(deadline, seq)` binary heap of timers** — entries store a
//!   `TaskId`, not a boxed `Waker`. The simulator's timer traffic is small
//!   (13.5–32.6 pending sleeps on average across the benchmark workloads,
//!   at most 109) with millisecond deltas at 1 ns resolution, so one
//!   `O(log n)` push and pop per timer is cheaper than a hierarchical
//!   timer wheel, which would re-insert each entry about three times while
//!   cascading and rescan every level per step (DESIGN.md §8 has the
//!   profile).
//! * **Direct dispatch of the freshest timer** — the timer registered by
//!   the task being polled waits in a one-entry `fresh` slot, not the heap.
//!   When that poll returns `Pending`, the ready queue is empty, no foreign
//!   wake is pending, the fresh deadline is strictly before the heap's
//!   minimum, and it is no later than `run_until`'s limit, the loop does
//!   in place what it would do next anyway: sets the clock to the
//!   deadline, counts the firing and the poll, and re-polls the same task.
//!   Otherwise the entry moves to the heap. Poll order and
//!   `events_processed` are unchanged; 34–63 % of the benchmark workloads'
//!   timer pops skip the heap and the ready queue this way.
//!
//! # Determinism
//!
//! The run loop is deterministic: ready tasks run in FIFO order of wake-up,
//! and timers fire in `(deadline, registration sequence)` order — every
//! timer due at the clock's next instant is moved to the ready queue, in
//! sequence order, before any task is polled. Two runs of the same
//! simulation with the same seeds produce identical event orders and
//! identical final clocks. The test suite checks this property.
//!
//! # Example
//!
//! ```
//! use ddio_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new();
//! let ctx = sim.context();
//! sim.spawn(async move {
//!     ctx.sleep(SimDuration::from_millis(5)).await;
//! });
//! let end = sim.run();
//! assert_eq!(end, ddio_sim::SimTime::ZERO + SimDuration::from_millis(5));
//! ```

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task, unique within one [`Sim`].
///
/// Internally this packs a slab slot index (low 32 bits) and a slot
/// generation (high 32 bits), so ids from completed tasks are never confused
/// with the task currently occupying the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(u64);

impl TaskId {
    fn pack(index: u32, gen: u32) -> TaskId {
        TaskId(((gen as u64) << 32) | index as u64)
    }

    fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

type BoxedTask = Pin<Box<dyn Future<Output = ()>>>;

thread_local! {
    /// Simulations living on this thread, keyed by their unique id. `Waker`s
    /// route wake-ups back to their simulation through this registry without
    /// holding a strong reference (which would leak the state through the
    /// task → context → state cycle).
    static REGISTRY: RefCell<Vec<(u64, Weak<SimCore>)>> =
        const { RefCell::new(Vec::new()) };

    /// The task currently being polled by the executor on this thread, used
    /// by [`TaskRef::capture`] so primitives can wake by task id instead of
    /// cloning a `Waker`. A `Copy` id in a `Cell`, so marking each poll is
    /// two plain stores.
    static CURRENT: Cell<Option<TaskId>> = const { Cell::new(None) };

    /// The simulation whose run loop is active on this thread: the state
    /// that [`CURRENT`]'s task belongs to. Set once per [`Sim::run_until`],
    /// not once per poll.
    static CURRENT_SIM: RefCell<Weak<SimCore>> = const { RefCell::new(Weak::new()) };
}

/// Source of unique per-process simulation ids for the thread-local registry.
static NEXT_SIM_ID: AtomicU64 = AtomicU64::new(0);

/// State shared with `Waker`s, used only when a wake-up arrives from a thread
/// other than the one running the simulation (never on the hot path).
struct SimShared {
    foreign: Mutex<Vec<TaskId>>,
    pending: AtomicBool,
}

/// A waker that marks one task runnable.
///
/// On the owning thread it finds its simulation through the thread-local
/// registry and pushes straight onto the ready queue; from any other thread
/// it falls back to the mutex-protected foreign queue.
///
/// The task id is atomic so one waker (and its `Arc` allocation) can be
/// reused by every task that occupies the same slab slot: spawning re-points
/// the id instead of building a fresh waker. Machines spawn a detached task
/// per posted message, so spawn cost is a hot path.
struct TaskWaker {
    sim_id: u64,
    id: AtomicU64,
    shared: Arc<SimShared>,
}

impl TaskWaker {
    fn task_id(&self) -> TaskId {
        TaskId(self.id.load(Ordering::Relaxed))
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let delivered = REGISTRY.with(|r| {
            let reg = r.borrow();
            match reg.iter().find(|(id, _)| *id == self.sim_id) {
                // If the upgrade fails the simulation is being torn down and
                // the wake-up can be dropped.
                Some((_, weak)) => {
                    if let Some(core) = weak.upgrade() {
                        core.state.borrow_mut().ready.push_back(self.task_id());
                    }
                    true
                }
                None => false,
            }
        });
        if !delivered {
            self.shared
                .foreign
                .lock()
                .expect("foreign wake queue mutex poisoned")
                .push(self.task_id());
            self.shared.pending.store(true, Ordering::Release);
        }
    }
}

/// A lightweight handle that wakes the task being polled when it was
/// captured.
///
/// This is what the [`crate::sync`] primitives store in their waiter lists
/// instead of cloning the standard `Waker`: waking is then a plain FIFO push
/// onto the executor's ready queue, with no reference counting or locking.
/// When captured outside a simulation task (e.g. a future polled by some
/// other executor) it falls back to holding a clone of the provided `Waker`,
/// so the primitives remain usable anywhere.
pub struct TaskRef(TaskRefInner);

enum TaskRefInner {
    Task { id: TaskId, state: Weak<SimCore> },
    Foreign(Waker),
}

impl TaskRef {
    /// Captures a handle to the task currently being polled (falling back to
    /// `cx`'s waker when not called from inside a simulation task).
    pub fn capture(cx: &Context<'_>) -> TaskRef {
        match CURRENT.get() {
            Some(id) => TaskRef(TaskRefInner::Task {
                id,
                state: CURRENT_SIM.with_borrow(Weak::clone),
            }),
            None => TaskRef(TaskRefInner::Foreign(cx.waker().clone())),
        }
    }

    /// Wakes the captured task, consuming the handle.
    ///
    /// Waking a task whose simulation has been dropped is a no-op; waking a
    /// task that has already completed is harmless (the stale wake-up is
    /// skipped by the executor).
    pub fn wake(self) {
        match self.0 {
            TaskRefInner::Task { id, state } => {
                if let Some(core) = state.upgrade() {
                    core.state.borrow_mut().ready.push_back(id);
                }
            }
            TaskRefInner::Foreign(waker) => waker.wake(),
        }
    }
}

/// Restores the previous [`CURRENT`] task on drop, so the marker stays
/// correct even if a task's `poll` panics.
struct CurrentGuard(Option<TaskId>);

impl CurrentGuard {
    fn enter(id: TaskId) -> CurrentGuard {
        CurrentGuard(CURRENT.replace(Some(id)))
    }
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.set(self.0);
    }
}

/// Restores the previous [`CURRENT_SIM`] on drop, so a run loop nested in a
/// task of another simulation (or unwinding out of one) leaves the outer
/// simulation's marker intact.
struct SimGuard(Weak<SimCore>);

impl SimGuard {
    fn enter(core: &SimCore) -> SimGuard {
        SimGuard(CURRENT_SIM.replace(core.self_weak.clone()))
    }
}

impl Drop for SimGuard {
    fn drop(&mut self) {
        CURRENT_SIM.set(std::mem::take(&mut self.0));
    }
}

/// A slab slot owning one task and its waker.
///
/// The waker (and the `TaskWaker` allocation beneath it) is created once when
/// the slot first comes into existence and then reused by every subsequent
/// occupant: spawning re-points `ctl`'s atomic id. A standard `Waker` clone
/// held across its task's completion may therefore spuriously wake the
/// slot's next occupant — harmless for well-behaved futures, and the
/// in-crate primitives wake by exact `TaskId` (generation-checked) instead.
struct Slot {
    gen: u32,
    task: Option<BoxedTask>,
    /// `None` only while the task is checked out by the run loop.
    waker: Option<Waker>,
    /// The same allocation `waker` wraps, kept for re-pointing its id.
    ctl: Arc<TaskWaker>,
}

/// The shared heart of one simulation: the clock in a [`Cell`] so reading it
/// never takes the `RefCell` (contexts and guards call `now()` several times
/// per event), and everything else behind the `RefCell`.
struct SimCore {
    clock: Cell<SimTime>,
    state: RefCell<SimState>,
    /// A weak self-reference (set at construction), which [`Sim::run_until`]
    /// installs as [`CURRENT_SIM`] so [`TaskRef::capture`] can mint waiter
    /// handles without going through the registry.
    self_weak: Weak<SimCore>,
}

/// Mutable simulation state shared between the executor and [`SimContext`]s.
struct SimState {
    /// Pending timers as a min-heap on `(deadline ns, registration seq)`;
    /// `seq` is unique, so the `TaskId` never takes part in the order.
    timers: BinaryHeap<Reverse<(u64, u64, TaskId)>>,
    /// The latest timer registered during the current poll, held out of
    /// `timers` until the poll returns so the run loop can fire it straight
    /// back into its task (see [`SimState::fires_next`]). Empty whenever
    /// no poll is in progress.
    fresh: Option<(u64, u64, TaskId)>,
    timer_seq: u64,
    /// Slab of task slots; `free` holds recyclable indices.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Number of spawned-but-not-completed tasks.
    live: usize,
    /// Tasks woken and awaiting their next poll, in FIFO order.
    ready: VecDeque<TaskId>,
    /// Number of events (timer firings + task polls) processed so far.
    events_processed: u64,
    sim_id: u64,
    shared: Arc<SimShared>,
}

impl SimState {
    fn new(sim_id: u64, tasks: usize) -> Self {
        SimState {
            timers: BinaryHeap::new(),
            fresh: None,
            timer_seq: 0,
            slots: Vec::with_capacity(tasks),
            free: Vec::new(),
            live: 0,
            ready: VecDeque::with_capacity(tasks),
            events_processed: 0,
            sim_id,
            shared: Arc::new(SimShared {
                foreign: Mutex::new(Vec::new()),
                pending: AtomicBool::new(false),
            }),
        }
    }

    /// Installs a task in a free slot (re-pointing the slot's reusable waker)
    /// and marks it runnable. The single entry point for both root and
    /// in-task spawns keeps wake ordering identical between them.
    fn spawn_boxed(&mut self, task: BoxedTask) -> TaskId {
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "task slab exhausted");
                let ctl = Arc::new(TaskWaker {
                    sim_id: self.sim_id,
                    id: AtomicU64::new(0),
                    shared: Arc::clone(&self.shared),
                });
                self.slots.push(Slot {
                    gen: 0,
                    task: None,
                    waker: Some(Waker::from(Arc::clone(&ctl))),
                    ctl,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[index as usize];
        let id = TaskId::pack(index, slot.gen);
        debug_assert!(slot.waker.is_some(), "free slot missing its waker");
        slot.ctl.id.store(id.0, Ordering::Relaxed);
        slot.task = Some(task);
        self.live += 1;
        self.ready.push_back(id);
        id
    }

    fn register_timer(&mut self, deadline: SimTime, task: TaskId) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        if let Some(older) = self.fresh.replace((deadline.as_nanos(), seq, task)) {
            self.timers.push(Reverse(older));
        }
    }

    /// Whether, once the current poll returns `Pending`, the run loop's next
    /// steps would be exactly "fire the fresh timer due at `deadline`, then
    /// poll its task": nothing is runnable or arriving from another thread,
    /// the timer is due strictly before every heap entry (a tie fires the
    /// older registration first), and it is within `limit`.
    fn fires_next(&self, deadline: u64, limit: u64) -> bool {
        self.ready.is_empty()
            && deadline <= limit
            && !self.shared.pending.load(Ordering::Relaxed)
            && match self.timers.peek() {
                Some(&Reverse((min, _, _))) => deadline < min,
                None => true,
            }
    }

    /// Adopts wake-ups that arrived from foreign threads (cold path).
    fn drain_foreign(&mut self) {
        let mut queue = self
            .shared
            .foreign
            .lock()
            .expect("foreign wake queue mutex poisoned");
        for id in queue.drain(..) {
            self.ready.push_back(id);
        }
    }
}

/// The discrete-event simulator: owns the clock, the event calendar, and all
/// spawned tasks.
pub struct Sim {
    core: Rc<SimCore>,
    sim_id: u64,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty simulation with storage pre-sized for `tasks`
    /// concurrently live tasks, avoiding slab regrowth during the run.
    pub fn with_capacity(tasks: usize) -> Self {
        let sim_id = NEXT_SIM_ID.fetch_add(1, Ordering::Relaxed);
        let core = Rc::new_cyclic(|self_weak| SimCore {
            clock: Cell::new(SimTime::ZERO),
            state: RefCell::new(SimState::new(sim_id, tasks)),
            self_weak: self_weak.clone(),
        });
        REGISTRY.with(|r| r.borrow_mut().push((sim_id, Rc::downgrade(&core))));
        Sim { core, sim_id }
    }

    /// Returns the simulation to its initial state — time zero, no tasks, no
    /// timers, zeroed event counter — while keeping the slab, queue, and
    /// timer-heap allocations for reuse. Any still-pending tasks are dropped.
    ///
    /// This is what lets the experiment harness run many transfers on one
    /// `Sim` without paying allocation and teardown per transfer.
    pub fn reset(&mut self) {
        let doomed = self.take_tasks();
        // Run task destructors with the state unborrowed: they may wake other
        // tasks or drop sync primitives that call back into the state.
        drop(doomed);
        self.core.clock.set(SimTime::ZERO);
        let mut st = self.core.state.borrow_mut();
        let st = &mut *st;
        st.free.clear();
        for (index, slot) in st.slots.iter().enumerate().rev() {
            debug_assert!(slot.task.is_none(), "task survived reset");
            st.free.push(index as u32);
        }
        st.live = 0;
        st.ready.clear();
        st.timer_seq = 0;
        st.events_processed = 0;
        st.timers.clear();
        st.fresh = None;
        st.shared
            .foreign
            .lock()
            .expect("foreign wake queue mutex poisoned")
            .clear();
        st.shared.pending.store(false, Ordering::Relaxed);
    }

    /// Takes every live task out of the slab, bumping slot generations so
    /// stale ids cannot reach future occupants. The slots keep their reusable
    /// wakers. Dropping the returned tasks must happen with the state
    /// unborrowed.
    fn take_tasks(&mut self) -> Vec<Option<BoxedTask>> {
        let mut st = self.core.state.borrow_mut();
        st.slots
            .iter_mut()
            .map(|slot| {
                slot.gen = slot.gen.wrapping_add(1);
                slot.task.take()
            })
            .collect()
    }

    /// Returns a handle that tasks use to read the clock, sleep, and spawn
    /// further tasks. Handles are cheap to clone.
    pub fn context(&self) -> SimContext {
        SimContext {
            core: Rc::clone(&self.core),
        }
    }

    /// Spawns a root task onto the simulation.
    ///
    /// The task starts running when [`Sim::run`] is called. Returns the new
    /// task's id.
    pub fn spawn<F>(&mut self, future: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let task: BoxedTask = Box::pin(future);
        self.core.state.borrow_mut().spawn_boxed(task)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.clock.get()
    }

    /// Number of events (task polls and timer firings) processed so far.
    ///
    /// Useful for profiling the simulator itself.
    pub fn events_processed(&self) -> u64 {
        self.core.state.borrow().events_processed
    }

    /// Runs the simulation until no task can make further progress (all tasks
    /// finished or every remaining task is blocked with no pending timer).
    ///
    /// Returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs the simulation, but never advances the clock past `limit`.
    ///
    /// Events scheduled exactly at `limit` do fire. Returns the time at which
    /// the run stopped (either quiescence or `limit`).
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        let _sim = SimGuard::enter(&self.core);
        loop {
            // Pop the next runnable task and check it out of its slot under a
            // single borrow, in FIFO wake order. Stale wake-ups (completed
            // generation, or a task already checked out) are skipped without
            // counting as events.
            let next = {
                let mut st = self.core.state.borrow_mut();
                // Cold path: wake-ups from other threads (the mutex inside
                // drain_foreign provides the ordering; the flag is a hint).
                if st.shared.pending.load(Ordering::Relaxed) {
                    st.shared.pending.store(false, Ordering::Relaxed);
                    st.drain_foreign();
                }
                loop {
                    let Some(id) = st.ready.pop_front() else {
                        break None;
                    };
                    let Some(slot) = st.slots.get_mut(id.index()) else {
                        continue;
                    };
                    if slot.gen != id.generation() {
                        continue;
                    }
                    let Some(task) = slot.task.take() else {
                        continue;
                    };
                    let waker = slot.waker.take().expect("live slot without waker");
                    st.events_processed += 1;
                    break Some((id, task, waker));
                }
            };
            if let Some((id, task, waker)) = next {
                self.poll_task(id, task, waker, limit);
                continue;
            }

            // Nothing runnable: advance the clock to the next timer.
            let mut st = self.core.state.borrow_mut();
            let st = &mut *st;
            let deadline = match st.timers.peek() {
                Some(&Reverse((deadline, _, _))) if deadline <= limit.as_nanos() => deadline,
                _ => break,
            };
            debug_assert!(
                deadline >= self.core.clock.get().as_nanos(),
                "event calendar went backwards"
            );
            self.core.clock.set(SimTime::from_nanos(deadline));
            // Fire every timer with this deadline before polling, so
            // simultaneous events are handled in registration order.
            while let Some(&Reverse((due, _, task))) = st.timers.peek() {
                if due != deadline {
                    break;
                }
                st.timers.pop();
                st.ready.push_back(task);
                st.events_processed += 1;
            }
        }
        // A pending timer past the limit still advances the clock to the
        // limit itself (the caller asked for that much simulated time).
        {
            let st = self.core.state.borrow();
            if limit != SimTime::MAX && !st.timers.is_empty() && limit > self.core.clock.get() {
                self.core.clock.set(limit);
            }
        }
        self.now()
    }

    /// Returns the number of tasks that have been spawned but not yet
    /// completed (including blocked tasks).
    pub fn live_tasks(&self) -> usize {
        self.core.state.borrow().live
    }

    /// Polls a task already checked out of its slot by the run loop, and
    /// re-polls it in place for as long as the timer it just registered is
    /// the run loop's next event ([`SimState::fires_next`]): the clock
    /// moves and the firing and the poll are counted exactly as the loop
    /// would, minus the heap and ready-queue round trip.
    fn poll_task(&mut self, id: TaskId, mut task: BoxedTask, waker: Waker, limit: SimTime) {
        let index = id.index();
        let (poll, mut state) = loop {
            let poll = {
                let _current = CurrentGuard::enter(id);
                let mut cx = Context::from_waker(&waker);
                task.as_mut().poll(&mut cx)
            };
            let mut st = self.core.state.borrow_mut();
            if let Some(timer @ (deadline, _, owner)) = st.fresh.take() {
                debug_assert_eq!(owner, id, "fresh timer registered by another task");
                if poll.is_pending() && st.fires_next(deadline, limit.as_nanos()) {
                    self.core.clock.set(SimTime::from_nanos(deadline));
                    st.events_processed += 2;
                    continue;
                }
                st.timers.push(Reverse(timer));
            }
            break (poll, st);
        };
        let st = &mut *state;
        let slot = &mut st.slots[index];
        // The waker goes back either way: pending tasks need it for their
        // next poll, completed slots keep it for their next occupant.
        slot.waker = Some(waker);
        match poll {
            Poll::Pending => {
                slot.task = Some(task);
                return;
            }
            Poll::Ready(()) => {
                slot.gen = slot.gen.wrapping_add(1);
                st.free.push(index as u32);
                st.live -= 1;
            }
        }
        drop(state);
        // Completed: drop the task body with the state unborrowed —
        // destructors may wake other tasks or spawn.
        drop(task);
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        REGISTRY.with(|r| r.borrow_mut().retain(|(id, _)| *id != self.sim_id));
        // Tasks hold `SimContext`s, which hold the state that holds the
        // tasks; taking the tasks out breaks that cycle so the state is
        // actually freed once the last external context goes away.
        let doomed = self.take_tasks();
        drop(doomed);
    }
}

/// A cloneable handle to the running simulation, used from inside tasks.
#[derive(Clone)]
pub struct SimContext {
    core: Rc<SimCore>,
}

impl SimContext {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.clock.get()
    }

    /// Suspends the calling task for `duration` of simulated time.
    pub fn sleep(&self, duration: SimDuration) -> Sleep {
        Sleep {
            ctx: self.clone(),
            deadline: self.now() + duration,
            registered: false,
        }
    }

    /// Suspends the calling task until the absolute instant `deadline`.
    ///
    /// Completes immediately if `deadline` is in the past.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            ctx: self.clone(),
            deadline,
            registered: false,
        }
    }

    /// Yields once, letting every other currently-runnable task run before
    /// this task continues (at the same simulated time).
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Spawns a new task. The task becomes runnable immediately (at the
    /// current simulated time) and runs concurrently with the caller.
    ///
    /// Returns a [`JoinHandle`] that can be awaited for the task's result.
    pub fn spawn<F, T>(&self, future: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let slot: Rc<RefCell<JoinSlot<T>>> = Rc::new(RefCell::new(JoinSlot {
            value: None,
            finished: false,
            waiter: None,
        }));
        let slot2 = Rc::clone(&slot);
        let wrapped = async move {
            let value = future.await;
            let waiter = {
                let mut s = slot2.borrow_mut();
                s.value = Some(value);
                s.finished = true;
                s.waiter.take()
            };
            if let Some(w) = waiter {
                w.wake();
            }
        };
        let task: BoxedTask = Box::pin(wrapped);
        let id = self.core.state.borrow_mut().spawn_boxed(task);
        JoinHandle { id, slot }
    }

    /// Spawns a fire-and-forget task: runnable immediately, exactly like
    /// [`SimContext::spawn`], but with none of the join machinery — boxing
    /// the future is the only allocation. Wake ordering and event counts are
    /// identical to `spawn` (both go through the same slot installer), so the
    /// two are interchangeable wherever the [`JoinHandle`] is unused; the
    /// per-message and per-request hot paths use this one.
    pub fn spawn_detached<F>(&self, future: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        self.core.state.borrow_mut().spawn_boxed(Box::pin(future))
    }

    /// One poll step of a sleep: ready if `deadline` has passed, otherwise
    /// registers a timer waking the task currently being polled (once). A
    /// single method so the deadline check and the registration share one
    /// borrow of the state — sleeps are the hottest future in the simulator.
    ///
    /// # Panics
    ///
    /// Panics if registration is needed outside a simulation task: timers
    /// wake by task id, so there must be a current task to wake.
    pub(crate) fn poll_sleep(&self, deadline: SimTime, registered: &mut bool) -> Poll<()> {
        let now = self.core.clock.get();
        if now >= deadline {
            return Poll::Ready(());
        }
        if !*registered {
            *registered = true;
            let id = CURRENT.get().expect(
                "sleep futures can only be polled from within a task spawned on the simulation",
            );
            debug_assert!(
                CURRENT_SIM.with_borrow(|sim| sim.ptr_eq(&self.core.self_weak)),
                "sleep future polled by a task belonging to a different Sim"
            );
            self.core.state.borrow_mut().register_timer(deadline, id);
        }
        Poll::Pending
    }
}

/// Future returned by [`SimContext::sleep`].
pub struct Sleep {
    ctx: SimContext,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        this.ctx.poll_sleep(this.deadline, &mut this.registered)
    }
}

/// Future returned by [`SimContext::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct JoinSlot<T> {
    value: Option<T>,
    /// Set once the task completes and never cleared, so
    /// [`JoinHandle::is_finished`] stays true after the value is taken.
    finished: bool,
    waiter: Option<TaskRef>,
}

/// Handle to a spawned task; awaiting it yields the task's return value.
pub struct JoinHandle<T> {
    id: TaskId,
    slot: Rc<RefCell<JoinSlot<T>>>,
}

impl<T> JoinHandle<T> {
    /// The id of the task this handle refers to.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Returns true if the task has finished (its value may already have been
    /// taken by an earlier await).
    pub fn is_finished(&self) -> bool {
        self.slot.borrow().finished
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.slot.borrow_mut();
        if let Some(v) = slot.value.take() {
            Poll::Ready(v)
        } else {
            slot.waiter = Some(TaskRef::capture(cx));
            Poll::Pending
        }
    }
}

/// Awaits every join handle in `handles`, in order, returning their results.
///
/// Because the simulator is cooperative this is equivalent to a "join all":
/// all spawned tasks keep running concurrently while the caller waits.
pub async fn join_all<T>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn empty_simulation_finishes_at_time_zero() {
        let mut sim = Sim::new();
        assert_eq!(sim.run(), SimTime::ZERO);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn sleep_advances_the_clock() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(3)).await;
            ctx.sleep(SimDuration::from_millis(4)).await;
        });
        let end = sim.run();
        assert_eq!(end, SimTime::from_nanos(7_000_000));
    }

    #[test]
    fn zero_length_sleep_completes() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            ctx.sleep(SimDuration::ZERO).await;
            done2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn concurrent_sleeps_overlap() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        for _ in 0..10 {
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(10)).await;
            });
        }
        // Ten concurrent 10 ms sleeps take 10 ms, not 100 ms.
        assert_eq!(sim.run(), SimTime::from_nanos(10_000_000));
    }

    #[test]
    fn spawn_from_task_and_join() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let result = Rc::new(Cell::new(0u64));
        let result2 = Rc::clone(&result);
        sim.spawn(async move {
            let child = ctx.spawn({
                let ctx = ctx.clone();
                async move {
                    ctx.sleep(SimDuration::from_micros(5)).await;
                    42u64
                }
            });
            result2.set(child.await);
        });
        sim.run();
        assert_eq!(result.get(), 42);
    }

    #[test]
    fn join_all_waits_for_every_child() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let total = Rc::new(Cell::new(0u64));
        let total2 = Rc::clone(&total);
        sim.spawn(async move {
            let handles: Vec<_> = (0..8u64)
                .map(|i| {
                    let child_ctx = ctx.clone();
                    ctx.spawn(async move {
                        child_ctx.sleep(SimDuration::from_micros(i)).await;
                        i
                    })
                })
                .collect();
            let results = join_all(handles).await;
            total2.set(results.iter().sum());
        });
        let end = sim.run();
        assert_eq!(total.get(), 28);
        assert_eq!(end, SimTime::ZERO + SimDuration::from_micros(7));
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (label, delay_us) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_micros(delay_us)).await;
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_micros(7)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_until_stops_at_the_limit() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_secs(100)).await;
            done2.set(true);
        });
        let stop = sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(stop, SimTime::ZERO + SimDuration::from_secs(1));
        assert!(!done.get());
        assert_eq!(sim.live_tasks(), 1);
        // Resuming without a limit lets the task finish.
        let end = sim.run();
        assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(100));
        assert!(done.get());
    }

    #[test]
    fn yield_now_interleaves_tasks_at_the_same_time() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let order = Rc::new(RefCell::new(Vec::new()));
        for name in ["x", "y"] {
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                for round in 0..3 {
                    order.borrow_mut().push(format!("{name}{round}"));
                    ctx.yield_now().await;
                }
            });
        }
        sim.run();
        let got = order.borrow().join(",");
        assert_eq!(got, "x0,y0,x1,y1,x2,y2");
    }

    #[test]
    fn sleep_until_past_deadline_is_immediate() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
            // Deadline already passed; must not deadlock or rewind.
            ctx.sleep_until(SimTime::ZERO).await;
        });
        assert_eq!(sim.run(), SimTime::ZERO + SimDuration::from_millis(1));
    }

    #[test]
    fn deterministic_event_counts() {
        let run = || {
            let mut sim = Sim::new();
            let ctx = sim.context();
            for i in 0..50u64 {
                let ctx = ctx.clone();
                sim.spawn(async move {
                    ctx.sleep(SimDuration::from_micros(i % 7)).await;
                    ctx.sleep(SimDuration::from_micros(i % 3)).await;
                });
            }
            sim.run();
            (sim.now(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn is_finished_stays_true_after_value_taken() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let checked = Rc::new(Cell::new(false));
        let checked2 = Rc::clone(&checked);
        sim.spawn(async move {
            let mut handle = ctx.spawn({
                let ctx = ctx.clone();
                async move {
                    ctx.sleep(SimDuration::from_micros(1)).await;
                    11u8
                }
            });
            assert!(!handle.is_finished());
            // Awaiting by reference leaves the handle usable afterwards
            // (JoinHandle is Unpin).
            assert_eq!((&mut handle).await, 11);
            // Regression: the value has been taken, but the task is still
            // finished — the doc promises is_finished stays true.
            assert!(handle.is_finished());
            checked2.set(true);
        });
        sim.run();
        assert!(checked.get());
    }

    #[test]
    fn reset_reuses_a_sim_deterministically() {
        let workload = |sim: &mut Sim| {
            let ctx = sim.context();
            for i in 0..20u64 {
                let ctx = ctx.clone();
                sim.spawn(async move {
                    ctx.sleep(SimDuration::from_micros(i % 5 + 1)).await;
                    ctx.yield_now().await;
                });
            }
            (sim.run(), sim.events_processed())
        };
        let mut fresh = Sim::new();
        let expected = workload(&mut fresh);
        let mut reused = Sim::new();
        for _ in 0..3 {
            assert_eq!(workload(&mut reused), expected);
            assert_eq!(reused.live_tasks(), 0);
            reused.reset();
            assert_eq!(reused.now(), SimTime::ZERO);
            assert_eq!(reused.events_processed(), 0);
        }
    }

    #[test]
    fn reset_drops_pending_tasks() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let dropped = Rc::new(Cell::new(false));
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let marker = SetOnDrop(Rc::clone(&dropped));
        sim.spawn(async move {
            let _marker = marker;
            ctx.sleep(SimDuration::from_secs(1_000_000)).await;
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(sim.live_tasks(), 1);
        sim.reset();
        assert!(dropped.get(), "pending task dropped by reset");
        assert_eq!(sim.live_tasks(), 0);
        // The sim is fully reusable afterwards.
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(2)).await;
        });
        assert_eq!(sim.run(), SimTime::ZERO + SimDuration::from_millis(2));
    }

    #[test]
    fn timers_handle_wide_deadline_spreads() {
        // Deadlines from nanoseconds to beyond 2^48 ns, with deliberate
        // same-deadline collisions; completion order must be
        // (deadline, registration) order.
        let mut sim = Sim::new();
        let ctx = sim.context();
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut delays: Vec<u64> = Vec::new();
        for level in 0..10u32 {
            let base = 1u64 << (6 * level.min(9));
            delays.push(base + 3);
            delays.push(base + 3); // collision
            delays.push(base.saturating_mul(17) + 1);
        }
        delays.push(1 << 50); // beyond 2^48 ns
        delays.push((1 << 50) + 1);
        let mut expected: Vec<(u64, usize)> = delays
            .iter()
            .copied()
            .enumerate()
            .map(|(i, d)| (d, i))
            .collect();
        expected.sort();
        for (i, d) in delays.iter().copied().enumerate() {
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(d)).await;
                order.borrow_mut().push((d, i));
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), expected);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn foreign_thread_wakes_are_adopted_on_resume() {
        // A waker cloned out of a task and woken from another thread must
        // still mark the task runnable (via the mutex-protected fallback).
        use std::sync::mpsc;

        struct HandOut {
            sent: bool,
            tx: mpsc::Sender<Waker>,
        }
        impl Future for HandOut {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.sent {
                    return Poll::Ready(());
                }
                self.sent = true;
                self.tx.send(cx.waker().clone()).expect("receiver alive");
                Poll::Pending
            }
        }

        let mut sim = Sim::new();
        let (tx, rx) = mpsc::channel::<Waker>();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            HandOut { sent: false, tx }.await;
            done2.set(true);
        });
        sim.run();
        assert!(!done.get(), "task parked waiting for the foreign wake");
        let waker = rx.recv().expect("waker handed out");
        std::thread::spawn(move || waker.wake())
            .join()
            .expect("wake thread");
        sim.run();
        assert!(done.get(), "foreign wake resumed the task");
    }

    #[test]
    fn task_ids_are_not_reused_while_live() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let ids = Rc::new(RefCell::new(Vec::new()));
        let ids2 = Rc::clone(&ids);
        sim.spawn(async move {
            for _ in 0..4 {
                let h = ctx.spawn(async move {});
                ids2.borrow_mut().push(h.id());
                h.await;
            }
        });
        sim.run();
        let ids = ids.borrow();
        // Slots recycle, but the generation tag keeps every id distinct.
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    /// Every poll of a traced task, as `(label, clock in ns)`.
    type PollLog = Rc<RefCell<Vec<(&'static str, u64)>>>;

    /// Spawns `body` under `label`, logging each poll it receives.
    fn spawn_traced<F>(sim: &mut Sim, log: &PollLog, label: &'static str, body: F)
    where
        F: Future<Output = ()> + 'static,
    {
        let ctx = sim.context();
        let log = Rc::clone(log);
        let mut body = Box::pin(body);
        sim.spawn(std::future::poll_fn(move |cx| {
            log.borrow_mut().push((label, ctx.now().as_nanos()));
            body.as_mut().poll(cx)
        }));
    }

    #[test]
    fn direct_dispatch_refires_a_lone_sleeper_in_order() {
        let mut sim = Sim::new();
        let log = PollLog::default();
        let ctx = sim.context();
        spawn_traced(&mut sim, &log, "a", async move {
            for ns in [3, 4, 5] {
                ctx.sleep(SimDuration::from_nanos(ns)).await;
            }
        });
        assert_eq!(sim.run(), SimTime::from_nanos(12));
        assert_eq!(*log.borrow(), [("a", 0), ("a", 3), ("a", 7), ("a", 12)]);
        // One start poll, then a firing and a poll per sleep.
        assert_eq!(sim.events_processed(), 1 + 3 * 2);
        // Every timer was dispatched directly: the heap never allocated.
        assert_eq!(sim.core.state.borrow().timers.capacity(), 0);
    }

    #[test]
    fn direct_dispatch_lets_an_older_tied_timer_fire_first() {
        // `a` registers 10 ns first (its timer goes to the heap: `b` is
        // still queued); `b` then registers the same deadline with nothing
        // runnable. A tie is not "strictly before the heap", so `a` fires
        // first, as the heap's sequence order says.
        let mut sim = Sim::new();
        let log = PollLog::default();
        for label in ["a", "b"] {
            let ctx = sim.context();
            spawn_traced(&mut sim, &log, label, async move {
                ctx.sleep(SimDuration::from_nanos(10)).await;
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), [("a", 0), ("b", 0), ("a", 10), ("b", 10)]);
        assert_eq!(sim.events_processed(), 2 + 2 * 2);
    }

    #[test]
    fn direct_dispatch_stops_at_the_limit_and_resumes() {
        let mut sim = Sim::new();
        let log = PollLog::default();
        let ctx = sim.context();
        spawn_traced(&mut sim, &log, "a", async move {
            ctx.sleep(SimDuration::from_nanos(5)).await;
            ctx.sleep(SimDuration::from_nanos(100)).await;
        });
        // The 5 ns timer is dispatched; the one due at 105 is past the
        // limit, so it waits in the heap and the clock stops at the limit.
        assert_eq!(
            sim.run_until(SimTime::from_nanos(50)),
            SimTime::from_nanos(50)
        );
        assert_eq!(*log.borrow(), [("a", 0), ("a", 5)]);
        assert_eq!(sim.events_processed(), 1 + 2);
        assert_eq!(sim.live_tasks(), 1);
        // A limit exactly at the deadline fires it.
        assert_eq!(
            sim.run_until(SimTime::from_nanos(105)),
            SimTime::from_nanos(105)
        );
        assert_eq!(*log.borrow(), [("a", 0), ("a", 5), ("a", 105)]);
        assert_eq!(sim.events_processed(), 1 + 2 * 2);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn a_wake_in_the_same_poll_blocks_direct_dispatch() {
        // `a` wakes the parked `b` and then sleeps in one poll: `b` is
        // runnable, so it runs at time 0 before `a`'s timer fires.
        let mut sim = Sim::new();
        let log = PollLog::default();
        let (tx, rx) = crate::sync::unbounded::<u32>();
        spawn_traced(&mut sim, &log, "b", async move {
            rx.recv().await;
        });
        let ctx = sim.context();
        spawn_traced(&mut sim, &log, "a", async move {
            tx.send(1).await.expect("receiver alive");
            ctx.sleep(SimDuration::from_nanos(10)).await;
        });
        assert_eq!(sim.run(), SimTime::from_nanos(10));
        assert_eq!(*log.borrow(), [("b", 0), ("a", 0), ("b", 0), ("a", 10)]);
        assert_eq!(sim.events_processed(), 3 + 2);
    }

    #[test]
    fn reset_clears_the_fresh_timer() {
        let workload = |sim: &mut Sim| {
            let log = PollLog::default();
            for (label, ns) in [("a", 7), ("b", 3)] {
                let ctx = sim.context();
                spawn_traced(sim, &log, label, async move {
                    ctx.sleep(SimDuration::from_nanos(ns)).await;
                    ctx.sleep(SimDuration::from_nanos(ns)).await;
                });
            }
            let end = sim.run();
            let polls = log.borrow().clone();
            (polls, end, sim.events_processed())
        };
        let expected = workload(&mut Sim::new());
        let mut sim = Sim::new();
        workload(&mut sim);
        // A poll that unwinds after registering a timer leaves it in
        // `fresh`; reset must drop it with the heap's timers.
        sim.core
            .state
            .borrow_mut()
            .register_timer(SimTime::from_nanos(1), TaskId::pack(0, 0));
        sim.reset();
        assert!(sim.core.state.borrow().fresh.is_none());
        assert_eq!(workload(&mut sim), expected);
    }
}
