//! Property-based tests of the executor itself under adversarial schedules:
//! random scripts of spawns, sleeps, yields, and channel traffic must run
//! deterministically (identical final clock and event count on every run)
//! and leave no live tasks behind after quiescence, random sleep scripts
//! must fire in exactly the order a `(deadline, registration order)` sort
//! gives, and random scripts of sleeps, yields, cross-task wakes and
//! abandoned timers must trace exactly what a reference interpreter of the
//! documented run-loop contract traces.
//!
//! The two schedule tests also have `#[ignore]`d 1024-case variants:
//! `cargo test --release -p ddio-sim --test proptest_executor -- --ignored`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::task::{Poll, Waker};

use proptest::prelude::*;

use ddio_sim::sync::{bounded, unbounded};
use ddio_sim::{Sim, SimDuration, SimTime};

/// One step of a task's random script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Sleep for the given number of nanoseconds.
    Sleep(u64),
    /// Yield to the back of the ready queue.
    Yield,
    /// Send one message on the shared channel.
    Send,
    /// Poll the shared channel without blocking. (A blocking receive could
    /// genuinely deadlock: every script task holds a sender clone, so a
    /// parked receiver would keep the channel open forever. The bounded
    /// test below covers blocking receives.)
    Recv,
    /// Spawn a child task that sleeps and then exits.
    SpawnChild(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..100_000).prop_map(Op::Sleep),
        Just(Op::Yield),
        Just(Op::Send),
        Just(Op::Recv),
        (1u64..10_000).prop_map(Op::SpawnChild),
    ]
}

/// Runs `scripts` to completion on a fresh simulator and reports the
/// observable outcome `(final time in ns, events processed)`.
fn run_scripts(sim: &mut Sim, scripts: &[Vec<Op>]) -> (u64, u64) {
    let ctx = sim.context();
    let (tx, rx) = unbounded::<u64>();
    for script in scripts.iter().cloned() {
        let ctx = ctx.clone();
        let tx = tx.clone();
        let rx = rx.clone();
        sim.spawn(async move {
            for op in script {
                match op {
                    Op::Sleep(ns) => ctx.sleep(SimDuration::from_nanos(ns)).await,
                    Op::Yield => ctx.yield_now().await,
                    Op::Send => {
                        let _ = tx.send(1).await;
                    }
                    Op::Recv => {
                        let _ = rx.try_recv();
                    }
                    Op::SpawnChild(ns) => {
                        let ctx = ctx.clone();
                        ctx.clone().spawn(async move {
                            ctx.sleep(SimDuration::from_nanos(ns)).await;
                        });
                    }
                }
            }
        });
    }
    // Drop the root handles so `Recv` steps see `None` once every task-held
    // sender is gone, and drain whatever was sent but never received.
    drop(tx);
    sim.spawn(async move { while rx.recv().await.is_some() {} });
    let end = sim.run();
    (end.as_nanos(), sim.events_processed())
}

/// A sleep length that stresses timer ordering: zero (completes without
/// registering a timer), tiny values that make deadlines collide,
/// millisecond values like the simulator's own traffic, and values around
/// and beyond 2^48 ns.
fn sleep_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..4,
        (1u64..4).prop_map(|ms| ms * 1_000_000),
        (0u64..3).prop_map(|k| (1u64 << 48) - 1 + k),
        (1u64 << 48)..(1u64 << 50),
    ]
}

/// A `run_until` limit: before, among, or after the drawn deadlines.
fn limit_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..8, 0u64..5_000_000, (1u64 << 48)..(1u64 << 51)]
}

/// One completed sleep: `(task, step, clock in ns when it completed)`.
type Fired = (usize, usize, u64);

/// Spawns one task per script, each sleeping through its script and logging
/// every completed step.
fn spawn_sleepers(sim: &mut Sim, scripts: &[Vec<u64>]) -> Rc<RefCell<Vec<Fired>>> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let ctx = sim.context();
    for (task, script) in scripts.iter().cloned().enumerate() {
        let ctx = ctx.clone();
        let log = Rc::clone(&log);
        sim.spawn(async move {
            for (step, ns) in script.into_iter().enumerate() {
                ctx.sleep(SimDuration::from_nanos(ns)).await;
                log.borrow_mut().push((task, step, ctx.now().as_nanos()));
            }
        });
    }
    log
}

/// Runs `script` of `task` from `step` at `now` until it registers a timer
/// (a nonzero sleep) or ends; zero sleeps complete on the spot.
fn advance(
    script: &[u64],
    task: usize,
    mut step: usize,
    now: u64,
    registered: &mut u64,
    pending: &mut Vec<(u64, u64, usize, usize)>,
    out: &mut Vec<Fired>,
) {
    while let Some(&ns) = script.get(step) {
        if ns > 0 {
            pending.push((now + ns, *registered, task, step));
            *registered += 1;
            return;
        }
        out.push((task, step, now));
        step += 1;
    }
}

/// The reference order for [`spawn_sleepers`] run up to `limit`: tasks start
/// in spawn order, then the pending timer with the least `(deadline,
/// registration number)` fires, one at a time. A linear scan, so it shares
/// no code or data structure with the executor. Also reports whether timers
/// are still pending.
fn reference_order(scripts: &[Vec<u64>], limit: u64) -> (Vec<Fired>, bool) {
    let mut out = Vec::new();
    let mut pending = Vec::new();
    let mut registered = 0u64;
    for (task, script) in scripts.iter().enumerate() {
        advance(script, task, 0, 0, &mut registered, &mut pending, &mut out);
    }
    while let Some(next) = (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1)) {
        let (deadline, _, task, step) = pending[next];
        if deadline > limit {
            break;
        }
        pending.swap_remove(next);
        out.push((task, step, deadline));
        advance(
            &scripts[task],
            task,
            step + 1,
            deadline,
            &mut registered,
            &mut pending,
            &mut out,
        );
    }
    (out, !pending.is_empty())
}

/// Up to a dozen tasks, each sleeping through up to five random lengths.
fn sleep_scripts_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(sleep_strategy(), 0..6), 1..12)
}

fn check_timer_order(scripts: &[Vec<u64>], limit: u64) -> Result<(), TestCaseError> {
    let mut sim = Sim::new();
    let log = spawn_sleepers(&mut sim, scripts);
    let (prefix, pending) = reference_order(scripts, limit);
    let stop = sim.run_until(SimTime::from_nanos(limit)).as_nanos();
    prop_assert_eq!(&*log.borrow(), &prefix, "order up to the limit");
    let last = prefix.last().map_or(0, |&(_, _, at)| at);
    prop_assert_eq!(stop, if pending && limit > last { limit } else { last });

    let (expected, _) = reference_order(scripts, u64::MAX);
    sim.run();
    prop_assert_eq!(&*log.borrow(), &expected, "order to the end");
    prop_assert_eq!(sim.live_tasks(), 0);
    // One poll per task start, plus a firing and a poll per timer.
    let timers = scripts.iter().flatten().filter(|&&ns| ns > 0).count() as u64;
    prop_assert_eq!(sim.events_processed(), scripts.len() as u64 + 2 * timers);

    sim.reset();
    spawn_sleepers(&mut sim, scripts);
    sim.run_until(SimTime::from_nanos(limit));
    sim.reset();
    let log = spawn_sleepers(&mut sim, scripts);
    sim.run();
    prop_assert_eq!(&*log.borrow(), &expected, "order after reset");
    prop_assert_eq!(sim.events_processed(), scripts.len() as u64 + 2 * timers);
    Ok(())
}

/// One step of a [`schedules_with_wakes_match_the_reference`] script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `ctx.sleep(ns).await`.
    Sleep(u64),
    /// `ctx.yield_now().await`.
    Yield,
    /// Wake task `n % tasks` through its `Waker`, if it has started.
    Wake(usize),
    /// Poll `ctx.sleep(ns)` once and drop it: its timer stays registered,
    /// so it later fires into a task that is no longer waiting on it — or,
    /// as a last step, into a finished one.
    Abandon(u64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        sleep_strategy().prop_map(Step::Sleep),
        sleep_strategy().prop_map(Step::Sleep),
        Just(Step::Yield),
        (0usize..8).prop_map(Step::Wake),
        sleep_strategy().prop_map(Step::Abandon),
    ]
}

/// Up to eight tasks of up to seven steps each.
fn wake_scripts_strategy() -> impl Strategy<Value = Vec<Vec<Step>>> {
    prop::collection::vec(prop::collection::vec(step_strategy(), 0..8), 1..9)
}

/// What a schedule run shows: the `(time, task, step)` trace of completed
/// steps, `events_processed`, and the clock where the run stopped.
type Observed = (Vec<Fired>, u64, u64);

/// Spawns one task per script. Each task first publishes its `Waker` (so
/// `Wake` steps can reach it), then runs its steps, logging each one as it
/// completes.
fn spawn_steppers(sim: &mut Sim, scripts: &[Vec<Step>]) -> Rc<RefCell<Vec<Fired>>> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let wakers: Rc<RefCell<Vec<Option<Waker>>>> = Rc::new(RefCell::new(vec![None; scripts.len()]));
    let ctx = sim.context();
    let tasks = scripts.len();
    for (me, script) in scripts.iter().cloned().enumerate() {
        let ctx = ctx.clone();
        let log = Rc::clone(&log);
        let wakers = Rc::clone(&wakers);
        sim.spawn(async move {
            poll_fn(|cx| {
                wakers.borrow_mut()[me] = Some(cx.waker().clone());
                Poll::Ready(())
            })
            .await;
            for (step, op) in script.into_iter().enumerate() {
                match op {
                    Step::Sleep(ns) => ctx.sleep(SimDuration::from_nanos(ns)).await,
                    Step::Yield => ctx.yield_now().await,
                    Step::Wake(n) => {
                        if let Some(waker) = &wakers.borrow()[n % tasks] {
                            waker.wake_by_ref();
                        }
                    }
                    Step::Abandon(ns) => {
                        let mut sleep = pin!(ctx.sleep(SimDuration::from_nanos(ns)));
                        poll_fn(|cx| {
                            let _ = sleep.as_mut().poll(cx);
                            Poll::Ready(())
                        })
                        .await;
                    }
                }
                log.borrow_mut().push((me, step, ctx.now().as_nanos()));
            }
        });
    }
    log
}

/// Where a reference task is parked inside its current step.
#[derive(Debug, Clone, Copy)]
enum Parked {
    /// Not inside a step.
    No,
    /// In a `Sleep` whose timer is registered for this deadline.
    Sleep(u64),
    /// In a `Yield` that has already queued its own wake.
    Yield,
}

struct RefTask {
    step: usize,
    parked: Parked,
    started: bool,
    done: bool,
}

/// A reference interpreter of the run-loop contract in `executor.rs`'s
/// module doc, sharing no code or data structure with the executor: a FIFO
/// ready queue without deduplication; when it runs dry, every timer due at
/// the least pending deadline is queued, in registration order, before any
/// poll; each firing and each poll of a live task counts one event, and a
/// queued finished task is skipped without one. A timer due after the
/// `run_until` limit stops the run with the clock moved up to the limit.
struct Reference<'a> {
    scripts: &'a [Vec<Step>],
    tasks: Vec<RefTask>,
    ready: VecDeque<usize>,
    /// Pending timers as `(deadline, registration number, task)`.
    timers: Vec<(u64, u64, usize)>,
    registered: u64,
    now: u64,
    events: u64,
    log: Vec<Fired>,
}

impl<'a> Reference<'a> {
    fn new(scripts: &'a [Vec<Step>]) -> Self {
        Reference {
            scripts,
            tasks: scripts
                .iter()
                .map(|_| RefTask {
                    step: 0,
                    parked: Parked::No,
                    started: false,
                    done: false,
                })
                .collect(),
            ready: (0..scripts.len()).collect(),
            timers: Vec::new(),
            registered: 0,
            now: 0,
            events: 0,
            log: Vec::new(),
        }
    }

    fn register(&mut self, deadline: u64, task: usize) {
        self.timers.push((deadline, self.registered, task));
        self.registered += 1;
    }

    fn observed(&self) -> Observed {
        (self.log.clone(), self.events, self.now)
    }

    fn run_until(&mut self, limit: u64) -> Observed {
        loop {
            while let Some(task) = self.ready.pop_front() {
                if !self.tasks[task].done {
                    self.events += 1;
                    self.poll(task);
                }
            }
            let Some(deadline) = self.timers.iter().map(|t| t.0).min() else {
                break;
            };
            if deadline > limit {
                break;
            }
            self.now = deadline;
            let mut due: Vec<_> = self
                .timers
                .iter()
                .filter(|t| t.0 == deadline)
                .copied()
                .collect();
            due.sort();
            self.timers.retain(|t| t.0 != deadline);
            for (_, _, task) in due {
                self.events += 1;
                self.ready.push_back(task);
            }
        }
        if limit != u64::MAX && !self.timers.is_empty() && limit > self.now {
            self.now = limit;
        }
        self.observed()
    }

    /// One poll of `task`: runs its steps until one parks it or it ends.
    fn poll(&mut self, task: usize) {
        let tasks = self.scripts.len();
        self.tasks[task].started = true;
        while let Some(&op) = self.scripts[task].get(self.tasks[task].step) {
            let parked = self.tasks[task].parked;
            match (op, parked) {
                (Step::Sleep(ns), Parked::No) if ns > 0 => {
                    let deadline = self.now + ns;
                    self.register(deadline, task);
                    self.tasks[task].parked = Parked::Sleep(deadline);
                    return;
                }
                (Step::Sleep(_), Parked::Sleep(deadline)) if self.now < deadline => return,
                (Step::Yield, Parked::No) => {
                    self.ready.push_back(task);
                    self.tasks[task].parked = Parked::Yield;
                    return;
                }
                (Step::Wake(n), _) if self.tasks[n % tasks].started => {
                    self.ready.push_back(n % tasks);
                }
                (Step::Abandon(ns), _) if ns > 0 => self.register(self.now + ns, task),
                _ => {}
            }
            let t = &mut self.tasks[task];
            self.log.push((task, t.step, self.now));
            t.step += 1;
            t.parked = Parked::No;
        }
        self.tasks[task].done = true;
    }
}

/// Runs `scripts` on a `Sim` through each limit in `limits` (sorted) and
/// then to the end, against the [`Reference`]; then replays it on the
/// reset simulator, once abandoned at the first limit and once in full.
fn check_against_reference(scripts: &[Vec<Step>], limits: &[u64]) -> Result<(), TestCaseError> {
    let mut limits = limits.to_vec();
    limits.sort_unstable();
    let mut sim = Sim::new();
    let mut reference = Reference::new(scripts);
    let log = spawn_steppers(&mut sim, scripts);
    let run = |sim: &mut Sim, limit: u64| -> Observed {
        let stop = sim.run_until(SimTime::from_nanos(limit)).as_nanos();
        (log.borrow().clone(), sim.events_processed(), stop)
    };
    for &limit in &limits {
        prop_assert_eq!(
            run(&mut sim, limit),
            reference.run_until(limit),
            "up to {}",
            limit
        );
    }
    let expected = reference.run_until(u64::MAX);
    prop_assert_eq!(run(&mut sim, u64::MAX), expected.clone(), "to the end");
    prop_assert_eq!(sim.live_tasks(), 0);

    if let Some(&limit) = limits.first() {
        sim.reset();
        spawn_steppers(&mut sim, scripts);
        sim.run_until(SimTime::from_nanos(limit));
    }
    sim.reset();
    let log = spawn_steppers(&mut sim, scripts);
    let stop = sim.run().as_nanos();
    prop_assert_eq!(
        (log.borrow().clone(), sim.events_processed(), stop),
        expected,
        "after reset"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sleep scripts — same-deadline ties, zero sleeps, deadlines past
    /// 2^48 ns — fire in `(deadline, registration order)` order, both when
    /// paused at a `run_until` limit and when run to the end, and a reset
    /// simulator (even one reset with timers still pending) replays them
    /// identically.
    #[test]
    fn timers_fire_in_deadline_then_registration_order(
        scripts in sleep_scripts_strategy(),
        limit in limit_strategy(),
    ) {
        check_timer_order(&scripts, limit)?;
    }

    /// Random scripts of sleeps, yields, cross-task wakes and abandoned
    /// timers trace exactly what [`Reference`] traces — `(time, task, step)`,
    /// `events_processed` and the stop clock — at every `run_until` limit,
    /// to the end, and again after `Sim::reset` (also one taken with timers
    /// still pending).
    #[test]
    fn schedules_with_wakes_match_the_reference(
        scripts in wake_scripts_strategy(),
        limits in prop::collection::vec(limit_strategy(), 0..3),
    ) {
        check_against_reference(&scripts, &limits)?;
    }

    /// Any random script set runs to quiescence with an identical
    /// `(final time, events_processed)` on every execution — on a fresh
    /// simulator and on a reused (reset) one — and leaks no tasks.
    #[test]
    fn random_schedules_are_deterministic_and_leak_free(
        scripts in prop::collection::vec(prop::collection::vec(op_strategy(), 0..12), 1..16)
    ) {
        let mut fresh_a = Sim::new();
        let a = run_scripts(&mut fresh_a, &scripts);
        prop_assert_eq!(fresh_a.live_tasks(), 0, "tasks leaked after quiescence");

        let mut fresh_b = Sim::new();
        let b = run_scripts(&mut fresh_b, &scripts);
        prop_assert_eq!(a, b, "two fresh runs diverged");

        // A reused simulator must behave exactly like a fresh one.
        let mut reused = Sim::new();
        reused.spawn(async {});
        reused.run();
        reused.reset();
        let c = run_scripts(&mut reused, &scripts);
        prop_assert_eq!(reused.live_tasks(), 0);
        prop_assert_eq!(a, c, "a reset simulator diverged from a fresh one");
    }

    /// Back-pressured channels with random capacities still quiesce and
    /// stay deterministic (senders park on full, receivers on empty).
    #[test]
    fn bounded_channel_schedules_quiesce(
        capacity in 1usize..4,
        messages in 1u64..64,
        producers in 1usize..5,
    ) {
        let run = || {
            let mut sim = Sim::new();
            let ctx = sim.context();
            let (tx, rx) = bounded::<u64>(capacity);
            for p in 0..producers {
                let tx = tx.clone();
                let ctx = ctx.clone();
                sim.spawn(async move {
                    for m in 0..messages {
                        tx.send(p as u64 * 1000 + m).await.unwrap();
                        if m % 3 == 0 {
                            ctx.yield_now().await;
                        }
                    }
                });
            }
            drop(tx);
            let ctx2 = ctx.clone();
            sim.spawn(async move {
                let mut n = 0u64;
                while rx.recv().await.is_some() {
                    n += 1;
                    if n % 5 == 0 {
                        ctx2.sleep(SimDuration::from_nanos(7)).await;
                    }
                }
                assert_eq!(n, producers as u64 * messages);
            });
            let end = sim.run();
            let events = sim.events_processed();
            assert_eq!(sim.live_tasks(), 0);
            (end, events)
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// [`timers_fire_in_deadline_then_registration_order`] over 1024 cases.
    #[test]
    #[ignore = "1024-case variant: run with --release -- --ignored"]
    fn timers_fire_in_deadline_then_registration_order_1024(
        scripts in sleep_scripts_strategy(),
        limit in limit_strategy(),
    ) {
        check_timer_order(&scripts, limit)?;
    }

    /// [`schedules_with_wakes_match_the_reference`] over 1024 cases.
    #[test]
    #[ignore = "1024-case variant: run with --release -- --ignored"]
    fn schedules_with_wakes_match_the_reference_1024(
        scripts in wake_scripts_strategy(),
        limits in prop::collection::vec(limit_strategy(), 0..3),
    ) {
        check_against_reference(&scripts, &limits)?;
    }
}
