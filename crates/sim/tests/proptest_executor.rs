//! Property-based tests of the executor itself under adversarial schedules:
//! random scripts of spawns, sleeps, yields, and channel traffic must run
//! deterministically (identical final clock and event count on every run)
//! and leave no live tasks behind after quiescence, and random sleep scripts
//! must fire in exactly the order a `(deadline, registration order)` sort
//! gives.

use std::cell::RefCell;
use std::rc::Rc;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sleep scripts — same-deadline ties, zero sleeps, deadlines past
    /// 2^48 ns — fire in `(deadline, registration order)` order, both when
    /// paused at a `run_until` limit and when run to the end, and a reset
    /// simulator (even one reset with timers still pending) replays them
    /// identically.
    #[test]
    fn timers_fire_in_deadline_then_registration_order(
        scripts in prop::collection::vec(prop::collection::vec(sleep_strategy(), 0..6), 1..12),
        limit in limit_strategy(),
    ) {
        let mut sim = Sim::new();
        let log = spawn_sleepers(&mut sim, &scripts);
        let (prefix, pending) = reference_order(&scripts, limit);
        let stop = sim.run_until(SimTime::from_nanos(limit)).as_nanos();
        prop_assert_eq!(&*log.borrow(), &prefix, "order up to the limit");
        let last = prefix.last().map_or(0, |&(_, _, at)| at);
        prop_assert_eq!(stop, if pending && limit > last { limit } else { last });

        let (expected, _) = reference_order(&scripts, u64::MAX);
        sim.run();
        prop_assert_eq!(&*log.borrow(), &expected, "order to the end");
        prop_assert_eq!(sim.live_tasks(), 0);
        // One poll per task start, plus a firing and a poll per timer.
        let timers = scripts.iter().flatten().filter(|&&ns| ns > 0).count() as u64;
        prop_assert_eq!(sim.events_processed(), scripts.len() as u64 + 2 * timers);

        sim.reset();
        spawn_sleepers(&mut sim, &scripts);
        sim.run_until(SimTime::from_nanos(limit));
        sim.reset();
        let log = spawn_sleepers(&mut sim, &scripts);
        sim.run();
        prop_assert_eq!(&*log.borrow(), &expected, "order after reset");
        prop_assert_eq!(sim.events_processed(), scripts.len() as u64 + 2 * timers);
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
