//! A fixed computation whose CPU time measures how fast the host runs at
//! the moment.
//!
//! On a shared host a sweep's CPU time changes with what other machines on
//! the same cores do (hyperthread siblings, shared caches): by half and more
//! within a minute, and twofold between quiet and busy periods. The
//! yardstick is a small discrete-event loop in the simulator's own style,
//! compiled here so that no change to the simulator changes it. Each chunk
//! builds its state afresh — a binary-heap event queue, a hash map, a table
//! touched at random — and runs a fixed number of events, with one small
//! allocation each, much as every cell builds a machine and runs it. Run
//! between a sweep's stages, the chunks see the same host as the sweep; the
//! ratio of the two CPU times is the sweep's cost with the host's speed
//! divided out. Multiplied by [`REFERENCE_CHUNK_CPU_S`] it reads as seconds
//! on a host of fixed speed.
//!
//! A yardstick that kept its state between chunks stayed in the core's
//! private caches and tracked the host's speed far worse: over two minutes
//! of a busy host its ratio to the sweep moved by ±20 % between ten-second
//! windows, this one's by ±3 %. Between runs in differently busy periods
//! this one's ratio still moves by up to a fifth, against twofold for the
//! sweep's own CPU time.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::cpuclock::thread_cpu_s;

/// Events the queue holds at all times.
const PENDING: u32 = 1024;
/// Distinct keys of the hash map.
const KEYS: u64 = 4096;
/// Entries of the randomly touched table (64 KiB); a power of two.
const TABLE: usize = 8192;
/// Events per chunk: a few tenths of a millisecond, a few per cent of a
/// typical cell.
const CHUNK_EVENTS: u32 = 2000;

/// The CPU seconds of one chunk on the reference host: the fastest chunk
/// seen on a 2-vCPU Intel Xeon virtual machine. It is a fixed unit of
/// conversion from yardstick chunks to seconds, so figures scaled by it
/// compare between commits, not with other hosts' seconds.
pub const REFERENCE_CHUNK_CPU_S: f64 = 190e-6;

/// The chunks run since the last `take`: their count and CPU and wall
/// seconds.
#[derive(Default)]
pub struct Yardstick {
    pub chunks: u32,
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// xorshift64: the loop's own deterministic randomness.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Yardstick {
    /// Runs one chunk and adds its CPU and wall time to the totals. Every
    /// chunk does exactly the same work.
    pub fn chunk(&mut self) {
        let wall = Instant::now();
        let cpu = thread_cpu_s();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut queue = BinaryHeap::new();
        for id in 0..PENDING {
            queue.push(Reverse((next(&mut x) % 1000, id)));
        }
        let mut counts: HashMap<u32, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut table = vec![0u64; TABLE];
        for _ in 0..CHUNK_EVENTS {
            let Reverse((t, id)) = queue.pop().expect("the queue never drains");
            let r = next(&mut x);
            *counts.entry((r % KEYS) as u32).or_insert(0) += t;
            table[r as usize & (TABLE - 1)] ^= t;
            let mut payload = Vec::with_capacity(4);
            payload.push(t);
            black_box(&payload);
            queue.push(Reverse((t + 1 + r % 1000, id)));
        }
        black_box((&counts, &table));
        self.chunks += 1;
        self.cpu_s += thread_cpu_s() - cpu;
        self.wall_s += wall.elapsed().as_secs_f64();
    }

    /// The chunks run since the last call, which resets the totals.
    pub fn take(&mut self) -> Yardstick {
        std::mem::take(self)
    }
}
