//! The calling thread's CPU clock.
//!
//! The benchmark runs on one thread and the simulator never blocks, so on an
//! undisturbed host a sweep's CPU time equals its wall time. Unlike wall
//! time, CPU time does not count the time the thread waits while other
//! processes hold the core.

use std::os::raw::{c_int, c_long};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads the Linux per-thread CPU clock");

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec; clock_gettime writes only it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}
