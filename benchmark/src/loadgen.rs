//! Open-loop load generator: operation `i` is due `i / rate` seconds
//! after the start whether or not earlier ones have finished, so a stall
//! delays every operation queued behind it, and each operation is timed
//! from when it was due.

use std::time::{Duration, Instant};

/// When one operation was due, started and ended.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// The operation's index in the schedule.
    pub index: usize,
    /// When it was due to be sent.
    pub due: Instant,
    /// When it was sent (never before `due`).
    pub start: Instant,
    /// When its call returned.
    pub end: Instant,
}

impl Slot {
    /// Latency as a user sees it: from the due time to the answer.
    pub fn latency(&self) -> Duration {
        self.end - self.due
    }

    /// How late the generator sent it.
    pub fn late(&self) -> Duration {
        self.start - self.due
    }

    /// Time inside the call.
    pub fn service(&self) -> Duration {
        self.end - self.start
    }
}

/// Sends `count` operations at `rate` per second from the calling
/// thread. `issue(i)` is the timed call; `done(slot, output)` runs after
/// the timing ends, and any of its time past the next due time delays
/// later operations.
pub fn open_loop<T>(
    rate: f64,
    count: usize,
    mut issue: impl FnMut(usize) -> T,
    mut done: impl FnMut(&Slot, T),
) {
    let t0 = Instant::now();
    for index in 0..count {
        let due = t0 + Duration::from_secs_f64(index as f64 / rate);
        wait_until(due);
        let start = Instant::now();
        let out = issue(index);
        let end = Instant::now();
        done(
            &Slot {
                index,
                due,
                start,
                end,
            },
            out,
        );
    }
}

/// Spins until `due`. A sleeping thread gives up its core, and on a
/// busy host waking it again can take milliseconds, which would show up
/// as lateness of the generator rather than latency of the service.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}
