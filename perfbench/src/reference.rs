//! A fixed reference computation that scales host times to one host speed.
//!
//! The benchmark's host is a shared virtual machine whose speed drifts by
//! 10–50 % over minutes, and per-operation minima cannot remove a drift
//! that lasts longer than a run. A run therefore calls this reference
//! between its operations, throughout the window, and multiplies every
//! host time by the ratio of [`NOMINAL_S`] to the reference's fastest
//! call, raised to [`SENSITIVITY`]: a time then reads as it would on the
//! host at the reference's nominal speed. The reference is a hash-map
//! build and probe plus a fill of a buffer larger than the L2 cache, the
//! kernels whose speed followed the simulator's most closely; it shares
//! no code with the program, so a change to the program cannot move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference's fastest call, in seconds, on the host described in
/// `README.md`; scaled times read in that host's quiet-period seconds.
pub const NOMINAL_S: f64 = 3.5e-3;

/// How much more the simulator slows than the reference when the host
/// slows: repeated runs of one seed on every workload varied least, as a
/// group, with the scale raised to this power (see `README.md`).
pub const SENSITIVITY: f64 = 1.5;

/// Least time between two reference calls inside a window.
const INTERVAL: Duration = Duration::from_millis(100);

/// Keys the hash-map kernel inserts; the table holds about 1 MiB.
const KEYS: u64 = 40_000;

/// Bytes the fill kernel writes, twice the size of one core's L2.
const FILL_BYTES: usize = 4 << 20;

/// Calls the reference and keeps its fastest call.
pub struct Reference {
    buffer: Vec<u64>,
    best: f64,
    calls: u64,
    last: Instant,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            buffer: vec![0; FILL_BYTES / 8],
            best: f64::INFINITY,
            calls: 0,
            last: Instant::now(),
        }
    }
}

impl Reference {
    /// Calls the reference once and times it.
    pub fn call(&mut self) {
        let start = Instant::now();
        let mut state = black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let mut map = HashMap::with_capacity(1024);
        for i in 0..KEYS {
            map.insert(next() % (KEYS + KEYS / 4), i);
        }
        let hits: u64 = (0..KEYS + KEYS / 4).filter_map(|k| map.get(&k)).sum();
        let seed = black_box(hits);
        for (i, v) in self.buffer.iter_mut().enumerate() {
            *v = seed ^ i as u64;
        }
        black_box(self.buffer[self.buffer.len() / 2]);
        self.best = self.best.min(start.elapsed().as_secs_f64());
        self.calls += 1;
        self.last = Instant::now();
    }

    /// Calls the reference if [`INTERVAL`] has passed since its last call.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.call();
        }
    }

    /// The factor every host time of the run is multiplied by.
    pub fn scale(&self) -> f64 {
        (NOMINAL_S / self.best).powf(SENSITIVITY)
    }

    /// The reference's fastest call, in seconds.
    pub fn best(&self) -> f64 {
        self.best
    }

    /// Calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}
