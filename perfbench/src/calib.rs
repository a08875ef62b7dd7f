//! Host-speed calibration. The benchmark shares its host with other
//! work, and the host's speed drifts by tens of percent over seconds to
//! minutes. So a run times a fixed reference computation, which the
//! benchmark owns and no change to the program can touch, right before
//! each stretch of measured work, on the cores that do that work. The
//! measured times are divided by the slowdown the reference shows
//! against its nominal time: they read as milliseconds on the host the
//! benchmark was tuned on, and the drift cancels.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// [`reference_ms`] on the host the benchmark was tuned on (2-core
/// shared x86-64 VM, quiet period).
const NOMINAL_MS: f64 = 25.0;

/// Buffers the reference reuses, so that after the first call its time
/// depends neither on the allocator's state nor on page faults.
struct Buffers {
    keys: Vec<u64>,
    table: Vec<u64>,
    names: Vec<String>,
}

impl Buffers {
    fn new() -> Buffers {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let names = (0..16_384)
            .map(|_| {
                x = xorshift(x);
                format!("{:012x}", x & 0xffff_ffff_ffff)
            })
            .collect();
        Buffers {
            keys: vec![0; 65_536],
            table: vec![0; 1 << 17],
            names,
        }
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The reference computation: sorting, open-addressing hash inserts
/// into a table larger than the L2 cache, and comparisons of short
/// strings, the same kinds of work the program does.
fn reference(b: &mut Buffers) -> u64 {
    let mut x = 0x5eed_u64;
    for k in b.keys.iter_mut() {
        x = xorshift(x);
        *k = x;
    }
    b.keys.sort_unstable();
    b.table.fill(0);
    let mask = b.table.len() - 1;
    for &k in &b.keys {
        let mut slot = (k as usize) & mask;
        while b.table[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        b.table[slot] = k;
    }
    let mut less = 0u64;
    for pair in b.names.windows(2) {
        for _ in 0..8 {
            less += u64::from(black_box(&pair[0]) < black_box(&pair[1]));
        }
    }
    black_box(b.keys[1000] ^ less)
}

thread_local! {
    static BUFFERS: Cell<Option<Buffers>> = const { Cell::new(None) };
}

/// Time eight rounds of the reference `runs` times; return the median
/// in ms.
fn reference_ms(runs: usize) -> f64 {
    let mut b = BUFFERS.with(|b| b.take()).unwrap_or_else(Buffers::new);
    let t: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..8 {
                reference(&mut b);
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    BUFFERS.with(|cell| cell.set(Some(b)));
    median(&t)
}

/// How much slower than nominal this thread's core runs now (1.0 on
/// the tuning host when quiet), from the median of `runs` timings.
pub fn slowdown(runs: usize) -> f64 {
    reference_ms(runs) / NOMINAL_MS
}

/// The mean slowdown of both cores of the host, timed at once: for work
/// the scheduler spreads over the cores, as a server's workers are.
pub fn slowdown_all_cores(runs: usize) -> f64 {
    std::thread::scope(|s| {
        let other = s.spawn(move || slowdown(runs));
        (slowdown(runs) + other.join().expect("reference thread")) / 2.0
    })
}

/// A time measured next to a reference timing.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw_ms: f64,
    /// [`slowdown`] or [`slowdown_all_cores`] just before the work.
    pub slowdown: f64,
}

impl Timed {
    /// The time at nominal host speed, in ms.
    pub fn ms(self) -> f64 {
        self.raw_ms / self.slowdown
    }
}
