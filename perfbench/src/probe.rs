//! The host drift probe: a fixed CPU and memory loop that calls no program
//! code. Its time says how fast the host ran at that moment, so a noisy
//! run can be told apart from slow code. It is reported next to the
//! metrics and never used to normalise, filter or discard anything.

use std::hint::black_box;
use std::time::Instant;

/// Words the loop walks: 256 KiB, larger than L1, smaller than L2 on
/// common hosts.
const WORDS: usize = 1 << 15;
/// Passes over the words per probe (a few milliseconds).
const PASSES: usize = 24;
/// Samples room is reserved for up front, so recording one does not grow
/// the heap while a request's peak is being measured.
const RESERVED: usize = 1 << 14;

pub struct Probe {
    words: Vec<u64>,
    samples_ms: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            words: (0..WORDS as u64).collect(),
            samples_ms: Vec::with_capacity(RESERVED),
        }
    }

    /// Runs the loop once and records its time.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let mut acc = 0u64;
        for pass in 0..PASSES as u64 {
            for w in self.words.iter_mut() {
                *w = w.rotate_left(7) ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                acc = acc.wrapping_add(*w);
            }
        }
        black_box(acc);
        self.samples_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}
