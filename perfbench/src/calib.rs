//! Host-speed reference for CPU-bound workloads.
//!
//! The shared virtual machines this benchmark runs on change speed by
//! 10–20 % from one minute to the next as neighbours come and go, which
//! moves every CPU-bound figure together from run to run. A fixed
//! integer kernel — a dependent multiply/rotate chain on one thread per
//! vCPU the workloads use, touching no memory — is timed between passes,
//! and the CPU-bound workloads report their times and rates scaled to the
//! host speed at which one kernel round takes [`REFERENCE_S`]. The
//! kernel uses no code of the measured crates, so no change to them can
//! move it; it is timed only while the benchmark process runs no other
//! thread, so work a program leaves running between passes is not
//! mistaken for a slow host.

use std::hint::black_box;
use std::time::Instant;

use crate::trace::median;

/// Seconds one kernel round takes at the reference speed (about the
/// speed of the 2-vCPU Xeon guest this benchmark was written on).
pub const REFERENCE_S: f64 = 0.008;
/// Threads that run the kernel side by side: one per worker the
/// workloads run, so both vCPUs are measured.
const THREADS: usize = 2;
/// Kernel rounds per calibration; a calibration is their median.
const ROUNDS: usize = 9;
/// Dependent steps per round.
const STEPS: u64 = 1 << 22;

fn chain(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..STEPS {
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(23) ^ (x >> 13);
    }
    x
}

/// Threads of this process, from `/proc/self/task`.
fn threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// Seconds one kernel round takes now (the median over [`ROUNDS`] rounds
/// of the mean over [`THREADS`] threads), or `None` while another thread
/// of this process is alive.
pub fn round_s() -> Option<f64> {
    if threads()? != 1 {
        return None;
    }
    let rounds: Vec<f64> = (0..ROUNDS as u64)
        .map(|r| {
            let times: Vec<f64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS as u64)
                    .map(|t| {
                        s.spawn(move || {
                            let started = Instant::now();
                            black_box(chain(black_box(r * 7 + t)));
                            started.elapsed().as_secs_f64()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration threads do not panic"))
                    .collect()
            });
            times.iter().sum::<f64>() / times.len() as f64
        })
        .collect();
    Some(median(&rounds))
}
