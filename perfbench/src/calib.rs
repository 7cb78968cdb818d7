//! Host-speed calibration.
//!
//! The in-process workloads are CPU-bound, and a host shared with other
//! tenants runs them at speeds up to 2x apart from one minute to the next.
//! So each timed piece of in-process work runs between two runs of a fixed
//! calibration job, and its time is scaled to a host on which that job
//! takes [`REFERENCE_S`]. The job is written in the benchmark itself, so no
//! change to the workspace can move it: list-scheduling a seeded random
//! dependency graph, with the allocation, hashing, heap and
//! pointer-chasing mix of a compiler pass.

use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Calibration job time of the host every in-process time is scaled to,
/// in seconds (the job takes 11-13 ms on a 2-core x86-64 cloud VM).
pub const REFERENCE_S: f64 = 0.010;

/// Nodes of the calibration graph.
const NODES: usize = 30_000;

/// Issue slots per cycle of the calibration scheduler.
const WIDTH: usize = 4;

/// Runs the calibration job once; returns its wall time in seconds.
fn job_seconds() -> f64 {
    let start = Instant::now();
    std::hint::black_box(job(NODES));
    start.elapsed().as_secs_f64()
}

/// Runs `work` between two calibration jobs. Returns its result, its wall
/// time in seconds, and the factor that scales that time to the reference
/// host (the reference job time over the mean of the two jobs).
pub fn bracket<T>(work: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = job_seconds();
    let start = Instant::now();
    let value = work();
    let seconds = start.elapsed().as_secs_f64();
    let after = job_seconds();
    (value, seconds, REFERENCE_S / ((before + after) / 2.0))
}

/// Builds and list-schedules a seeded random graph of `nodes` nodes;
/// returns a checksum of the schedule.
fn job(nodes: usize) -> u64 {
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut preds: Vec<Vec<usize>> = Vec::with_capacity(nodes);
    for n in 0..nodes {
        let count = if n == 0 { 0 } else { (next() % 4) as usize };
        let list = (0..count).map(|_| n - 1 - (next() as usize % n.min(64))).collect();
        preds.push(list);
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    for (n, list) in preds.iter().enumerate() {
        for &p in list {
            succs[p].push(n);
        }
    }
    let mut height = vec![1u64; nodes];
    for n in (0..nodes).rev() {
        height[n] += succs[n].iter().map(|&s| height[s]).max().unwrap_or(0);
    }
    let mut waiting: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut ready: BinaryHeap<(u64, usize)> =
        (0..nodes).filter(|&n| waiting[n] == 0).map(|n| (height[n], n)).collect();
    let mut cycle_of: HashMap<usize, u64> = HashMap::with_capacity(nodes);
    let mut cycle = 0u64;
    while !ready.is_empty() {
        let bundle: Vec<usize> = (0..WIDTH).filter_map(|_| ready.pop().map(|(_, n)| n)).collect();
        for &n in &bundle {
            cycle_of.insert(n, cycle);
        }
        for &n in &bundle {
            for &s in &succs[n] {
                waiting[s] -= 1;
                if waiting[s] == 0 {
                    ready.push((height[s], s));
                }
            }
        }
        cycle += 1;
    }
    // Order-independent, so the map's iteration order does not matter.
    cycle_of.iter().fold(cycle, |sum, (&n, &c)| {
        sum.wrapping_add((n as u64 ^ c << 20).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_is_deterministic() {
        assert_eq!(job(500), job(500));
        assert_ne!(job(500), job(501));
    }

    #[test]
    fn bracket_returns_the_work_and_a_positive_scale() {
        let (value, seconds, scale) = bracket(|| 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0 && scale > 0.0 && scale.is_finite());
    }
}
