//! Parallel sweep harness for the figure/table binaries.
//!
//! Sweep binaries evaluate grids of independent cells (pool size ×
//! offered load × routing policy, write-set densities, …) where each
//! cell builds its own `Kernel` and seeds its own `DetRng` — no state is
//! shared, so cells can run on OS threads with no effect on results.
//! [`run_cells`] shards the cells across `std::thread::scope` workers
//! (nothing beyond `std` — crates.io is unreachable in this
//! environment) and performs a **deterministic ordered merge**: results
//! come back in input order regardless of scheduling, so the rendered
//! tables and CSVs are byte-identical to a serial run. The CI
//! determinism job asserts exactly that by diffing `--serial` against
//! parallel output, across a `GH_THREADS` matrix.
//!
//! Knobs (shared with `gh_faas::fleet`'s host-parallel execution, and
//! resolved by the same [`ExecMode::threads`]): `--serial` or
//! `GH_SERIAL=1` forces one worker; `GH_THREADS=n` pins the worker
//! count, defaulting to the host's available parallelism. A `GH_THREADS`
//! that is not a positive integer stops the run with an error naming it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gh_faas::fleet::ExecMode;

/// True when sweeps run on one worker: `--serial` or `GH_SERIAL=1` was
/// given, or `GH_THREADS` (or the host) allows only one.
pub fn serial_requested() -> bool {
    configured_workers() == 1
}

/// Worker count for a parallel sweep: [`ExecMode::Auto`]'s resolution
/// (`--serial`/`GH_SERIAL`, then `GH_THREADS`, then the host's available
/// parallelism).
pub fn configured_workers() -> usize {
    ExecMode::Auto.threads()
}

/// Evaluates `f` over every cell, in parallel unless `serial`, and
/// returns the results **in input order**.
///
/// Each worker claims cells from a shared counter (dynamic load
/// balancing: fleet cells at different pool sizes differ wildly in
/// cost) and tags results with their index; the merge sorts by index.
/// Determinism therefore requires only that `f` itself is a pure
/// function of its cell — which every sweep cell is, by construction
/// (own kernel, own seed).
pub fn run_cells<C, R, F>(cells: &[C], serial: bool, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let workers = if serial {
        1
    } else {
        configured_workers().min(cells.len().max(1))
    };
    if workers <= 1 {
        return cells.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(cells.len()));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    local.push((i, f(&cells[i])));
                }
                collected.lock().expect("worker panicked").extend(local);
            });
        }
    });
    let mut tagged = collected.into_inner().expect("worker panicked");
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), cells.len());
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_merge_preserves_input_order() {
        let cells: Vec<u64> = (0..257).collect();
        let f = |&c: &u64| {
            // Uneven per-cell cost to scramble completion order.
            let mut acc = c;
            for i in 0..(c % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (c, acc)
        };
        let serial = run_cells(&cells, true, f);
        let parallel = run_cells(&cells, false, f);
        assert_eq!(serial, parallel, "ordered merge must hide scheduling");
        assert_eq!(serial.len(), cells.len());
        assert!(serial.iter().enumerate().all(|(i, &(c, _))| c == i as u64));
    }

    #[test]
    fn empty_and_single_cell_grids() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_cells(&empty, false, |&c: &u32| c).is_empty());
        assert_eq!(run_cells(&[7u32], false, |&c| c * 2), vec![14]);
    }
}
