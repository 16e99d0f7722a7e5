//! §IV-B + §V, Algorithm 2 — the parallel approximation algorithm.
//!
//! The pairs of each edge-color group are vertex-disjoint, so all swap
//! tests in one group read and write disjoint assignment slots and may run
//! concurrently. Groups are separated by kernel-boundary barriers
//! ("a CUDA kernel … performs the local search for each group, that is,
//! the execution is synchronized whenever the computation of each
//! iteration is finished").
//!
//! Three execution strategies share one sweep loop (deadline poll,
//! sweep span, sweep/launch/swap counts, convergence test) and differ
//! only in how they run one sweep; they are tested for bit-equality of
//! results:
//!
//! * [`parallel_search_reference`] — groups executed on one thread, the
//!   specification;
//! * [`parallel_search_threads_bounded_in`] — one `mosaic-pool` gang call
//!   for the whole search: each color group is one gang phase, whose
//!   chunks the lanes claim and apply in place, with the gang's barrier
//!   between groups (no pool dispatch per group);
//! * [`parallel_search_gpu`] — one simulated kernel launch per group, the
//!   paper's GPU implementation, all launches in one device session.
//!
//! The scoped-thread dispatch the threaded strategy used before the pool
//! (threads spawned per group, decisions applied serially) survives as a
//! test oracle below.

use crate::local_search::{never_exceeded, SearchOutcome};
use mosaic_edgecolor::{Group, SwapSchedule};
use mosaic_gpu::{BlockContext, GlobalBuffer, GpuSim, LaunchConfig, Session, WorkProfile};
use mosaic_grid::{Deadline, DeadlineExceeded, ErrorMatrix};
use mosaic_pool::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`SearchOutcome`] plus the kernel-launch count the GPU path would
/// issue (used for the analytic device model; identical across backends
/// because the group structure is).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelOutcome {
    /// Search result.
    pub outcome: SearchOutcome,
    /// Kernel launches (occupied groups × sweeps).
    pub launches: usize,
}

/// Work profile of Algorithm 2 for the analytic device model.
pub fn step3_parallel_profile(s: usize, sweeps: usize, launches: usize) -> WorkProfile {
    let pairs_per_sweep = (s * (s - 1) / 2) as u64;
    let total_pairs = pairs_per_sweep * sweeps as u64;
    WorkProfile {
        launches,
        // Per pair: four u32 matrix reads + two usize assignment reads and
        // (worst case) writes ≈ 16 + 32 bytes.
        global_bytes: total_pairs * 48,
        // Per pair: four adds and a compare plus four matrix reads on
        // scattered rows. 14 ops/pair calibrates the modeled host time to
        // the paper's measured Algorithm-1 throughput (~43 ns/pair on the
        // i7-3770, Table III) under the host model's efficiency derate,
        // and keeps the modeled GPU/CPU crossover at the paper's location
        // (<1x at S=16², growing through 32² and 64²).
        ops: total_pairs * 14,
    }
}

/// What the shared sweep loop counted.
#[derive(Default)]
struct Sweeps {
    sweeps: usize,
    swaps: usize,
    launches: usize,
}

impl Sweeps {
    fn outcome(self, matrix: &ErrorMatrix, assignment: Vec<usize>) -> ParallelOutcome {
        let total = matrix.assignment_total(&assignment);
        ParallelOutcome {
            outcome: SearchOutcome {
                assignment,
                total,
                sweeps: self.sweeps,
                swaps: self.swaps,
            },
            launches: self.launches,
        }
    }
}

/// The sweep loop of Algorithm 2, shared by every backend: sweep the
/// occupied color groups in order until a whole sweep swaps nothing.
/// `sweep` runs the groups of one sweep, in order, against the
/// backend's assignment and returns how many swaps it made. The deadline
/// is polled before every sweep, so overshoot past an expiry is at most
/// one sweep.
fn run_sweeps(
    matrix: &ErrorMatrix,
    schedule: &SwapSchedule,
    deadline: &Deadline,
    mut sweep: impl FnMut() -> usize,
) -> Result<Sweeps, DeadlineExceeded> {
    assert_eq!(
        schedule.tiles(),
        matrix.size(),
        "schedule must be built for S = matrix size"
    );
    let groups = schedule.occupied_groups().count();
    let mut counts = Sweeps::default();
    loop {
        deadline.check()?;
        let _sweep = mosaic_telemetry::tracer().span("parallel_search_sweep");
        counts.sweeps += 1;
        counts.launches += groups;
        let swapped = sweep();
        counts.swaps += swapped;
        if swapped == 0 {
            return Ok(counts);
        }
    }
}

/// Reference execution: groups in order, pairs in order, single thread.
pub fn parallel_search_reference(matrix: &ErrorMatrix, schedule: &SwapSchedule) -> ParallelOutcome {
    never_exceeded(parallel_search_reference_bounded(
        matrix,
        schedule,
        &Deadline::NONE,
    ))
}

/// [`parallel_search_reference`] with cooperative cancellation: the
/// deadline is polled before every sweep, so overshoot past an expiry is
/// at most one sweep.
///
/// # Errors
/// Returns [`DeadlineExceeded`] when `deadline` expires before the search
/// converges (including a deadline that was already expired on entry).
pub fn parallel_search_reference_bounded(
    matrix: &ErrorMatrix,
    schedule: &SwapSchedule,
    deadline: &Deadline,
) -> Result<ParallelOutcome, DeadlineExceeded> {
    let mut assignment: Vec<usize> = (0..matrix.size()).collect();
    let counts = run_sweeps(matrix, schedule, deadline, || {
        reference_sweep(matrix, schedule, &mut assignment)
    })?;
    Ok(counts.outcome(matrix, assignment))
}

/// One sweep of the reference execution: test and apply each pair's
/// swap, groups in order, pairs in order.
fn reference_sweep(
    matrix: &ErrorMatrix,
    schedule: &SwapSchedule,
    assignment: &mut [usize],
) -> usize {
    let mut swaps = 0;
    for group in schedule.occupied_groups() {
        for (p, q) in group.pairs(0..group.len()) {
            if matrix.swap_gain(assignment, p, q) > 0 {
                assignment.swap(p, q);
                swaps += 1;
            }
        }
    }
    swaps
}

/// Pairs `[index · len, (index + 1) · len)` of `group`, clipped to it.
fn chunk_of(group: Group, index: usize, len: usize) -> impl Iterator<Item = (usize, usize)> {
    let start = (index * len).min(group.len());
    group.pairs(start..(start + len).min(group.len()))
}

/// Test and apply the swaps of `pairs` (disjoint pairs of one group)
/// against the shared assignment; returns how many swapped. Every
/// backend but the reference runs its groups through here.
fn swap_pairs(
    matrix: &ErrorMatrix,
    assignment: &GlobalBuffer<usize>,
    pairs: impl Iterator<Item = (usize, usize)>,
) -> usize {
    let s = matrix.size();
    let errors = matrix.as_slice();
    let mut swaps = 0;
    for (p, q) in pairs {
        let u = assignment.load(p);
        let v = assignment.load(q);
        let before = i64::from(errors[u * s + p]) + i64::from(errors[v * s + q]);
        let after = i64::from(errors[v * s + p]) + i64::from(errors[u * s + q]);
        if before > after {
            assignment.store(p, v);
            assignment.store(q, u);
            swaps += 1;
        }
    }
    swaps
}

/// Multi-core CPU execution on `pool`: one gang call of `threads` lanes
/// for the whole search. Every color group is one gang phase of
/// `threads` chunks; a lane tests and applies the swaps of the chunks it
/// claims, and the gang's barrier separates consecutive groups. A gang
/// runs at most `pool.threads() + 1` lanes at once, so `threads` is
/// capped there: a larger count would only publish empty chunks, each a
/// ticket to claim between deadline polls. The pairs of a group are
/// vertex-disjoint, so this produces exactly the reference result for
/// every `threads`. Unbounded callers pass `mosaic_pool::global()` and
/// [`Deadline::NONE`].
///
/// # Errors
/// Returns [`DeadlineExceeded`] when `deadline` expires before convergence.
///
/// # Panics
/// Panics when `threads == 0`.
pub fn parallel_search_threads_bounded_in(
    pool: &ThreadPool,
    matrix: &ErrorMatrix,
    schedule: &SwapSchedule,
    threads: usize,
    deadline: &Deadline,
) -> Result<ParallelOutcome, DeadlineExceeded> {
    assert!(threads > 0, "at least one worker thread is required");
    let threads = threads.min(pool.threads() + 1);
    let groups: Vec<Group> = schedule.occupied_groups().collect();
    let assignment = GlobalBuffer::from_vec((0..matrix.size()).collect());
    let swapped = AtomicUsize::new(0);
    let chunk = |phase: usize, index: usize| {
        let group = groups[phase % groups.len()];
        let len = group.len().div_ceil(threads);
        let swaps = swap_pairs(matrix, &assignment, chunk_of(group, index, len));
        if swaps > 0 {
            swapped.fetch_add(swaps, Ordering::Relaxed);
        }
    };
    let counts = pool.gang(threads, chunk, |gang| {
        run_sweeps(matrix, schedule, deadline, || {
            gang.run(groups.len(), threads);
            swapped.swap(0, Ordering::Relaxed)
        })
    })?;
    Ok(counts.outcome(matrix, assignment.into_vec()))
}

/// Pairs each simulated block processes in the GPU path.
const PAIRS_PER_BLOCK: usize = 128;

/// §V execution: one kernel launch per color group on the simulated
/// device, the assignment living in global memory. All launches of a
/// search share one device session. Produces exactly the reference
/// result (pairs within a group are disjoint, so concurrent execution
/// order cannot matter).
pub fn parallel_search_gpu(
    sim: &GpuSim,
    matrix: &ErrorMatrix,
    schedule: &SwapSchedule,
) -> ParallelOutcome {
    never_exceeded(parallel_search_gpu_bounded(
        sim,
        matrix,
        schedule,
        &Deadline::NONE,
    ))
}

/// [`parallel_search_gpu`] with cooperative cancellation: the deadline is
/// polled at sweep boundaries (between simulated kernel launches, never
/// inside one), so overshoot past an expiry is at most one sweep.
///
/// # Errors
/// Returns [`DeadlineExceeded`] when `deadline` expires before convergence.
pub fn parallel_search_gpu_bounded(
    sim: &GpuSim,
    matrix: &ErrorMatrix,
    schedule: &SwapSchedule,
    deadline: &Deadline,
) -> Result<ParallelOutcome, DeadlineExceeded> {
    let groups: Vec<Group> = schedule.occupied_groups().collect();
    let assignment = GlobalBuffer::from_vec((0..matrix.size()).collect());
    // The kernel's arguments: the group this launch sweeps, and the
    // sweep's swap count.
    let launch_group = GlobalBuffer::filled(1, 0usize);
    let swapped = GlobalBuffer::filled(1, 0usize);
    let kernel = |ctx: &mut BlockContext<'_>| {
        let group = groups[launch_group.load(0)];
        let pairs = chunk_of(group, ctx.block_id(), PAIRS_PER_BLOCK);
        let swaps = swap_pairs(matrix, &assignment, pairs);
        if swaps > 0 {
            swapped.fetch_add(0, swaps);
        }
    };
    let counts = sim.session(&kernel, |session| {
        run_sweeps(matrix, schedule, deadline, || {
            launch_sweep(session, &groups, &launch_group, &swapped)
        })
    })?;
    Ok(counts.outcome(matrix, assignment.into_vec()))
}

/// One sweep of the §V execution: a launch per occupied group, whose
/// index the kernel reads from `launch_group`. Returns (and clears) the
/// swaps the sweep's launches counted into `swapped`.
fn launch_sweep(
    session: &Session<'_>,
    groups: &[Group],
    launch_group: &GlobalBuffer<usize>,
    swapped: &GlobalBuffer<usize>,
) -> usize {
    for (index, group) in groups.iter().enumerate() {
        launch_group.store(0, index);
        session.launch(LaunchConfig::linear(
            group.len().div_ceil(PAIRS_PER_BLOCK),
            PAIRS_PER_BLOCK.min(group.len()),
        ));
    }
    let swaps = swapped.load(0);
    swapped.store(0, 0);
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_search::{is_swap_optimal, local_search};
    use mosaic_gpu::DeviceSpec;

    /// Algorithm 2 on the process-wide pool with no deadline.
    fn threads_search(
        matrix: &ErrorMatrix,
        schedule: &SwapSchedule,
        threads: usize,
    ) -> ParallelOutcome {
        parallel_search_threads_bounded_in(
            mosaic_pool::global(),
            matrix,
            schedule,
            threads,
            &Deadline::NONE,
        )
        .unwrap()
    }

    fn random_matrix(n: usize, seed: u64, max: u64) -> ErrorMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % max) as u32
        };
        ErrorMatrix::from_vec(n, (0..n * n).map(|_| next()).collect())
    }

    #[test]
    fn three_backends_produce_identical_results() {
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 4);
        for &n in &[2usize, 9, 16, 40] {
            let m = random_matrix(n, n as u64, 10_000);
            let sched = SwapSchedule::for_tiles(n);
            let reference = parallel_search_reference(&m, &sched);
            let threads = threads_search(&m, &sched, 3);
            let gpu = parallel_search_gpu(&sim, &m, &sched);
            assert_eq!(reference, threads, "threads diverged at n={n}");
            assert_eq!(reference, gpu, "gpu diverged at n={n}");
        }
    }

    /// The scoped-thread implementation this module shipped with before
    /// the pool rewiring, kept verbatim as a test oracle: the pool-backed
    /// path must be decision-for-decision identical to it.
    fn scoped_thread_search(
        matrix: &ErrorMatrix,
        schedule: &SwapSchedule,
        threads: usize,
    ) -> ParallelOutcome {
        let s = matrix.size();
        let mut assignment: Vec<usize> = (0..s).collect();
        let mut sweeps = 0usize;
        let mut swaps = 0usize;
        let mut launches = 0usize;
        let mut decisions: Vec<bool> = Vec::new();
        loop {
            sweeps += 1;
            let mut swapped = false;
            for group in schedule.occupied_groups() {
                launches += 1;
                let group: Vec<(usize, usize)> = group.pairs(0..group.len()).collect();
                decisions.clear();
                decisions.resize(group.len(), false);
                let chunk = group.len().div_ceil(threads);
                std::thread::scope(|scope| {
                    let assignment = &assignment;
                    for (pairs, flags) in group.chunks(chunk).zip(decisions.chunks_mut(chunk)) {
                        scope.spawn(move || {
                            for (&(p, q), flag) in pairs.iter().zip(flags.iter_mut()) {
                                *flag = matrix.swap_gain(assignment, p, q) > 0;
                            }
                        });
                    }
                });
                for (&(p, q), &doit) in group.iter().zip(&decisions) {
                    if doit {
                        assignment.swap(p, q);
                        swapped = true;
                        swaps += 1;
                    }
                }
            }
            if !swapped {
                break;
            }
        }
        let total = matrix.assignment_total(&assignment);
        ParallelOutcome {
            outcome: SearchOutcome {
                assignment,
                total,
                sweeps,
                swaps,
            },
            launches,
        }
    }

    /// A thread count far past the pool's lanes publishes no more chunks
    /// than the gang can run: 2^20 used to publish 2^20 (mostly empty)
    /// chunks per colour group and blow a 200 ms deadline at S = 64.
    #[test]
    fn huge_thread_count_stays_inside_the_deadline() {
        let m = random_matrix(64, 64, 10_000);
        let sched = SwapSchedule::for_tiles(64);
        let pool = mosaic_pool::ThreadPool::new(2);
        let deadline = Deadline::after_millis(200);
        let huge = parallel_search_threads_bounded_in(&pool, &m, &sched, 1 << 20, &deadline);
        pool.shutdown();
        assert_eq!(huge, Ok(parallel_search_reference(&m, &sched)));
    }

    #[test]
    fn pool_backed_search_equals_scoped_threads_across_thread_counts() {
        let m = random_matrix(40, 11, 10_000);
        let sched = SwapSchedule::for_tiles(40);
        for threads in [1usize, 2, 3, 7, 16] {
            let scoped = scoped_thread_search(&m, &sched, threads);
            let pooled = threads_search(&m, &sched, threads);
            assert_eq!(pooled, scoped, "diverged at threads={threads}");
            let own_pool = mosaic_pool::ThreadPool::new(2);
            let explicit =
                parallel_search_threads_bounded_in(&own_pool, &m, &sched, threads, &Deadline::NONE)
                    .unwrap();
            assert_eq!(
                explicit, scoped,
                "explicit pool diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn converges_to_swap_optimal_point() {
        let m = random_matrix(25, 3, 1_000);
        let sched = SwapSchedule::for_tiles(25);
        let out = parallel_search_reference(&m, &sched);
        assert!(is_swap_optimal(&m, &out.outcome.assignment));
        assert_eq!(
            out.outcome.total,
            m.assignment_total(&out.outcome.assignment)
        );
    }

    #[test]
    fn comparable_quality_to_serial_algorithm_1() {
        // §IV-B: the sweep order differs so totals differ slightly, but
        // both are swap-optimal; neither dominates systematically. Check
        // they land within a few percent of each other.
        for seed in [2u64, 13, 77] {
            let m = random_matrix(36, seed, 5_000);
            let sched = SwapSchedule::for_tiles(36);
            let serial = local_search(&m);
            let parallel = parallel_search_reference(&m, &sched);
            let lo = serial.total.min(parallel.outcome.total) as f64;
            let hi = serial.total.max(parallel.outcome.total) as f64;
            assert!(hi / lo < 1.2, "seed {seed}: {lo} vs {hi}");
        }
    }

    #[test]
    fn launch_count_is_sweeps_times_occupied_groups() {
        let m = random_matrix(16, 9, 100);
        let sched = SwapSchedule::for_tiles(16);
        let out = parallel_search_reference(&m, &sched);
        assert_eq!(out.launches, out.outcome.sweeps * 15);
    }

    #[test]
    fn already_optimal_needs_one_sweep() {
        let m = {
            let mut data = vec![50u32; 36];
            for i in 0..6 {
                data[i * 6 + i] = 0;
            }
            ErrorMatrix::from_vec(6, data)
        };
        let sched = SwapSchedule::for_tiles(6);
        let out = parallel_search_reference(&m, &sched);
        assert_eq!(out.outcome.sweeps, 1);
        assert_eq!(out.outcome.swaps, 0);
        assert_eq!(out.outcome.total, 0);
    }

    #[test]
    fn single_tile_schedule_is_degenerate_but_fine() {
        let m = ErrorMatrix::from_vec(1, vec![9]);
        let sched = SwapSchedule::for_tiles(1);
        let out = parallel_search_reference(&m, &sched);
        assert_eq!(out.outcome.assignment, vec![0]);
        assert_eq!(out.launches, 0);
    }

    #[test]
    fn gpu_path_with_many_blocks_per_group() {
        // Group sizes > PAIRS_PER_BLOCK force multi-block launches.
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 4);
        let n = 300; // group size 150 pairs > 128
        let m = random_matrix(n, 4, 100_000);
        let sched = SwapSchedule::for_tiles(n);
        let gpu = parallel_search_gpu(&sim, &m, &sched);
        let reference = parallel_search_reference(&m, &sched);
        assert_eq!(gpu, reference);
    }

    #[test]
    fn profile_scales_with_sweeps() {
        let p1 = step3_parallel_profile(100, 1, 99);
        let p2 = step3_parallel_profile(100, 2, 198);
        assert_eq!(p2.ops, 2 * p1.ops);
        assert_eq!(p2.global_bytes, 2 * p1.global_bytes);
    }

    #[test]
    #[should_panic(expected = "schedule must be built")]
    fn mismatched_schedule_panics() {
        let m = random_matrix(4, 1, 10);
        let sched = SwapSchedule::for_tiles(5);
        let _ = parallel_search_reference(&m, &sched);
    }

    #[test]
    fn bounded_variants_with_live_deadline_match_unbounded() {
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 2);
        let m = random_matrix(16, 5, 1_000);
        let sched = SwapSchedule::for_tiles(16);
        let deadline = Deadline::after(std::time::Duration::from_secs(3600));
        let reference = parallel_search_reference(&m, &sched);
        assert_eq!(
            parallel_search_reference_bounded(&m, &sched, &deadline).unwrap(),
            reference
        );
        assert_eq!(
            parallel_search_threads_bounded_in(mosaic_pool::global(), &m, &sched, 3, &deadline)
                .unwrap(),
            reference
        );
        assert_eq!(
            parallel_search_gpu_bounded(&sim, &m, &sched, &deadline).unwrap(),
            reference
        );
    }

    #[test]
    fn bounded_variants_with_expired_deadline_exit_before_any_sweep() {
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 2);
        let m = random_matrix(9, 5, 1_000);
        let sched = SwapSchedule::for_tiles(9);
        let expired = Deadline::after(std::time::Duration::ZERO);
        assert_eq!(
            parallel_search_reference_bounded(&m, &sched, &expired),
            Err(DeadlineExceeded)
        );
        assert_eq!(
            parallel_search_threads_bounded_in(mosaic_pool::global(), &m, &sched, 3, &expired),
            Err(DeadlineExceeded)
        );
        assert_eq!(
            parallel_search_gpu_bounded(&sim, &m, &sched, &expired),
            Err(DeadlineExceeded)
        );
    }
}
