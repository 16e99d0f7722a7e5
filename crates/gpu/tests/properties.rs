//! Property tests for the CUDA-model simulator: scheduling exactness,
//! barrier semantics, shared-memory isolation, panic propagation. Driven
//! by the deterministic [`mosaic_image::testutil`] PRNG (ported from the
//! former `proptest` suite; every case reproduces from the printed seed).

use mosaic_gpu::{BlockContext, DeviceSpec, GlobalBuffer, GpuSim, LaunchConfig};
use mosaic_image::testutil::XorShift;

#[test]
fn every_block_runs_exactly_once() {
    for workers in 1..=4 {
        for blocks in [0, 1, 2, 7, 31, 127, 128, 129, 500] {
            let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), workers);
            let counts = GlobalBuffer::filled(blocks, 0u32);
            let kernel = |ctx: &mut BlockContext<'_>| {
                counts.fetch_add(ctx.block_id(), 1);
            };
            let rec = sim.launch(LaunchConfig::linear(blocks, 4), &kernel);
            assert_eq!(rec.blocks, blocks, "{blocks} blocks on {workers} lanes");
            assert!(
                counts.to_vec().iter().all(|&c| c == 1),
                "{blocks} blocks on {workers} lanes"
            );
        }
    }
}

#[test]
fn shared_memory_never_leaks_between_blocks() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let blocks = rng.range(1, 79);
        let workers = rng.range(1, 4);
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), workers);
        let dirty = GlobalBuffer::filled(1, 0u32);
        let kernel = |ctx: &mut BlockContext<'_>| {
            let buf = ctx.shared().alloc_u8(64);
            if buf.iter().any(|&v| v != 0) {
                dirty.fetch_add(0, 1);
            }
            buf.fill(0xDE);
        };
        sim.launch(LaunchConfig::linear(blocks, 8), &kernel);
        assert_eq!(dirty.load(0), 0, "seed {seed}");
    }
}

#[test]
fn launch_result_threads_product() {
    for seed in 0..48 {
        let mut rng = XorShift::new(seed);
        let blocks = rng.below(50);
        let tpb = rng.range(1, 63);
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 2);
        let kernel = |_ctx: &mut BlockContext<'_>| {};
        let rec = sim.launch(LaunchConfig::linear(blocks, tpb), &kernel);
        assert_eq!(rec.threads, blocks * tpb, "seed {seed}");
    }
}

#[test]
fn kernel_panic_propagates_to_the_launch_site() {
    let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 2);
    let kernel = |ctx: &mut BlockContext<'_>| {
        if ctx.block_id() == 3 {
            panic!("injected kernel fault");
        }
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.launch(LaunchConfig::linear(8, 1), &kernel);
    }));
    assert!(result.is_err(), "panic must not be swallowed");
}

#[test]
fn simulator_is_reusable_after_a_failed_launch() {
    let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 2);
    let bad = |_ctx: &mut BlockContext<'_>| panic!("boom");
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.launch(LaunchConfig::linear(2, 1), &bad);
    }));
    // A subsequent launch must still work.
    let out = GlobalBuffer::filled(4, 0u32);
    let good = |ctx: &mut BlockContext<'_>| out.store(ctx.block_id(), 1);
    sim.launch(LaunchConfig::linear(4, 1), &good);
    assert!(out.to_vec().iter().all(|&v| v == 1));
}
