//! Asserts that steady-state `forward_into` and `train_step` perform
//! **zero heap allocations**, using a counting global allocator.
//!
//! Counting is per-thread, flag and counter both: the libtest harness
//! keeps its own threads alive next to the test threads, and neither
//! their incidental allocations nor a concurrently running test's may
//! leak into a count. Both are const-initialised `Cell`s so arming them
//! never allocates (a lazily initialised thread-local would recurse into
//! the allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dt_nn::{log_softmax_masked_into, Activation, Adam, ForwardScratch, Loss, Mlp, TrainScratch};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation if the current thread has armed counting.
/// `Cell`s have no destructor, so the allocator never observes a dead
/// thread-local.
fn count() {
    if COUNTING.with(|c| c.get()) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Count heap allocations performed by `f` on the calling thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(|n| n.get())
}

#[test]
fn steady_state_forward_into_is_allocation_free() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mlp = Mlp::new(
        &[31, 64, 64, 4],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let batch = 32usize;
    let x: Vec<f64> = (0..batch * 31)
        .map(|_| rng.random::<f64>() * 2.0 - 1.0)
        .collect();
    let mut scratch = ForwardScratch::new();
    let mut logp = Vec::with_capacity(4);
    let mask = [true, true, false, true];

    // Warm-up: first calls may grow the scratch and logp buffers.
    let _ = mlp.forward_into(&x, batch, &mut scratch);
    let out = mlp.forward_into(&x[..31], 1, &mut scratch);
    log_softmax_masked_into(&out[..4], Some(&mask), &mut logp);

    // Steady state: batched, batch-1, and the decode-loop softmax must
    // all run without touching the allocator.
    let mut sink = 0.0;
    let count = allocations_in(|| {
        for _ in 0..100 {
            let out = mlp.forward_into(&x, batch, &mut scratch);
            sink += out[0];
            let out1 = mlp.forward_into(&x[..31], 1, &mut scratch);
            log_softmax_masked_into(&out1[..4], Some(&mask), &mut logp);
            sink += logp[0];
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        count, 0,
        "steady-state forward_into must not allocate, saw {count} allocations"
    );

    // Sanity check that the counter actually counts.
    let count = allocations_in(|| {
        let v: Vec<f64> = Vec::with_capacity(64);
        std::hint::black_box(&v);
    });
    assert!(count >= 1, "counter should see an explicit allocation");
}

#[test]
fn steady_state_train_step_is_allocation_free() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let mut mlp = Mlp::new(
        &[15, 32, 32, 4],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let rows = 256usize;
    let x: Vec<f64> = (0..rows * 15).map(|_| rng.random::<f64>()).collect();
    let targets: Vec<usize> = (0..rows).map(|r| r % 4).collect();
    let masks: Vec<bool> = (0..rows * 4)
        .map(|i| i % 4 != 3 || i / 4 % 4 == 3)
        .collect();
    let y: Vec<f64> = (0..rows * 4).map(|_| rng.random::<f64>()).collect();
    let ce = Loss::CrossEntropy {
        targets: &targets,
        masks: Some(&masks),
    };
    let mse = Loss::Mse { targets: &y };
    let mut adam = Adam::with_lr(3e-3);
    let mut scratch = TrainScratch::new();

    // Warm-up: grows the scratch and the Adam state.
    let mut sink = mlp.train_step(&x, rows, &ce, 5.0, &mut adam, &mut scratch);

    let count = allocations_in(|| {
        for _ in 0..10 {
            sink += mlp.train_step(&x, rows, &ce, 5.0, &mut adam, &mut scratch);
            sink += mlp.train_step(
                &x[..15 * 7],
                7,
                &Loss::Mse { targets: &y[..28] },
                5.0,
                &mut adam,
                &mut scratch,
            );
            sink += mlp.train_step(&x, rows, &mse, 5.0, &mut adam, &mut scratch);
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        count, 0,
        "steady-state train_step must not allocate, saw {count} allocations"
    );
}
