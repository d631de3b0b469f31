//! Asserts that the deep proposal's two hot paths perform **zero heap
//! allocations** once warm, using a counting global allocator:
//! teacher-forced replay, run on every deep-proposal Metropolis–Hastings
//! step, and a trainer epoch, run every retraining round.
//!
//! Counting is armed per-thread, so the tests in this binary can run
//! concurrently: each one counts only its own thread's allocations. The
//! flag is a const-initialised `Cell` so arming it never allocates (a
//! lazily initialised thread-local would recurse into the allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dt_lattice::{Composition, Configuration, SiteId, Species, Structure, Supercell};
use dt_proposal::train::random_training_set;
use dt_proposal::{
    DeepProposal, DeepProposalConfig, ProposalContext, ProposalKernel, ProposalTrainer,
    ProposedMove, TrainerConfig,
};
use rand::SeedableRng;
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
fn warmed_replay_is_allocation_free() {
    let cell = Supercell::cubic(Structure::bcc(), 2);
    let nt = cell.neighbor_table(2);
    let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
    let ctx = ProposalContext {
        neighbors: &nt,
        composition: &comp,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let config = Configuration::random(&comp, &mut rng);
    let mut kern = DeepProposal::new(
        4,
        2,
        &DeepProposalConfig {
            k: 8,
            hidden: vec![16, 16],
        },
        &mut rng,
    );
    kern.warm_up(cell.num_sites());

    // One full proposal to derive a (sites, targets) pair and finish
    // warming every internal buffer.
    let p = kern.propose(&config, &ctx, &mut rng);
    let ProposedMove::Reassign { moves } = &p.mv else {
        panic!("deep kernel must emit a reassignment")
    };
    let sites: Vec<SiteId> = moves.iter().map(|&(s, _)| s).collect();
    let targets: Vec<Species> = moves.iter().map(|&(_, t)| t).collect();
    let want = kern.log_prob_of_reassignment(&config, &nt, &sites, &targets);

    // Steady state: the replay that runs on every MH step must not touch
    // the allocator.
    let mut sink = 0.0;
    let count = allocations_in(|| {
        for _ in 0..100 {
            sink += kern.log_prob_of_reassignment(&config, &nt, &sites, &targets);
        }
    });
    assert!((sink / 100.0 - want).abs() < 1e-12);
    assert_eq!(
        count, 0,
        "warmed-up replay must not allocate, saw {count} allocations"
    );

    // Sanity check that the counter actually counts.
    let count = allocations_in(|| {
        let v: Vec<f64> = Vec::with_capacity(64);
        std::hint::black_box(&v);
    });
    assert!(count >= 1, "counter should see an explicit allocation");
}

#[test]
fn warmed_train_epoch_is_allocation_free() {
    // The deep trainer's production shape: [15, 32, 32, 4] network,
    // TrainerConfig defaults (k = 32, 8 configurations per chunk) and a
    // full 256-configuration buffer.
    let cell = Supercell::cubic(Structure::bcc(), 3);
    let nt = cell.neighbor_table(2);
    let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let mut kern = DeepProposal::new(
        4,
        2,
        &DeepProposalConfig {
            k: 12,
            hidden: vec![32, 32],
        },
        &mut rng,
    );
    let buffer = random_training_set(&comp, 256, &mut rng);
    let mut trainer = ProposalTrainer::new(kern.layout(), TrainerConfig::default());

    // Warm-up epoch: grows every reusable buffer and the Adam state.
    let first = trainer
        .train_epoch(kern.net_mut(), &buffer, &nt, &mut rng)
        .unwrap();

    let mut last = first;
    let count = allocations_in(|| {
        for _ in 0..3 {
            last = trainer
                .train_epoch(kern.net_mut(), &buffer, &nt, &mut rng)
                .unwrap();
        }
    });
    assert!(first.is_finite() && last.is_finite());
    assert_eq!(
        count, 0,
        "a warmed train_epoch must not allocate, saw {count} allocations"
    );
}
