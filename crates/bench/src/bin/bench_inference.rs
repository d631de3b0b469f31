//! E13 — batched inference engine throughput versus the batch-1 seed path.
//!
//! Reproduces the two hot inference workloads of the deep proposal on an
//! NbMoTaW fixture and times each twice:
//!
//! * **reverse replay** — the teacher-forced `log_prob_of_reassignment`
//!   computed on every Metropolis–Hastings step, as one k-row batched
//!   forward (engine) versus k sequential allocating batch-1 passes
//!   (`Matrix::row_vector` + the seed's per-layer allocating forward +
//!   per-step mask `Vec` + allocating `log_softmax_masked` — the seed
//!   implementation);
//! * **training forward** — the teacher-forced feature chunk a
//!   `ProposalTrainer` epoch consumes, as one multi-row forward versus
//!   row-by-row batch-1 passes.
//!
//! It also reports, ungated, the rows/s of one full `Mlp::train_step`
//! (forward, masked cross-entropy, backward, clip, Adam) at the deep
//! trainer's shape: 8 configurations × k = 32 = 256 rows through a
//! [15, 32, 32, 4] network, with its heap allocations per step.
//!
//! Asserts the batched log-probabilities are **bit-identical** to the
//! batch-1 references, counts heap allocations per forward on both paths,
//! enforces the `--gate` speedup (default 3x) on both workloads, and
//! writes the measurements to `--out` (default `BENCH_inference.json`).
//! Exits nonzero if identity or the gate fails, so CI can use it as a
//! regression fence.
//!
//! ```text
//! cargo run -p dt-bench --release --bin bench_inference \
//!     [-- --l 4 --pairs 16 --reps 100 --gate 3.0 --out BENCH_inference.json]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dt_bench::{arg, print_csv, timed, HeaSystem};
use dt_lattice::{Configuration, NeighborTable, SiteId, Species};
use dt_nn::{log_softmax_masked, Adam, ForwardScratch, Loss, Matrix, Mlp, TrainScratch};
use dt_proposal::{
    DeepProposal, DeepProposalConfig, FeatureLayout, ProposalContext, ProposalKernel, ProposedMove,
    TrainerConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Count heap allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// The seed implementation's allocating forward pass: a fresh `Matrix`
/// per layer product and per activation, one k-ascending dot product per
/// element. dt-nn's `Mlp::forward` now wraps the tiled engine, so the
/// baseline this benchmark is gated against lives here.
fn seed_forward(net: &Mlp, x: &Matrix) -> Matrix {
    let mut h = x.clone();
    let last = net.layers().len() - 1;
    for (i, layer) in net.layers().iter().enumerate() {
        let mut pre = Matrix::zeros(h.rows(), layer.out_dim());
        for r in 0..h.rows() {
            for j in 0..layer.out_dim() {
                let mut acc = 0.0;
                for (&a, &b) in h.row(r).iter().zip(layer.w.row(j)) {
                    acc += a * b;
                }
                pre[(r, j)] = acc + layer.b[j];
            }
        }
        let act = if i == last {
            net.output_activation()
        } else {
            net.hidden_activation()
        };
        h = pre.map(|v| act.apply(v));
    }
    h
}

/// The seed implementation of teacher-forced replay: one allocating
/// batch-1 forward per site.
fn replay_batch1(
    net: &Mlp,
    layout: FeatureLayout,
    config: &Configuration,
    neighbors: &NeighborTable,
    sites: &[SiteId],
    targets: &[Species],
) -> f64 {
    let m = layout.num_species;
    let n = config.num_sites();
    let mut work = config.species().to_vec();
    let mut decided = vec![true; n];
    for &s in sites {
        decided[s as usize] = false;
    }
    let mut remaining = vec![0usize; m];
    for &s in sites {
        remaining[config.species_at(s).index()] += 1;
    }
    let k = sites.len();
    let mut feat = vec![0.0; layout.dim()];
    let mut total = 0.0;
    for (step, (&site, &target)) in sites.iter().zip(targets).enumerate() {
        layout.fill(
            &mut feat,
            site,
            neighbors,
            &work,
            &decided,
            &remaining,
            k - step,
            step as f64 / k as f64,
        );
        let logits = seed_forward(net, &Matrix::row_vector(&feat));
        let mask: Vec<bool> = remaining.iter().map(|&r| r > 0).collect();
        let logp = log_softmax_masked(logits.row(0), Some(&mask));
        total += logp[target.index()];
        remaining[target.index()] -= 1;
        work[site as usize] = target;
        decided[site as usize] = true;
    }
    total
}

fn main() {
    let l: usize = arg("--l", 4);
    let k: usize = arg("--k", 32);
    let pairs: usize = arg("--pairs", 16);
    let reps: usize = arg("--reps", 100);
    let passes: usize = arg("--passes", 5);
    // The packed vector kernel is compiled out below AVX (see
    // dt-nn::infer); without it only the scalar-tile engine runs, so the
    // default gate drops accordingly. CI builds with
    // `-C target-cpu=x86-64-v3` and pins `--gate 3.0`.
    let avx = cfg!(target_feature = "avx");
    let gate: f64 = arg("--gate", if avx { 3.0 } else { 1.5 });
    let out_path: String = arg("--out", "BENCH_inference.json".to_string());
    if !avx {
        eprintln!(
            "note: compiled without AVX; packed kernel inactive \
             (build with RUSTFLAGS=\"-C target-cpu=x86-64-v3\" for full speed)"
        );
    }

    let sys = HeaSystem::nbmotaw(l);
    let ctx = ProposalContext {
        neighbors: &sys.neighbors,
        composition: &sys.comp,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let config = Configuration::random(&sys.comp, &mut rng);
    let mut kern = DeepProposal::new(
        sys.comp.num_species(),
        2,
        &DeepProposalConfig {
            k,
            hidden: vec![64, 64],
        },
        &mut rng,
    );
    kern.warm_up(sys.num_sites());
    let layout = kern.layout();
    let dim = layout.dim();

    // Fixed (sites, targets) pairs drawn from the kernel itself.
    let moves: Vec<(Vec<SiteId>, Vec<Species>)> = (0..pairs)
        .map(|_| {
            let p = kern.propose(&config, &ctx, &mut rng);
            let ProposedMove::Reassign { moves } = &p.mv else {
                panic!("deep kernel must emit a reassignment")
            };
            (
                moves.iter().map(|&(s, _)| s).collect(),
                moves.iter().map(|&(_, t)| t).collect(),
            )
        })
        .collect();

    // Bit-identity fence: the batched engine must reproduce the seed
    // path exactly or the speedup is meaningless for MH sampling.
    for (sites, targets) in &moves {
        let batched = kern.log_prob_of_reassignment(&config, &sys.neighbors, sites, targets);
        let reference = replay_batch1(kern.net(), layout, &config, &sys.neighbors, sites, targets);
        assert_eq!(
            batched.to_bits(),
            reference.to_bits(),
            "batched replay diverged: {batched} vs {reference}"
        );
    }

    // Allocations per forward pass on each path (steady state).
    let (s0, t0) = &moves[0];
    let allocs_batch1 = allocations_in(|| {
        std::hint::black_box(replay_batch1(
            kern.net(),
            layout,
            &config,
            &sys.neighbors,
            s0,
            t0,
        ));
    }) as f64
        / k as f64;
    let allocs_batched = allocations_in(|| {
        std::hint::black_box(kern.log_prob_of_reassignment(&config, &sys.neighbors, s0, t0));
    }) as f64;

    // Reverse-replay throughput: best of `passes` timing passes per
    // path, so scheduler noise on shared runners cannot sink either side.
    let mut sink = 0.0;
    let total_rows = (reps * pairs * k) as f64;
    let mut replay_b1_rows_s = 0.0f64;
    let mut replay_batched_rows_s = 0.0f64;
    for _ in 0..passes {
        let (_, sec) = timed(|| {
            for _ in 0..reps {
                for (sites, targets) in &moves {
                    sink +=
                        replay_batch1(kern.net(), layout, &config, &sys.neighbors, sites, targets);
                }
            }
        });
        replay_b1_rows_s = replay_b1_rows_s.max(total_rows / sec);
        let (_, sec) = timed(|| {
            for _ in 0..reps {
                for (sites, targets) in &moves {
                    sink += kern.log_prob_of_reassignment(&config, &sys.neighbors, sites, targets);
                }
            }
        });
        replay_batched_rows_s = replay_batched_rows_s.max(total_rows / sec);
    }
    assert!(sink.is_finite());
    let replay_speedup = replay_batched_rows_s / replay_b1_rows_s;

    // Training-forward throughput: the teacher-forced feature chunk of a
    // trainer epoch, batch-1 versus one multi-row forward.
    let train_rows = pairs * k;
    let m = layout.num_species;
    let mut chunk = vec![0.0; train_rows * dim];
    let mut chunk_targets = Vec::with_capacity(train_rows);
    let mut chunk_masks = Vec::with_capacity(train_rows * m);
    {
        // Teacher-forced features, identical construction to replay.
        for (pair, (sites, targets)) in moves.iter().enumerate() {
            let mut work = config.species().to_vec();
            let mut decided = vec![true; config.num_sites()];
            for &s in sites {
                decided[s as usize] = false;
            }
            let mut remaining = vec![0usize; m];
            for &s in sites {
                remaining[config.species_at(s).index()] += 1;
            }
            for (step, (&site, &target)) in sites.iter().zip(targets).enumerate() {
                let row = pair * k + step;
                layout.fill(
                    &mut chunk[row * dim..(row + 1) * dim],
                    site,
                    &sys.neighbors,
                    &work,
                    &decided,
                    &remaining,
                    k - step,
                    step as f64 / k as f64,
                );
                chunk_targets.push(target.index());
                chunk_masks.extend(remaining.iter().map(|&r| r > 0));
                remaining[target.index()] -= 1;
                work[site as usize] = target;
                decided[site as usize] = true;
            }
        }
    }
    let net = kern.net().clone();
    let mut scratch = ForwardScratch::for_mlp(&net, train_rows);
    let mut sink2 = 0.0;
    let train_total_rows = (reps * train_rows) as f64;
    let mut train_b1_rows_s = 0.0f64;
    let mut train_batched_rows_s = 0.0f64;
    for _ in 0..passes {
        let (_, sec) = timed(|| {
            for _ in 0..reps {
                for row in chunk.chunks_exact(dim) {
                    let out = seed_forward(&net, &Matrix::row_vector(row));
                    sink2 += out.data()[0];
                }
            }
        });
        train_b1_rows_s = train_b1_rows_s.max(train_total_rows / sec);
        let (_, sec) = timed(|| {
            for _ in 0..reps {
                let out = net.forward_into(&chunk, train_rows, &mut scratch);
                sink2 += out[0];
            }
        });
        train_batched_rows_s = train_batched_rows_s.max(train_total_rows / sec);
    }
    assert!(sink2.is_finite());
    let train_speedup = train_batched_rows_s / train_b1_rows_s;

    // Training-step throughput at the deep trainer's shape (report only).
    let trainer = TrainerConfig::default();
    let step_rows = (trainer.configs_per_batch * k).min(train_rows);
    let mut step_net = DeepProposal::new(
        m,
        2,
        &DeepProposalConfig {
            k,
            hidden: vec![32, 32],
        },
        &mut rng,
    )
    .net()
    .clone();
    let mut adam = Adam::with_lr(trainer.lr);
    let mut train_scratch = TrainScratch::for_mlp(&step_net, step_rows);
    let step_loss = Loss::CrossEntropy {
        targets: &chunk_targets[..step_rows],
        masks: Some(&chunk_masks[..step_rows * m]),
    };
    let step_x = &chunk[..step_rows * dim];
    let mut step = || {
        step_net.train_step(
            step_x,
            step_rows,
            &step_loss,
            trainer.grad_clip,
            &mut adam,
            &mut train_scratch,
        )
    };
    let mut sink3 = step(); // warm-up: Adam state
    let allocs_per_step = allocations_in(|| sink3 += step());
    let mut step_rows_s = 0.0f64;
    for _ in 0..passes {
        let (_, sec) = timed(|| {
            for _ in 0..reps {
                sink3 += step();
            }
        });
        step_rows_s = step_rows_s.max((reps * step_rows) as f64 / sec);
    }
    assert!(sink3.is_finite());

    print_csv(
        "workload,batch1_rows_per_s,batched_rows_per_s,speedup,allocs_per_forward_batch1,allocs_per_forward_batched",
        &[
            format!(
                "reverse_replay,{replay_b1_rows_s:.0},{replay_batched_rows_s:.0},{replay_speedup:.2},{allocs_batch1:.1},{allocs_batched:.1}"
            ),
            format!(
                "training_forward,{train_b1_rows_s:.0},{train_batched_rows_s:.0},{train_speedup:.2},,"
            ),
            format!("training_step,,{step_rows_s:.0},,,{allocs_per_step}"),
        ],
    );

    let pass = replay_speedup >= gate && train_speedup >= gate;
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"E13\",\n",
            "  \"fixture\": {{\"l\": {l}, \"k\": {k}, \"hidden\": [64, 64], \"pairs\": {pairs}, \"reps\": {reps}}},\n",
            "  \"reverse_replay\": {{\"batch1_rows_per_s\": {rb1:.1}, \"batched_rows_per_s\": {rb:.1}, \"speedup\": {rs:.3}}},\n",
            "  \"training_forward\": {{\"batch1_rows_per_s\": {tb1:.1}, \"batched_rows_per_s\": {tb:.1}, \"speedup\": {ts:.3}}},\n",
            "  \"training_step\": {{\"rows\": {sr}, \"hidden\": [32, 32], \"rows_per_s\": {srs:.1}, \"allocs_per_step\": {sa}}},\n",
            "  \"allocs_per_forward\": {{\"batch1\": {ab1:.2}, \"batched\": {ab:.2}}},\n",
            "  \"avx\": {avx},\n",
            "  \"bit_identical\": true,\n",
            "  \"gate\": {gate:.1},\n",
            "  \"pass\": {pass}\n",
            "}}\n"
        ),
        l = l,
        k = k,
        pairs = pairs,
        reps = reps,
        rb1 = replay_b1_rows_s,
        rb = replay_batched_rows_s,
        rs = replay_speedup,
        tb1 = train_b1_rows_s,
        tb = train_batched_rows_s,
        ts = train_speedup,
        sr = step_rows,
        srs = step_rows_s,
        sa = allocs_per_step,
        ab1 = allocs_batch1,
        ab = allocs_batched,
        avx = avx,
        gate = gate,
        pass = pass,
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    if !pass {
        eprintln!(
            "FAIL: speedup gate {gate}x not met (replay {replay_speedup:.2}x, training {train_speedup:.2}x)"
        );
        std::process::exit(1);
    }
}
