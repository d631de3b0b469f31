//! The workloads and the per-layer ledger they report.
//!
//! Every workload has the same two phases: pipeline operations (material
//! → converged DOS → first served curve), each with its own sampler seed,
//! as many as the run length sets, then an open-loop serving ladder over the
//! artifacts those operations exported.

use std::path::Path;
use std::time::Instant;

use deepthermo::hpc::{comparison_table, measured_vs_modeled, GpuSpec, PerfModel, WorkloadShape};
use deepthermo::serve::fixture::fixture_artifact;
use deepthermo::serve::ArtifactRegistry;
use deepthermo::telemetry::{adaptive_counters, Phase, PhaseBreakdown, RankTelemetry};

use crate::load::derive_seed;
use crate::metrics::{peak_rss_mb, Metrics};
use crate::pipeline::{pipeline_op, start_server, Job, Kernel, OpRecord};
use crate::serving::{key_space, replay, run_ladder, ServeOutcome};
use crate::stats::{iqm, median, percentile};
use crate::trace::Tracer;

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The sampling job each pipeline operation runs.
    pub job: Job,
    /// Typical seconds per untraced pipeline operation on a 2-vCPU VM:
    /// sets how many operations a run of a given length makes.
    pub op_s: f64,
}

/// Every workload.
pub const WORKLOADS: &[Workload] = &[
    // NbMoTaW L=6, local swaps, checkpointing at the default cadence.
    Workload {
        name: "local_l6",
        job: Job {
            material: "nbmotaw",
            l: 6,
            kernel: Kernel::Local,
            ln_f_final: 1e-4,
            checkpoint: true,
            reference: "nbmotaw-l6",
        },
        op_s: 3.3,
    },
    // NbMoTaW L=3, the deep kernel, no checkpointing.
    Workload {
        name: "deep_l3",
        job: Job {
            material: "nbmotaw",
            l: 3,
            kernel: Kernel::Deep,
            ln_f_final: 5e-4,
            checkpoint: false,
            reference: "nbmotaw-l3",
        },
        op_s: 12.0,
    },
];

/// Artifacts the ladder serves (the first operations'), so the key space
/// and the server's memory do not grow with the run length.
const SERVED_ARTIFACTS: usize = 6;

/// Base of the pipeline operations' sampler seeds: operation `k` samples
/// with `derive_seed(SAMPLER_SEED, k)` whatever `--seed` is. Sweeps to
/// convergence and the DOS error vary far more from one sampler seed to
/// the next (`dos_err` by about 30%) than a handful of operations can
/// average out, so every run and every commit samples the same
/// operations; `--seed` drives the request stream.
const SAMPLER_SEED: u64 = 1;

/// Nominal seconds of the serving ladder (four 1.5 s steps), left out
/// of the pipeline's share of the run length.
const LADDER_S: f64 = 7.0;

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Named values.
    pub metrics: Metrics,
    /// Operations attempted (pipeline runs + requests + replays).
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunOutcome {
    fn count_ops(&mut self, ops: &[OpRecord]) {
        for op in ops {
            self.attempted += 1;
            if !op.failures.is_empty() {
                self.failed += 1;
                for f in &op.failures {
                    let msg = format!("op {} seed {}: {f}", op.op, op.seed);
                    if self.failures.len() < 16 {
                        self.failures.push(msg);
                    }
                }
            }
        }
    }
}

fn med(v: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = v.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

fn phase_sum(tel: &[RankTelemetry], phase: Phase) -> (f64, u64) {
    tel.iter()
        .filter_map(|r| r.phase_stat(phase))
        .fold((0.0, 0), |(s, n), p| (s + p.total_s, n + p.count))
}

fn counter_sum(tel: &[RankTelemetry], name: &str) -> u64 {
    tel.iter().filter_map(|r| r.counter(name)).sum()
}

/// Run `w` for about `seconds` under `work`; `seed` drives the request
/// stream.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> (RunOutcome, Tracer) {
    let mut tr = Tracer::new();
    let mut out = RunOutcome::default();
    let start = Instant::now();
    let job = w.job;

    // ---- pipeline operations, one sampler seed each. The count follows
    // from the run length alone, so every commit summarises the same
    // operations; the time cap only keeps a badly regressed commit
    // bounded. A traced run pairs each operation with a twin, so it
    // makes half as many.
    let op_s = if traced { 2.0 * w.op_s } else { w.op_s };
    let n_ops = (((seconds - LADDER_S) / op_s).round() as u64).max(1);
    let cap_s = 1.5 * seconds;
    let mut ops: Vec<OpRecord> = Vec::new();
    for k in 0..n_ops {
        let s = derive_seed(SAMPLER_SEED, k);
        ops.push(pipeline_op(&job, s, false, 2 * k + 1, work, &mut tr));
        if traced {
            ops.push(pipeline_op(&job, s, true, 2 * k + 2, work, &mut tr));
        }
        if start.elapsed().as_secs_f64() > cap_s {
            out.notes.push(format!(
                "stopped after {} of {n_ops} operations at the {cap_s} s cap",
                k + 1
            ));
            break;
        }
    }
    out.count_ops(&ops);
    check_traced_twins(&ops, &mut out);

    // ---- serving ladder ------------------------------------------------
    let untraced: Vec<&OpRecord> = ops.iter().filter(|o| !o.traced).collect();
    let served = &untraced[..untraced.len().min(SERVED_ARTIFACTS)];
    let registry = union_registry(served, &mut tr);
    let keys = key_space(&registry);
    let serve = match start_server(registry.clone()) {
        Ok((server, _)) => {
            let o = run_ladder(&server, &keys, seed, &mut tr);
            server.shutdown();
            server.join();
            o
        }
        Err(e) => {
            out.failures.push(format!("serving: {e}"));
            ServeOutcome {
                attempted: 1,
                failed: 1,
                ..ServeOutcome::default()
            }
        }
    };
    out.attempted += serve.attempted;
    out.failed += serve.failed;
    out.failures.extend(serve.failures.iter().cloned());

    // ---- end-to-end metrics ----------------------------------------------
    let ok_untraced: Vec<&OpRecord> = untraced
        .iter()
        .copied()
        .filter(|o| o.failures.is_empty())
        .collect();
    let m = &mut out.metrics;
    m.set("setup_s", med(ok_untraced.iter().map(|o| o.setup_s)));
    // Sweeps to convergence are mostly the fixed `1/t` tail, sometimes a
    // longer flatness stage, now and then a far outlier, so a median
    // over a handful of operations jumps between groups. Times are the
    // lower quartile: the tail is a floor on the work, and a shared host
    // only ever adds time, so the lower quartile is the tail's cost at
    // the host's usual speed. The error is the mean of the middle half.
    let lower_quartile = |v: Vec<f64>| percentile(&v, 25.0);
    m.set(
        "dos_wall_s",
        lower_quartile(ok_untraced.iter().map(|o| o.dos_wall_s).collect()),
    );
    m.set(
        "curve_s",
        lower_quartile(ok_untraced.iter().map(|o| o.curve_s).collect()),
    );
    m.set("dos_err", iqm(ok_untraced.iter().map(|o| o.dos_err)));
    if !serve.steps.is_empty() {
        m.set("serve_max_rps", serve.max_rps);
    }
    for s in &serve.steps {
        out.notes.push(format!(
            "rate {:>6} req/s: offered {:>6}, failed {}, p50 {:.3} ms, p99 {:.3} ms (median of {} windows), whole-step p{} {:.3} ms, achieved {:.1} req/s, backlog {}, {}",
            s.rate,
            s.offered,
            s.failed,
            s.p50_ms,
            s.p99_ms,
            s.windows,
            s.tail_pct,
            s.tail_ms,
            s.achieved_rps,
            s.backlog,
            if s.passed { "meets limit" } else { "misses limit" }
        ));
    }
    out.notes.extend(serve.notes.iter().cloned());
    for o in &ops {
        out.notes.push(format!(
            "op {:>3} seed {:016x} {}: setup {:.4} s, dos {:.3} s (cpu {:.2} s), curve {:.3} s, sweeps {}, dos_err {:.4}",
            o.op,
            o.seed,
            if o.traced { "traced  " } else { "untraced" },
            o.setup_s,
            o.dos_wall_s,
            o.dos_cpu_s,
            o.curve_s,
            o.sweeps,
            o.dos_err
        ));
    }

    // ---- per-layer ledger (traced runs) ------------------------------------
    if traced {
        let twins: Vec<&OpRecord> = ops
            .iter()
            .filter(|o| o.traced && o.failures.is_empty())
            .collect();
        rewl_layers(&mut out, &twins, &ok_untraced, job.epochs_per_round(), &tr);
        let replayed = replay(registry, &keys, &serve.reference_stream, &mut tr);
        out.attempted += replayed.requests;
        out.failed += replayed.failed;
        serve_layers(&mut out, &serve, &replayed, &tr);
    }
    out.metrics.set("peak_rss_mb", peak_rss_mb());
    (out, tr)
}

/// Load every operation's registry into one, plus the fixture: the one
/// artifact carrying a surrogate, for `/v1/predict`.
fn union_registry(ops: &[&OpRecord], tr: &mut Tracer) -> ArtifactRegistry {
    tr.span("serve.union_load", |_| {
        let mut all = ArtifactRegistry::new();
        for op in ops.iter().filter(|o| o.failures.is_empty()) {
            if let Ok(reg) = ArtifactRegistry::open(&op.registry_dir) {
                for a in reg.iter() {
                    all.insert(a.clone());
                }
            }
        }
        all.insert(fixture_artifact("bench"));
        all
    })
}

/// A traced twin must reproduce its untraced run's `ln g` bit for bit.
fn check_traced_twins(ops: &[OpRecord], out: &mut RunOutcome) {
    for t in ops.iter().filter(|o| o.traced && o.failures.is_empty()) {
        let twin = ops
            .iter()
            .find(|u| !u.traced && u.seed == t.seed && u.failures.is_empty());
        if let Some(u) = twin {
            out.attempted += 1;
            if u.ln_g_bits != t.ln_g_bits {
                out.failed += 1;
                out.failures.push(format!(
                    "seed {}: traced ln g differs from the untraced run",
                    t.seed
                ));
            }
        }
    }
}

fn rewl_layers(
    out: &mut RunOutcome,
    twins: &[&OpRecord],
    untraced: &[&OpRecord],
    epochs_per_round: usize,
    tr: &Tracer,
) {
    let span = |name: &str| med(twins.iter().map(|o| tr.op_total(o.op, name)));
    let span_u = |name: &str| med(untraced.iter().map(|o| tr.op_total(o.op, name)));
    let phase = |p: Phase| med(twins.iter().map(|o| phase_sum(&o.telemetry, p).0));
    let count = |p: Phase| med(twins.iter().map(|o| phase_sum(&o.telemetry, p).1 as f64));
    let ctr = |name: &str| med(twins.iter().map(|o| counter_sum(&o.telemetry, name) as f64));
    let m = &mut out.metrics;
    m.set("lattice.neighbor_table_s", span("lattice.neighbor_table"));
    m.set("hamiltonian.resolve_s", span_u("hamiltonian.resolve"));
    m.set("hamiltonian.energy_eval_s", phase(Phase::EnergyEval));
    m.set("hamiltonian.energy_eval_n", count(Phase::EnergyEval));
    m.set("wanglandau.range_s", span("wanglandau.range"));
    m.set(
        "wanglandau.move_self_s",
        med(twins.iter().map(|o| {
            let t = &o.telemetry;
            phase_sum(t, Phase::MoveBatch).0
                - phase_sum(t, Phase::EnergyEval).0
                - phase_sum(t, Phase::Inference).0
        })),
    );
    m.set(
        "wanglandau.sweeps",
        med(untraced.iter().map(|o| o.sweeps as f64)),
    );
    m.set(
        "wanglandau.moves_per_s",
        med(untraced
            .iter()
            .map(|o| o.total_moves as f64 / o.dos_wall_s.max(1e-9))),
    );
    m.set("proposal.inference_s", phase(Phase::Inference));
    m.set("proposal.inference_n", count(Phase::Inference));
    m.set(
        "proposal.accept_local",
        med(untraced.iter().map(|o| o.accept_local)),
    );
    m.set(
        "proposal.accept_deep",
        med(untraced.iter().map(|o| o.accept_deep)),
    );
    m.set("nn.train_s", phase(Phase::Train));
    m.set(
        "nn.train_rounds",
        if epochs_per_round == 0 {
            0.0
        } else {
            count(Phase::Train) / epochs_per_round as f64
        },
    );
    m.set("rewl.sample_s", span("rewl.run"));
    m.set("rewl.exchange_s", phase(Phase::Exchange));
    m.set(
        "rewl.exchange_accept",
        med(twins.iter().map(|o| {
            let a = counter_sum(&o.telemetry, "exchange_accepted") as f64;
            a / (counter_sum(&o.telemetry, "exchange_attempts") as f64).max(1.0)
        })),
    );
    m.set(
        "rewl.round_trips",
        ctr(adaptive_counters::ROUND_TRIPS_TOTAL),
    );
    m.set("rewl.gather_s", phase(Phase::Gather));
    m.set("rewl.checkpoint_s", phase(Phase::Checkpoint));
    m.set(
        "rewl.checkpoint_bytes",
        med(untraced.iter().map(|o| o.checkpoint_bytes as f64)),
    );
    m.set(
        "rewl.checkpoint_files",
        med(untraced.iter().map(|o| o.checkpoint_files as f64)),
    );
    m.set("hpc.allreduce_s", phase(Phase::Allreduce));
    m.set("hpc.msgs", ctr("comm_sends"));
    m.set("hpc.bytes", ctr("comm_send_bytes"));
    m.set(
        "hpc.max_rank_busy_s",
        med(twins.iter().map(|o| {
            o.telemetry
                .iter()
                .map(|r| {
                    [
                        Phase::MoveBatch,
                        Phase::Train,
                        Phase::Exchange,
                        Phase::Checkpoint,
                        Phase::Gather,
                    ]
                    .iter()
                    .filter_map(|&p| r.phase_stat(p))
                    .map(|p| p.total_s)
                    .sum::<f64>()
                })
                .fold(0.0, f64::max)
        })),
    );
    let mut measured_share = Vec::new();
    let mut modeled_share = Vec::new();
    for (i, o) in twins.iter().enumerate() {
        let measured = PhaseBreakdown::aggregate(&o.telemetry);
        let modeled = PerfModel::new(GpuSpec::v100(), WorkloadShape::paper_default())
            .iteration(o.telemetry.len().max(1));
        let rows = measured_vs_modeled(&measured, &modeled);
        if i == 0 {
            out.notes.push(format!(
                "measured (this machine, op {}) vs modeled (V100 roofline, paper workload) phase shares:",
                o.op
            ));
            out.notes
                .extend(comparison_table(&rows).lines().map(str::to_string));
        }
        if let Some(r) = rows.iter().find(|r| r.phase == Phase::Train) {
            measured_share.push(r.measured_share);
            modeled_share.push(r.modeled_share);
        }
    }
    let m = &mut out.metrics;
    m.set("hpc.train_share_measured", med(measured_share));
    m.set("hpc.train_share_modeled", med(modeled_share));
    m.set("thermo.evaluate_s", span("thermo.evaluate"));
    m.set("serve.export_s", span_u("serve.export"));
    m.set("serve.load_s", span_u("serve.load"));
    m.set("serve.start_s", span_u("serve.start"));
    // Same seeds, same work: the traced/untraced wall ratio is the price
    // of leaving telemetry on.
    m.set(
        "telemetry.overhead_frac",
        med(twins.iter().filter_map(|t| {
            untraced
                .iter()
                .find(|u| u.seed == t.seed)
                .map(|u| t.dos_wall_s / u.dos_wall_s - 1.0)
        })),
    );
}

fn serve_layers(
    out: &mut RunOutcome,
    serve: &ServeOutcome,
    replayed: &crate::serving::Replay,
    tr: &Tracer,
) {
    let m = &mut out.metrics;
    m.set(
        "thermo.curve_us",
        med(tr.durations("thermo.curve").into_iter().map(|s| s * 1e6)),
    );
    m.set("serve.parse_us", replayed.parse_us);
    m.set("serve.handle_hit_us", replayed.handle_hit_us);
    m.set("serve.handle_miss_us", replayed.handle_miss_us);
    m.set("serve.predict_us", replayed.predict_us);
    m.set("serve.serialize_us", replayed.serialize_us);
    if let Some(r) = serve.reference() {
        m.set("serve.p50_ms", r.p50_ms);
        m.set("serve.p99_ms", r.p99_ms);
        let live_us = r.p50_ms * 1e3;
        m.set(
            "serve.transport_us",
            live_us - replayed.parse_us - replayed.handle_us - replayed.serialize_us,
        );
    }
    let fills = (serve.hits + serve.misses + serve.coalesced).max(1);
    m.set("serve.cache_hit_ratio", serve.hits as f64 / fills as f64);
    m.set("serve.coalesced", serve.coalesced as f64);
    m.set("serve.rejected_429", serve.rejected_429 as f64);
    m.set("serve.expired_503", serve.expired_503 as f64);
    m.set("serve.gen_late_ms", serve.gen_late_ms);
}
