//! The material → converged DOS → served curve pipeline, driven through
//! the public API and timed at each layer's entry point.
//!
//! Untraced, one pipeline operation is exactly what a user runs:
//! `Material::resolve` → `DeepThermo::from_material` → `DeepThermo::run`
//! → `export_artifact` → `ArtifactRegistry::open` → `Server::start` →
//! `GET /healthz` → `POST /v1/thermo`. Traced, the same operation turns
//! on the sampler's telemetry and calls the steps `run()` is made of —
//! `explore_energy_range` → `run_rewl` → `DeepThermo::evaluate` — with
//! the arguments `run()` uses, so its `ln g` must match the untraced
//! run bit for bit.

use std::path::{Path, PathBuf};
use std::time::Duration;

use deepthermo::hamiltonian::Material;
use deepthermo::lattice::Supercell;
use deepthermo::rewl::{run_rewl, CheckpointSpec, DeepSpec, KernelSpec};
use deepthermo::serve::{ArtifactRegistry, ServeConfig, ServeHandle, Server};
use deepthermo::telemetry::{parse_json, JsonValue, RankTelemetry};
use deepthermo::thermo::ThermoPoint;
use deepthermo::wanglandau::explore_energy_range;
use deepthermo::{DeepThermo, DeepThermoConfig, DeepThermoReport, MaterialSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::client::Client;
use crate::reference::Reference;
use crate::trace::Tracer;

/// Which proposal kernel a workload samples with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Local swaps only.
    Local,
    /// Local swaps mixed with the on-the-fly trained deep proposal as
    /// the CLI configures it.
    Deep,
}

/// One fixed sampling job.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Registry name or `dtmat` path.
    pub material: &'static str,
    /// Supercell edge.
    pub l: usize,
    /// Proposal kernel.
    pub kernel: Kernel,
    /// `ln f` at which a walker counts as converged.
    pub ln_f_final: f64,
    /// Checkpoint at the default `CheckpointSpec` cadence.
    pub checkpoint: bool,
    /// Key of the committed reference DOS.
    pub reference: &'static str,
}

impl Job {
    /// The run configuration `deepthermo run --l L --windows 2
    /// --walkers 1 --lnf X` builds (its defaults: `quick_demo` settings,
    /// `16·L²` bins capped at 512, the deep kernel with `k = 12`, hidden
    /// `[32, 32]` and weight 0.15): 2 windows × 1 walker is one busy
    /// thread per core of a 2-core box.
    pub fn config(&self, material: Material, seed: u64) -> DeepThermoConfig {
        let mut cfg = DeepThermoConfig::quick_demo();
        cfg.material = MaterialSpec::new(material, self.l);
        cfg.rewl.num_windows = 2;
        cfg.rewl.walkers_per_window = 1;
        cfg.rewl.num_bins = (16 * self.l * self.l).min(512);
        cfg.rewl.max_sweeps = 300_000;
        cfg.temperatures = deepthermo::thermo::temperature_grid(100.0, 3000.0, 100);
        cfg.rewl.wl.ln_f_final = self.ln_f_final;
        cfg.rewl.kernel = match self.kernel {
            Kernel::Local => KernelSpec::LocalSwap,
            Kernel::Deep => KernelSpec::Deep(Box::new(DeepSpec {
                proposal: deepthermo::proposal::DeepProposalConfig {
                    k: 12,
                    hidden: vec![32, 32],
                },
                deep_weight: 0.15,
                ..DeepSpec::default()
            })),
        };
        cfg.with_seed(seed)
    }

    /// Epochs per retraining round of the deep kernel, 0 for local.
    pub fn epochs_per_round(&self) -> usize {
        match self.kernel {
            Kernel::Local => 0,
            Kernel::Deep => DeepSpec::default().epochs_per_round,
        }
    }
}

/// What one pipeline operation measured and checked.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    /// Sampler seed.
    pub seed: u64,
    /// Telemetry on (the traced twin of an untraced operation).
    pub traced: bool,
    /// Tracer op id of this operation's spans.
    pub op: u64,
    /// Resolve + supercell + neighbour table.
    pub setup_s: f64,
    /// `DeepThermo::run` (range → REWL → evaluate).
    pub dos_wall_s: f64,
    /// Process CPU time (all threads) spent in `DeepThermo::run`.
    pub dos_cpu_s: f64,
    /// Material definition → first served `/v1/thermo` body.
    pub curve_s: f64,
    /// RMS deviation from the reference DOS.
    pub dos_err: f64,
    /// Sweeps per walker.
    pub sweeps: u64,
    /// MC moves over all walkers.
    pub total_moves: u64,
    /// `ln g` bit patterns over the global grid.
    pub ln_g_bits: Vec<u64>,
    /// Per-rank telemetry (traced only).
    pub telemetry: Vec<RankTelemetry>,
    /// Local-swap acceptance.
    pub accept_local: f64,
    /// Deep-proposal acceptance (0 when the kernel is local).
    pub accept_deep: f64,
    /// Files the checkpoint writer left.
    pub checkpoint_files: u64,
    /// Bytes the checkpoint writer left.
    pub checkpoint_bytes: u64,
    /// Registry holding this run's artifact.
    pub registry_dir: PathBuf,
    /// Failed checks (empty when correct).
    pub failures: Vec<String>,
}

/// A one-worker server on an ephemeral loopback port. Its queue
/// deadline matches the generator's request timeout, so a multi-second
/// host stall shows as latency, not as `503`s.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        reactors: 1,
        queue_deadline: crate::serving::REQUEST_TIMEOUT,
        ..ServeConfig::default()
    }
}

/// Start a server over `registry` and wait for its first `/healthz`.
///
/// # Errors
/// Start failures or a non-200 health check.
pub fn start_server(registry: ArtifactRegistry) -> Result<(ServeHandle, Client), String> {
    let server = Server::start(registry, serve_config()).map_err(|e| e.to_string())?;
    let mut client =
        Client::connect(server.local_addr(), Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let health = client.call("GET", "/healthz", "")?;
    if health.status != 200 {
        return Err(format!("/healthz answered {}", health.status));
    }
    Ok((server, client))
}

/// The served curve's five series, bit-compared with `expected`.
///
/// # Errors
/// A description of the first mismatch.
pub fn check_curve_bits(body: &[u8], expected: &[ThermoPoint]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body")?;
    let v = parse_json(text).map_err(|e| format!("bad JSON: {e}"))?;
    type Series = (&'static str, fn(&ThermoPoint) -> f64);
    let fields: [Series; 5] = [
        ("temperatures", |p| p.t),
        ("u", |p| p.u),
        ("cv", |p| p.cv),
        ("f", |p| p.f),
        ("s", |p| p.s),
    ];
    for (name, get) in fields {
        let got = v
            .get(name)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("served curve lacks {name}"))?;
        if got.len() != expected.len() {
            return Err(format!(
                "{name}: {} points, want {}",
                got.len(),
                expected.len()
            ));
        }
        for (i, (g, p)) in got.iter().zip(expected).enumerate() {
            if g.as_f64().map(f64::to_bits) != Some(get(p).to_bits()) {
                return Err(format!("{name}[{i}] differs from the direct evaluation"));
            }
        }
    }
    Ok(())
}

/// Physical sanity of a thermodynamic curve: `Cv ≥ 0` and `U` rising
/// with `T`.
pub fn check_physics(thermo: &[ThermoPoint]) -> Result<(), String> {
    if let Some(p) = thermo.iter().find(|p| p.cv.is_nan() || p.cv < 0.0) {
        return Err(format!("Cv = {} < 0 at T = {}", p.cv, p.t));
    }
    if let Some(w) = thermo
        .windows(2)
        .find(|w| w[1].u.is_nan() || w[1].u < w[0].u)
    {
        return Err(format!(
            "U falls from {} to {} at T = {}",
            w[0].u, w[1].u, w[1].t
        ));
    }
    match (thermo.first(), thermo.last()) {
        (Some(a), Some(b)) if b.u > a.u => Ok(()),
        _ => Err("U does not rise over the temperature grid".into()),
    }
}

/// `(centres, ln g, bin width)` over the visited bins of a report.
pub fn visited_dos(report: &DeepThermoReport) -> (Vec<f64>, Vec<f64>, f64) {
    let grid = report.dos.grid();
    let (mut e, mut g) = (Vec::new(), Vec::new());
    for (b, &vis) in report.mask.iter().enumerate() {
        if vis {
            e.push(grid.center(b));
            g.push(report.dos.ln_g_bin(b));
        }
    }
    (e, g, grid.bin_width())
}

fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                let (f, b) = dir_usage(&e.path());
                files += f;
                bytes += b;
            } else {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    (files, bytes)
}

fn thermo_request(id: &str, temps: &[f64]) -> String {
    let list: Vec<String> = temps.iter().map(|t| format!("{t}")).collect();
    format!(
        "{{\"artifact\":\"{id}\",\"temperatures\":[{}]}}",
        list.join(",")
    )
}

/// Run `job` once at `seed` through the whole pipeline, under `work`.
/// Spans go to `tr` under op id `op`.
pub fn pipeline_op(
    job: &Job,
    seed: u64,
    traced: bool,
    op: u64,
    work: &Path,
    tr: &mut Tracer,
) -> OpRecord {
    let op_dir = work.join(format!("op{op}"));
    let ckpt_dir = op_dir.join("checkpoint");
    let registry_dir = op_dir.join("registry");
    let mut rec = OpRecord {
        seed,
        traced,
        op,
        registry_dir: registry_dir.clone(),
        dos_err: f64::NAN,
        ..OpRecord::default()
    };
    tr.set_op(op);
    let mut cpu_s = f64::NAN;
    let outcome = tr.span("pipeline", |tr| {
        let runner = tr.span("setup", |tr| -> Result<DeepThermo, String> {
            let material = tr.span("hamiltonian.resolve", |_| Material::resolve(job.material));
            let material = material.map_err(|e| e.to_string())?;
            if traced {
                // The lattice layer on its own; `from_material` repeats
                // it, so the traced set-up is not an end-to-end figure.
                tr.span("lattice.neighbor_table", |_| {
                    Supercell::cubic(material.structure().clone(), job.l)
                        .try_neighbor_table(material.num_shells())
                        .map(|_| ())
                })
                .map_err(|e| e.to_string())?;
            }
            let mut cfg = job.config(material, seed).with_telemetry(traced);
            if job.checkpoint {
                cfg.rewl.checkpoint = Some(CheckpointSpec::new(&ckpt_dir));
            }
            tr.span("core.from_material", |_| DeepThermo::from_material(cfg))
                .map_err(|e| e.to_string())
        })?;
        let cpu0 = crate::metrics::cpu_seconds();
        let report = tr.span("dos", |tr| -> Result<DeepThermoReport, String> {
            if !traced {
                return runner.run().map_err(|e| e.to_string());
            }
            let cfg = runner.config();
            let range = tr.span("wanglandau.range", |_| {
                let mut rng = ChaCha8Rng::seed_from_u64(cfg.rewl.seed ^ 0x5eed);
                explore_energy_range(
                    runner.model(),
                    runner.neighbors(),
                    runner.composition(),
                    cfg.range_quench_sweeps,
                    cfg.range_pad,
                    &mut rng,
                )
            });
            let out = tr
                .span("rewl.run", |_| {
                    run_rewl(
                        runner.model(),
                        runner.neighbors(),
                        runner.composition(),
                        range,
                        &cfg.rewl,
                    )
                })
                .map_err(|e| e.to_string())?;
            tr.span("thermo.evaluate", |_| runner.evaluate(out))
                .map_err(|e| e.to_string())
        });
        cpu_s = crate::metrics::cpu_seconds() - cpu0;
        let report = report?;
        let artifact_dir = tr
            .span("serve.export", |_| {
                runner.export_artifact(&report, &registry_dir)
            })
            .map_err(|e| e.to_string())?;
        let id = artifact_dir
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let registry = tr
            .span("serve.load", |_| ArtifactRegistry::open(&registry_dir))
            .map_err(|e| e.to_string())?;
        let (server, mut client) = tr.span("serve.start", |_| start_server(registry))?;
        let body = thermo_request(&id, &runner.config().temperatures);
        let reply = tr.span("serve.first_curve", |_| {
            client.call("POST", "/v1/thermo", &body)
        });
        Ok::<_, String>((report, server, reply))
    });
    rec.curve_s = tr.op_total(op, "pipeline");
    rec.setup_s = tr.op_total(op, "setup");
    rec.dos_wall_s = tr.op_total(op, "dos");
    rec.dos_cpu_s = cpu_s;

    match outcome {
        Err(e) => rec.failures.push(e),
        Ok((report, server, reply)) => {
            server.shutdown();
            server.join();
            match reply {
                Ok(r) if r.status == 200 => {
                    if let Err(e) = check_curve_bits(&r.body, &report.thermo) {
                        rec.failures.push(format!("served curve: {e}"));
                    }
                }
                Ok(r) => rec
                    .failures
                    .push(format!("/v1/thermo answered {}", r.status)),
                Err(e) => rec.failures.push(format!("/v1/thermo: {e}")),
            }
            if !report.converged {
                rec.failures
                    .push(format!("did not converge in {} sweeps", report.sweeps));
            }
            if let Err(e) = check_physics(&report.thermo) {
                rec.failures.push(e);
            }
            let (e, g, width) = visited_dos(&report);
            match Reference::builtin(job.reference).map(|r| r.rms_deviation(&e, &g, width)) {
                Ok(Some(err)) => rec.dos_err = err,
                Ok(None) => rec
                    .failures
                    .push("run and reference DOS share no bins".into()),
                Err(e) => rec.failures.push(e),
            }
            rec.sweeps = report.sweeps;
            rec.total_moves = report.total_moves;
            rec.ln_g_bits = report.dos.ln_g().iter().map(|x| x.to_bits()).collect();
            rec.accept_local = report.stats.acceptance("local-swap").unwrap_or(0.0);
            rec.accept_deep = report
                .stats
                .acceptance("deep-autoregressive")
                .unwrap_or(0.0);
            rec.telemetry = report.telemetry;
        }
    }
    (rec.checkpoint_files, rec.checkpoint_bytes) = dir_usage(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    rec
}
