//! Committed reference densities of states and the `dos_err` metric.
//!
//! A reference is one long local-kernel run per (material, L), stored
//! under `perfbench/reference/` with the command that made it. Runs at
//! other seeds discover slightly different energy ranges, so the
//! comparison is on energy, not on bin index: both sides become a
//! log-density per eV (`ln g_bin − ln ΔE`), the reference is linearly
//! interpolated at the run's bin centres, the mean offset (the free
//! normalisation constant) is removed, and `dos_err` is the RMS of what
//! is left over the bins both visited, less the edges ([`EDGE_TRIM`]).

use std::path::PathBuf;

use deepthermo::hamiltonian::Material;
use deepthermo::DeepThermo;

use crate::pipeline::{visited_dos, Job, Kernel};

/// Share of the shared energy span left out at each end. The outermost
/// bins of a range found by quenching are only partly reachable, so
/// their `ln g` depends on where the seed put the range's edge rather
/// than on sampling accuracy: at L=6 the first 10 bins differ from the
/// reference by up to 4 ln-units while the interior agrees to 0.1.
pub const EDGE_TRIM: f64 = 0.05;

/// A tabulated reference `ln g(E)` over its visited bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Bin centres (eV), ascending.
    pub energy: Vec<f64>,
    /// `ln g` per eV at each centre.
    pub ln_density: Vec<f64>,
}

/// Every reference the workloads use, keyed `material-lN`.
pub const REFERENCES: &[(&str, &str)] = &[
    ("nbmotaw-l6", include_str!("../reference/nbmotaw-l6.dos")),
    ("nbmotaw-l3", include_str!("../reference/nbmotaw-l3.dos")),
];

/// How a committed reference is made: one long local-kernel run of the
/// workload's material and size, with the workloads' binning.
#[derive(Debug, Clone, Copy)]
pub struct Maker {
    /// Reference key, `material-lN`.
    pub key: &'static str,
    /// The job (its `ln_f_final` is the reference's, not a workload's).
    pub job: Job,
    /// Sampler seed.
    pub seed: u64,
}

const fn maker(key: &'static str, material: &'static str, l: usize, ln_f_final: f64) -> Maker {
    Maker {
        key,
        job: Job {
            material,
            l,
            kernel: Kernel::Local,
            ln_f_final,
            checkpoint: false,
            reference: key,
        },
        seed: 20_231_017,
    }
}

/// Every reference the benchmark can regenerate.
pub const MAKERS: &[Maker] = &[
    maker("nbmotaw-l6", "nbmotaw", 6, 1e-6),
    maker("nbmotaw-l3", "nbmotaw", 3, 1e-6),
];

/// Run the long reference job for `key` and write
/// `perfbench/reference/<key>.dos` (run from the repository root).
///
/// # Errors
/// Unknown key, a failed or unconverged run, or a write failure.
pub fn make(key: &str) -> Result<PathBuf, String> {
    let mk = MAKERS
        .iter()
        .find(|m| m.key == key)
        .ok_or_else(|| format!("no reference maker for {key}"))?;
    let material = Material::resolve(mk.job.material).map_err(|e| e.to_string())?;
    let mut cfg = mk.job.config(material, mk.seed);
    cfg.rewl.max_sweeps = u64::MAX;
    let runner = DeepThermo::from_material(cfg).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let report = runner.run().map_err(|e| e.to_string())?;
    if !report.converged {
        return Err(format!("{key}: reference run did not converge"));
    }
    let (e, g, width) = visited_dos(&report);
    let header = vec![
        format!("dt-perfbench reference DOS {key}"),
        format!(
            "made by: cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --make-reference {key}"
        ),
        format!(
            "run: {} L={} local kernel, 2 windows x 1 walker, ln_f_final {:e}, seed {}, {} sweeps/walker, {:.1} s",
            mk.job.material,
            mk.job.l,
            mk.job.ln_f_final,
            mk.seed,
            report.sweeps,
            t0.elapsed().as_secs_f64()
        ),
    ];
    let path = PathBuf::from("perfbench/reference").join(format!("{key}.dos"));
    std::fs::write(&path, Reference::render(&header, &e, &g, width))
        .map_err(|err| format!("{}: {err}", path.display()))?;
    Ok(path)
}

impl Reference {
    /// The committed reference for `key`.
    ///
    /// # Errors
    /// Unknown key or a malformed file.
    pub fn builtin(key: &str) -> Result<Reference, String> {
        let text = REFERENCES
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, t)| *t)
            .ok_or_else(|| format!("no reference DOS for {key}"))?;
        Reference::parse(text)
    }

    /// Parse `energy ln_g bin_width` rows; `#` lines are comments.
    ///
    /// # Errors
    /// A malformed row, or fewer than two rows.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut energy = Vec::new();
        let mut ln_density = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let v: Vec<f64> = line
                .split_whitespace()
                .map(|x| x.parse::<f64>().map_err(|e| format!("{line:?}: {e}")))
                .collect::<Result<_, _>>()?;
            let [e, ln_g, width] = v[..] else {
                return Err(format!("expected 3 columns: {line:?}"));
            };
            energy.push(e);
            ln_density.push(ln_g - width.ln());
        }
        if energy.len() < 2 || energy.windows(2).any(|w| w[1] <= w[0]) {
            return Err("reference needs ≥2 rows with ascending energy".into());
        }
        Ok(Reference { energy, ln_density })
    }

    /// Serialize visited bins of a run as a reference file body.
    pub fn render(header: &[String], centers: &[f64], ln_g: &[f64], width: f64) -> String {
        let mut out = String::new();
        for h in header {
            out.push_str("# ");
            out.push_str(h);
            out.push('\n');
        }
        out.push_str("# columns: energy_eV ln_g bin_width_eV\n");
        for (e, g) in centers.iter().zip(ln_g) {
            out.push_str(&format!("{e:e} {g:e} {width:e}\n"));
        }
        out
    }

    /// Linear interpolation inside the tabulated range.
    fn at(&self, e: f64) -> Option<f64> {
        let n = self.energy.len();
        if e < self.energy[0] || e > self.energy[n - 1] {
            return None;
        }
        let i = self.energy.partition_point(|&x| x <= e).clamp(1, n - 1);
        let (e0, e1) = (self.energy[i - 1], self.energy[i]);
        let (g0, g1) = (self.ln_density[i - 1], self.ln_density[i]);
        Some(g0 + (g1 - g0) * (e - e0) / (e1 - e0))
    }

    /// RMS deviation of a run's normalised `ln g` from this reference
    /// over the bins both visited, after removing the mean offset and
    /// trimming [`EDGE_TRIM`] of the shared energy span at each end.
    /// `None` when fewer than 3 bins remain.
    pub fn rms_deviation(&self, centers: &[f64], ln_g: &[f64], width: f64) -> Option<f64> {
        let shared: Vec<(f64, f64)> = centers
            .iter()
            .zip(ln_g)
            .filter_map(|(&e, &g)| self.at(e).map(|r| (e, g - width.ln() - r)))
            .collect();
        let (lo, hi) = (shared.first()?.0, shared.last()?.0);
        let cut = EDGE_TRIM * (hi - lo);
        let d: Vec<f64> = shared
            .iter()
            .filter(|(e, _)| *e >= lo + cut && *e <= hi - cut)
            .map(|&(_, d)| d)
            .collect();
        if d.len() < 3 {
            return None;
        }
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        let ms = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / d.len() as f64;
        Some(ms.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shifted_rebinned_copy_has_no_error() {
        // ln g(E) = −E² sampled on two grids with different widths and
        // an arbitrary normalisation: the deviation is interpolation
        // error only.
        let f = |e: f64| -e * e;
        let (w_ref, w_run) = (0.05, 0.2);
        let ref_e: Vec<f64> = (0..=80).map(|i| -2.0 + w_ref * i as f64).collect();
        let ref_g: Vec<f64> = ref_e.iter().map(|&e| f(e) + w_ref.ln()).collect();
        let text = Reference::render(&["test".into()], &ref_e, &ref_g, w_ref);
        let r = Reference::parse(&text).unwrap();
        let run_e: Vec<f64> = (0..=15).map(|i| -1.5 + w_run * i as f64).collect();
        let run_g: Vec<f64> = run_e.iter().map(|&e| f(e) + w_run.ln() + 17.0).collect();
        let err = r.rms_deviation(&run_e, &run_g, w_run).unwrap();
        assert!(err < 1e-3, "{err}");
        // A real distortion shows up.
        let bent: Vec<f64> = run_g.iter().zip(&run_e).map(|(g, e)| g + 0.5 * e).collect();
        assert!(r.rms_deviation(&run_e, &bent, w_run).unwrap() > 0.1);
    }

    #[test]
    fn committed_references_parse() {
        for (key, _) in REFERENCES {
            let r = Reference::builtin(key).unwrap();
            assert!(r.energy.len() > 10, "{key}");
        }
    }
}
