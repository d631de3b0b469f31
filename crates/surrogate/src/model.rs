//! The trained surrogate energy model.

use dt_hamiltonian::{DeltaWorkspace, EnergyModel};
use dt_lattice::{Configuration, NeighborTable, SiteId, Species};
use dt_nn::{Activation, Adam, ForwardScratch, Loss, Matrix, Mlp, NnFormatError, TrainScratch};
use rand::Rng;

use crate::dataset::Dataset;
use crate::descriptor::PairCorrelationDescriptor;
use crate::metrics::{mae, r_squared, rmse};

/// Errors from [`SurrogateModel::load`] and the file round-trip helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The `dtsur` header line is missing or names an unknown version.
    BadHeader,
    /// A required structural line is absent.
    MissingField(&'static str),
    /// A structural line is present but unparseable.
    BadField(&'static str),
    /// The embedded network's input width does not match the descriptor.
    DimensionMismatch {
        /// Input dimension of the deserialized network.
        net_in: usize,
        /// Feature dimension implied by the descriptor line.
        descriptor: usize,
    },
    /// The embedded network failed to deserialize.
    Net(NnFormatError),
    /// Reading or writing the model file failed. The message carries the
    /// rendered `std::io::Error` (stored as text so this enum stays
    /// `Clone + PartialEq`).
    Io(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::BadHeader => write!(f, "bad surrogate header"),
            SerializeError::MissingField(what) => write!(f, "missing {what}"),
            SerializeError::BadField(what) => write!(f, "unparseable {what}"),
            SerializeError::DimensionMismatch { net_in, descriptor } => write!(
                f,
                "network input dim {net_in} does not match descriptor dim {descriptor}"
            ),
            SerializeError::Net(e) => write!(f, "embedded network: {e}"),
            SerializeError::Io(what) => write!(f, "surrogate file I/O failed: {what}"),
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnFormatError> for SerializeError {
    fn from(e: NnFormatError) -> Self {
        SerializeError::Net(e)
    }
}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e.to_string())
    }
}

/// Hyperparameters for surrogate training.
#[derive(Debug, Clone)]
pub struct TrainingOptions {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs (full-batch).
    pub epochs: usize,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            hidden: vec![64, 64],
            lr: 3e-3,
            epochs: 400,
        }
    }
}

/// Accuracy summary after training (experiment E1).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Per-site MAE on the training split (eV/site).
    pub train_mae: f64,
    /// Per-site MAE on the test split (eV/site).
    pub test_mae: f64,
    /// Test RMSE (eV/site).
    pub test_rmse: f64,
    /// Test R².
    pub test_r2: f64,
    /// Final training loss (normalized units).
    pub final_loss: f64,
}

/// A trained deep-learning energy surrogate.
///
/// Implements [`EnergyModel`], so every sampler in the workspace (WL,
/// REWL, Metropolis, parallel tempering) runs on it unmodified — the
/// paper's architecture, where the MC loop only ever sees the DL
/// potential. Incremental deltas use the O(k·z) descriptor update plus two
/// network evaluations; the descriptor base is recomputed per call
/// (O(N·z)), which is exact and fast enough for the supercells the
/// examples sample on.
#[derive(Debug, Clone)]
pub struct SurrogateModel {
    descriptor: PairCorrelationDescriptor,
    net: Mlp,
    /// Target normalization: per-site energies are standardized during
    /// training.
    y_mean: f64,
    y_std: f64,
}

impl SurrogateModel {
    /// Train a surrogate on a dataset of per-site energies.
    pub fn train<R: Rng + ?Sized>(
        descriptor: PairCorrelationDescriptor,
        train: &Dataset,
        test: &Dataset,
        opts: &TrainingOptions,
        rng: &mut R,
    ) -> (SurrogateModel, TrainReport) {
        assert!(!train.is_empty() && !test.is_empty());
        let dim = descriptor.dim();
        assert_eq!(train.x.cols(), dim);

        // Standardize targets.
        let n = train.len() as f64;
        let y_mean = train.y.data().iter().sum::<f64>() / n;
        let var = train
            .y
            .data()
            .iter()
            .map(|&y| (y - y_mean) * (y - y_mean))
            .sum::<f64>()
            / n;
        let y_std = var.sqrt().max(1e-12);
        let y_norm = train.y.map(|y| (y - y_mean) / y_std);

        let mut dims = vec![dim];
        dims.extend_from_slice(&opts.hidden);
        dims.push(1);
        let mut net = Mlp::new(&dims, Activation::Tanh, Activation::Identity, rng);
        let mut adam = Adam::with_lr(opts.lr);
        let mut scratch = TrainScratch::for_mlp(&net, train.len());
        let loss = Loss::Mse {
            targets: y_norm.data(),
        };
        let mut final_loss = f64::INFINITY;
        for _ in 0..opts.epochs {
            final_loss = net.train_step(
                train.x.data(),
                train.len(),
                &loss,
                10.0,
                &mut adam,
                &mut scratch,
            );
        }

        let model = SurrogateModel {
            descriptor,
            net,
            y_mean,
            y_std,
        };
        let pred_train = model.predict_rows(&train.x);
        let pred_test = model.predict_rows(&test.x);
        let report = TrainReport {
            train_mae: mae(&pred_train, train.y.data()),
            test_mae: mae(&pred_test, test.y.data()),
            test_rmse: rmse(&pred_test, test.y.data()),
            test_r2: r_squared(&pred_test, test.y.data()),
            final_loss,
        };
        (model, report)
    }

    /// The descriptor this model consumes.
    pub fn descriptor(&self) -> PairCorrelationDescriptor {
        self.descriptor
    }

    /// The underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Per-site energy prediction from a feature vector.
    pub fn predict_features(&self, features: &[f64]) -> f64 {
        let out = self.net.forward(&Matrix::row_vector(features));
        out.data()[0] * self.y_std + self.y_mean
    }

    /// Per-site energy predictions for a feature matrix.
    ///
    /// Runs one batched forward over all rows on the `dt-nn` inference
    /// engine. Allocates a fresh scratch; callers on a hot loop should
    /// hold a [`ForwardScratch`] and use
    /// [`SurrogateModel::predict_rows_with`] instead.
    pub fn predict_rows(&self, x: &Matrix) -> Vec<f64> {
        let mut scratch = ForwardScratch::for_mlp(&self.net, x.rows());
        let mut out = Vec::with_capacity(x.rows());
        self.predict_rows_with(x.data(), x.rows(), &mut scratch, &mut out);
        out
    }

    /// A scratch sized for batched prediction of up to `max_rows` rows.
    pub fn forward_scratch(&self, max_rows: usize) -> ForwardScratch {
        ForwardScratch::for_mlp(&self.net, max_rows)
    }

    /// Per-site energy predictions for `rows` feature rows stored
    /// row-major in `x`, written into `out` through a caller-provided
    /// scratch — allocation-free once both are warm.
    pub fn predict_rows_with(
        &self,
        x: &[f64],
        rows: usize,
        scratch: &mut ForwardScratch,
        out: &mut Vec<f64>,
    ) {
        let pred = self.net.forward_into(x, rows, scratch);
        out.clear();
        out.extend(pred.iter().map(|&v| v * self.y_std + self.y_mean));
    }

    /// Per-site energy of a configuration.
    pub fn predict_per_site(&self, config: &Configuration, neighbors: &NeighborTable) -> f64 {
        self.predict_features(&self.descriptor.compute(config, neighbors))
    }

    /// Serialize to a versioned text format (descriptor layout, target
    /// normalization, embedded network). Lossless: restored models predict
    /// bit-identically.
    pub fn save(&self) -> String {
        format!(
            "dtsur v1\ndesc {} {}\nnorm {:016x} {:016x}\n{}",
            self.descriptor.num_species,
            self.descriptor.num_shells,
            self.y_mean.to_bits(),
            self.y_std.to_bits(),
            dt_nn::save_mlp(&self.net)
        )
    }

    /// Restore a model written by [`SurrogateModel::save`].
    ///
    /// # Errors
    /// Returns a [`SerializeError`] describing the first structural or
    /// encoding problem encountered.
    pub fn load(text: &str) -> Result<SurrogateModel, SerializeError> {
        let mut lines = text.lines();
        if lines.next() != Some("dtsur v1") {
            return Err(SerializeError::BadHeader);
        }
        let desc = lines
            .next()
            .ok_or(SerializeError::MissingField("desc line"))?;
        let mut d = desc
            .strip_prefix("desc ")
            .ok_or(SerializeError::BadField("desc line"))?
            .split_whitespace();
        let num_species: usize = d
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(SerializeError::BadField("num_species"))?;
        let num_shells: usize = d
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(SerializeError::BadField("num_shells"))?;
        let norm = lines
            .next()
            .ok_or(SerializeError::MissingField("norm line"))?;
        let mut n = norm
            .strip_prefix("norm ")
            .ok_or(SerializeError::BadField("norm line"))?
            .split_whitespace();
        let bits = |tok: Option<&str>| -> Result<f64, SerializeError> {
            tok.and_then(|t| u64::from_str_radix(t, 16).ok())
                .map(f64::from_bits)
                .ok_or(SerializeError::BadField("normalization bits"))
        };
        let y_mean = bits(n.next())?;
        let y_std = bits(n.next())?;
        let net_text: String = lines.collect::<Vec<_>>().join("\n");
        let net = dt_nn::load_mlp(&net_text)?;
        let descriptor = PairCorrelationDescriptor {
            num_species,
            num_shells,
        };
        if net.in_dim() != descriptor.dim() {
            return Err(SerializeError::DimensionMismatch {
                net_in: net.in_dim(),
                descriptor: descriptor.dim(),
            });
        }
        Ok(SurrogateModel {
            descriptor,
            net,
            y_mean,
            y_std,
        })
    }

    /// Write the model to `path` ([`SurrogateModel::save`] format).
    ///
    /// # Errors
    /// Returns [`SerializeError::Io`] if the file cannot be written.
    pub fn save_to_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), SerializeError> {
        std::fs::write(path, self.save())?;
        Ok(())
    }

    /// Read a model previously written by [`SurrogateModel::save_to_file`].
    ///
    /// # Errors
    /// Returns [`SerializeError::Io`] if the file cannot be read, or any
    /// other [`SerializeError`] if its contents are not a valid model.
    pub fn load_from_file(
        path: impl AsRef<std::path::Path>,
    ) -> Result<SurrogateModel, SerializeError> {
        SurrogateModel::load(&std::fs::read_to_string(path)?)
    }

    fn delta_via_features(
        &self,
        config: &Configuration,
        neighbors: &NeighborTable,
        moves: &[(SiteId, Species)],
    ) -> f64 {
        // Before/after descriptors stacked into a 2-row batch so the
        // network runs ONCE per delta instead of twice; bit-identical to
        // two batch-1 passes (see the dt-nn equivalence suite). The
        // scratch is thread-local because `EnergyModel` deltas take
        // `&self` on the swap path.
        thread_local! {
            static SCRATCH: std::cell::RefCell<(ForwardScratch, Vec<f64>)> =
                std::cell::RefCell::default();
        }
        let base = self.descriptor.compute(config, neighbors);
        let delta = self.descriptor.delta(config, neighbors, moves);
        let n = config.num_sites() as f64;
        SCRATCH.with(|cell| {
            let (scratch, x2) = &mut *cell.borrow_mut();
            x2.clear();
            x2.extend_from_slice(&base);
            x2.extend(base.iter().zip(&delta).map(|(&b, &d)| b + d));
            let out = self.net.forward_into(x2, 2, scratch);
            let before = out[0] * self.y_std + self.y_mean;
            let after = out[1] * self.y_std + self.y_mean;
            (after - before) * n
        })
    }
}

impl EnergyModel for SurrogateModel {
    fn num_species(&self) -> usize {
        self.descriptor.num_species
    }

    fn num_shells(&self) -> usize {
        self.descriptor.num_shells
    }

    fn total_energy(&self, config: &Configuration, neighbors: &NeighborTable) -> f64 {
        self.predict_per_site(config, neighbors) * config.num_sites() as f64
    }

    fn swap_delta(
        &self,
        config: &Configuration,
        neighbors: &NeighborTable,
        a: SiteId,
        b: SiteId,
    ) -> f64 {
        let sa = config.species_at(a);
        let sb = config.species_at(b);
        if a == b || sa == sb {
            return 0.0;
        }
        self.delta_via_features(config, neighbors, &[(a, sb), (b, sa)])
    }

    fn reassign_delta(
        &self,
        config: &Configuration,
        neighbors: &NeighborTable,
        moves: &[(SiteId, Species)],
        _workspace: &mut DeltaWorkspace,
    ) -> f64 {
        if moves.is_empty() {
            return 0.0;
        }
        self.delta_via_features(config, neighbors, moves)
    }

    fn energy_lower_bound(&self, neighbors: &NeighborTable) -> f64 {
        // Network outputs are bounded by the tanh hidden layers only
        // weakly; use a generous multiple of the training scale.
        let n = neighbors.num_sites() as f64;
        (self.y_mean - 50.0 * self.y_std) * n
    }

    fn energy_upper_bound(&self, neighbors: &NeighborTable) -> f64 {
        let n = neighbors.num_sites() as f64;
        (self.y_mean + 50.0 * self.y_std) * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SamplingStrategy;
    use dt_hamiltonian::nbmotaw;
    use dt_lattice::{Composition, Structure, Supercell};
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn trained() -> (SurrogateModel, TrainReport, NeighborTable, Composition) {
        let cell = Supercell::cubic(Structure::bcc(), 3);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        let h = nbmotaw();
        let d = PairCorrelationDescriptor {
            num_species: 4,
            num_shells: 2,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ds = Dataset::generate(&h, &nt, &comp, d, 256, SamplingStrategy::Annealed, &mut rng);
        let (train, test) = ds.split(0.8);
        let (model, report) = SurrogateModel::train(
            d,
            &train,
            &test,
            &TrainingOptions {
                hidden: vec![32, 32],
                lr: 3e-3,
                epochs: 600,
            },
            &mut rng,
        );
        (model, report, nt, comp)
    }

    #[test]
    fn surrogate_learns_the_pair_hamiltonian_accurately() {
        let (_, report, _, _) = trained();
        // The descriptor is a sufficient statistic for the EPI model, so
        // the fit should be tight: MAE well under k_B·300 K ≈ 26 meV.
        assert!(
            report.test_mae < 0.005,
            "test MAE {} eV/site",
            report.test_mae
        );
        assert!(report.test_r2 > 0.95, "R² {}", report.test_r2);
        assert!(report.train_mae <= report.test_mae * 3.0);
    }

    #[test]
    fn energy_model_deltas_match_total_recompute() {
        let (model, _, nt, comp) = trained();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut config = Configuration::random(&comp, &mut rng);
        let mut ws = DeltaWorkspace::new(config.num_sites());
        for _ in 0..20 {
            let a = rng.random_range(0..config.num_sites()) as SiteId;
            let b = rng.random_range(0..config.num_sites()) as SiteId;
            let e0 = model.total_energy(&config, &nt);
            let d = model.swap_delta(&config, &nt, a, b);
            config.swap(a, b);
            let e1 = model.total_energy(&config, &nt);
            assert!(((e1 - e0) - d).abs() < 1e-8, "{} vs {d}", e1 - e0);
        }
        // Reassignment path.
        let moves = vec![(0 as SiteId, Species(1)), (5, Species(2)), (9, Species(0))];
        let e0 = model.total_energy(&config, &nt);
        let d = model.reassign_delta(&config, &nt, &moves, &mut ws);
        for &(s, sp) in &moves {
            config.set(s, sp);
        }
        let e1 = model.total_energy(&config, &nt);
        assert!(((e1 - e0) - d).abs() < 1e-8);
    }

    #[test]
    fn surrogate_tracks_truth_on_held_out_configs() {
        let (model, _, nt, comp) = trained();
        let h = nbmotaw();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..10 {
            let c = Configuration::random(&comp, &mut rng);
            let truth = h.total_energy(&c, &nt) / c.num_sites() as f64;
            let pred = model.predict_per_site(&c, &nt);
            assert!((truth - pred).abs() < 0.01, "pred {pred} vs truth {truth}");
        }
    }

    #[test]
    fn save_load_round_trips_bit_exactly() {
        let (model, _, nt, comp) = trained();
        let text = model.save();
        let back = SurrogateModel::load(&text).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..5 {
            let c = Configuration::random(&comp, &mut rng);
            assert_eq!(
                model.predict_per_site(&c, &nt).to_bits(),
                back.predict_per_site(&c, &nt).to_bits(),
                "restored model must predict bit-identically"
            );
        }
    }

    #[test]
    fn load_rejects_corruption_with_typed_errors() {
        let (model, _, _, _) = trained();
        assert_eq!(
            SurrogateModel::load("garbage").unwrap_err(),
            SerializeError::BadHeader
        );
        assert_eq!(
            SurrogateModel::load("dtsur v1").unwrap_err(),
            SerializeError::MissingField("desc line")
        );
        assert_eq!(
            SurrogateModel::load("dtsur v1\ndesc x 2\nnorm 0 0").unwrap_err(),
            SerializeError::BadField("num_species")
        );
        let text = model.save();
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            SurrogateModel::load(&truncated).unwrap_err(),
            SerializeError::Net(_)
        ));
        let tampered = text.replacen("desc 4 2", "desc 3 2", 1);
        assert!(matches!(
            SurrogateModel::load(&tampered).unwrap_err(),
            SerializeError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let (model, _, _, _) = trained();
        let dir = std::env::temp_dir().join("dtsur-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.dtsur");
        model.save_to_file(&path).unwrap();
        let back = SurrogateModel::load_from_file(&path).unwrap();
        assert_eq!(back.save(), model.save());
        assert!(matches!(
            SurrogateModel::load_from_file(dir.join("missing.dtsur")),
            Err(SerializeError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bounds_bracket_predictions() {
        let (model, _, nt, comp) = trained();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let c = Configuration::random(&comp, &mut rng);
        let e = model.total_energy(&c, &nt);
        assert!(e > model.energy_lower_bound(&nt));
        assert!(e < model.energy_upper_bound(&nt));
    }
}
