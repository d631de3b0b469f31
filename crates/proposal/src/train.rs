//! On-the-fly training of the deep proposal network.
//!
//! Walkers periodically contribute configurations to a [`SampleBuffer`];
//! the [`ProposalTrainer`] fits the context network by **teacher-forced
//! maximum likelihood over the same constrained decoding process used at
//! proposal time**: for each training configuration it draws a site subset,
//! walks it in decode order, and asks the network to predict the species
//! actually present given the partial context. Maximizing this likelihood
//! maximizes the reverse proposal probability of equilibrium samples —
//! which is exactly the quantity that appears in the MH acceptance ratio.

use std::collections::VecDeque;

use dt_lattice::{Configuration, NeighborTable, SiteId};
use dt_nn::{Adam, Loss, Mlp, TrainScratch};
use dt_telemetry::{Phase, Telemetry};
use rand::Rng;

use crate::deep::FeatureLayout;
use crate::local::sample_distinct_sites;

/// A bounded FIFO of training configurations with their energies.
#[derive(Debug, Clone)]
pub struct SampleBuffer {
    capacity: usize,
    items: VecDeque<(Configuration, f64)>,
}

impl SampleBuffer {
    /// Buffer holding at most `capacity` samples (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        SampleBuffer {
            capacity,
            items: VecDeque::with_capacity(capacity),
        }
    }

    /// Add a sample, evicting the oldest when full.
    pub fn push(&mut self, config: Configuration, energy: f64) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back((config, energy));
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate stored samples.
    pub fn iter(&self) -> impl Iterator<Item = &(Configuration, f64)> {
        self.items.iter()
    }

    /// Drop all samples.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// Hyperparameters of the proposal trainer.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Sites decoded per training configuration (match the kernel's `k`).
    pub k: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Gradient-norm clip.
    pub grad_clip: f64,
    /// Configurations per minibatch.
    pub configs_per_batch: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            k: 32,
            lr: 3e-3,
            grad_clip: 5.0,
            configs_per_batch: 8,
        }
    }
}

/// Trains a proposal network from buffered walker samples.
///
/// Minibatch assembly is fully batched: every teacher-forced context row
/// of a chunk goes into one flat feature buffer and the network runs one
/// multi-row [`Mlp::train_step`] per chunk. Features, targets, the
/// per-row species masks and the step's [`TrainScratch`] are all reused
/// across chunks and epochs, as are the decode bookkeeping buffers, so a
/// warmed epoch performs no heap allocation.
#[derive(Debug)]
pub struct ProposalTrainer {
    cfg: TrainerConfig,
    layout: FeatureLayout,
    adam: Adam,
    site_buf: Vec<SiteId>,
    /// Flat `rows × dim` feature buffer, reused across chunks.
    features: Vec<f64>,
    /// Target species index per row, reused across chunks.
    targets: Vec<usize>,
    /// Flat `rows × m` mask buffer, reused across chunks.
    mask_buf: Vec<bool>,
    /// Per-config decided flags, reused across configurations.
    decided_buf: Vec<bool>,
    /// Per-config multiset budget, reused across configurations.
    remaining_buf: Vec<usize>,
    scratch: TrainScratch,
    tel: Telemetry,
}

impl ProposalTrainer {
    /// New trainer for networks with the given feature layout.
    pub fn new(layout: FeatureLayout, cfg: TrainerConfig) -> Self {
        let m = layout.num_species;
        ProposalTrainer {
            adam: Adam::with_lr(cfg.lr),
            features: Vec::new(),
            targets: Vec::new(),
            mask_buf: Vec::with_capacity(cfg.configs_per_batch * cfg.k * m),
            decided_buf: Vec::new(),
            remaining_buf: vec![0; m],
            scratch: TrainScratch::new(),
            cfg,
            layout,
            site_buf: Vec::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; each epoch records one [`Phase::Train`]
    /// span.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Run one epoch over the buffer; returns the mean cross-entropy per
    /// decoded site (nats). Returns `None` when the buffer is empty.
    pub fn train_epoch(
        &mut self,
        net: &mut Mlp,
        buffer: &SampleBuffer,
        neighbors: &NeighborTable,
        rng: &mut dyn Rng,
    ) -> Option<f64> {
        if buffer.is_empty() {
            return None;
        }
        assert_eq!(net.in_dim(), self.layout.dim(), "net/layout mismatch");
        // Clone the handle so the span's borrow does not pin `self`.
        let tel = self.tel.clone();
        let _span = tel.span(Phase::Train);
        let m = self.layout.num_species;
        let k = self.cfg.k;
        let dim = self.layout.dim();

        let mut total_loss = 0.0;
        let mut total_rows = 0usize;

        let per_chunk = self.cfg.configs_per_batch;
        for start in (0..buffer.len()).step_by(per_chunk) {
            let chunk = buffer
                .items
                .range(start..(start + per_chunk).min(buffer.len()));
            let rows = chunk.len() * k.min(buffer.items[start].0.num_sites());
            self.features.resize(rows * dim, 0.0);
            self.targets.clear();
            self.mask_buf.clear();
            let mut row = 0usize;

            for (config, _) in chunk {
                let n = config.num_sites();
                let kk = k.min(n);
                let mut sites = std::mem::take(&mut self.site_buf);
                sample_distinct_sites(n, kk, &mut sites, rng);

                // Teacher-forced decode with the configuration's own species.
                self.decided_buf.clear();
                self.decided_buf.resize(n, true);
                for &s in &sites {
                    self.decided_buf[s as usize] = false;
                }
                self.remaining_buf.clear();
                self.remaining_buf.resize(m, 0);
                for &s in &sites {
                    self.remaining_buf[config.species_at(s).index()] += 1;
                }
                for (step, &site) in sites.iter().enumerate() {
                    self.layout.fill(
                        &mut self.features[row * dim..(row + 1) * dim],
                        site,
                        neighbors,
                        config.species(),
                        &self.decided_buf,
                        &self.remaining_buf,
                        kk - step,
                        step as f64 / kk as f64,
                    );
                    let target = config.species_at(site);
                    self.targets.push(target.index());
                    self.mask_buf
                        .extend(self.remaining_buf.iter().map(|&r| r > 0));
                    self.remaining_buf[target.index()] -= 1;
                    self.decided_buf[site as usize] = true;
                    row += 1;
                }
                self.site_buf = sites;
            }
            debug_assert_eq!(row, rows);

            // All rows were built upfront, so the whole chunk runs one
            // multi-row training step — never row-by-row.
            let objective = Loss::CrossEntropy {
                targets: &self.targets,
                masks: Some(&self.mask_buf),
            };
            let loss = net.train_step(
                &self.features,
                rows,
                &objective,
                self.cfg.grad_clip,
                &mut self.adam,
                &mut self.scratch,
            );

            total_loss += loss * rows as f64;
            total_rows += rows;
        }
        Some(total_loss / total_rows as f64)
    }

    /// Train until the epoch loss stops improving by `tol` or `max_epochs`
    /// is hit; returns the final loss (`None` for an empty buffer).
    pub fn train_until(
        &mut self,
        net: &mut Mlp,
        buffer: &SampleBuffer,
        neighbors: &NeighborTable,
        max_epochs: usize,
        tol: f64,
        rng: &mut dyn Rng,
    ) -> Option<f64> {
        let mut prev = f64::INFINITY;
        let mut last = None;
        for _ in 0..max_epochs {
            let loss = self.train_epoch(net, buffer, neighbors, rng)?;
            last = Some(loss);
            if prev - loss < tol {
                break;
            }
            prev = loss;
        }
        last
    }
}

/// Convenience: generate equilibrium-ish training configurations for tests
/// and benchmarks by randomly shuffling within a composition.
pub fn random_training_set<R: Rng + ?Sized>(
    comp: &dt_lattice::Composition,
    count: usize,
    rng: &mut R,
) -> SampleBuffer {
    let mut buf = SampleBuffer::new(count.max(1));
    for _ in 0..count {
        buf.push(Configuration::random(comp, rng), 0.0);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deep::{DeepProposal, DeepProposalConfig};
    use crate::kinds::{ProposalContext, ProposalKernel, ProposedMove};
    use dt_lattice::{Composition, Structure, Supercell};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn buffer_evicts_oldest() {
        let comp = Composition::equiatomic(2, 4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut buf = SampleBuffer::new(2);
        for e in 0..4 {
            buf.push(Configuration::random(&comp, &mut rng), e as f64);
        }
        assert_eq!(buf.len(), 2);
        let energies: Vec<f64> = buf.iter().map(|&(_, e)| e).collect();
        assert_eq!(energies, vec![2.0, 3.0]);
    }

    #[test]
    fn training_reduces_loss_on_ordered_configs() {
        // Train on B2-ordered configurations: the network must learn the
        // strong sublattice correlation, so the loss should fall well below
        // the uniform-guess entropy.
        let cell = Supercell::cubic(Structure::bcc(), 3);
        let nt = cell.neighbor_table(2);
        let layout = FeatureLayout {
            num_species: 4,
            num_shells: 2,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut net = {
            let cfg = DeepProposalConfig {
                k: 16,
                hidden: vec![32, 32],
            };
            DeepProposal::new(4, 2, &cfg, &mut rng).net().clone()
        };
        let mut buf = SampleBuffer::new(16);
        for _ in 0..16 {
            buf.push(Configuration::b2_ordered(&cell, 4), 0.0);
        }
        let mut trainer = ProposalTrainer::new(
            layout,
            TrainerConfig {
                k: 16,
                lr: 3e-3,
                grad_clip: 5.0,
                configs_per_batch: 4,
            },
        );
        let first = trainer.train_epoch(&mut net, &buf, &nt, &mut rng).unwrap();
        let mut last = first;
        for _ in 0..40 {
            last = trainer.train_epoch(&mut net, &buf, &nt, &mut rng).unwrap();
        }
        assert!(
            last < first * 0.5,
            "loss should halve on ordered data: {first} -> {last}"
        );
        // Uniform guessing over 4 species costs ln 4 ≈ 1.386 nats.
        assert!(last < 1.0, "final loss {last} should beat uniform");
    }

    #[test]
    fn trained_proposal_reproduces_training_order() {
        // After training on B2 configurations, proposals from a B2 state
        // should mostly re-propose B2-compatible species.
        let cell = Supercell::cubic(Structure::bcc(), 3);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let cfg = DeepProposalConfig {
            k: 12,
            hidden: vec![32, 32],
        };
        let mut kern = DeepProposal::new(4, 2, &cfg, &mut rng);
        let layout = kern.layout();
        let mut buf = SampleBuffer::new(8);
        for _ in 0..8 {
            buf.push(Configuration::b2_ordered(&cell, 4), 0.0);
        }
        let mut trainer = ProposalTrainer::new(
            layout,
            TrainerConfig {
                k: 12,
                lr: 3e-3,
                grad_clip: 5.0,
                configs_per_batch: 4,
            },
        );
        for _ in 0..60 {
            trainer
                .train_epoch(kern.net_mut(), &buf, &nt, &mut rng)
                .unwrap();
        }
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let b2 = Configuration::b2_ordered(&cell, 4);
        let mut consistent = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let p = kern.propose(&b2, &ctx, &mut rng);
            if let ProposedMove::Reassign { moves } = &p.mv {
                for &(site, s) in moves {
                    total += 1;
                    let sub = cell.sublattice(site);
                    // B2 split: species 0/1 on sublattice 0, 2/3 on 1.
                    if (sub == 0 && s.0 < 2) || (sub == 1 && s.0 >= 2) {
                        consistent += 1;
                    }
                }
            }
        }
        let frac = consistent as f64 / total as f64;
        assert!(
            frac > 0.8,
            "trained proposals should respect B2 order: {frac}"
        );
    }

    #[test]
    fn empty_buffer_returns_none() {
        let nt = Supercell::cubic(Structure::bcc(), 2).neighbor_table(2);
        let layout = FeatureLayout {
            num_species: 4,
            num_shells: 2,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = DeepProposal::new(4, 2, &DeepProposalConfig::default(), &mut rng)
            .net()
            .clone();
        let buf = SampleBuffer::new(4);
        let mut trainer = ProposalTrainer::new(layout, TrainerConfig::default());
        assert!(trainer.train_epoch(&mut net, &buf, &nt, &mut rng).is_none());
    }

    #[test]
    fn train_until_stops_on_plateau() {
        let cell = Supercell::cubic(Structure::bcc(), 2);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let buf = random_training_set(&comp, 4, &mut rng);
        let layout = FeatureLayout {
            num_species: 4,
            num_shells: 2,
        };
        let mut net = DeepProposal::new(
            4,
            2,
            &DeepProposalConfig {
                k: 8,
                hidden: vec![8],
            },
            &mut rng,
        )
        .net()
        .clone();
        let mut trainer = ProposalTrainer::new(
            layout,
            TrainerConfig {
                k: 8,
                ..TrainerConfig::default()
            },
        );
        let loss = trainer
            .train_until(&mut net, &buf, &nt, 50, 1e-4, &mut rng)
            .unwrap();
        assert!(loss.is_finite() && loss > 0.0);
    }
}
