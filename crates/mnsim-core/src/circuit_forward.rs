//! Circuit-backed neural-network layer forward passes.
//!
//! [`CircuitLayer`] maps one weight matrix onto its dual-crossbar circuits
//! once ([`map_weights`]) and then evaluates arbitrarily many activation
//! vectors against them through
//! [`PreparedSystem`] batches: the nodal system is assembled and factored
//! (dense LU below the dense cutoff, sparse LDLᵀ above) a single time per
//! polarity, and every activation becomes a re-driven right-hand side that
//! costs one backsolve. This is the circuit-level counterpart of the
//! behavior-level matrix-vector product the paper's computation units
//! perform.
//!
//! [`CircuitLayer::forward_batch_with`] shards a batch over the worker
//! pool: each worker solves a contiguous, deterministic
//! [`exec::shard_ranges`] slice against its own clone of the prepared
//! systems. A solve depends only on the held factor, never on the solves
//! before it, so the sharded output is bit-identical to the serial one.

use mnsim_circuit::batch::PreparedSystem;
use mnsim_circuit::crossbar::CrossbarCircuit;
use mnsim_circuit::solve::SolveOptions;
use mnsim_nn::tensor::Tensor;
use mnsim_tech::units::Voltage;

use crate::config::Config;
use crate::error::CoreError;
use crate::exec::{self, ExecOptions, RunControl};
use crate::netlist_gen::map_weights;

/// The immutable half of a [`CircuitLayer`]: geometry and built circuits,
/// shared read-only by every solving thread.
#[derive(Debug)]
struct Circuits {
    rows: usize,
    cols: usize,
    v_read: Voltage,
    positive: CrossbarCircuit,
    negative: Option<CrossbarCircuit>,
}

impl Circuits {
    /// Word-line drive voltages for one activation vector (`v_read · x`,
    /// clamped to `[0, 1]` — the [`map_weights`] input mapping).
    fn drive_voltages(&self, activations: &[f64]) -> Result<Vec<Voltage>, CoreError> {
        if activations.len() != self.rows {
            return Err(CoreError::Nn(mnsim_nn::NnError::ShapeMismatch {
                expected: vec![self.rows],
                actual: vec![activations.len()],
                operation: "CircuitLayer activations",
            }));
        }
        Ok(activations
            .iter()
            .map(|&x| Voltage::from_volts(self.v_read.volts() * x.clamp(0.0, 1.0)))
            .collect())
    }

    /// Solves `batch` against the given prepared systems (the mutable
    /// factorization state lives in the caller, so shards can solve
    /// concurrently against clones).
    fn solve_batch(
        &self,
        prepared_positive: &mut PreparedSystem,
        prepared_negative: &mut Option<PreparedSystem>,
        batch: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        let mut rhs_positive = Vec::with_capacity(batch.len());
        let mut rhs_negative = Vec::with_capacity(batch.len());
        for activations in batch {
            let drive = self.drive_voltages(activations)?;
            rhs_positive.push(self.positive.input_rhs(&drive)?);
            if let Some(built) = &self.negative {
                rhs_negative.push(built.input_rhs(&drive)?);
            }
        }

        let positive_solutions =
            prepared_positive.solve_batch(self.positive.circuit(), &rhs_positive)?;
        let positive_outputs: Vec<Vec<Voltage>> = positive_solutions
            .iter()
            .map(|solution| self.positive.output_voltages(solution))
            .collect();

        let negative_outputs: Option<Vec<Vec<Voltage>>> =
            match (&self.negative, prepared_negative) {
                (Some(built), Some(prepared)) => {
                    let solutions = prepared.solve_batch(built.circuit(), &rhs_negative)?;
                    Some(
                        solutions
                            .iter()
                            .map(|solution| built.output_voltages(solution))
                            .collect(),
                    )
                }
                _ => None,
            };

        Ok(positive_outputs
            .iter()
            .enumerate()
            .map(|(k, pos)| {
                (0..self.cols)
                    .map(|col| {
                        let n = negative_outputs
                            .as_ref()
                            .map_or(0.0, |neg| neg[k][col].volts());
                        pos[col].volts() - n
                    })
                    .collect()
            })
            .collect())
    }
}

/// One weight matrix mapped onto solvable crossbar circuits, with cached
/// prepared systems for repeated forward passes.
#[derive(Debug)]
pub struct CircuitLayer {
    circuits: Circuits,
    prepared_positive: PreparedSystem,
    prepared_negative: Option<PreparedSystem>,
}

impl CircuitLayer {
    /// Maps `weights` (shape `(outputs, inputs)`, values in `[-1, 1]`)
    /// under `config` and prepares the resulting circuits for batched
    /// solving.
    ///
    /// # Errors
    ///
    /// Same mapping conditions as [`map_weights`]; propagates circuit
    /// construction and preparation failures.
    pub fn new(config: &Config, weights: &Tensor) -> Result<Self, CoreError> {
        let shape = weights.shape();
        if shape.len() != 2 {
            return Err(CoreError::Nn(mnsim_nn::NnError::ShapeMismatch {
                expected: vec![0, 0],
                actual: shape.to_vec(),
                operation: "CircuitLayer::new",
            }));
        }
        let inputs = shape[1];
        // The mapped states are input-independent; the placeholder input
        // vector only seeds the spec's default drive, which every forward
        // pass overrides through the prepared system.
        let mapped = map_weights(config, weights, &vec![0.0; inputs])?;
        let options = SolveOptions::default();
        let positive = mapped.positive.build()?;
        let prepared_positive = PreparedSystem::build(positive.circuit(), options.clone())?;
        let (negative, prepared_negative) = match &mapped.negative {
            Some(spec) => {
                let built = spec.build()?;
                let prepared = PreparedSystem::build(built.circuit(), options)?;
                (Some(built), Some(prepared))
            }
            None => (None, None),
        };
        Ok(CircuitLayer {
            circuits: Circuits {
                rows: mapped.positive.rows,
                cols: mapped.positive.cols,
                v_read: config.device.v_read,
                positive,
                negative,
            },
            prepared_positive,
            prepared_negative,
        })
    }

    /// Input count (crossbar rows) of the layer.
    pub fn rows(&self) -> usize {
        self.circuits.rows
    }

    /// Output count (crossbar columns) of the layer.
    pub fn cols(&self) -> usize {
        self.circuits.cols
    }

    /// Wire-free ideal differential output voltages for one activation
    /// vector — the linear target the circuit approaches as wire
    /// resistance vanishes.
    ///
    /// # Errors
    ///
    /// Rejects an activation vector of the wrong length.
    pub fn ideal_forward(&self, activations: &[f64]) -> Result<Vec<f64>, CoreError> {
        let drive = self.circuits.drive_voltages(activations)?;
        let positive = self
            .circuits
            .positive
            .spec()
            .ideal_output_voltages_for(&drive);
        let negative = self
            .circuits
            .negative
            .as_ref()
            .map(|built| built.spec().ideal_output_voltages_for(&drive));
        Ok((0..self.circuits.cols)
            .map(|col| {
                let n = negative.as_ref().map_or(0.0, |v| v[col].volts());
                positive[col].volts() - n
            })
            .collect())
    }

    /// Remaps new weight values onto the layer's crossbars without
    /// discarding the cached solver state.
    ///
    /// Reprogramming changes cell conductances but not the circuit
    /// topology, so on the sparse-direct engine and on sinh cells the
    /// cached symbolic analysis is *refactored* in place
    /// ([`PreparedSystem::try_value_refresh`] → the
    /// `solver.klu.refactor` fast path) instead of re-analyzed; other
    /// engines, or a weight shape that changes the geometry, fall back to
    /// a full rebuild.
    ///
    /// # Errors
    ///
    /// Same mapping conditions as [`CircuitLayer::new`].
    pub fn reprogram(&mut self, config: &Config, weights: &Tensor) -> Result<(), CoreError> {
        let shape = weights.shape();
        if shape.len() != 2 {
            return Err(CoreError::Nn(mnsim_nn::NnError::ShapeMismatch {
                expected: vec![0, 0],
                actual: shape.to_vec(),
                operation: "CircuitLayer::reprogram",
            }));
        }
        let inputs = shape[1];
        let mapped = map_weights(config, weights, &vec![0.0; inputs])?;
        let options = SolveOptions::default();
        let positive = mapped.positive.build()?;
        if !self.prepared_positive.try_value_refresh(positive.circuit())? {
            self.prepared_positive = PreparedSystem::build(positive.circuit(), options.clone())?;
        }
        let (negative, prepared_negative) = match &mapped.negative {
            Some(spec) => {
                let built = spec.build()?;
                let refreshed = match self.prepared_negative.take() {
                    Some(mut prepared) => prepared
                        .try_value_refresh(built.circuit())?
                        .then_some(prepared),
                    None => None,
                };
                let prepared = match refreshed {
                    Some(prepared) => prepared,
                    None => PreparedSystem::build(built.circuit(), options)?,
                };
                (Some(built), Some(prepared))
            }
            None => (None, None),
        };
        self.circuits = Circuits {
            rows: mapped.positive.rows,
            cols: mapped.positive.cols,
            v_read: config.device.v_read,
            positive,
            negative,
        };
        self.prepared_negative = prepared_negative;
        Ok(())
    }

    /// Solves one activation vector; equivalent to a batch of one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CircuitLayer::forward_batch`].
    pub fn forward(&mut self, activations: &[f64]) -> Result<Vec<f64>, CoreError> {
        let mut out = self.forward_batch(std::slice::from_ref(&activations.to_vec()))?;
        out.pop().ok_or_else(|| CoreError::InvalidConfig {
            parameter: "forward",
            reason: "batch of one produced no solution".into(),
        })
    }

    /// Solves a batch of activation vectors (values in `[0, 1]`, length =
    /// [`CircuitLayer::rows`]) and returns the differential output
    /// voltages (positive minus negative crossbar) per vector, in volts.
    ///
    /// Both polarities reuse their cached factorization: each activation
    /// costs one backsolve per polarity.
    ///
    /// # Errors
    ///
    /// Rejects activation vectors of the wrong length; propagates solver
    /// failures.
    pub fn forward_batch(&mut self, batch: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        self.circuits
            .solve_batch(&mut self.prepared_positive, &mut self.prepared_negative, batch)
    }

    /// [`CircuitLayer::forward_batch`] sharded over the worker pool.
    ///
    /// The batch is split into contiguous [`exec::shard_ranges`] slices —
    /// one per worker — and every worker solves its shard against a fresh
    /// **clone** of the layer's prepared systems: a copy of the dense LU
    /// below the dense cutoff, of the LDLᵀ factor above it. Every solve is
    /// a backsolve on that factor and depends on nothing an earlier solve
    /// left behind, so the output is **bit-identical** to the serial batch
    /// at every crossbar size and thread count (`threads <= 1` delegates
    /// to [`forward_batch`](Self::forward_batch)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CircuitLayer::forward_batch`]; the error of
    /// the earliest failing shard is returned.
    pub fn forward_batch_with(
        &mut self,
        batch: &[Vec<f64>],
        options: &ExecOptions,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        let threads = options.resolved_threads().min(batch.len().max(1));
        if threads <= 1 {
            return self.forward_batch(batch);
        }
        let ranges = exec::shard_ranges(batch.len(), threads);
        let circuits = &self.circuits;
        let prepared_positive = &self.prepared_positive;
        let prepared_negative = &self.prepared_negative;
        let shards: Vec<usize> = (0..ranges.len()).collect();
        let shard_outputs = exec::run_indices(&shards, threads, &RunControl::new(), |shard| {
            let mut positive = prepared_positive.clone();
            let mut negative = prepared_negative.clone();
            circuits.solve_batch(&mut positive, &mut negative, &batch[ranges[shard].clone()])
        })
        .into_result()
        .map_err(|error| error.into_core(None))?;
        Ok(shard_outputs.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WeightPolarity;
    use mnsim_circuit::batch::EngineKind;
    use mnsim_tech::interconnect::InterconnectNode;

    fn config() -> Config {
        let mut c = Config::fully_connected_mlp(&[4, 2]).unwrap();
        c.crossbar_size = 4;
        // The ideal-output comparison wants wire resistance to be a small
        // perturbation: the finest node has the smallest segments.
        c.interconnect = InterconnectNode::N28;
        c
    }

    fn weights() -> Tensor {
        Tensor::from_vec(&[2, 4], vec![0.5, -0.25, 1.0, 0.0, -1.0, 0.75, 0.1, -0.6]).unwrap()
    }

    #[test]
    fn forward_tracks_ideal_at_small_wire_resistance() {
        let mut layer = CircuitLayer::new(&config(), &weights()).unwrap();
        assert_eq!(layer.rows(), 4);
        assert_eq!(layer.cols(), 2);
        let activations = vec![1.0, 0.5, 0.25, 0.75];
        let actual = layer.forward(&activations).unwrap();
        let ideal = layer.ideal_forward(&activations).unwrap();
        let v_read = config().device.v_read.volts();
        for (a, i) in actual.iter().zip(&ideal) {
            assert!(
                (a - i).abs() < 0.02 * v_read,
                "circuit {a} V vs ideal {i} V"
            );
        }
    }

    #[test]
    fn batch_matches_sequential_forwards_bitwise() {
        let batch = vec![
            vec![1.0, 0.5, 0.25, 0.75],
            vec![0.9, 0.55, 0.2, 0.7],
            vec![0.0, 1.0, 0.5, 0.1],
        ];
        let mut batched_layer = CircuitLayer::new(&config(), &weights()).unwrap();
        let batched = batched_layer.forward_batch(&batch).unwrap();

        let mut serial_layer = CircuitLayer::new(&config(), &weights()).unwrap();
        for (k, activations) in batch.iter().enumerate() {
            let single = serial_layer.forward(activations).unwrap();
            // Each solve is a backsolve on the held factor, so batching
            // cannot change a bit.
            assert_eq!(batched[k], single, "vector {k}");
        }
    }

    /// A read depends on nothing an earlier read left behind, so sharding
    /// cannot perturb a bit on either engine: the 4×2 layer (16 unknowns
    /// per polarity) takes the dense LU, the 8×8 one (128 unknowns) the
    /// LDLᵀ. Linear cells backsolve on the prepared factor; sinh cells run
    /// a Newton solve per read whose linear steps take the same engines.
    #[test]
    fn sharded_batch_is_bit_identical_at_every_size() {
        let mut large_config = Config::fully_connected_mlp(&[8, 8]).unwrap();
        large_config.crossbar_size = 8;
        let large_weights = Tensor::from_vec(
            &[8, 8],
            (0..64)
                .map(|k| ((k * 37 % 61) as f64 / 30.0) - 1.0)
                .collect(),
        )
        .unwrap();
        let linear = |config: &Config| {
            let mut config = config.clone();
            config.device.iv = mnsim_tech::memristor::IvModel::Linear;
            config
        };
        let layers = [
            (config(), weights(), EngineKind::Nonlinear),
            (linear(&config()), weights(), EngineKind::Dense),
            (
                large_config.clone(),
                large_weights.clone(),
                EngineKind::Nonlinear,
            ),
            (
                linear(&large_config),
                large_weights,
                EngineKind::SparseDirect,
            ),
        ];
        for (config, weights, engine) in layers {
            let mut serial_layer = CircuitLayer::new(&config, &weights).unwrap();
            assert_eq!(serial_layer.prepared_positive.engine_kind(), engine);
            let rows = serial_layer.rows();
            let batch: Vec<Vec<f64>> = (0..17)
                .map(|k| {
                    (0..rows)
                        .map(|i| ((k * rows + i) as f64 * 0.37).fract())
                        .collect()
                })
                .collect();
            let serial = serial_layer.forward_batch(&batch).unwrap();
            for threads in [0usize, 2, 3, 7] {
                let mut layer = CircuitLayer::new(&config, &weights).unwrap();
                let sharded = layer
                    .forward_batch_with(&batch, &ExecOptions::with_threads(threads))
                    .unwrap();
                assert_eq!(serial, sharded, "{rows} rows, threads={threads}");
            }
        }
    }

    #[test]
    fn reprogram_matches_fresh_layer_bitwise() {
        // 8×8 crossbars (128 unknowns per polarity) select the
        // sparse-direct engine, so reprogramming exercises the in-place
        // value refresh — and its factors must be bit-identical to a cold
        // build's.
        let mut c = Config::fully_connected_mlp(&[8, 8]).unwrap();
        c.crossbar_size = 8;
        c.interconnect = InterconnectNode::N28;
        let w1 =
            Tensor::from_vec(&[8, 8], (0..64).map(|k| (k as f64 * 0.13).sin()).collect()).unwrap();
        let w2 = Tensor::from_vec(
            &[8, 8],
            (0..64).map(|k| (k as f64 * 0.29).cos() * 0.8).collect(),
        )
        .unwrap();
        let batch = vec![vec![0.6; 8], (0..8).map(|i| i as f64 / 8.0).collect()];

        let mut layer = CircuitLayer::new(&c, &w1).unwrap();
        layer.forward_batch(&batch).unwrap();
        layer.reprogram(&c, &w2).unwrap();
        let reprogrammed = layer.forward_batch(&batch).unwrap();

        let mut fresh = CircuitLayer::new(&c, &w2).unwrap();
        let cold = fresh.forward_batch(&batch).unwrap();
        assert_eq!(reprogrammed, cold);
    }

    #[test]
    fn unsigned_polarity_has_no_negative_crossbar() {
        let mut c = config();
        c.weight_polarity = WeightPolarity::Unsigned;
        let w = Tensor::from_vec(&[2, 4], vec![0.5; 8]).unwrap();
        let mut layer = CircuitLayer::new(&c, &w).unwrap();
        let out = layer.forward(&[1.0; 4]).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn wrong_activation_arity_rejected() {
        let mut layer = CircuitLayer::new(&config(), &weights()).unwrap();
        assert!(layer.forward(&[1.0, 0.5]).is_err());
        assert!(layer.forward_batch(&[vec![0.2; 5]]).is_err());
        assert!(layer
            .forward_batch_with(&[vec![0.2; 5], vec![0.1; 4]], &ExecOptions::with_threads(2))
            .is_err());
    }
}
