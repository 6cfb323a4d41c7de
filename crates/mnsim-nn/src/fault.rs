//! Behavior-level mirror of crossbar hard defects.
//!
//! The circuit path (`mnsim-circuit`) injects a
//! [`FaultMap`] as netlist edits: pinned cell
//! resistances and near-open wire segments. This module applies the *same*
//! map to a behavioral weight matrix, so that the fast accuracy-model path
//! and the slow circuit path both see the same silicon:
//!
//! * a stuck-at-HRS cell conducts minimally → its weight collapses to the
//!   quantizer's bottom level,
//! * a stuck-at-LRS cell conducts maximally → its weight saturates at the
//!   top level,
//! * a drifted cell's resistance scales by a factor `f`, so its conductance
//!   (and, in the linear weight-to-conductance mapping MNSIM uses, its
//!   weight level) scales by `1/f`,
//! * a cell isolated by a broken word/bit line contributes no current →
//!   bottom level, which also blanks whole rows (broken word line) and
//!   column tails (broken bit line).
//!
//! Weight matrices are laid out like the physical array: element `(i, j)`
//! of the tensor is the cell at word line `i`, bit line `j`.

use mnsim_tech::fault::{CellFault, FaultMap};

use crate::error::NnError;
use crate::quantize::Quantizer;
use crate::tensor::Tensor;

/// Applies `map` to a `rows × cols` weight matrix, returning the weights the
/// defective array effectively implements.
///
/// Healthy cells are re-quantized (the array can only hold quantized
/// weights); defective cells are transformed as described at module level.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] if `weights` is not a 2-D tensor
/// matching the map's geometry.
pub(crate) fn apply_fault_map(
    weights: &Tensor,
    quantizer: &Quantizer,
    map: &FaultMap,
) -> Result<Tensor, NnError> {
    if weights.shape() != [map.rows, map.cols] {
        return Err(NnError::ShapeMismatch {
            expected: vec![map.rows, map.cols],
            actual: weights.shape().to_vec(),
            operation: "apply_fault_map",
        });
    }
    let top = quantizer.levels() - 1;
    let mut out = Tensor::zeros(weights.shape());
    for row in 0..map.rows {
        for col in 0..map.cols {
            let level = quantizer.level_of(weights.at2(row, col));
            let faulted = if map.is_isolated(row, col) {
                0
            } else {
                match map.cells.get(&(row, col)) {
                    Some(CellFault::StuckAtHrs) => 0,
                    Some(CellFault::StuckAtLrs) => top,
                    Some(CellFault::Drifted { factor }) => {
                        let scaled = (level as f64 / factor).round();
                        (scaled.clamp(0.0, top as f64)) as u32
                    }
                    None => level,
                }
            };
            *out.at2_mut(row, col) = quantizer.value_of(faulted);
        }
    }
    Ok(out)
}

/// Mean absolute deviation between the faulted and clean weight matrices,
/// in quantization *levels* — a cheap proxy for how much damage a map does
/// before running any inference.
///
/// # Errors
///
/// Propagates `apply_fault_map` failures.
pub fn weight_damage_levels(
    weights: &Tensor,
    quantizer: &Quantizer,
    map: &FaultMap,
) -> Result<f64, NnError> {
    let clean = quantizer.quantize_tensor(weights);
    let faulted = apply_fault_map(weights, quantizer, map)?;
    let step = quantizer.step();
    let total: f64 = clean
        .data()
        .iter()
        .zip(faulted.data())
        .map(|(c, f)| (c - f).abs() / step)
        .sum();
    Ok(total / clean.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Tensor {
        let data = (0..rows * cols)
            .map(|k| k as f64 / (rows * cols - 1) as f64)
            .collect();
        Tensor::from_vec(&[rows, cols], data).unwrap()
    }

    #[test]
    fn clean_map_is_pure_quantization() {
        let q = Quantizer::unsigned_unit(4).unwrap();
        let w = ramp(4, 4);
        let out = apply_fault_map(&w, &q, &FaultMap::empty(4, 4)).unwrap();
        assert_eq!(out, q.quantize_tensor(&w));
        assert_eq!(weight_damage_levels(&w, &q, &FaultMap::empty(4, 4)).unwrap(), 0.0);
    }

    #[test]
    fn stuck_cells_pin_weight_levels() {
        let q = Quantizer::unsigned_unit(4).unwrap();
        let w = ramp(2, 2);
        let mut map = FaultMap::empty(2, 2);
        map.cells.insert((0, 0), CellFault::StuckAtLrs);
        map.cells.insert((1, 1), CellFault::StuckAtHrs);
        let out = apply_fault_map(&w, &q, &map).unwrap();
        assert_eq!(out.at2(0, 0), q.value_of(q.levels() - 1));
        assert_eq!(out.at2(1, 1), q.value_of(0));
        // Healthy cells untouched beyond quantization.
        assert_eq!(out.at2(0, 1), q.quantize(w.at2(0, 1)));
    }

    #[test]
    fn drift_scales_levels_inversely() {
        let q = Quantizer::unsigned_unit(6).unwrap();
        let w = Tensor::from_vec(&[1, 1], vec![0.8]).unwrap();
        let level = q.level_of(0.8);
        let mut map = FaultMap::empty(1, 1);
        map.cells.insert((0, 0), CellFault::Drifted { factor: 2.0 });
        let out = apply_fault_map(&w, &q, &map).unwrap();
        let expected = q.value_of((level as f64 / 2.0).round() as u32);
        assert_eq!(out.at2(0, 0), expected);
        assert!(out.at2(0, 0) < 0.8);
    }

    #[test]
    fn broken_wordline_blanks_row_tail() {
        let q = Quantizer::unsigned_unit(4).unwrap();
        let w = ramp(3, 4);
        let mut map = FaultMap::empty(3, 4);
        map.broken_wordlines.insert(1, 2); // cells (1, 2) and (1, 3) dead
        let out = apply_fault_map(&w, &q, &map).unwrap();
        assert_eq!(out.at2(1, 2), q.value_of(0));
        assert_eq!(out.at2(1, 3), q.value_of(0));
        assert_eq!(out.at2(1, 1), q.quantize(w.at2(1, 1)));
        assert_eq!(out.at2(0, 2), q.quantize(w.at2(0, 2)));
    }

    #[test]
    fn detached_sense_blanks_whole_column() {
        let q = Quantizer::unsigned_unit(4).unwrap();
        let w = ramp(3, 3);
        let mut map = FaultMap::empty(3, 3);
        map.broken_bitlines.insert(2, 3); // seg == rows
        let out = apply_fault_map(&w, &q, &map).unwrap();
        for row in 0..3 {
            assert_eq!(out.at2(row, 2), q.value_of(0));
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let q = Quantizer::unsigned_unit(4).unwrap();
        let w = ramp(2, 3);
        assert!(matches!(
            apply_fault_map(&w, &q, &FaultMap::empty(3, 2)),
            Err(NnError::ShapeMismatch { .. })
        ));
        let v = Tensor::vector(&[0.1, 0.2]);
        assert!(apply_fault_map(&v, &q, &FaultMap::empty(2, 1)).is_err());
    }

    #[test]
    fn damage_grows_with_defect_density() {
        let q = Quantizer::unsigned_unit(6).unwrap();
        let w = ramp(8, 8);
        let light = FaultMap::generate(8, 8, &mnsim_tech::fault::FaultRates::stuck_at(0.05), 5)
            .unwrap();
        let heavy = FaultMap::generate(8, 8, &mnsim_tech::fault::FaultRates::stuck_at(0.5), 5)
            .unwrap();
        let d_light = weight_damage_levels(&w, &q, &light).unwrap();
        let d_heavy = weight_damage_levels(&w, &q, &heavy).unwrap();
        assert!(d_light < d_heavy, "{d_light} !< {d_heavy}");
    }
}
