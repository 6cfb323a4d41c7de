//! Hard-defect models for memristor crossbars.
//!
//! The MNSIM accuracy model covers interconnect error and device *variation*
//! (paper Eqs. 9–16), but fabricated arrays also suffer hard defects that no
//! amount of calibration removes: cells stuck at the high- or low-resistance
//! state (failed forming / permanent filament), whole word or bit lines
//! broken by electromigration or lithography defects, and cells whose
//! resistance has drifted far outside the programmed envelope.
//!
//! This module provides the *technology-level* description of such defects:
//!
//! * [`FaultRates`] — per-kind defect probabilities,
//! * [`FaultMap`] — a concrete, replayable assignment of defects to one
//!   `rows × cols` crossbar, generated deterministically from a seed,
//! * a line-oriented text serialization ([`FaultMap::to_text`] /
//!   [`FaultMap::from_text`]) so a map observed in one run can be replayed
//!   bit-identically in another.
//!
//! The circuit layer (`mnsim-circuit`) turns a map into netlist edits
//! (pinned cell resistances, opened wire segments); the network layer
//! (`mnsim-nn`) mirrors the same map onto behavioral weight matrices so both
//! paths see the same silicon.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::TechError;

/// The defect carried by one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellFault {
    /// Pinned to the device's highest resistance.
    StuckAtHrs,
    /// Pinned to the device's lowest resistance.
    StuckAtLrs,
    /// Programmed resistance multiplied by `factor` (> 0).
    Drifted {
        /// Multiplicative resistance drift (log-uniform around 1).
        factor: f64,
    },
}

/// Per-kind defect probabilities.
///
/// Cell-level rates (`stuck_at_hrs`, `stuck_at_lrs`, `drifted`) are applied
/// independently per cell; line-level rates (`broken_wordline`,
/// `broken_bitline`) independently per row/column. All rates are clamped to
/// the unit interval by [`FaultRates::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a cell is stuck at the high-resistance state.
    pub stuck_at_hrs: f64,
    /// Probability a cell is stuck at the low-resistance state.
    pub stuck_at_lrs: f64,
    /// Probability a cell's resistance has drifted.
    pub drifted: f64,
    /// Maximum |log10| drift of a drifted cell (e.g. `1.0` → up to 10×).
    pub drift_decades: f64,
    /// Probability a word line is broken at a random segment.
    pub broken_wordline: f64,
    /// Probability a bit line is broken at a random segment.
    pub broken_bitline: f64,
}

impl FaultRates {
    /// A uniform stuck-at map: half HRS, half LRS, no line breaks.
    pub fn stuck_at(rate: f64) -> Self {
        FaultRates {
            stuck_at_hrs: rate / 2.0,
            stuck_at_lrs: rate / 2.0,
            ..FaultRates::default()
        }
    }

    /// Validates every rate is a probability and the drift span is sane.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidDeviceParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), TechError> {
        let fields = [
            ("stuck_at_hrs", self.stuck_at_hrs),
            ("stuck_at_lrs", self.stuck_at_lrs),
            ("drifted", self.drifted),
            ("broken_wordline", self.broken_wordline),
            ("broken_bitline", self.broken_bitline),
        ];
        for (name, value) in fields {
            if !(0.0..=1.0).contains(&value) {
                return Err(TechError::InvalidDeviceParameter {
                    parameter: "fault_rates",
                    reason: format!("{name} = {value} is not a probability in [0, 1]"),
                });
            }
        }
        if self.stuck_at_hrs + self.stuck_at_lrs + self.drifted > 1.0 {
            return Err(TechError::InvalidDeviceParameter {
                parameter: "fault_rates",
                reason: format!(
                    "cell-level rates sum to {} > 1",
                    self.stuck_at_hrs + self.stuck_at_lrs + self.drifted
                ),
            });
        }
        if !(0.0..=6.0).contains(&self.drift_decades) {
            return Err(TechError::InvalidDeviceParameter {
                parameter: "fault_rates",
                reason: format!("drift_decades = {} outside 0..=6", self.drift_decades),
            });
        }
        Ok(())
    }
}

/// SplitMix64 — the fault generator's self-contained PRNG.
///
/// Embedded here (rather than depending on an external RNG crate) so a
/// `(seed, rates, geometry)` triple maps to the same [`FaultMap`] on every
/// platform and under every workspace dependency configuration — the
/// determinism the replay serialization guarantees.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A concrete, replayable defect assignment for one `rows × cols` crossbar.
///
/// Cell faults are keyed by `(row, col)`; broken lines record the segment
/// index at which the wire is open (see the crossbar topology in
/// `mnsim-circuit::crossbar`): a word line broken at segment `s` disconnects
/// cells `col >= s` from the driver, a bit line broken at segment `s`
/// disconnects cells `row < s` from the sensing resistor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultMap {
    /// Word lines of the array this map describes.
    pub rows: usize,
    /// Bit lines of the array this map describes.
    pub cols: usize,
    /// Defective cells by coordinate (deterministic iteration order).
    pub cells: BTreeMap<(usize, usize), CellFault>,
    /// `row → segment` of open word-line segments (`segment ∈ 0..cols`).
    pub broken_wordlines: BTreeMap<usize, usize>,
    /// `col → segment` of open bit-line segments (`segment ∈ 1..rows`,
    /// or `rows` for a detached sense resistor).
    pub broken_bitlines: BTreeMap<usize, usize>,
}

impl FaultMap {
    /// An empty (defect-free) map for a `rows × cols` array.
    pub fn empty(rows: usize, cols: usize) -> Self {
        FaultMap {
            rows,
            cols,
            ..FaultMap::default()
        }
    }

    /// Generates a map by seeded Monte-Carlo draw. The same
    /// `(rows, cols, rates, seed)` always produces the same map.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultRates::validate`] failures.
    pub fn generate(
        rows: usize,
        cols: usize,
        rates: &FaultRates,
        seed: u64,
    ) -> Result<Self, TechError> {
        rates.validate()?;
        let mut rng = SplitMix64::new(seed);
        let mut map = FaultMap::empty(rows, cols);

        for row in 0..rows {
            for col in 0..cols {
                let u = rng.unit();
                // One draw decides the cell's fate: the kinds partition
                // [0, stuck_hrs + stuck_lrs + drifted).
                let fault = if u < rates.stuck_at_hrs {
                    Some(CellFault::StuckAtHrs)
                } else if u < rates.stuck_at_hrs + rates.stuck_at_lrs {
                    Some(CellFault::StuckAtLrs)
                } else if u < rates.stuck_at_hrs + rates.stuck_at_lrs + rates.drifted {
                    // Log-uniform drift in ±drift_decades decades.
                    let exponent = (rng.unit() * 2.0 - 1.0) * rates.drift_decades;
                    Some(CellFault::Drifted {
                        factor: 10f64.powf(exponent),
                    })
                } else {
                    None
                };
                if let Some(fault) = fault {
                    map.cells.insert((row, col), fault);
                }
            }
        }

        for row in 0..rows {
            if rng.unit() < rates.broken_wordline {
                map.broken_wordlines.insert(row, rng.below(cols.max(1)));
            }
        }
        for col in 0..cols {
            if rng.unit() < rates.broken_bitline {
                // Segments 1..rows are inter-cell; `rows` opens the sense leg.
                map.broken_bitlines.insert(col, 1 + rng.below(rows.max(1)));
            }
        }

        Ok(map)
    }

    /// `true` if cell `(row, col)` is cut off from its driver or its sense
    /// resistor by a broken line.
    pub fn is_isolated(&self, row: usize, col: usize) -> bool {
        self.broken_wordlines
            .get(&row)
            .is_some_and(|&seg| col >= seg)
            || self.broken_bitlines.get(&col).is_some_and(|&seg| row < seg)
    }

    /// `true` if column `col`'s sense resistor is detached from the array
    /// (bit line broken at its foot segment).
    pub fn sense_detached(&self, col: usize) -> bool {
        self.broken_bitlines
            .get(&col)
            .is_some_and(|&seg| seg >= self.rows)
    }

    /// Number of defective cells (stuck or drifted).
    pub fn cell_fault_count(&self) -> usize {
        self.cells.len()
    }

    /// Fraction of the array's cells that are *unusable*: stuck cells plus
    /// every cell isolated by a broken line (double counting removed).
    pub fn defective_cell_fraction(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        let mut dead = 0usize;
        for row in 0..self.rows {
            for col in 0..self.cols {
                let stuck = matches!(
                    self.cells.get(&(row, col)),
                    Some(CellFault::StuckAtHrs | CellFault::StuckAtLrs)
                );
                if stuck || self.is_isolated(row, col) {
                    dead += 1;
                }
            }
        }
        dead as f64 / (self.rows * self.cols) as f64
    }

    /// Rows containing at least one defect (stuck/drifted cell or broken
    /// word line) — the unit of spare-row remapping.
    pub fn defective_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .cells
            .keys()
            .map(|&(row, _)| row)
            .chain(self.broken_wordlines.keys().copied())
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Drops every fault in `row` — models remapping that row to a spare.
    pub fn clear_row(&mut self, row: usize) {
        self.cells.retain(|&(r, _), _| r != row);
        self.broken_wordlines.remove(&row);
    }

    /// Serializes to the line-oriented replay format parsed by
    /// [`FaultMap::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "faultmap v1 rows={} cols={}", self.rows, self.cols);
        for (&(row, col), fault) in &self.cells {
            match fault {
                CellFault::StuckAtHrs => {
                    let _ = writeln!(out, "cell {row} {col} stuck-hrs");
                }
                CellFault::StuckAtLrs => {
                    let _ = writeln!(out, "cell {row} {col} stuck-lrs");
                }
                CellFault::Drifted { factor } => {
                    let _ = writeln!(out, "cell {row} {col} drift {factor:e}");
                }
            }
        }
        for (&row, &seg) in &self.broken_wordlines {
            let _ = writeln!(out, "wordline {row} {seg}");
        }
        for (&col, &seg) in &self.broken_bitlines {
            let _ = writeln!(out, "bitline {col} {seg}");
        }
        out
    }

    /// Parses the format produced by [`FaultMap::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`TechError::FaultMapParse`] with a 1-based line number for
    /// unknown directives, malformed numbers, or out-of-range coordinates.
    pub fn from_text(text: &str) -> Result<Self, TechError> {
        let parse_err = |line: usize, reason: String| TechError::FaultMapParse { line, reason };
        let mut lines = text.lines().enumerate();

        let (_, header) = lines
            .next()
            .ok_or_else(|| parse_err(1, "empty fault map".into()))?;
        let mut rows = None;
        let mut cols = None;
        let mut words = header.split_whitespace();
        if words.next() != Some("faultmap") || words.next() != Some("v1") {
            return Err(parse_err(1, "expected `faultmap v1` header".into()));
        }
        for word in words {
            if let Some(v) = word.strip_prefix("rows=") {
                rows = v.parse::<usize>().ok();
            } else if let Some(v) = word.strip_prefix("cols=") {
                cols = v.parse::<usize>().ok();
            }
        }
        let (rows, cols) = match (rows, cols) {
            (Some(r), Some(c)) => (r, c),
            _ => return Err(parse_err(1, "header must carry rows= and cols=".into())),
        };
        let mut map = FaultMap::empty(rows, cols);

        for (index, line) in lines {
            let lineno = index + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let number = |s: &str| -> Result<usize, TechError> {
                s.parse::<usize>()
                    .map_err(|_| parse_err(lineno, format!("`{s}` is not an index")))
            };
            match fields.as_slice() {
                ["cell", row, col, rest @ ..] => {
                    let (row, col) = (number(row)?, number(col)?);
                    if row >= rows || col >= cols {
                        return Err(parse_err(
                            lineno,
                            format!("cell ({row}, {col}) outside {rows}×{cols}"),
                        ));
                    }
                    let fault = match rest {
                        ["stuck-hrs"] => CellFault::StuckAtHrs,
                        ["stuck-lrs"] => CellFault::StuckAtLrs,
                        ["drift", factor] => {
                            let factor = factor.parse::<f64>().map_err(|_| {
                                parse_err(lineno, format!("`{factor}` is not a drift factor"))
                            })?;
                            if !(factor > 0.0 && factor.is_finite()) {
                                return Err(parse_err(
                                    lineno,
                                    format!("drift factor {factor} must be finite and positive"),
                                ));
                            }
                            CellFault::Drifted { factor }
                        }
                        _ => {
                            return Err(parse_err(lineno, format!("unknown cell fault: {line}")))
                        }
                    };
                    map.cells.insert((row, col), fault);
                }
                ["wordline", row, seg] => {
                    let (row, seg) = (number(row)?, number(seg)?);
                    if row >= rows || seg >= cols.max(1) {
                        return Err(parse_err(lineno, format!("wordline {row}@{seg} out of range")));
                    }
                    map.broken_wordlines.insert(row, seg);
                }
                ["bitline", col, seg] => {
                    let (col, seg) = (number(col)?, number(seg)?);
                    if col >= cols || seg == 0 || seg > rows {
                        return Err(parse_err(lineno, format!("bitline {col}@{seg} out of range")));
                    }
                    map.broken_bitlines.insert(col, seg);
                }
                _ => return Err(parse_err(lineno, format!("unknown directive: {line}"))),
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy_rates() -> FaultRates {
        FaultRates {
            stuck_at_hrs: 0.05,
            stuck_at_lrs: 0.05,
            drifted: 0.02,
            drift_decades: 1.0,
            broken_wordline: 0.2,
            broken_bitline: 0.2,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FaultMap::generate(32, 32, &heavy_rates(), 1234).unwrap();
        let b = FaultMap::generate(32, 32, &heavy_rates(), 1234).unwrap();
        assert_eq!(a, b);
        let c = FaultMap::generate(32, 32, &heavy_rates(), 1235).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn rates_scale_fault_counts() {
        let sparse = FaultMap::generate(64, 64, &FaultRates::stuck_at(0.01), 7).unwrap();
        let dense = FaultMap::generate(64, 64, &FaultRates::stuck_at(0.3), 7).unwrap();
        assert!(sparse.cell_fault_count() < dense.cell_fault_count());
        // 1 % of 4096 cells: expect on the order of 40, certainly < 120.
        assert!(sparse.cell_fault_count() < 120);
        assert!(dense.cell_fault_count() > 800);
    }

    #[test]
    fn zero_rates_make_clean_maps() {
        let map = FaultMap::generate(16, 16, &FaultRates::default(), 99).unwrap();
        assert_eq!(map, FaultMap::empty(16, 16));
        assert_eq!(map.defective_cell_fraction(), 0.0);
    }

    #[test]
    fn full_rate_kills_every_cell() {
        let map = FaultMap::generate(8, 8, &FaultRates::stuck_at(1.0), 3).unwrap();
        assert_eq!(map.cell_fault_count(), 64);
        assert_eq!(map.defective_cell_fraction(), 1.0);
    }

    #[test]
    fn invalid_rates_rejected() {
        let rates = FaultRates {
            stuck_at_hrs: 1.5,
            ..FaultRates::default()
        };
        assert!(rates.validate().is_err());

        let rates = FaultRates {
            stuck_at_hrs: 0.7,
            stuck_at_lrs: 0.7,
            ..FaultRates::default()
        };
        assert!(rates.validate().is_err(), "cell rates summing past 1 must fail");

        let rates = FaultRates {
            drift_decades: 9.0,
            ..FaultRates::default()
        };
        assert!(rates.validate().is_err());
    }

    #[test]
    fn text_roundtrip_is_identity() {
        let map = FaultMap::generate(16, 24, &heavy_rates(), 42).unwrap();
        assert_ne!(
            map,
            FaultMap::empty(16, 24),
            "seed must generate some defects"
        );
        let text = map.to_text();
        let parsed = FaultMap::from_text(&text).unwrap();
        assert_eq!(map, parsed);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(matches!(
            FaultMap::from_text(""),
            Err(TechError::FaultMapParse { line: 1, .. })
        ));
        assert!(FaultMap::from_text("faultmap v2 rows=2 cols=2").is_err());
        assert!(FaultMap::from_text("faultmap v1 rows=2").is_err());
        let bad_cell = "faultmap v1 rows=2 cols=2\ncell 5 0 stuck-hrs";
        assert!(matches!(
            FaultMap::from_text(bad_cell),
            Err(TechError::FaultMapParse { line: 2, .. })
        ));
        let bad_kind = "faultmap v1 rows=2 cols=2\ncell 0 0 melted";
        assert!(FaultMap::from_text(bad_kind).is_err());
        let bad_drift = "faultmap v1 rows=2 cols=2\ncell 0 0 drift -3.0";
        assert!(FaultMap::from_text(bad_drift).is_err());
    }

    #[test]
    fn parse_accepts_comments_and_blanks() {
        let text = "faultmap v1 rows=2 cols=2\n# a comment\n\ncell 1 1 stuck-lrs\n";
        let map = FaultMap::from_text(text).unwrap();
        assert_eq!(map.cells.len(), 1);
    }

    #[test]
    fn defective_rows_and_spare_remap() {
        let mut map = FaultMap::empty(4, 4);
        map.cells.insert((1, 2), CellFault::StuckAtHrs);
        map.cells.insert((1, 3), CellFault::StuckAtLrs);
        map.broken_wordlines.insert(3, 0);
        assert_eq!(map.defective_rows(), vec![1, 3]);
        map.clear_row(1);
        assert_eq!(map.defective_rows(), vec![3]);
        map.clear_row(3);
        assert_eq!(map, FaultMap::empty(4, 4));
    }

    #[test]
    fn broken_lines_count_as_dead_cells() {
        let mut map = FaultMap::empty(4, 4);
        // Word line 0 broken at segment 2: cells (0, 2) and (0, 3) dead.
        map.broken_wordlines.insert(0, 2);
        // Bit line 1 broken at segment 3: cells (0..3, 1) dead; (0,1) is new.
        map.broken_bitlines.insert(1, 3);
        let expected = (2 + 3) as f64 / 16.0;
        assert!((map.defective_cell_fraction() - expected).abs() < 1e-12);
    }
}
