//! The basic instruction set and its cost model (paper §III.D).
//!
//! An application-specific memristor accelerator needs only three
//! instructions: WRITE (program a cell), READ (memory-mode read-back) and
//! COMPUTE (one matrix-vector multiplication of a bank). MNSIM prices a
//! program by replaying it against the evaluated hierarchy; richer
//! instruction sets are a documented customization point.

use mnsim_tech::units::{Energy, Time};

use crate::error::CoreError;
use crate::simulate::Report;

/// One instruction of the basic set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Program one memristor cell of the given bank.
    Write {
        /// Target bank index.
        bank: usize,
    },
    /// Memory-mode read of one cell of the given bank.
    Read {
        /// Target bank index.
        bank: usize,
    },
    /// One matrix-vector multiplication cycle of the given bank (all its
    /// units fire).
    Compute {
        /// Target bank index.
        bank: usize,
    },
}

impl Instruction {
    /// The bank the instruction addresses.
    pub fn bank(&self) -> usize {
        match *self {
            Instruction::Write { bank }
            | Instruction::Read { bank }
            | Instruction::Compute { bank } => bank,
        }
    }
}

/// A straight-line program of basic instructions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Appends one instruction.
    pub fn push(&mut self, instruction: Instruction) -> &mut Self {
        self.instructions.push(instruction);
        self
    }

    /// The instructions in order.
    pub(crate) fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

/// The replay cost of a program.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProgramCost {
    /// Total (sequential) execution time.
    pub latency: Time,
    /// Total dynamic energy.
    pub energy: Energy,
}

/// Prices a program against the evaluated hierarchy of `report`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if an instruction addresses a bank
/// the network does not have.
pub fn execute(report: &Report, program: &Program) -> Result<ProgramCost, CoreError> {
    let banks = &report.accelerator.banks;
    let mut latency = Time::ZERO;
    let mut energy = Energy::ZERO;
    for instruction in program.instructions() {
        let bank = banks
            .get(instruction.bank())
            .ok_or(CoreError::InvalidConfig {
                parameter: "Program",
                reason: format!(
                    "instruction addresses bank {} but the network has {}",
                    instruction.bank(),
                    banks.len()
                ),
            })?;
        match instruction {
            Instruction::Write { .. } => {
                latency += bank.unit.write_access.latency;
                energy += bank.unit.write_access.dynamic_energy;
            }
            Instruction::Read { .. } => {
                latency += bank.unit.read_access.latency;
                energy += bank.unit.read_access.dynamic_energy;
            }
            Instruction::Compute { .. } => {
                latency += bank.cycle.latency;
                energy += bank.cycle.dynamic_energy;
            }
        }
    }
    Ok(ProgramCost { latency, energy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::simulate::simulate;

    fn config() -> Config {
        Config::fully_connected_mlp(&[64, 32]).unwrap()
    }

    /// `count` copies of `instruction`.
    fn repeated(instruction: Instruction, count: usize) -> Program {
        let mut program = Program::new();
        for _ in 0..count {
            program.push(instruction);
        }
        program
    }

    #[test]
    fn compute_costs_more_than_read() {
        let c = config();
        let report = simulate(&c).unwrap();
        let mut reads = Program::new();
        reads.push(Instruction::Read { bank: 0 });
        let mut computes = Program::new();
        computes.push(Instruction::Compute { bank: 0 });
        let read_cost = execute(&report, &reads).unwrap();
        let compute_cost = execute(&report, &computes).unwrap();
        assert!(compute_cost.energy.joules() > read_cost.energy.joules());
    }

    #[test]
    fn writing_dominates_loading_phase() {
        // Loading a 64×32 network cell by cell takes far longer than one
        // inference — the paper's motivation for fixed weights.
        let c = config();
        let report = simulate(&c).unwrap();
        let load = execute(&report, &repeated(Instruction::Write { bank: 0 }, 64 * 32)).unwrap();
        let infer = execute(&report, &repeated(Instruction::Compute { bank: 0 }, 1)).unwrap();
        assert!(load.latency.seconds() > 100.0 * infer.latency.seconds());
    }

    #[test]
    fn unknown_bank_rejected() {
        let c = config();
        let report = simulate(&c).unwrap();
        let mut p = Program::new();
        p.push(Instruction::Compute { bank: 7 });
        assert!(execute(&report, &p).is_err());
    }

    #[test]
    fn cost_is_additive() {
        let c = config();
        let report = simulate(&c).unwrap();
        let one = execute(&report, &repeated(Instruction::Compute { bank: 0 }, 1)).unwrap();
        let five = execute(&report, &repeated(Instruction::Compute { bank: 0 }, 5)).unwrap();
        assert!((five.latency.seconds() - 5.0 * one.latency.seconds()).abs() < 1e-15);
        assert!((five.energy.joules() - 5.0 * one.energy.joules()).abs() < 1e-15);
    }
}
