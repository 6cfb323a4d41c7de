//! The common performance record every module model produces.
//!
//! MNSIM is a bottom-up simulator: the performance of a higher-level module
//! is the aggregation of its children (paper §IV.A). [`ModulePerf`] is the
//! unit of that aggregation — area, worst-case latency, dynamic energy per
//! operation, and leakage power.

use std::iter::Sum;
use std::ops::Add;

use mnsim_tech::units::{Area, Energy, Power, Time};

/// Area / latency / energy / leakage of one module (or aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModulePerf {
    /// Layout area.
    pub area: Area,
    /// Worst-case latency contribution on the critical path.
    pub latency: Time,
    /// Dynamic energy consumed per operation of the module.
    pub dynamic_energy: Energy,
    /// Static (leakage) power.
    pub leakage: Power,
}

impl ModulePerf {
    /// The all-zero record.
    pub const ZERO: ModulePerf = ModulePerf {
        area: Area::ZERO,
        latency: Time::ZERO,
        dynamic_energy: Energy::ZERO,
        leakage: Power::ZERO,
    };

    /// Creates a record from its four components.
    pub fn new(area: Area, latency: Time, dynamic_energy: Energy, leakage: Power) -> Self {
        ModulePerf {
            area,
            latency,
            dynamic_energy,
            leakage,
        }
    }

    /// `count` copies of this module operating **in parallel**: area,
    /// energy and leakage scale; latency is unchanged.
    pub(crate) fn replicate_parallel(&self, count: usize) -> ModulePerf {
        ModulePerf {
            area: self.area * count as f64,
            latency: self.latency,
            dynamic_energy: self.dynamic_energy * count as f64,
            leakage: self.leakage * count as f64,
        }
    }

    /// The module operated `count` times **sequentially**: latency and
    /// energy scale; area and leakage are unchanged.
    pub(crate) fn repeat_sequential(&self, count: usize) -> ModulePerf {
        ModulePerf {
            area: self.area,
            latency: self.latency * count as f64,
            dynamic_energy: self.dynamic_energy * count as f64,
            leakage: self.leakage,
        }
    }

    /// Aggregate of two modules on the same critical path (areas, energies,
    /// leakages and latencies all add).
    pub fn chain(&self, other: &ModulePerf) -> ModulePerf {
        ModulePerf {
            area: self.area + other.area,
            latency: self.latency + other.latency,
            dynamic_energy: self.dynamic_energy + other.dynamic_energy,
            leakage: self.leakage + other.leakage,
        }
    }
}

impl Add for ModulePerf {
    type Output = ModulePerf;
    /// `+` chains two modules on the same critical path (see [`Self::chain`]).
    fn add(self, rhs: ModulePerf) -> ModulePerf {
        self.chain(&rhs)
    }
}

/// Chains modules on one critical path, folded left to right from
/// [`ModulePerf::ZERO`].
///
/// Aggregations that may be computed on the [`crate::exec`] worker pool
/// must reduce in a canonical order for the result to be bit-identical at
/// every thread count; this fold pins that order to the iteration order of
/// the input.
impl Sum for ModulePerf {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ModulePerf::ZERO, |acc, p| acc.chain(&p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_tech::units::{Area, Energy, Power, Time};

    fn sample() -> ModulePerf {
        ModulePerf::new(
            Area::from_square_micrometers(100.0),
            Time::from_nanoseconds(10.0),
            Energy::from_picojoules(5.0),
            Power::from_microwatts(1.0),
        )
    }

    #[test]
    fn replicate_parallel_keeps_latency() {
        let p = sample().replicate_parallel(4);
        assert_eq!(p.area.square_micrometers(), 400.0);
        assert_eq!(p.latency.nanoseconds(), 10.0);
        assert_eq!(p.dynamic_energy.picojoules(), 20.0);
        assert_eq!(p.leakage.microwatts(), 4.0);
    }

    #[test]
    fn repeat_sequential_keeps_area() {
        let p = sample().repeat_sequential(3);
        assert_eq!(p.area.square_micrometers(), 100.0);
        assert!((p.latency.nanoseconds() - 30.0).abs() < 1e-9);
        assert!((p.dynamic_energy.picojoules() - 15.0).abs() < 1e-9);
        assert_eq!(p.leakage.microwatts(), 1.0);
    }

    #[test]
    fn chain_adds_latency() {
        let a = sample();
        let mut b = sample();
        b.latency = Time::from_nanoseconds(25.0);
        let chained = a.chain(&b);
        assert_eq!(chained.latency.nanoseconds(), 35.0);
        assert_eq!(chained.area.square_micrometers(), 200.0);
    }

    #[test]
    fn sum_and_add_agree() {
        let total: ModulePerf = vec![sample(), sample(), sample()].into_iter().sum();
        let manual = sample() + sample() + sample();
        assert_eq!(total, manual);
        assert!((total.latency.nanoseconds() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn sum_folds_left_to_right() {
        let a = sample();
        let mut b = sample();
        b.latency = Time::from_nanoseconds(25.0);
        let c = sample();
        assert_eq!(
            [a, b, c].into_iter().sum::<ModulePerf>(),
            a.chain(&b).chain(&c)
        );
        assert_eq!(std::iter::empty().sum::<ModulePerf>(), ModulePerf::ZERO);
    }
}
