//! Strongly typed physical quantities.
//!
//! Every quantity is a newtype over `f64` stored in SI base units
//! (ohms, farads, volts, amperes, watts, joules, seconds, square metres,
//! hertz, siemens). Constructors and accessors exist for the scales that are
//! idiomatic in the memristor-accelerator domain (kilo-ohms, nanoseconds,
//! square millimetres, femtofarads, …).
//!
//! Only physically meaningful arithmetic is implemented:
//!
//! * quantities of the same kind add and subtract;
//! * `Power × Time = Energy`, `Energy / Time = Power`;
//! * `Voltage × Current = Power`, `Voltage / Current = Resistance`,
//!   `Voltage / Resistance = Current`;
//! * every quantity scales by a dimensionless `f64`.
//!
//! # Examples
//!
//! ```
//! use mnsim_tech::units::{Power, Time};
//!
//! let p = Power::from_milliwatts(17.2);
//! let t = Time::from_nanoseconds(381.5);
//! let e = p * t;
//! assert!((e.microjoules() - 17.2e-3 * 381.5e-9 * 1e6).abs() < 1e-15);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal, $base:ident
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a value in SI base units.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in SI base units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the value in SI base units (alias of [`Self::value`],
            /// named after the unit for readability at call sites).
            #[inline]
            pub const fn $base(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// Electrical resistance in ohms (Ω).
    Resistance, "Ω", ohms
);
quantity!(
    /// Electrical conductance in siemens (S).
    Conductance, "S", siemens
);
quantity!(
    /// Capacitance in farads (F).
    Capacitance, "F", farads
);
quantity!(
    /// Electric potential in volts (V).
    Voltage, "V", volts
);
quantity!(
    /// Electric current in amperes (A).
    Current, "A", amperes
);
quantity!(
    /// Power in watts (W).
    Power, "W", watts
);
quantity!(
    /// Energy in joules (J).
    Energy, "J", joules
);
quantity!(
    /// Time (latency) in seconds (s).
    Time, "s", seconds
);
quantity!(
    /// Silicon area in square metres (m²).
    Area, "m²", square_meters
);
quantity!(
    /// Frequency in hertz (Hz).
    Frequency, "Hz", hertz
);

// ---- scale helpers -------------------------------------------------------

impl Resistance {
    /// Creates a resistance from ohms.
    #[inline]
    pub const fn from_ohms(ohms: f64) -> Self {
        Self(ohms)
    }
    /// Creates a resistance from kilo-ohms.
    #[inline]
    pub const fn from_kilo_ohms(kohms: f64) -> Self {
        Self(kohms * 1e3)
    }
    /// Creates a resistance from mega-ohms.
    #[inline]
    pub const fn from_mega_ohms(mohms: f64) -> Self {
        Self(mohms * 1e6)
    }
}

impl Capacitance {
    /// Creates a capacitance from farads.
    #[inline]
    pub const fn from_farads(f: f64) -> Self {
        Self(f)
    }
    /// Creates a capacitance from picofarads.
    #[inline]
    pub const fn from_picofarads(pf: f64) -> Self {
        Self(pf * 1e-12)
    }
    /// Creates a capacitance from femtofarads.
    #[inline]
    pub const fn from_femtofarads(ff: f64) -> Self {
        Self(ff * 1e-15)
    }
}

impl Voltage {
    /// Creates a voltage from volts.
    #[inline]
    pub const fn from_volts(v: f64) -> Self {
        Self(v)
    }
}

impl Current {
    /// Creates a current from amperes.
    #[inline]
    pub const fn from_amperes(a: f64) -> Self {
        Self(a)
    }
    /// Creates a current from microamperes.
    #[inline]
    pub const fn from_microamperes(ua: f64) -> Self {
        Self(ua * 1e-6)
    }
}

impl Power {
    /// Creates a power from watts.
    #[inline]
    pub const fn from_watts(w: f64) -> Self {
        Self(w)
    }
    /// Creates a power from milliwatts.
    #[inline]
    pub const fn from_milliwatts(mw: f64) -> Self {
        Self(mw * 1e-3)
    }
    /// Creates a power from microwatts.
    #[inline]
    pub const fn from_microwatts(uw: f64) -> Self {
        Self(uw * 1e-6)
    }
    /// Creates a power from nanowatts.
    #[inline]
    pub const fn from_nanowatts(nw: f64) -> Self {
        Self(nw * 1e-9)
    }
    /// The value in microwatts.
    #[inline]
    pub fn microwatts(self) -> f64 {
        self.0 / 1e-6
    }
}

impl Energy {
    /// Creates an energy from joules.
    #[inline]
    pub const fn from_joules(j: f64) -> Self {
        Self(j)
    }
    /// Creates an energy from picojoules.
    #[inline]
    pub const fn from_picojoules(pj: f64) -> Self {
        Self(pj * 1e-12)
    }
    /// The value in microjoules.
    #[inline]
    pub fn microjoules(self) -> f64 {
        self.0 / 1e-6
    }
    /// The value in millijoules.
    #[inline]
    pub fn millijoules(self) -> f64 {
        self.0 / 1e-3
    }
    /// The value in picojoules.
    #[inline]
    pub fn picojoules(self) -> f64 {
        self.0 / 1e-12
    }
}

impl Time {
    /// Creates a time from seconds.
    #[inline]
    pub const fn from_seconds(s: f64) -> Self {
        Self(s)
    }
    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_microseconds(us: f64) -> Self {
        Self(us * 1e-6)
    }
    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_nanoseconds(ns: f64) -> Self {
        Self(ns * 1e-9)
    }
    /// Creates a time from picoseconds.
    #[inline]
    pub(crate) const fn from_picoseconds(ps: f64) -> Self {
        Self(ps * 1e-12)
    }
    /// The value in nanoseconds.
    #[inline]
    pub fn nanoseconds(self) -> f64 {
        self.0 / 1e-9
    }
    /// The value in microseconds.
    #[inline]
    pub fn microseconds(self) -> f64 {
        self.0 / 1e-6
    }
}

impl Area {
    /// Creates an area from square metres.
    #[inline]
    pub(crate) const fn from_square_meters(m2: f64) -> Self {
        Self(m2)
    }
    /// Creates an area from square millimetres.
    #[inline]
    pub const fn from_square_millimeters(mm2: f64) -> Self {
        Self(mm2 * 1e-6)
    }
    /// Creates an area from square micrometres.
    #[inline]
    pub const fn from_square_micrometers(um2: f64) -> Self {
        Self(um2 * 1e-12)
    }
    /// The value in square millimetres.
    #[inline]
    pub fn square_millimeters(self) -> f64 {
        self.0 / 1e-6
    }
    /// The value in square micrometres.
    #[inline]
    pub fn square_micrometers(self) -> f64 {
        self.0 / 1e-12
    }
}

impl Frequency {
    /// Creates a frequency from megahertz.
    #[inline]
    pub(crate) const fn from_megahertz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }
    /// The period corresponding to this frequency.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the frequency is zero.
    #[inline]
    pub(crate) fn period(self) -> Time {
        debug_assert!(self.0 != 0.0, "zero frequency has no finite period");
        Time(1.0 / self.0)
    }
}

// ---- cross-quantity arithmetic -------------------------------------------

impl Mul<Time> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Time) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Mul<Power> for Time {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Power) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Div<Time> for Energy {
    type Output = Power;
    #[inline]
    fn div(self, rhs: Time) -> Power {
        Power(self.0 / rhs.0)
    }
}

impl Div<Power> for Energy {
    type Output = Time;
    #[inline]
    fn div(self, rhs: Power) -> Time {
        Time(self.0 / rhs.0)
    }
}

impl Mul<Current> for Voltage {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Current) -> Power {
        Power(self.0 * rhs.0)
    }
}

impl Mul<Voltage> for Current {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Voltage) -> Power {
        Power(self.0 * rhs.0)
    }
}

impl Div<Current> for Voltage {
    type Output = Resistance;
    #[inline]
    fn div(self, rhs: Current) -> Resistance {
        Resistance(self.0 / rhs.0)
    }
}

impl Div<Resistance> for Voltage {
    type Output = Current;
    #[inline]
    fn div(self, rhs: Resistance) -> Current {
        Current(self.0 / rhs.0)
    }
}

impl Mul<Resistance> for Current {
    type Output = Voltage;
    #[inline]
    fn mul(self, rhs: Resistance) -> Voltage {
        Voltage(self.0 * rhs.0)
    }
}

impl Mul<Conductance> for Voltage {
    type Output = Current;
    #[inline]
    fn mul(self, rhs: Conductance) -> Current {
        Current(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_same_kind() {
        let a = Resistance::from_ohms(100.0);
        let b = Resistance::from_kilo_ohms(1.0);
        assert_eq!((a + b).ohms(), 1100.0);
        assert_eq!((b - a).ohms(), 900.0);
    }

    #[test]
    fn power_time_energy_roundtrip() {
        let p = Power::from_milliwatts(10.0);
        let t = Time::from_nanoseconds(100.0);
        let e = p * t;
        assert!((e.picojoules() - 1000.0).abs() < 1e-9);
        let p2 = e / t;
        assert!((p2.watts() - 10e-3).abs() < 1e-15);
        let t2 = e / p;
        assert!((t2.nanoseconds() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn ohms_law() {
        let v = Voltage::from_volts(1.0);
        let r = Resistance::from_kilo_ohms(2.0);
        let i = v / r;
        assert!((i.amperes() - 500e-6).abs() < 1e-15);
        let p = v * i;
        assert!((p.microwatts() - 500.0).abs() < 1e-9);
        let v2 = i * r;
        assert!((v2.volts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dimensionless_ratio() {
        let a = Area::from_square_millimeters(10.0);
        let b = Area::from_square_millimeters(2.5);
        assert!((a / b - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_scaling_commutes() {
        let e = Energy::from_picojoules(3.0);
        assert_eq!((e * 2.0).picojoules(), (2.0 * e).picojoules());
        assert!(((e / 2.0).picojoules() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sum_iterator() {
        let total: Power = (1..=4).map(|i| Power::from_milliwatts(i as f64)).sum();
        assert!((total.watts() - 10e-3).abs() < 1e-15);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Resistance::from_ohms(5.0)), "5 Ω");
        assert_eq!(format!("{}", Time::from_seconds(1.0)), "1 s");
    }

    #[test]
    fn frequency_period() {
        let f = Frequency::from_megahertz(50.0);
        assert!((f.period().nanoseconds() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_abs() {
        let a = Time::from_nanoseconds(-3.0);
        assert_eq!(a.abs().nanoseconds(), 3.0);
        let b = Time::from_nanoseconds(5.0);
        assert_eq!(a.max(b).nanoseconds(), 5.0);
        assert_eq!(a.min(b).nanoseconds(), -3.0);
    }
}
