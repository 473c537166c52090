use crate::CamTechnology;
use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Cycle- and energy-relevant event counters of CAM work.
///
/// Both the executing arrays ([`CamArray`](crate::CamArray),
/// [`BitPlaneArray`](crate::BitPlaneArray)) and the compiler's closed-form cost
/// model count in this vocabulary; a compiler's counts are per CAM row.
/// The counters are raw event counts; [`CamStats::priced`] converts them into
/// per-class energy and time under a [`CamTechnology`], and
/// [`CamStats::energy_fj`] and [`CamStats::latency_ns`] are its totals.
///
/// # Example
///
/// ```
/// use cam::{CamStats, CamTechnology};
///
/// let mut stats = CamStats::default();
/// stats.search_cycles = 8;
/// stats.searched_bits = 8 * 3 * 256;
/// let tech = CamTechnology::default();
/// assert!(stats.energy_fj(&tech) > 0.0);
/// assert!(stats.latency_ns(&tech) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CamStats {
    /// Number of parallel search cycles issued.
    pub search_cycles: u64,
    /// Total key-bit comparisons performed (key bits × rows, summed over searches).
    pub searched_bits: u64,
    /// Number of parallel write cycles issued.
    pub write_cycles: u64,
    /// Total bits written (write bits × tagged rows, summed over writes).
    pub written_bits: u64,
    /// Total bits read out through the sense amplifiers (I/O, not compute).
    pub read_bits: u64,
    /// Number of read-out operations.
    pub read_ops: u64,
    /// Number of lockstep domain-wall shift steps (racetrack accesses).
    pub shifts: u64,
    /// Bits written while staging input data into the array (I/O, not compute).
    pub io_written_bits: u64,
}

/// The energy and time of a [`CamStats`] per operation class, as priced by
/// [`CamStats::priced`].
///
/// Shifts are counted in [`CamStats::shifts`] but priced in no class: they
/// overlap with the search/write pipeline when sequential domains are
/// processed, the execution model of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CamCost {
    /// Energy of the key-bit comparisons, in femtojoules.
    pub search_fj: f64,
    /// Energy of the compute writes, in femtojoules.
    pub write_fj: f64,
    /// Energy of staging input data into the array, in femtojoules.
    pub io_fj: f64,
    /// Energy of reading bits out through the sense amplifiers, in femtojoules.
    pub read_fj: f64,
    /// Controller energy of the search and write cycles, in femtojoules.
    pub controller_fj: f64,
    /// Time of the search cycles, in nanoseconds.
    pub search_ns: f64,
    /// Time of the write cycles, in nanoseconds.
    pub write_ns: f64,
    /// Time of the read-out operations, in nanoseconds.
    pub read_ns: f64,
}

impl CamStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of compute cycles (searches + writes).
    pub fn compute_cycles(&self) -> u64 {
        self.search_cycles + self.write_cycles
    }

    /// Prices these counters under `tech`, each bit counter taken `rows`
    /// times: a compiler's per-row counts over the rows they run on, or
    /// executed counters with `rows = 1`. Cycles and read-outs are parallel
    /// over the rows, so their classes do not scale with `rows`.
    ///
    /// This is the one place per-bit CAM energies are applied to counters.
    pub fn priced(&self, tech: &CamTechnology, rows: u64) -> CamCost {
        let rows = rows as f64;
        let per_bit = |bits: u64, energy_fj: f64| bits as f64 * rows * energy_fj;
        CamCost {
            search_fj: per_bit(self.searched_bits, tech.search_energy_per_bit_fj),
            write_fj: per_bit(self.written_bits, tech.write_energy_per_bit_fj),
            io_fj: per_bit(self.io_written_bits, tech.write_energy_per_bit_fj),
            read_fj: per_bit(self.read_bits, tech.read_energy_per_bit_fj),
            controller_fj: self.compute_cycles() as f64 * tech.controller_energy_per_cycle_fj,
            search_ns: self.search_cycles as f64 * tech.search_latency_ns,
            write_ns: self.write_cycles as f64 * tech.write_latency_ns,
            read_ns: self.read_ops as f64 * tech.read_latency_ns,
        }
    }

    /// Dynamic energy in femtojoules for these counters under `tech`: the
    /// sum of the energy classes of [`CamStats::priced`].
    pub fn energy_fj(&self, tech: &CamTechnology) -> f64 {
        let cost = self.priced(tech, 1);
        cost.search_fj + cost.write_fj + cost.io_fj + cost.read_fj + cost.controller_fj
    }

    /// Serial latency in nanoseconds for these counters under `tech`: the sum
    /// of the time classes of [`CamStats::priced`], which leave shifts out.
    pub fn latency_ns(&self, tech: &CamTechnology) -> f64 {
        let cost = self.priced(tech, 1);
        cost.search_ns + cost.write_ns + cost.read_ns
    }

    /// Returns `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        *self == CamStats::default()
    }
}

impl Add for CamStats {
    type Output = CamStats;

    fn add(self, rhs: CamStats) -> CamStats {
        CamStats {
            search_cycles: self.search_cycles + rhs.search_cycles,
            searched_bits: self.searched_bits + rhs.searched_bits,
            write_cycles: self.write_cycles + rhs.write_cycles,
            written_bits: self.written_bits + rhs.written_bits,
            read_bits: self.read_bits + rhs.read_bits,
            read_ops: self.read_ops + rhs.read_ops,
            shifts: self.shifts + rhs.shifts,
            io_written_bits: self.io_written_bits + rhs.io_written_bits,
        }
    }
}

impl AddAssign for CamStats {
    fn add_assign(&mut self, rhs: CamStats) {
        *self = *self + rhs;
    }
}

impl Sum for CamStats {
    fn sum<I: Iterator<Item = CamStats>>(iter: I) -> CamStats {
        iter.fold(CamStats::new(), Add::add)
    }
}

/// The sum of `rhs` copies of a counter set.
impl Mul<u64> for CamStats {
    type Output = CamStats;

    fn mul(self, rhs: u64) -> CamStats {
        CamStats {
            search_cycles: self.search_cycles * rhs,
            searched_bits: self.searched_bits * rhs,
            write_cycles: self.write_cycles * rhs,
            written_bits: self.written_bits * rhs,
            read_bits: self.read_bits * rhs,
            read_ops: self.read_ops * rhs,
            shifts: self.shifts * rhs,
            io_written_bits: self.io_written_bits * rhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty() {
        assert!(CamStats::new().is_empty());
    }

    #[test]
    fn energy_is_monotonic_in_counts() {
        let tech = CamTechnology::default();
        let mut small = CamStats::new();
        small.search_cycles = 1;
        small.searched_bits = 3 * 256;
        let mut big = small;
        big.search_cycles = 10;
        big.searched_bits = 30 * 256;
        assert!(big.energy_fj(&tech) > small.energy_fj(&tech));
    }

    #[test]
    fn latency_counts_cycles() {
        let tech = CamTechnology::default();
        let mut stats = CamStats::new();
        stats.search_cycles = 4;
        stats.write_cycles = 4;
        let expected = 4.0 * tech.search_latency_ns + 4.0 * tech.write_latency_ns;
        assert!((stats.latency_ns(&tech) - expected).abs() < 1e-12);
    }

    #[test]
    fn addition_accumulates() {
        let mut a = CamStats::new();
        a.search_cycles = 2;
        a.written_bits = 7;
        let mut b = CamStats::new();
        b.search_cycles = 3;
        b.shifts = 5;
        let c = a + b;
        assert_eq!(c.search_cycles, 5);
        assert_eq!(c.written_bits, 7);
        assert_eq!(c.shifts, 5);
        assert_eq!(c.compute_cycles(), 5);
        for (copies, sum) in [(0, CamStats::new()), (1, c), (3, c + c + c)] {
            assert_eq!(c * copies, sum);
            assert_eq!(
                std::iter::repeat_n(c, copies as usize).sum::<CamStats>(),
                sum
            );
        }
    }

    #[test]
    fn pricing_scales_bits_by_rows_and_leaves_shifts_out() {
        let tech = CamTechnology::default();
        let stats = CamStats {
            search_cycles: 3,
            searched_bits: 9,
            write_cycles: 4,
            written_bits: 5,
            read_bits: 6,
            read_ops: 2,
            shifts: 100,
            io_written_bits: 7,
        };
        let one = stats.priced(&tech, 1);
        let many = stats.priced(&tech, 10);
        for (one, many) in [
            (one.search_fj, many.search_fj),
            (one.write_fj, many.write_fj),
            (one.io_fj, many.io_fj),
            (one.read_fj, many.read_fj),
        ] {
            assert!(one > 0.0 && (many - 10.0 * one).abs() < 1e-9);
        }
        assert_eq!(one.controller_fj, many.controller_fj);
        assert_eq!((one.search_ns, one.read_ns), (many.search_ns, many.read_ns));
        let shiftless = CamStats { shifts: 0, ..stats };
        assert_eq!(shiftless.priced(&tech, 10), many);
        assert_eq!(
            stats.energy_fj(&tech),
            one.search_fj + one.write_fj + one.io_fj + one.read_fj + one.controller_fj
        );
        assert_eq!(
            stats.latency_ns(&tech),
            one.search_ns + one.write_ns + one.read_ns
        );
    }
}
