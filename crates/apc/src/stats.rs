use cam::CamStats;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul};

/// Aggregated compilation statistics of one layer (or of a whole network when
/// summed), feeding both Table II (`#Adds/Subs`, `#Arrays`) and the accelerator-level
/// energy/latency model.
///
/// The modeled cost is per slice-execution and per CAM row: the
/// [`CamStats`] of every (channel, output-tile) slice program of the layer,
/// costed by [`ap::CostModel`] on one row, in two disjoint halves. The
/// accelerator model prices them over the layer's active rows with
/// [`CamStats::priced`] and divides their cycles over the channel groups
/// that run in parallel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Add/sub operations that construct output values (the paper's `#Adds/Subs`).
    pub counted_adds_subs: u64,
    /// Additional in-place accumulations of finished values into the persistent
    /// output columns (one per non-zero output per channel).
    pub accumulate_ops: u64,
    /// Arithmetic instructions executed in place (8 cycles/bit).
    pub in_place: u64,
    /// Arithmetic instructions executed out of place (10 cycles/bit).
    pub out_of_place: u64,
    /// Shared subexpressions introduced by CSE.
    pub cse_signals: u64,
    /// Add/sub count of the same layer *without* CSE (the `unroll` configuration).
    pub baseline_adds_subs: u64,
    /// Non-zero ternary weights of the layer.
    pub nonzero_weights: u64,
    /// Slices that had to fall back to the un-CSE'd form because their temporaries
    /// exceeded the column budget.
    pub cse_fallbacks: u64,
    /// Compute cycles summed over every slice program (all channels, all output
    /// tiles) including tile prologues: the compute cycles of
    /// [`CompileStats::dfg`] and [`CompileStats::accumulation`] together.
    pub total_cycles: u64,
    /// Per-row cost of the channel-wise DFG phase: every instruction that does
    /// not write an accumulator column, the tile prologues, and the staging of
    /// the patch inputs (`io_written_bits`).
    pub dfg: CamStats,
    /// Per-row cost of accumulating finished values into the persistent output
    /// columns (the local part of the accumulation phase).
    pub accumulation: CamStats,
    /// Largest number of temporary columns needed by any slice.
    pub max_temp_columns: u64,
    /// Number of compiled slice programs.
    pub slices: u64,
}

impl CompileStats {
    /// Creates a zeroed statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total arithmetic instructions (constructive ops plus accumulations).
    pub fn arithmetic_ops(&self) -> u64 {
        self.counted_adds_subs + self.accumulate_ops
    }

    /// Fractional reduction in add/sub operations achieved by CSE relative to the
    /// `unroll` baseline (0.0 when the baseline is empty).
    pub fn cse_reduction(&self) -> f64 {
        if self.baseline_adds_subs == 0 {
            0.0
        } else {
            1.0 - self.counted_adds_subs as f64 / self.baseline_adds_subs as f64
        }
    }

    /// Fraction of arithmetic instructions executed in place.
    pub fn in_place_fraction(&self) -> f64 {
        let total = self.in_place + self.out_of_place;
        if total == 0 {
            0.0
        } else {
            self.in_place as f64 / total as f64
        }
    }
}

impl Add for CompileStats {
    type Output = CompileStats;

    fn add(self, rhs: CompileStats) -> CompileStats {
        CompileStats {
            counted_adds_subs: self.counted_adds_subs + rhs.counted_adds_subs,
            accumulate_ops: self.accumulate_ops + rhs.accumulate_ops,
            in_place: self.in_place + rhs.in_place,
            out_of_place: self.out_of_place + rhs.out_of_place,
            cse_signals: self.cse_signals + rhs.cse_signals,
            baseline_adds_subs: self.baseline_adds_subs + rhs.baseline_adds_subs,
            nonzero_weights: self.nonzero_weights + rhs.nonzero_weights,
            cse_fallbacks: self.cse_fallbacks + rhs.cse_fallbacks,
            total_cycles: self.total_cycles + rhs.total_cycles,
            dfg: self.dfg + rhs.dfg,
            accumulation: self.accumulation + rhs.accumulation,
            max_temp_columns: self.max_temp_columns.max(rhs.max_temp_columns),
            slices: self.slices + rhs.slices,
        }
    }
}

impl AddAssign for CompileStats {
    fn add_assign(&mut self, rhs: CompileStats) {
        *self = *self + rhs;
    }
}

/// The sum of `rhs` copies of a record: every count scaled, the
/// temporary-column high-water mark kept (or zero for no copies).
impl Mul<u64> for CompileStats {
    type Output = CompileStats;

    fn mul(self, rhs: u64) -> CompileStats {
        CompileStats {
            counted_adds_subs: self.counted_adds_subs * rhs,
            accumulate_ops: self.accumulate_ops * rhs,
            in_place: self.in_place * rhs,
            out_of_place: self.out_of_place * rhs,
            cse_signals: self.cse_signals * rhs,
            baseline_adds_subs: self.baseline_adds_subs * rhs,
            nonzero_weights: self.nonzero_weights * rhs,
            cse_fallbacks: self.cse_fallbacks * rhs,
            total_cycles: self.total_cycles * rhs,
            dfg: self.dfg * rhs,
            accumulation: self.accumulation * rhs,
            max_temp_columns: if rhs == 0 { 0 } else { self.max_temp_columns },
            slices: self.slices * rhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_and_fractions() {
        let stats = CompileStats {
            counted_adds_subs: 700,
            baseline_adds_subs: 1000,
            in_place: 90,
            out_of_place: 10,
            ..CompileStats::default()
        };
        assert!((stats.cse_reduction() - 0.3).abs() < 1e-9);
        assert!((stats.in_place_fraction() - 0.9).abs() < 1e-9);
        assert_eq!(CompileStats::new().cse_reduction(), 0.0);
        assert_eq!(CompileStats::new().in_place_fraction(), 0.0);
    }

    #[test]
    fn addition_accumulates_and_maxes() {
        let a = CompileStats {
            counted_adds_subs: 10,
            max_temp_columns: 7,
            slices: 1,
            ..Default::default()
        };
        let b = CompileStats {
            counted_adds_subs: 5,
            max_temp_columns: 3,
            slices: 2,
            ..Default::default()
        };
        let mut c = a;
        c += b;
        assert_eq!(c.counted_adds_subs, 15);
        assert_eq!(c.max_temp_columns, 7);
        assert_eq!(c.slices, 3);
        assert_eq!(c.arithmetic_ops(), 15);
        for (copies, sum) in [(0, CompileStats::default()), (1, c), (3, c + c + c)] {
            assert_eq!(c * copies, sum);
        }
    }
}
