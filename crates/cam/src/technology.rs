use serde::{Deserialize, Serialize};

/// Timing and energy figures of merit of the RTM-based ternary CAM design.
///
/// Defaults follow the 45 nm 256×256 racetrack TCAM used as the baseline in the
/// paper (§V, after Gnawali et al., TNANO 2018): search delay below 200 ps, per-bit
/// search energy around 3 fJ. With these figures one search/write *pass* of the
/// associative processor takes 0.1 ns, so the 8-cycle in-place addition of one bit
/// costs 0.8 ns and the 10-cycle out-of-place variant 1.0 ns — the values quoted in
/// §V-C of the paper.
///
/// # Example
///
/// ```
/// use cam::CamTechnology;
///
/// let tech = CamTechnology::default();
/// assert!(tech.search_energy_per_bit_fj > 0.0);
/// assert!(tech.search_latency_ns <= 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CamTechnology {
    /// Latency of one parallel search cycle, in nanoseconds.
    pub search_latency_ns: f64,
    /// Energy of comparing one key bit against one row, in femtojoules.
    pub search_energy_per_bit_fj: f64,
    /// Latency of one parallel (tagged-row) write cycle, in nanoseconds.
    pub write_latency_ns: f64,
    /// Energy of writing one bit, in femtojoules.
    pub write_energy_per_bit_fj: f64,
    /// Energy of reading one bit through the sense amplifiers (data offload), in femtojoules.
    pub read_energy_per_bit_fj: f64,
    /// Latency of reading one word through the sense amplifiers, in nanoseconds.
    pub read_latency_ns: f64,
    /// Static/controller energy charged per search or write cycle, in femtojoules.
    /// Covers the precharge circuitry, instruction cache and controller.
    pub controller_energy_per_cycle_fj: f64,
}

impl Default for CamTechnology {
    fn default() -> Self {
        CamTechnology {
            search_latency_ns: 0.1,
            search_energy_per_bit_fj: 3.0,
            write_latency_ns: 0.1,
            write_energy_per_bit_fj: 3.5,
            read_energy_per_bit_fj: 1.0,
            read_latency_ns: 0.2,
            controller_energy_per_cycle_fj: 50.0,
        }
    }
}

impl CamTechnology {
    /// Creates the default 45 nm RTM-TCAM technology point.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latency in nanoseconds of one search cycle followed by one write cycle
    /// (a single associative-processor *pass*).
    pub fn pass_latency_ns(&self) -> f64 {
        self.search_latency_ns + self.write_latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_figures_of_merit() {
        let tech = CamTechnology::default();
        // Search delay under 200 ps and ~3 fJ/bit per the referenced TCAM design.
        assert!(tech.search_latency_ns <= 0.2);
        assert!((tech.search_energy_per_bit_fj - 3.0).abs() < f64::EPSILON);
        // 8 cycles of in-place addition per bit must take ~0.8 ns (paper §V-C).
        let in_place_bit_ns = 8.0 * tech.search_latency_ns.max(tech.write_latency_ns);
        assert!((in_place_bit_ns - 0.8).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_rows_and_bits() {
        let tech = CamTechnology::default();
        let search = |key_bits: u64, rows: u64| {
            let stats = crate::CamStats {
                search_cycles: 1,
                searched_bits: key_bits,
                ..crate::CamStats::new()
            };
            stats.priced(&tech, rows).search_fj
        };
        let small = search(3, 16);
        assert!(search(3, 256) > small);
        assert!(search(6, 16) > small);
    }

    #[test]
    fn pass_latency_is_search_plus_write() {
        let tech = CamTechnology::default();
        assert!(
            (tech.pass_latency_ns() - (tech.search_latency_ns + tech.write_latency_ns)).abs()
                < 1e-12
        );
    }

    #[test]
    fn serde_round_trip() {
        let tech = CamTechnology::default();
        let json = serde_json::to_string(&tech).expect("serialize");
        let back: CamTechnology = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(tech, back);
    }
}
