use serde::{Deserialize, Serialize};

/// Timing and energy figures of merit for a racetrack-memory device.
///
/// The defaults follow the figures used in the paper's evaluation (§V): 64 domains
/// per nanowire (after Bläsing et al., *Magnetic racetrack memory*, JPROC 2020), and
/// shift/read/write costs in the range published for 45 nm domain-wall devices. All
/// values are plain `f64`s so that alternative technology points (e.g. skyrmion
/// devices) can be modelled by constructing a different [`RtmTechnology`].
///
/// # Example
///
/// ```
/// use rtm::RtmTechnology;
///
/// let tech = RtmTechnology { domains_per_track: 32, ..RtmTechnology::default() };
/// assert_eq!(tech.domains_per_track, 32);
/// assert!(tech.shift_latency_ns > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RtmTechnology {
    /// Number of storable bits (domains) per nanowire.
    pub domains_per_track: usize,
    /// Number of access ports per nanowire.
    pub access_ports: usize,
    /// Latency of shifting the domain walls by one position, in nanoseconds.
    pub shift_latency_ns: f64,
    /// Energy of shifting the domain walls by one position, in femtojoules.
    pub shift_energy_fj: f64,
    /// Latency of reading the domain aligned with a port, in nanoseconds.
    pub read_latency_ns: f64,
    /// Energy of reading the domain aligned with a port, in femtojoules.
    pub read_energy_fj: f64,
    /// Latency of writing the domain aligned with a port, in nanoseconds.
    pub write_latency_ns: f64,
    /// Energy of writing the domain aligned with a port, in femtojoules.
    pub write_energy_fj: f64,
    /// Number of write cycles the device endures before wear-out (RTM: ~1e16).
    pub endurance_cycles: f64,
}

impl Default for RtmTechnology {
    fn default() -> Self {
        RtmTechnology {
            domains_per_track: 64,
            access_ports: 1,
            shift_latency_ns: 0.5,
            shift_energy_fj: 0.2,
            read_latency_ns: 0.2,
            read_energy_fj: 0.1,
            write_latency_ns: 0.3,
            write_energy_fj: 0.3,
            endurance_cycles: 1.0e16,
        }
    }
}

impl RtmTechnology {
    /// Creates the default technology point (64-domain tracks, single port).
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimated device lifetime in years assuming `writes_per_second` uniform writes
    /// to the most-stressed location.
    ///
    /// Returns `f64::INFINITY` when `writes_per_second` is zero.
    pub fn lifetime_years(&self, writes_per_second: f64) -> f64 {
        if writes_per_second <= 0.0 {
            return f64::INFINITY;
        }
        const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;
        self.endurance_cycles / writes_per_second / SECONDS_PER_YEAR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_figures() {
        let tech = RtmTechnology::default();
        assert_eq!(tech.domains_per_track, 64);
        assert_eq!(tech.access_ports, 1);
        assert!((tech.endurance_cycles - 1.0e16).abs() < 1.0);
    }

    #[test]
    fn lifetime_matches_paper_order_of_magnitude() {
        // Paper §V-C: rewriting the same location every ~100 ns gives ~31 years.
        let tech = RtmTechnology::default();
        let writes_per_second = 1.0e9 / 100.0; // one write per 100 ns
        let years = tech.lifetime_years(writes_per_second);
        assert!(years > 25.0 && years < 40.0, "got {years}");
    }

    #[test]
    fn lifetime_with_no_writes_is_infinite() {
        let tech = RtmTechnology::default();
        assert!(tech.lifetime_years(0.0).is_infinite());
    }

    #[test]
    fn serde_round_trip() {
        let tech = RtmTechnology::default();
        let json = serde_json::to_string(&tech).expect("serialize");
        let back: RtmTechnology = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(tech, back);
    }
}
