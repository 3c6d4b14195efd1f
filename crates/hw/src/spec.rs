//! The physical CPU the testbed models.

use serde::{Deserialize, Serialize};

/// Static description of a processor package (§IV-A's baseline system).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Number of sockets.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Hardware threads per core when SMT is enabled.
    pub smt_ways: u32,
    /// Minimum frequency in GHz.
    pub min_ghz: f64,
    /// Nominal (base) frequency in GHz.
    pub nominal_ghz: f64,
    /// Maximum single-core turbo frequency in GHz.
    pub turbo_ghz: f64,
}

impl CpuSpec {
    /// The paper's baseline: CloudLab c220g5, 2× Intel Xeon Silver 4114
    /// (Skylake), 10 cores/socket, 2-way SMT, 0.8 / 2.2 / 3.0 GHz.
    pub fn xeon_silver_4114() -> Self {
        CpuSpec {
            sockets: 2,
            cores_per_socket: 10,
            smt_ways: 2,
            min_ghz: 0.8,
            nominal_ghz: 2.2,
            turbo_ghz: 3.0,
        }
    }

    /// Total physical cores.
    pub fn physical_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Total logical CPUs given an SMT setting.
    pub fn logical_cpus(&self, smt_enabled: bool) -> u32 {
        if smt_enabled {
            self.physical_cores() * self.smt_ways
        } else {
            self.physical_cores()
        }
    }

    /// Logical CPUs on a single socket (services in the paper pin their
    /// workers to one socket).
    pub fn logical_cpus_per_socket(&self, smt_enabled: bool) -> u32 {
        self.logical_cpus(smt_enabled) / self.sockets
    }
}

impl Default for CpuSpec {
    fn default() -> Self {
        CpuSpec::xeon_silver_4114()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_papers_baseline() {
        let s = CpuSpec::xeon_silver_4114();
        // "20 physical cores and 40 hardware threads".
        assert_eq!(s.physical_cores(), 20);
        assert_eq!(s.logical_cpus(true), 40);
        assert_eq!(s.logical_cpus(false), 20);
        // "nominal frequency is 2.2GHz ... minimum 0.8 GHz ... Turbo 3 GHz".
        assert_eq!(s.nominal_ghz, 2.2);
        assert_eq!(s.min_ghz, 0.8);
        assert_eq!(s.turbo_ghz, 3.0);
        assert_eq!(s.logical_cpus_per_socket(true), 20);
        assert_eq!(s.logical_cpus_per_socket(false), 10);
    }
}
