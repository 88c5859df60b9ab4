//! Network-on-chip model: macros are tiled on a 2-D mesh; activations and
//! partial sums travel as 32-bit flits (Table III).

use crate::params::HardwareParams;
use crate::units::Watts;

/// Mesh NoC connecting `macro_count` macros.
///
/// # Example
///
/// ```
/// use pimsyn_arch::{HardwareParams, NocConfig};
///
/// let hw = HardwareParams::date24();
/// let noc = NocConfig::for_macros(16, &hw);
/// assert_eq!(noc.mesh_dim(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    macro_count: usize,
    mesh_dim: usize,
    link_bytes_per_sec: f64,
    router_power: Watts,
}

impl NocConfig {
    /// Sizes a square mesh for the given number of macros.
    pub fn for_macros(macro_count: usize, hw: &HardwareParams) -> Self {
        let mesh_dim = (macro_count.max(1) as f64).sqrt().ceil() as usize;
        Self {
            macro_count: macro_count.max(1),
            mesh_dim: mesh_dim.max(1),
            link_bytes_per_sec: hw.noc_link_rate.value() * hw.noc_flit_bits as f64 / 8.0,
            router_power: hw.noc_router_power,
        }
    }

    /// Side length of the (square) mesh.
    pub fn mesh_dim(&self) -> usize {
        self.mesh_dim
    }

    /// Number of macros attached to the mesh.
    pub fn macro_count(&self) -> usize {
        self.macro_count
    }

    /// Average hop count between two uniformly random mesh nodes
    /// (2/3 x dim for a square mesh with XY routing).
    pub fn average_hops(&self) -> f64 {
        (2.0 * self.mesh_dim as f64 / 3.0).max(1.0)
    }

    /// Bytes per second a single mesh link sustains.
    pub fn link_bandwidth(&self) -> f64 {
        self.link_bytes_per_sec
    }

    /// Aggregate router power for the whole mesh (one router per macro,
    /// Table III's 42 mW per-macro figure).
    pub fn total_power(&self) -> Watts {
        self.router_power * self.macro_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc(n: usize) -> NocConfig {
        NocConfig::for_macros(n, &HardwareParams::date24())
    }

    #[test]
    fn mesh_dimension_is_ceil_sqrt() {
        assert_eq!(noc(1).mesh_dim(), 1);
        assert_eq!(noc(16).mesh_dim(), 4);
        assert_eq!(noc(17).mesh_dim(), 5);
    }

    #[test]
    fn power_scales_with_macros() {
        assert!((noc(10).total_power().milli() - 420.0).abs() < 1e-9);
    }

    #[test]
    fn zero_macros_is_clamped() {
        assert_eq!(noc(0).macro_count(), 1);
    }
}
