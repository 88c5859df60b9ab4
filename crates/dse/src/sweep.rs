//! Power sweeps over the synthesis flow: how the synthesized accelerator's
//! quality scales with the user's power constraint, and the least power
//! that synthesizes at all. Used by `examples/power_sweep.rs`.

use pimsyn_arch::Watts;
use pimsyn_model::Model;

use crate::error::DseError;
use crate::explore::{run_dse, DseConfig};

/// One sweep sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept power constraint.
    pub power: Watts,
    /// Achieved efficiency (TOPS/W); 0 when infeasible.
    pub efficiency: f64,
    /// Achieved throughput (effective ops/s); 0 when infeasible.
    pub throughput_ops: f64,
    /// Single-inference latency in seconds; infinity when infeasible.
    pub latency: f64,
    /// Whether a feasible accelerator exists at this power.
    pub feasible: bool,
}

/// Sweeps the total power constraint, re-running the full DSE flow at each
/// level (everything else taken from `base`).
///
/// Infeasible levels (below the single-copy floor) are reported with
/// `feasible = false` rather than failing the sweep, so callers can plot the
/// feasibility cliff the paper's Eq. (2)/(3) interplay creates.
///
/// Each level is a search of its own: its [`EvalCore`](crate::EvalCore)
/// scores under one fixed power constraint.
pub fn sweep_power(model: &Model, base: &DseConfig, powers: &[Watts]) -> Vec<SweepPoint> {
    powers
        .iter()
        .map(|&power| {
            let cfg = DseConfig {
                total_power: power,
                ..base.clone()
            };
            match run_dse(model, &cfg) {
                Ok(outcome) => SweepPoint {
                    power,
                    efficiency: outcome.report.efficiency_tops_per_watt(),
                    throughput_ops: outcome.report.throughput_ops,
                    latency: outcome.report.latency.value(),
                    feasible: true,
                },
                Err(_) => SweepPoint {
                    power,
                    efficiency: 0.0,
                    throughput_ops: 0.0,
                    latency: f64::INFINITY,
                    feasible: false,
                },
            }
        })
        .collect()
}

/// The minimum feasible power for `model` under `base`'s design space,
/// found by bisection over `lo..hi` (watts) to the given resolution.
///
/// # Errors
///
/// [`DseError::NoFeasibleSolution`] if even `hi` watts is infeasible.
pub fn minimum_feasible_power(
    model: &Model,
    base: &DseConfig,
    lo: f64,
    hi: f64,
    resolution: f64,
) -> Result<Watts, DseError> {
    let feasible = |w: f64| {
        run_dse(
            model,
            &DseConfig {
                total_power: Watts(w),
                ..base.clone()
            },
        )
        .is_ok()
    };
    if !feasible(hi) {
        return Err(DseError::NoFeasibleSolution);
    }
    let mut lo = lo.max(0.0);
    let mut hi = hi;
    while hi - lo > resolution.max(1e-6) {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Watts(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ea::EaConfig;
    use crate::explore::DseConfig;
    use crate::sa::SaConfig;
    use crate::space::DesignSpace;
    use pimsyn_arch::CrossbarConfig;
    use pimsyn_model::zoo;

    fn tiny_cfg() -> DseConfig {
        let mut cfg = DseConfig::fast(Watts(6.0));
        cfg.space = DesignSpace::single(0.3, CrossbarConfig::new(128, 2).unwrap(), 1);
        cfg.sa = SaConfig {
            candidates: 2,
            iterations: 100,
        };
        cfg.ea = EaConfig {
            population: 6,
            generations: 2,
            ..EaConfig::fast()
        };
        cfg
    }

    #[test]
    fn sweep_marks_infeasible_levels() {
        let model = zoo::alexnet_cifar(10);
        let points = sweep_power(&model, &tiny_cfg(), &[Watts(0.5), Watts(6.0), Watts(12.0)]);
        assert_eq!(points.len(), 3);
        assert!(!points[0].feasible, "0.5 W cannot hold one weight copy");
        assert!(points[1].feasible);
        assert!(points[2].feasible);
        // Throughput must not collapse as power grows.
        assert!(points[2].throughput_ops >= points[1].throughput_ops * 0.7);
    }

    #[test]
    fn minimum_power_is_bracketed() {
        let model = zoo::alexnet_cifar(10);
        let min = minimum_feasible_power(&model, &tiny_cfg(), 0.5, 12.0, 0.5).unwrap();
        // One copy needs ~1.15 W of crossbars at ratio 0.3 -> ~3.8 W floor.
        assert!(min.value() > 2.0, "min {min} too low");
        assert!(min.value() < 9.0, "min {min} too high");
    }

    #[test]
    fn impossible_range_errors() {
        let model = zoo::vgg16();
        let r = minimum_feasible_power(&model, &tiny_cfg(), 0.1, 1.0, 0.1);
        assert!(matches!(r, Err(DseError::NoFeasibleSolution)));
    }
}
