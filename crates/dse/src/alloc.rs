//! Components allocation (Sec. IV-D): map IRs to peripheral hardware by
//! distributing the non-ReRAM power among ADC banks and vector ALUs.
//!
//! Eq. (5) asks for the allocation minimizing the largest per-component delay
//! under the power limit; Eq. (6) gives the closed-form water-filling
//! solution: every component's unit count is proportional to its workload
//! over frequency, scaled so that the budget is met exactly. Integers are
//! recovered by flooring and re-spending the remainder on whichever
//! component bounds the pipeline.

use pimsyn_arch::{
    AdcConfig, Architecture, ComponentCounts, ComponentKind, HardwareParams, LayerHardware,
    MacroMode, Watts,
};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;

use crate::error::DseError;
use crate::space::DesignPoint;

/// Everything the allocation stage needs about one candidate design.
#[derive(Debug, Clone, Copy)]
pub struct AllocRequest<'a> {
    /// The CNN being synthesized.
    pub model: &'a Model,
    /// Its compiled dataflow (fixes workloads per IR class).
    pub dataflow: &'a Dataflow,
    /// Outer design point (`RatioRram`, crossbar config).
    pub point: DesignPoint,
    /// The user's total power constraint.
    pub total_power: Watts,
    /// Device constants.
    pub hw: &'a HardwareParams,
    /// `MacAlloc`: macros per layer.
    pub macros: &'a [usize],
    /// Macro sharing: `shares[i] = Some(j)` puts layer `i` on layer `j`'s
    /// macros.
    pub shares: &'a [Option<usize>],
    /// Identical vs specialized macros.
    pub macro_mode: MacroMode,
}

/// Per-layer workload of each allocatable component family, per image.
fn workload(df: &Dataflow, layer: usize, kind: ComponentKind) -> f64 {
    let p = df.program(layer);
    match kind {
        ComponentKind::Adc => p.total_adc_samples() as f64,
        ComponentKind::ShiftAdd => p.total_steps() as f64 * p.shift_add_ops as f64,
        ComponentKind::Pool => p.blocks as f64 * p.pool_ops as f64,
        ComponentKind::Activation => p.blocks as f64 * p.act_ops as f64,
        ComponentKind::Eltwise => p.blocks as f64 * p.eltwise_ops as f64,
    }
}

/// Physical macro count implied by a sharing assignment (shared sets counted
/// once, at the larger of the partners' sizes).
pub fn physical_macros(macros: &[usize], shares: &[Option<usize>]) -> usize {
    let mut total = 0usize;
    for (i, &m) in macros.iter().enumerate() {
        if shares[i].is_none() {
            // Group size is the max over this root and its sharers.
            let group_max = shares.iter().enumerate().fold(m, |acc, (k, &s)| {
                if s == Some(i) {
                    acc.max(macros[k])
                } else {
                    acc
                }
            });
            total += group_max;
        }
    }
    total
}

/// One allocatable `(layer, component family)` with workload, with its
/// precomputed unit power and rate. Kept in layer-major, [`ComponentKind::ALL`]
/// order so [`AllocPlan::solve`] replays the exact float sequence of the
/// historical single-pass allocator.
#[derive(Debug, Clone, Copy)]
struct AllocItem {
    layer: usize,
    kind: ComponentKind,
    /// Per-image workload `W_ic`.
    w: f64,
    /// Unit power `P_c`, watts.
    p: f64,
    /// Unit rate `F_c`, per second.
    f: f64,
}

/// The gene-independent half of components allocation for one `(model,
/// dataflow, design point, power budget)` combination.
///
/// The water-filling solution of Eq. (6) depends on the `MacAlloc` gene
/// only through the physical macro count (which scales the fixed
/// infrastructure power): everything else — ADC resolutions, workloads,
/// unit powers/rates, the Eq. (6) denominator — is shared across every
/// candidate of an EA generation. Preparing a plan once and calling
/// [`AllocPlan::solve`] per candidate (plus `homogenize` under
/// [`MacroMode::Identical`]) is therefore equivalent to (and bit-identical
/// with) running [`allocate_components`] from scratch, which is exactly how
/// the delta evaluator amortizes allocation cost.
#[derive(Debug, Clone)]
pub struct AllocPlan {
    /// Layer count.
    l: usize,
    /// Per-layer ADC configuration (minimum lossless; worst-case everywhere
    /// in identical mode).
    adcs: Vec<AdcConfig>,
    items: Vec<AllocItem>,
    /// `budget * (1 - RatioRram)` — the peripheral share before fixed costs.
    budget_base: Watts,
    /// Fixed DAC power (every crossbar row).
    dac_power: Watts,
    /// Fixed per-macro infrastructure power.
    per_macro: Watts,
    /// Eq. (6) denominator `sum_ic (P_c W_ic / F_c)`.
    denom: f64,
}

impl AllocPlan {
    /// Precomputes the gene-independent allocation state.
    pub fn prepare(
        model: &Model,
        df: &Dataflow,
        point: DesignPoint,
        total_power: Watts,
        hw: &HardwareParams,
        macro_mode: MacroMode,
    ) -> Self {
        let l = df.programs().len();
        let xb = point.crossbar;
        let dac = df.dac();

        // Per-layer minimum lossless ADC resolution (Sec. III).
        let mut adcs: Vec<AdcConfig> = model
            .weight_layers()
            .map(|wl| {
                let rows = wl.filter_rows().min(xb.size());
                AdcConfig::minimum_lossless(rows, xb.cell_bits(), dac.bits(), hw)
            })
            .collect();
        if macro_mode == MacroMode::Identical {
            // Identical macros must carry the worst-case converter.
            let max_bits = adcs
                .iter()
                .map(AdcConfig::bits)
                .max()
                .unwrap_or(hw.adc_min_bits);
            adcs = vec![AdcConfig::new(max_bits, hw); l];
        }

        // Fixed (non-allocatable) power: DACs on every crossbar row plus the
        // per-macro infrastructure.
        let n_crossbars = df.total_crossbars();
        let dac_power = dac.power(hw) * (n_crossbars * xb.size()) as f64;
        let per_macro = hw.scratchpad_power + hw.noc_router_power + hw.register_power;

        // Eq. (6): D = sum_ic (P_c W_ic / F_c) / budget; n_ic = W_ic / (F_c D).
        let mut items = Vec::new();
        let mut denom = 0.0f64;
        for (i, &adc) in adcs.iter().enumerate() {
            for kind in ComponentKind::ALL {
                let w = workload(df, i, kind);
                if w > 0.0 {
                    let p = kind.unit_power(adc, hw).value();
                    let f = kind.unit_rate(adc, hw).value();
                    denom += p * w / f;
                    items.push(AllocItem {
                        layer: i,
                        kind,
                        w,
                        p,
                        f,
                    });
                }
            }
        }

        AllocPlan {
            l,
            adcs,
            items,
            budget_base: total_power * (1.0 - point.ratio_rram),
            dac_power,
            per_macro,
            denom,
        }
    }

    /// Per-layer ADC configurations of the plan.
    pub fn adcs(&self) -> &[AdcConfig] {
        &self.adcs
    }

    /// The peripheral power left for allocatable components once `n_macros`
    /// physical macros' fixed infrastructure is paid for. May be negative —
    /// [`AllocPlan::solve`] turns that into [`DseError::NoPeripheralPower`].
    pub fn periph_budget(&self, n_macros: usize) -> Watts {
        let fixed = self.dac_power + self.per_macro * n_macros as f64;
        self.budget_base - fixed
    }

    /// Solves Eq. (6) for a candidate with `n_macros` physical macros,
    /// returning per-layer component counts. Bit-identical to the
    /// corresponding slice of [`allocate_components`].
    ///
    /// # Errors
    ///
    /// [`DseError::NoPeripheralPower`] when fixed infrastructure already
    /// exceeds the peripheral budget (or nothing is allocatable).
    pub fn solve(&self, n_macros: usize) -> Result<Vec<ComponentCounts>, DseError> {
        let periph_budget = self.periph_budget(n_macros);
        if periph_budget.value() <= 0.0 {
            return Err(DseError::NoPeripheralPower {
                remaining: periph_budget.value(),
            });
        }
        if self.denom <= 0.0 {
            return Err(DseError::NoPeripheralPower {
                remaining: periph_budget.value(),
            });
        }
        let delay = self.denom / periph_budget.value();

        let mut counts = vec![ComponentCounts::default(); self.l];
        let mut spent = 0.0f64;
        for it in &self.items {
            let ideal = it.w / (it.f * delay);
            let n = (ideal.floor() as usize).max(1);
            *counts[it.layer].count_mut(it.kind) = n;
            spent += it.p * n as f64;
        }

        // Spend the rounding remainder on the current bottleneck, in bulk.
        let mut remaining = periph_budget.value() - spent;
        for _ in 0..(4 * self.l * ComponentKind::ALL.len()) {
            // Find the (layer, kind) with the largest per-image delay.
            let mut worst: Option<(usize, f64)> = None;
            for (idx, it) in self.items.iter().enumerate() {
                let n = counts[it.layer].count(it.kind) as f64;
                let d = it.w / (it.f * n);
                if worst.is_none_or(|(_, wd)| d > wd) {
                    worst = Some((idx, d));
                }
            }
            let Some((idx, _)) = worst else { break };
            let it = self.items[idx];
            if it.p > remaining {
                break;
            }
            // Add enough units to bring this component near the runner-up
            // delay, bounded by the power still available.
            let n = counts[it.layer].count(it.kind);
            let affordable = (remaining / it.p).floor() as usize;
            let boost = (n / 4).clamp(1, affordable.max(1));
            *counts[it.layer].count_mut(it.kind) = n + boost;
            remaining -= it.p * boost as f64;
        }

        Ok(counts)
    }
}

/// Runs components allocation and assembles the full [`Architecture`].
///
/// # Errors
///
/// - [`DseError::NoPeripheralPower`] when fixed infrastructure (scratchpads,
///   NoC routers, registers, DACs) already exceeds the `(1 - RatioRram)`
///   share of the budget.
/// - Propagated architecture errors.
pub fn allocate_components(req: &AllocRequest<'_>) -> Result<Architecture, DseError> {
    let hw = req.hw;
    let df = req.dataflow;
    let plan = AllocPlan::prepare(
        req.model,
        df,
        req.point,
        req.total_power,
        hw,
        req.macro_mode,
    );
    let n_macros = physical_macros(req.macros, req.shares);
    let mut counts = plan.solve(n_macros)?;

    if req.macro_mode == MacroMode::Identical {
        homogenize(
            &mut counts,
            req.macros,
            n_macros,
            &plan.adcs,
            hw,
            plan.periph_budget(n_macros),
            df,
        );
    }

    let layers: Vec<LayerHardware> = df
        .programs()
        .iter()
        .enumerate()
        .map(|(i, p)| LayerHardware {
            layer: i,
            name: p.name.clone(),
            wt_dup: p.wt_dup,
            crossbar_set: p.crossbar_set,
            macros: req.macros[i],
            shares_macros_with: req.shares[i],
            adc: plan.adcs[i],
            components: counts[i],
        })
        .collect();

    Ok(Architecture {
        model_name: req.model.name().to_string(),
        crossbar: req.point.crossbar,
        dac: df.dac(),
        ratio_rram: req.point.ratio_rram,
        power_budget: req.total_power,
        macro_mode: req.macro_mode,
        layers,
        hw: hw.clone(),
    })
}

/// Identical-macro post-pass: every macro carries the same component counts,
/// so per-macro counts are the ceiling of the most demanding layer, and the
/// whole chip is scaled down uniformly if that exceeds the power budget.
/// Delta sessions run it on their own copy of the solved counts.
pub(crate) fn homogenize(
    counts: &mut [ComponentCounts],
    macros: &[usize],
    n_macros: usize,
    adcs: &[AdcConfig],
    hw: &HardwareParams,
    budget: Watts,
    df: &Dataflow,
) {
    let adc = adcs[0]; // identical mode uses one ADC resolution everywhere
    let mut per_macro = ComponentCounts::default();
    for (i, c) in counts.iter().enumerate() {
        for kind in ComponentKind::ALL {
            let demand = c.count(kind).div_ceil(macros[i].max(1));
            let cur = per_macro.count_mut(kind);
            *cur = (*cur).max(demand);
        }
    }
    // Uniform shrink until the homogeneous chip fits the budget.
    loop {
        let total_power: f64 = ComponentKind::ALL
            .iter()
            .map(|&k| k.unit_power(adc, hw).value() * (per_macro.count(k) * n_macros) as f64)
            .sum();
        if total_power <= budget.value() || per_macro.total_units() <= ComponentKind::ALL.len() {
            break;
        }
        for kind in ComponentKind::ALL {
            let c = per_macro.count_mut(kind);
            if *c > 1 {
                *c = (*c * 4) / 5;
            }
        }
    }
    for (i, c) in counts.iter_mut().enumerate() {
        for kind in ComponentKind::ALL {
            let needed = workload(df, i, kind) > 0.0;
            *c.count_mut(kind) = if needed {
                (per_macro.count(kind) * macros[i]).max(1)
            } else {
                0
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_arch::{CrossbarConfig, DacConfig};
    use pimsyn_model::zoo;

    fn request_parts(total_power: f64) -> (Model, Dataflow, DesignPoint, Watts, HardwareParams) {
        let model = zoo::alexnet_cifar(10);
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(1).unwrap();
        let dup = vec![1; model.weight_layer_count()];
        let df = Dataflow::compile(&model, xb, dac, &dup).unwrap();
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        (
            model,
            df,
            point,
            Watts(total_power),
            HardwareParams::date24(),
        )
    }

    #[test]
    fn allocation_fits_budget_and_covers_workloads() {
        let (model, df, point, power, hw) = request_parts(9.0);
        let l = model.weight_layer_count();
        let macros = vec![1usize; l];
        let shares = vec![None; l];
        let req = AllocRequest {
            model: &model,
            dataflow: &df,
            point,
            total_power: power,
            hw: &hw,
            macros: &macros,
            shares: &shares,
            macro_mode: MacroMode::Specialized,
        };
        let arch = allocate_components(&req).unwrap();
        // Every layer with ADC workload has converters; ALU classes with no
        // workload stay empty.
        for (i, lh) in arch.layers.iter().enumerate() {
            assert!(lh.components.adc >= 1, "layer {i} has no ADC");
            assert!(lh.components.shift_add >= 1);
            if df.program(i).pool_ops == 0 {
                assert_eq!(lh.components.pool, 0);
            }
        }
        // Realized power must respect the user constraint (5% rounding slack).
        let realized = arch.power_breakdown().total();
        assert!(
            realized.value() <= power.value() * 1.05,
            "realized {realized} exceeds budget {power}"
        );
        arch.validate(&model).unwrap();
    }

    #[test]
    fn adc_gets_lions_share_of_power() {
        let (model, df, point, power, hw) = request_parts(9.0);
        let l = model.weight_layer_count();
        let macros = vec![1usize; l];
        let shares = vec![None; l];
        let req = AllocRequest {
            model: &model,
            dataflow: &df,
            point,
            total_power: power,
            hw: &hw,
            macros: &macros,
            shares: &shares,
            macro_mode: MacroMode::Specialized,
        };
        let arch = allocate_components(&req).unwrap();
        let pb = arch.power_breakdown();
        assert!(
            pb.adc > pb.alu,
            "ADC power {} should dominate ALU {}",
            pb.adc,
            pb.alu
        );
    }

    #[test]
    fn tiny_budget_is_rejected() {
        let (model, df, point, _, hw) = request_parts(9.0);
        let l = model.weight_layer_count();
        let macros = vec![4usize; l];
        let shares = vec![None; l];
        let req = AllocRequest {
            model: &model,
            dataflow: &df,
            point,
            total_power: Watts(0.2), // cannot even pay for 32 macros
            hw: &hw,
            macros: &macros,
            shares: &shares,
            macro_mode: MacroMode::Specialized,
        };
        assert!(matches!(
            allocate_components(&req),
            Err(DseError::NoPeripheralPower { .. })
        ));
    }

    #[test]
    fn identical_mode_homogenizes_counts() {
        let (model, df, point, power, hw) = request_parts(9.0);
        let l = model.weight_layer_count();
        let macros = vec![1usize; l];
        let shares = vec![None; l];
        let base = AllocRequest {
            model: &model,
            dataflow: &df,
            point,
            total_power: power,
            hw: &hw,
            macros: &macros,
            shares: &shares,
            macro_mode: MacroMode::Identical,
        };
        let arch = allocate_components(&base).unwrap();
        // All single-macro layers carry the same ADC count and resolution.
        let first = &arch.layers[0];
        for lh in &arch.layers {
            assert_eq!(lh.components.adc, first.components.adc);
            assert_eq!(lh.adc.bits(), first.adc.bits());
        }
    }

    #[test]
    fn physical_macros_counts_groups_once() {
        let macros = [2usize, 3, 4];
        assert_eq!(physical_macros(&macros, &[None, None, None]), 9);
        // Layer 2 shares layer 0's macros: group size max(2,4)=4, plus 3.
        assert_eq!(physical_macros(&macros, &[None, None, Some(0)]), 7);
    }

    #[test]
    fn sharing_lowers_fixed_cost_and_frees_periph_power() {
        let (model, df, point, power, hw) = request_parts(9.0);
        let l = model.weight_layer_count();
        let macros = vec![1usize; l];
        let solo = vec![None; l];
        let mut shared = vec![None; l];
        shared[l - 1] = Some(0); // fc8 shares conv1's macro (staggered in time)
        let arch_solo = allocate_components(&AllocRequest {
            model: &model,
            dataflow: &df,
            point,
            total_power: power,
            hw: &hw,
            macros: &macros,
            shares: &solo,
            macro_mode: MacroMode::Specialized,
        })
        .unwrap();
        let arch_shared = allocate_components(&AllocRequest {
            model: &model,
            dataflow: &df,
            point,
            total_power: power,
            hw: &hw,
            macros: &macros,
            shares: &shared,
            macro_mode: MacroMode::Specialized,
        })
        .unwrap();
        assert_eq!(arch_shared.macro_count() + 1, arch_solo.macro_count());
        // Freed fixed power lets the allocator buy at least as many ADCs.
        let adcs_solo: usize = arch_solo.layers.iter().map(|x| x.components.adc).sum();
        let adcs_shared: usize = arch_shared.layers.iter().map(|x| x.components.adc).sum();
        assert!(adcs_shared >= adcs_solo);
    }
}
