//! The synthesized accelerator description: the end product of PIMSYN's four
//! stages. An [`Architecture`] fixes every design variable of Table I — the
//! crossbar/DAC configuration, per-layer weight duplication (`WtDup`), macro
//! partitioning (`MacAlloc`, incl. inter-layer macro sharing) and component
//! allocation (`CompAlloc`) — and provides PPA accounting over the result.

use std::fmt;

use pimsyn_model::Model;

use crate::components::ComponentCounts;
use crate::converters::{AdcConfig, DacConfig};
use crate::crossbar::CrossbarConfig;
use crate::error::ArchError;
use crate::noc::NocConfig;
use crate::params::HardwareParams;
use crate::units::{SquareMm, Watts};

/// Whether all macros are stamped from one template or specialized per layer
/// (Sec. IV-C: "macros can be configured either identical or specialized").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MacroMode {
    /// One macro template shared by every layer: component counts are the
    /// per-macro maximum over layers (simpler physical design, more waste).
    Identical,
    /// Each layer's macros carry exactly the components that layer needs
    /// (the paper's default; Fig. 8 quantifies the benefit).
    #[default]
    Specialized,
}

impl fmt::Display for MacroMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacroMode::Identical => write!(f, "identical"),
            MacroMode::Specialized => write!(f, "specialized"),
        }
    }
}

/// Hardware assigned to one weight layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerHardware {
    /// Weight-layer index (`i` in the paper).
    pub layer: usize,
    /// Layer name for reports.
    pub name: String,
    /// Weight duplication factor (`WtDup_i`).
    pub wt_dup: usize,
    /// Crossbars per weight copy (Eq. (1)).
    pub crossbar_set: usize,
    /// Macros assigned (`MacAlloc_i`).
    pub macros: usize,
    /// `Some(j)` when this layer shares layer `j`'s macros (rule (b),
    /// inter-layer ADC reuse): `j` is an earlier layer that shares nothing
    /// and has no other sharer ([`MacroGroup::check_pairs`]).
    pub shares_macros_with: Option<usize>,
    /// Derived lossless ADC resolution for this layer.
    pub adc: AdcConfig,
    /// Peripheral unit counts allocated to this layer (totals across its
    /// macros).
    pub components: ComponentCounts,
}

impl LayerHardware {
    /// Total crossbars used by the layer: `WtDup_i x set_i`.
    pub fn crossbars(&self) -> usize {
        self.wt_dup * self.crossbar_set
    }
}

/// Power consumed by each resource class, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// ReRAM crossbar arrays.
    pub rram: Watts,
    /// DACs (one per active crossbar row).
    pub dac: Watts,
    /// ADC banks.
    pub adc: Watts,
    /// Vector ALUs (shift-add, pool, activation, eltwise).
    pub alu: Watts,
    /// Per-macro scratchpads.
    pub scratchpad: Watts,
    /// NoC routers.
    pub noc: Watts,
    /// Register files and control.
    pub register: Watts,
}

impl PowerBreakdown {
    /// Sum over all classes.
    pub fn total(&self) -> Watts {
        self.rram + self.dac + self.adc + self.alu + self.scratchpad + self.noc + self.register
    }

    /// Fraction of total power in peripheral (non-crossbar) components —
    /// ISAAC burns >80% here; PIMSYN's whole point is reducing it.
    pub fn peripheral_share(&self) -> f64 {
        let total = self.total();
        if total.value() == 0.0 {
            return 0.0;
        }
        (total - self.rram) / total
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "power breakdown (total {:.3} W):", self.total().value())?;
        for (label, w) in [
            ("rram", self.rram),
            ("dac", self.dac),
            ("adc", self.adc),
            ("alu", self.alu),
            ("scratchpad", self.scratchpad),
            ("noc", self.noc),
            ("register", self.register),
        ] {
            writeln!(f, "  {label:<11} {:>10.3} mW", w.milli())?;
        }
        Ok(())
    }
}

/// Area consumed by each resource class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// ReRAM crossbar arrays.
    pub rram: SquareMm,
    /// DACs.
    pub dac: SquareMm,
    /// ADC banks.
    pub adc: SquareMm,
    /// Vector ALUs.
    pub alu: SquareMm,
    /// Scratchpads.
    pub scratchpad: SquareMm,
    /// NoC routers.
    pub noc: SquareMm,
    /// Registers/control.
    pub register: SquareMm,
}

impl AreaBreakdown {
    /// Sum over all classes.
    pub fn total(&self) -> SquareMm {
        SquareMm(
            self.rram.0
                + self.dac.0
                + self.adc.0
                + self.alu.0
                + self.scratchpad.0
                + self.noc.0
                + self.register.0,
        )
    }
}

/// A macro-sharing group: a root layer and at most one layer that
/// time-shares its macros and ADC bank (Sec. IV-C, Fig. 5b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroGroup {
    /// Index of the owning (earliest) layer.
    pub root: usize,
    /// All member layers, root first.
    pub members: Vec<usize>,
    /// Physical macros in the group: the largest member's count.
    pub macros: usize,
}

impl MacroGroup {
    /// The pair rule of macro sharing, over per-layer share targets in
    /// layer order (`Some(j)`: the layer shares layer `j`'s macros). A
    /// layer may share only an earlier layer that neither shares itself
    /// nor already has a sharer, so every group is a root and at most one
    /// sharer. Every path by which sharing enters a design checks it: the
    /// EA's genes and [`Architecture::validate`].
    ///
    /// # Errors
    ///
    /// [`ArchError::InvalidSharing`] for the first share that breaks it.
    pub fn check_pairs(shares: impl IntoIterator<Item = Option<usize>>) -> Result<(), ArchError> {
        let shares: Vec<Option<usize>> = shares.into_iter().collect();
        for (layer, &share) in shares.iter().enumerate() {
            let Some(target) = share else { continue };
            let reason = if target >= layer {
                "sharing must point to an earlier layer"
            } else if shares[target].is_some() {
                "that layer shares another layer's macros"
            } else if shares[..layer].contains(&Some(target)) {
                "another layer already shares them"
            } else {
                continue;
            };
            return Err(ArchError::InvalidSharing {
                layer,
                target,
                reason,
            });
        }
        Ok(())
    }

    /// Builds the macro-sharing groups from per-layer `(layer, macros,
    /// shares_macros_with)` assignments, in root order. This is the single
    /// implementation behind [`Architecture::macro_groups`]; candidate
    /// evaluators build groups straight from a gene decoding with
    /// [`build_into`](Self::build_into).
    pub fn build_from(
        assignments: impl IntoIterator<Item = (usize, usize, Option<usize>)>,
    ) -> Vec<MacroGroup> {
        let mut groups = Vec::new();
        Self::build_into(&mut groups, assignments);
        groups
    }

    /// [`build_from`](Self::build_from) into `groups`, reusing its member
    /// vectors' allocations.
    ///
    /// # Panics
    ///
    /// Panics if a layer shares a layer that is not an earlier root, which
    /// [`check_pairs`](Self::check_pairs) rejects.
    pub fn build_into(
        groups: &mut Vec<MacroGroup>,
        assignments: impl IntoIterator<Item = (usize, usize, Option<usize>)>,
    ) {
        let mut used = 0usize;
        for (layer, macros, share) in assignments {
            if let Some(root) = share {
                let group = groups[..used]
                    .iter_mut()
                    .find(|g| g.root == root)
                    .expect("a layer shares only an earlier root (MacroGroup::check_pairs)");
                group.members.push(layer);
                group.macros = group.macros.max(macros);
                continue;
            }
            if used == groups.len() {
                groups.push(MacroGroup {
                    root: layer,
                    members: Vec::new(),
                    macros,
                });
            }
            let group = &mut groups[used];
            (group.root, group.macros) = (layer, macros);
            group.members.clear();
            group.members.push(layer);
            used += 1;
        }
        groups.truncate(used);
    }

    /// What the group pays for: per component kind its largest member
    /// count, and ADCs at its largest member resolution (at least
    /// `adc_min_bits`). `layer_parts(m)` returns member `m`'s `(component
    /// counts, ADC bits)`. Power and area both charge this.
    fn charge(
        &self,
        hw: &HardwareParams,
        layer_parts: impl Fn(usize) -> (ComponentCounts, u32),
    ) -> (ComponentCounts, AdcConfig) {
        let mut counts = ComponentCounts::default();
        let mut adc_bits = 0u32;
        for &m in &self.members {
            let (member_counts, member_adc_bits) = layer_parts(m);
            for kind in crate::components::ComponentKind::ALL {
                let c = counts.count_mut(kind);
                *c = (*c).max(member_counts.count(kind));
            }
            adc_bits = adc_bits.max(member_adc_bits);
        }
        (counts, AdcConfig::new(adc_bits.max(hw.adc_min_bits), hw))
    }
}

/// Power accounting from explicit parts instead of a full [`Architecture`]:
/// `groups` are the candidate's macro-sharing groups (see
/// [`MacroGroup::build_from`]), `macro_count` the physical macro total, and
/// `layer_parts(m)` returns member `m`'s `(component counts, ADC bits)`.
/// This is the single implementation behind
/// [`Architecture::power_breakdown`]; both paths produce bit-identical
/// floats by construction.
#[allow(clippy::too_many_arguments)]
pub fn power_breakdown_from(
    hw: &HardwareParams,
    crossbar: CrossbarConfig,
    dac: DacConfig,
    crossbar_count: usize,
    groups: &[MacroGroup],
    macro_count: usize,
    layer_parts: impl Fn(usize) -> (ComponentCounts, u32),
) -> PowerBreakdown {
    let mut out = PowerBreakdown::default();

    let xb_power = crossbar.power(hw);
    let n_xb = crossbar_count;
    out.rram = xb_power * n_xb as f64;
    out.dac = dac.power(hw) * (n_xb * crossbar.size()) as f64;

    for group in groups {
        let (counts, adc) = group.charge(hw, &layer_parts);
        out.adc += adc.power(hw) * counts.adc as f64;
        let alu_units = counts.total_units() - counts.adc;
        // Weighted by per-kind powers rather than a flat per-unit cost.
        out.alu += hw.shift_add_power * counts.shift_add as f64
            + hw.pool_power * counts.pool as f64
            + hw.activation_power * counts.activation as f64
            + hw.eltwise_power * counts.eltwise as f64;
        debug_assert!(
            alu_units == counts.shift_add + counts.pool + counts.activation + counts.eltwise
        );
    }

    let n_macro = macro_count as f64;
    out.scratchpad = hw.scratchpad_power * n_macro;
    out.noc = hw.noc_router_power * n_macro;
    out.register = hw.register_power * n_macro;
    out
}

/// A fully-specified PIM accelerator: the output of synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    /// Name of the CNN this accelerator was synthesized for.
    pub model_name: String,
    /// Crossbar configuration (`XbSize`, `ResRram`).
    pub crossbar: CrossbarConfig,
    /// DAC configuration (`ResDAC`).
    pub dac: DacConfig,
    /// Fraction of the power budget reserved for ReRAM (`RatioRram`).
    pub ratio_rram: f64,
    /// The user's total power constraint.
    pub power_budget: Watts,
    /// Identical vs specialized macros.
    pub macro_mode: MacroMode,
    /// Per-layer hardware assignment.
    pub layers: Vec<LayerHardware>,
    /// Device/circuit constants the accelerator was sized with.
    pub hw: HardwareParams,
}

impl Architecture {
    /// Macro-sharing groups: each group's macros are counted once even
    /// though several layers may use them at staggered times.
    pub fn macro_groups(&self) -> Vec<MacroGroup> {
        MacroGroup::build_from(
            self.layers
                .iter()
                .map(|lh| (lh.layer, lh.macros, lh.shares_macros_with)),
        )
    }

    /// Physical macro count (shared macros counted once).
    pub fn macro_count(&self) -> usize {
        self.macro_groups().iter().map(|g| g.macros).sum()
    }

    /// Total crossbars across all layers.
    pub fn crossbar_count(&self) -> usize {
        self.layers.iter().map(LayerHardware::crossbars).sum()
    }

    /// The NoC sized for this accelerator's macro count.
    pub fn noc(&self) -> NocConfig {
        NocConfig::for_macros(self.macro_count(), &self.hw)
    }

    /// Effective ADC units serving layer `i`: its own allocation, or the
    /// group maximum when macros are shared (inter-layer ADC reuse makes the
    /// partner's converters available at staggered times — Sec. IV-C).
    pub fn effective_adcs(&self, layer: usize) -> usize {
        let own = self.layers[layer].components.adc;
        let root = self.layers[layer].shares_macros_with.unwrap_or(layer);
        self.layers
            .iter()
            .filter(|l| l.layer == root || l.shares_macros_with == Some(root))
            .map(|l| l.components.adc)
            .max()
            .unwrap_or(own)
    }

    /// Power accounting over every resource class.
    ///
    /// Within a macro-sharing group, peripheral units are physically shared:
    /// the group contributes the per-kind *maximum* over members rather than
    /// the sum (this is exactly the ADC saving of Fig. 5b).
    pub fn power_breakdown(&self) -> PowerBreakdown {
        let groups = self.macro_groups();
        power_breakdown_from(
            &self.hw,
            self.crossbar,
            self.dac,
            self.crossbar_count(),
            &groups,
            groups.iter().map(|g| g.macros).sum(),
            |m| self.layer_parts(m),
        )
    }

    /// Layer `m`'s `(component counts, ADC bits)`, what its macro group
    /// charges for it.
    fn layer_parts(&self, m: usize) -> (ComponentCounts, u32) {
        (self.layers[m].components, self.layers[m].adc.bits())
    }

    /// Area accounting over every resource class.
    pub fn area_breakdown(&self) -> AreaBreakdown {
        let hw = &self.hw;
        let n_xb = self.crossbar_count() as f64;
        let n_macro = self.macro_count() as f64;
        let mut adc_area = 0.0;
        let mut alu_area = 0.0;
        for group in self.macro_groups() {
            let (counts, adc) = group.charge(hw, |m| self.layer_parts(m));
            adc_area += adc.area(hw).0 * counts.adc as f64;
            alu_area += hw.alu_area.0 * (counts.total_units() - counts.adc) as f64;
        }
        AreaBreakdown {
            rram: SquareMm(self.crossbar.area(hw).0 * n_xb),
            dac: SquareMm(self.dac.area(hw).0 * n_xb * self.crossbar.size() as f64),
            adc: SquareMm(adc_area),
            alu: SquareMm(alu_area),
            scratchpad: SquareMm(hw.scratchpad_area.0 * n_macro),
            noc: SquareMm(hw.noc_router_area.0 * n_macro),
            register: SquareMm(hw.register_area.0 * n_macro),
        }
    }

    /// Peak throughput in effective `weight_bits`-precision operations per
    /// second (multiply + add = 2 ops), assuming every crossbar fires every
    /// MVM cycle: each analog MVM performs `2 * XbSize^2` bit-ops, and a
    /// full-precision result needs `bit_iters x weight_slices` of them.
    pub fn peak_ops(&self, activation_bits: u32, weight_bits: u32) -> f64 {
        let per_mvm = 2.0 * (self.crossbar.size() as f64).powi(2);
        let mvm_rate = 1.0 / self.hw.mvm_latency.value();
        let derate = (self.dac.bit_iterations(activation_bits)
            * self.crossbar.weight_slices(weight_bits)) as f64;
        self.crossbar_count() as f64 * per_mvm * mvm_rate / derate
    }

    /// Peak power efficiency in TOPS/W at the given precision (Table IV's
    /// metric).
    pub fn peak_power_efficiency(&self, activation_bits: u32, weight_bits: u32) -> f64 {
        let power = self.power_breakdown().total();
        if power.value() <= 0.0 {
            return 0.0;
        }
        self.peak_ops(activation_bits, weight_bits) / 1e12 / power.value()
    }

    /// Structural validation against the source model:
    ///
    /// - every layer has ≥1 crossbar copy and ≥1 macro
    ///   ([`ArchError::EmptyAllocation`]),
    /// - rule (c) of Sec. IV-C: at most `WtDup_i x ceil(WK²CI/XbSize)` macros
    ///   ([`ArchError::TooManyMacros`]),
    /// - macro sharing forms pairs ([`MacroGroup::check_pairs`],
    ///   [`ArchError::InvalidSharing`]),
    /// - the realized power stays within the budget (with 5% slack for
    ///   integer rounding) ([`ArchError::PowerBudgetExceeded`]).
    ///
    /// # Errors
    ///
    /// The first violated rule, as listed above.
    pub fn validate(&self, model: &Model) -> Result<(), ArchError> {
        for lh in &self.layers {
            if lh.wt_dup == 0 || lh.crossbar_set == 0 {
                return Err(ArchError::EmptyAllocation {
                    layer: lh.layer,
                    what: "crossbars",
                });
            }
            if lh.macros == 0 {
                return Err(ArchError::EmptyAllocation {
                    layer: lh.layer,
                    what: "macros",
                });
            }
            let wl = model.weight_layer(lh.layer);
            let row_groups = wl.filter_rows().div_ceil(self.crossbar.size());
            let max_macros = lh.wt_dup * row_groups;
            if lh.macros > max_macros {
                return Err(ArchError::TooManyMacros {
                    layer: lh.layer,
                    requested: lh.macros,
                    max: max_macros,
                });
            }
        }
        MacroGroup::check_pairs(self.layers.iter().map(|lh| lh.shares_macros_with))?;
        let realized = self.power_breakdown().total();
        let limit = self.power_budget * 1.05;
        if realized > limit {
            return Err(ArchError::PowerBudgetExceeded {
                required: realized.value(),
                available: self.power_budget.value(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "architecture for {}: {} macros, {} crossbars ({}x{} @{}b), dac {}b, {} macro mode",
            self.model_name,
            self.macro_count(),
            self.crossbar_count(),
            self.crossbar.size(),
            self.crossbar.size(),
            self.crossbar.cell_bits(),
            self.dac.bits(),
            self.macro_mode,
        )?;
        write!(f, "{}", self.power_breakdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_model::zoo;

    fn hw() -> HardwareParams {
        HardwareParams::date24()
    }

    /// A hand-built two-layer architecture used across tests.
    fn toy_arch() -> (pimsyn_model::Model, Architecture) {
        toy_arch_of(2)
    }

    /// A hand-built architecture of `convs` conv + ReLU layers.
    fn toy_arch_of(convs: usize) -> (pimsyn_model::Model, Architecture) {
        let model = {
            let mut b =
                pimsyn_model::ModelBuilder::new("toy", pimsyn_model::TensorShape::new(3, 16, 16));
            let mut prev = None;
            for i in 1..=convs {
                let c = b.conv(format!("c{i}"), prev, 32, 3, 1, 1);
                prev = Some(b.relu(format!("r{i}"), c));
            }
            b.build().unwrap()
        };
        let crossbar = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(1).unwrap();
        let hwp = hw();
        let layers = (0..convs)
            .map(|i| {
                let wl = model.weight_layer(i);
                LayerHardware {
                    layer: i,
                    name: wl.name.clone(),
                    wt_dup: 2,
                    crossbar_set: crossbar.crossbar_set(wl, 16),
                    macros: 1,
                    shares_macros_with: None,
                    adc: AdcConfig::minimum_lossless(wl.filter_rows().min(128), 2, 1, &hwp),
                    components: ComponentCounts {
                        adc: 4,
                        shift_add: 8,
                        pool: 2,
                        activation: 2,
                        eltwise: 0,
                    },
                }
            })
            .collect();
        let arch = Architecture {
            model_name: "toy".into(),
            crossbar,
            dac,
            ratio_rram: 0.3,
            power_budget: Watts(2.0),
            macro_mode: MacroMode::Specialized,
            layers,
            hw: hwp,
        };
        (model, arch)
    }

    #[test]
    fn macro_and_crossbar_counts() {
        let (_, arch) = toy_arch();
        assert_eq!(arch.macro_count(), 2);
        // Each layer: set = ceil(rows/128)*ceil(32/128)*8 slices; layer 1
        // rows=27 -> 8; layer 2 rows=288 -> 3*1*8=24. Dup 2 -> 16 + 48.
        assert_eq!(arch.crossbar_count(), 2 * 8 + 2 * 24);
    }

    #[test]
    fn validation_passes_for_toy() {
        let (model, arch) = toy_arch();
        arch.validate(&model).unwrap();
    }

    #[test]
    fn validation_rejects_zero_macros() {
        let (model, mut arch) = toy_arch();
        arch.layers[0].macros = 0;
        assert!(matches!(
            arch.validate(&model),
            Err(ArchError::EmptyAllocation { layer: 0, .. })
        ));
    }

    #[test]
    fn validation_enforces_rule_c() {
        let (model, mut arch) = toy_arch();
        // Layer 0: rows 27 -> row_groups 1, dup 2 -> max 2 macros.
        arch.layers[0].macros = 3;
        assert!(matches!(
            arch.validate(&model),
            Err(ArchError::TooManyMacros { .. })
        ));
    }

    #[test]
    fn validation_rejects_chains_and_double_sharers() {
        let (model, mut arch) = toy_arch_of(3);
        arch.power_budget = Watts(100.0);
        arch.layers[1].shares_macros_with = Some(0);
        arch.validate(&model).unwrap();
        for (shares, target) in [([None, Some(0), Some(1)], 1), ([None, Some(0), Some(0)], 0)] {
            for (lh, share) in arch.layers.iter_mut().zip(shares) {
                lh.shares_macros_with = share;
            }
            let err = arch.validate(&model).unwrap_err();
            assert!(
                matches!(err, ArchError::InvalidSharing { layer: 2, target: t, .. } if t == target),
                "{shares:?}: {err}"
            );
        }
        arch.layers[2].shares_macros_with = Some(2);
        assert!(matches!(
            arch.validate(&model),
            Err(ArchError::InvalidSharing { layer: 2, .. })
        ));
    }

    #[test]
    fn sharing_reduces_power() {
        let (_, mut arch) = toy_arch();
        let solo = arch.power_breakdown().total();
        arch.layers[1].shares_macros_with = Some(0);
        let shared = arch.power_breakdown().total();
        assert!(shared < solo, "shared {shared} !< solo {solo}");
        assert_eq!(arch.macro_count(), 1);
    }

    #[test]
    fn effective_adcs_sees_group_max() {
        let (_, mut arch) = toy_arch();
        arch.layers[1].shares_macros_with = Some(0);
        arch.layers[0].components.adc = 4;
        arch.layers[1].components.adc = 10;
        assert_eq!(arch.effective_adcs(0), 10);
        assert_eq!(arch.effective_adcs(1), 10);
    }

    #[test]
    fn peak_efficiency_positive_and_precision_sensitive() {
        let (_, arch) = toy_arch();
        let e16 = arch.peak_power_efficiency(16, 16);
        let e8 = arch.peak_power_efficiency(8, 8);
        assert!(e16 > 0.0);
        assert!(e8 > e16, "lower precision must raise effective TOPS/W");
    }

    #[test]
    fn power_budget_violation_detected() {
        let (model, mut arch) = toy_arch();
        arch.power_budget = Watts(0.01);
        assert!(matches!(
            arch.validate(&model),
            Err(ArchError::PowerBudgetExceeded { .. })
        ));
    }

    #[test]
    fn area_breakdown_is_positive() {
        let (_, arch) = toy_arch();
        let area = arch.area_breakdown();
        assert!(area.total().0 > 0.0);
        assert!(area.rram.0 > 0.0);
        assert!(area.scratchpad.0 > 0.0);
    }

    #[test]
    fn identity_of_display_report() {
        let (_, arch) = toy_arch();
        let text = arch.to_string();
        assert!(text.contains("toy"));
        assert!(text.contains("power breakdown"));
    }

    #[test]
    fn real_model_rule_c_bound() {
        // VGG16 conv1_1 (rows=27 < 128): a single duplication cannot span
        // two macros under rule (c).
        let model = zoo::vgg16();
        let wl = model.weight_layer(0);
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let row_groups = wl.filter_rows().div_ceil(xb.size());
        assert_eq!(row_groups, 1);
    }
}
