//! Per-layer pipeline-stage occupancy model shared by the analytic evaluator
//! and the cycle-accurate engine.
//!
//! For each layer, every IR class occupies one hardware resource per
//! computation block; the block issue interval ("period") of the layer is
//! the largest per-block occupancy — the `min max` objective of the paper's
//! Eq. (5).

use pimsyn_arch::{AdcConfig, Architecture, HardwareParams, ScratchpadSpec};
use pimsyn_ir::Dataflow;

use crate::error::SimError;
use crate::metrics::StageKind;

/// Bytes of a merged (pre-truncation) partial sum travelling between macros.
const PARTIAL_SUM_BYTES: usize = 4;

/// Per-block resource occupancies of one layer, in seconds.
///
/// Bit-rate stages (`mvm_bit`, `adc_bit`, `sa_bit`) run once per input-bit
/// iteration; the others once per computation block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStages {
    /// Input-bit iterations per block.
    pub bits: usize,
    /// Scratchpad load occupancy per block.
    pub load: f64,
    /// Crossbar occupancy per bit iteration.
    pub mvm_bit: f64,
    /// ADC-bank occupancy per bit iteration.
    pub adc_bit: f64,
    /// Shift-and-add occupancy per bit iteration.
    pub sa_bit: f64,
    /// Post-op (activation/pool/residual) occupancy per block.
    pub post: f64,
    /// Inter-macro partial-sum merge occupancy per block.
    pub merge: f64,
    /// Scratchpad store occupancy per block.
    pub store: f64,
    /// Inter-macro transfer occupancy per block.
    pub transfer: f64,
}

impl LayerStages {
    /// The block issue interval and its limiting stage.
    pub fn period(&self) -> (f64, StageKind) {
        let candidates = [
            (self.load, StageKind::Load),
            (self.bits as f64 * self.mvm_bit, StageKind::Mvm),
            (self.bits as f64 * self.adc_bit, StageKind::Adc),
            (self.bits as f64 * self.sa_bit, StageKind::ShiftAdd),
            (self.post, StageKind::Post),
            (self.merge, StageKind::Merge),
            (self.store, StageKind::Store),
            (self.transfer, StageKind::Transfer),
        ];
        let mut best = candidates[0];
        for &c in &candidates[1..] {
            if c.0 > best.0 {
                best = c;
            }
        }
        best
    }

    /// Serial latency of one block through the whole stage chain (pipeline
    /// fill cost; bit-rate stages overlap, bounded by the slowest).
    pub fn block_latency(&self) -> f64 {
        let bit_chain = self.bits as f64 * self.mvm_bit.max(self.adc_bit).max(self.sa_bit)
            + self.adc_bit
            + self.sa_bit;
        self.load + bit_chain + self.post + self.merge + self.store + self.transfer
    }
}

/// The NoC-independent part of one layer's stage occupancies: everything in
/// [`LayerStages`] except `merge` and `transfer`.
///
/// These costs depend only on the layer's own hardware assignment (macro
/// count, effective ADC bank, component counts) and its compiled program —
/// not on the accelerator-wide NoC sizing — so a delta evaluator can reuse a
/// parent candidate's value for every layer whose assignment is unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerBaseCosts {
    /// Input-bit iterations per block.
    pub bits: usize,
    /// Scratchpad load occupancy per block.
    pub load: f64,
    /// Crossbar occupancy per bit iteration.
    pub mvm_bit: f64,
    /// ADC-bank occupancy per bit iteration.
    pub adc_bit: f64,
    /// Shift-and-add occupancy per bit iteration.
    pub sa_bit: f64,
    /// Post-op occupancy per block.
    pub post: f64,
    /// Scratchpad store occupancy per block.
    pub store: f64,
}

/// The per-layer hardware facts [`compute_layer_base_with`] needs, decoupled
/// from [`Architecture`] so delta evaluators can rescore a single layer from
/// a candidate's component counts without materializing the whole
/// architecture struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCostInputs {
    /// Macros assigned to the layer (`MacAlloc` entry).
    pub macros: usize,
    /// ADC units effectively serving the layer (its own bank, or the
    /// largest bank in its sharing group — see `Architecture::effective_adcs`).
    pub effective_adcs: usize,
    /// The layer's ADC configuration (decides the sample rate).
    pub adc: AdcConfig,
    /// Allocated shift-and-add units.
    pub shift_add: usize,
    /// Allocated pooling units.
    pub pool: usize,
    /// Allocated activation units.
    pub activation: usize,
    /// Allocated element-wise units.
    pub eltwise: usize,
}

/// Computes the NoC-independent occupancies of layer `layer`.
///
/// # Errors
///
/// - [`SimError::LayerCountMismatch`] if `arch` and `df` disagree on layer
///   count or `layer` is out of range.
/// - [`SimError::MissingComponent`] if the layer has workload for a
///   component family with zero allocated units.
pub fn compute_layer_base(
    df: &Dataflow,
    arch: &Architecture,
    layer: usize,
) -> Result<LayerBaseCosts, SimError> {
    if arch.layers.len() != df.programs().len() || layer >= arch.layers.len() {
        return Err(SimError::LayerCountMismatch {
            arch: arch.layers.len(),
            dataflow: df.programs().len(),
        });
    }
    let lh = &arch.layers[df.program(layer).layer];
    let inputs = LayerCostInputs {
        macros: lh.macros,
        effective_adcs: arch.effective_adcs(df.program(layer).layer),
        adc: lh.adc,
        shift_add: lh.components.shift_add,
        pool: lh.components.pool,
        activation: lh.components.activation,
        eltwise: lh.components.eltwise,
    };
    compute_layer_base_with(df, &arch.hw, layer, &inputs)
}

/// Computes the NoC-independent occupancies of layer `layer` from explicit
/// per-layer hardware facts instead of a full [`Architecture`]. This is the
/// single implementation behind [`compute_layer_base`]; both paths produce
/// bit-identical floats by construction.
///
/// # Errors
///
/// [`SimError::MissingComponent`] if the layer has workload for a component
/// family with zero allocated units.
pub fn compute_layer_base_with(
    df: &Dataflow,
    hw: &HardwareParams,
    layer: usize,
    inputs: &LayerCostInputs,
) -> Result<LayerBaseCosts, SimError> {
    let spm = ScratchpadSpec::from_params(hw);
    let act_bytes = (df.activation_bits() as usize).div_ceil(8);
    let clock = hw.clock.value();
    let prog = df.program(layer);
    let n_mac = inputs.macros.max(1) as f64;
    let spm_bw = spm.bandwidth() * n_mac;

    let load_bytes = prog.load_elems * act_bytes;
    let load = load_bytes as f64 / spm_bw + spm.read_latency(0).value();

    let mvm_bit = hw.mvm_latency.value();

    let adc_units = inputs.effective_adcs;
    if prog.adc_samples > 0 && adc_units == 0 {
        return Err(SimError::MissingComponent {
            layer: prog.layer,
            component: "adc",
        });
    }
    let adc_rate = inputs.adc.sample_rate(hw).value();
    let adc_bit = prog.adc_samples as f64 / (adc_units.max(1) as f64 * adc_rate);

    let sa_units = inputs.shift_add;
    if prog.shift_add_ops > 0 && sa_units == 0 {
        return Err(SimError::MissingComponent {
            layer: prog.layer,
            component: "shift-add",
        });
    }
    let sa_bit = prog.shift_add_ops as f64 / (sa_units.max(1) as f64 * clock);

    let mut post = 0.0;
    for (ops, units, component) in [
        (prog.act_ops, inputs.activation, "activation"),
        (prog.pool_ops, inputs.pool, "pool"),
        (prog.eltwise_ops, inputs.eltwise, "eltwise"),
    ] {
        if ops > 0 {
            if units == 0 {
                return Err(SimError::MissingComponent {
                    layer: prog.layer,
                    component,
                });
            }
            post += ops as f64 / (units as f64 * clock);
        }
    }

    let store_bytes = prog.store_elems * act_bytes;
    let store = store_bytes as f64 / spm_bw + spm.read_latency(0).value();

    Ok(LayerBaseCosts {
        bits: prog.bits,
        load,
        mvm_bit,
        adc_bit,
        sa_bit,
        post,
        store,
    })
}

/// Computes the NoC-dependent `(merge, transfer)` occupancies of layer
/// `layer` under the given NoC sizing. Cheap relative to
/// [`compute_layer_base`]; recomputed for every candidate because the NoC is
/// sized from the accelerator-wide macro count.
///
/// # Panics
///
/// Panics if `arch` and `df` disagree on layer count or `layer` is out of
/// range — validate with [`compute_layer_base`] (or use [`compute_stages`],
/// which checks) first.
pub fn compute_layer_dynamic(
    df: &Dataflow,
    arch: &Architecture,
    layer: usize,
    noc: &pimsyn_arch::NocConfig,
) -> (f64, f64) {
    let prog_layer = df.program(layer).layer;
    compute_layer_dynamic_with(
        df,
        &arch.hw,
        layer,
        arch.layers[prog_layer].macros,
        |l| arch.layers[l].shares_macros_with.unwrap_or(l),
        noc,
    )
}

/// Computes the NoC-dependent `(merge, transfer)` occupancies of layer
/// `layer` from an explicit macro count and macro-group root lookup instead
/// of a full [`Architecture`]. This is the single implementation behind
/// [`compute_layer_dynamic`]; both paths produce bit-identical floats by
/// construction. `root_of(l)` must return the macro-group root of layer `l`
/// (the layer itself when it shares with nobody).
pub fn compute_layer_dynamic_with(
    df: &Dataflow,
    hw: &HardwareParams,
    layer: usize,
    macros: usize,
    root_of: impl Fn(usize) -> usize,
    noc: &pimsyn_arch::NocConfig,
) -> (f64, f64) {
    let act_bytes = (df.activation_bits() as usize).div_ceil(8);
    let prog = df.program(layer);
    let n_mac = macros.max(1) as f64;

    // Partial sums cross macros only when the layer both splits its
    // filter rows and spans multiple macros.
    let merge = if prog.row_groups > 1 && macros > 1 {
        let frac = (prog.row_groups - 1) as f64 / prog.row_groups as f64;
        let bytes = prog.store_elems as f64 * PARTIAL_SUM_BYTES as f64 * frac;
        bytes / (noc.link_bandwidth() * n_mac) + 2.0 * hw.noc_hop_latency.value()
    } else {
        0.0
    };

    let store_bytes = prog.store_elems * act_bytes;
    // Activations travel the NoC unless every consumer lives in the same
    // macro group.
    let my_group = root_of(prog.layer);
    let needs_transfer = prog.consumers.iter().any(|&c| root_of(c) != my_group);
    let transfer = if needs_transfer {
        store_bytes as f64 / (noc.link_bandwidth() * n_mac)
            + noc.average_hops() * hw.noc_hop_latency.value()
    } else {
        0.0
    };

    (merge, transfer)
}

/// Assembles full [`LayerStages`] from the two halves.
pub fn assemble_stages(base: LayerBaseCosts, merge: f64, transfer: f64) -> LayerStages {
    LayerStages {
        bits: base.bits,
        load: base.load,
        mvm_bit: base.mvm_bit,
        adc_bit: base.adc_bit,
        sa_bit: base.sa_bit,
        post: base.post,
        merge,
        store: base.store,
        transfer,
    }
}

/// Computes every layer's stage occupancies for `arch` running `df`.
///
/// # Errors
///
/// - [`SimError::LayerCountMismatch`] if `arch` and `df` disagree on layers.
/// - [`SimError::MissingComponent`] if a layer has workload for a component
///   family with zero allocated units.
pub fn compute_stages(df: &Dataflow, arch: &Architecture) -> Result<Vec<LayerStages>, SimError> {
    if arch.layers.len() != df.programs().len() {
        return Err(SimError::LayerCountMismatch {
            arch: arch.layers.len(),
            dataflow: df.programs().len(),
        });
    }
    let noc = arch.noc();
    let mut out = Vec::with_capacity(df.programs().len());
    for layer in 0..df.programs().len() {
        let base = compute_layer_base(df, arch, layer)?;
        let (merge, transfer) = compute_layer_dynamic(df, arch, layer, &noc);
        out.push(assemble_stages(base, merge, transfer));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_arch::{
        AdcConfig, Architecture, ComponentCounts, CrossbarConfig, DacConfig, HardwareParams,
        LayerHardware, MacroMode, Watts,
    };
    use pimsyn_model::{Model, ModelBuilder, TensorShape};

    fn tiny_model() -> Model {
        let mut b = ModelBuilder::new("t", TensorShape::new(3, 8, 8));
        let c1 = b.conv("c1", None, 8, 3, 1, 1);
        let r1 = b.relu("r1", c1);
        b.conv("c2", Some(r1), 8, 3, 1, 1);
        b.build().unwrap()
    }

    fn setup(adcs: usize) -> (Dataflow, Architecture) {
        let model = tiny_model();
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(4).unwrap();
        let df = Dataflow::compile(&model, xb, dac, &[2, 2]).unwrap();
        let hw = HardwareParams::date24();
        let layers = (0..2)
            .map(|i| LayerHardware {
                layer: i,
                name: format!("c{}", i + 1),
                wt_dup: 2,
                crossbar_set: df.program(i).crossbar_set,
                macros: 1,
                shares_macros_with: None,
                adc: AdcConfig::new(8, &hw),
                components: ComponentCounts {
                    adc: adcs,
                    shift_add: 4,
                    pool: 1,
                    activation: 1,
                    eltwise: 1,
                },
            })
            .collect();
        let arch = Architecture {
            model_name: "t".into(),
            crossbar: xb,
            dac,
            ratio_rram: 0.3,
            power_budget: Watts(1.0),
            macro_mode: MacroMode::Specialized,
            layers,
            hw,
        };
        (df, arch)
    }

    #[test]
    fn stages_are_positive_and_finite() {
        let (df, arch) = setup(2);
        let stages = compute_stages(&df, &arch).unwrap();
        for s in &stages {
            assert!(s.load > 0.0);
            assert!(s.mvm_bit > 0.0);
            assert!(s.adc_bit > 0.0);
            let (p, _) = s.period();
            assert!(p.is_finite() && p > 0.0);
            assert!(s.block_latency() >= p);
        }
    }

    #[test]
    fn more_adcs_shrink_adc_stage() {
        let (df, arch2) = setup(2);
        let (_, arch8) = setup(8);
        let s2 = compute_stages(&df, &arch2).unwrap();
        let s8 = compute_stages(&df, &arch8).unwrap();
        assert!(s8[0].adc_bit < s2[0].adc_bit);
        assert!((s2[0].adc_bit / s8[0].adc_bit - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_adc_is_an_error() {
        let (df, arch) = setup(0);
        assert!(matches!(
            compute_stages(&df, &arch),
            Err(SimError::MissingComponent {
                component: "adc",
                ..
            })
        ));
    }

    #[test]
    fn transfer_suppressed_within_shared_group() {
        let (df, mut arch) = setup(2);
        // c1 -> c2 in different groups: transfer needed.
        let with = compute_stages(&df, &arch).unwrap();
        assert!(with[0].transfer > 0.0);
        // Sharing macros removes the transfer stage.
        arch.layers[1].shares_macros_with = Some(0);
        let without = compute_stages(&df, &arch).unwrap();
        assert_eq!(without[0].transfer, 0.0);
    }

    #[test]
    fn layer_count_mismatch_detected() {
        let (df, mut arch) = setup(2);
        arch.layers.pop();
        assert!(matches!(
            compute_stages(&df, &arch),
            Err(SimError::LayerCountMismatch { .. })
        ));
    }

    #[test]
    fn period_picks_largest_stage() {
        let s = LayerStages {
            bits: 4,
            load: 1.0,
            mvm_bit: 10.0,
            adc_bit: 1.0,
            sa_bit: 1.0,
            post: 5.0,
            merge: 0.0,
            store: 1.0,
            transfer: 39.0,
        };
        let (p, kind) = s.period();
        assert_eq!(p, 40.0); // 4 bits x 10 mvm
        assert_eq!(kind, StageKind::Mvm);
    }
}
