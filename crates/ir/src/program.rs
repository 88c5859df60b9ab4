//! Compact per-layer execution schedules.
//!
//! A [`LayerProgram`] captures everything the performance models need about
//! one layer's compiled dataflow — block/bit structure, per-step workloads of
//! every IR class, and the geometry needed to evaluate inter-layer
//! dependencies — as counts per block rather than one IR op at a time, so
//! its size does not grow with the layer's feature map.

use pimsyn_model::PoolKind;

/// The compiled schedule of one weight layer.
///
/// Quantities are split by rate class:
/// - *per block-bit* (executed `blocks x bits` times): `adc_samples`,
///   `shift_add_ops`, one MVM of `crossbars` arrays;
/// - *per block* (executed `blocks` times): `load_elems`, `store_elems`,
///   `act_ops`, `pool_ops`, `eltwise_ops`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerProgram {
    /// Weight-layer index.
    pub layer: usize,
    /// Layer name for reports.
    pub name: String,
    /// Weight duplication factor (`WtDup_i`).
    pub wt_dup: usize,
    /// Computation blocks: `ceil(HO x WO / WtDup)`.
    pub blocks: usize,
    /// Input-bit iterations per block: `ceil(PrecAct / ResDAC)`.
    pub bits: usize,
    /// Crossbars per weight copy (Eq. (1)).
    pub crossbar_set: usize,
    /// Crossbars firing per MVM step: `WtDup x set`.
    pub crossbars: usize,
    /// Row groups per copy: `ceil(WK*WK*CI / XbSize)` — when a layer spans
    /// multiple macros, partial sums from different row groups must be
    /// merged across macros.
    pub row_groups: usize,
    /// ADC samples per block-bit.
    pub adc_samples: usize,
    /// Shift-and-add merges per block-bit.
    pub shift_add_ops: usize,
    /// Activation elements loaded per block.
    pub load_elems: usize,
    /// Result elements stored per block.
    pub store_elems: usize,
    /// Activation-function ops per block (0 when no ReLU follows).
    pub act_ops: usize,
    /// Pooling ops per block (0 when no pooling follows).
    pub pool_ops: usize,
    /// Elementwise-add ops per block (0 unless the layer feeds a residual).
    pub eltwise_ops: usize,
    /// Pooling fused after the layer, if any.
    pub pool: Option<(PoolKind, usize)>,

    /// Output spatial height `HO`.
    pub out_height: usize,
    /// Output spatial width `WO`.
    pub out_width: usize,
    /// Input spatial height `HI`.
    pub in_height: usize,
    /// Kernel extent `WK`.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Producer weight-layer indices.
    pub producers: Vec<usize>,
    /// Pipeline fill offset per producer, aligned with `producers`: the
    /// producer blocks that must finish before this layer's first block
    /// (Fig. 4), fixed at compile time.
    pub producer_fill: Vec<usize>,
    /// Consumer weight-layer indices.
    pub consumers: Vec<usize>,
}

impl LayerProgram {
    /// Total block-bit MVM steps the layer executes per inference.
    pub fn total_steps(&self) -> u64 {
        self.blocks as u64 * self.bits as u64
    }

    /// Total ADC samples per inference.
    pub fn total_adc_samples(&self) -> u64 {
        self.total_steps() * self.adc_samples as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog() -> LayerProgram {
        LayerProgram {
            layer: 0,
            name: "c1".into(),
            wt_dup: 2,
            blocks: 50,
            bits: 4,
            crossbar_set: 8,
            crossbars: 16,
            row_groups: 1,
            adc_samples: 64,
            shift_add_ops: 64,
            load_elems: 54,
            store_elems: 16,
            act_ops: 16,
            pool_ops: 0,
            eltwise_ops: 0,
            pool: None,
            out_height: 10,
            out_width: 10,
            in_height: 10,
            kernel: 3,
            stride: 1,
            producers: vec![],
            producer_fill: vec![],
            consumers: vec![1],
        }
    }

    #[test]
    fn totals() {
        let p = prog();
        assert_eq!(p.total_steps(), 200);
        assert_eq!(p.total_adc_samples(), 200 * 64);
    }
}
