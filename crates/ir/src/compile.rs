//! Dataflow compilation (Sec. IV-B): translate the CNN description plus the
//! weight-duplication strategy and DAC resolution into per-layer IR
//! schedules, with dependencies per Fig. 4.

use pimsyn_arch::{CrossbarConfig, DacConfig};
use pimsyn_model::{Model, WeightLayer};

use crate::error::IrError;
use crate::pipeline;
use crate::program::LayerProgram;

/// A compiled dataflow: the unified representation consumed by the macro
/// partitioning / components allocation stages and by both performance
/// models.
///
/// # Example
///
/// ```
/// use pimsyn_arch::{CrossbarConfig, DacConfig};
/// use pimsyn_ir::Dataflow;
/// use pimsyn_model::zoo;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = zoo::alexnet();
/// let dup = vec![1; model.weight_layer_count()];
/// let df = Dataflow::compile(
///     &model,
///     CrossbarConfig::new(128, 2)?,
///     DacConfig::new(1)?,
///     &dup,
/// )?;
/// assert_eq!(df.programs().len(), 8);
/// assert_eq!(df.programs()[0].bits, 16); // 16-bit activations, 1-bit DAC
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataflow {
    programs: Vec<LayerProgram>,
    geometry: Vec<WeightLayer>,
    crossbar: CrossbarConfig,
    dac: DacConfig,
    activation_bits: u32,
    weight_bits: u32,
}

impl Dataflow {
    /// Compiles `model` under duplication strategy `wt_dup`.
    ///
    /// # Errors
    ///
    /// - [`IrError::WtDupArity`] if `wt_dup.len() != model.weight_layer_count()`.
    /// - [`IrError::ZeroDuplication`] if any factor is zero.
    pub fn compile(
        model: &Model,
        crossbar: CrossbarConfig,
        dac: DacConfig,
        wt_dup: &[usize],
    ) -> Result<Self, IrError> {
        let layer_count = model.weight_layer_count();
        if wt_dup.len() != layer_count {
            return Err(IrError::WtDupArity {
                got: wt_dup.len(),
                expected: layer_count,
            });
        }
        if let Some(zero) = wt_dup.iter().position(|&d| d == 0) {
            return Err(IrError::ZeroDuplication { layer: zero });
        }

        let precision = model.precision();
        let bits = dac.bit_iterations(precision.activation_bits());
        let weight_bits = precision.weight_bits();

        let mut programs = Vec::with_capacity(layer_count);
        let mut geometry = Vec::with_capacity(layer_count);
        for (i, wl) in model.weight_layers().enumerate() {
            let dup = wt_dup[i];
            let set = crossbar.crossbar_set(wl, weight_bits);
            let positions = wl.output_positions();
            let blocks = positions.div_ceil(dup);
            let row_groups = wl.filter_rows().div_ceil(crossbar.size());
            let slices = crossbar.weight_slices(weight_bits);
            // Every output channel is digitized once per weight slice and per
            // row group (partial sums from split rows are merged digitally).
            let adc_samples = dup * wl.out_channels * slices * row_groups;
            programs.push(LayerProgram {
                layer: i,
                name: wl.name.clone(),
                wt_dup: dup,
                blocks,
                bits,
                crossbar_set: set,
                crossbars: dup * set,
                row_groups,
                adc_samples,
                shift_add_ops: adc_samples,
                // Inputs fetched per block step: the full window WK*WK*CI,
                // independent of grouping (every input channel is loaded once
                // per position even though each filter reads only its group).
                load_elems: dup * wl.input_window(),
                store_elems: dup * wl.out_channels,
                act_ops: if wl.relu { dup * wl.out_channels } else { 0 },
                pool_ops: if wl.pool.is_some() {
                    dup * wl.out_channels
                } else {
                    0
                },
                eltwise_ops: if wl.feeds_add {
                    dup * wl.out_channels
                } else {
                    0
                },
                pool: wl.pool,
                out_height: wl.out_height,
                out_width: wl.out_width,
                in_height: wl.in_height,
                kernel: wl.kernel,
                stride: wl.stride,
                producers: wl.producers.clone(),
                producer_fill: wl
                    .producers
                    .iter()
                    .map(|&p| pipeline::fill_blocks(wl, dup, model.weight_layer(p), wt_dup[p]))
                    .collect(),
                consumers: wl.consumers.clone(),
            });
            geometry.push(wl.clone());
        }

        Ok(Self {
            programs,
            geometry,
            crossbar,
            dac,
            activation_bits: precision.activation_bits(),
            weight_bits,
        })
    }

    /// Per-layer compiled schedules, indexed by weight-layer index.
    pub fn programs(&self) -> &[LayerProgram] {
        &self.programs
    }

    /// The `index`-th layer's schedule.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn program(&self, index: usize) -> &LayerProgram {
        &self.programs[index]
    }

    /// Crossbar configuration the dataflow was compiled against.
    pub fn crossbar(&self) -> CrossbarConfig {
        self.crossbar
    }

    /// DAC configuration the dataflow was compiled against.
    pub fn dac(&self) -> DacConfig {
        self.dac
    }

    /// Activation precision in bits.
    pub fn activation_bits(&self) -> u32 {
        self.activation_bits
    }

    /// Weight precision in bits.
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// Total crossbars demanded by the dataflow: `sum WtDup_i x set_i` — the
    /// left side of Eq. (2)'s constraint.
    pub fn total_crossbars(&self) -> usize {
        self.programs.iter().map(|p| p.crossbars).sum()
    }

    /// Inter-layer dependency (Fig. 4): producer blocks that must finish
    /// before `consumer` layer's block `cnt` may start.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn producer_blocks_needed(&self, consumer: usize, cnt: usize, producer: usize) -> usize {
        pipeline::producer_blocks_needed(
            &self.geometry[consumer],
            self.programs[consumer].wt_dup,
            cnt,
            &self.geometry[producer],
            self.programs[producer].wt_dup,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_model::{zoo, ModelBuilder, TensorShape};

    fn xb() -> CrossbarConfig {
        CrossbarConfig::new(128, 2).unwrap()
    }

    fn dac() -> DacConfig {
        DacConfig::new(4).unwrap()
    }

    fn tiny_model() -> Model {
        let mut b = ModelBuilder::new("t", TensorShape::new(3, 8, 8));
        let c1 = b.conv("c1", None, 8, 3, 1, 1);
        let r1 = b.relu("r1", c1);
        let p1 = b.max_pool("p1", r1, 2, 2);
        b.conv("c2", Some(p1), 8, 3, 1, 1);
        b.build().unwrap()
    }

    use pimsyn_model::Model;

    #[test]
    fn arity_checked() {
        let m = tiny_model();
        assert!(matches!(
            Dataflow::compile(&m, xb(), dac(), &[1]),
            Err(IrError::WtDupArity {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn zero_dup_rejected() {
        let m = tiny_model();
        assert!(matches!(
            Dataflow::compile(&m, xb(), dac(), &[1, 0]),
            Err(IrError::ZeroDuplication { layer: 1 })
        ));
    }

    #[test]
    fn block_and_bit_structure() {
        let m = tiny_model();
        let df = Dataflow::compile(&m, xb(), dac(), &[4, 2]).unwrap();
        let p0 = df.program(0);
        assert_eq!(p0.blocks, 64usize.div_ceil(4));
        assert_eq!(p0.bits, 4); // 16-bit activations / 4-bit DAC
        assert_eq!(p0.crossbars, 4 * p0.crossbar_set);
        // c1: rows 27 -> 1 group, cols 8 -> 1 group, slices 8.
        assert_eq!(p0.crossbar_set, 8);
    }

    #[test]
    fn adc_workload_scales_with_dup_and_slices() {
        let m = tiny_model();
        let df1 = Dataflow::compile(&m, xb(), dac(), &[1, 1]).unwrap();
        let df4 = Dataflow::compile(&m, xb(), dac(), &[4, 1]).unwrap();
        assert_eq!(df4.program(0).adc_samples, 4 * df1.program(0).adc_samples);
        // Total samples per inference are duplication-invariant.
        assert_eq!(
            df4.program(0).total_adc_samples(),
            df1.program(0).total_adc_samples()
        );
    }

    #[test]
    fn fused_op_workloads() {
        let m = tiny_model();
        let df = Dataflow::compile(&m, xb(), dac(), &[2, 2]).unwrap();
        assert!(df.program(0).act_ops > 0);
        assert!(df.program(0).pool_ops > 0);
        assert_eq!(df.program(0).eltwise_ops, 0);
        assert_eq!(df.program(1).pool_ops, 0);
    }

    #[test]
    fn total_crossbars_is_eq2_lhs() {
        let m = tiny_model();
        let df = Dataflow::compile(&m, xb(), dac(), &[3, 5]).unwrap();
        let expected = 3 * df.program(0).crossbar_set + 5 * df.program(1).crossbar_set;
        assert_eq!(df.total_crossbars(), expected);
    }

    #[test]
    fn inter_layer_dependency_through_pool() {
        let m = tiny_model();
        let df = Dataflow::compile(&m, xb(), dac(), &[8, 1]).unwrap();
        // First block of c2 needs 3 input rows -> 6 producer rows (2x pool)
        // -> 48 positions -> 6 blocks at dup 8.
        assert_eq!(df.producer_blocks_needed(1, 0, 0), 6);
        assert_eq!(df.program(1).producer_fill, [6]);
    }

    #[test]
    fn precomputed_fill_offsets_match_block_zero_demand() {
        for entry in zoo::entries() {
            let m = (entry.build)();
            let l = m.weight_layer_count();
            for dup in [vec![1; l], (0..l).map(|i| 1 + i % 5).collect()] {
                let df = Dataflow::compile(&m, xb(), dac(), &dup).unwrap();
                let mut edges = 0;
                for (i, prog) in df.programs().iter().enumerate() {
                    assert_eq!(prog.producer_fill.len(), prog.producers.len());
                    for (&p, &fill) in prog.producers.iter().zip(&prog.producer_fill) {
                        assert_eq!(fill, df.producer_blocks_needed(i, 0, p), "{}", entry.name);
                        edges += 1;
                    }
                }
                assert!(edges > 0, "{} has producer edges", entry.name);
            }
        }
    }
}
