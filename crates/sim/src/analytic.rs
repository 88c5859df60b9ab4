//! Fast analytical performance model.
//!
//! The DSE flow (Alg. 1) evaluates thousands of candidate architectures; the
//! paper estimates performance from "the depth of the IR-based DAG and the
//! IRs' latencies" (Sec. IV-B). This model does exactly that in closed form:
//! each layer issues computation blocks at the period of its slowest stage
//! (Eq. (5)'s `min max` objective), layers start when their producers have
//! filled the pipeline far enough (Fig. 4), and inter-layer ADC sharing
//! inflates periods when the sharing layers' active windows overlap
//! (Fig. 5a). The cycle-accurate engine ([`crate::simulate`]) refines these
//! numbers for final reporting.

use pimsyn_arch::{Architecture, Joules, MacroGroup, Seconds, Watts};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;

use crate::error::SimError;
use crate::metrics::{LayerPerf, SimReport, StageKind, Utilization};
use crate::stages::{compute_stages, LayerStages};

/// Evaluates `arch` running `df` (compiled from `model`) analytically.
///
/// # Errors
///
/// Propagates [`SimError`] from stage computation (sharing that breaks the
/// pair rule, mismatched layer counts, missing components).
///
/// # Example
///
/// See [`crate`]-level docs; the quickstart example builds an architecture
/// and calls this directly.
pub fn evaluate_analytic(
    model: &Model,
    df: &Dataflow,
    arch: &Architecture,
) -> Result<SimReport, SimError> {
    let stages = compute_stages(df, arch)?;
    let n = stages.len();
    let groups = arch.macro_groups();
    let solution = solve_pipeline(df, &stages, &groups);
    let power = arch.power_breakdown().total();
    let summary = summarize_pipeline(df, &solution, power, model.stats().total_macs);

    let per_layer: Vec<LayerPerf> = (0..n)
        .map(|i| LayerPerf {
            layer: i,
            period: Seconds(solution.periods[i]),
            busy: Seconds(df.program(i).blocks as f64 * solution.periods[i]),
            start: Seconds(solution.starts[i]),
            finish: Seconds(solution.finishes[i]),
            bottleneck: solution.bottlenecks[i],
        })
        .collect();

    // Estimated busy fractions: each class's occupancy per block over the
    // layer's period, weighted by the layer's share of the makespan.
    let span = summary.latency.value().max(1e-30);
    let n_groups = groups.len().max(1) as f64;
    let mut utilization = Utilization::default();
    for (i, s) in stages.iter().enumerate() {
        let blocks = df.program(i).blocks as f64;
        utilization.crossbar += blocks * s.bits as f64 * s.mvm_bit / (n as f64 * span);
        utilization.adc += blocks * s.bits as f64 * s.adc_bit / (n_groups * span);
        utilization.shift_add += blocks * s.bits as f64 * s.sa_bit / (n as f64 * span);
        utilization.post += blocks * (s.post + s.merge) / (n as f64 * span);
    }

    Ok(SimReport {
        latency: summary.latency,
        steady_period: summary.steady_period,
        throughput_ops: summary.throughput_ops,
        power: summary.power,
        energy_per_image: summary.energy_per_image,
        bottleneck_layer: summary.bottleneck_layer,
        utilization,
        per_layer,
    })
}

/// The pipeline schedule of one candidate: per-layer issue periods (after
/// ADC-sharing contention), the limiting stage of each, and the start/finish
/// instants of every layer's active window.
///
/// Produced by [`solve_pipeline`]; consumed by the full report assembly in
/// [`evaluate_analytic`] and by [`summarize_pipeline`], which scoring loops
/// (the DSE's per-run session) call to get an [`AnalyticSummary`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineSolution {
    /// Block issue interval per layer, seconds.
    pub periods: Vec<f64>,
    /// The stage limiting each layer's period.
    pub bottlenecks: Vec<StageKind>,
    /// Pipeline start instant per layer, seconds.
    pub starts: Vec<f64>,
    /// Pipeline finish instant per layer, seconds.
    pub finishes: Vec<f64>,
}

/// The handful of whole-accelerator numbers the DSE objectives consume,
/// without the per-layer diagnostics a full [`SimReport`] carries. Scoring
/// loops build this from per-layer stage costs without a full report; the
/// fields and derived metrics are float-identical to the corresponding
/// [`SimReport`] fields by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticSummary {
    /// End-to-end latency of one inference.
    pub latency: Seconds,
    /// Steady-state pipeline period (bottleneck layer's busy time).
    pub steady_period: Seconds,
    /// Index of the throughput-limiting layer.
    pub bottleneck_layer: usize,
    /// Sustained operations per second (2 x MACs / steady period).
    pub throughput_ops: f64,
    /// Realized total power.
    pub power: Watts,
    /// Energy per inference.
    pub energy_per_image: Joules,
}

impl AnalyticSummary {
    /// Effective power efficiency in TOPS/W — same expression as
    /// [`SimReport::efficiency_tops_per_watt`].
    pub fn efficiency_tops_per_watt(&self) -> f64 {
        crate::metrics::efficiency_tops_per_watt(self.throughput_ops, self.power)
    }

    /// Energy-delay product in ms x mJ — same expression as
    /// [`SimReport::edp_ms_mj`].
    pub fn edp_ms_mj(&self) -> f64 {
        crate::metrics::edp_ms_mj(self.latency, self.energy_per_image)
    }
}

/// Solves the pipeline schedule for one candidate: first-pass periods from
/// each layer's slowest stage, producer-fill start times, then the
/// ADC-sharing contention pass over `groups` (re-scheduling when any period
/// stretched). `groups` must be the candidate's macro groups in
/// `Architecture::macro_groups` order.
pub fn solve_pipeline(
    df: &Dataflow,
    stages: &[LayerStages],
    groups: &[MacroGroup],
) -> PipelineSolution {
    let mut solution = PipelineSolution {
        periods: Vec::new(),
        bottlenecks: Vec::new(),
        starts: Vec::new(),
        finishes: Vec::new(),
    };
    solve_pipeline_into(df, stages, groups, &mut solution);
    solution
}

/// [`solve_pipeline`] writing into a caller-owned solution so hot loops
/// (the DSE's per-run session) can reuse its buffers across candidates.
/// Previous contents are discarded; the arithmetic is exactly
/// [`solve_pipeline`]'s, so both entry points produce bit-identical
/// solutions.
pub fn solve_pipeline_into(
    df: &Dataflow,
    stages: &[LayerStages],
    groups: &[MacroGroup],
    out: &mut PipelineSolution,
) {
    // First pass: periods, starts and finishes without sharing contention.
    out.periods.clear();
    out.bottlenecks.clear();
    for s in stages {
        let (p, k) = s.period();
        out.periods.push(p);
        out.bottlenecks.push(k);
    }
    schedule_into(df, stages, &out.periods, &mut out.starts, &mut out.finishes);

    // Second pass: inter-layer ADC reuse. Layers sharing a macro group share
    // its physical ADC bank: when their active windows overlap, the bank
    // serves both, stretching whoever needs it (Fig. 5a shows the distance
    // dependence of this penalty). Candidates without sharing skip the pass
    // outright (the loop below would leave `adjusted` untouched).
    if !groups.iter().any(|g| g.members.len() >= 2) {
        return;
    }
    let periods = &out.periods;
    let (starts, finishes) = (&out.starts, &out.finishes);
    let mut adjusted = periods.clone();
    for group in groups {
        if group.members.len() < 2 {
            continue;
        }
        for &m in &group.members {
            let demand_m = stages[m].bits as f64 * stages[m].adc_bit;
            if demand_m == 0.0 {
                continue;
            }
            // Fraction of the ADC bank consumed by overlapping partners
            // during layer m's window.
            let dur_m = (finishes[m] - starts[m]).max(1e-30);
            let mut partner_load = 0.0;
            for &o in &group.members {
                if o == m {
                    continue;
                }
                let overlap = overlap_len(starts[m], finishes[m], starts[o], finishes[o]);
                if overlap <= 0.0 {
                    continue;
                }
                let demand_o = stages[o].bits as f64 * stages[o].adc_bit;
                // Partner's ADC utilization during the overlap.
                partner_load += (demand_o / periods[o].max(1e-30)) * (overlap / dur_m);
            }
            if partner_load > 0.0 {
                // The ADC stage of layer m slows by the contended share.
                let own_util = demand_m / periods[m].max(1e-30);
                let total = own_util + partner_load;
                if total > 1.0 {
                    let stretched_adc = demand_m * total / own_util.max(1e-30);
                    adjusted[m] = adjusted[m].max(stretched_adc);
                    if stretched_adc >= adjusted[m] {
                        out.bottlenecks[m] = StageKind::Adc;
                    }
                }
            }
        }
    }
    if adjusted != out.periods {
        schedule_into(df, stages, &adjusted, &mut out.starts, &mut out.finishes);
        out.periods = adjusted;
    }
}

/// Reduces a solved pipeline to the whole-accelerator summary. `power` is
/// the candidate's realized total power and `total_macs` the model's MAC
/// count; both are inputs so scoring loops can reuse memoized values.
/// Float-identical to the corresponding [`SimReport`] fields.
pub fn summarize_pipeline(
    df: &Dataflow,
    solution: &PipelineSolution,
    power: Watts,
    total_macs: u64,
) -> AnalyticSummary {
    let n = solution.periods.len();
    let latency = solution.finishes.iter().cloned().fold(0.0, f64::max);
    let (bottleneck_layer, steady) = (0..n)
        .map(|i| (i, df.program(i).blocks as f64 * solution.periods[i]))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, latency));
    let macs = total_macs as f64;
    let throughput_ops = if steady > 0.0 {
        2.0 * macs / steady
    } else {
        0.0
    };
    AnalyticSummary {
        latency: Seconds(latency),
        steady_period: Seconds(steady),
        bottleneck_layer,
        throughput_ops,
        power,
        energy_per_image: Joules(power.value() * latency),
    }
}

/// Computes pipeline start/finish per layer: a layer starts once each
/// producer has emitted the blocks its first block needs, and finishes after
/// all its blocks plus the serial latency of the last one.
fn schedule_into(
    df: &Dataflow,
    stages: &[LayerStages],
    periods: &[f64],
    starts: &mut Vec<f64>,
    finishes: &mut Vec<f64>,
) {
    let n = stages.len();
    starts.clear();
    starts.resize(n, 0.0);
    finishes.clear();
    finishes.resize(n, 0.0);
    for i in 0..n {
        let prog = df.program(i);
        let mut start: f64 = 0.0;
        for (&p, &fill) in prog.producers.iter().zip(&prog.producer_fill) {
            let t = starts[p] + fill as f64 * periods[p] + stages[p].block_latency();
            start = start.max(t);
        }
        starts[i] = start;
        finishes[i] = start + prog.blocks as f64 * periods[i] + stages[i].block_latency();
    }
}

fn overlap_len(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_arch::{
        AdcConfig, ComponentCounts, CrossbarConfig, DacConfig, HardwareParams, LayerHardware,
        MacroMode, Watts,
    };
    use pimsyn_model::{ModelBuilder, TensorShape};

    fn tiny_model() -> Model {
        let mut b = ModelBuilder::new("t", TensorShape::new(3, 8, 8));
        let c1 = b.conv("c1", None, 8, 3, 1, 1);
        let r1 = b.relu("r1", c1);
        b.conv("c2", Some(r1), 8, 3, 1, 1);
        b.build().unwrap()
    }

    fn setup(dup: [usize; 2], adcs: usize) -> (Model, Dataflow, Architecture) {
        let model = tiny_model();
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(4).unwrap();
        let df = Dataflow::compile(&model, xb, dac, &dup).unwrap();
        let hw = HardwareParams::date24();
        let layers = (0..2)
            .map(|i| LayerHardware {
                layer: i,
                name: format!("c{}", i + 1),
                wt_dup: dup[i],
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
        (model, df, arch)
    }

    #[test]
    fn basic_report_sanity() {
        let (model, df, arch) = setup([2, 2], 2);
        let r = evaluate_analytic(&model, &df, &arch).unwrap();
        assert!(r.latency.value() > 0.0);
        assert!(r.steady_period.value() > 0.0);
        assert!(r.latency >= r.steady_period);
        assert!(r.throughput_ops > 0.0);
        assert!(r.efficiency_tops_per_watt() > 0.0);
        assert_eq!(r.per_layer.len(), 2);
    }

    #[test]
    fn duplication_improves_throughput() {
        let (model, df1, arch1) = setup([1, 1], 4);
        let (_, df4, arch4) = setup([4, 4], 4);
        let r1 = evaluate_analytic(&model, &df1, &arch1).unwrap();
        let r4 = evaluate_analytic(&model, &df4, &arch4).unwrap();
        assert!(
            r4.throughput_ops > r1.throughput_ops,
            "dup 4 {} !> dup 1 {}",
            r4.throughput_ops,
            r1.throughput_ops
        );
    }

    #[test]
    fn consumer_starts_after_producer_fill() {
        let (model, df, arch) = setup([2, 2], 2);
        let r = evaluate_analytic(&model, &df, &arch).unwrap();
        assert!(r.per_layer[1].start > r.per_layer[0].start);
        assert!(
            r.per_layer[1].start < r.per_layer[0].finish,
            "fine-grained pipeline overlap"
        );
    }

    #[test]
    fn sharing_overlapping_layers_increases_latency() {
        let (model, df, solo) = setup([2, 2], 1);
        let base = evaluate_analytic(&model, &df, &solo).unwrap();
        let mut shared = solo.clone();
        shared.layers[1].shares_macros_with = Some(0);
        let r = evaluate_analytic(&model, &df, &shared).unwrap();
        // These two layers overlap heavily, so sharing one ADC bank between
        // them must not make things faster; transfer savings may offset some
        // of the penalty but the ADC-bound steady period cannot shrink.
        let base_adc_busy = base.per_layer[0].period.value();
        let shared_adc_busy = r.per_layer[0].period.value();
        assert!(shared_adc_busy >= base_adc_busy * 0.999);
    }

    #[test]
    fn energy_equals_power_times_latency() {
        let (model, df, arch) = setup([2, 2], 2);
        let r = evaluate_analytic(&model, &df, &arch).unwrap();
        let expect = r.power.value() * r.latency.value();
        assert!((r.energy_per_image.value() - expect).abs() < 1e-15);
    }
}
