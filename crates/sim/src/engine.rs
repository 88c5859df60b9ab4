//! Cycle-accurate IR-based behavior-level simulator (the paper's evaluation
//! vehicle, Sec. V).
//!
//! The engine executes each layer's computation blocks through the full IR
//! stage chain (`load -> MVM/ADC/shift-add bit loop -> post-ops -> merge ->
//! store -> transfer`) as a discrete-event simulation:
//!
//! - every stage serializes on its physical resource (scratchpad port,
//!   crossbar arrays, ADC bank, ALU sets, NoC egress link);
//! - ADC banks are owned by *macro groups*, so layers sharing macros contend
//!   for the same converters — the mechanism behind Fig. 5;
//! - a block starts only when its producers have made enough output visible
//!   (fine-grained inter-layer pipelining, Fig. 4), where visibility
//!   includes the NoC transfer when producer and consumer live in different
//!   macro groups;
//! - multiple images can be streamed back-to-back to measure steady-state
//!   throughput rather than single-shot latency.
//!
//! Events are processed in approximate global time order (a binary heap on
//! each layer's next feasible start), so cross-layer resource contention is
//! resolved the way concurrent hardware would.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pimsyn_arch::{Architecture, Joules, Seconds};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;

use crate::error::SimError;
use crate::metrics::{LayerPerf, SimReport, Utilization};
use crate::stages::{compute_stages, LayerStages};

/// Maximum blocks a layer advances per scheduler pop; amortizes heap churn
/// while keeping cross-layer interleaving close to global time order.
const BATCH: usize = 16;

/// A totally-ordered f64 key for the scheduler heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug)]
struct LayerRt {
    /// Per-image blocks.
    blocks: usize,
    /// Total blocks across all simulated images.
    total_blocks: usize,
    next_block: usize,
    /// Time each finished block's output becomes visible to consumers.
    visible: Vec<f64>,
    /// Resource busy-until times.
    load_port: f64,
    xbar: f64,
    sa: f64,
    post: f64,
    store_port: f64,
    out_link: f64,
    /// Macro-group index owning this layer's ADC bank.
    adc_group: usize,
    /// Diagnostics.
    first_start: f64,
    last_finish: f64,
    busy_xbar: f64,
    busy_adc: f64,
    busy_sa: f64,
    busy_post: f64,
}

/// The most pipeline blocks (summed over layers and images) one
/// [`simulate`] call tracks. Each block keeps an 8-byte timestamp, so the
/// bound caps that state at ~134 MB; vgg16 at 224×224 without duplication
/// has ~138k blocks per image, so at least 121 images of any zoo model
/// still simulate.
pub const MAX_SIMULATED_BLOCKS: usize = 1 << 24;

/// Simulates `images` back-to-back inferences of `model` on `arch`.
///
/// Returns a [`SimReport`] whose `latency` is the first image's end-to-end
/// time and whose `steady_period` is the marginal per-image time when
/// `images > 1` (otherwise the single-image latency).
///
/// # Errors
///
/// - [`SimError::ZeroImages`] if `images == 0`.
/// - [`SimError::TooManyBlocks`] if the run would track more than
///   [`MAX_SIMULATED_BLOCKS`] blocks.
/// - Stage-model errors ([`SimError::InvalidSharing`],
///   [`SimError::MissingComponent`], [`SimError::LayerCountMismatch`]).
pub fn simulate(
    model: &Model,
    df: &Dataflow,
    arch: &Architecture,
    images: usize,
) -> Result<SimReport, SimError> {
    if images == 0 {
        return Err(SimError::ZeroImages);
    }
    let stages = compute_stages(df, arch)?;
    let n = stages.len();
    let total_blocks = (0..n).try_fold(0usize, |sum, i| {
        df.program(i)
            .blocks
            .checked_mul(images)
            .and_then(|blocks| sum.checked_add(blocks))
    });
    if total_blocks.is_none_or(|blocks| blocks > MAX_SIMULATED_BLOCKS) {
        return Err(SimError::TooManyBlocks {
            images,
            limit: MAX_SIMULATED_BLOCKS,
        });
    }

    // Map each layer to its macro group's shared ADC bank.
    let groups = arch.macro_groups();
    let mut group_of = vec![0usize; n];
    for (gi, g) in groups.iter().enumerate() {
        for &m in &g.members {
            group_of[m] = gi;
        }
    }
    let mut adc_free = vec![0.0f64; groups.len()];

    let mut layers: Vec<LayerRt> = (0..n)
        .map(|i| {
            let blocks = df.program(i).blocks;
            LayerRt {
                blocks,
                total_blocks: blocks * images,
                next_block: 0,
                visible: vec![0.0; blocks * images],
                load_port: 0.0,
                xbar: 0.0,
                sa: 0.0,
                post: 0.0,
                store_port: 0.0,
                out_link: 0.0,
                adc_group: group_of[i],
                first_start: f64::INFINITY,
                last_finish: 0.0,
                busy_xbar: 0.0,
                busy_adc: 0.0,
                busy_sa: 0.0,
                busy_post: 0.0,
            }
        })
        .collect();

    // waiters[p] = layers blocked until producer p completes more blocks.
    let mut waiters: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut queue: BinaryHeap<Reverse<(Key, usize)>> = BinaryHeap::new();
    let mut queued = vec![false; n];
    for (i, q) in queued.iter_mut().enumerate() {
        queue.push(Reverse((Key(0.0), i)));
        *q = true;
    }

    while let Some(Reverse((_, l))) = queue.pop() {
        queued[l] = false;
        let mut advanced = 0usize;
        loop {
            if layers[l].next_block >= layers[l].total_blocks || advanced >= BATCH {
                break;
            }
            match advance_one(l, df, &stages, &mut layers, &mut adc_free) {
                Advance::Done => advanced += 1,
                Advance::Blocked(producer) => {
                    if !waiters[producer].contains(&l) {
                        waiters[producer].push(l);
                    }
                    break;
                }
            }
        }
        if advanced > 0 {
            // Wake consumers that were waiting on this layer's progress.
            let woken = std::mem::take(&mut waiters[l]);
            for w in woken {
                if !queued[w] {
                    let est = next_estimate(w, &layers);
                    queue.push(Reverse((Key(est), w)));
                    queued[w] = true;
                }
            }
            if layers[l].next_block < layers[l].total_blocks && !queued[l] {
                let est = next_estimate(l, &layers);
                queue.push(Reverse((Key(est), l)));
                queued[l] = true;
            }
        }
    }

    // All layers must have drained (the dependency graph is acyclic and
    // producers always precede consumers, so starvation is impossible).
    debug_assert!(layers.iter().all(|s| s.next_block == s.total_blocks));

    // Per-image completion: the slowest layer's last block of that image.
    let mut completion = vec![0.0f64; images];
    for (i, st) in layers.iter().enumerate() {
        let b = layers[i].blocks;
        debug_assert_eq!(st.blocks, b);
        for (img, c) in completion.iter_mut().enumerate() {
            let idx = (img + 1) * b - 1;
            *c = c.max(st.visible[idx]);
        }
    }
    let latency = completion[0];
    let makespan = completion[images - 1];
    let steady = if images > 1 {
        (completion[images - 1] - completion[0]) / (images - 1) as f64
    } else {
        latency
    };

    // Energy: busy-time of dynamic resources x their power, plus per-macro
    // static infrastructure over the whole run, normalized per image.
    let hw = &arch.hw;
    let breakdown = arch.power_breakdown();
    let mut dynamic = 0.0f64;
    for (i, st) in layers.iter().enumerate() {
        let lh = &arch.layers[i];
        let xbar_power = arch.crossbar.power(hw).value() * lh.crossbars() as f64
            + arch.dac.power(hw).value() * (lh.crossbars() * arch.crossbar.size()) as f64;
        let adc_power = lh.adc.power(hw).value() * arch.effective_adcs(i) as f64;
        let sa_power = hw.shift_add_power.value() * lh.components.shift_add as f64;
        let post_power = hw.pool_power.value() * lh.components.pool as f64
            + hw.activation_power.value() * lh.components.activation as f64
            + hw.eltwise_power.value() * lh.components.eltwise as f64;
        dynamic += st.busy_xbar * xbar_power
            + st.busy_adc * adc_power
            + st.busy_sa * sa_power
            + st.busy_post * post_power;
    }
    let static_power = breakdown.scratchpad + breakdown.noc + breakdown.register;
    let energy_total = dynamic + static_power.value() * makespan;
    let energy_per_image = energy_total / images as f64;

    let per_layer: Vec<LayerPerf> = (0..n)
        .map(|i| {
            let st = &layers[i];
            let (p, kind) = stages[i].period();
            LayerPerf {
                layer: i,
                period: Seconds(p),
                busy: Seconds(st.busy_xbar.max(st.busy_adc)),
                start: Seconds(if st.first_start.is_finite() {
                    st.first_start
                } else {
                    0.0
                }),
                finish: Seconds(st.last_finish),
                bottleneck: kind,
            }
        })
        .collect();

    let bottleneck_layer = (0..n)
        .max_by(|&a, &b| {
            let ba = df.program(a).blocks as f64 * per_layer[a].period.value();
            let bb = df.program(b).blocks as f64 * per_layer[b].period.value();
            ba.total_cmp(&bb)
        })
        .unwrap_or(0);

    let macs = model.stats().total_macs as f64;
    let throughput_ops = if steady > 0.0 {
        2.0 * macs / steady
    } else {
        0.0
    };

    // Busy fractions: average each class's per-layer busy time over the
    // makespan (layers own their crossbars/ALUs; ADC banks are per group).
    let span = makespan.max(1e-30);
    let nl = layers.len().max(1) as f64;
    let utilization = Utilization {
        crossbar: layers.iter().map(|s| s.busy_xbar).sum::<f64>() / (nl * span),
        adc: layers.iter().map(|s| s.busy_adc).sum::<f64>() / (groups.len().max(1) as f64 * span),
        shift_add: layers.iter().map(|s| s.busy_sa).sum::<f64>() / (nl * span),
        post: layers.iter().map(|s| s.busy_post).sum::<f64>() / (nl * span),
    };

    Ok(SimReport {
        latency: Seconds(latency),
        steady_period: Seconds(steady),
        throughput_ops,
        power: breakdown.total(),
        energy_per_image: Joules(energy_per_image),
        bottleneck_layer,
        utilization,
        per_layer,
    })
}

enum Advance {
    Done,
    Blocked(usize),
}

fn next_estimate(l: usize, layers: &[LayerRt]) -> f64 {
    layers[l].load_port
}

fn advance_one(
    l: usize,
    df: &Dataflow,
    stages: &[LayerStages],
    layers: &mut [LayerRt],
    adc_free: &mut [f64],
) -> Advance {
    let b = layers[l].next_block;
    let blocks = layers[l].blocks;
    let img = b / blocks;
    let local = b % blocks;
    let s = stages[l];

    // Fine-grained inter-layer dependency within the same image.
    let mut dep_time = 0.0f64;
    let producers = df.program(l).producers.clone();
    for p in producers {
        let needed_local = df.producer_blocks_needed(l, local, p);
        if needed_local > 0 {
            let needed_global = img * layers[p].blocks + needed_local;
            if layers[p].next_block < needed_global {
                return Advance::Blocked(p);
            }
            dep_time = dep_time.max(layers[p].visible[needed_global - 1]);
        }
    }

    let st = &mut layers[l];
    let t0 = dep_time.max(st.load_port);
    st.first_start = st.first_start.min(t0);
    let load_end = t0 + s.load;
    st.load_port = load_end;

    let bits = s.bits as f64;
    let mvm_start = load_end.max(st.xbar);
    let mvm_end = mvm_start + bits * s.mvm_bit;
    st.xbar = mvm_end;
    st.busy_xbar += bits * s.mvm_bit;

    // The ADC bank belongs to the macro group and may be contended by a
    // sharing partner; it can start once the first bit's analog result is
    // held (S&H), pipelined with the remaining bit iterations.
    let group = st.adc_group;
    let adc_start = (mvm_start + s.mvm_bit).max(adc_free[group]);
    let adc_end = adc_start + bits * s.adc_bit;
    adc_free[group] = adc_end;
    st.busy_adc += bits * s.adc_bit;

    let sa_start = (adc_start + s.adc_bit).max(st.sa);
    let sa_end = sa_start + bits * s.sa_bit;
    st.sa = sa_end;
    st.busy_sa += bits * s.sa_bit;

    let ready = mvm_end.max(adc_end).max(sa_end);
    let post_start = ready.max(st.post);
    let post_end = post_start + s.post + s.merge;
    st.post = post_end;
    st.busy_post += s.post + s.merge;

    let store_start = post_end.max(st.store_port);
    let store_end = store_start + s.store;
    st.store_port = store_end;

    let visible = if s.transfer > 0.0 {
        let x_start = store_end.max(st.out_link);
        let x_end = x_start + s.transfer;
        st.out_link = x_end;
        x_end
    } else {
        store_end
    };

    st.visible[b] = visible;
    st.last_finish = st.last_finish.max(visible);
    st.next_block = b + 1;
    Advance::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::evaluate_analytic;
    use pimsyn_arch::{
        AdcConfig, ComponentCounts, CrossbarConfig, DacConfig, HardwareParams, LayerHardware,
        MacroMode, Watts,
    };
    use pimsyn_model::{ModelBuilder, TensorShape};

    fn tiny_model() -> Model {
        let mut b = ModelBuilder::new("t", TensorShape::new(3, 8, 8));
        let c1 = b.conv("c1", None, 8, 3, 1, 1);
        let r1 = b.relu("r1", c1);
        let p1 = b.max_pool("p1", r1, 2, 2);
        b.conv("c2", Some(p1), 8, 3, 1, 1);
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
    fn zero_images_rejected() {
        let (model, df, arch) = setup([2, 2], 2);
        assert!(matches!(
            simulate(&model, &df, &arch, 0),
            Err(SimError::ZeroImages)
        ));
    }

    #[test]
    fn block_bound_rejects_huge_image_counts_before_allocating() {
        let (model, df, arch) = setup([2, 2], 2);
        for images in [100_000_000_000_000, usize::MAX] {
            assert_eq!(
                simulate(&model, &df, &arch, images).unwrap_err(),
                SimError::TooManyBlocks {
                    images,
                    limit: MAX_SIMULATED_BLOCKS
                }
            );
        }
    }

    #[test]
    fn single_image_completes() {
        let (model, df, arch) = setup([2, 2], 2);
        let r = simulate(&model, &df, &arch, 1).unwrap();
        assert!(r.latency.value() > 0.0);
        assert_eq!(r.steady_period, r.latency);
        assert!(r.energy_per_image.value() > 0.0);
    }

    #[test]
    fn pipelining_beats_serial_execution() {
        let (model, df, arch) = setup([4, 4], 4);
        let r1 = simulate(&model, &df, &arch, 1).unwrap();
        let r4 = simulate(&model, &df, &arch, 4).unwrap();
        // Marginal per-image cost in steady state must be below the full
        // single-image latency (the inter-layer pipeline overlaps images).
        assert!(
            r4.steady_period.value() < r1.latency.value(),
            "steady {} !< latency {}",
            r4.steady_period.value(),
            r1.latency.value()
        );
    }

    #[test]
    fn engine_and_analytic_agree_on_ordering() {
        // Analytic and cycle models must rank configurations the same way:
        // more ADCs -> faster.
        let (model, df, arch2) = setup([2, 2], 1);
        let (_, _, arch8) = setup([2, 2], 8);
        let slow = simulate(&model, &df, &arch2, 1).unwrap();
        let fast = simulate(&model, &df, &arch8, 1).unwrap();
        assert!(fast.latency < slow.latency);
        let a_slow = evaluate_analytic(&model, &df, &arch2).unwrap();
        let a_fast = evaluate_analytic(&model, &df, &arch8).unwrap();
        assert!(a_fast.latency < a_slow.latency);
    }

    #[test]
    fn engine_within_factor_of_analytic() {
        let (model, df, arch) = setup([2, 2], 2);
        let cyc = simulate(&model, &df, &arch, 1).unwrap();
        let ana = evaluate_analytic(&model, &df, &arch).unwrap();
        let ratio = cyc.latency.value() / ana.latency.value();
        assert!(
            (0.3..3.0).contains(&ratio),
            "cycle {} vs analytic {} (ratio {ratio})",
            cyc.latency.value(),
            ana.latency.value()
        );
    }

    #[test]
    fn adc_sharing_contention_observed() {
        let (model, df, mut arch) = setup([2, 2], 1);
        let solo = simulate(&model, &df, &arch, 1).unwrap();
        arch.layers[1].shares_macros_with = Some(0);
        let shared = simulate(&model, &df, &arch, 1).unwrap();
        // One ADC bank now serves two overlapping layers: not faster.
        // (Transfer savings may partially offset, hence the slack factor.)
        assert!(shared.latency.value() > solo.latency.value() * 0.8);
    }

    #[test]
    fn dependency_order_is_respected() {
        let (model, df, arch) = setup([2, 2], 2);
        let r = simulate(&model, &df, &arch, 1).unwrap();
        // Consumer cannot finish before its producer finishes (it needs the
        // producer's last rows for its last rows).
        assert!(r.per_layer[1].finish >= r.per_layer[0].finish);
        assert!(r.per_layer[1].start.value() > 0.0);
    }

    #[test]
    fn utilization_fractions_are_bounded() {
        let (model, df, arch) = setup([2, 2], 2);
        let r = simulate(&model, &df, &arch, 2).unwrap();
        for u in [
            r.utilization.crossbar,
            r.utilization.adc,
            r.utilization.shift_add,
            r.utilization.post,
        ] {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&u),
                "utilization {u} out of range"
            );
        }
        assert!(r.utilization.adc > 0.0, "adc bank must have been busy");
    }

    #[test]
    fn energy_scales_with_images() {
        let (model, df, arch) = setup([2, 2], 2);
        let r1 = simulate(&model, &df, &arch, 1).unwrap();
        let r3 = simulate(&model, &df, &arch, 3).unwrap();
        // Per-image energy in steady state is no larger than single-shot
        // (static power amortizes over overlapped images).
        assert!(r3.energy_per_image.value() <= r1.energy_per_image.value() * 1.05);
    }
}
