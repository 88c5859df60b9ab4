//! Property-based cross-crate invariants: random small CNNs and design
//! points must uphold the synthesis stack's structural laws.
//!
//! Cases are drawn from a seeded RNG (no external property-test framework
//! is available offline), so every run exercises the same deterministic
//! sample of the input space; failures reproduce exactly.

use pimsyn::{SynthesisOptions, Synthesizer};
use pimsyn_arch::{CrossbarConfig, DacConfig, Watts};
use pimsyn_dse::{crossbars_used, sa_energy, wt_dup_candidates, SaConfig};
use pimsyn_ir::Dataflow;
use pimsyn_model::{LayerId, Model, ModelBuilder, TensorShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 48;

/// A random conv stack (1-4 conv layers + optional pooling + classifier)
/// on a small input.
fn arb_model(rng: &mut StdRng) -> Model {
    let ci = rng.gen_range(2usize..=4);
    let extent = rng.gen_range(8usize..=16);
    let convs = rng.gen_range(1usize..=4);
    let specs: Vec<(usize, bool)> = (0..4)
        .map(|_| (rng.gen_range(4usize..=24), rng.gen_bool(0.5)))
        .collect();
    let classes = rng.gen_range(1usize..=10);

    let mut b = ModelBuilder::new("prop", TensorShape::new(ci, extent, extent));
    let mut cur = None;
    let mut spatial = extent;
    for (i, &(width, pool)) in specs.iter().take(convs).enumerate() {
        let c = b.conv(format!("c{i}"), cur, width, 3, 1, 1);
        let r = b.relu(format!("r{i}"), c);
        cur = Some(if pool && spatial >= 4 {
            spatial /= 2;
            b.max_pool(format!("p{i}"), r, 2, 2)
        } else {
            r
        });
    }
    let f = b.flatten("flat", cur.expect("at least one conv"));
    b.linear("fc", f, classes);
    b.build().expect("generated model is valid")
}

fn arb_crossbar(rng: &mut StdRng) -> CrossbarConfig {
    let size = [128usize, 256, 512][rng.gen_range(0usize..3)];
    let cell = [1u32, 2, 4][rng.gen_range(0usize..3)];
    CrossbarConfig::new(size, cell).expect("legal by construction")
}

/// A random DAG mixing classic and modern op kinds: dense, grouped and
/// depthwise convs, residual adds, squeeze-excite gates (matmul + sigmoid +
/// broadcast mul), attention-style blocks (matmul + softmax + dynamic mul)
/// and pooling, ending in a classifier.
fn arb_modern_model(rng: &mut StdRng, case: usize) -> Model {
    // Widths stay a multiple of 4 so grouped convs always have legal
    // group counts to pick from.
    let ci = 4 * rng.gen_range(1usize..=2);
    let extent = rng.gen_range(8usize..=12);
    let blocks = rng.gen_range(1usize..=4);
    let classes = rng.gen_range(2usize..=10);

    let mut b = ModelBuilder::new(format!("prop-modern-{case}"), {
        TensorShape::new(ci, extent, extent)
    });
    let mut width = 4 * rng.gen_range(2usize..=6);
    let mut cur: LayerId = b.conv("stem", None, width, 3, 1, 1);
    cur = b.relu("stem_relu", cur);
    let mut spatial = extent;

    for i in 0..blocks {
        match rng.gen_range(0usize..5) {
            // Plain dense conv.
            0 => {
                width = 4 * rng.gen_range(2usize..=6);
                cur = b.conv(format!("c{i}"), Some(cur), width, 3, 1, 1);
                cur = b.relu(format!("c{i}_relu"), cur);
            }
            // Depthwise-separable pair.
            1 => {
                cur = b.depthwise_conv(format!("dw{i}"), cur, width, 3, 1, 1);
                width = 4 * rng.gen_range(2usize..=6);
                cur = b.conv(format!("pw{i}"), Some(cur), width, 1, 1, 0);
                cur = b.relu(format!("pw{i}_relu"), cur);
            }
            // Grouped conv with a random legal group count.
            2 => {
                let groups = [2usize, 4][rng.gen_range(0usize..2)];
                cur = b.grouped_conv(format!("g{i}"), Some(cur), width, 3, 1, 1, groups);
                cur = b.relu(format!("g{i}_relu"), cur);
            }
            // Residual block with an optional squeeze-excite gate.
            3 => {
                let skip = cur;
                let c1 = b.conv(format!("res{i}_c1"), Some(cur), width, 3, 1, 1);
                let r1 = b.relu(format!("res{i}_r1"), c1);
                let mut trunk = b.conv(format!("res{i}_c2"), Some(r1), width, 3, 1, 1);
                if rng.gen_bool(0.5) {
                    let gap = b.global_avg_pool(format!("se{i}_gap"), trunk);
                    let fc1 = b.matmul(format!("se{i}_fc1"), gap, (width / 4).max(1));
                    let act = b.relu(format!("se{i}_relu"), fc1);
                    let fc2 = b.matmul(format!("se{i}_fc2"), act, width);
                    let gate = b.sigmoid(format!("se{i}_sig"), fc2);
                    trunk = b.mul(format!("se{i}_mul"), trunk, gate);
                }
                let add = b.add(format!("res{i}_add"), trunk, skip);
                cur = b.relu(format!("res{i}_out"), add);
            }
            // Attention-style block: q/k/v projections, dynamic products.
            _ => {
                let q = b.matmul(format!("att{i}_q"), cur, width);
                let k = b.matmul(format!("att{i}_k"), cur, width);
                let v = b.matmul(format!("att{i}_v"), cur, width);
                let scores = b.mul(format!("att{i}_qk"), q, k);
                let weights = b.softmax(format!("att{i}_sm"), scores);
                let attended = b.mul(format!("att{i}_av"), weights, v);
                let o = b.matmul(format!("att{i}_o"), attended, width);
                cur = b.add(format!("att{i}_res"), o, cur);
            }
        }
        if rng.gen_bool(0.3) && spatial >= 4 {
            spatial /= 2;
            cur = b.max_pool(format!("pool{i}"), cur, 2, 2);
        }
    }

    let gap = b.global_avg_pool("gap", cur);
    let f = b.flatten("flat", gap);
    b.linear("fc", f, classes);
    b.build().expect("generated modern model is valid")
}

#[test]
fn synthesis_over_modern_dags_is_total() {
    // Full synthesis per case is heavier than the structural checks above,
    // so this property runs a smaller (still seeded) sample.
    let mut rng = StdRng::seed_from_u64(0x5EED_0006);
    for case in 0..CASES / 3 {
        let model = arb_modern_model(&mut rng, case);
        let power = rng.gen_range(2.0f64..30.0);
        let options = SynthesisOptions::fast(Watts(power)).with_seed(rng.gen());
        // Synthesis must never panic: it either produces a feasible
        // implementation or reports a clean, displayable error.
        match Synthesizer::new(options).synthesize(&model) {
            Ok(result) => {
                assert_eq!(result.wt_dup.len(), model.weight_layer_count());
                assert_eq!(
                    result.architecture.crossbar_count(),
                    result.dataflow.total_crossbars(),
                    "case {case}: architecture and dataflow disagree"
                );
                let report = result.best_report();
                assert!(
                    report.power.value().is_finite() && report.power.value() > 0.0,
                    "case {case}: power {}",
                    report.power
                );
                assert!(
                    report.power.value() <= power * (1.0 + 1e-9),
                    "case {case}: power {} exceeds budget {power}",
                    report.power
                );
                assert!(report.latency.value().is_finite() && report.latency.value() > 0.0);
                assert!(report.efficiency_tops_per_watt().is_finite());
            }
            Err(e) => {
                // Cleanly infeasible: the error formats and names no panic.
                let text = e.to_string();
                assert!(!text.is_empty(), "case {case}: empty error");
            }
        }
    }
}

#[test]
fn sa_candidates_always_feasible() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        let xb = arb_crossbar(&mut rng);
        let extra = rng.gen_range(0usize..4000);
        let one_copy = crossbars_used(&model, xb, &vec![1; model.weight_layer_count()]);
        let budget = one_copy + extra;
        let cands = wt_dup_candidates(&model, xb, budget, &SaConfig::fast(), 0xD1CE).unwrap();
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(crossbars_used(&model, xb, c) <= budget);
            assert!(c.iter().all(|&d| d >= 1));
        }
    }
}

#[test]
fn full_duplication_zeroes_block_imbalance() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        // If every layer is duplicated to one block, the first Eq. (4) term
        // vanishes, so energy at alpha=0 must be ~0.
        let dup: Vec<usize> = model
            .weight_layers()
            .map(|wl| wl.output_positions())
            .collect();
        let e = sa_energy(&model, &dup, 0.0);
        assert!(e.abs() < 1e-9, "energy {e}");
    }
}

#[test]
fn dataflow_workloads_are_duplication_invariant_in_total() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        let xb = arb_crossbar(&mut rng);
        let dup_scale = rng.gen_range(1usize..6);
        let dac = DacConfig::new(1).expect("legal");
        let l = model.weight_layer_count();
        let base = Dataflow::compile(&model, xb, dac, &vec![1; l]).unwrap();
        let dup: Vec<usize> = model
            .weight_layers()
            .map(|wl| dup_scale.min(wl.output_positions()))
            .collect();
        let scaled = Dataflow::compile(&model, xb, dac, &dup).unwrap();
        for (a, b) in base.programs().iter().zip(scaled.programs()) {
            // Total ADC samples per inference are duplication-invariant up
            // to the ragged final block (ceil(positions/dup) x dup may
            // exceed positions by at most dup - 1 positions' worth).
            let per_position = a.total_adc_samples() / a.blocks.max(1) as u64;
            let slack = per_position * dup[a.layer] as u64;
            assert!(b.total_adc_samples() >= a.total_adc_samples());
            assert!(
                b.total_adc_samples() <= a.total_adc_samples() + slack,
                "layer {}: {} vs {} (+{slack})",
                a.layer,
                b.total_adc_samples(),
                a.total_adc_samples()
            );
            // Crossbars scale exactly with the duplication factor.
            assert_eq!(b.crossbars, a.crossbars * dup[a.layer]);
        }
    }
}

#[test]
fn pipeline_dependencies_monotone_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        let xb = arb_crossbar(&mut rng);
        let dac = DacConfig::new(2).expect("legal");
        let l = model.weight_layer_count();
        let df = Dataflow::compile(&model, xb, dac, &vec![2; l]).unwrap();
        for consumer in 0..l {
            for &producer in &df.program(consumer).producers.clone() {
                let producer_blocks = df.program(producer).blocks;
                let mut prev = 0;
                for cnt in 0..df.program(consumer).blocks {
                    let need = df.producer_blocks_needed(consumer, cnt, producer);
                    assert!(need >= prev, "dependency must be monotone");
                    assert!(need <= producer_blocks, "dependency exceeds producer");
                    prev = need;
                }
                // The last block needs (nearly) everything reachable.
                assert!(prev >= producer_blocks / 2);
            }
        }
    }
}
