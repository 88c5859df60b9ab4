//! Edge cases and failure injection for the evaluation stack: degenerate
//! networks, extreme duplication, starved resources and saturated sharing.

use pimsyn_arch::{
    AdcConfig, Architecture, ComponentCounts, CrossbarConfig, DacConfig, HardwareParams,
    LayerHardware, MacroMode, Watts,
};
use pimsyn_ir::Dataflow;
use pimsyn_model::{Model, ModelBuilder, TensorShape};
use pimsyn_sim::{evaluate_analytic, simulate, SimError};

fn arch_for(df: &Dataflow, model: &Model, adcs: usize, macros: usize) -> Architecture {
    let hw = HardwareParams::date24();
    let layers = df
        .programs()
        .iter()
        .map(|p| LayerHardware {
            layer: p.layer,
            name: p.name.clone(),
            wt_dup: p.wt_dup,
            crossbar_set: p.crossbar_set,
            macros,
            shares_macros_with: None,
            adc: AdcConfig::new(8, &hw),
            components: ComponentCounts {
                adc: adcs,
                shift_add: 4,
                pool: 2,
                activation: 2,
                eltwise: 2,
            },
        })
        .collect();
    Architecture {
        model_name: model.name().to_string(),
        crossbar: df.crossbar(),
        dac: df.dac(),
        ratio_rram: 0.3,
        power_budget: Watts(50.0),
        macro_mode: MacroMode::Specialized,
        layers,
        hw,
    }
}

fn single_fc() -> Model {
    let mut b = ModelBuilder::new("fc-only", TensorShape::new(64, 1, 1));
    let id = b.layer("id", pimsyn_model::LayerKind::Relu, vec![]);
    let f = b.flatten("flat", id);
    b.linear("fc", f, 10);
    b.build().expect("valid")
}

#[test]
fn single_fc_layer_simulates() {
    // A network whose only weight layer has exactly one computation block.
    let model = single_fc();
    assert_eq!(model.weight_layer_count(), 1);
    let df = Dataflow::compile(
        &model,
        CrossbarConfig::new(128, 2).expect("legal"),
        DacConfig::new(4).expect("legal"),
        &[1],
    )
    .expect("compiles");
    assert_eq!(df.program(0).blocks, 1);
    let arch = arch_for(&df, &model, 2, 1);
    let cyc = simulate(&model, &df, &arch, 1).expect("simulates");
    let ana = evaluate_analytic(&model, &df, &arch).expect("evaluates");
    assert!(cyc.latency.value() > 0.0);
    assert!(ana.latency.value() > 0.0);
    assert_eq!(cyc.steady_period, cyc.latency);
}

#[test]
fn full_duplication_gives_single_block_per_layer() {
    // dup = HO*WO collapses every layer to one block; the pipeline reduces
    // to a pure layer chain and must still be causally ordered.
    let mut b = ModelBuilder::new("chain", TensorShape::new(3, 8, 8));
    let c1 = b.conv("c1", None, 4, 3, 1, 1);
    let c2 = b.conv("c2", Some(c1), 4, 3, 1, 1);
    b.conv("c3", Some(c2), 4, 3, 1, 1);
    let model = b.build().expect("valid");
    let dup: Vec<usize> = model
        .weight_layers()
        .map(|w| w.output_positions())
        .collect();
    let df = Dataflow::compile(
        &model,
        CrossbarConfig::new(128, 1).expect("legal"),
        DacConfig::new(4).expect("legal"),
        &dup,
    )
    .expect("compiles");
    for p in df.programs() {
        assert_eq!(p.blocks, 1);
    }
    let arch = arch_for(&df, &model, 4, 1);
    let r = simulate(&model, &df, &arch, 1).expect("simulates");
    for w in r.per_layer.windows(2) {
        assert!(
            w[1].finish >= w[0].finish,
            "chained layers must finish in order"
        );
    }
}

#[test]
fn deep_chain_accumulates_fill_latency() {
    // 12 stacked convs: latency must grow with depth (pipeline fill).
    let mut b = ModelBuilder::new("deep", TensorShape::new(4, 12, 12));
    let mut cur = None;
    for i in 0..12 {
        let c = b.conv(format!("c{i}"), cur, 4, 3, 1, 1);
        cur = Some(b.relu(format!("r{i}"), c));
    }
    let model = b.build().expect("valid");
    let l = model.weight_layer_count();
    let xb = CrossbarConfig::new(128, 2).expect("legal");
    let dac = DacConfig::new(4).expect("legal");
    let df_full = Dataflow::compile(&model, xb, dac, &vec![4; l]).expect("compiles");
    let arch = arch_for(&df_full, &model, 2, 1);
    let r = simulate(&model, &df_full, &arch, 1).expect("simulates");
    // Later layers start strictly later than earlier ones.
    assert!(r.per_layer[11].start > r.per_layer[0].start);
    assert!(r.per_layer[11].start > r.per_layer[5].start);
}

#[test]
fn starved_adc_bank_is_reported_not_hung() {
    let model = single_fc();
    let df = Dataflow::compile(
        &model,
        CrossbarConfig::new(128, 2).expect("legal"),
        DacConfig::new(4).expect("legal"),
        &[1],
    )
    .expect("compiles");
    let mut arch = arch_for(&df, &model, 2, 1);
    arch.layers[0].components.adc = 0;
    assert!(matches!(
        simulate(&model, &df, &arch, 1),
        Err(SimError::MissingComponent {
            component: "adc",
            ..
        })
    ));
}

#[test]
fn sharing_that_breaks_the_pair_rule_is_a_typed_error() {
    // `Architecture::validate` rejects these hand-built shares; both
    // evaluators must report the broken rule instead of panicking or
    // building a group no synthesis path can produce.
    let mut b = ModelBuilder::new("shared", TensorShape::new(3, 8, 8));
    let c1 = b.conv("c1", None, 4, 3, 1, 1);
    let c2 = b.conv("c2", Some(c1), 4, 3, 1, 1);
    b.conv("c3", Some(c2), 4, 3, 1, 1);
    let model = b.build().expect("valid");
    let df = Dataflow::compile(
        &model,
        CrossbarConfig::new(128, 2).expect("legal"),
        DacConfig::new(4).expect("legal"),
        &[2, 2, 2],
    )
    .expect("compiles");
    let cases = [
        // Double sharer: layers 1 and 2 both share layer 0.
        (
            [None, Some(0), Some(0)],
            (2, 0, "another layer already shares them"),
        ),
        // Chain 2 -> 1 -> 0.
        (
            [None, Some(0), Some(1)],
            (2, 1, "that layer shares another layer's macros"),
        ),
        // Forward share.
        (
            [Some(1), None, None],
            (0, 1, "sharing must point to an earlier layer"),
        ),
    ];
    for (shares, (layer, target, reason)) in cases {
        let mut arch = arch_for(&df, &model, 2, 1);
        for (lh, share) in arch.layers.iter_mut().zip(shares) {
            lh.shares_macros_with = share;
        }
        let expected = SimError::InvalidSharing {
            layer,
            target,
            reason,
        };
        assert_eq!(simulate(&model, &df, &arch, 1), Err(expected.clone()));
        assert_eq!(evaluate_analytic(&model, &df, &arch).err(), Some(expected));
    }
}

#[test]
fn multi_macro_layers_use_parallel_bandwidth() {
    let mut b = ModelBuilder::new("wide", TensorShape::new(64, 8, 8));
    b.conv("c1", None, 128, 3, 1, 1);
    let model = b.build().expect("valid");
    let df = Dataflow::compile(
        &model,
        CrossbarConfig::new(128, 2).expect("legal"),
        DacConfig::new(4).expect("legal"),
        &[4],
    )
    .expect("compiles");
    let narrow = arch_for(&df, &model, 8, 1);
    let wide = arch_for(&df, &model, 8, 4); // rule (c): dup 4 x 5 row groups
    let rn = simulate(&model, &df, &narrow, 1).expect("narrow");
    let rw = simulate(&model, &df, &wide, 1).expect("wide");
    // More macros -> more scratchpad/NoC bandwidth -> no slower.
    assert!(rw.latency.value() <= rn.latency.value() * 1.01);
}

#[test]
fn many_images_converge_to_steady_state() {
    let mut b = ModelBuilder::new("steady", TensorShape::new(3, 8, 8));
    let c1 = b.conv("c1", None, 8, 3, 1, 1);
    b.conv("c2", Some(c1), 8, 3, 1, 1);
    let model = b.build().expect("valid");
    let df = Dataflow::compile(
        &model,
        CrossbarConfig::new(128, 2).expect("legal"),
        DacConfig::new(4).expect("legal"),
        &[4, 4],
    )
    .expect("compiles");
    let arch = arch_for(&df, &model, 4, 1);
    let r4 = simulate(&model, &df, &arch, 4).expect("4 images");
    let r8 = simulate(&model, &df, &arch, 8).expect("8 images");
    // The marginal per-image period stabilizes.
    let p4 = r4.steady_period.value();
    let p8 = r8.steady_period.value();
    assert!(
        (p4 - p8).abs() / p4 < 0.25,
        "steady period should converge: {p4} vs {p8}"
    );
}
