//! Serializes a synthesized PIMSYN design plus its workload into the
//! PIMSIM-NN configuration format, so a cycle-level ReRAM simulator can
//! replay the same accelerator and cross-check PIMSYN's analytic numbers.
//!
//! The emitted document (normative field table in
//! `docs/ARCHITECTURE.md`, "Export format") is a single JSON object:
//!
//! - `format` / `version` — `"pimsim-nn"` / [`FORMAT_VERSION`].
//! - `model` — workload identity: name, input shape, precisions.
//! - `sim_config` — chip-level knobs PIMSIM-NN needs to instantiate the
//!   substrate: crossbar size/cell bits, DAC resolution, macro/crossbar
//!   totals, NoC mesh, clock, power budget and RRAM power split.
//! - `network` — one entry per *weight layer* in pipeline order, carrying
//!   the operator (conv / fc / matmul), geometry (kernel, stride, groups,
//!   channels, spatial extents) and the fused post-ops (activation, pool,
//!   eltwise) exactly as PIMSYN scheduled them.
//! - `mapping` — the synthesized hardware assignment per layer: weight
//!   duplication, crossbar set/total, macros, macro sharing, ADC
//!   resolution and peripheral component counts.
//! - `expected` — PIMSYN's own evaluation of the design (latency, power,
//!   throughput, energy, efficiency) as cross-validation targets.
//!
//! Numbers are emitted through Rust's `f64` `Display`, which round-trips
//! exactly, so the text is a parse -> serialize fixed point. The crate
//! writes documents and reads none back: its test checks each written
//! tree against the `SynthesisResult` it came from, and the golden
//! documents in `tests/golden/export_pimsim.jsonl` pin the bytes.
//!
//! # Example
//!
//! ```no_run
//! use pimsyn::{SynthesisOptions, Synthesizer, Watts};
//! use pimsyn_model::zoo;
//!
//! let result = Synthesizer::new(SynthesisOptions::fast(Watts(8.0)))
//!     .synthesize(&zoo::alexnet_cifar(10))
//!     .unwrap();
//! let doc = pimsyn_export::export_document(&result);
//! let mapping = doc.get("mapping").and_then(|m| m.as_array()).unwrap();
//! assert_eq!(mapping.len(), result.model.weight_layer_count());
//! assert_eq!(pimsyn_export::to_pimsim_config(&result), doc.to_string());
//! ```

use pimsyn::SynthesisResult;
use pimsyn_model::json::JsonValue;
use pimsyn_model::LayerKind;

/// Version of the emitted document. Bump on any field change and record the
/// delta in the `docs/ARCHITECTURE.md` appendix.
pub const FORMAT_VERSION: u64 = 1;

/// Identifier in the document's `format` field.
pub const FORMAT_NAME: &str = "pimsim-nn";

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: f64) -> JsonValue {
    JsonValue::Number(n)
}

fn int(n: usize) -> JsonValue {
    JsonValue::Number(n as f64)
}

fn s(text: impl Into<String>) -> JsonValue {
    JsonValue::String(text.into())
}

/// Builds the export document as a JSON tree. Most callers want the
/// serialized form, [`to_pimsim_config`].
pub fn export_document(result: &SynthesisResult) -> JsonValue {
    let model = &result.model;
    let arch = &result.architecture;
    let report = result.best_report();
    let shape = model.input_shape();
    let precision = model.precision();
    let noc = arch.noc();

    let network: Vec<JsonValue> = model
        .weight_layers()
        .map(|wl| {
            let op = match model.layer(wl.id).kind {
                LayerKind::Conv2d { .. } => "conv",
                LayerKind::Linear { .. } => "fc",
                LayerKind::MatMul { .. } => "matmul",
                // Weight layers are exactly conv/fc/matmul by construction.
                _ => unreachable!("non-weight layer in weight_layers()"),
            };
            obj(vec![
                ("name", s(wl.name.clone())),
                ("op", s(op)),
                ("kernel", int(wl.kernel)),
                ("stride", int(wl.stride)),
                ("groups", int(wl.groups)),
                ("in_channels", int(wl.in_channels)),
                ("out_channels", int(wl.out_channels)),
                (
                    "in_extent",
                    JsonValue::Array(vec![int(wl.in_height), int(wl.in_width)]),
                ),
                (
                    "out_extent",
                    JsonValue::Array(vec![int(wl.out_height), int(wl.out_width)]),
                ),
                ("activation", s(if wl.relu { "relu" } else { "none" })),
                (
                    "pool",
                    s(wl.pool
                        .map(|(kind, _)| kind.to_string())
                        .unwrap_or_else(|| "none".to_string())),
                ),
                ("pool_size", int(wl.pool.map(|(_, size)| size).unwrap_or(0))),
                ("eltwise", JsonValue::Bool(wl.feeds_add)),
            ])
        })
        .collect();

    let mapping: Vec<JsonValue> = arch
        .layers
        .iter()
        .map(|lh| {
            obj(vec![
                ("layer", int(lh.layer)),
                ("name", s(lh.name.clone())),
                ("wt_dup", int(lh.wt_dup)),
                ("crossbar_set", int(lh.crossbar_set)),
                ("crossbars", int(lh.crossbars())),
                ("macros", int(lh.macros)),
                (
                    "shares_macros_with",
                    lh.shares_macros_with.map(int).unwrap_or(JsonValue::Null),
                ),
                ("adc_precision", int(lh.adc.bits() as usize)),
                (
                    "components",
                    obj(vec![
                        ("adc", int(lh.components.adc)),
                        ("shift_add", int(lh.components.shift_add)),
                        ("pool", int(lh.components.pool)),
                        ("activation", int(lh.components.activation)),
                        ("eltwise", int(lh.components.eltwise)),
                    ]),
                ),
            ])
        })
        .collect();

    obj(vec![
        ("format", s(FORMAT_NAME)),
        ("version", int(FORMAT_VERSION as usize)),
        (
            "model",
            obj(vec![
                ("name", s(model.name())),
                (
                    "input_shape",
                    JsonValue::Array(vec![
                        int(shape.channels),
                        int(shape.height),
                        int(shape.width),
                    ]),
                ),
                ("weight_precision", int(precision.weight_bits() as usize)),
                (
                    "activation_precision",
                    int(precision.activation_bits() as usize),
                ),
            ]),
        ),
        (
            "sim_config",
            obj(vec![
                ("xbar_size", int(arch.crossbar.size())),
                ("cell_precision", int(arch.crossbar.cell_bits() as usize)),
                ("dac_precision", int(arch.dac.bits() as usize)),
                ("macro_count", int(arch.macro_count())),
                ("crossbar_count", int(arch.crossbar_count())),
                ("noc_mesh_dim", int(noc.mesh_dim())),
                ("noc_flit_bits", int(arch.hw.noc_flit_bits as usize)),
                ("clock_hz", num(arch.hw.clock.value())),
                ("power_budget_watts", num(arch.power_budget.value())),
                ("ratio_rram", num(arch.ratio_rram)),
                ("macro_mode", s(arch.macro_mode.to_string())),
            ]),
        ),
        ("network", JsonValue::Array(network)),
        ("mapping", JsonValue::Array(mapping)),
        (
            "expected",
            obj(vec![
                ("latency_seconds", num(report.latency.value())),
                ("power_watts", num(report.power.value())),
                ("throughput_tops", num(report.throughput_tops())),
                (
                    "energy_per_image_joules",
                    num(report.energy_per_image.value()),
                ),
                (
                    "efficiency_tops_per_watt",
                    num(report.efficiency_tops_per_watt()),
                ),
            ]),
        ),
    ])
}

/// Serializes `result` as a compact single-line PIMSIM-NN config document.
pub fn to_pimsim_config(result: &SynthesisResult) -> String {
    export_document(result).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn::{SynthesisOptions, Synthesizer, Watts};
    use pimsyn_model::{zoo, Model};

    fn field<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
        value.get(key).unwrap_or_else(|| panic!("no field `{key}`"))
    }

    fn count(value: &JsonValue, key: &str) -> usize {
        field(value, key)
            .as_usize()
            .unwrap_or_else(|| panic!("`{key}` is not a count"))
    }

    fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
        field(value, key)
            .as_str()
            .unwrap_or_else(|| panic!("`{key}` is not a string"))
    }

    /// Synthesizes `model` at `watts` (fast effort, seed 3), checks the
    /// invariants of `docs/ARCHITECTURE.md` §8.7 on its written tree
    /// against the result, and checks that the text re-serializes byte for
    /// byte. Returns the result and the tree for model-specific checks.
    fn written_document(model: &Model, watts: f64) -> (SynthesisResult, JsonValue) {
        let result = Synthesizer::new(SynthesisOptions::fast(Watts(watts)).with_seed(3))
            .synthesize(model)
            .expect("synthesis succeeds");
        let arch = &result.architecture;
        // The pair rule of `shares_macros_with` (§8.7, invariant 4).
        arch.validate(model)
            .expect("synthesized architecture validates");
        let doc = export_document(&result);
        assert_eq!(text(&doc, "format"), FORMAT_NAME);
        assert_eq!(count(&doc, "version") as u64, FORMAT_VERSION);
        assert_eq!(text(field(&doc, "model"), "name"), model.name());

        let network = field(&doc, "network").as_array().unwrap();
        let mapping = field(&doc, "mapping").as_array().unwrap();
        assert_eq!(network.len(), model.weight_layer_count());
        assert_eq!(mapping.len(), network.len());
        for layer in network {
            assert!(matches!(text(layer, "op"), "conv" | "fc" | "matmul"));
            assert!(matches!(text(layer, "activation"), "relu" | "none"));
            assert!(matches!(text(layer, "pool"), "max" | "avg" | "none"));
            let groups = count(layer, "groups");
            assert!(groups > 0);
            assert_eq!(count(layer, "in_channels") % groups, 0);
            assert_eq!(count(layer, "out_channels") % groups, 0);
        }

        let mut crossbars = 0;
        for (i, (entry, lh)) in mapping.iter().zip(&arch.layers).enumerate() {
            assert_eq!(count(entry, "layer"), i);
            assert_eq!(text(entry, "name"), text(&network[i], "name"));
            assert_eq!(count(entry, "wt_dup"), lh.wt_dup);
            assert_eq!(count(entry, "crossbar_set"), lh.crossbar_set);
            assert_eq!(count(entry, "crossbars"), lh.wt_dup * lh.crossbar_set);
            assert_eq!(count(entry, "macros"), lh.macros);
            assert!(lh.wt_dup > 0 && lh.crossbar_set > 0 && lh.macros > 0);
            let shares = lh.shares_macros_with.map_or(JsonValue::Null, int);
            assert_eq!(field(entry, "shares_macros_with"), &shares);
            crossbars += count(entry, "crossbars");
        }
        let sim = field(&doc, "sim_config");
        assert_eq!(count(sim, "crossbar_count"), crossbars);
        assert_eq!(crossbars, arch.crossbar_count());
        assert_eq!(count(sim, "macro_count"), arch.macro_count());
        assert_eq!(field(sim, "power_budget_watts").as_f64(), Some(watts));

        let report = result.best_report();
        let expected = field(&doc, "expected");
        for (key, value) in [
            ("latency_seconds", report.latency.value()),
            ("power_watts", report.power.value()),
            ("throughput_tops", report.throughput_tops()),
            ("energy_per_image_joules", report.energy_per_image.value()),
            (
                "efficiency_tops_per_watt",
                report.efficiency_tops_per_watt(),
            ),
        ] {
            assert!(value.is_finite() && value >= 0.0, "{key} {value}");
            assert_eq!(field(expected, key).as_f64(), Some(value), "{key}");
        }

        // f64's Display round-trips exactly, so the text is a parse ->
        // serialize fixed point.
        let written = to_pimsim_config(&result);
        assert_eq!(written, doc.to_string());
        assert_eq!(JsonValue::parse(&written).unwrap().to_string(), written);
        (result, doc)
    }

    /// Index of the network entry named `name`.
    fn position(doc: &JsonValue, name: &str) -> usize {
        field(doc, "network")
            .as_array()
            .unwrap()
            .iter()
            .position(|l| text(l, "name") == name)
            .unwrap_or_else(|| panic!("no layer `{name}`"))
    }

    #[test]
    fn classic_model_round_trips() {
        let (_, doc) = written_document(&zoo::alexnet_cifar(10), 8.0);
        assert_eq!(text(field(&doc, "model"), "name"), "alexnet-cifar");
    }

    #[test]
    fn new_op_model_round_trips() {
        let (_, doc) = written_document(&zoo::transformer_tiny(), 6.0);
        let network = field(&doc, "network").as_array().unwrap();
        let matmuls = network.iter().filter(|l| text(l, "op") == "matmul");
        assert_eq!(matmuls.count(), 13, "embed + 2 x 6 projections");
        // Dynamic attention products surface as fused eltwise work.
        let q = &network[position(&doc, "enc1_q")];
        assert_eq!(field(q, "eltwise").as_bool(), Some(true));
    }

    #[test]
    fn grouped_layers_survive_export() {
        // Depthwise layers map block-diagonally (each group gets its own
        // tile), so MobileNet needs a generous crossbar budget.
        let model = zoo::mobilenet();
        let (result, doc) = written_document(&model, 120.0);
        let i = position(&doc, "b1_dw");
        let dw = &field(&doc, "network").as_array().unwrap()[i];
        assert_eq!(count(dw, "groups"), 32);
        assert_eq!(count(dw, "in_channels"), 32);
        // Block-diagonal sizing: Eq. (1) with the group factor.
        let wl = model.weight_layers().nth(i).unwrap();
        let set = result
            .architecture
            .crossbar
            .crossbar_set(wl, model.precision().weight_bits());
        let entry = &field(&doc, "mapping").as_array().unwrap()[i];
        assert_eq!(count(entry, "crossbar_set"), set);
    }
}
