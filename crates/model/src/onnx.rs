//! ONNX-style model ingestion.
//!
//! PIMSYN consumes CNNs "described in the ONNX format". This module provides
//! the equivalent ingestion path for the reproduction: an ONNX-like
//! graph-of-nodes description serialized as JSON (see `docs/ARCHITECTURE.md`
//! §5). Node `op` names mirror ONNX operator names so that a
//! conversion script from real ONNX files is mechanical.
//!
//! # Format
//!
//! ```json
//! {
//!   "name": "tiny",
//!   "input": {"shape": [3, 32, 32]},
//!   "precision": {"weights": 16, "activations": 16},
//!   "nodes": [
//!     {"op": "Conv", "name": "conv1", "inputs": ["input"],
//!      "attrs": {"out_channels": 16, "kernel": 3, "stride": 1, "padding": 1}},
//!     {"op": "Relu", "name": "relu1", "inputs": ["conv1"]},
//!     {"op": "MaxPool", "name": "pool1", "inputs": ["relu1"],
//!      "attrs": {"kernel": 2, "stride": 2}}
//!   ]
//! }
//! ```
//!
//! Supported ops: `Conv` (with optional `groups` for grouped/depthwise),
//! `Gemm` (fully-connected), `MatMul` (position-wise projection), `MaxPool`,
//! `AveragePool`, `GlobalAveragePool`, `Relu`, `PRelu`, `Sigmoid`, `Softmax`,
//! `BatchNormalization`, `Add`, `Mul`, `Flatten`.
//!
//! # Example
//!
//! ```
//! use pimsyn_model::onnx;
//!
//! # fn main() -> Result<(), pimsyn_model::ModelError> {
//! let text = r#"{
//!   "name": "mini", "input": {"shape": [3, 8, 8]},
//!   "nodes": [
//!     {"op": "Conv", "name": "c1", "inputs": ["input"],
//!      "attrs": {"out_channels": 4, "kernel": 3, "stride": 1, "padding": 1}},
//!     {"op": "Relu", "name": "r1", "inputs": ["c1"]}
//!   ]
//! }"#;
//! let model = onnx::parse_model(text)?;
//! assert_eq!(model.weight_layers().count(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use crate::json::JsonValue;
use crate::{Layer, LayerKind, PoolKind};
use crate::{LayerId, Model, ModelBuilder, ModelError, Precision, TensorShape};

/// Parses an ONNX-style JSON model description into a validated [`Model`].
///
/// # Errors
///
/// Returns [`ModelError::Parse`] for malformed JSON,
/// [`ModelError::NestingTooDeep`] for JSON nested past the parser's bound,
/// and [`ModelError::Ingest`] for structurally invalid graphs (missing fields,
/// unsupported ops, dangling references), plus any validation error from
/// [`ModelBuilder::build`].
pub fn parse_model(text: &str) -> Result<Model, ModelError> {
    let doc = JsonValue::parse(text)?;
    lower_document(&doc)
}

/// Serializes a [`Model`] back into the ONNX-style JSON format accepted by
/// [`parse_model`], enabling lossless round-trips of the layer graph.
pub fn to_json(model: &Model) -> String {
    let mut nodes = Vec::new();
    for (i, layer) in model.layers().iter().enumerate() {
        let mut node = Vec::new();
        let (op, attrs) = op_and_attrs(layer);
        node.push(("op".to_string(), JsonValue::String(op.to_string())));
        node.push(("name".to_string(), JsonValue::String(layer.name.clone())));
        let inputs: Vec<JsonValue> = if layer.inputs.is_empty() {
            vec![JsonValue::String("input".to_string())]
        } else {
            layer
                .inputs
                .iter()
                .map(|&id| JsonValue::String(model.layer(id).name.clone()))
                .collect()
        };
        node.push(("inputs".to_string(), JsonValue::Array(inputs)));
        if !attrs.is_empty() {
            node.push(("attrs".to_string(), JsonValue::Object(attrs)));
        }
        nodes.push(JsonValue::Object(node));
        debug_assert!(i < model.layers().len());
    }
    let input = model.input_shape();
    let doc = JsonValue::Object(vec![
        (
            "name".to_string(),
            JsonValue::String(model.name().to_string()),
        ),
        (
            "input".to_string(),
            JsonValue::Object(vec![(
                "shape".to_string(),
                JsonValue::Array(vec![
                    JsonValue::Number(input.channels as f64),
                    JsonValue::Number(input.height as f64),
                    JsonValue::Number(input.width as f64),
                ]),
            )]),
        ),
        (
            "precision".to_string(),
            JsonValue::Object(vec![
                (
                    "weights".to_string(),
                    JsonValue::Number(model.precision().weight_bits() as f64),
                ),
                (
                    "activations".to_string(),
                    JsonValue::Number(model.precision().activation_bits() as f64),
                ),
            ]),
        ),
        ("nodes".to_string(), JsonValue::Array(nodes)),
    ]);
    doc.to_string()
}

fn op_and_attrs(layer: &Layer) -> (&'static str, Vec<(String, JsonValue)>) {
    let num = |n: usize| JsonValue::Number(n as f64);
    match layer.kind {
        LayerKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
            groups,
        } => {
            let mut attrs = vec![
                ("out_channels".to_string(), num(out_channels)),
                ("kernel".to_string(), num(kernel)),
                ("stride".to_string(), num(stride)),
                ("padding".to_string(), num(padding)),
            ];
            if groups > 1 {
                attrs.push(("groups".to_string(), num(groups)));
            }
            ("Conv", attrs)
        }
        LayerKind::Linear { out_features } => (
            "Gemm",
            vec![("out_features".to_string(), num(out_features))],
        ),
        LayerKind::MatMul { out_features } => (
            "MatMul",
            vec![("out_features".to_string(), num(out_features))],
        ),
        LayerKind::Pool {
            kind,
            kernel,
            stride,
        } => (
            match kind {
                PoolKind::Max => "MaxPool",
                PoolKind::Avg => "AveragePool",
            },
            vec![
                ("kernel".to_string(), num(kernel)),
                ("stride".to_string(), num(stride)),
            ],
        ),
        LayerKind::GlobalAvgPool => ("GlobalAveragePool", vec![]),
        LayerKind::Relu => ("Relu", vec![]),
        LayerKind::Sigmoid => ("Sigmoid", vec![]),
        LayerKind::Softmax => ("Softmax", vec![]),
        LayerKind::BatchNorm => ("BatchNormalization", vec![]),
        LayerKind::Add => ("Add", vec![]),
        LayerKind::Mul => ("Mul", vec![]),
        LayerKind::Flatten => ("Flatten", vec![]),
    }
}

fn ingest_err(detail: impl Into<String>) -> ModelError {
    ModelError::Ingest {
        detail: detail.into(),
    }
}

fn required<'a>(obj: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a JsonValue, ModelError> {
    obj.get(key)
        .ok_or_else(|| ingest_err(format!("missing `{key}` in {ctx}")))
}

fn required_usize(obj: &JsonValue, key: &str, ctx: &str) -> Result<usize, ModelError> {
    required(obj, key, ctx)?
        .as_usize()
        .ok_or_else(|| ingest_err(format!("`{key}` in {ctx} must be a non-negative integer")))
}

fn optional_usize(obj: &JsonValue, key: &str, default: usize) -> Result<usize, ModelError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| ingest_err(format!("`{key}` must be a non-negative integer"))),
    }
}

fn lower_document(doc: &JsonValue) -> Result<Model, ModelError> {
    let name = doc
        .get("name")
        .and_then(JsonValue::as_str)
        .unwrap_or("imported");
    let input = required(doc, "input", "document")?;
    let shape = required(input, "shape", "input")?
        .as_array()
        .ok_or_else(|| ingest_err("`input.shape` must be an array"))?;
    if shape.len() != 3 {
        return Err(ingest_err(format!(
            "`input.shape` must be [channels, height, width], got {} entries",
            shape.len()
        )));
    }
    let dims: Vec<usize> = shape
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| ingest_err("input dimensions must be integers"))
        })
        .collect::<Result<_, _>>()?;
    let input_shape = TensorShape::new(dims[0], dims[1], dims[2]);

    let mut builder = ModelBuilder::new(name, input_shape);

    if let Some(p) = doc.get("precision") {
        let w = optional_usize(p, "weights", 16)? as u32;
        let a = optional_usize(p, "activations", 16)? as u32;
        builder.precision(Precision::new(w, a)?);
    }

    let nodes = required(doc, "nodes", "document")?
        .as_array()
        .ok_or_else(|| ingest_err("`nodes` must be an array"))?;

    let mut ids: HashMap<String, LayerId> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        let ctx = format!("node {i}");
        let op = required(node, "op", &ctx)?
            .as_str()
            .ok_or_else(|| ingest_err(format!("`op` in {ctx} must be a string")))?;
        let node_name = required(node, "name", &ctx)?
            .as_str()
            .ok_or_else(|| ingest_err(format!("`name` in {ctx} must be a string")))?
            .to_string();
        let input_names: Vec<&str> = match node.get("inputs") {
            None => vec!["input"],
            Some(v) => v
                .as_array()
                .ok_or_else(|| ingest_err(format!("`inputs` in {ctx} must be an array")))?
                .iter()
                .map(|x| {
                    x.as_str()
                        .ok_or_else(|| ingest_err(format!("inputs of {ctx} must be strings")))
                })
                .collect::<Result<_, _>>()?,
        };
        let mut resolved: Vec<LayerId> = Vec::new();
        for n in &input_names {
            if *n == "input" {
                continue; // model input: expressed as an empty producer list
            }
            match ids.get(*n) {
                Some(&id) => resolved.push(id),
                None => {
                    return Err(ModelError::UnknownLayer {
                        reference: (*n).to_string(),
                    })
                }
            }
        }
        let attrs = node
            .get("attrs")
            .cloned()
            .unwrap_or(JsonValue::Object(vec![]));
        let actx = format!("attrs of `{node_name}`");
        let kind = match op {
            "Conv" => LayerKind::Conv2d {
                out_channels: required_usize(&attrs, "out_channels", &actx)?,
                kernel: required_usize(&attrs, "kernel", &actx)?,
                stride: optional_usize(&attrs, "stride", 1)?,
                padding: optional_usize(&attrs, "padding", 0)?,
                groups: optional_usize(&attrs, "groups", 1)?,
            },
            "Gemm" => LayerKind::Linear {
                out_features: required_usize(&attrs, "out_features", &actx)?,
            },
            "MatMul" => LayerKind::MatMul {
                out_features: required_usize(&attrs, "out_features", &actx)?,
            },
            "MaxPool" | "AveragePool" => LayerKind::Pool {
                kind: if op == "MaxPool" {
                    PoolKind::Max
                } else {
                    PoolKind::Avg
                },
                kernel: required_usize(&attrs, "kernel", &actx)?,
                stride: optional_usize(&attrs, "stride", 1)?,
            },
            "GlobalAveragePool" => LayerKind::GlobalAvgPool,
            "Relu" | "PRelu" | "LeakyRelu" => LayerKind::Relu,
            "Sigmoid" => LayerKind::Sigmoid,
            "Softmax" => LayerKind::Softmax,
            "BatchNormalization" => LayerKind::BatchNorm,
            "Add" => LayerKind::Add,
            "Mul" => LayerKind::Mul,
            "Flatten" | "Reshape" => LayerKind::Flatten,
            other => {
                return Err(ingest_err(format!(
                    "unsupported op `{other}` at node `{node_name}`"
                )))
            }
        };
        let id = builder.layer(node_name.clone(), kind, resolved);
        ids.insert(node_name, id);
    }

    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    const MINI: &str = r#"{
      "name": "mini",
      "input": {"shape": [3, 16, 16]},
      "precision": {"weights": 8, "activations": 8},
      "nodes": [
        {"op": "Conv", "name": "c1", "inputs": ["input"],
         "attrs": {"out_channels": 8, "kernel": 3, "stride": 1, "padding": 1}},
        {"op": "Relu", "name": "r1", "inputs": ["c1"]},
        {"op": "MaxPool", "name": "p1", "inputs": ["r1"], "attrs": {"kernel": 2, "stride": 2}},
        {"op": "Flatten", "name": "f", "inputs": ["p1"]},
        {"op": "Gemm", "name": "fc", "inputs": ["f"], "attrs": {"out_features": 10}}
      ]
    }"#;

    #[test]
    fn parses_minimal_network() {
        let m = parse_model(MINI).unwrap();
        assert_eq!(m.name(), "mini");
        assert_eq!(m.weight_layer_count(), 2);
        assert_eq!(m.precision(), Precision::int8());
        let fc = m.weight_layer(1);
        assert_eq!(fc.in_channels, 8 * 8 * 8);
    }

    #[test]
    fn missing_attr_is_reported() {
        let bad = r#"{
          "input": {"shape": [3, 8, 8]},
          "nodes": [{"op": "Conv", "name": "c", "inputs": ["input"], "attrs": {"kernel": 3}}]
        }"#;
        let err = parse_model(bad).unwrap_err();
        assert!(err.to_string().contains("out_channels"), "{err}");
    }

    #[test]
    fn unknown_input_reference() {
        let bad = r#"{
          "input": {"shape": [3, 8, 8]},
          "nodes": [{"op": "Relu", "name": "r", "inputs": ["ghost"]}]
        }"#;
        assert!(matches!(
            parse_model(bad).unwrap_err(),
            ModelError::UnknownLayer { .. }
        ));
    }

    #[test]
    fn unsupported_op_is_reported() {
        let bad = r#"{
          "input": {"shape": [3, 8, 8]},
          "nodes": [{"op": "LSTM", "name": "l", "inputs": ["input"]}]
        }"#;
        let err = parse_model(bad).unwrap_err();
        assert!(err.to_string().contains("LSTM"), "{err}");
    }

    #[test]
    fn add_with_two_inputs() {
        let text = r#"{
          "input": {"shape": [3, 8, 8]},
          "nodes": [
            {"op": "Conv", "name": "a", "inputs": ["input"],
             "attrs": {"out_channels": 4, "kernel": 3, "padding": 1}},
            {"op": "Conv", "name": "b", "inputs": ["input"],
             "attrs": {"out_channels": 4, "kernel": 3, "padding": 1}},
            {"op": "Add", "name": "sum", "inputs": ["a", "b"]}
          ]
        }"#;
        let m = parse_model(text).unwrap();
        assert!(m.weight_layer(0).feeds_add);
        assert!(m.weight_layer(1).feeds_add);
    }

    #[test]
    fn parses_depthwise_and_attention_ops() {
        let text = r#"{
          "name": "modern",
          "input": {"shape": [8, 8, 8]},
          "nodes": [
            {"op": "Conv", "name": "dw", "inputs": ["input"],
             "attrs": {"out_channels": 8, "kernel": 3, "stride": 1, "padding": 1, "groups": 8}},
            {"op": "MatMul", "name": "q", "inputs": ["dw"], "attrs": {"out_features": 4}},
            {"op": "Softmax", "name": "sm", "inputs": ["q"]},
            {"op": "GlobalAveragePool", "name": "gap", "inputs": ["dw"]},
            {"op": "MatMul", "name": "gate", "inputs": ["gap"], "attrs": {"out_features": 8}},
            {"op": "Sigmoid", "name": "sig", "inputs": ["gate"]},
            {"op": "Mul", "name": "scale", "inputs": ["dw", "sig"]}
          ]
        }"#;
        let m = parse_model(text).unwrap();
        let dw = m.weight_layer(0);
        assert_eq!(dw.groups, 8);
        assert_eq!(dw.filter_rows(), 9);
        assert!(dw.feeds_add, "mul consumer marks the eltwise flag");
        let q = m.weight_layer(1);
        assert_eq!((q.in_channels, q.out_channels), (8, 4));
        assert!(q.relu, "softmax fuses into the activation slot");
    }

    #[test]
    fn zoo_models_round_trip_through_json() {
        for model in zoo::entries().iter().map(|entry| (entry.build)()) {
            let text = to_json(&model);
            let back = parse_model(&text).unwrap();
            assert_eq!(back.name(), model.name());
            assert_eq!(
                back.layers(),
                model.layers(),
                "layer graphs differ for {}",
                model.name()
            );
            assert_eq!(back.precision(), model.precision());
            assert_eq!(back.input_shape(), model.input_shape());
            assert_eq!(back.stats(), model.stats());
        }
    }

    #[test]
    fn default_precision_is_int16() {
        let text = r#"{
          "input": {"shape": [1, 4, 4]},
          "nodes": [{"op": "Conv", "name": "c", "inputs": ["input"],
                     "attrs": {"out_channels": 2, "kernel": 3, "padding": 1}}]
        }"#;
        assert_eq!(parse_model(text).unwrap().precision(), Precision::int16());
    }

    #[test]
    fn bad_shape_arity_rejected() {
        let bad = r#"{"input": {"shape": [3, 8]}, "nodes": []}"#;
        assert!(parse_model(bad).is_err());
    }
}
