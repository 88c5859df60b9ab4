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
//! exactly, so export -> [`PimsimConfig::parse`] -> re-export is
//! byte-identical — the round-trip tests below pin that down.
//!
//! # Example
//!
//! ```no_run
//! use pimsyn::{SynthesisOptions, Synthesizer};
//! use pimsyn_arch::Watts;
//! use pimsyn_model::zoo;
//!
//! let result = Synthesizer::new(SynthesisOptions::fast(Watts(8.0)))
//!     .synthesize(&zoo::alexnet_cifar(10))
//!     .unwrap();
//! let text = pimsyn_export::to_pimsim_config(&result);
//! let config = pimsyn_export::PimsimConfig::parse(&text).unwrap();
//! assert_eq!(config.network.len(), config.mapping.len());
//! ```

use std::fmt;

use pimsyn::SynthesisResult;
use pimsyn_arch::MacroGroup;
use pimsyn_model::json::JsonValue;
use pimsyn_model::LayerKind;

/// Version of the emitted document. Bump on any field change and record the
/// delta in the `docs/ARCHITECTURE.md` appendix.
pub const FORMAT_VERSION: u64 = 1;

/// Identifier in the document's `format` field.
pub const FORMAT_NAME: &str = "pimsim-nn";

/// Everything that can go wrong reading a PIMSIM-NN config document.
#[derive(Debug, Clone, PartialEq)]
pub enum ExportError {
    /// The text is not valid JSON.
    Json {
        /// Parser diagnostic.
        detail: String,
    },
    /// A required field is absent or has the wrong type.
    Field {
        /// Dotted path of the offending field.
        path: String,
    },
    /// The document parses but violates a format invariant.
    Invalid {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Json { detail } => write!(f, "invalid JSON: {detail}"),
            ExportError::Field { path } => {
                write!(f, "missing or mistyped field `{path}`")
            }
            ExportError::Invalid { detail } => write!(f, "invalid config: {detail}"),
        }
    }
}

impl std::error::Error for ExportError {}

/// One `network[]` entry: a weight layer as PIMSIM-NN should replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLayer {
    /// Layer name (unique within the document).
    pub name: String,
    /// Operator: `"conv"`, `"fc"` or `"matmul"`.
    pub op: String,
    /// Kernel extent (1 for fc/matmul).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Channel groups (1 = dense).
    pub groups: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Output spatial extent `(height, width)`.
    pub out_extent: (usize, usize),
    /// Fused activation: `"relu"` or `"none"`.
    pub activation: String,
    /// Fused pooling: `"max"`, `"avg"` or `"none"`.
    pub pool: String,
    /// Whether the layer feeds a fused elementwise merge.
    pub eltwise: bool,
}

/// One `mapping[]` entry: the hardware assigned to a weight layer.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingEntry {
    /// Weight-layer index.
    pub layer: usize,
    /// Weight duplication factor.
    pub wt_dup: usize,
    /// Crossbars per weight copy (Eq. (1)).
    pub crossbar_set: usize,
    /// Total crossbars (`wt_dup * crossbar_set`).
    pub crossbars: usize,
    /// Macros assigned.
    pub macros: usize,
    /// Macro-sharing partner (earlier layer index), if any.
    pub shares_macros_with: Option<usize>,
    /// Derived lossless ADC resolution in bits.
    pub adc_precision: u32,
}

/// Cross-validation targets: PIMSYN's own evaluation of the design.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedMetrics {
    /// End-to-end single-inference latency in seconds.
    pub latency_seconds: f64,
    /// Realized total power in watts.
    pub power_watts: f64,
    /// Throughput in TOPS.
    pub throughput_tops: f64,
    /// Energy per inference in joules.
    pub energy_per_image_joules: f64,
    /// Power efficiency in TOPS/W.
    pub efficiency_tops_per_watt: f64,
}

/// A parsed and validated PIMSIM-NN config document.
#[derive(Debug, Clone, PartialEq)]
pub struct PimsimConfig {
    /// Format version (`version` field).
    pub version: u64,
    /// Workload name.
    pub model_name: String,
    /// Crossbar array extent.
    pub xbar_size: usize,
    /// ReRAM cell resolution in bits.
    pub cell_precision: u32,
    /// DAC resolution in bits.
    pub dac_precision: u32,
    /// Physical macro count.
    pub macro_count: usize,
    /// Total crossbar count.
    pub crossbar_count: usize,
    /// Power budget in watts.
    pub power_budget_watts: f64,
    /// The workload, one entry per weight layer.
    pub network: Vec<NetworkLayer>,
    /// The hardware assignment, parallel to `network`.
    pub mapping: Vec<MappingEntry>,
    /// PIMSYN's evaluation of the design.
    pub expected: ExpectedMetrics,
}

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
/// serialized forms [`to_pimsim_config`] / [`to_pimsim_config_pretty`].
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

/// Serializes `result` as an indented PIMSIM-NN config document (2-space
/// indent), for humans and diffs. Parses to the same value as the compact
/// form.
pub fn to_pimsim_config_pretty(result: &SynthesisResult) -> String {
    let mut out = String::new();
    pretty(&export_document(result), 0, &mut out);
    out.push('\n');
    out
}

fn pretty(value: &JsonValue, indent: usize, out: &mut String) {
    const STEP: usize = 2;
    match value {
        JsonValue::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (key, v)) in fields.iter().enumerate() {
                out.push_str(&" ".repeat(indent + STEP));
                // Reuse the compact serializer for correct string escaping.
                out.push_str(&JsonValue::String(key.clone()).to_string());
                out.push_str(": ");
                pretty(v, indent + STEP, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
        JsonValue::Array(items)
            if items
                .iter()
                .any(|v| matches!(v, JsonValue::Object(_) | JsonValue::Array(_))) =>
        {
            out.push_str("[\n");
            for (i, v) in items.iter().enumerate() {
                out.push_str(&" ".repeat(indent + STEP));
                pretty(v, indent + STEP, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        other => out.push_str(&other.to_string()),
    }
}

fn field<'a>(value: &'a JsonValue, path: &str) -> Result<&'a JsonValue, ExportError> {
    let mut cur = value;
    for part in path.split('.') {
        cur = cur.get(part).ok_or_else(|| ExportError::Field {
            path: path.to_string(),
        })?;
    }
    Ok(cur)
}

fn usize_field(value: &JsonValue, path: &str) -> Result<usize, ExportError> {
    field(value, path)?
        .as_usize()
        .ok_or_else(|| ExportError::Field {
            path: path.to_string(),
        })
}

fn f64_field(value: &JsonValue, path: &str) -> Result<f64, ExportError> {
    field(value, path)?
        .as_f64()
        .ok_or_else(|| ExportError::Field {
            path: path.to_string(),
        })
}

fn str_field(value: &JsonValue, path: &str) -> Result<String, ExportError> {
    Ok(field(value, path)?
        .as_str()
        .ok_or_else(|| ExportError::Field {
            path: path.to_string(),
        })?
        .to_string())
}

impl PimsimConfig {
    /// Parses and validates a PIMSIM-NN config document.
    ///
    /// # Errors
    ///
    /// - [`ExportError::Json`] on malformed JSON.
    /// - [`ExportError::Field`] when a required field is missing/mistyped.
    /// - [`ExportError::Invalid`] when a format invariant fails (wrong
    ///   `format` tag, unsupported version, network/mapping mismatch,
    ///   inconsistent crossbar totals, non-finite metrics, ...).
    pub fn parse(text: &str) -> Result<Self, ExportError> {
        let doc = JsonValue::parse(text).map_err(|e| ExportError::Json {
            detail: e.to_string(),
        })?;

        let format = str_field(&doc, "format")?;
        if format != FORMAT_NAME {
            return Err(ExportError::Invalid {
                detail: format!("format is `{format}`, expected `{FORMAT_NAME}`"),
            });
        }
        let version = usize_field(&doc, "version")? as u64;
        if version != FORMAT_VERSION {
            return Err(ExportError::Invalid {
                detail: format!("unsupported version {version} (supported: {FORMAT_VERSION})"),
            });
        }

        let network = field(&doc, "network")?
            .as_array()
            .ok_or_else(|| ExportError::Field {
                path: "network".to_string(),
            })?
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let wrap = |path: &str| format!("network[{i}].{path}");
                let out_extent = entry
                    .get("out_extent")
                    .and_then(JsonValue::as_array)
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| ExportError::Field {
                        path: wrap("out_extent"),
                    })?;
                let extent = |v: &JsonValue| {
                    v.as_usize().ok_or_else(|| ExportError::Field {
                        path: wrap("out_extent"),
                    })
                };
                Ok(NetworkLayer {
                    name: str_field(entry, "name")
                        .map_err(|_| ExportError::Field { path: wrap("name") })?,
                    op: str_field(entry, "op")
                        .map_err(|_| ExportError::Field { path: wrap("op") })?,
                    kernel: usize_field(entry, "kernel").map_err(|_| ExportError::Field {
                        path: wrap("kernel"),
                    })?,
                    stride: usize_field(entry, "stride").map_err(|_| ExportError::Field {
                        path: wrap("stride"),
                    })?,
                    groups: usize_field(entry, "groups").map_err(|_| ExportError::Field {
                        path: wrap("groups"),
                    })?,
                    in_channels: usize_field(entry, "in_channels").map_err(|_| {
                        ExportError::Field {
                            path: wrap("in_channels"),
                        }
                    })?,
                    out_channels: usize_field(entry, "out_channels").map_err(|_| {
                        ExportError::Field {
                            path: wrap("out_channels"),
                        }
                    })?,
                    out_extent: (extent(&out_extent[0])?, extent(&out_extent[1])?),
                    activation: str_field(entry, "activation").map_err(|_| ExportError::Field {
                        path: wrap("activation"),
                    })?,
                    pool: str_field(entry, "pool")
                        .map_err(|_| ExportError::Field { path: wrap("pool") })?,
                    eltwise: entry
                        .get("eltwise")
                        .and_then(JsonValue::as_bool)
                        .ok_or_else(|| ExportError::Field {
                            path: wrap("eltwise"),
                        })?,
                })
            })
            .collect::<Result<Vec<_>, ExportError>>()?;

        let mapping = field(&doc, "mapping")?
            .as_array()
            .ok_or_else(|| ExportError::Field {
                path: "mapping".to_string(),
            })?
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let wrap = |path: &str| format!("mapping[{i}].{path}");
                let shares = match entry.get("shares_macros_with") {
                    None | Some(JsonValue::Null) => None,
                    Some(v) => Some(v.as_usize().ok_or_else(|| ExportError::Field {
                        path: wrap("shares_macros_with"),
                    })?),
                };
                let u = |path: &str| {
                    usize_field(entry, path).map_err(|_| ExportError::Field { path: wrap(path) })
                };
                Ok(MappingEntry {
                    layer: u("layer")?,
                    wt_dup: u("wt_dup")?,
                    crossbar_set: u("crossbar_set")?,
                    crossbars: u("crossbars")?,
                    macros: u("macros")?,
                    shares_macros_with: shares,
                    adc_precision: u("adc_precision")? as u32,
                })
            })
            .collect::<Result<Vec<_>, ExportError>>()?;

        let config = Self {
            version,
            model_name: str_field(&doc, "model.name")?,
            xbar_size: usize_field(&doc, "sim_config.xbar_size")?,
            cell_precision: usize_field(&doc, "sim_config.cell_precision")? as u32,
            dac_precision: usize_field(&doc, "sim_config.dac_precision")? as u32,
            macro_count: usize_field(&doc, "sim_config.macro_count")?,
            crossbar_count: usize_field(&doc, "sim_config.crossbar_count")?,
            power_budget_watts: f64_field(&doc, "sim_config.power_budget_watts")?,
            network,
            mapping,
            expected: ExpectedMetrics {
                latency_seconds: f64_field(&doc, "expected.latency_seconds")?,
                power_watts: f64_field(&doc, "expected.power_watts")?,
                throughput_tops: f64_field(&doc, "expected.throughput_tops")?,
                energy_per_image_joules: f64_field(&doc, "expected.energy_per_image_joules")?,
                efficiency_tops_per_watt: f64_field(&doc, "expected.efficiency_tops_per_watt")?,
            },
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks format invariants beyond field presence. Called by [`parse`];
    /// public so generated-elsewhere documents can be linted too.
    ///
    /// [`parse`]: PimsimConfig::parse
    ///
    /// # Errors
    ///
    /// [`ExportError::Invalid`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), ExportError> {
        let invalid = |detail: String| Err(ExportError::Invalid { detail });
        if self.network.is_empty() {
            return invalid("network has no layers".into());
        }
        if self.network.len() != self.mapping.len() {
            return invalid(format!(
                "network has {} layers but mapping has {}",
                self.network.len(),
                self.mapping.len()
            ));
        }
        for (i, layer) in self.network.iter().enumerate() {
            if !matches!(layer.op.as_str(), "conv" | "fc" | "matmul") {
                return invalid(format!("network[{i}] op `{}` unknown", layer.op));
            }
            if layer.groups == 0
                || layer.in_channels % layer.groups != 0
                || layer.out_channels % layer.groups != 0
            {
                return invalid(format!(
                    "network[{i}] groups {} must divide channels {}x{}",
                    layer.groups, layer.in_channels, layer.out_channels
                ));
            }
            if !matches!(layer.pool.as_str(), "max" | "avg" | "none") {
                return invalid(format!("network[{i}] pool `{}` unknown", layer.pool));
            }
            if !matches!(layer.activation.as_str(), "relu" | "none") {
                return invalid(format!(
                    "network[{i}] activation `{}` unknown",
                    layer.activation
                ));
            }
        }
        let mut total = 0usize;
        for (i, m) in self.mapping.iter().enumerate() {
            if m.layer != i {
                return invalid(format!("mapping[{i}] is for layer {}", m.layer));
            }
            if m.wt_dup == 0 || m.crossbar_set == 0 || m.macros == 0 {
                return invalid(format!("mapping[{i}] has a zero allocation"));
            }
            if m.crossbars != m.wt_dup * m.crossbar_set {
                return invalid(format!(
                    "mapping[{i}] crossbars {} != wt_dup {} x set {}",
                    m.crossbars, m.wt_dup, m.crossbar_set
                ));
            }
            total += m.crossbars;
        }
        if let Err(e) = MacroGroup::check_pairs(self.mapping.iter().map(|m| m.shares_macros_with)) {
            return invalid(format!("mapping: {e}"));
        }
        if total != self.crossbar_count {
            return invalid(format!(
                "sim_config.crossbar_count {} != mapping total {total}",
                self.crossbar_count
            ));
        }
        let metrics = [
            ("latency_seconds", self.expected.latency_seconds),
            ("power_watts", self.expected.power_watts),
            ("throughput_tops", self.expected.throughput_tops),
            (
                "energy_per_image_joules",
                self.expected.energy_per_image_joules,
            ),
            (
                "efficiency_tops_per_watt",
                self.expected.efficiency_tops_per_watt,
            ),
        ];
        for (name, v) in metrics {
            if !v.is_finite() || v < 0.0 {
                return invalid(format!("expected.{name} is {v}"));
            }
        }
        if self.power_budget_watts <= 0.0 || !self.power_budget_watts.is_finite() {
            return invalid(format!(
                "sim_config.power_budget_watts is {}",
                self.power_budget_watts
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn::{SynthesisOptions, Synthesizer};
    use pimsyn_arch::Watts;
    use pimsyn_model::zoo;

    fn synthesize(model: &pimsyn_model::Model, watts: f64) -> SynthesisResult {
        Synthesizer::new(SynthesisOptions::fast(Watts(watts)).with_seed(3))
            .synthesize(model)
            .expect("synthesis succeeds")
    }

    #[test]
    fn classic_model_round_trips() {
        let result = synthesize(&zoo::alexnet_cifar(10), 8.0);
        let text = to_pimsim_config(&result);
        let config = PimsimConfig::parse(&text).expect("valid document");
        assert_eq!(config.model_name, "alexnet-cifar");
        assert_eq!(config.network.len(), result.model.weight_layer_count());
        assert_eq!(config.mapping.len(), config.network.len());
        assert_eq!(config.crossbar_count, result.architecture.crossbar_count());
        assert_eq!(config.macro_count, result.architecture.macro_count());
        // The serialized text is a fixed point: parse -> re-serialize is
        // byte-identical (f64 Display round-trips exactly).
        let reparsed = JsonValue::parse(&text).unwrap();
        assert_eq!(reparsed.to_string(), text);
    }

    #[test]
    fn new_op_model_round_trips() {
        let result = synthesize(&zoo::transformer_tiny(), 6.0);
        let text = to_pimsim_config(&result);
        let config = PimsimConfig::parse(&text).expect("valid document");
        assert_eq!(config.model_name, "transformer-tiny");
        let matmuls = config.network.iter().filter(|l| l.op == "matmul").count();
        assert_eq!(matmuls, 13, "embed + 2 x 6 projections");
        // Dynamic attention products surface as fused eltwise work.
        let q = config.network.iter().find(|l| l.name == "enc1_q").unwrap();
        assert!(q.eltwise);
        config.validate().unwrap();
    }

    #[test]
    fn grouped_layers_survive_export() {
        // Depthwise layers map block-diagonally (each group gets its own
        // tile), so MobileNet needs a generous crossbar budget.
        let result = synthesize(&zoo::mobilenet(), 120.0);
        let config = PimsimConfig::parse(&to_pimsim_config(&result)).unwrap();
        let dw = config
            .network
            .iter()
            .find(|l| l.name == "b1_dw")
            .expect("depthwise layer exported");
        assert_eq!(dw.groups, 32);
        assert_eq!(dw.in_channels, 32);
        // Block-diagonal sizing: the mapping's crossbar_set must match
        // Eq. (1) extended with the group factor.
        let entry = &config.mapping[config
            .network
            .iter()
            .position(|l| l.name == "b1_dw")
            .unwrap()];
        let wl = result
            .model
            .weight_layers()
            .find(|w| w.name == "b1_dw")
            .unwrap();
        let set = result
            .architecture
            .crossbar
            .crossbar_set(wl, result.model.precision().weight_bits());
        assert_eq!(entry.crossbar_set, set);
    }

    #[test]
    fn pretty_form_parses_to_the_same_value() {
        let result = synthesize(&zoo::alexnet_cifar(10), 8.0);
        let compact = to_pimsim_config(&result);
        let pretty = to_pimsim_config_pretty(&result);
        assert!(pretty.contains("\n  \"sim_config\""));
        let a = JsonValue::parse(&compact).unwrap();
        let b = JsonValue::parse(&pretty).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            PimsimConfig::parse(&compact).unwrap(),
            PimsimConfig::parse(&pretty).unwrap()
        );
    }

    #[test]
    fn validation_rejects_corrupted_documents() {
        let result = synthesize(&zoo::alexnet_cifar(10), 8.0);
        let text = to_pimsim_config(&result);

        let err = PimsimConfig::parse("{").unwrap_err();
        assert!(matches!(err, ExportError::Json { .. }), "{err}");

        let err = PimsimConfig::parse("{}").unwrap_err();
        assert!(matches!(err, ExportError::Field { .. }), "{err}");

        let wrong_format = text.replace("\"pimsim-nn\"", "\"onnx\"");
        let err = PimsimConfig::parse(&wrong_format).unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");

        let wrong_version = text.replace("\"version\":1", "\"version\":99");
        let err = PimsimConfig::parse(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // Break the crossbar-total invariant.
        let mut config = PimsimConfig::parse(&text).unwrap();
        config.crossbar_count += 1;
        let err = config.validate().unwrap_err();
        assert!(err.to_string().contains("crossbar_count"), "{err}");

        // Break the per-layer product invariant.
        let mut config = PimsimConfig::parse(&text).unwrap();
        config.mapping[0].crossbars += 1;
        let err = config.validate().unwrap_err();
        assert!(err.to_string().contains("wt_dup"), "{err}");
    }

    #[test]
    fn validation_rejects_shares_that_break_the_pair_rule() {
        let result = synthesize(&zoo::alexnet_cifar(10), 8.0);
        let mut config = PimsimConfig::parse(&to_pimsim_config(&result)).unwrap();
        for m in &mut config.mapping {
            m.shares_macros_with = None;
        }
        config.mapping[1].shares_macros_with = Some(0);
        config.mapping[3].shares_macros_with = Some(2);
        config.validate().unwrap();
        // A chain (3 -> 1 -> 0), a second sharer of 0, a forward share.
        for (layer, target) in [(3, 1), (3, 0), (1, 2)] {
            let mut bad = config.clone();
            bad.mapping[layer].shares_macros_with = Some(target);
            let err = bad.validate().unwrap_err().to_string();
            let want = format!("layer {layer} cannot share layer {target}'s macros");
            assert!(err.contains(&want), "{err}");
        }
    }
}
