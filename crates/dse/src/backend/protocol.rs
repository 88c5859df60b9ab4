//! The versioned JSON-lines protocol between the [`SubprocessBackend`]
//! (client) and `pimsyn --worker` child processes (server).
//!
//! Every message is one JSON object per line. The session opens with an
//! [`WorkerInit`] fixing everything that is constant for a synthesis run
//! (model, hardware parameters, power budget, macro mode, objective); the
//! worker answers with a `ready` line, then serves [`ScoreRequest`]s with
//! [`ScoreResponse`]s until its stdin closes. Floats travel as
//! `f64::to_bits` hex strings, so a worker's scores are *bit-identical* to
//! inline scoring — JSON number formatting never enters the loop.
//!
//! ```text
//! > {"type":"init","pimsyn_worker":1,"model":"{...}","hw":"{...}",
//!    "power":"4022000000000000","macro_mode":"specialized","objective":"eff"}
//! < {"type":"ready","pimsyn_worker":1}
//! > {"type":"score","id":0,"ratio":"3fd3333333333333","xb":128,"cell":2,
//!    "dac":1,"wt_dup":[1,1],"gene":[1,1001]}
//! < {"type":"score","id":0,"fitness":"3ff8a3d70a3d70a4","feasible":true}
//! ```
//!
//! Version negotiation is strict about the *base* version: an init whose
//! `pimsyn_worker` field does not equal [`PROTOCOL_VERSION`] is rejected,
//! and the backend falls back to inline scoring rather than risking a
//! silent mismatch. *Upgrades* beyond the base version are negotiated
//! downward through an optional `max` field (ignored by v1 peers, which
//! tolerate unknown fields on init/ready): both sides advertise the
//! highest version they speak, and the session runs at the minimum of the
//! two. Version 2 replaces the per-candidate JSON score lines with
//! length-prefixed binary frames carrying whole batches — see
//! [`write_frame`]/[`read_frame`] and the `encode_*`/`decode_*` codecs.
//! Everything else (init/ready) stays JSON lines in every version.
//!
//! [`SubprocessBackend`]: super::SubprocessBackend

use std::io::{self, BufRead, Write};

use pimsyn_arch::MacroMode;
use pimsyn_model::json::JsonValue;

use crate::ea::Objective;
use crate::eval::CandidateScore;

/// Base wire-format version; bumped on any incompatible message change.
/// Every peer must speak at least this.
pub const PROTOCOL_VERSION: u32 = 1;

/// Highest wire-format version this build speaks. Sessions run at the
/// minimum of both peers' maxima (a peer that advertises nothing is a v1
/// peer).
pub const PROTOCOL_VERSION_MAX: u32 = 2;

fn hex_bits(v: f64) -> JsonValue {
    JsonValue::String(super::u64_hex(v.to_bits()))
}

fn parse_bits(v: Option<&JsonValue>, key: &str) -> Result<f64, String> {
    let s = v
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing bit-pattern field `{key}`"))?;
    super::parse_u64_hex(s)
        .map(f64::from_bits)
        .ok_or_else(|| format!("`{key}` is not a hex bit pattern"))
}

fn field_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn usize_array(v: &JsonValue, key: &str) -> Result<Vec<usize>, String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing array field `{key}`"))?
        .iter()
        .map(|x| {
            x.as_usize()
                .ok_or_else(|| format!("`{key}` entries must be non-negative integers"))
        })
        .collect()
}

/// Stable string tag of a [`MacroMode`].
pub fn macro_mode_tag(mode: MacroMode) -> &'static str {
    match mode {
        MacroMode::Specialized => "specialized",
        MacroMode::Identical => "identical",
    }
}

/// Parses a [`macro_mode_tag`] back.
///
/// # Errors
///
/// A message naming the unknown tag.
pub fn parse_macro_mode(s: &str) -> Result<MacroMode, String> {
    match s {
        "specialized" => Ok(MacroMode::Specialized),
        "identical" => Ok(MacroMode::Identical),
        other => Err(format!("unknown macro mode `{other}`")),
    }
}

/// Stable string tag of an [`Objective`].
pub fn objective_tag(objective: Objective) -> &'static str {
    match objective {
        Objective::PowerEfficiency => "eff",
        Objective::EnergyDelayProduct => "edp",
    }
}

/// Parses an [`objective_tag`] back.
///
/// # Errors
///
/// A message naming the unknown tag.
pub fn parse_objective(s: &str) -> Result<Objective, String> {
    match s {
        "eff" => Ok(Objective::PowerEfficiency),
        "edp" => Ok(Objective::EnergyDelayProduct),
        other => Err(format!("unknown objective `{other}`")),
    }
}

/// Session-opening message: everything constant across one synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerInit {
    /// The CNN in the ONNX-style JSON of `pimsyn_model::onnx` (lossless for
    /// the layer graph, which is all-integer).
    pub model_json: String,
    /// Hardware parameters in the *bit-exact* format of
    /// `pimsyn_arch::hardware_config::to_json_exact`.
    pub hw_json: String,
    /// Total power constraint, `f64::to_bits`.
    pub power_bits: u64,
    /// Identical vs specialized macros.
    pub macro_mode: MacroMode,
    /// What fitness maximizes.
    pub objective: Objective,
}

impl WorkerInit {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        JsonValue::Object(vec![
            ("type".into(), JsonValue::String("init".into())),
            (
                "pimsyn_worker".into(),
                JsonValue::Number(PROTOCOL_VERSION as f64),
            ),
            ("model".into(), JsonValue::String(self.model_json.clone())),
            ("hw".into(), JsonValue::String(self.hw_json.clone())),
            (
                "power".into(),
                JsonValue::String(super::u64_hex(self.power_bits)),
            ),
            (
                "macro_mode".into(),
                JsonValue::String(macro_mode_tag(self.macro_mode).into()),
            ),
            (
                "objective".into(),
                JsonValue::String(objective_tag(self.objective).into()),
            ),
            // Version negotiation: advertise the highest version we speak.
            // v1 peers ignore unknown fields and answer a plain `ready`,
            // which negotiates the session down to v1.
            ("max".into(), JsonValue::Number(PROTOCOL_VERSION_MAX as f64)),
        ])
        .to_string()
    }

    fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let version = doc
            .get("pimsyn_worker")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| "missing `pimsyn_worker` version".to_string())?;
        if version != PROTOCOL_VERSION as usize {
            return Err(format!(
                "protocol version mismatch: peer speaks {version}, this build speaks {PROTOCOL_VERSION}"
            ));
        }
        let text = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        Ok(Self {
            model_json: text("model")?,
            hw_json: text("hw")?,
            power_bits: super::parse_u64_hex(&text("power")?)
                .ok_or_else(|| "`power` is not a hex bit pattern".to_string())?,
            macro_mode: parse_macro_mode(&text("macro_mode")?)?,
            objective: parse_objective(&text("objective")?)?,
        })
    }
}

/// One candidate to score, fully serialized (the worker recompiles the
/// dataflow from `(crossbar, dac, wt_dup)` — compilation is deterministic
/// and costs microseconds, and consecutive requests reuse the compiled
/// dataflow through a worker-side cache).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRequest {
    /// Request id, echoed in the response.
    pub id: u64,
    /// `RatioRram` as `f64::to_bits`.
    pub ratio_bits: u64,
    /// Crossbar rows/columns.
    pub xb_size: usize,
    /// ReRAM cell resolution in bits.
    pub cell_bits: u32,
    /// DAC resolution in bits.
    pub dac_bits: u32,
    /// Per-layer weight duplication (fixes the dataflow).
    pub wt_dup: Vec<usize>,
    /// The `MacAlloc` gene (`owner*1000 + n` encoding).
    pub gene: Vec<u32>,
}

impl ScoreRequest {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        JsonValue::Object(vec![
            ("type".into(), JsonValue::String("score".into())),
            ("id".into(), JsonValue::Number(self.id as f64)),
            (
                "ratio".into(),
                JsonValue::String(super::u64_hex(self.ratio_bits)),
            ),
            ("xb".into(), JsonValue::Number(self.xb_size as f64)),
            ("cell".into(), JsonValue::Number(self.cell_bits as f64)),
            ("dac".into(), JsonValue::Number(self.dac_bits as f64)),
            (
                "wt_dup".into(),
                JsonValue::Array(
                    self.wt_dup
                        .iter()
                        .map(|&d| JsonValue::Number(d as f64))
                        .collect(),
                ),
            ),
            (
                "gene".into(),
                JsonValue::Array(
                    self.gene
                        .iter()
                        .map(|&g| JsonValue::Number(g as f64))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let ratio = doc
            .get("ratio")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing `ratio`".to_string())?;
        Ok(Self {
            id: field_usize(doc, "id")? as u64,
            ratio_bits: super::parse_u64_hex(ratio)
                .ok_or_else(|| "`ratio` is not a hex bit pattern".to_string())?,
            xb_size: field_usize(doc, "xb")?,
            cell_bits: field_usize(doc, "cell")? as u32,
            dac_bits: field_usize(doc, "dac")? as u32,
            wt_dup: usize_array(doc, "wt_dup")?,
            gene: usize_array(doc, "gene")?
                .into_iter()
                .map(|g| g as u32)
                .collect(),
        })
    }
}

/// Any message a worker may receive.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerRequest {
    /// Session setup (must be the first message).
    Init(WorkerInit),
    /// A candidate to score.
    Score(ScoreRequest),
}

impl WorkerRequest {
    /// Parses one received line.
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed JSON, unknown message types or
    /// missing fields.
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        match doc.get("type").and_then(JsonValue::as_str) {
            Some("init") => WorkerInit::from_json(&doc).map(WorkerRequest::Init),
            Some("score") => ScoreRequest::from_json(&doc).map(WorkerRequest::Score),
            Some(other) => Err(format!("unknown request type `{other}`")),
            None => Err("missing request `type`".to_string()),
        }
    }
}

/// The worker's `ready` acknowledgment after a successful init. A plain
/// ready (no `max` field) is what a v1 worker sends; it negotiates the
/// session to v1.
pub fn ready_line() -> String {
    JsonValue::Object(vec![
        ("type".into(), JsonValue::String("ready".into())),
        (
            "pimsyn_worker".into(),
            JsonValue::Number(PROTOCOL_VERSION as f64),
        ),
    ])
    .to_string()
}

/// A `ready` acknowledgment that also advertises the session version the
/// worker settled on (the minimum of both peers' maxima).
pub fn ready_line_with_max(max: u32) -> String {
    JsonValue::Object(vec![
        ("type".into(), JsonValue::String("ready".into())),
        (
            "pimsyn_worker".into(),
            JsonValue::Number(PROTOCOL_VERSION as f64),
        ),
        ("max".into(), JsonValue::Number(max as f64)),
    ])
    .to_string()
}

/// Checks a received `ready` line (type and version).
///
/// # Errors
///
/// A human-readable message when the line is not a matching `ready`.
pub fn parse_ready(line: &str) -> Result<(), String> {
    parse_ready_version(line).map(|_| ())
}

/// Checks a received `ready` line and returns the negotiated session
/// version: the minimum of this build's [`PROTOCOL_VERSION_MAX`] and what
/// the worker advertised (a ready without `max` is a v1 worker).
///
/// # Errors
///
/// A human-readable message when the line is not a matching `ready`.
pub fn parse_ready_version(line: &str) -> Result<u32, String> {
    let doc = JsonValue::parse(line).map_err(|e| format!("malformed ready line: {e}"))?;
    if doc.get("type").and_then(JsonValue::as_str) != Some("ready") {
        return Err(format!("expected a ready line, got: {line}"));
    }
    match doc.get("pimsyn_worker").and_then(JsonValue::as_usize) {
        Some(v) if v == PROTOCOL_VERSION as usize => {}
        Some(v) => {
            return Err(format!(
                "protocol version mismatch: worker speaks {v}, this build speaks {PROTOCOL_VERSION}"
            ))
        }
        None => return Err("ready line lacks a version".to_string()),
    }
    let peer_max = doc
        .get("max")
        .and_then(JsonValue::as_usize)
        .unwrap_or(PROTOCOL_VERSION as usize) as u32;
    Ok(peer_max.clamp(PROTOCOL_VERSION, PROTOCOL_VERSION_MAX))
}

/// The highest protocol version a received init/ready line
/// advertises: its `max` field, or [`PROTOCOL_VERSION`] when absent (a v1
/// peer). Tolerant by design — never fails, so it can be read off any
/// already-validated line.
pub fn peer_max_version(line: &str) -> u32 {
    JsonValue::parse(line)
        .ok()
        .and_then(|doc| doc.get("max").and_then(JsonValue::as_usize))
        .map(|v| (v as u32).max(PROTOCOL_VERSION))
        .unwrap_or(PROTOCOL_VERSION)
}

// ---------------------------------------------------------------------------
// Protocol v2: length-prefixed binary frames.
//
// A v2 session still opens with the JSON init/ready lines above; only the
// score exchange switches to binary frames. Frame layout:
//
//     [ kind: u8 ][ len: u32 LE ][ payload: len bytes ]
//
// Every frame kind is < 0x20, so the first byte of a frame can never be
// `{` (0x7b) — a server reading a mixed stream peeks one byte to tell a
// JSON line (session re-init) from a binary frame. All integers are
// little-endian; floats travel as their IEEE-754 bit patterns, so v2
// scores are bit-identical to v1 and inline scores.
// ---------------------------------------------------------------------------

/// Frame kind: a whole batch of candidates to score (client → worker).
pub const FRAME_SCORE_BATCH: u8 = 0x01;
/// Frame kind: the scores for a whole batch, in request order (worker →
/// client).
pub const FRAME_SCORE_REPLY: u8 = 0x02;
/// Frame kind: a UTF-8 error detail (worker → client, terminal for the
/// batch).
pub const FRAME_ERROR: u8 = 0x03;

/// Upper bound on a frame payload; a length beyond this is treated as a
/// corrupt stream rather than an allocation request.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Writes one v2 frame. The caller flushes (batches are one frame, so one
/// flush per batch).
///
/// # Errors
///
/// Any transport write error.
pub fn write_frame(writer: &mut dyn Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 5];
    head[0] = kind;
    head[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    writer.write_all(&head)?;
    writer.write_all(payload)
}

/// Reads one v2 frame, returning its kind and payload.
///
/// # Errors
///
/// Any transport read error; a clean EOF before the header surfaces as
/// [`io::ErrorKind::UnexpectedEof`]; an over-long length as
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(reader: &mut dyn BufRead) -> io::Result<(u8, Vec<u8>)> {
    let mut head = [0u8; 5];
    reader.read_exact(&mut head)?;
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN} cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok((head[0], payload))
}

/// One candidate inside a v2 [`FRAME_SCORE_BATCH`] payload: the fields of
/// a v1 [`ScoreRequest`] minus the id, which is implicit (`id_base +
/// index`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// `RatioRram` as `f64::to_bits`.
    pub ratio_bits: u64,
    /// Crossbar rows/columns.
    pub xb_size: u32,
    /// ReRAM cell resolution in bits.
    pub cell_bits: u32,
    /// DAC resolution in bits.
    pub dac_bits: u32,
    /// Per-layer weight duplication (fixes the dataflow).
    pub wt_dup: Vec<u32>,
    /// The `MacAlloc` gene (`owner*1000 + n` encoding).
    pub gene: Vec<u32>,
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a frame payload.
struct PayloadCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadCursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| "truncated frame payload".to_string())?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn u32_array(&mut self) -> Result<Vec<u32>, String> {
        let len = self.u32()? as usize;
        // Bounds-check before allocating: 4 bytes per element must fit in
        // what remains of the payload.
        if len > (self.buf.len() - self.pos) / 4 {
            return Err("truncated frame payload".to_string());
        }
        (0..len).map(|_| self.u32()).collect()
    }

    fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "frame payload has {} trailing bytes",
                self.buf.len() - self.pos
            ))
        }
    }
}

/// Encodes a [`FRAME_SCORE_BATCH`] payload:
/// `id_base: u64, count: u32`, then per candidate
/// `ratio_bits: u64, xb: u32, cell: u32, dac: u32,
///  wt_dup_len: u32, wt_dup: [u32], gene_len: u32, gene: [u32]`.
pub fn encode_score_batch(id_base: u64, items: &[BatchItem]) -> Vec<u8> {
    let per_item: usize = items
        .iter()
        .map(|i| 8 + 3 * 4 + 4 + 4 * i.wt_dup.len() + 4 + 4 * i.gene.len())
        .sum();
    let mut buf = Vec::with_capacity(12 + per_item);
    push_u64(&mut buf, id_base);
    push_u32(&mut buf, items.len() as u32);
    for item in items {
        push_u64(&mut buf, item.ratio_bits);
        push_u32(&mut buf, item.xb_size);
        push_u32(&mut buf, item.cell_bits);
        push_u32(&mut buf, item.dac_bits);
        push_u32(&mut buf, item.wt_dup.len() as u32);
        for &d in &item.wt_dup {
            push_u32(&mut buf, d);
        }
        push_u32(&mut buf, item.gene.len() as u32);
        for &g in &item.gene {
            push_u32(&mut buf, g);
        }
    }
    buf
}

/// Decodes a [`FRAME_SCORE_BATCH`] payload back into `(id_base, items)`.
///
/// # Errors
///
/// A human-readable message for truncated or over-long payloads.
pub fn decode_score_batch(payload: &[u8]) -> Result<(u64, Vec<BatchItem>), String> {
    let mut cur = PayloadCursor::new(payload);
    let id_base = cur.u64()?;
    let count = cur.u32()? as usize;
    let mut items = Vec::new();
    for _ in 0..count {
        items.push(BatchItem {
            ratio_bits: cur.u64()?,
            xb_size: cur.u32()?,
            cell_bits: cur.u32()?,
            dac_bits: cur.u32()?,
            wt_dup: cur.u32_array()?,
            gene: cur.u32_array()?,
        });
    }
    cur.finish()?;
    Ok((id_base, items))
}

/// Encodes a [`FRAME_SCORE_REPLY`] payload:
/// `id_base: u64, count: u32`, then per candidate — in request order —
/// `fitness_bits: u64, feasible: u8`.
pub fn encode_score_reply(id_base: u64, scores: &[CandidateScore]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + 9 * scores.len());
    push_u64(&mut buf, id_base);
    push_u32(&mut buf, scores.len() as u32);
    for score in scores {
        push_u64(&mut buf, score.fitness.to_bits());
        buf.push(score.feasible as u8);
    }
    buf
}

/// Decodes a [`FRAME_SCORE_REPLY`] payload back into `(id_base, scores)`.
///
/// # Errors
///
/// A human-readable message for truncated/over-long payloads or a
/// non-boolean feasible byte.
pub fn decode_score_reply(payload: &[u8]) -> Result<(u64, Vec<CandidateScore>), String> {
    let mut cur = PayloadCursor::new(payload);
    let id_base = cur.u64()?;
    let count = cur.u32()? as usize;
    if count > payload.len() / 9 {
        return Err("truncated frame payload".to_string());
    }
    let mut scores = Vec::with_capacity(count);
    for _ in 0..count {
        let fitness = f64::from_bits(cur.u64()?);
        let feasible = match cur.u8()? {
            0 => false,
            1 => true,
            other => return Err(format!("feasible byte must be 0 or 1, got {other}")),
        };
        scores.push(CandidateScore { fitness, feasible });
    }
    cur.finish()?;
    Ok((id_base, scores))
}

/// Decodes a [`FRAME_ERROR`] payload (UTF-8 detail, lossily).
pub fn decode_error_frame(payload: &[u8]) -> String {
    String::from_utf8_lossy(payload).into_owned()
}

/// An error report from the worker (also usable before exiting).
pub fn error_line(detail: &str) -> String {
    JsonValue::Object(vec![
        ("type".into(), JsonValue::String("error".into())),
        ("detail".into(), JsonValue::String(detail.to_string())),
    ])
    .to_string()
}

/// One scored candidate, keyed back to its request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreResponse {
    /// The request id this answers.
    pub id: u64,
    /// The score (fitness bit pattern survives the wire exactly).
    pub score: CandidateScore,
}

impl ScoreResponse {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        JsonValue::Object(vec![
            ("type".into(), JsonValue::String("score".into())),
            ("id".into(), JsonValue::Number(self.id as f64)),
            ("fitness".into(), hex_bits(self.score.fitness)),
            ("feasible".into(), JsonValue::Bool(self.score.feasible)),
        ])
        .to_string()
    }

    /// Parses one received line.
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed or non-`score` lines (an
    /// `error` line's detail is surfaced as the message).
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(line).map_err(|e| format!("malformed response: {e}"))?;
        match doc.get("type").and_then(JsonValue::as_str) {
            Some("score") => {}
            Some("error") => {
                let detail = doc
                    .get("detail")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unspecified");
                return Err(format!("worker reported an error: {detail}"));
            }
            _ => return Err(format!("expected a score line, got: {line}")),
        }
        Ok(Self {
            id: field_usize(&doc, "id")? as u64,
            score: CandidateScore {
                fitness: parse_bits(doc.get("fitness"), "fitness")?,
                feasible: doc
                    .get("feasible")
                    .and_then(JsonValue::as_bool)
                    .ok_or_else(|| "missing `feasible`".to_string())?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_round_trips() {
        let init = WorkerInit {
            model_json: r#"{"name":"m"}"#.to_string(),
            hw_json: r#"{"clock":"0"}"#.to_string(),
            power_bits: 9.0f64.to_bits(),
            macro_mode: MacroMode::Identical,
            objective: Objective::EnergyDelayProduct,
        };
        match WorkerRequest::parse(&init.to_line()).unwrap() {
            WorkerRequest::Init(back) => assert_eq!(back, init),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn score_request_round_trips() {
        let req = ScoreRequest {
            id: 42,
            ratio_bits: 0.3f64.to_bits(),
            xb_size: 128,
            cell_bits: 2,
            dac_bits: 1,
            wt_dup: vec![1, 2, 3],
            gene: vec![1, 1001, 2002],
        };
        match WorkerRequest::parse(&req.to_line()).unwrap() {
            WorkerRequest::Score(back) => assert_eq!(back, req),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn score_response_round_trips_awkward_floats() {
        // Bit patterns JSON number formatting could disturb.
        for fitness in [0.1 + 0.2, 1.0000000000000002, f64::MIN_POSITIVE, 0.0] {
            let resp = ScoreResponse {
                id: 7,
                score: CandidateScore {
                    fitness,
                    feasible: true,
                },
            };
            let back = ScoreResponse::parse(&resp.to_line()).unwrap();
            assert_eq!(back.score.fitness.to_bits(), fitness.to_bits());
            assert_eq!(back.id, 7);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let line = r#"{"type":"init","pimsyn_worker":999,"model":"{}","hw":"{}","power":"0","macro_mode":"specialized","objective":"eff"}"#;
        let err = WorkerRequest::parse(line).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        assert!(parse_ready(r#"{"type":"ready","pimsyn_worker":2}"#).is_err());
        assert!(parse_ready(&ready_line()).is_ok());
    }

    #[test]
    fn error_lines_surface_their_detail() {
        let err = ScoreResponse::parse(&error_line("boom")).unwrap_err();
        assert!(err.contains("boom"), "{err}");
        assert!(WorkerRequest::parse("not json").is_err());
        assert!(WorkerRequest::parse(r#"{"type":"dance"}"#).is_err());
    }

    #[test]
    fn ready_negotiation_picks_the_minimum() {
        // A plain v1 ready (no `max`) negotiates the session to v1.
        assert_eq!(parse_ready_version(&ready_line()).unwrap(), 1);
        // A v2 worker advertises max 2 and the session runs at v2.
        assert_eq!(parse_ready_version(&ready_line_with_max(2)).unwrap(), 2);
        // A future worker advertising beyond our max is capped to our max.
        assert_eq!(parse_ready_version(&ready_line_with_max(99)).unwrap(), 2);
        // A bogus max below the base version clamps up to the base.
        assert_eq!(parse_ready_version(&ready_line_with_max(0)).unwrap(), 1);
        // The base version check stays strict regardless of `max`.
        assert!(parse_ready_version(r#"{"type":"ready","pimsyn_worker":9,"max":2}"#).is_err());
    }

    #[test]
    fn init_lines_advertise_max_and_v1_parsers_ignore_it() {
        let init = WorkerInit {
            model_json: "{}".to_string(),
            hw_json: "{}".to_string(),
            power_bits: 0,
            macro_mode: MacroMode::Specialized,
            objective: Objective::PowerEfficiency,
        };
        let line = init.to_line();
        assert_eq!(peer_max_version(&line), PROTOCOL_VERSION_MAX);
        // The strict v1 parser accepts the line (unknown fields ignored).
        assert!(matches!(
            WorkerRequest::parse(&line),
            Ok(WorkerRequest::Init(_))
        ));
        // A v1 init (no `max`) reads as a v1 peer.
        let v1_line = line.replacen(",\"max\":2", "", 1);
        assert_ne!(v1_line, line, "the max field was present to strip");
        assert_eq!(peer_max_version(&v1_line), 1);
    }

    #[test]
    fn frames_round_trip() {
        let items = vec![
            BatchItem {
                ratio_bits: 0.3f64.to_bits(),
                xb_size: 128,
                cell_bits: 2,
                dac_bits: 1,
                wt_dup: vec![1, 2, 3],
                gene: vec![1, 1001, 2002],
            },
            BatchItem {
                ratio_bits: (0.1f64 + 0.2f64).to_bits(),
                xb_size: 256,
                cell_bits: 4,
                dac_bits: 2,
                wt_dup: vec![],
                gene: vec![7],
            },
        ];
        let payload = encode_score_batch(41, &items);
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_SCORE_BATCH, &payload).unwrap();
        let mut reader = io::BufReader::new(&wire[..]);
        let (kind, got) = read_frame(&mut reader).unwrap();
        assert_eq!(kind, FRAME_SCORE_BATCH);
        let (id_base, back) = decode_score_batch(&got).unwrap();
        assert_eq!(id_base, 41);
        assert_eq!(back, items);

        let scores = vec![
            CandidateScore {
                fitness: 0.1 + 0.2,
                feasible: true,
            },
            CandidateScore {
                fitness: f64::MIN_POSITIVE,
                feasible: false,
            },
        ];
        let reply = encode_score_reply(41, &scores);
        let (id_base, back) = decode_score_reply(&reply).unwrap();
        assert_eq!(id_base, 41);
        assert_eq!(back.len(), 2);
        for (a, b) in back.iter().zip(&scores) {
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
            assert_eq!(a.feasible, b.feasible);
        }
    }

    #[test]
    fn frame_kinds_never_collide_with_json() {
        // The worker loop peeks one byte to tell a binary frame from a JSON
        // line; every frame kind must stay distinct from `{`.
        for kind in [FRAME_SCORE_BATCH, FRAME_SCORE_REPLY, FRAME_ERROR] {
            assert_ne!(kind, b'{');
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        // Truncated payloads fail cleanly instead of panicking.
        let payload = encode_score_batch(
            0,
            &[BatchItem {
                ratio_bits: 0,
                xb_size: 1,
                cell_bits: 1,
                dac_bits: 1,
                wt_dup: vec![1],
                gene: vec![1],
            }],
        );
        for cut in 0..payload.len() {
            assert!(decode_score_batch(&payload[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_score_batch(&long).is_err());
        // A hostile element count cannot force a huge allocation.
        let mut hostile = Vec::new();
        push_u64(&mut hostile, 0);
        push_u32(&mut hostile, 1);
        push_u64(&mut hostile, 0);
        push_u32(&mut hostile, 1);
        push_u32(&mut hostile, 1);
        push_u32(&mut hostile, 1);
        push_u32(&mut hostile, u32::MAX); // wt_dup length
        assert!(decode_score_batch(&hostile).is_err());
        // Bad feasible byte.
        let mut reply = encode_score_reply(
            0,
            &[CandidateScore {
                fitness: 1.0,
                feasible: true,
            }],
        );
        *reply.last_mut().unwrap() = 7;
        assert!(decode_score_reply(&reply).is_err());
        // An over-long frame length is refused before allocating.
        let mut head = vec![FRAME_SCORE_BATCH];
        head.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut reader = io::BufReader::new(&head[..]);
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn error_frames_carry_their_detail() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_ERROR, b"session went sideways").unwrap();
        let mut reader = io::BufReader::new(&wire[..]);
        let (kind, payload) = read_frame(&mut reader).unwrap();
        assert_eq!(kind, FRAME_ERROR);
        assert_eq!(decode_error_frame(&payload), "session went sideways");
    }
}
