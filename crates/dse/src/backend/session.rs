//! Worker-session machinery of the
//! [`SubprocessBackend`](super::SubprocessBackend), above the stdio pipes.
//!
//! The backend drives the versioned JSON-lines
//! [`protocol`](super::protocol) against the server loop (`run_worker` in
//! the `pimsyn` crate). This module holds everything above the transport:
//! building the session-opening init line from an [`EvalCore`] and the
//! write-requests / read-responses loop that scores one chunk. Timeout
//! handling stays with the caller (pipes need a helper thread), which is
//! why these helpers take plain `Write`/`BufRead` endpoints.

use std::io::{BufRead, Write};

use crate::eval::{CandidateScore, EvalCore};

use super::protocol::{
    decode_error_frame, decode_score_reply, encode_score_batch, read_frame, write_frame, BatchItem,
    ScoreRequest, ScoreResponse, WorkerInit, FRAME_ERROR, FRAME_SCORE_BATCH, FRAME_SCORE_REPLY,
};
use super::EvalJob;

/// Which framing a negotiated session speaks for score exchanges.
/// Init/ready are JSON lines in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireMode {
    /// Protocol v1: one JSON line per request and per response.
    V1,
    /// Protocol v2: whole batches in one length-prefixed binary frame.
    V2,
}

impl WireMode {
    /// The mode a negotiated session version maps to.
    pub(crate) fn for_version(version: u32) -> Self {
        if version >= 2 {
            WireMode::V2
        } else {
            WireMode::V1
        }
    }
}

/// The session-opening init line fixing one run's model, hardware, power,
/// macro mode and objective (bit-exact encodings throughout).
pub(crate) fn init_line_for(core: &EvalCore<'_>) -> String {
    WorkerInit {
        model_json: pimsyn_model::onnx::to_json(core.model()),
        hw_json: pimsyn_arch::hardware_config::to_json_exact(core.hw()),
        power_bits: core.total_power().value().to_bits(),
        macro_mode: core.macro_mode(),
        objective: core.objective(),
    }
    .to_line()
}

/// Scores one chunk over an open session using whichever framing the
/// session negotiated.
pub(crate) fn exchange_scores_in(
    mode: WireMode,
    writer: &mut dyn Write,
    reader: &mut dyn BufRead,
    jobs: &[EvalJob<'_>],
    id_base: u64,
) -> Result<Vec<CandidateScore>, String> {
    match mode {
        WireMode::V1 => exchange_scores(writer, reader, jobs, id_base),
        WireMode::V2 => exchange_scores_v2(writer, reader, jobs, id_base),
    }
}

/// Scores one chunk over an open *v2* session: the whole chunk goes out as
/// one `score_batch` frame and comes back as one `score_reply` frame in
/// request order — two syscalls per chunk instead of two per candidate.
pub(crate) fn exchange_scores_v2(
    writer: &mut dyn Write,
    reader: &mut dyn BufRead,
    jobs: &[EvalJob<'_>],
    id_base: u64,
) -> Result<Vec<CandidateScore>, String> {
    let items: Vec<BatchItem> = jobs
        .iter()
        .map(|job| BatchItem {
            ratio_bits: job.point.ratio_rram.to_bits(),
            xb_size: job.point.crossbar.size() as u32,
            cell_bits: job.point.crossbar.cell_bits(),
            dac_bits: job.df.dac().bits(),
            wt_dup: job.df.programs().iter().map(|p| p.wt_dup as u32).collect(),
            gene: job.gene.as_slice().to_vec(),
        })
        .collect();
    let payload = encode_score_batch(id_base, &items);
    write_frame(writer, FRAME_SCORE_BATCH, &payload)
        .map_err(|e| format!("worker write failed: {e}"))?;
    writer
        .flush()
        .map_err(|e| format!("worker flush failed: {e}"))?;
    let (kind, payload) = read_frame(reader).map_err(|e| format!("worker read failed: {e}"))?;
    match kind {
        FRAME_SCORE_REPLY => {}
        FRAME_ERROR => {
            return Err(format!(
                "worker reported an error: {}",
                decode_error_frame(&payload)
            ))
        }
        other => return Err(format!("unexpected frame kind 0x{other:02x}")),
    }
    let (reply_base, scores) = decode_score_reply(&payload)?;
    if reply_base != id_base {
        return Err(format!(
            "worker answered batch {reply_base}, expected {id_base}"
        ));
    }
    if scores.len() != jobs.len() {
        return Err(format!(
            "worker answered {} scores for {} candidates",
            scores.len(),
            jobs.len()
        ));
    }
    Ok(scores)
}

/// Scores one chunk over an open session: writes every request as a single
/// payload, then reads the matching responses (replies may arrive in any
/// order; they are re-slotted by id).
pub(crate) fn exchange_scores(
    writer: &mut dyn Write,
    reader: &mut dyn BufRead,
    jobs: &[EvalJob<'_>],
    id_base: u64,
) -> Result<Vec<CandidateScore>, String> {
    let mut payload = String::new();
    for (k, job) in jobs.iter().enumerate() {
        let request = ScoreRequest {
            id: id_base + k as u64,
            ratio_bits: job.point.ratio_rram.to_bits(),
            xb_size: job.point.crossbar.size(),
            cell_bits: job.point.crossbar.cell_bits(),
            dac_bits: job.df.dac().bits(),
            wt_dup: job.df.programs().iter().map(|p| p.wt_dup).collect(),
            gene: job.gene.as_slice().to_vec(),
        };
        payload.push_str(&request.to_line());
        payload.push('\n');
    }
    writer
        .write_all(payload.as_bytes())
        .map_err(|e| format!("worker write failed: {e}"))?;
    writer
        .flush()
        .map_err(|e| format!("worker flush failed: {e}"))?;
    let mut out: Vec<Option<CandidateScore>> = vec![None; jobs.len()];
    for _ in 0..jobs.len() {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("worker read failed: {e}"))?;
        if n == 0 {
            return Err("worker closed its output mid-batch".to_string());
        }
        let response = ScoreResponse::parse(line.trim())?;
        let index = response
            .id
            .checked_sub(id_base)
            .filter(|&i| (i as usize) < jobs.len())
            .ok_or_else(|| format!("worker answered unknown id {}", response.id))?
            as usize;
        if out[index].replace(response.score).is_some() {
            return Err(format!("worker answered id {} twice", response.id));
        }
    }
    Ok(out.into_iter().map(|s| s.expect("all ids seen")).collect())
}
