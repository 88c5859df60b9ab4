//! The `pimsyn --worker` evaluation server.
//!
//! A worker is a child process of the
//! [`SubprocessBackend`](pimsyn_dse::SubprocessBackend): it reads the
//! versioned JSON-lines protocol of [`pimsyn_dse::backend::protocol`] from
//! stdin — an `init` message fixing a run's model, hardware, power, macro
//! mode and objective, then a stream of `score` requests — and answers each
//! request with the candidate's score on stdout. Scoring runs the same
//! [`EvalCore`] pipeline as in-process evaluation, so worker scores are
//! bit-identical to inline ones (floats cross the pipe as `f64::to_bits`
//! hex).
//!
//! A worker process outlives any single run: a later `init` message
//! *re-opens the session* — the model/hardware/power are re-ingested, a
//! fresh `ready` line acknowledges them, and scoring continues under the
//! new run's parameters. This is what lets a long-lived
//! [`WorkerPool`](pimsyn_dse::WorkerPool) recycle processes across
//! synthesis jobs instead of spawning a fresh complement per run.
//!
//! The worker exits when its stdin closes (the parent dropped it) and on
//! the first malformed message (after writing a diagnostic `error` line the
//! parent surfaces); the parent recomputes any in-flight work inline, so a
//! dying worker never changes results.

use std::io::{BufRead, Write};
use std::process::ExitCode;

use pimsyn_arch::{hardware_config, CrossbarConfig, DacConfig, Watts};
use pimsyn_dse::backend::protocol::{
    decode_score_batch, encode_score_reply, error_line, peer_max_version, read_frame, ready_line,
    ready_line_with_max, write_frame, ScoreResponse, WorkerInit, WorkerRequest, FRAME_ERROR,
    FRAME_SCORE_BATCH, FRAME_SCORE_REPLY, PROTOCOL_VERSION_MAX,
};
use pimsyn_dse::{CandidateScore, DesignPoint, EvalCore, MacAllocGene};
use pimsyn_ir::Dataflow;
use pimsyn_model::onnx;

/// Dataflow-identity of a score request: `(xb_size, cell_bits, dac_bits,
/// wt_dup)` — everything `Dataflow::compile` consumes besides the model.
type DataflowKey = (usize, u32, u32, Vec<usize>);

/// One inbound protocol unit, distinguished by peeking the first byte: a
/// JSON line starts with `{`, a v2 binary frame with a frame-kind byte
/// (which never collides with `{`).
enum Incoming {
    /// The transport closed cleanly.
    Eof,
    /// One JSON protocol line (init, or a v1 score request).
    Line(String),
    /// One v2 binary frame.
    Frame(u8, Vec<u8>),
}

/// Reads the next protocol unit. Frames are only recognized when
/// `allow_frames` is set (a negotiated v2 session); otherwise every byte
/// stream is treated as JSON lines, exactly like a v1-only build.
fn read_incoming(input: &mut impl BufRead, allow_frames: bool) -> Result<Incoming, String> {
    loop {
        let first = {
            let buf = input
                .fill_buf()
                .map_err(|e| format!("stdin read failed: {e}"))?;
            if buf.is_empty() {
                return Ok(Incoming::Eof);
            }
            buf[0]
        };
        if allow_frames && matches!(first, FRAME_SCORE_BATCH | FRAME_SCORE_REPLY | FRAME_ERROR) {
            let (kind, payload) =
                read_frame(input).map_err(|e| format!("frame read failed: {e}"))?;
            return Ok(Incoming::Frame(kind, payload));
        }
        let mut line = String::new();
        let n = input
            .read_line(&mut line)
            .map_err(|e| format!("stdin read failed: {e}"))?;
        if n == 0 {
            return Ok(Incoming::Eof);
        }
        if line.trim().is_empty() {
            continue;
        }
        return Ok(Incoming::Line(line));
    }
}

/// Serves one worker session over the given streams at the newest protocol
/// version this build speaks; returns the protocol error that ended it, if
/// any. Repeated `init` messages re-open the session with new run
/// parameters (each acknowledged by its own `ready` line).
///
/// # Errors
///
/// A human-readable message (already reported to the peer as an `error`
/// line or frame) for malformed messages or an un-ingestable init payload.
pub fn run_worker(mut input: impl BufRead, mut output: impl Write) -> Result<(), String> {
    let fail = |output: &mut dyn Write, detail: String| -> Result<(), String> {
        let _ = writeln!(output, "{}", error_line(&detail));
        let _ = output.flush();
        Err(detail)
    };
    // In a v2 session the peer reads frames, so errors must travel as an
    // error *frame* — a JSON error line would be misread as a frame header.
    let fail_frame = |output: &mut dyn Write, detail: String| -> Result<(), String> {
        let _ = write_frame(output, FRAME_ERROR, detail.as_bytes());
        let _ = output.flush();
        Err(detail)
    };

    // The first message is a JSON init line in every protocol version.
    let first = match read_incoming(&mut input, false)? {
        Incoming::Eof => return Ok(()), // empty session: nothing to do
        Incoming::Line(line) => line,
        Incoming::Frame(..) => unreachable!("frames are not recognized before init"),
    };
    let mut pending = match WorkerRequest::parse(first.trim()) {
        Ok(WorkerRequest::Init(init)) => Some((init, peer_max_version(first.trim()))),
        Ok(_) => return fail(&mut output, "first message must be `init`".to_string()),
        Err(e) => return fail(&mut output, e),
    };

    // One iteration per session: ingest the init, acknowledge, then score
    // until stdin closes or another init re-opens the session.
    while let Some((init, peer_max)) = pending.take() {
        let version = peer_max.min(PROTOCOL_VERSION_MAX);
        let WorkerInit {
            model_json,
            hw_json,
            power_bits,
            macro_mode,
            objective,
        } = init;
        let model = match onnx::parse_model(&model_json) {
            Ok(m) => m,
            Err(e) => return fail(&mut output, format!("cannot ingest model: {e}")),
        };
        let hw = match hardware_config::from_json_exact(&hw_json) {
            Ok(hw) => hw,
            Err(e) => return fail(&mut output, format!("cannot ingest hardware params: {e}")),
        };
        let core = EvalCore::new(
            &model,
            Watts(f64::from_bits(power_bits)),
            &hw,
            macro_mode,
            objective,
        );
        // A v1 peer gets the plain v1 ready; a v2 session acknowledges with
        // the negotiated version.
        let ack = if version >= 2 {
            ready_line_with_max(version)
        } else {
            ready_line()
        };
        writeln!(output, "{ack}").map_err(|e| format!("stdout write failed: {e}"))?;
        output
            .flush()
            .map_err(|e| format!("stdout flush failed: {e}"))?;

        // Requests of one batch share a dataflow; cache the last compiled
        // one (per session — the model changed, so it cannot carry over).
        let mut compiled: Option<(DataflowKey, Dataflow)> = None;
        // Scores one candidate through the same pipeline as in-process
        // evaluation; anything uncompilable is INFEASIBLE, never an error.
        let score_one = |compiled: &mut Option<(DataflowKey, Dataflow)>,
                         ratio_bits: u64,
                         xb_size: usize,
                         cell_bits: u32,
                         dac_bits: u32,
                         wt_dup: Vec<usize>,
                         gene: Vec<u32>|
         -> CandidateScore {
            (|| -> Option<CandidateScore> {
                let crossbar = CrossbarConfig::new(xb_size, cell_bits).ok()?;
                let dac = DacConfig::new(dac_bits).ok()?;
                let df_key = (xb_size, cell_bits, dac_bits, wt_dup);
                if compiled.as_ref().map(|(k, _)| k) != Some(&df_key) {
                    let df = Dataflow::compile(&model, crossbar, dac, &df_key.3).ok()?;
                    *compiled = Some((df_key, df));
                }
                let (_, df) = compiled.as_ref().expect("just compiled");
                let gene = MacAllocGene::from_raw(gene).ok()?;
                let point = DesignPoint {
                    ratio_rram: f64::from_bits(ratio_bits),
                    crossbar,
                };
                Some(core.score(df, point, &gene))
            })()
            .unwrap_or(CandidateScore::INFEASIBLE)
        };
        loop {
            match read_incoming(&mut input, version >= 2)? {
                Incoming::Eof => break,
                Incoming::Line(line) => {
                    match WorkerRequest::parse(line.trim()) {
                        Ok(WorkerRequest::Score(request)) => {
                            let score = score_one(
                                &mut compiled,
                                request.ratio_bits,
                                request.xb_size,
                                request.cell_bits,
                                request.dac_bits,
                                request.wt_dup,
                                request.gene,
                            );
                            let response = ScoreResponse {
                                id: request.id,
                                score,
                            };
                            writeln!(output, "{}", response.to_line())
                                .map_err(|e| format!("stdout write failed: {e}"))?;
                            output
                                .flush()
                                .map_err(|e| format!("stdout flush failed: {e}"))?;
                        }
                        Ok(WorkerRequest::Init(next)) => {
                            // Session re-open: a new run leased this
                            // process. The re-init renegotiates the
                            // version (the new run may be a v1 client).
                            pending = Some((next, peer_max_version(line.trim())));
                            break;
                        }
                        Err(e) => return fail(&mut output, e),
                    }
                }
                Incoming::Frame(FRAME_SCORE_BATCH, payload) => {
                    let (id_base, items) = match decode_score_batch(&payload) {
                        Ok(batch) => batch,
                        Err(e) => return fail_frame(&mut output, e),
                    };
                    let scores: Vec<CandidateScore> = items
                        .into_iter()
                        .map(|item| {
                            score_one(
                                &mut compiled,
                                item.ratio_bits,
                                item.xb_size as usize,
                                item.cell_bits,
                                item.dac_bits,
                                item.wt_dup.into_iter().map(|d| d as usize).collect(),
                                item.gene,
                            )
                        })
                        .collect();
                    write_frame(
                        &mut output,
                        FRAME_SCORE_REPLY,
                        &encode_score_reply(id_base, &scores),
                    )
                    .map_err(|e| format!("stdout write failed: {e}"))?;
                    output
                        .flush()
                        .map_err(|e| format!("stdout flush failed: {e}"))?;
                }
                Incoming::Frame(kind, _) => {
                    return fail_frame(&mut output, format!("unexpected frame kind 0x{kind:02x}"))
                }
            }
        }
    }
    Ok(())
}

/// The `pimsyn --worker` entry point: serves stdin/stdout until EOF.
pub fn run_worker_stdio() -> ExitCode {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    match run_worker(stdin, stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_arch::{HardwareParams, MacroMode};
    use pimsyn_dse::backend::protocol::{parse_ready, ScoreRequest};
    use pimsyn_dse::Objective;
    use pimsyn_model::zoo;

    fn init_line(model_power: f64) -> String {
        let model = zoo::alexnet_cifar(10);
        WorkerInit {
            model_json: onnx::to_json(&model),
            hw_json: hardware_config::to_json_exact(&HardwareParams::date24()),
            power_bits: model_power.to_bits(),
            macro_mode: MacroMode::Specialized,
            objective: Objective::PowerEfficiency,
        }
        .to_line()
    }

    fn score_request(id: u64, macros: usize) -> (ScoreRequest, DesignPoint, Vec<usize>) {
        let model = zoo::alexnet_cifar(10);
        let l = model.weight_layer_count();
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dup = vec![1usize; l];
        let gene = MacAllocGene::encode(&vec![macros; l], &vec![None; l]);
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        (
            ScoreRequest {
                id,
                ratio_bits: point.ratio_rram.to_bits(),
                xb_size: xb.size(),
                cell_bits: xb.cell_bits(),
                dac_bits: 1,
                wt_dup: dup.clone(),
                gene: gene.as_slice().to_vec(),
            },
            point,
            dup,
        )
    }

    #[test]
    fn worker_session_scores_bit_identically_to_inline() {
        let model = zoo::alexnet_cifar(10);
        let hw = HardwareParams::date24();
        let l = model.weight_layer_count();
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(1).unwrap();
        let dup = vec![1usize; l];
        let df = Dataflow::compile(&model, xb, dac, &dup).unwrap();
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        let genes: Vec<MacAllocGene> = (1..=3)
            .map(|m| MacAllocGene::encode(&vec![m; l], &vec![None; l]))
            .collect();

        // Drive a full session through in-memory pipes.
        let mut session = String::new();
        session.push_str(&init_line(9.0));
        session.push('\n');
        for (id, gene) in genes.iter().enumerate() {
            let request = ScoreRequest {
                id: id as u64,
                ratio_bits: point.ratio_rram.to_bits(),
                xb_size: xb.size(),
                cell_bits: xb.cell_bits(),
                dac_bits: dac.bits(),
                wt_dup: dup.clone(),
                gene: gene.as_slice().to_vec(),
            };
            session.push_str(&request.to_line());
            session.push('\n');
        }
        let mut output = Vec::new();
        run_worker(session.as_bytes(), &mut output).expect("clean session");
        let text = String::from_utf8(output).unwrap();
        let mut lines = text.lines();
        parse_ready(lines.next().expect("ready line")).expect("valid ready");

        // Compare against in-process scoring, bit for bit.
        let core = EvalCore::new(
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
        );
        for (id, gene) in genes.iter().enumerate() {
            let response = ScoreResponse::parse(lines.next().expect("score line")).unwrap();
            assert_eq!(response.id, id as u64);
            let expect = core.score(&df, point, gene);
            assert_eq!(response.score.fitness.to_bits(), expect.fitness.to_bits());
            assert_eq!(response.score.feasible, expect.feasible);
        }
        assert!(lines.next().is_none());
    }

    #[test]
    fn second_init_reopens_the_session() {
        // Two back-to-back sessions at different power levels on one worker
        // process: each init is acknowledged by its own ready line, and the
        // same candidate scores differently under the different budgets —
        // each bit-identical to in-process scoring at that power.
        let model = zoo::alexnet_cifar(10);
        let hw = HardwareParams::date24();
        let (request_a, point, dup) = score_request(0, 2);
        let (request_b, _, _) = score_request(7, 2);
        let mut session = String::new();
        for (power, request) in [(9.0, &request_a), (15.0, &request_b)] {
            session.push_str(&init_line(power));
            session.push('\n');
            session.push_str(&request.to_line());
            session.push('\n');
        }
        let mut output = Vec::new();
        run_worker(session.as_bytes(), &mut output).expect("clean two-session run");
        let text = String::from_utf8(output).unwrap();
        let mut lines = text.lines();

        let df =
            Dataflow::compile(&model, point.crossbar, DacConfig::new(1).unwrap(), &dup).unwrap();
        let gene = MacAllocGene::from_raw(request_a.gene.clone()).unwrap();
        for (power, id) in [(9.0, 0u64), (15.0, 7)] {
            parse_ready(lines.next().expect("ready line")).expect("valid ready");
            let response = ScoreResponse::parse(lines.next().expect("score line")).unwrap();
            assert_eq!(response.id, id);
            let core = EvalCore::new(
                &model,
                Watts(power),
                &hw,
                MacroMode::Specialized,
                Objective::PowerEfficiency,
            );
            let expect = core.score(&df, point, &gene);
            assert_eq!(response.score.fitness.to_bits(), expect.fitness.to_bits());
            assert_eq!(response.score.feasible, expect.feasible);
        }
        assert!(lines.next().is_none());
    }

    #[test]
    fn worker_rejects_garbage_with_an_error_line() {
        let mut output = Vec::new();
        let err = run_worker("not json\n".as_bytes(), &mut output).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("\"error\""), "{text}");

        // A score before init is rejected too.
        let mut output = Vec::new();
        let premature = r#"{"type":"score","id":0,"ratio":"0","xb":128,"cell":2,"dac":1,"wt_dup":[],"gene":[]}"#;
        let err = run_worker(format!("{premature}\n").as_bytes(), &mut output).unwrap_err();
        assert!(err.contains("init"), "{err}");
    }

    #[test]
    fn worker_answers_infeasible_for_uncompilable_requests() {
        let mut session = String::new();
        session.push_str(&init_line(9.0));
        session.push('\n');
        // Wrong wt_dup arity: the dataflow cannot compile.
        let bad = ScoreRequest {
            id: 5,
            ratio_bits: 0.3f64.to_bits(),
            xb_size: 128,
            cell_bits: 2,
            dac_bits: 1,
            wt_dup: vec![1],
            gene: vec![1],
        };
        session.push_str(&bad.to_line());
        session.push('\n');
        let mut output = Vec::new();
        run_worker(session.as_bytes(), &mut output).expect("session survives");
        let text = String::from_utf8(output).unwrap();
        let response = ScoreResponse::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(response.id, 5);
        assert_eq!(response.score, CandidateScore::INFEASIBLE);
    }

    #[test]
    fn empty_session_is_clean() {
        let mut output = Vec::new();
        run_worker("".as_bytes(), &mut output).expect("empty session");
        assert!(output.is_empty());
    }
}
