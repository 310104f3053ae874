//! The coordinator↔worker wire protocol and the worker's main loop.
//!
//! Workers are local child processes talking line-delimited JSON over
//! their stdin/stdout. The conversation per worker:
//!
//! ```text
//! coordinator → worker   {"job":{...canonical spec...},"id":"j…"}      (once)
//! worker → coordinator   {"ready":<pid>}
//! coordinator → worker   {"assign":{"chunk":N,"start":S,"end":E}}      (repeated)
//! worker → coordinator   {"chunk":N,"points":K}
//!                        <row>                                          × K
//!                        {"chunk_end":N,"fnv1a":"<16 hex>"}
//!            — or —      {"chunk_err":N,"error":"…"}
//! coordinator closes stdin → worker exits 0
//! ```
//!
//! Rows travel verbatim (they are already canonical JSON) and are not
//! re-parsed in flight; the `chunk_end` footer carries FNV-1a over the
//! newline-terminated row bytes so a corrupted pipe or a buggy worker
//! is caught before anything reaches a checkpoint. Framing is
//! stateful: after a `{"chunk":N,"points":K}` header the next `K`
//! lines are rows, so row content can never be mistaken for a frame.
//! A header announcing more than [`MAX_CHUNK_POINTS`] rows is refused
//! at parse time ([`FrameError::ChunkTooLarge`]), so no frame field can
//! size an allocation beyond what a valid chunk needs.
//!
//! The `jobs/chunk` fault site is visited at every chunk boundary
//! *outside* any unwinding guard: an armed `panic` arm kills the
//! worker process at a deterministic chunk ordinal (per-arm arrival
//! counters), which is exactly the crash the reassignment machinery
//! exists for. Evaluation failures, by contrast, are *reported* as
//! `chunk_err` frames and leave the worker alive.

use std::io::{self, BufRead, Write};

use leakage_core::GeneralizedModel;
use leakage_experiments::ProfileStore;
use leakage_faults::checksum::Fnv64;
use leakage_faults::{panic_message, panic_point};
use leakage_telemetry::json::{self, Json};

use crate::spec::{JobPoint, JobSpec, MAX_CHUNK_POINTS};

/// The one-time first frame: which job this worker will evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// The job id the coordinator derived from the spec.
    pub job_id: String,
    /// The full job spec (the worker re-derives everything else).
    pub spec: JobSpec,
}

/// One unit of work: evaluate points `start..end` as chunk `chunk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assign {
    /// Chunk ordinal (names the checkpoint file).
    pub chunk: u64,
    /// First point index, inclusive.
    pub start: u64,
    /// One past the last point index.
    pub end: u64,
}

impl Hello {
    /// Encodes the hello frame (no trailing newline).
    pub fn encode(&self) -> String {
        json::object([
            json::key("job") + &self.spec.to_json(),
            json::key("id") + &json::string(&self.job_id),
        ])
    }

    /// Parses a hello frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the line is not a hello frame or carries an
    /// invalid spec.
    pub fn parse(line: &str) -> io::Result<Hello> {
        let doc = parse_frame(line)?;
        let spec_doc = doc
            .get("job")
            .ok_or_else(|| bad_frame(line, "no \"job\" field"))?;
        let spec = JobSpec::from_json(spec_doc)
            .map_err(|err| bad_frame(line, &format!("bad spec: {err}")))?;
        let job_id = doc
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_frame(line, "no \"id\" field"))?
            .to_string();
        Ok(Hello { job_id, spec })
    }
}

impl Assign {
    /// Encodes the assignment frame (no trailing newline).
    pub fn encode(&self) -> String {
        json::object([json::key("assign")
            + &json::object([
                json::key("chunk") + &self.chunk.to_string(),
                json::key("start") + &self.start.to_string(),
                json::key("end") + &self.end.to_string(),
            ])])
    }

    /// Parses an assignment frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the line is not an assignment.
    pub fn parse(line: &str) -> io::Result<Assign> {
        let doc = parse_frame(line)?;
        let body = doc
            .get("assign")
            .ok_or_else(|| bad_frame(line, "no \"assign\" field"))?;
        let field = |name: &str| -> io::Result<u64> {
            body.get(name)
                .and_then(Json::as_f64)
                .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| bad_frame(line, &format!("bad \"{name}\"")))
        };
        Ok(Assign {
            chunk: field("chunk")?,
            start: field("start")?,
            end: field("end")?,
        })
    }
}

/// A frame the worker sends upward. Row lines are *not* frames — the
/// coordinator's reader counts them off after each `ChunkStart`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFrame {
    /// Worker is alive and parsed the hello; carries its pid.
    Ready(u32),
    /// A chunk's rows follow: exactly `points` verbatim lines.
    ChunkStart {
        /// Chunk ordinal being answered.
        chunk: u64,
        /// Number of row lines that follow.
        points: u64,
    },
    /// All rows for `chunk` were sent; `fnv1a` seals them.
    ChunkEnd {
        /// Chunk ordinal being sealed.
        chunk: u64,
        /// FNV-1a over the newline-terminated row bytes.
        fnv1a: u64,
    },
    /// The chunk could not be evaluated (worker stays alive).
    ChunkErr {
        /// Chunk ordinal that failed.
        chunk: u64,
        /// Human-readable cause, relayed into the job status.
        error: String,
    },
}

/// Why a worker frame line was refused. Either way the coordinator
/// treats the worker as gone; the variants keep the reason precise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not JSON, not one of the four frames, or a frame with a bad
    /// field.
    Malformed(String),
    /// A chunk header announcing more rows than any valid chunk holds.
    ChunkTooLarge {
        /// The chunk ordinal the header named.
        chunk: u64,
        /// The announced row count.
        points: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed(why) => write!(f, "{why}"),
            FrameError::ChunkTooLarge { chunk, points } => write!(
                f,
                "chunk {chunk} header announces {points} rows, above the {MAX_CHUNK_POINTS}-point chunk cap"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl WorkerFrame {
    /// Encodes the frame (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WorkerFrame::Ready(pid) => json::object([json::key("ready") + &pid.to_string()]),
            WorkerFrame::ChunkStart { chunk, points } => json::object([
                json::key("chunk") + &chunk.to_string(),
                json::key("points") + &points.to_string(),
            ]),
            WorkerFrame::ChunkEnd { chunk, fnv1a } => json::object([
                json::key("chunk_end") + &chunk.to_string(),
                json::key("fnv1a") + &json::string(&format!("{fnv1a:016x}")),
            ]),
            WorkerFrame::ChunkErr { chunk, error } => json::object([
                json::key("chunk_err") + &chunk.to_string(),
                json::key("error") + &json::string(error),
            ]),
        }
    }

    /// Parses one worker frame line.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for anything that is not one of the
    /// four frames; [`FrameError::ChunkTooLarge`] for a chunk header
    /// above [`MAX_CHUNK_POINTS`] rows.
    pub fn parse(line: &str) -> Result<WorkerFrame, FrameError> {
        let malformed = |err: io::Error| FrameError::Malformed(err.to_string());
        let doc = parse_frame(line).map_err(malformed)?;
        let int = |field: &Json| -> Option<u64> {
            field
                .as_f64()
                .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                .map(|v| v as u64)
        };
        if let Some(pid) = doc.get("ready").and_then(|f| int(f)) {
            return Ok(WorkerFrame::Ready(pid as u32));
        }
        if let Some(chunk) = doc.get("chunk_end").and_then(|f| int(f)) {
            let fnv1a = doc
                .get("fnv1a")
                .and_then(Json::as_str)
                .filter(|hex| hex.len() == 16)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| malformed(bad_frame(line, "bad \"fnv1a\"")))?;
            return Ok(WorkerFrame::ChunkEnd { chunk, fnv1a });
        }
        if let Some(chunk) = doc.get("chunk_err").and_then(|f| int(f)) {
            let error = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string();
            return Ok(WorkerFrame::ChunkErr { chunk, error });
        }
        if let Some(chunk) = doc.get("chunk").and_then(|f| int(f)) {
            let points = doc
                .get("points")
                .and_then(|f| int(f))
                .ok_or_else(|| malformed(bad_frame(line, "bad \"points\"")))?;
            if points > u64::from(MAX_CHUNK_POINTS) {
                return Err(FrameError::ChunkTooLarge { chunk, points });
            }
            return Ok(WorkerFrame::ChunkStart { chunk, points });
        }
        Err(malformed(bad_frame(line, "unrecognized frame")))
    }
}

/// FNV-1a over rows exactly as they travel: each row's bytes plus the
/// `\n` terminator. Shared by the worker (sealing) and the coordinator
/// (verifying).
pub fn rows_checksum(rows: &[String]) -> u64 {
    let mut hash = Fnv64::new();
    for row in rows {
        hash.update(row.as_bytes());
        hash.update(b"\n");
    }
    hash.finish()
}

fn parse_frame(line: &str) -> io::Result<Json> {
    json::parse(line).map_err(|err| bad_frame(line, &err.to_string()))
}

fn bad_frame(line: &str, why: &str) -> io::Error {
    let head: String = line.chars().take(96).collect();
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("bad protocol frame {head:?}: {why}"),
    )
}

/// Evaluates one assignment and renders the complete wire response —
/// the `{"chunk":…}` header, the verbatim rows, and the sealing
/// `chunk_end` (or a single `chunk_err` line), every line
/// newline-terminated. The worker writes this text unmodified.
pub fn chunk_response(spec: &JobSpec, store: &ProfileStore, assign: &Assign) -> String {
    if assign.end < assign.start || assign.end > spec.point_count() {
        let frame = WorkerFrame::ChunkErr {
            chunk: assign.chunk,
            error: format!(
                "assignment {}..{} outside job space of {} points",
                assign.start,
                assign.end,
                spec.point_count()
            ),
        };
        return frame.encode() + "\n";
    }
    let with_permille = spec.has_refetch_axis();
    let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<Vec<String>, String> {
            let mut rows = Vec::with_capacity((assign.end - assign.start) as usize);
            let mut points = (assign.start..assign.end)
                .map(|index| spec.point(index))
                .peekable();
            while let Some(head) = points.next() {
                // Consecutive points sharing (benchmark, side, node)
                // differ only in C_D: one distribution walk serves the
                // whole run.
                let mut run = vec![head];
                while let Some(next) = points.next_if(|p| {
                    p.benchmark == run[0].benchmark
                        && p.side == run[0].side
                        && p.node == run[0].node
                }) {
                    run.push(next);
                }
                let profile = store
                    .try_fetch(&run[0].benchmark, spec.scale)
                    .map_err(|err| format!("profile {}: {err}", run[0].benchmark))?;
                let models: Vec<GeneralizedModel> = run.iter().map(JobPoint::model).collect();
                let dist = &profile.side(run[0].side).dist;
                let savings = GeneralizedModel::optimal_savings_batch(&models, dist);
                for (point, savings) in run.iter().zip(&savings) {
                    rows.push(crate::spec::render_job_row(point, savings, with_permille));
                }
            }
            Ok(rows)
        },
    ))
    .unwrap_or_else(|payload| Err(format!("panic: {}", panic_message(&payload))));
    match evaluated {
        Ok(rows) => {
            let mut response = WorkerFrame::ChunkStart {
                chunk: assign.chunk,
                points: rows.len() as u64,
            }
            .encode();
            response.push('\n');
            for row in &rows {
                response.push_str(row);
                response.push('\n');
            }
            response.push_str(
                &WorkerFrame::ChunkEnd {
                    chunk: assign.chunk,
                    fnv1a: rows_checksum(&rows),
                }
                .encode(),
            );
            response.push('\n');
            response
        }
        Err(error) => {
            WorkerFrame::ChunkErr {
                chunk: assign.chunk,
                error,
            }
            .encode()
                + "\n"
        }
    }
}

/// The worker main loop: reads the hello, answers `ready`, then
/// evaluates assignments until stdin closes. Extracted from the binary
/// so tests can drive a worker in-process over byte buffers.
///
/// # Errors
///
/// Protocol violations and I/O failures on the pipes; the binary turns
/// these into a non-zero exit.
pub fn run_worker(input: impl BufRead, mut output: impl Write) -> io::Result<()> {
    let mut lines = input.lines();
    let hello = match lines.next() {
        None => return Ok(()), // closed before hello: clean no-op
        Some(line) => Hello::parse(&line?)?,
    };
    let spec = hello.spec;
    writeln!(output, "{}", WorkerFrame::Ready(std::process::id()).encode())?;
    output.flush()?;
    let store = ProfileStore::global();
    for line in lines {
        let assign = Assign::parse(&line?)?;
        // The kill site: an armed `jobs/chunk=panic#N` arm takes this
        // worker down at its N-th chunk boundary, deterministically.
        panic_point("jobs/chunk");
        output.write_all(chunk_response(&spec, store, &assign).as_bytes())?;
        output.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_workloads::Scale;

    #[test]
    fn frames_round_trip() {
        let spec = JobSpec::default_axes("proto", Scale::Test);
        let hello = Hello {
            job_id: spec.id(),
            spec,
        };
        assert_eq!(Hello::parse(&hello.encode()).unwrap(), hello);

        let assign = Assign {
            chunk: 3,
            start: 12_288,
            end: 16_384,
        };
        assert_eq!(Assign::parse(&assign.encode()).unwrap(), assign);

        for frame in [
            WorkerFrame::Ready(4242),
            WorkerFrame::ChunkStart { chunk: 9, points: 512 },
            WorkerFrame::ChunkEnd { chunk: 9, fnv1a: 0x0123_4567_89ab_cdef },
            WorkerFrame::ChunkErr {
                chunk: 9,
                error: "profile gzip: missing".into(),
            },
        ] {
            assert_eq!(WorkerFrame::parse(&frame.encode()).unwrap(), frame);
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"assign":{"chunk":1}}"#,
            r#"{"chunk_end":1,"fnv1a":"xyz"}"#,
            r#"{"chunk":1}"#,
        ] {
            assert!(WorkerFrame::parse(line).is_err() || Assign::parse(line).is_err());
        }
        assert!(Hello::parse(r#"{"id":"j1"}"#).is_err());
        assert!(Hello::parse(r#"{"job":{"name":"x","nodes":["5nm"]},"id":"j1"}"#).is_err());
    }

    /// A chunk header's row count sizes the reader's row buffer, so an
    /// absurd one is refused by type before anything is allocated.
    #[test]
    fn oversized_chunk_headers_are_refused() {
        let cap = u64::from(MAX_CHUNK_POINTS);
        assert_eq!(
            WorkerFrame::parse(r#"{"chunk":3,"points":65536}"#).unwrap(),
            WorkerFrame::ChunkStart {
                chunk: 3,
                points: cap
            }
        );
        for points in [cap + 1, u64::MAX] {
            let line = WorkerFrame::ChunkStart { chunk: 3, points }.encode();
            assert_eq!(
                WorkerFrame::parse(&line),
                Err(FrameError::ChunkTooLarge { chunk: 3, points }),
                "{line}"
            );
        }
        assert!(matches!(
            WorkerFrame::parse("not json"),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn rows_checksum_matches_manual_fnv() {
        let rows = vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()];
        let mut hash = Fnv64::new();
        hash.update(b"{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(rows_checksum(&rows), hash.finish());
        assert_ne!(rows_checksum(&rows), rows_checksum(&rows[..1].to_vec()));
    }

    #[test]
    fn in_process_worker_answers_assignments() {
        let mut spec = JobSpec::build(
            "inproc",
            Scale::Test,
            vec!["gzip".into()],
            vec![leakage_cachesim::Level1::Instruction],
            vec![leakage_energy::TechnologyNode::N70],
            crate::spec::PermilleAxis { from: 1000, to: 1003, step: 1 },
            crate::spec::MIN_CHUNK_POINTS,
        )
        .unwrap();
        spec.chunk_points = crate::spec::MIN_CHUNK_POINTS;
        let hello = Hello {
            job_id: spec.id(),
            spec: spec.clone(),
        };
        let script = format!(
            "{}\n{}\n",
            hello.encode(),
            Assign { chunk: 0, start: 0, end: spec.point_count() }.encode()
        );
        let mut out = Vec::new();
        run_worker(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(matches!(
            WorkerFrame::parse(lines[0]).unwrap(),
            WorkerFrame::Ready(_)
        ));
        assert_eq!(
            WorkerFrame::parse(lines[1]).unwrap(),
            WorkerFrame::ChunkStart { chunk: 0, points: 4 }
        );
        let rows: Vec<String> = lines[2..6].iter().map(|l| l.to_string()).collect();
        assert!(rows.iter().all(|r| r.contains("\"benchmark\": \"gzip\"")));
        assert!(rows[0].contains("\"refetch_permille\": 1000"));
        assert_eq!(
            WorkerFrame::parse(lines[6]).unwrap(),
            WorkerFrame::ChunkEnd { chunk: 0, fnv1a: rows_checksum(&rows) }
        );
    }

    /// Grouped chunk evaluation is row-for-row the per-point path,
    /// wherever the chunk boundaries fall relative to the
    /// (benchmark, side, node) runs.
    #[test]
    fn grouped_chunks_match_per_point_rows() {
        use leakage_cachesim::Level1;
        use leakage_energy::TechnologyNode;
        // Runs of 5 permille values with 1000‰ (the preset-params
        // path) among scaled ones; node, side and benchmark change at
        // every 5th, 10th and 20th point.
        let spec = JobSpec::build(
            "grouped",
            Scale::Test,
            vec!["gzip".into(), "isa:chase".into()],
            vec![Level1::Instruction, Level1::Data],
            vec![TechnologyNode::N70, TechnologyNode::N130],
            crate::spec::PermilleAxis {
                from: 990,
                to: 1010,
                step: 5,
            },
            crate::spec::MIN_CHUNK_POINTS,
        )
        .unwrap();
        assert_eq!(spec.point_count(), 40);
        let store = ProfileStore::global();
        for (start, end, case) in [
            (2, 13, "start and end split a run"),
            (7, 8, "one point"),
            (17, 23, "crosses a benchmark, side and node change"),
            (0, 40, "the whole job"),
        ] {
            let expected: Vec<String> = (start..end)
                .map(|index| {
                    let point = spec.point(index);
                    let profile = store.try_fetch(&point.benchmark, spec.scale).unwrap();
                    crate::spec::render_job_row(&point, &point.evaluate(&profile), true)
                })
                .collect();
            let assign = Assign {
                chunk: 0,
                start,
                end,
            };
            let response = chunk_response(&spec, store, &assign);
            let lines: Vec<&str> = response.lines().collect();
            assert_eq!(lines.len(), expected.len() + 2, "{case}");
            assert_eq!(&lines[1..lines.len() - 1], &expected[..], "{case}");
            assert_eq!(
                WorkerFrame::parse(lines[lines.len() - 1]).unwrap(),
                WorkerFrame::ChunkEnd {
                    chunk: 0,
                    fnv1a: rows_checksum(&expected)
                },
                "{case}"
            );
        }
    }

    #[test]
    fn out_of_range_assignment_reports_chunk_err() {
        let spec = JobSpec::default_axes("range", Scale::Test);
        let hello = Hello {
            job_id: spec.id(),
            spec: spec.clone(),
        };
        let script = format!(
            "{}\n{}\n",
            hello.encode(),
            Assign { chunk: 5, start: 0, end: spec.point_count() + 1 }.encode()
        );
        let mut out = Vec::new();
        run_worker(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let last = text.lines().last().unwrap();
        assert!(matches!(
            WorkerFrame::parse(last).unwrap(),
            WorkerFrame::ChunkErr { chunk: 5, .. }
        ));
    }
}
