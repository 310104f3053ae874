//! The coordinator↔worker wire protocol and the worker's main loop.
//!
//! Workers are local child processes talking line-delimited text over
//! their stdin/stdout. The conversation per worker:
//!
//! ```text
//! coordinator → worker   {"job":{...canonical spec...}}                 (once)
//! worker → coordinator   {"ready":<pid>}
//! coordinator → worker   {"assign":{"chunk":N,"start":S,"end":E}}      (repeated)
//! worker → coordinator   leakage-job-chunk v1
//!                        job=<id> chunk=N start=S end=E points=K
//!                        <row>                                          × K
//!                        fnv1a=<16 hex>
//!            — or —      {"chunk_err":N,"error":"…"}
//! coordinator closes stdin → worker exits 0
//! ```
//!
//! A chunk answer is the checkpoint file itself: the bytes of
//! [`encode_chunk`], sealed by `durable`'s `fnv1a=` trailer over every
//! byte before it. The coordinator collects the lines from the magic to
//! the seal ([`read_answer`], at most [`MAX_CHUNK_POINTS`] rows, so no
//! worker can make it buffer more than a valid chunk) and verifies them
//! with [`decode_chunk`], the one verifier checkpoints on disk go
//! through too. A corrupted pipe or a buggy worker is therefore caught
//! before anything reaches a checkpoint, and rows, which are canonical
//! JSON objects, can never be mistaken for the seal.
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
use leakage_faults::{durable, panic_message, panic_point};
use leakage_telemetry::json::{self, Json};

use crate::checkpoint::{decode_chunk, encode_chunk, ChunkFile, CHUNK_MAGIC};
use crate::spec::{JobPoint, JobSpec, MAX_CHUNK_POINTS};

/// The one-time first frame: which job this worker will evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// The full job spec (the worker re-derives everything else, the
    /// job id included).
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
        json::object([json::key("job") + &self.spec.to_json()])
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
        Ok(Hello { spec })
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
            uint(body.get(name)).ok_or_else(|| bad_frame(line, &format!("bad \"{name}\"")))
        };
        Ok(Assign {
            chunk: field("chunk")?,
            start: field("start")?,
            end: field("end")?,
        })
    }
}

/// A one-line frame the worker sends upward. A chunk answer is not a
/// frame: it is a checkpoint, read by [`read_answer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFrame {
    /// Worker is alive and parsed the hello; carries its pid.
    Ready(u32),
    /// The chunk could not be evaluated (worker stays alive).
    ChunkErr {
        /// Chunk ordinal that failed.
        chunk: u64,
        /// Human-readable cause, relayed into the job status.
        error: String,
    },
}

impl WorkerFrame {
    /// Encodes the frame (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WorkerFrame::Ready(pid) => json::object([json::key("ready") + &pid.to_string()]),
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
    /// `InvalidData` for anything that is not one of the two frames.
    pub fn parse(line: &str) -> io::Result<WorkerFrame> {
        let doc = parse_frame(line)?;
        if let Some(pid) = uint(doc.get("ready")) {
            return Ok(WorkerFrame::Ready(pid as u32));
        }
        if let Some(chunk) = uint(doc.get("chunk_err")) {
            let error = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string();
            return Ok(WorkerFrame::ChunkErr { chunk, error });
        }
        Err(bad_frame(line, "unrecognized frame"))
    }
}

/// Reads the rest of one chunk answer whose [`CHUNK_MAGIC`] line the
/// caller has just consumed: the header, the rows and the seal, then
/// verifies them with [`decode_chunk`]. At most [`MAX_CHUNK_POINTS`]
/// rows are read.
///
/// # Errors
///
/// Why the answer cannot be trusted: the stream failed or ended before
/// the seal, the rows ran past the cap, or the bytes do not decode.
pub fn read_answer(
    lines: &mut impl Iterator<Item = io::Result<String>>,
) -> Result<ChunkFile, String> {
    let mut bytes = format!("{CHUNK_MAGIC}\n").into_bytes();
    // The header, every row, and the seal.
    for _ in 0..u64::from(MAX_CHUNK_POINTS) + 2 {
        let line = match lines.next() {
            Some(Ok(line)) => line,
            Some(Err(err)) => return Err(format!("stream read mid-chunk: {err}")),
            None => return Err("stream ended mid-chunk".to_string()),
        };
        let sealed = line.starts_with(durable::SEAL_PREFIX);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        if sealed {
            return decode_chunk(&bytes).map_err(|err| err.to_string());
        }
    }
    Err(format!(
        "chunk answer runs past {MAX_CHUNK_POINTS} rows without a seal"
    ))
}

/// A non-negative integer field.
fn uint(field: Option<&Json>) -> Option<u64> {
    field?
        .as_f64()
        .filter(|v| v.fract() == 0.0 && *v >= 0.0)
        .map(|v| v as u64)
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

/// Evaluates one assignment and renders the complete wire response:
/// the chunk's checkpoint bytes ([`encode_chunk`], sealed) or a single
/// `chunk_err` line, every line newline-terminated. The worker writes
/// this text unmodified.
pub fn chunk_response(spec: &JobSpec, store: &ProfileStore, assign: &Assign) -> String {
    let with_permille = spec.has_refetch_axis();
    let evaluated = if assign.end < assign.start || assign.end > spec.point_count() {
        Err(format!(
            "assignment {}..{} outside job space of {} points",
            assign.start,
            assign.end,
            spec.point_count()
        ))
    } else {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            evaluate_rows(spec, store, assign, with_permille)
        }))
        .unwrap_or_else(|payload| Err(format!("panic: {}", panic_message(&payload))))
    };
    match evaluated {
        Ok(rows) => {
            let file = ChunkFile {
                job_id: spec.id(),
                chunk: assign.chunk,
                start: assign.start,
                end: assign.end,
                rows,
            };
            String::from_utf8(encode_chunk(&file)).expect("rendered rows are UTF-8")
        }
        Err(error) => {
            let chunk = assign.chunk;
            WorkerFrame::ChunkErr { chunk, error }.encode() + "\n"
        }
    }
}

/// The rows of an in-range assignment, or the profile that could not
/// be fetched.
fn evaluate_rows(
    spec: &JobSpec,
    store: &ProfileStore,
    assign: &Assign,
    with_permille: bool,
) -> Result<Vec<String>, String> {
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
            p.benchmark == run[0].benchmark && p.side == run[0].side && p.node == run[0].node
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
    writeln!(
        output,
        "{}",
        WorkerFrame::Ready(std::process::id()).encode()
    )?;
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
        let hello = Hello {
            spec: JobSpec::default_axes("proto", Scale::Test),
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
            r#"{"chunk":1,"points":4}"#,
            r#"{"chunk_err":-1}"#,
        ] {
            assert!(WorkerFrame::parse(line).is_err() || Assign::parse(line).is_err());
        }
        assert!(Hello::parse(r#"{"id":"j1"}"#).is_err());
        assert!(Hello::parse(r#"{"job":{"name":"x","nodes":["5nm"]}}"#).is_err());
    }

    fn sample() -> ChunkFile {
        ChunkFile {
            job_id: "j0123456789abcdef".into(),
            chunk: 2,
            start: 32,
            end: 34,
            rows: vec![r#"{"a":1}"#.into(), r#"{"b":2}"#.into()],
        }
    }

    /// The lines after the magic, as the coordinator's reader sees them.
    fn answer_lines(bytes: &[u8]) -> Vec<io::Result<String>> {
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        let mut lines = text.lines().map(|line| Ok(line.to_string()));
        assert_eq!(lines.next().unwrap().unwrap(), CHUNK_MAGIC);
        lines.collect()
    }

    #[test]
    fn answers_are_read_up_to_the_seal_and_verified() {
        let file = sample();
        let bytes = encode_chunk(&file);
        let mut lines = answer_lines(&bytes).into_iter().chain([Ok("next".into())]);
        assert_eq!(read_answer(&mut lines).unwrap(), file);
        assert_eq!(lines.next().unwrap().unwrap(), "next", "stops at the seal");

        // Torn: the stream ends before the seal.
        let whole = answer_lines(&bytes);
        let mut torn = whole.into_iter().take(2);
        assert!(read_answer(&mut torn).unwrap_err().contains("ended"));

        // Any flipped byte fails the seal or the structure.
        let mut flipped = bytes.clone();
        flipped[CHUNK_MAGIC.len() + 8] ^= 0x01;
        assert!(read_answer(&mut answer_lines(&flipped).into_iter()).is_err());
    }

    /// A worker that never seals cannot make the reader buffer more
    /// rows than a valid chunk holds.
    #[test]
    fn answers_past_the_row_cap_are_refused() {
        let cap = u64::from(MAX_CHUNK_POINTS);
        let mut lines =
            std::iter::once(Ok(format!("job=j1 chunk=0 start=0 end={cap} points={cap}")))
                .chain((0..).map(|i| Ok(format!("{{\"row\":{i}}}"))));
        let err = read_answer(&mut lines).unwrap_err();
        assert!(err.contains("without a seal"), "{err}");
        assert_eq!(
            lines.next().unwrap().unwrap(),
            format!("{{\"row\":{}}}", cap + 1),
            "the header and cap + 1 rows are read, no more"
        );
    }

    #[test]
    fn in_process_worker_answers_assignments() {
        let mut spec = JobSpec::build(
            "inproc",
            Scale::Test,
            vec!["gzip".into()],
            vec![leakage_cachesim::Level1::Instruction],
            vec![leakage_energy::TechnologyNode::N70],
            crate::spec::PermilleAxis {
                from: 1000,
                to: 1003,
                step: 1,
            },
            crate::spec::MIN_CHUNK_POINTS,
        )
        .unwrap();
        spec.chunk_points = crate::spec::MIN_CHUNK_POINTS;
        let hello = Hello { spec: spec.clone() };
        let script = format!(
            "{}\n{}\n",
            hello.encode(),
            Assign {
                chunk: 0,
                start: 0,
                end: spec.point_count()
            }
            .encode()
        );
        let mut out = Vec::new();
        run_worker(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (ready, answer) = text.split_once('\n').unwrap();
        assert!(matches!(
            WorkerFrame::parse(ready).unwrap(),
            WorkerFrame::Ready(_)
        ));
        let file = decode_chunk(answer.as_bytes()).expect("the answer is a sealed checkpoint");
        assert_eq!(
            (file.job_id.as_str(), file.chunk, file.start, file.end),
            (spec.id().as_str(), 0, 0, 4)
        );
        assert!(file
            .rows
            .iter()
            .all(|r| r.contains("\"benchmark\": \"gzip\"")));
        assert!(file.rows[0].contains("\"refetch_permille\": 1000"));
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
            let file = decode_chunk(response.as_bytes()).expect(case);
            assert_eq!(file.rows, expected, "{case}");
        }
    }

    #[test]
    fn out_of_range_assignment_reports_chunk_err() {
        let spec = JobSpec::default_axes("range", Scale::Test);
        let hello = Hello { spec: spec.clone() };
        let script = format!(
            "{}\n{}\n",
            hello.encode(),
            Assign {
                chunk: 5,
                start: 0,
                end: spec.point_count() + 1
            }
            .encode()
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
