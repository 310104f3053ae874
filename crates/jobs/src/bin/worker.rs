//! `leakage-job-worker`: one sweep-fabric worker process.
//!
//! Reads the job hello and chunk assignments on stdin, answers each
//! chunk on stdout with its sealed checkpoint bytes or a `chunk_err`
//! frame (see `leakage_jobs::protocol`), and exits 0 on EOF.
//! The coordinator spawns these as local children; the binary takes no
//! arguments.
//!
//! All real logic lives in the library so tests can drive a worker
//! in-process; this binary only wires the pipes and maps protocol
//! violations to a non-zero exit.

use std::io::{self, BufWriter, Write};

fn main() {
    if std::env::args().len() > 1 {
        eprintln!(
            "usage: leakage-job-worker   (no arguments; speaks the job protocol on stdin/stdout)"
        );
        std::process::exit(2);
    }
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    if let Err(err) = leakage_jobs::protocol::run_worker(stdin.lock(), &mut out) {
        let _ = out.flush();
        eprintln!("leakage-job-worker: {err}");
        std::process::exit(1);
    }
    let _ = out.flush();
}
