//! The `leakage-server` binary: serve the analysis API until
//! SIGINT/SIGTERM, then drain and exit.

use leakage_server::{signal, Server, ServerConfig};
use leakage_workloads::Scale;
use std::io::Write as _;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: leakage-server [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
         \x20                  [--scale test|small|paper|CYCLES] [--timeout-ms MS]\n\
         \x20                  [--cache-entries N] [--sim-concurrency N] [--sweep-concurrency N]\n\
         \x20                  [--idle-timeout-ms MS] [--max-requests-per-conn N] [--max-connections N]\n\
         \x20                  [--pipeline-batch N] [--cache-shards N] [--no-preserialize]\n\
         \x20                  [--no-recorder] [--recorder-cap N]\n\
         \x20                  [--jobs-dir PATH] [--job-workers N] [--job-stall-ms MS]\n\
         \x20                  [--job-worker-env KEY=VALUE] [--max-active-jobs N]\n\
         \x20                  [--job-listen HOST:PORT] [--job-token SECRET]\n\
         \x20                  [--job-hb-timeout-ms MS] [--job-worker-quorum N]"
    );
    std::process::exit(2);
}

fn parse_config() -> ServerConfig {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => config.addr = value(),
            "--workers" => config.workers = value().parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => config.queue_depth = value().parse().unwrap_or_else(|_| usage()),
            "--scale" => {
                config.default_scale =
                    Scale::parse_arg(&value()).unwrap_or_else(|| usage());
            }
            "--timeout-ms" => {
                config.request_timeout =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            "--cache-entries" => {
                config.cache_entries = value().parse().unwrap_or_else(|_| usage());
            }
            "--sim-concurrency" => {
                config.sim_concurrency = value().parse().unwrap_or_else(|_| usage());
            }
            "--sweep-concurrency" => {
                config.sweep_concurrency = value().parse().unwrap_or_else(|_| usage());
            }
            "--idle-timeout-ms" => {
                config.idle_timeout =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            "--max-requests-per-conn" => {
                config.max_requests_per_connection =
                    value().parse().unwrap_or_else(|_| usage());
            }
            "--max-connections" => {
                config.max_connections = value().parse().unwrap_or_else(|_| usage());
            }
            "--pipeline-batch" => {
                config.pipeline_batch = value().parse().unwrap_or_else(|_| usage());
            }
            "--cache-shards" => {
                config.cache_shards = value().parse().unwrap_or_else(|_| usage());
            }
            "--no-preserialize" => config.preserialize = false,
            "--no-recorder" => config.recorder = false,
            "--recorder-cap" => {
                config.recorder_cap = value().parse().unwrap_or_else(|_| usage());
            }
            "--jobs-dir" => config.jobs_dir = value().into(),
            "--job-workers" => config.job_workers = value().parse().unwrap_or_else(|_| usage()),
            "--job-stall-ms" => {
                config.job_stall =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            // Repeatable; each occurrence adds one KEY=VALUE pair to
            // the job workers' environment (e.g. LEAKAGE_FAULTS arms
            // for crash drills).
            "--job-worker-env" => {
                let pair = value();
                let (key, val) = pair.split_once('=').unwrap_or_else(|| usage());
                config.job_worker_env.push((key.into(), val.into()));
            }
            "--max-active-jobs" => {
                config.max_active_jobs = value().parse().unwrap_or_else(|_| usage());
            }
            "--job-listen" => config.job_listen = Some(value()),
            "--job-token" => config.job_token = Some(value()),
            "--job-hb-timeout-ms" => {
                config.job_hb_timeout =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            "--job-worker-quorum" => {
                config.job_worker_quorum = value().parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    config
}

fn main() {
    let config = parse_config();
    signal::install_shutdown_handler();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("leakage-server: failed to start: {err}");
            std::process::exit(1);
        }
    };
    // The exact line CI greps to discover the ephemeral port.
    println!("listening on {}", server.addr());
    // Same contract for the remote-worker listener, when enabled.
    if let Some(addr) = server.jobs().remote_addr() {
        println!("job fabric listening on {addr}");
    }
    let _ = std::io::stdout().flush();

    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("leakage-server: shutdown requested, draining");
    server.shutdown();
    eprintln!("leakage-server: drained, exiting");
}
