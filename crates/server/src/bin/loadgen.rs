//! The `loadgen` binary: closed-loop load against a running
//! `leakage-server`, reporting throughput and latency percentiles as
//! JSON on stdout.

use leakage_server::LoadgenConfig;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--connections N] [--seconds S]\n\
         \x20             [--mix PATH:WEIGHT,PATH:WEIGHT,...] [--pipeline N] [--close]"
    );
    std::process::exit(2);
}

fn parse_mix(spec: &str) -> Option<Vec<(String, u32)>> {
    let mut mix = Vec::new();
    for entry in spec.split(',').filter(|e| !e.is_empty()) {
        // Split on the *last* colon: paths may hold query strings,
        // never colons.
        let (path, weight) = entry.rsplit_once(':')?;
        mix.push((path.to_string(), weight.parse().ok()?));
    }
    (!mix.is_empty()).then_some(mix)
}

fn main() {
    let mut config = LoadgenConfig::default();
    let mut saw_addr = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => {
                config.addr = value().parse().unwrap_or_else(|_| usage());
                saw_addr = true;
            }
            "--connections" => config.connections = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                config.duration = Duration::from_secs(value().parse().unwrap_or_else(|_| usage()));
            }
            "--mix" => config.mix = parse_mix(&value()).unwrap_or_else(|| usage()),
            "--pipeline" => config.pipeline = value().parse().unwrap_or_else(|_| usage()),
            "--close" => config.keep_alive = false,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if !saw_addr {
        usage();
    }
    match leakage_server::loadgen::run(&config) {
        Ok(report) => println!("{}", report.to_json()),
        Err(err) => {
            eprintln!("loadgen: {err}");
            std::process::exit(1);
        }
    }
}
