//! Helpers shared by the `bench_*` examples: their one flag and the
//! quartiles they report.

/// The value of `--commit SHA`, the only flag a bench example takes
/// (`"unknown"` without it). Anything else prints a usage line naming
/// `program` and exits with status 2.
pub fn commit_arg(program: &str) -> String {
    let mut commit = String::from("unknown");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--commit" => commit = args.next().unwrap_or_else(|| usage(program)),
            _ => usage(program),
        }
    }
    commit
}

fn usage(program: &str) -> ! {
    eprintln!("usage: {program} [--commit SHA]");
    std::process::exit(2);
}

/// `(q1, median, q3)` by linear interpolation between order statistics.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}
