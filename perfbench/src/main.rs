//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <fire_mem|saga_wal|author_verify> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from the seed, measures for the given
//! time, checks every output, and prints a report (lines starting with
//! `#`) followed by one JSON line with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See `perfbench/README.md`.

mod author;
mod author_verify;
mod fire_mem;
mod layers;
mod report;
mod saga_wal;
mod served;
mod specs;
mod timed_store;
mod trace;
mod util;

use report::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fire_mem|saga_wal|author_verify> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let _ = std::fs::create_dir_all(util::work_dir());
    report.note(format!(
        "host: nproc={} work_dir_fs={} seed={} seconds={} trace={}",
        util::nproc(),
        util::filesystem_of(&util::work_dir()),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let (steal0, total0) = util::cpu_ticks();
    match args.workload.as_str() {
        "fire_mem" => fire_mem::run(args.seed, args.seconds, args.trace, &mut report),
        "saga_wal" => saga_wal::run(args.seed, args.seconds, args.trace, &mut report),
        "author_verify" => author_verify::run(args.seed, args.seconds, args.trace, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    // Time the hypervisor gave this machine's CPUs to other guests: runs
    // of the same code differ most when it is high.
    let (steal1, total1) = util::cpu_ticks();
    report.note(format!(
        "host: cpu steal {:.1}% of cpu time during the run",
        100.0 * steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64
    ));
    let ok = report.attempted.saturating_sub(report.failed) as f64 / report.attempted.max(1) as f64;
    report.set("ok_ratio", ok);
    report.set("peak_rss_mb", util::peak_rss_mb());
    report.print(args.trace);
}
