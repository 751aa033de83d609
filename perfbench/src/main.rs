//! The dynscan benchmark: one command that runs a named workload for a
//! fixed time, checks the program's outputs, and prints every metric with
//! its unit.  See README.md for the workloads, the metrics and the run
//! protocol.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a separate traced run, whose spans are written to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.

mod burst;
mod check;
mod common;
mod gen;
mod replay;
mod serve;
mod stream;
mod trace;

use common::{Outcome, Samples};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["stream-communities", "burst-hubs-tiered", "serve-durable"];

/// Process-wide knobs of the program.  Malformed values fall back
/// silently, so a run with any of them set would measure an unknown
/// configuration; the benchmark sets threads and budgets through the
/// builders instead.
const REFUSED_ENV: [&str; 4] = [
    "DYNSCAN_KERNEL",
    "DYNSCAN_MEMORY_BUDGET",
    "RAYON_NUM_THREADS",
    "RAYON_DEQUE",
];

struct Args {
    /// Set in a measuring process: it runs `seconds / child` seconds and
    /// prints raw samples for the parent to pool.
    child: Option<u32>,
    workload: String,
    backend: dynscan_core::Backend,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut backend = dynscan_core::Backend::DynStrClu;
    let mut child = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--child" => child = Some(value.parse().map_err(|e| format!("--child: {e}"))?),
            // Reference figures only: the same stream-communities inputs
            // through the pSCAN-like exact baseline.
            "--backend" => {
                backend = match value.as_str() {
                    "dynstrclu" => dynscan_core::Backend::DynStrClu,
                    "pscan" => dynscan_core::Backend::ExactDynScan,
                    _ => return Err("--backend takes dynstrclu or pscan".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if backend != dynscan_core::Backend::DynStrClu && workload != WORKLOADS[0] {
        return Err("--backend pscan runs only stream-communities".into());
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        child: child.filter(|&k| k > 0),
        workload,
        backend,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Tracing overhead: update throughput of the untraced rounds over that
/// of the traced rounds of the same run, minus one.
pub fn overhead(out: &mut Outcome, updates: [u64; 2], update_ms: [f64; 2]) {
    let rate = |i: usize| updates[i] as f64 / update_ms[i].max(1e-9);
    out.metric("trace.overhead_pct", (rate(0) / rate(1) - 1.0) * 100.0, "%");
}

/// Untraced runs combine the samples of this many processes, one after
/// the other, each measuring an equal share of `--seconds` on the same
/// inputs (see [`Samples::report`]).  Timings on the reference machine
/// drift by 20–40 % from one process to the next and over minutes, and
/// slow spells of a fraction of a second strike runs of consecutive
/// writes in one process; the per-operation median over seven processes
/// leaves both out.  A serve process pays for a server start, a drain, a
/// replica replay and a reenactment, so that workload runs fewer.
fn processes(workload: &str) -> u32 {
    if workload == "serve-durable" {
        3
    } else {
        7
    }
}

fn run_workload(args: &Args, deadline: Duration, tracer: &mut Tracer) -> Outcome {
    match args.workload.as_str() {
        "stream-communities" => {
            dynscan_baseline::install();
            stream::run(args.seed, deadline, tracer, args.backend)
        }
        "burst-hubs-tiered" => burst::run(args.seed, deadline, tracer),
        _ => serve::run(args.seed, deadline, tracer),
    }
}

/// Run one measuring process: fold its operations and errors into `out`
/// and return its samples.
fn run_child(args: &Args, out: &mut Outcome) -> Option<Samples> {
    let backend = if args.backend == dynscan_core::Backend::DynStrClu {
        "dynstrclu"
    } else {
        "pscan"
    };
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", &args.workload, "--backend", backend])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .args(["--child", &processes(&args.workload).to_string()])
            .stderr(Stdio::inherit())
            .output()
    });
    let output = match child {
        Ok(o) if o.status.success() => o,
        Ok(o) => {
            out.errors
                .push(format!("a measuring process exited with {}", o.status));
            return None;
        }
        Err(e) => {
            out.errors
                .push(format!("starting a measuring process: {e}"));
            return None;
        }
    };
    let mut samples = Samples::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if let Some(error) = line.strip_prefix("E ") {
            out.errors.push(error.to_string());
        } else if let Some(op) = line.strip_prefix("O ") {
            let words: Vec<&str> = op.split_whitespace().collect();
            match words[..] {
                [kind, attempted, failed] => out.ops_add(
                    kind,
                    attempted.parse().unwrap_or(0),
                    failed.parse().unwrap_or(0),
                ),
                _ => out
                    .errors
                    .push(format!("unexpected operation line: {line}")),
            }
        } else if !samples.read_line(line) {
            out.errors
                .push(format!("unexpected output of a measuring process: {line}"));
        }
    }
    Some(samples)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--backend dynstrclu|pscan]"
            );
            std::process::exit(2);
        }
    };
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set; unset them and rerun");
        std::process::exit(2);
    }
    if let Some(share) = args.child {
        let mut tracer = Tracer::new(false);
        let deadline = Duration::from_secs_f64(args.seconds as f64 / f64::from(share));
        let mut out = run_workload(&args, deadline, &mut tracer);
        print!("{}", out.samples.encode());
        for (kind, (attempted, failed)) in &out.ops {
            println!("O {kind} {attempted} {failed}");
        }
        for e in &out.errors {
            println!("E {e}");
        }
        return;
    }
    let mut out;
    if args.trace {
        let mut tracer = Tracer::new(true);
        out = run_workload(&args, Duration::from_secs(args.seconds), &mut tracer);
        let path = PathBuf::from("perfbench/out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let summary: Vec<(String, f64)> = out
            .metrics()
            .iter()
            .map(|(name, value, _)| (name.to_string(), *value))
            .collect();
        if let Err(e) = tracer.write(&path, &summary) {
            out.errors.push(format!("writing {}: {e}", path.display()));
        }
    } else {
        out = Outcome::new();
        let runs: Vec<Samples> = (0..processes(&args.workload))
            .filter_map(|_| run_child(&args, &mut out))
            .collect();
        Samples::report(&runs, &mut out);
    }
    if out.ops.values().map(|o| o.0).sum::<u64>() == 0 {
        out.errors.push("no operation was attempted".into());
    }
    common::print_result(&out);
}
