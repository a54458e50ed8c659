//! End-to-end and per-layer benchmark of the CC → CC-CC module driver.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_dag|edit_stream|restart_warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times operations and prints the end-to-end
//! metrics, with times calibrated against a fixed kernel (see
//! `calibrate`); with `--trace 1` it prints the per-layer metrics of a
//! separate traced run. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. Every
//! operation's root verdict is checked against the source step engine,
//! and each run ends with a differential check against the sequential
//! compiler. See `perfbench/README.md` for what each metric means.

mod calibrate;
mod gen;
mod oracle;
mod stats;
mod traced;
mod workloads;

use calibrate::{Calibration, KernelThread};
use stats::{blocks, median, percentile, ratio, samples_needed, Tally};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;
use workloads::Workload;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;
/// The tail percentile printed beside the median (not a result metric:
/// across runs it follows host interference more than the program).
const TAIL: f64 = 0.9;
/// Most blocks a run's samples are cut into; each holds at least
/// `samples_needed(TAIL)` samples (see `stats::blocks`).
const MAX_BLOCKS: usize = 10;
/// Operations after which the peak resident set is read.
const RSS_AFTER_OPS: usize = 200;
/// Untimed calibration kernel runs before the first timed one.
const KERNEL_WARMUP: usize = 20;
/// Workers per timed operation. One: on a 2-vCPU guest a two-worker
/// build's wall time swings with how the host schedules the second vCPU
/// (p50 spread across runs 0.21 against 0.06 at one worker, measured
/// back to back), which would bury what the benchmark is for. The traced
/// run measures both worker counts (`sched.*`).
const WORKERS: usize = 1;

/// End-to-end metrics with their units, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("run_ms.p50", "ms"),
    ("code_expansion", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics with their units, in report order.
const PER_LAYER: [(&str, &str); 41] = [
    ("parse.ms", "ms"),
    ("parse.nodes_per_ms", "nodes/ms"),
    ("session.ms", "ms"),
    ("typecheck.ms", "ms"),
    ("typecheck.conv_memo_hit_ratio", "ratio"),
    ("translate.ms", "ms"),
    ("translate.out_words", "words"),
    ("check.ms", "ms"),
    ("check.conv_memo_hit_ratio", "ratio"),
    ("verify.ms", "ms"),
    ("verify.share", "ratio"),
    ("query.ms", "ms"),
    ("query.typecheck_runs", "count"),
    ("query.translate_runs", "count"),
    ("query.check_runs", "count"),
    ("query.verify_runs", "count"),
    ("query.runs_per_alpha_class", "ratio"),
    ("query.cutoff_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.coalesced", "count"),
    ("store.open_ms", "ms"),
    ("store.read_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("store.sections_decoded", "count"),
    ("store.retries", "count"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.words", "words"),
    ("sched.speedup_2w", "ratio"),
    ("sched.phase_inflation_2w", "ratio"),
    ("sched.gap_vs_critical_path", "ratio"),
    ("sched.idle_ms", "ms"),
    ("intern.hit_ratio", "ratio"),
    ("intern.nodes", "count"),
    ("link.ms", "ms"),
    ("eval.ms", "ms"),
    ("other.ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// A reported metric: name, unit, value.
type Metric = (&'static str, &'static str, f64);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {:?})", workloads::NAMES));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1) as f64,
        trace: trace.unwrap_or(0) != 0,
    })
}

fn main() {
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch");
    let result = parse_args().and_then(|args| {
        println!("host nproc {}", std::thread::available_parallelism().map_or(1, usize::from));
        // The traced run times two-worker builds too, so it keeps both CPUs.
        if !args.trace {
            match pin_to_current_cpu() {
                Ok(cpu) => println!("pinned to CPU {cpu}"),
                Err(message) => println!("not pinned: {message}"),
            }
        }
        measure(&args, &scratch)
    });
    // Store directories are per process; leave nothing behind.
    for name in workloads::NAMES {
        let _ = std::fs::remove_dir_all(scratch.join(format!("{name}-{}", std::process::id())));
    }
    let _ = std::fs::remove_dir(&scratch);
    match result {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

fn measure(args: &Args, scratch: &Path) -> Result<String, String> {
    let kernel = KernelThread::start();
    for _ in 0..KERNEL_WARMUP {
        kernel.run();
    }
    // Set-up is calibrated like the loop's times, by the kernel runs
    // between set-ups: together they take a second or two, so one scale.
    let (mut setup_s, mut kernel_ms) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        kernel_ms.push(kernel.run());
        let started = Instant::now();
        built = Some(workloads::setup(&args.workload, args.seed, scratch, args.trace)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    println!(
        "set-up: median {:.6} s uncalibrated, kernel median {:.4} ms",
        median(&setup_s),
        median(&kernel_ms)
    );
    let setup_s = median(&setup_s) * calibrate::REFERENCE_MS / median(&kernel_ms);
    let mut wl = built.expect("at least one set-up ran");
    describe(args, wl.as_ref());

    let (metrics, mut tally) = if args.trace {
        let traced = traced::run(wl.as_mut(), args.seconds)?;
        for (name, value) in &traced.metrics {
            println!("{name:32} {value:>14.6}");
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = traced.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
                (name, unit, value.unwrap_or(f64::NAN))
            })
            .collect();
        (metrics, traced.tally)
    } else {
        timed_loop(wl.as_mut(), &kernel, args.seconds, setup_s)?
    };

    let prep = wl.prepared();
    let differential = oracle::differential(wl.session(), prep.root(), prep.expected);
    if let Err(message) = &differential {
        println!("differential check FAILED: {message}");
    }
    tally.record(differential.is_ok());
    println!(
        "operations: {} attempted, {} failed (failed_frac {:.6})",
        tally.attempted,
        tally.failed,
        tally.failed_frac()
    );

    let finite = metrics.iter().all(|(_, _, v): &Metric| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed,
        body.join(", ")
    ))
}

fn describe(args: &Args, wl: &dyn Workload) {
    let prep = wl.prepared();
    let report = wl.setup_report();
    let busy: f64 = report.units.iter().map(|u| u.duration.as_nanos() as f64).sum();
    println!(
        "workload {} seed {}: {} units, α-twin share {:.3}, critical-path share {:.3}, \
         reference verdict {}",
        args.workload,
        args.seed,
        prep.graph.units.len(),
        prep.graph.twin_share(),
        ratio(report.critical_path_ns as f64, busy),
        prep.expected,
    );
}

/// Pins the process, and every thread it starts later, to the CPU it runs
/// on. A one-worker build hands its work to a newly spawned worker thread
/// and waits for it. Unpinned, the kernel starts that thread on the other,
/// idle vCPU, and the waiting thread's vCPU halts; on a busy host each
/// operation then waits for the hypervisor to wake a halted vCPU twice.
/// Pinned, the waiting thread and its worker share one vCPU, which stays
/// busy for the whole loop.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: plain libc calls; the mask lives across the call and is
    // `size` bytes long.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_owned())?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU number past the affinity mask")? |= 1 << (cpu % 64);
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Result<usize, String> {
    Err("CPU affinity is only set on Linux".to_owned())
}

/// The untraced loop: the workload's warm-up, then operations on
/// [`WORKERS`] workers until `seconds` have passed and every block has
/// enough samples.
fn timed_loop(
    wl: &mut dyn Workload,
    kernel: &KernelThread,
    seconds: f64,
    setup_s: f64,
) -> Result<(Vec<Metric>, Tally), String> {
    let root = wl.prepared().root().to_owned();
    let expected = wl.prepared().expected;
    for _ in 0..wl.warmup_ops() {
        wl.op(WORKERS)?;
    }
    let mut tally = Tally::default();
    let (mut latency, mut run_ms) = (Vec::new(), Vec::new());
    let mut units = Vec::new();
    let mut peak_rss = f64::NAN;
    let mut calibration = Calibration::new();
    let started = Instant::now();
    let needed = samples_needed(TAIL);
    while started.elapsed().as_secs_f64() < seconds || latency.len() < needed.max(RSS_AFTER_OPS) {
        calibration.tick(kernel, latency.len());
        let op = wl.op(WORKERS)?;
        let t = Instant::now();
        let verdict = wl.session().observe(&root).map_err(|e| e.to_string())?;
        run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        latency.push(op.ms);
        units.push(op.report.units.iter().filter(|u| u.status.is_ok()).count() as f64);
        tally.record(op.complete && verdict == Some(expected));
        // Read after a fixed amount of work, not at the end of the loop:
        // the driver's memory grows with every operation, and a count that
        // depends on host speed would make the peak depend on it too.
        if latency.len() == RSS_AFTER_OPS {
            peak_rss = peak_rss_mib();
        }
    }
    let report = wl.setup_report();
    let source: usize = report.units.iter().map(|u| u.source_words).sum();
    let target: usize = report.units.iter().map(|u| u.target_words).sum();
    let ranges = blocks(latency.len(), (latency.len() / needed).min(MAX_BLOCKS));
    let per_block = |stat: &dyn Fn(Range<usize>) -> f64| {
        median(&ranges.iter().map(|r| stat(r.clone())).collect::<Vec<_>>())
    };
    let p50 = |samples: &[f64]| percentile(samples, 0.5).unwrap_or(f64::NAN);
    let values = [
        setup_s,
        per_block(&|r| p50(&latency[r.clone()]) * calibration.scale(r)),
        per_block(&|r| median(&run_ms[r.clone()]) * calibration.scale(r)),
        ratio(target as f64, source as f64),
        peak_rss,
    ];
    println!(
        "timed loop: {} operations in {:.2} s after {} warm-up operations, {} blocks, \
         {} calibration kernel runs",
        latency.len(),
        started.elapsed().as_secs_f64(),
        wl.warmup_ops(),
        ranges.len(),
        calibration.runs()
    );
    println!(
        "uncalibrated: latency p50 {:.6} ms, p{:.0} {:.6} ms, run p50 {:.6} ms (medians over \
         blocks); units_per_s {:.3}",
        per_block(&|r| p50(&latency[r])),
        TAIL * 100.0,
        per_block(&|r| percentile(&latency[r], TAIL).unwrap_or(f64::NAN)),
        per_block(&|r| median(&run_ms[r])),
        ratio(units.iter().sum(), latency.iter().sum::<f64>() / 1e3)
    );
    let per_block_line = |stat: &dyn Fn(Range<usize>) -> f64| {
        ranges.iter().map(|r| format!("{:.3}", stat(r.clone()))).collect::<Vec<_>>().join(" ")
    };
    println!("latency p50 per block (ms): {}", per_block_line(&|r| median(&latency[r])));
    println!("kernel median per block (ms): {}", per_block_line(&|r| calibration.kernel_median(r)));
    let quantiles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|&q| format!("{:.3}", percentile(&latency, q).unwrap_or(f64::NAN)))
        .collect();
    println!("latency quantiles p10/p25/p50/p75/p90 (ms): {}", quantiles.join(" / "));
    let metrics: Vec<_> =
        END_TO_END.iter().zip(values).map(|(&(name, unit), value)| (name, unit, value)).collect();
    for (name, unit, value) in &metrics {
        println!("{name:32} {value:>14.6} {unit}");
    }
    Ok((metrics, tally))
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    #[test]
    fn every_reported_metric_is_declared_in_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let count = declared.matches("\"name\": ").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len() + 3, "3 workloads plus metrics");
    }
}
