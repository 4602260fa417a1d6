//! Benchmark command line: runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! layer replay and prints the per-layer metrics. Human-readable lines
//! come first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exit code 0 means the
//! run finished, whatever its verdict; 2 means bad arguments.

use std::time::Instant;

use gh_faas::fleet::ExecMode;
use perfbench::{
    dag_latency_probes, dag_reference, outcome, proc_status_bytes, Metric, Outcome, Rig, Verdict,
    Workload, DAG_LATENCY_PROBES,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val}"))),
                )
            }
            "--seed" => seed = Some(val.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU time (user + system) this process has used, all threads, seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SEC
}

/// Bytes per MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

fn exec_mode(threads: usize) -> ExecMode {
    if threads >= 2 {
        ExecMode::Parallel { threads }
    } else {
        ExecMode::Serial
    }
}

/// Set-up repeats, their median is `setup_s`: at least this many, more
/// until they have taken a second.
const SETUP_REPS: usize = 5;

/// Timed full-size runs: at least this many, more while the time budget
/// allows another one.
const MIN_RUNS: usize = 3;

fn end_to_end(args: &Args) -> (Vec<Metric>, Verdict) {
    let w = args.workload;
    let mode = exec_mode(w.threads());
    let requests = w.default_requests();

    // Set-up: catalog synthesis plus the work before the first arrival
    // (see `Rig::setup`).
    let mut setup = Vec::new();
    while setup.len() < SETUP_REPS || setup.iter().sum::<f64>() < 1.0 {
        let t0 = Instant::now();
        Rig::new(w, args.seed, requests).setup(mode);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup);

    // Untimed references for the DAG checks and sojourn percentiles.
    let probe_rig = Rig::new(w, args.seed, requests);
    let (reference, latency) = match &probe_rig {
        Rig::Dag { catalog, cfg } => (
            Some(dag_reference(catalog, cfg).kv_fingerprint),
            Some(dag_latency_probes(catalog, cfg, DAG_LATENCY_PROBES)),
        ),
        Rig::Cluster { .. } => (None, None),
    };
    drop(probe_rig);

    let mut verdict = Verdict::default();

    // Timed full-size runs, repeated until the time budget is spent. The
    // first one also yields the simulated figures, the checks and the
    // digest; every repeat must reproduce that digest.
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut first: Option<Outcome> = None;
    while walls.len() < MIN_RUNS || start.elapsed().as_secs_f64() + median(&walls) <= args.seconds {
        let t0 = Instant::now();
        let c0 = cpu_seconds();
        let sim = Rig::new(w, args.seed, requests).run(mode);
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - c0);
        let mut o = outcome(&sim, reference, latency.as_ref());
        if let Some(base) = &first {
            if o.digest != base.digest {
                o.failures.push(format!(
                    "repeat identity: digest {:#018x} != first run {:#018x}",
                    o.digest, base.digest
                ));
            }
        }
        verdict.record(&o);
        first.get_or_insert(o);
    }
    let out = first.expect("at least one run");
    let wall = median(&walls);
    let host_ns = ((wall - setup_s).max(0.0) * 1e9) / requests as f64;
    let cpu = median(&cpus);
    println!(
        "{}: seed {} | {} requests | sim_digest {:#018x} | threads {}",
        w.name(),
        args.seed,
        out.offered,
        out.digest,
        w.threads(),
    );
    println!(
        "  {} timed runs, wall s {:?} | median cpu {cpu:.2} s ({:.2} threads busy)",
        walls.len(),
        walls
            .iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        cpu / wall
    );
    println!(
        "  offered {} completed {} abandoned {} rejected {}",
        out.offered, out.completed, out.abandoned, out.rejected
    );
    // Simulated figures that depend on the seed too strongly for a
    // cross-seed bound: reported here, guarded exactly by sim_digest.
    for (name, value, unit, n) in [
        ("sim_p50_ms", out.p50_ms, "ms", out.latency_samples),
        ("sim_p99_ms", out.p99_ms, "ms", out.latency_samples),
        ("sim_mean_ms", out.mean_ms, "ms", out.latency_samples),
        ("fail_frac", out.fail_frac(), "frac", out.offered),
    ] {
        println!("  {name:<32} {value:>16.6} {unit:<6} (n={n})");
    }
    let metrics = vec![
        Metric::new("host_ns_per_req", host_ns, "ns", walls.len() as u64),
        Metric::new("setup_s", setup_s, "s", setup.len() as u64),
        Metric::new(
            "peak_rss_mb",
            proc_status_bytes("VmHWM:") as f64 / MIB,
            "MiB",
            1,
        ),
        Metric::new("sim_goodput_rps", out.goodput_rps, "1/s", out.completed),
        Metric::new("served_frac", out.served_frac(), "frac", out.offered),
    ];
    (metrics, verdict)
}

fn main() {
    let args = parse_args();
    let (metrics, verdict) = if args.trace {
        perfbench::layers::traced(args.workload, args.seed)
    } else {
        end_to_end(&args)
    };
    for m in &metrics {
        println!(
            "  {:<32} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &verdict.failures {
        println!("  CHECK FAILED: {f}");
    }
    let correct = verdict.failures.is_empty();
    println!("  correct: {correct}");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted.max(1),
        verdict.failed,
        body.join(", ")
    );
}
