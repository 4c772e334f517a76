//! `perfbench` — the repository's benchmark driver.
//!
//! ```text
//! perfbench --workload compute-w|memory-a|service-s --seed N
//!           --seconds S --trace 0|1 --bin-dir DIR --scratch DIR
//! ```
//!
//! `--trace 0` measures the workload end to end with tracing off and
//! reports the end-to-end metrics. `--trace 1` is the separate traced
//! run: it times calls into every crate's public functions (the layer
//! probe), measures the host's bandwidth and FMA bounds, runs the
//! workload in untraced/traced pairs, reconciles the parts with the
//! wholes, and reports the per-layer metrics. Either way the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the exit code is 1 if any output failed its
//! check. See `perfbench/README.md` for the metric map.

mod common;
mod host;
mod layers;
mod npbproc;
mod report;
mod service;
mod spans;
mod stats;
mod traced;

use std::path::PathBuf;
use std::time::Instant;

use common::{Env, Rng};
use report::{catalog, Outcome};

const WORKLOADS: [&str; 3] = ["compute-w", "memory-a", "service-s"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    scratch: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --bin-dir DIR --scratch DIR", WORKLOADS.join("|"));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir, mut scratch) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    val.parse().unwrap_or_else(|_| usage("--seed takes a non-negative integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a positive number")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(val)),
            "--scratch" => scratch = Some(PathBuf::from(val)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        bin_dir: bin_dir.unwrap_or_else(|| usage("--bin-dir is required")),
        scratch: scratch.unwrap_or_else(|| usage("--scratch is required")),
    }
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host {} nproc {nproc}", npb_core::report::host_fingerprint());

    let run_dir = args.scratch.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        usage(&format!("cannot create {}: {e}", run_dir.display()));
    }
    let env = Env { bin_dir: args.bin_dir.clone(), scratch: run_dir.clone() };
    let stream = WORKLOADS.iter().position(|w| *w == args.workload).unwrap_or(0) as u64;
    let mut rng = Rng::new(args.seed, stream);
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let ticks0 = host::cpu_ticks();

    if !args.trace {
        match args.workload {
            "compute-w" => {
                npbproc::end_to_end(&env, &npbproc::COMPUTE_W, &mut rng, args.seconds, &mut out)
            }
            "memory-a" => {
                npbproc::end_to_end(&env, &npbproc::MEMORY_A, &mut rng, args.seconds, &mut out)
            }
            _ => service::end_to_end(&env, args.seed, args.seconds, &mut out),
        }
    } else {
        let tr = spans::Tracer::new();
        println!("layer probe:");
        layers::run(&env, &tr, &mut out);
        println!("layer probe took {:.2} s", t0.elapsed().as_secs_f64());
        match args.workload {
            "compute-w" => npbproc::traced(&env, &npbproc::COMPUTE_W, &mut rng, &tr, &mut out),
            "memory-a" => npbproc::traced(&env, &npbproc::MEMORY_A, &mut rng, &tr, &mut out),
            _ => service::traced(&env, &mut rng, &tr, &mut out),
        }
        let spans_path =
            args.scratch.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&spans_path) {
            Ok(()) => println!("spans written to {}", spans_path.display()),
            Err(e) => out.problem(format!("cannot write {}: {e}", spans_path.display())),
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    out.check_complete(args.trace);
    println!(
        "{} metrics ({:.2} s):",
        if args.trace { "per-layer" } else { "end-to-end" },
        t0.elapsed().as_secs_f64()
    );
    for def in catalog(args.trace) {
        let Some((_, v)) = out.metrics.iter().find(|m| m.0 == def.name) else { continue };
        match def.bound {
            Some(b) => println!(
                "  {:<28} {:>14.6} {:<8} {} is better, bound {:.0}%  [{}]",
                def.name,
                v,
                def.unit,
                def.better.label(),
                b * 100.0,
                def.what
            ),
            None => println!(
                "  {:<28} {:>14.6} {:<8} [{}] -> {}",
                def.name, v, def.unit, def.what, def.moves
            ),
        }
    }
    println!(
        "  {:<28} {:>14.6} {:<8} ({} of {} checked operations failed)",
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction",
        out.failed,
        out.attempted
    );
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, host::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("  host steal during the run: {:.1}% of CPU time", share * 100.0);
    }
    for p in &out.problems {
        println!("  FAILED: {p}");
    }
    println!("{}", out.json_line(args.trace));
    std::process::exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use npb_harness::Json;

    #[test]
    fn workloads_match_benchmark_json() {
        let v = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let Some(Json::Arr(items)) = v.get("workloads") else { panic!("workloads") };
        let names: Vec<&str> = items.iter().filter_map(|w| w.get_str("name")).collect();
        assert_eq!(names, super::WORKLOADS);
    }
}
