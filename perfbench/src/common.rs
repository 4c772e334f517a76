//! Pieces shared by the workloads: the seeded generator, one run's
//! sample, the result-signature book, per-code aggregation and the
//! child-process runner.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use npb_harness::Json;

use crate::host::{self, StealSampler};
use crate::report::Outcome;
use crate::spans::{child, TraceCtx};
use crate::stats::{geomean, median, spread};

/// splitmix64: the workload generator. The same seed gives the same
/// order of runs, the same request mix and the same job seeds.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One verified run of one code.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The program's own timed section.
    pub timed_s: f64,
    pub mops: f64,
    /// What the user waited: process start to exit, the whole in-process
    /// call, or submit to `done`.
    pub wall_s: f64,
    /// Share of the host's CPU time stolen while it ran.
    pub steal: f64,
    /// Share of its wall time during which the vCPUs it needs ran.
    pub ran: f64,
}

impl Sample {
    /// The sample as it would read had the hypervisor stolen nothing: its
    /// times scaled by `ran`. For a process whose threads fill the host's
    /// vCPUs and meet at barriers that is the time every vCPU ran (see
    /// [`crate::host::StealSampler`]); for a one-thread job, 1 - the share
    /// stolen.
    pub fn unstolen(self) -> Sample {
        let f = self.ran.clamp(0.25, 1.0);
        Sample { timed_s: self.timed_s * f, mops: self.mops / f, wall_s: self.wall_s * f, ..self }
    }
}

/// Samples per code, in a stable order.
pub type PerCode = BTreeMap<&'static str, Vec<Sample>>;

fn med(xs: impl Iterator<Item = f64>) -> Option<f64> {
    median(&xs.collect::<Vec<_>>())
}

/// The samples a code's medians are taken over (see
/// [`host::least_stolen`]).
pub fn least_stolen(samples: &[Sample]) -> Vec<Sample> {
    host::least_stolen(samples, |s| s.steal)
}

/// Per-code medians over [`least_stolen`] samples: `(timed, mops, wall,
/// setup)`.
pub fn code_medians(samples: &[Sample]) -> Option<(f64, f64, f64, f64)> {
    let samples = &least_stolen(samples)[..];
    Some((
        med(samples.iter().map(|s| s.timed_s))?,
        med(samples.iter().map(|s| s.mops))?,
        med(samples.iter().map(|s| s.wall_s))?,
        med(samples.iter().map(|s| s.wall_s - s.timed_s))?,
    ))
}

/// The end-to-end metrics from per-code samples: `timed_s` and
/// `mops_geomean`, and when the samples are whole runs (`npb` processes)
/// also `wall_s` and `setup_s`; otherwise the caller defines those two.
pub fn set_code_metrics(out: &mut Outcome, per_code: &PerCode, whole_runs: bool) {
    let meds: Option<Vec<_>> = per_code.values().map(|v| code_medians(v)).collect();
    let Some(meds) = meds.filter(|m| !m.is_empty()) else {
        out.problem("no verified runs to summarise".into());
        return;
    };
    out.set("timed_s", Some(meds.iter().map(|m| m.0).sum()));
    out.set("mops_geomean", geomean(&meds.iter().map(|m| m.1).collect::<Vec<_>>()));
    if whole_runs {
        out.set("wall_s", Some(meds.iter().map(|m| m.2).sum()));
        out.set("setup_s", Some(meds.iter().map(|m| m.3).sum()));
    }
}

/// Print the per-code table a `mops_geomean` move is attributed with.
pub fn print_code_table(title: &str, per_code: &PerCode) {
    println!("{title}");
    println!(
        "  {:<4} {:>7} {:>9} {:>7} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "code",
        "kept/n",
        "max_steal",
        "min_ran",
        "timed_s",
        "timed_iqr",
        "Mop/s",
        "wall_s",
        "setup_s"
    );
    for (code, v) in per_code {
        if let Some((t, m, w, s)) = code_medians(v) {
            let kept = least_stolen(v);
            let iqr = spread(&kept.iter().map(|s| s.timed_s).collect::<Vec<_>>())
                .map_or("-".into(), |x| format!("{:.1}%", x * 100.0));
            let steal = kept.iter().map(|s| s.steal).fold(0.0, f64::max);
            let ran = kept.iter().map(|s| s.ran).fold(1.0, f64::min);
            println!(
                "  {code:<4} {:>7} {:>8.1}% {:>6.1}% {t:>12.6} {iqr:>10} {m:>12.2} {w:>12.6} {s:>12.6}",
                format!("{}/{}", kept.len(), v.len()),
                steal * 100.0,
                ran * 100.0
            );
        }
    }
}

/// NPB codes whose verified quantity is a reduction the team size
/// reorders (MG's final norm, EP's Gaussian sums): their result
/// signature is fixed per thread count, not across thread counts, and
/// their cross-width agreement is the NPB tolerance the `verified` flag
/// already checks. Every other code must agree bit for bit at any width.
const ORDER_SENSITIVE: [&str; 2] = ["MG", "EP"];

/// Result signatures seen so far, keyed by code, class and (for the
/// order-sensitive codes) thread count.
#[derive(Default)]
pub struct SigBook(BTreeMap<String, String>);

impl SigBook {
    /// Record `sig`; `false` if an earlier run of the same key disagreed.
    pub fn agree(&mut self, code: &str, class: &str, threads: usize, sig: &str) -> bool {
        let key = if ORDER_SENSITIVE.contains(&code) {
            format!("{code}/{class}/t{threads}")
        } else {
            format!("{code}/{class}")
        };
        self.0.entry(key).or_insert_with(|| sig.to_string()) == sig
    }
}

/// What an NPB report says about itself.
pub struct Got<'a> {
    pub name: &'a str,
    pub class: &'a str,
    pub threads: usize,
    pub verified: bool,
    pub sig: Option<&'a str>,
}

/// The checks every NPB report must pass: it names the code, class and
/// width asked for, verified against the official constants, and its
/// `result_sig` agrees with every earlier run of the same code.
pub fn check_report(
    sigs: &mut SigBook,
    code: &str,
    class: &str,
    threads: usize,
    got: &Got,
) -> Result<(), String> {
    if !got.name.eq_ignore_ascii_case(code) || got.class != class || got.threads != threads {
        return Err(format!(
            "{code} {class} t{threads}: report names {} {} t{}",
            got.name, got.class, got.threads
        ));
    }
    if !got.verified {
        return Err(format!("{code} {class} t{threads}: did not verify"));
    }
    let sig = got.sig.ok_or_else(|| format!("{code} {class} t{threads}: no result_sig"))?;
    if !sigs.agree(code, class, threads, sig) {
        return Err(format!(
            "{code} {class} t{threads}: result_sig {sig} disagrees with an earlier run"
        ));
    }
    Ok(())
}

/// [`check_report`] for an in-process class-S report.
pub fn check_bench_report(
    sigs: &mut SigBook,
    code: &str,
    threads: usize,
    rep: &npb::BenchReport,
) -> Result<(), String> {
    let (class, sig) = (rep.class.to_string(), rep.result_sig.map(|s| format!("{s:016x}")));
    let got = Got {
        name: rep.name,
        class: &class,
        threads: rep.threads,
        verified: rep.verified.is_success(),
        sig: sig.as_deref(),
    };
    check_report(sigs, code, "S", threads, &got)
}

/// Run `npb <code> --class <class> --threads <threads> --json` and check
/// its report. The wall time covers process start to exit.
pub fn run_npb(
    npb: &Path,
    code: &'static str,
    class: &str,
    threads: usize,
    sigs: &mut SigBook,
    ctx: Option<TraceCtx>,
) -> Result<Sample, String> {
    let args = [
        code.to_ascii_lowercase(),
        "--class".into(),
        class.into(),
        "--threads".into(),
        threads.to_string(),
        "--json".into(),
    ];
    let sampler = StealSampler::start();
    let ran_child = child(ctx, "npb.process", || run_child(npb, &args, Duration::from_secs(150)));
    let (steal, ran) = sampler.finish();
    let (status, stdout, stderr, wall) = ran_child?;
    if !status {
        return Err(format!("npb {} exited with failure: {}", args.join(" "), stderr.trim()));
    }
    let mut s =
        child(ctx, "npb.check", || parse_npb_record(&stdout, code, class, threads, sigs, wall))?;
    (s.steal, s.ran) = (steal, ran);
    Ok(s)
}

fn parse_npb_record(
    stdout: &str,
    code: &str,
    class: &str,
    threads: usize,
    sigs: &mut SigBook,
    wall: f64,
) -> Result<Sample, String> {
    let line =
        stdout.lines().rev().find(|l| l.starts_with('{')).ok_or("npb printed no --json record")?;
    let v = Json::parse(line).map_err(|e| format!("npb --json record unreadable: {e}"))?;
    let timed = v.get_num("time_secs").ok_or("no time_secs")?;
    let mops = v.get_num("mops").ok_or("no mops")?;
    let got = Got {
        name: v.get_str("name").unwrap_or(""),
        class: v.get_str("class").unwrap_or(""),
        threads: v.get_uint("threads").unwrap_or(u64::MAX) as usize,
        verified: v.get_str("verified") == Some("success"),
        sig: v.get_str("result_sig"),
    };
    check_report(sigs, code, class, threads, &got)?;
    Ok(Sample { timed_s: timed, mops, wall_s: wall, steal: 0.0, ran: 1.0 })
}

/// Run a child to completion, killing it after `limit`. Returns success,
/// stdout, stderr and the wall time from spawn to exit.
pub fn run_child(
    bin: &Path,
    args: &[String],
    limit: Duration,
) -> Result<(bool, String, String, f64), String> {
    let t0 = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let pid = child.id();
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let out = child.wait_with_output();
        let wall = t0.elapsed().as_secs_f64();
        let _ = tx.send(());
        (out, wall)
    });
    if rx.recv_timeout(limit).is_err() {
        npb_service::signal::send(pid, 9);
    }
    let (out, wall) = waiter.join().map_err(|_| "child waiter panicked".to_string())?;
    let out = out.map_err(|e| format!("waiting for {}: {e}", bin.display()))?;
    if wall >= limit.as_secs_f64() {
        return Err(format!("{} {} killed after {:?}", bin.display(), args.join(" "), limit));
    }
    Ok((
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        wall,
    ))
}

/// Where the built binaries and the run's scratch files live.
pub struct Env {
    pub bin_dir: PathBuf,
    pub scratch: PathBuf,
}

impl Env {
    pub fn npb(&self) -> PathBuf {
        self.bin_dir.join("npb")
    }

    pub fn npbd(&self) -> PathBuf {
        self.bin_dir.join("npbd")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 0);
            let mut v: Vec<usize> = (0..8).collect();
            r.shuffle(&mut v);
            (v, r.next_u64())
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut r = Rng::new(1, 2);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn signatures_agree_across_widths_except_for_reordered_reductions() {
        let mut b = SigBook::default();
        assert!(b.agree("CG", "S", 0, "aa"));
        assert!(b.agree("CG", "S", 2, "aa"));
        assert!(!b.agree("CG", "S", 2, "ab"));
        assert!(b.agree("MG", "S", 0, "c1"));
        assert!(b.agree("MG", "S", 2, "c2"), "MG's norm is reordered by width");
        assert!(!b.agree("MG", "S", 2, "c3"), "but fixed at one width");
        assert!(b.agree("CG", "W", 2, "zz"), "classes are separate");
    }

    #[test]
    fn report_checks_catch_each_failure() {
        let mut b = SigBook::default();
        let got = |threads, verified, sig| Got { name: "CG", class: "S", threads, verified, sig };
        assert!(check_report(&mut b, "CG", "S", 2, &got(2, true, Some("01"))).is_ok());
        assert!(check_report(&mut b, "CG", "S", 2, &got(2, true, Some("02"))).is_err());
        assert!(check_report(&mut b, "CG", "S", 2, &got(2, false, Some("01"))).is_err());
        assert!(check_report(&mut b, "CG", "S", 2, &got(1, true, Some("01"))).is_err());
        assert!(check_report(&mut b, "CG", "S", 2, &got(2, true, None)).is_err());
    }

    #[test]
    fn code_metrics_sum_medians_and_take_the_geomean() {
        let s = |t, m, w| Sample { timed_s: t, mops: m, wall_s: w, steal: 0.0, ran: 1.0 };
        let mut per: PerCode = BTreeMap::new();
        per.insert("A", vec![s(1.0, 10.0, 2.0), s(3.0, 30.0, 4.0), s(2.0, 20.0, 3.0)]);
        per.insert("B", vec![s(0.5, 1000.0, 1.0)]);
        let mut out = Outcome::default();
        set_code_metrics(&mut out, &per, true);
        let get = |n| out.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("timed_s"), 2.5);
        assert!((get("mops_geomean") - (20.0f64 * 1000.0).sqrt()).abs() < 1e-9);
        assert_eq!(get("wall_s"), 4.0);
        assert_eq!(get("setup_s"), 1.5);
    }

    #[test]
    fn medians_drop_the_runs_a_steal_burst_hit() {
        let s = |t, steal| Sample { timed_s: t, mops: 1.0 / t, wall_s: t, steal, ran: 1.0 };
        // Quiet: every run is kept.
        let quiet = [s(1.0, 0.0), s(1.2, 0.01), s(1.1, 0.0), s(0.9, 0.02)];
        assert_eq!(least_stolen(&quiet).len(), 4);
        assert_eq!(code_medians(&quiet).unwrap().0, 1.05);
        // Half clean: the stolen runs go.
        let half = [s(1.0, 0.0), s(1.8, 0.3), s(1.1, 0.01), s(1.6, 0.2)];
        assert_eq!(code_medians(&half).unwrap().0, 1.05);
        // Mostly stolen: the least-stolen half is kept.
        let busy = [s(1.3, 0.1), s(1.8, 0.3), s(1.2, 0.05), s(1.6, 0.2), s(1.0, 0.01)];
        let kept: Vec<f64> = least_stolen(&busy).iter().map(|x| x.timed_s).collect();
        assert_eq!(kept, [1.0, 1.2, 1.3]);
        assert_eq!(code_medians(&busy).unwrap().0, 1.2);
        // One sample is always kept.
        assert_eq!(least_stolen(&[s(2.0, 0.5)]).len(), 1);
    }

    #[test]
    fn unstolen_keeps_the_time_every_vcpu_ran() {
        let s = Sample { timed_s: 1.0, mops: 100.0, wall_s: 1.5, steal: 0.1, ran: 0.8 };
        let u = s.unstolen();
        assert!((u.timed_s - 0.8).abs() < 1e-12);
        assert!((u.wall_s - 1.2).abs() < 1e-12);
        assert!((u.mops - 125.0).abs() < 1e-9);
        assert_eq!((u.steal, u.ran), (0.1, 0.8));
        assert_eq!(Sample { ran: 1.0, ..s }.unstolen().timed_s, 1.0);
    }
}
