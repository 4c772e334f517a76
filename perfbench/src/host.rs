//! Host bounds the code cannot move: STREAM-triad bandwidth and FMA
//! peak, both on 2 threads. They tell a later change whether a kernel is
//! bound by bytes moved or by arithmetic on this machine.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::median;

const THREADS: usize = 2;

/// Bytes of the largest cache level the OS reports for cpu0.
pub fn llc_bytes() -> Option<u64> {
    let mut best = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else { continue };
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (size, 1),
            },
        };
        if let Ok(n) = num.parse::<u64>() {
            best = best.max(Some(n * mult));
        }
    }
    best
}

/// Ticks of CPU time the hypervisor stole, and all ticks, from
/// `/proc/stat`. On a shared virtual host stolen time slows 2-thread runs
/// most, so each run prints the share stolen while it ran.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Stolen and all ticks of each vCPU, from the `cpuN` lines of
/// `/proc/stat`.
fn per_cpu_ticks() -> Option<Vec<(u64, u64)>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpus: Vec<(u64, u64)> = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| {
            let t: Vec<u64> = l.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
            Some((*t.get(7)?, t.iter().sum()))
        })
        .collect();
    (!cpus.is_empty()).then_some(cpus)
}

/// How often [`StealSampler`] reads the counters: two 10 ms ticks per
/// vCPU, so a burst is placed to within a tick or two.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Follows the per-vCPU steal counters while one `npb` process runs, on
/// a thread of its own. Threads that meet at barriers, one per vCPU, all
/// move only while every vCPU runs, and steal comes in bursts: so what a
/// run lost is the time some vCPU was stolen, interval by interval, not
/// the average share stolen.
pub struct StealSampler {
    thread: std::thread::JoinHandle<(f64, f64)>,
    stop: Arc<AtomicBool>,
}

impl StealSampler {
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (mut stolen, mut all, mut ran, mut wall) = (0u64, 0u64, 0.0, 0.0);
            let (mut prev, mut at) = (per_cpu_ticks(), Instant::now());
            loop {
                let last = flag.load(Ordering::Acquire);
                if !last {
                    std::thread::park_timeout(SAMPLE_EVERY);
                }
                let (cur, now) = (per_cpu_ticks(), Instant::now());
                if let (Some(p), Some(c)) = (&prev, &cur) {
                    let mut every = 1.0;
                    for (&(s0, t0), &(s1, t1)) in p.iter().zip(c) {
                        let (ds, dt) = (s1.saturating_sub(s0), t1.saturating_sub(t0));
                        stolen += ds;
                        all += dt;
                        if dt > 0 {
                            every *= 1.0 - (ds as f64 / dt as f64).min(1.0);
                        }
                    }
                    let dw = (now - at).as_secs_f64();
                    ran += every * dw;
                    wall += dw;
                }
                (prev, at) = (cur, now);
                if last {
                    break;
                }
            }
            (
                if all > 0 { stolen as f64 / all as f64 } else { 0.0 },
                if wall > 0.0 { ran / wall } else { 1.0 },
            )
        });
        StealSampler { thread, stop }
    }

    /// The share of CPU time stolen, and the share of wall time during
    /// which every vCPU ran, since [`StealSampler::start`].
    pub fn finish(self) -> (f64, f64) {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        self.thread.join().unwrap_or((0.0, 1.0))
    }
}

/// A run whose host lost at most this share of CPU time to steal counts
/// as clean.
pub const CLEAN_STEAL: f64 = 0.02;

/// The items an estimate is taken over: the clean ones when at least half
/// are clean, else the least-stolen half (at least one). Stolen time only
/// ever adds to a run and comes in bursts, so this drops what a burst hit
/// without dropping anything in a quiet period.
pub fn least_stolen<T: Clone>(items: &[T], steal: impl Fn(&T) -> f64) -> Vec<T> {
    let clean: Vec<T> = items.iter().filter(|x| steal(x) <= CLEAN_STEAL).cloned().collect();
    if 2 * clean.len() >= items.len() {
        return clean;
    }
    let mut v = items.to_vec();
    v.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    v.truncate(v.len().div_ceil(2));
    v
}

/// STREAM triad `a = b + s*c` over three arrays of `elems` f64 each,
/// split between [`THREADS`] threads that first-touch their own halves.
/// Returns the median GB/s over `reps` passes, counting 24 bytes per
/// element as STREAM does.
pub fn triad_gbs(elems: usize, reps: usize) -> f64 {
    let chunk = elems.div_ceil(THREADS);
    let mut a = Vec::<f64>::with_capacity(elems);
    let mut b = Vec::<f64>::with_capacity(elems);
    let mut c = Vec::<f64>::with_capacity(elems);
    // First touch in parallel so pages land where the threads run.
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .spare_capacity_mut()
            .chunks_mut(chunk)
            .zip(b.spare_capacity_mut().chunks_mut(chunk))
            .zip(c.spare_capacity_mut().chunks_mut(chunk))
        {
            s.spawn(move || {
                for x in a.iter_mut() {
                    x.write(0.0);
                }
                for x in b.iter_mut() {
                    x.write(1.0);
                }
                for x in c.iter_mut() {
                    x.write(2.0);
                }
            });
        }
    });
    // SAFETY: every element of the three spare capacities was written
    // above (the chunks cover 0..elems exactly).
    unsafe {
        a.set_len(elems);
        b.set_len(elems);
        c.set_len(elems);
    }
    let scalar = black_box(3.0);
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + scalar * z;
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        black_box(&a);
        rates.push(24.0 * elems as f64 / secs / 1e9);
    }
    median(&rates).unwrap_or(0.0)
}

/// Peak double-precision FMA rate on [`THREADS`] threads, in GFLOP/s
/// (2 flops per lane per FMA). Uses 256-bit FMA when the CPU has it and
/// a scalar multiply-add otherwise.
pub fn fma_gflops(reps: usize) -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let flops: u64 = std::thread::scope(|s| {
            let hs: Vec<_> = (0..THREADS).map(|_| s.spawn(|| fma_kernel(ITERS))).collect();
            hs.into_iter().map(|h| h.join().expect("fma probe thread panicked")).sum()
        });
        rates.push(flops as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates).unwrap_or(0.0)
}

/// Runs `iters` rounds of independent FMA chains; returns flops done.
fn fma_kernel(iters: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the CPU supports AVX and FMA (checked just above).
        return unsafe { fma_avx(iters) };
    }
    let (mut acc, m, k) = ([1.0f64; 8], black_box(0.999_999), black_box(1e-9));
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * m + k;
        }
    }
    black_box(acc);
    iters * 8 * 2
}

/// # Safety
///
/// The CPU must support AVX and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn fma_avx(iters: u64) -> u64 {
    use std::arch::x86_64::*;
    // Ten independent accumulators cover the FMA latency on two ports.
    let m = _mm256_set1_pd(black_box(0.999_999));
    let k = _mm256_set1_pd(black_box(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); 10];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_pd(*a, m, k);
        }
    }
    black_box(acc);
    iters * 10 * 4 * 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_reports_shares() {
        let s = StealSampler::start();
        std::thread::sleep(Duration::from_millis(50));
        let (stolen, ran) = s.finish();
        assert!((0.0..=1.0).contains(&stolen));
        assert!((0.0..=1.0).contains(&ran));
    }

    #[test]
    fn probes_return_positive_rates() {
        assert!(triad_gbs(1 << 16, 2) > 0.0);
        assert!(fma_gflops(1) > 0.0);
    }
}
