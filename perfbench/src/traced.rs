//! The workload part of the traced run. Each code's run is repeated with
//! tracing off and on, in pairs, which gives this workload's tracing
//! overhead. Each code's untraced time is then reconciled with the sum of
//! the layer-probe spans it is made of, so a layer the probe misses or
//! counts twice shows as a mismatch.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::common::{least_stolen, Rng, Sample};
use crate::report::Outcome;
use crate::spans::{TraceCtx, Tracer};
use crate::stats::median;

/// A code's layer sum must land within this share of its untraced time
/// (the bound the benchmark fixes for its end-to-end metrics).
const RECON_BOUND: f64 = 0.25;
/// Short codes get more pairs until this much wall time is spent on them.
const MIN_CODE_S: f64 = 2.5;
const MAX_PAIRS: usize = 9;

/// What one code's untraced run is reconciled with: the probe spans it is
/// made of, each with how many times one run calls it.
pub type Layers = Vec<(String, f64)>;

/// Which part of a run the layer sum covers: the program's timed section
/// of an `npb` process, or the client latency of an `npbd` miss.
pub struct Reconcile<F: Fn(&'static str) -> Layers> {
    pub what: &'static str,
    pub part: fn(&Sample) -> f64,
    pub layers: F,
}

/// Run `run(code, ctx)` in untraced/traced pairs for every code. `run`
/// returns the run's sample when its outputs were correct; in a traced
/// call it records its children under the root span it is handed.
/// `between(code)` runs after each pair, outside both timings, to time
/// layers beside the runs they are reconciled with. Afterwards each
/// code's untraced `part` is reconciled with its layers.
pub fn paired<F: Fn(&'static str) -> Layers>(
    codes: &[&'static str],
    rng: &mut Rng,
    tr: &Tracer,
    out: &mut Outcome,
    recon: Reconcile<F>,
    mut run: impl FnMut(&'static str, Option<TraceCtx>, &mut Outcome) -> Option<Sample>,
    mut between: impl FnMut(&'static str, &mut Outcome),
) {
    // Per code: the untraced samples, and the (untraced, traced) wall
    // times of each pair.
    let mut untraced: BTreeMap<&str, Vec<Sample>> = BTreeMap::new();
    let mut walls: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    let mut next_trace = 1000u64;
    let mut pair = |code: &'static str,
                    rng: &mut Rng,
                    out: &mut Outcome,
                    untraced: &mut BTreeMap<&str, Vec<Sample>>| {
        let traced_first = rng.unit() < 0.5;
        let mut got = [None, None];
        for traced_now in [traced_first, !traced_first] {
            got[traced_now as usize] = if traced_now {
                next_trace += 1;
                let root = tr.open(&format!("run:{code}"), None, next_trace);
                let ok = run(code, Some((tr, next_trace, root)), out).is_some();
                tr.close(root);
                ok.then(|| tr.duration_ms(root))
            } else {
                let t0 = Instant::now();
                let s = run(code, None, out);
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                if let Some(s) = s {
                    untraced.entry(code).or_default().push(s);
                }
                s.map(|_| wall_ms)
            };
        }
        if let [Some(u), Some(t)] = got {
            walls.entry(code).or_default().push((u, t));
        }
        between(code, out);
    };
    let mut order = codes.to_vec();
    rng.shuffle(&mut order);
    let mut spent: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for &code in &order {
        let t0 = Instant::now();
        pair(code, rng, out, &mut untraced);
        spent.insert(code, (1, t0.elapsed().as_secs_f64()));
    }
    // Short codes are noisy: give them more pairs.
    while let Some(&code) = order
        .iter()
        .filter(|c| spent[*c].0 < MAX_PAIRS && spent[*c].1 < MIN_CODE_S)
        .min_by(|a, b| spent[*a].1.total_cmp(&spent[*b].1))
    {
        let t0 = Instant::now();
        pair(code, rng, out, &mut untraced);
        let e = spent.get_mut(code).expect("every code ran once");
        *e = (e.0 + 1, e.1 + t0.elapsed().as_secs_f64());
    }

    // A code outside the bound gets one more pair, and its layers timed
    // once more beside it, before it is judged over all its samples: a
    // burst of steal can land between a pair and its layers, but a layer
    // missing from the sum shows again.
    let judge = |code, untraced: &BTreeMap<&str, Vec<Sample>>| {
        let samples = untraced.get(code).map_or(&[][..], Vec::as_slice);
        reconcile(samples, recon.part, &(recon.layers)(code), tr)
    };
    let outside: Vec<&'static str> =
        codes.iter().copied().filter(|c| judge(c, &untraced).is_some_and(|r| !r.ok())).collect();
    for &code in &outside {
        println!("{code}'s layer sum is outside the bound: one more pair and layer timing");
        pair(code, rng, out, &mut untraced);
    }

    println!("reconcile each code's untraced {} with its layer sum:", recon.what);
    for &code in codes {
        let Some(r) = judge(code, &untraced) else {
            out.problem(format!("reconciliation: {code} has no verified untraced run"));
            continue;
        };
        println!(
            "  {code:<4} {:10.3} ms over {} run(s), max steal {:.1}%; layers {:10.3} ms = {}; ratio {:.3} ({})",
            r.measured,
            r.runs,
            r.steal * 100.0,
            r.sum,
            r.terms.join(" + "),
            r.ratio(),
            if r.ok() { "ok" } else { "MISMATCH" }
        );
        for span in &r.missing {
            out.problem(format!("reconciliation: {code}: no {span} spans"));
        }
        if !r.ok() {
            out.problem(format!(
                "reconciliation: {code}'s layers sum to {:.3} of its untraced {} (bound {RECON_BOUND})",
                r.ratio(),
                recon.what
            ));
        }
    }

    println!("traced vs untraced wall (medians over pairs):");
    let (mut sum_t, mut sum_u) = (0.0, 0.0);
    for &code in codes {
        let v = walls.get(code).map_or(&[][..], Vec::as_slice);
        let (Some(u), Some(t)) = (
            median(&v.iter().map(|p| p.0).collect::<Vec<_>>()),
            median(&v.iter().map(|p| p.1).collect::<Vec<_>>()),
        ) else {
            out.problem(format!("{code} has no verified traced/untraced pair"));
            continue;
        };
        println!("  {code:<4} {:>2} pairs  traced {t:10.3} ms  untraced {u:10.3} ms", v.len());
        sum_t += t;
        sum_u += u;
    }
    out.set("trace.overhead_frac", (sum_u > 0.0).then(|| sum_t / sum_u - 1.0));
}

/// One code's reconciliation: its untraced part over its least-stolen
/// runs, and the sum of its layers.
struct Recon {
    measured: f64,
    runs: usize,
    steal: f64,
    sum: f64,
    terms: Vec<String>,
    missing: Vec<String>,
}

impl Recon {
    fn ratio(&self) -> f64 {
        self.sum / self.measured
    }

    fn ok(&self) -> bool {
        self.missing.is_empty()
            && !self.terms.is_empty()
            && (self.ratio() - 1.0).abs() <= RECON_BOUND
    }
}

fn reconcile(
    samples: &[Sample],
    part: fn(&Sample) -> f64,
    layers: &Layers,
    tr: &Tracer,
) -> Option<Recon> {
    let kept = least_stolen(samples);
    let measured = median(&kept.iter().map(|s| part(s) * 1e3).collect::<Vec<_>>())?;
    let mut r = Recon {
        measured,
        runs: kept.len(),
        steal: kept.iter().map(|s| s.steal).fold(0.0, f64::max),
        sum: 0.0,
        terms: Vec::new(),
        missing: Vec::new(),
    };
    for (span, calls) in layers {
        match median(&tr.least_stolen_ms(span)) {
            Some(ms) => r.sum += ms * calls,
            None => r.missing.push(span.clone()),
        }
        r.terms.push(format!("{span} x {calls}"));
    }
    Some(r)
}
