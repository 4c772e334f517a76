//! `compute-w` and `memory-a`: each code runs as its own
//! `npb <code> --class <C> --threads 2 --json` process, the way a user
//! runs it, so the wall time covers start-up, data generation, the
//! untimed warm-up, the timed section and verification.

use std::collections::BTreeMap;
use std::time::Instant;

use npb::Class;

use crate::common::{
    print_code_table, run_npb, set_code_metrics, Env, PerCode, Rng, Sample, SigBook,
};
use crate::host::CLEAN_STEAL;
use crate::layers;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median;
use crate::traced::{self, Layers, Reconcile};

/// Worker threads per `npb` process: the host's two cores.
const THREADS: usize = 2;
/// Steps (V-cycles, transforms, ...) [`layers::beside`] times per call.
const BESIDE_REPS: usize = 5;

pub struct ProcWorkload {
    pub codes: &'static [&'static str],
    pub class: &'static str,
}

/// Working sets in the last-level cache; kernel arithmetic dominates.
pub const COMPUTE_W: ProcWorkload =
    ProcWorkload { codes: &["BT", "SP", "LU", "EP", "MG", "FT"], class: "W" };
/// Working sets beyond the last-level cache; bytes moved dominate.
pub const MEMORY_A: ProcWorkload = ProcWorkload { codes: &["CG", "MG", "FT", "IS"], class: "A" };

/// The end-to-end run: rounds of every code (in seeded order), then, as
/// time runs out, whichever codes still fit. The next run is always of
/// the code with the fewest clean samples (see [`CLEAN_STEAL`]), then the
/// least wall time spent, whose last wall time fits before the deadline.
/// So every code gets as many samples as the time allows, a code whose
/// runs a steal burst hit is run again, and the per-code medians are
/// taken over its least-stolen runs, each scaled to what it would read
/// without steal ([`crate::common::Sample::unstolen`]).
pub fn end_to_end(env: &Env, wl: &ProcWorkload, rng: &mut Rng, seconds: f64, out: &mut Outcome) {
    let npb = env.npb();
    let mut sigs = SigBook::default();
    let mut per_code: PerCode = BTreeMap::new();
    let mut raw_timed: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    // Per code: (clean runs, total wall, last wall).
    let mut spent: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    let mut order = wl.codes.to_vec();
    rng.shuffle(&mut order);
    let start = Instant::now();
    loop {
        let left = seconds - start.elapsed().as_secs_f64();
        let pick =
            order.iter().copied().filter(|c| spent.get(c).is_none_or(|s| s.2 <= left)).min_by(
                |a, b| {
                    let (sa, sb) = (
                        spent.get(a).copied().unwrap_or_default(),
                        spent.get(b).copied().unwrap_or_default(),
                    );
                    sa.0.cmp(&sb.0).then(sa.1.total_cmp(&sb.1))
                },
            );
        // Every code runs at least once, however short the run.
        let Some(code) = pick.filter(|c| left > 0.0 || !spent.contains_key(c)) else { break };
        let t0 = Instant::now();
        let r = run_npb(&npb, code, wl.class, THREADS, &mut sigs, None);
        let wall = t0.elapsed().as_secs_f64();
        let clean = r.as_ref().map_or(true, |s| s.steal <= CLEAN_STEAL);
        let e = spent.entry(code).or_default();
        *e = (e.0 + clean as usize, e.1 + wall, wall);
        match r {
            Ok(s) => {
                out.record(true, String::new);
                raw_timed.entry(code).or_default().push(s.timed_s);
                per_code.entry(code).or_default().push(s.unstolen());
            }
            Err(e) => out.record(false, || e),
        }
    }
    print_code_table(
        &format!(
            "per code, class {} at {} threads (medians, times scaled to no steal):",
            wl.class, THREADS
        ),
        &per_code,
    );
    let raw: f64 = raw_timed.values().filter_map(|v| median(v)).sum();
    println!("unscaled timed_s (sum of per-code medians over all runs) = {raw:.6} s");
    set_code_metrics(out, &per_code, true);
}

/// The probe spans one code's timed section is made of, with how many
/// times the timed section calls each (see each crate's `run`): the layer
/// sum the traced run reconciles with the code's untraced timed section.
/// They are the spans [`layers::beside`] times between the code's runs,
/// on a 2-worker team as these processes use.
fn timed_layers(code: &str, class: Class) -> Layers {
    let w = if class == Class::W { "w" } else { "a" };
    let terms: Vec<(String, usize)> = match code {
        "BT" => vec![("bt.adi".into(), npb_bt::BtParams::for_class(class).niter)],
        "SP" => vec![("sp.adi".into(), npb_sp::SpParams::for_class(class).niter)],
        "LU" => vec![("lu.ssor_step".into(), npb_lu::LuParams::for_class(class).niter)],
        // One batch is one rank's work; the ranks split the batches.
        "EP" => {
            let batches = 1usize << (npb_ep::EpParams::for_class(class).m - npb_ep::MK);
            vec![("ep.batch".into(), batches.div_ceil(THREADS))]
        }
        // A residual before the cycles, then a V-cycle and a residual each.
        "MG" => {
            let nit = npb_mg::MgParams::for_class(class).nit;
            vec![(format!("mg.mg3p_{w}"), nit), (format!("mg.resid_{w}"), nit + 1)]
        }
        // The index map and initial conditions, a forward transform, then
        // an evolve pass and an inverse transform per iteration.
        "FT" => {
            let niter = npb_ft::FtParams::for_class(class).niter;
            vec![
                (format!("ft.indexmap_{w}"), 1),
                (format!("ft.init_{w}"), 1),
                (format!("ft.fft3d_{w}"), niter + 1),
                (format!("ft.evolve_{w}"), niter),
            ]
        }
        "CG" => vec![("cg.conj_grad".into(), npb_cg::CgParams::for_class(class).niter)],
        "IS" => vec![("is.rank".into(), npb_is::MAX_ITERATIONS)],
        _ => vec![],
    };
    terms
        .into_iter()
        .map(|(span, calls)| (format!("{}{span}", layers::BESIDE), calls as f64))
        .collect()
}

/// The workload part of the traced run: each code's process in
/// untraced/traced pairs; a traced run records the process and the
/// report check as child spans.
pub fn traced(env: &Env, wl: &ProcWorkload, rng: &mut Rng, tr: &Tracer, out: &mut Outcome) {
    let npb = env.npb();
    let class: Class = wl.class.parse().expect("a workload names a valid class");
    let mut sigs = SigBook::default();
    let recon = Reconcile {
        what: "timed section",
        part: |s| s.timed_s,
        layers: |code| timed_layers(code, class),
    };
    traced::paired(
        wl.codes,
        rng,
        tr,
        out,
        recon,
        |code, ctx, out| {
            let r = run_npb(&npb, code, wl.class, THREADS, &mut sigs, ctx);
            out.record(r.is_ok(), || r.clone().unwrap_err());
            // Scaled as the end-to-end run scales it; the probe's medians
            // are over its least-stolen spans.
            r.ok().map(Sample::unstolen)
        },
        |code, _| layers::beside(code, class, tr, BESIDE_REPS),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_of_a_process_workload_has_layers() {
        for wl in [&COMPUTE_W, &MEMORY_A] {
            let class = wl.class.parse().unwrap();
            for code in wl.codes {
                let layers = timed_layers(code, class);
                assert!(!layers.is_empty(), "{code} {class}");
                assert!(layers.iter().all(|(_, calls)| *calls >= 1.0), "{code} {class}");
            }
        }
        // BT W runs 200 steps; EP W's 512 batches split over 2 ranks.
        assert_eq!(timed_layers("BT", Class::W), vec![("beside:bt.adi".to_string(), 200.0)]);
        assert_eq!(timed_layers("EP", Class::W), vec![("beside:ep.batch".to_string(), 256.0)]);
    }
}
