//! The layer probe of the traced run: times calls into each crate's
//! public functions from here, one span per call, and reduces the spans
//! to the per-layer metrics (medians per call). Kernels run on a 2-worker
//! team with the defaults users get: opt style, static schedule, the
//! runtime's default spin.

use std::hint::black_box;

use npb::{try_run_benchmark, Class, RunOptions, Style, Team};
use npb_cfd_common::{add, compute_rhs, exact_rhs, initialize};
use npb_runtime::SharedMut;
use npb_service::{exec::ExecConfig, proto::JobSpec, JobJournal};

use crate::common::{check_bench_report, Env, SigBook};
use crate::report::{Outcome, PER_LAYER};
use crate::service;
use crate::spans::{SpanId, Tracer};
use crate::stats::median;

/// Calls timed per kernel (after one untimed warm-up call).
const REPS: usize = 7;
/// Back-to-back step-and-phases reps for the reconciliation; the
/// class-W steps cost tens of milliseconds.
const STEP_REPS: usize = 41;
/// Calls timed per class-A set-up, which costs up to a second each.
const SETUP_REPS: usize = 3;
/// The class-S codes whose serial and team runs give the team overhead,
/// and whose jobs make up the `service-s` traffic. EP is left out: its
/// class-S run is over a second of barrier-free compute.
pub const SYNC_CODES: [&str; 7] = ["IS", "CG", "MG", "FT", "SP", "BT", "LU"];
/// Phase times must sum to their step within this share.
const PHASE_BOUND: f64 = 0.15;

struct Probe<'a> {
    tr: &'a Tracer,
    trace: u64,
    group: SpanId,
}

impl Probe<'_> {
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.tr.scope(name, Some(self.group), self.trace, f)
    }

    /// Median duration of the least-stolen spans called `name`.
    fn med(&self, name: &str) -> Option<f64> {
        median(&self.tr.least_stolen_ms(name))
    }

    /// Report each span's median as the per-layer metric `<span>_ms`.
    fn report_ms(&self, out: &mut Outcome, spans: &[&str]) {
        for span in spans {
            let name = format!("{span}_ms");
            match PER_LAYER.iter().find(|d| d.name == name) {
                Some(def) => out.set(def.name, self.med(span)),
                None => out.problem(format!("{name} is not in the catalog")),
            }
        }
    }

    /// Per-rep sums of several span series (e.g. SP's four inversions).
    fn med_sum(&self, names: &[&str]) -> Option<f64> {
        let series: Vec<Vec<f64>> = names.iter().map(|n| self.tr.durations_ms(n)).collect();
        let reps = series.iter().map(Vec::len).min()?;
        median(&(0..reps).map(|i| series.iter().map(|s| s[i]).sum()).collect::<Vec<f64>>())
    }
}

/// Open a layer's group span and run `body` inside it.
fn group(tr: &Tracer, trace: u64, name: &str, body: impl FnOnce(&Probe)) {
    let g = tr.open(name, None, trace);
    body(&Probe { tr, trace, group: g });
    tr.close(g);
}

/// Check that the phases of one step sum to the step: the median over
/// the least-stolen reps of (sum of the phases) / (the step) measured
/// back to back. Steal stretches the phases more than the step (nine
/// regions wait on a stolen vCPU where the step's fewer do), so a rep a
/// burst hit is left out.
fn reconcile(p: &Probe, out: &mut Outcome, what: &str, phases: &[&str], step: &str) {
    let (steps, step_steal) = (p.tr.durations_ms(step), p.tr.steals(step));
    let series: Vec<(Vec<f64>, Vec<f64>)> =
        phases.iter().map(|n| (p.tr.durations_ms(n), p.tr.steals(n))).collect();
    let reps: Vec<(f64, f64)> = (0..steps.len())
        .filter(|&i| series.iter().all(|s| s.0.len() > i))
        .map(|i| {
            let sum: f64 = series.iter().map(|s| s.0[i]).sum();
            let steal = series.iter().map(|s| s.1[i]).fold(step_steal[i], f64::max);
            (sum / steps[i], steal)
        })
        .collect();
    let ratios: Vec<f64> = crate::host::least_stolen(&reps, |r| r.1).iter().map(|r| r.0).collect();
    let Some(r) = median(&ratios) else {
        return out.problem(format!("reconciliation: {what} has no timings"));
    };
    let ok = (r - 1.0).abs() <= PHASE_BOUND;
    println!(
        "  reconcile {what}: median phases/step = {r:.3} over {} of {} reps ({})",
        ratios.len(),
        reps.len(),
        if ok { "ok" } else { "MISMATCH" }
    );
    if !ok {
        out.problem(format!(
            "reconciliation: {what}: phases sum to {r:.3} of the step (bound {PHASE_BOUND})"
        ));
    }
}

pub fn run(env: &Env, tr: &Tracer, out: &mut Outcome) {
    let team = Team::new(2);
    let t = Some(&team);

    group(tr, 1, "layer:runtime", |p| runtime(p, &team, out));
    group(tr, 2, "layer:core", |p| {
        let mut y = vec![0.0; 1 << 16];
        let mut x = npb_core::SEED_DEFAULT;
        for _ in 0..20 {
            p.time("core.vranlc", || {
                npb_core::vranlc(&mut x, npb_core::A_DEFAULT, black_box(&mut y))
            });
        }
        out.set("core.vranlc_ns", p.med("core.vranlc").map(|ms| ms * 1e6 / y.len() as f64));
    });
    group(tr, 3, "layer:bt", |p| {
        let mut st = npb_bt::BtState::new(Class::W);
        initialize(&mut st.fields, &st.consts);
        exact_rhs(&mut st.fields, &st.consts);
        st.adi::<false>(t);
        for _ in 0..STEP_REPS {
            p.time("bt.adi", || st.adi::<false>(t));
            let (f, c) = (&mut st.fields, &st.consts);
            p.time("cfd-common.rhs_bt", || compute_rhs::<false, false>(f, c, t));
            p.time("bt.x_solve", || npb_bt::solve::x_solve::<false>(f, c, t));
            p.time("bt.y_solve", || npb_bt::solve::y_solve::<false>(f, c, t));
            p.time("bt.z_solve", || npb_bt::solve::z_solve::<false>(f, c, t));
            p.time("cfd-common.add", || add::<false>(f, t));
        }
        p.report_ms(
            out,
            &[
                "bt.adi",
                "cfd-common.rhs_bt",
                "bt.x_solve",
                "bt.y_solve",
                "bt.z_solve",
                "cfd-common.add",
            ],
        );
        reconcile(
            p,
            out,
            "bt rhs + x + y + z + add vs adi",
            &["cfd-common.rhs_bt", "bt.x_solve", "bt.y_solve", "bt.z_solve", "cfd-common.add"],
            "bt.adi",
        );
    });
    group(tr, 4, "layer:sp", |p| {
        use npb_sp::{inv, solve};
        let mut st = npb_sp::SpState::new(Class::W);
        initialize(&mut st.fields, &st.consts);
        exact_rhs(&mut st.fields, &st.consts);
        st.adi::<false>(t);
        for _ in 0..STEP_REPS {
            p.time("sp.adi", || st.adi::<false>(t));
            let (f, c) = (&mut st.fields, &st.consts);
            p.time("cfd-common.rhs_sp", || compute_rhs::<false, true>(f, c, t));
            p.time("sp.txinvr", || inv::txinvr::<false>(f, c, t));
            p.time("sp.x_solve", || solve::x_solve::<false>(f, c, t));
            p.time("sp.ninvr", || inv::ninvr::<false>(f, c, t));
            p.time("sp.y_solve", || solve::y_solve::<false>(f, c, t));
            p.time("sp.pinvr", || inv::pinvr::<false>(f, c, t));
            p.time("sp.z_solve", || solve::z_solve::<false>(f, c, t));
            p.time("sp.tzetar", || inv::tzetar::<false>(f, c, t));
            p.time("sp.add", || add::<false>(f, t));
        }
        p.report_ms(
            out,
            &["cfd-common.rhs_sp", "sp.x_solve", "sp.y_solve", "sp.z_solve", "sp.adi"],
        );
        out.set("sp.inv_ms", p.med_sum(&["sp.txinvr", "sp.ninvr", "sp.pinvr", "sp.tzetar"]));
        reconcile(
            p,
            out,
            "sp rhs + inv + x + y + z + add vs adi",
            &[
                "cfd-common.rhs_sp",
                "sp.txinvr",
                "sp.x_solve",
                "sp.ninvr",
                "sp.y_solve",
                "sp.pinvr",
                "sp.z_solve",
                "sp.tzetar",
                "sp.add",
            ],
            "sp.adi",
        );
    });
    group(tr, 5, "layer:lu", |p| {
        let mut st = npb_lu::LuState::new(Class::W);
        st.reset(t);
        npb_lu::rhs::rhs::<false>(&mut st.fields, &st.consts, t);
        st.ssor_step::<false>(t);
        let dt = st.p.dt;
        for _ in 0..STEP_REPS {
            p.time("lu.ssor_step", || st.ssor_step::<false>(t));
            let (f, c) = (&mut st.fields, &st.consts);
            p.time("lu.scale", || lu_elementwise(f, |rsd, _| rsd * dt, false, t));
            p.time("lu.lower_sweep", || npb_lu::sweep::lower_sweep::<false>(f, c, dt, t));
            p.time("lu.upper_sweep", || npb_lu::sweep::upper_sweep::<false>(f, c, dt, t));
            p.time("lu.add", || {
                lu_elementwise(
                    f,
                    |rsd, u| u + rsd / (npb_lu::OMEGA * (2.0 - npb_lu::OMEGA)),
                    true,
                    t,
                )
            });
            p.time("lu.rhs", || npb_lu::rhs::rhs::<false>(f, c, t));
        }
        p.report_ms(out, &["lu.lower_sweep", "lu.upper_sweep", "lu.rhs", "lu.ssor_step"]);
        reconcile(
            p,
            out,
            "lu scale + sweeps + add + rhs vs ssor_step",
            &["lu.scale", "lu.lower_sweep", "lu.upper_sweep", "lu.add", "lu.rhs"],
            "lu.ssor_step",
        );
    });
    group(tr, 6, "layer:ep", |p| {
        ep_batches(p, &team, 2 * REPS, "ep.batch");
        p.report_ms(out, &["ep.batch"]);
    });
    group(tr, 7, "layer:mg", |p| {
        let mut w = npb_mg::MgState::new(Class::W);
        w.reset();
        mg_cycle(p, w, REPS, t, "mg.mg3p_w");
        mg_ops(p, Class::W, t, "");
        let mut st = None;
        for _ in 0..SETUP_REPS {
            drop(st.take());
            st = Some(p.time("mg.setup", || {
                let mut st = npb_mg::MgState::new(Class::A);
                st.reset();
                st
            }));
        }
        mg_cycle(p, st.expect("at least one set-up rep"), 5, t, "mg.mg3p_a");
        mg_ops(p, Class::A, t, "");
        p.report_ms(
            out,
            &[
                "mg.mg3p_w",
                "mg.resid_w",
                "mg.psinv_w",
                "mg.mg3p_a",
                "mg.resid_a",
                "mg.psinv_a",
                "mg.setup",
            ],
        );
    });
    group(tr, 8, "layer:ft", |p| {
        fft(p, Class::W, t, "");
        for _ in 0..SETUP_REPS {
            drop(black_box(p.time("ft.setup", || npb_ft::FtState::new(Class::A))));
        }
        fft(p, Class::A, t, "");
        p.report_ms(out, &["ft.fft3d_w", "ft.fft3d_a", "ft.setup"]);
    });
    group(tr, 9, "layer:cg", |p| {
        let mut st = None;
        for _ in 0..SETUP_REPS {
            st = Some(p.time("cg.makea", || npb_cg::CgState::new(Class::A)));
        }
        let st = st.as_mut().expect("at least one set-up rep");
        black_box(st.conj_grad::<false>(t));
        for _ in 0..REPS {
            black_box(p.time("cg.conj_grad", || st.conj_grad::<false>(t)));
        }
        p.report_ms(out, &["cg.makea", "cg.conj_grad"]);
    });
    group(tr, 10, "layer:is", |p| {
        let params = npb_is::IsParams::for_class(Class::A);
        for _ in 0..SETUP_REPS - 1 {
            drop(black_box(p.time("is.create_seq", || npb_is::create_seq(&params))));
        }
        let mut bench = npb_is::IsBench::new(Class::A);
        let mut hists = vec![0i32; 2 * params.max_key];
        bench.rank::<false>(1, t, &mut hists);
        // Ranks back to back, as the timed section runs them; the full
        // verification comes after, as it does in the program.
        for it in 1..=npb_is::MAX_ITERATIONS {
            p.time("is.rank", || bench.rank::<false>(it, t, &mut hists));
        }
        for _ in 0..SETUP_REPS {
            let ok = p.time("is.full_verify", || bench.full_verify());
            out.record(ok, || "IS A full_verify failed".to_string());
        }
        p.report_ms(out, &["is.create_seq", "is.rank", "is.full_verify"]);
    });
    drop(team);
    group(tr, 11, "layer:harness+service", |p| harness_and_service(env, p, out));
    group(tr, 12, "layer:host", |p| host(p, out));
}

fn runtime(p: &Probe, team: &Team, out: &mut Outcome) {
    const CALLS: usize = 200;
    for _ in 0..10 {
        drop(p.time("runtime.spawn", || Team::new(2)));
    }
    team.exec(|_| {});
    for _ in 0..20 {
        p.time("runtime.fork_join_x200", || {
            for _ in 0..CALLS {
                team.exec(|_| {});
            }
        });
        p.time("runtime.barrier_x200", || {
            team.exec(|par| {
                for _ in 0..CALLS {
                    par.barrier();
                }
            })
        });
    }
    let fj = p.med("runtime.fork_join_x200").map(|ms| ms * 1e3 / CALLS as f64);
    p.report_ms(out, &["runtime.spawn"]);
    out.set("runtime.fork_join_us", fj);
    out.set(
        "runtime.barrier_us",
        p.med("runtime.barrier_x200").zip(fj).map(|(ms, fj)| (ms * 1e3 - fj) / CALLS as f64),
    );

    // Serial against 1- and 2-worker teams: what a team costs a class-S
    // code, and the 2-thread speedup where the runtime decides it.
    let mut sigs = SigBook::default();
    let mut sums = [0.0; 3];
    println!(
        "  class S timed sections, medians (ms): serial, 1-worker team, 2-worker team, speedup"
    );
    for code in SYNC_CODES {
        let mut timed = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..3 {
            for threads in [0usize, 1, 2] {
                let r = p.time(&format!("runtime.run_t{threads}"), || {
                    try_run_benchmark(code, Class::S, Style::Opt, threads, &RunOptions::default())
                });
                let checked = match r {
                    Ok(rep) => {
                        check_bench_report(&mut sigs, code, threads, &rep).map(|()| rep.time_secs)
                    }
                    Err(e) => Err(format!("{code} S t{threads}: {e}")),
                };
                out.record(checked.is_ok(), || checked.clone().unwrap_err());
                if let Ok(secs) = checked {
                    timed[threads].push(secs * 1e3);
                }
            }
        }
        let m = timed.map(|v| median(&v).unwrap_or(f64::NAN));
        println!("  {code:<4} {:9.3} {:9.3} {:9.3} {:7.3}", m[0], m[1], m[2], m[0] / m[2]);
        for (sum, v) in sums.iter_mut().zip(m) {
            *sum += v;
        }
    }
    println!(
        "  speedup = {:.4} x over {} codes (serial / 2-thread timed)",
        sums[0] / sums[2],
        SYNC_CODES.len()
    );
    out.set("runtime.team_overhead_frac", Some(sums[1] / sums[0] - 1.0));
}

/// The two elementwise passes of `LuState::ssor_step` that have no public
/// function (`rsd *= dt` before the sweeps, `u += rsd / (omega (2 - omega))`
/// after them), written with the runtime's public loop API so that the
/// reconciled phases cover the whole step. `op(rsd, u)` gives the new
/// value of `u` when `into_u`, else of `rsd`.
fn lu_elementwise(
    f: &mut npb_lu::LuFields,
    op: impl Fn(f64, f64) -> f64 + Sync,
    into_u: bool,
    t: Option<&Team>,
) {
    let n = f.n;
    let (rsd, u) = (&mut f.rsd, &mut f.u);
    // SAFETY: each rank writes only the k-planes its chunk owns, and no
    // element is read by another rank within the region.
    let (rsd, u) = unsafe { (SharedMut::new(rsd), SharedMut::new(u)) };
    let dst = if into_u { &u } else { &rsd };
    npb_runtime::run_par(t, |par| {
        par.for_chunks_in(1, n - 1, |ks| {
            for k in ks {
                for j in 1..n - 1 {
                    for i in 1..n - 1 {
                        let base = npb_cfd_common::idx5(n, n, 0, i, j, k);
                        for m in 0..5 {
                            dst.set::<false>(
                                base + m,
                                op(rsd.get::<false>(base + m), u.get::<false>(base + m)),
                            );
                        }
                    }
                }
            }
        });
    });
}

fn mg_cycle(p: &Probe, mut st: npb_mg::MgState, reps: usize, t: Option<&Team>, span: &str) {
    st.mg3p::<false>(t);
    for _ in 0..reps {
        p.time(span, || st.mg3p::<false>(t));
    }
}

/// The class's letter as the span names end in it (`mg.resid_w`).
fn tag(class: Class) -> String {
    class.to_string().to_lowercase()
}

/// One batch on every rank at once, as EP's region runs them: the two
/// vCPUs may share a core, so a batch alone runs faster.
fn ep_batches(p: &Probe, team: &Team, reps: usize, span: &str) {
    let an = npb_ep::batch_multiplier();
    let ranks: Vec<std::sync::Mutex<(Vec<f64>, npb_ep::EpResult)>> = (0..team.size())
        .map(|_| {
            let res = npb_ep::EpResult { sx: 0.0, sy: 0.0, q: [0.0; npb_ep::NQ], gc: 0.0 };
            std::sync::Mutex::new((vec![0.0; 2 << npb_ep::MK], res))
        })
        .collect();
    let batch_on_every_rank = |k: usize| {
        team.exec(|par| {
            let mut rank = ranks[par.tid()].lock().expect("one rank per buffer");
            let (x, res) = &mut *rank;
            npb_ep::batch::<false>(k * par.num_threads() + par.tid(), an, x, res);
        })
    };
    batch_on_every_rank(0);
    for k in 1..=reps {
        p.time(span, || batch_on_every_rank(k));
    }
    black_box(&ranks);
}

/// `resid` and `psinv` on the finest grid of `class`, through `npb_mg::ops`.
fn mg_ops(p: &Probe, class: Class, t: Option<&Team>, prefix: &str) {
    let params = npb_mg::MgParams::for_class(class);
    let n = params.nx + 2;
    let (a, c) = (params.operator_a(), params.smoother_c(class));
    let mut u = vec![0.0; n * n * n];
    let mut v = vec![0.0; n * n * n];
    let mut r = vec![0.0; n * n * n];
    npb_mg::zran3(&mut v, n, params.nx);
    let scratch = npb_mg::MgScratch::new(t.map_or(1, Team::size), n);
    // SAFETY: three distinct buffers; each op partitions its writes by rank.
    let (su, sv, sr) =
        unsafe { (SharedMut::new(&mut u), SharedMut::new(&mut v), SharedMut::new(&mut r)) };
    let (resid_span, psinv_span) =
        (format!("{prefix}mg.resid_{}", tag(class)), format!("{prefix}mg.psinv_{}", tag(class)));
    for i in 0..=REPS {
        let (resid, psinv) = if i == 0 {
            ("mg.warmup", "mg.warmup")
        } else {
            (resid_span.as_str(), psinv_span.as_str())
        };
        p.time(resid, || npb_mg::ops::resid::<false>(&su, &sv, &sr, n, &a, &scratch, t));
        p.time(psinv, || npb_mg::ops::psinv::<false>(&sr, &su, n, &c, &scratch, t));
    }
}

/// Alternating forward and inverse `fft3d` on a class-sized field, then
/// the rest of FT's timed section.
fn fft(p: &Probe, class: Class, t: Option<&Team>, prefix: &str) {
    let span = format!("{prefix}ft.fft3d_{}", tag(class));
    use npb_ft::{c64, C64};
    let params = npb_ft::FtParams::for_class(class);
    let nt = params.ntotal();
    let table = npb_ft::FftTable::new(params.nx.max(params.ny).max(params.nz));
    let scratch = npb_ft::FftScratch::for_run(&params, t);
    let mut x: Vec<C64> =
        (0..nt).map(|i| c64((i % 1021) as f64 / 1021.0, (i % 997) as f64 / 997.0)).collect();
    let mut y = vec![C64::ZERO; nt];
    npb_ft::fft3d::<false>(1, &params, &table, &mut x, &mut y, &scratch, t);
    for i in 0..REPS {
        let dir = if i % 2 == 0 { -1 } else { 1 };
        p.time(&span, || npb_ft::fft3d::<false>(dir, &params, &table, &mut y, &mut x, &scratch, t));
        std::mem::swap(&mut x, &mut y);
    }
    black_box(&y);
    ft_phases(p, &params, &mut x, &mut y, t, &format!("_{}", tag(class)), prefix);
}

/// The rest of FT's timed section: the index map, the initial conditions
/// and the evolve pass (`FtState`'s private `compute_indexmap`,
/// `compute_initial_conditions` and `evolve`). They have no public
/// function, so they are written here the same way with the runtime's
/// public loop API and the core's generator, for the reconciliation.
fn ft_phases(
    p: &Probe,
    params: &npb_ft::FtParams,
    u0: &mut [npb_ft::C64],
    u1: &mut [npb_ft::C64],
    t: Option<&Team>,
    suffix: &str,
    prefix: &str,
) {
    use npb_core::{A_DEFAULT, SEED_DEFAULT};
    use std::f64::consts::PI;
    let (nx, ny, nz) = (params.nx, params.ny, params.nz);
    let mut twiddle = vec![0.0f64; u0.len()];
    let an = npb_core::ipow46(A_DEFAULT, 2 * (nx * ny) as u64);
    let mut starts = vec![0.0f64; nz];
    let mut seed = SEED_DEFAULT;
    for s in starts.iter_mut() {
        *s = seed;
        npb_core::randlc(&mut seed, an);
    }
    let plane = 2 * nx * ny;
    for _ in 0..REPS {
        p.time(&format!("{prefix}ft.indexmap{suffix}"), || {
            let ap = -4.0 * 1.0e-6 * PI * PI;
            // SAFETY: each rank writes only the k-planes its chunk owns.
            let tw = unsafe { SharedMut::new(&mut twiddle) };
            npb_runtime::run_par(t, |par| {
                par.for_chunks(nz, |ks| {
                    for k in ks {
                        let kk = ((k + nz / 2) % nz) as i64 - (nz / 2) as i64;
                        for j in 0..ny {
                            let jj = ((j + ny / 2) % ny) as i64 - (ny / 2) as i64;
                            let kj2 = jj * jj + kk * kk;
                            for i in 0..nx {
                                let ii = ((i + nx / 2) % nx) as i64 - (nx / 2) as i64;
                                let v = (ap * (ii * ii + kj2) as f64).exp();
                                tw.set::<false>(i + nx * (j + ny * k), v);
                            }
                        }
                    }
                });
            });
        });
        p.time(&format!("{prefix}ft.init{suffix}"), || {
            // SAFETY: each rank writes only the planes its chunk owns.
            let u = unsafe { SharedMut::new(npb_ft::complex::as_f64_mut(u1)) };
            npb_runtime::run_par(t, |par| {
                let mut buf = vec![0.0f64; plane];
                par.for_chunks(nz, |ks| {
                    for k in ks {
                        let mut x0 = starts[k];
                        npb_core::vranlc(&mut x0, A_DEFAULT, &mut buf);
                        for (off, &v) in buf.iter().enumerate() {
                            u.set::<false>(k * plane + off, v);
                        }
                    }
                });
            });
        });
        u0.copy_from_slice(u1);
        p.time(&format!("{prefix}ft.evolve{suffix}"), || {
            let n = u0.len();
            // SAFETY: two distinct buffers; each rank touches only its
            // own chunk of both.
            let (a, b) = unsafe { (SharedMut::new(&mut *u0), SharedMut::new(&mut *u1)) };
            let tw = &twiddle;
            npb_runtime::run_par(t, |par| {
                par.for_chunks(n, |ids| {
                    for i in ids {
                        let v = a.get::<false>(i).scale(tw[i]);
                        a.set::<false>(i, v);
                        b.set::<false>(i, v);
                    }
                });
            });
        });
    }
    black_box(&u1);
}

/// Span names the traced run's reconciliation reads: the layers one code
/// is made of, timed right beside that code's process runs.
pub const BESIDE: &str = "beside:";

/// Time the layers `code`'s timed section is made of at `class`, as spans
/// named [`BESIDE`] + the probe's name. The traced run calls this between
/// a code's process runs, so both meet the host in the same state: on a
/// shared host, layers timed a minute earlier in the probe differed from
/// the processes by a third.
pub fn beside(code: &str, class: Class, tr: &Tracer, reps: usize) {
    let team = Team::new(2);
    let t = Some(&team);
    let name = |span: &str| format!("{BESIDE}{span}");
    group(tr, 14, &name(code), |p| match code {
        "BT" => {
            let mut st = npb_bt::BtState::new(class);
            initialize(&mut st.fields, &st.consts);
            exact_rhs(&mut st.fields, &st.consts);
            st.adi::<false>(t);
            for _ in 0..reps {
                p.time(&name("bt.adi"), || st.adi::<false>(t));
            }
        }
        "SP" => {
            let mut st = npb_sp::SpState::new(class);
            initialize(&mut st.fields, &st.consts);
            exact_rhs(&mut st.fields, &st.consts);
            st.adi::<false>(t);
            for _ in 0..reps {
                p.time(&name("sp.adi"), || st.adi::<false>(t));
            }
        }
        "LU" => {
            let mut st = npb_lu::LuState::new(class);
            st.reset(t);
            npb_lu::rhs::rhs::<false>(&mut st.fields, &st.consts, t);
            st.ssor_step::<false>(t);
            for _ in 0..reps {
                p.time(&name("lu.ssor_step"), || st.ssor_step::<false>(t));
            }
        }
        "EP" => ep_batches(p, &team, reps, &name("ep.batch")),
        "MG" => {
            let mut st = npb_mg::MgState::new(class);
            st.reset();
            mg_cycle(p, st, reps, t, &name(&format!("mg.mg3p_{}", tag(class))));
            mg_ops(p, class, t, BESIDE);
        }
        "FT" => fft(p, class, t, BESIDE),
        "CG" => {
            let mut st = npb_cg::CgState::new(class);
            black_box(st.conj_grad::<false>(t));
            for _ in 0..reps {
                black_box(p.time(&name("cg.conj_grad"), || st.conj_grad::<false>(t)));
            }
        }
        "IS" => {
            let mut bench = npb_is::IsBench::new(class);
            let max_key = npb_is::IsParams::for_class(class).max_key;
            let mut hists = vec![0i32; team.size() * max_key];
            bench.rank::<false>(1, t, &mut hists);
            for it in 1..=npb_is::MAX_ITERATIONS {
                p.time(&name("is.rank"), || bench.rank::<false>(it, t, &mut hists));
            }
        }
        _ => {}
    });
}

/// How `npbd` runs a job by default, pointed at the built `npb`.
pub fn exec_config(env: &Env) -> ExecConfig {
    ExecConfig {
        npb_bin: env.npb(),
        default_deadline_ms: 60_000,
        backoff_base_ms: 50,
        limits: npb_core::ResourceLimits::default(),
    }
}

fn harness_and_service(env: &Env, p: &Probe, out: &mut Outcome) {
    let cfg = exec_config(env);
    let spec = |seed| JobSpec {
        bench: "CG".into(),
        class: Class::S,
        style: Style::Opt,
        threads: 1,
        seed,
        policy: Default::default(),
    };
    for seq in 0..REPS as u64 {
        let r = p.time("harness.run_cell", || npb_service::run_job(&cfg, &spec(seq), seq));
        out.record(r.verified(), || format!("run_job CG S t1: {}", r.disposition));
    }
    let run_cell = p.med("harness.run_cell");
    p.report_ms(out, &["harness.run_cell"]);

    let path = env.scratch.join("probe-journal.jsonl");
    match JobJournal::open(&path) {
        Ok(mut j) => {
            let result = npb_service::JobResult {
                disposition: "verified".into(),
                mops: Some(1.0),
                time_secs: Some(1.0),
                attempts: 1,
                kills: 0,
                recoveries: 0,
                final_threads: 1,
            };
            for seq in 0..20u64 {
                let s = spec(1000 + seq);
                let r = p.time("service.journal_append", || {
                    j.accepted(&s, seq).and_then(|()| j.done(&s.job_id(), &result))
                });
                out.record(r.is_ok(), || format!("journal append: {r:?}"));
            }
        }
        Err(e) => out.problem(format!("cannot open {}: {e}", path.display())),
    }
    let _ = std::fs::remove_file(&path);
    p.report_ms(out, &["service.journal_append"]);

    match service::probe_hits_and_misses(env, p.tr, p.group, p.trace, out) {
        Ok(()) => {
            p.report_ms(out, &["service.hit", "service.miss"]);
            let miss = p.med("service.miss");
            out.set("service.overhead_ms", miss.zip(run_cell).map(|(m, r)| m - r));
        }
        Err(e) => out.problem(format!("service probe: {e}")),
    }
}

fn host(p: &Probe, out: &mut Outcome) {
    let llc = crate::host::llc_bytes().unwrap_or(32 << 20);
    // Each array at least four times the last-level cache.
    let elems = (4 * llc).div_ceil(8) as usize;
    println!(
        "  host: last-level cache {} MiB; triad arrays 3 x {} MiB",
        llc >> 20,
        (elems * 8) >> 20
    );
    let gbs = p.time("host.triad", || crate::host::triad_gbs(elems, 3));
    let gflops = p.time("host.fma", || crate::host::fma_gflops(REPS));
    out.set("host.triad_gbs", Some(gbs));
    out.set("host.fma_gflops", Some(gflops));
}
