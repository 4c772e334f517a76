//! The metric catalog and the one-line JSON result every run ends with.
//!
//! The catalog mirrors `BENCHMARK.json` (a unit test holds them equal):
//! end-to-end metrics are measured with tracing off and reported by every
//! workload; per-layer metrics come from the traced run, each paired with
//! the end-to-end metric it should move and the workload it should move
//! it on.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What it measures (and, for a layer metric, which crate).
    pub what: &'static str,
    /// Per-layer only: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), what, moves: "" }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, what, moves }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[MetricDef] = &[
    e2e(
        "timed_s",
        "s",
        Lower,
        0.25,
        "sum over codes of each code's median NPB timed section (least-stolen runs, processes scaled to no steal)",
    ),
    e2e(
        "mops_geomean",
        "Mop/s",
        Higher,
        0.25,
        "geometric mean over codes of each code's median Mop/s (least-stolen runs)",
    ),
    e2e(
        "wall_s",
        "s",
        Lower,
        0.25,
        "sum over codes of each code's median wall time per run (npbd: mean latency of the request mix)",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "set-up time: wall minus timed per run (npbd: spawn until the socket listens)",
    ),
];

const CW: &str = "timed_s, mops_geomean on compute-w";
const MA_T: &str = "timed_s on memory-a";
const MA_S: &str = "setup_s on memory-a";
const RT: &str = "timed_s on compute-w (LU wavefront, MG, FT) and memory-a (CG, IS)";
const SV: &str = "wall_s on service-s";

pub const PER_LAYER: &[MetricDef] = &[
    layer(
        "runtime.fork_join_us",
        "us",
        Lower,
        "npb-runtime: one empty Team::exec at 2 workers",
        RT,
    ),
    layer(
        "runtime.barrier_us",
        "us",
        Lower,
        "npb-runtime: one Par::barrier crossing at 2 workers",
        RT,
    ),
    layer(
        "runtime.team_overhead_frac",
        "fraction",
        Lower,
        "npb-runtime: class-S timed time on a 1-worker team over serial, minus 1",
        RT,
    ),
    layer(
        "runtime.spawn_ms",
        "ms",
        Lower,
        "npb-runtime: Team::new(2) through drop",
        "setup_s on compute-w and memory-a",
    ),
    layer(
        "core.vranlc_ns",
        "ns",
        Lower,
        "npb-core: one vranlc draw",
        "timed_s on compute-w (EP); setup_s on memory-a",
    ),
    layer(
        "cfd-common.rhs_bt_ms",
        "ms",
        Lower,
        "npb-cfd-common: compute_rhs without speed of sound, class W",
        CW,
    ),
    layer(
        "cfd-common.rhs_sp_ms",
        "ms",
        Lower,
        "npb-cfd-common: compute_rhs with speed of sound, class W",
        CW,
    ),
    layer("cfd-common.add_ms", "ms", Lower, "npb-cfd-common: add, class W", CW),
    layer("bt.x_solve_ms", "ms", Lower, "npb-bt: x_solve, class W", CW),
    layer("bt.y_solve_ms", "ms", Lower, "npb-bt: y_solve, class W", CW),
    layer("bt.z_solve_ms", "ms", Lower, "npb-bt: z_solve, class W", CW),
    layer("bt.adi_ms", "ms", Lower, "npb-bt: BtState::adi, one time step, class W", CW),
    layer("sp.x_solve_ms", "ms", Lower, "npb-sp: x_solve, class W", CW),
    layer("sp.y_solve_ms", "ms", Lower, "npb-sp: y_solve, class W", CW),
    layer("sp.z_solve_ms", "ms", Lower, "npb-sp: z_solve, class W", CW),
    layer("sp.inv_ms", "ms", Lower, "npb-sp: txinvr + ninvr + pinvr + tzetar, class W", CW),
    layer("sp.adi_ms", "ms", Lower, "npb-sp: SpState::adi, one time step, class W", CW),
    layer(
        "lu.lower_sweep_ms",
        "ms",
        Lower,
        "npb-lu: lower_sweep (pipelined wavefront), class W",
        CW,
    ),
    layer(
        "lu.upper_sweep_ms",
        "ms",
        Lower,
        "npb-lu: upper_sweep (pipelined wavefront), class W",
        CW,
    ),
    layer("lu.rhs_ms", "ms", Lower, "npb-lu: rhs, class W", CW),
    layer("lu.ssor_step_ms", "ms", Lower, "npb-lu: LuState::ssor_step, class W", CW),
    layer("ep.batch_ms", "ms", Lower, "npb-ep: one batch of 2^16 pairs on each of 2 ranks at once", "timed_s on compute-w"),
    layer("mg.mg3p_w_ms", "ms", Lower, "npb-mg: MgState::mg3p, one V-cycle, class W", CW),
    layer("mg.resid_w_ms", "ms", Lower, "npb-mg: ops::resid on the finest grid, class W", CW),
    layer("mg.psinv_w_ms", "ms", Lower, "npb-mg: ops::psinv on the finest grid, class W", CW),
    layer("mg.mg3p_a_ms", "ms", Lower, "npb-mg: MgState::mg3p, one V-cycle, class A", MA_T),
    layer("mg.resid_a_ms", "ms", Lower, "npb-mg: ops::resid on the finest grid, class A", MA_T),
    layer("mg.psinv_a_ms", "ms", Lower, "npb-mg: ops::psinv on the finest grid, class A", MA_T),
    layer("mg.setup_ms", "ms", Lower, "npb-mg: MgState::new plus zran3 (reset), class A", MA_S),
    layer("ft.fft3d_w_ms", "ms", Lower, "npb-ft: fft3d, class W", CW),
    layer("ft.fft3d_a_ms", "ms", Lower, "npb-ft: fft3d, class A", MA_T),
    layer("ft.setup_ms", "ms", Lower, "npb-ft: FtState::new, class A", MA_S),
    layer("cg.conj_grad_ms", "ms", Lower, "npb-cg: CgState::conj_grad, class A", MA_T),
    layer("cg.makea_ms", "ms", Lower, "npb-cg: CgState::new (makea), class A", MA_S),
    layer("is.rank_ms", "ms", Lower, "npb-is: IsBench::rank, class A", MA_T),
    layer("is.full_verify_ms", "ms", Lower, "npb-is: IsBench::full_verify, class A", MA_S),
    layer("is.create_seq_ms", "ms", Lower, "npb-is: create_seq, class A", MA_S),
    layer(
        "harness.run_cell_ms",
        "ms",
        Lower,
        "npb-harness via npb_service::exec::run_job: one class-S CG job at 1 thread",
        SV,
    ),
    layer(
        "service.journal_append_ms",
        "ms",
        Lower,
        "npb-service: JobJournal accepted + done, fsync included",
        SV,
    ),
    layer("service.hit_ms", "ms", Lower, "npb-service: npbd client latency, cache hits", SV),
    layer("service.miss_ms", "ms", Lower, "npb-service: npbd client latency, cache misses", SV),
    layer(
        "service.overhead_ms",
        "ms",
        Lower,
        "npb-service: service.miss_ms minus harness.run_cell_ms (CG)",
        SV,
    ),
    layer(
        "host.triad_gbs",
        "GB/s",
        Higher,
        "host: STREAM triad bandwidth, 2 threads",
        "none (host bound)",
    ),
    layer(
        "host.fma_gflops",
        "GFLOP/s",
        Higher,
        "host: 256-bit FMA peak, 2 threads",
        "none (host bound)",
    ),
    layer(
        "trace.overhead_frac",
        "fraction",
        Lower,
        "benchmark: traced over untraced wall of this workload's runs, minus 1 (a few spans per run)",
        "none (tracing cost)",
    ),
];

/// The catalog a run of the given mode must report, in order.
pub fn catalog(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result of one run: what was checked and what was measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Count one checked operation; a failure is printed and kept.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("perfbench: FAILED: {msg}");
            self.problems.push(msg);
        }
    }

    /// A failed check that is not one attempted operation (for example a
    /// reconciliation mismatch).
    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: FAILED: {msg}");
        self.problems.push(msg);
    }

    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => self.metrics.push((name, v)),
            _ => self.problem(format!("metric {name} could not be computed")),
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Check the reported set against the catalog for this mode.
    pub fn check_complete(&mut self, traced: bool) {
        let want: Vec<&str> = catalog(traced).iter().map(|m| m.name).collect();
        let have: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        for w in &want {
            if have.iter().filter(|h| *h == w).count() != 1 {
                self.problem(format!(
                    "metric {w} reported {} times",
                    have.iter().filter(|h| *h == w).count()
                ));
            }
        }
        for h in &have {
            if !want.contains(h) {
                self.problem(format!("metric {h} is not in the catalog"));
            }
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each value with all its digits.
    pub fn json_line(&self, traced: bool) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for def in catalog(traced) {
            if let Some((_, v)) = self.metrics.iter().find(|m| m.0 == def.name) {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ =
                    write!(s, "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", def.name, v, def.unit);
            }
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_harness::Json;

    fn filled(traced: bool) -> Outcome {
        let mut o = Outcome::default();
        for (i, def) in catalog(traced).iter().enumerate() {
            o.record(true, String::new);
            o.set(def.name, Some(0.5 + i as f64 / 3.0));
        }
        o.check_complete(traced);
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for traced in [false, true] {
            let o = filled(traced);
            let v = Json::parse(&o.json_line(traced)).unwrap();
            let Json::Obj(top) = &v else { panic!("not an object") };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(v.get_uint("failed"), Some(0));
            let Some(Json::Obj(metrics)) = v.get("metrics") else { panic!("metrics") };
            assert_eq!(metrics.len(), catalog(traced).len());
            for def in catalog(traced) {
                let m = &metrics[def.name];
                assert_eq!(m.get_str("unit"), Some(def.unit));
                assert!(m.get_num("value").is_some());
            }
        }
    }

    #[test]
    fn values_keep_all_their_digits() {
        let mut o = filled(false);
        o.metrics[0].1 = 1.203_456_789_012_345;
        assert!(o.json_line(false).contains("1.203456789012345"));
    }

    #[test]
    fn a_failure_or_missing_metric_makes_the_run_incorrect() {
        let mut o = filled(false);
        o.record(false, || "npb exited 1".into());
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (catalog(false).len() as u64 + 1, 1));

        let mut o = Outcome::default();
        o.record(true, String::new);
        o.set("timed_s", Some(1.0));
        o.check_complete(false);
        assert!(!o.correct(), "three end-to-end metrics are missing");

        let mut o = filled(false);
        o.set("wall_s", Some(f64::NAN));
        assert!(!o.correct());
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let v = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = v.get(key) else { panic!("{key}") };
            assert_eq!(items.len(), defs.len(), "{key}");
            for (item, def) in items.iter().zip(defs) {
                assert_eq!(item.get_str("name"), Some(def.name));
                assert_eq!(item.get_str("unit"), Some(def.unit));
                assert_eq!(item.get_str("better"), Some(def.better.label()));
                assert_eq!(item.get_num("bound"), def.bound, "{}", def.name);
                assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            }
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }
}
