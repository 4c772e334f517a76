//! `service-s`: a scratch `npbd` (own socket and journal, real fsync,
//! default workers) driven by two client connections in a closed loop.
//! Each client submits class-S jobs (IS CG MG FT SP BT LU) at 1 thread and
//! waits for `done` before sending the next. About half the jobs reuse
//! one of the client's earlier content keys (a cache hit, the read path);
//! the rest carry a fresh job seed (a miss: journal plus a supervised
//! `npb` child, the write path).

use std::collections::BTreeMap;
use std::fs::File;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use npb::Class;
use npb_harness::Json;
use npb_service::{Addr, Client, JobSpec};

use crate::common::{code_medians, print_code_table, set_code_metrics, Env, PerCode, Rng, Sample};
use crate::host::StealSampler;
use crate::layers::{self, SYNC_CODES};
use crate::report::Outcome;
use crate::spans::{child, SpanId, TraceCtx, Tracer};
use crate::stats::{median, percentile};
use crate::traced::{self, Reconcile};

const CLIENTS: usize = 2;
/// Share of requests that reuse an earlier key.
const HIT_SHARE: f64 = 0.45;
/// Daemon starts per run; `setup_s` is their median spawn-to-listen time.
const STARTS: usize = 21;
/// The daemon polls for connections every 10 ms once its accept loop
/// runs. A ping answered later than this after connecting waited for a
/// poll instead of being found by the first one.
const LATE_ANSWER: Duration = Duration::from_millis(5);

/// How often a start tries to connect, well under the ~2 ms a start takes.
const CONNECT_POLL: Duration = Duration::from_micros(50);

/// One daemon start: spawn until the socket takes a connection (process
/// start, journal open and header, bind), and from there until `ping` is
/// answered (the rest of start-up, then the accept loop's first poll that
/// finds the connection).
#[derive(Debug, Clone, Copy)]
pub struct Start {
    pub listen_s: f64,
    pub answer_s: f64,
}

pub struct Daemon {
    child: Option<Child>,
    addr: Addr,
    log: PathBuf,
}

impl Daemon {
    /// Start `npbd` in its own scratch directory and wait until it
    /// answers `ping`.
    pub fn start(env: &Env, name: &str) -> Result<(Daemon, Start), String> {
        let dir = env.scratch.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let sock = dir.join("d.sock");
        let log = dir.join("npbd.log");
        let logf = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let child = Command::new(env.npbd())
            .arg("--socket")
            .arg(&sock)
            .arg("--journal")
            .arg(dir.join("journal.jsonl"))
            .stdin(Stdio::null())
            .stdout(logf.try_clone().map_err(|e| e.to_string())?)
            .stderr(logf)
            .spawn()
            .map_err(|e| format!("cannot start npbd: {e}"))?;
        let mut d = Daemon { child: Some(child), addr: Addr::Unix(sock), log };
        // Connect as soon as the socket listens.
        let mut c = loop {
            if let Ok(c) = Client::connect(&d.addr) {
                break c;
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err(d.fail("no socket within 20 s"));
            }
            if let Some(Ok(Some(st))) = d.child.as_mut().map(Child::try_wait) {
                return Err(d.fail(&format!("npbd exited at start-up ({st})")));
            }
            // Sleep rather than spin, so the poll takes no CPU time from
            // the daemon starting up beside it.
            std::thread::sleep(CONNECT_POLL);
        };
        let connected = t0.elapsed();
        let pong = c.request(r#"{"op":"ping"}"#).map_err(|e| d.fail(&format!("ping: {e}")))?;
        if pong.get_str("status") != Some("pong") {
            return Err(d.fail(&format!("ping answered {pong:?}")));
        }
        let start = Start {
            listen_s: connected.as_secs_f64(),
            answer_s: (t0.elapsed() - connected).as_secs_f64(),
        };
        Ok((d, start))
    }

    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    fn fail(&self, what: &str) -> String {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        format!("npbd: {what}; log: {}", log.trim())
    }

    /// Drain gracefully and check the daemon exits 0.
    pub fn stop(mut self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr)
            .map_err(|e| self.fail(&format!("connect for drain: {e}")))?;
        c.request(r#"{"op":"drain"}"#).map_err(|e| self.fail(&format!("drain: {e}")))?;
        let mut child = self.child.take().expect("running daemon");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(self.fail(&format!("exited {st} after drain"))),
                Ok(None) if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(self.fail("did not exit within 30 s of drain"));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn spec(code: &str, seed: u64) -> JobSpec {
    JobSpec {
        bench: code.into(),
        class: Class::S,
        style: npb::Style::Opt,
        threads: 1,
        seed,
        policy: Default::default(),
    }
}

/// One reply: client latency, whether the cache answered, the job's
/// timed section and Mop/s.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub latency_s: f64,
    pub from_cache: bool,
    pub sample: Sample,
}

/// Submit one job and wait for `done`. Anything but a verified result
/// at the requested width is a failure.
pub fn submit(client: &mut Client, spec: &JobSpec, ctx: Option<TraceCtx>) -> Result<Reply, String> {
    let line = format!(
        r#"{{"op":"submit","bench":"{}","class":"S","threads":{},"seed":{}}}"#,
        spec.bench, spec.threads, spec.seed
    );
    let what = format!("{} S t{} seed {}", spec.bench, spec.threads, spec.seed);
    let t0 = Instant::now();
    let first =
        child(ctx, "npbd.submit", || client.request(&line)).map_err(|e| format!("{what}: {e}"))?;
    let done = match first.get_str("status") {
        Some("done") => first,
        Some("accepted") => {
            let reply = child(ctx, "npbd.wait_done", || client.read_line())
                .map_err(|e| format!("{what}: {e}"))?;
            Json::parse(&reply).map_err(|e| format!("{what}: bad reply {reply:?}: {e}"))?
        }
        _ => return Err(format!("{what}: {first:?}")),
    };
    let latency_s = t0.elapsed().as_secs_f64();
    if done.get_str("status") != Some("done") || done.get_str("disposition") != Some("verified") {
        return Err(format!("{what}: not verified: {done:?}"));
    }
    if done.get_uint("final_threads") != Some(spec.threads as u64) {
        return Err(format!("{what}: ran at another width: {done:?}"));
    }
    let (Some(timed_s), Some(mops)) = (done.get_num("time_secs"), done.get_num("mops")) else {
        return Err(format!("{what}: no time or Mop/s: {done:?}"));
    };
    Ok(Reply {
        latency_s,
        from_cache: done.get("from_cache") == Some(&Json::Bool(true)),
        sample: Sample { timed_s, mops, wall_s: latency_s, steal: 0.0, ran: 1.0 },
    })
}

/// One client's closed loop until the deadline.
fn client_loop(
    addr: &Addr,
    seed: u64,
    id: u64,
    deadline: Instant,
) -> Vec<(&'static str, Result<Reply, String>)> {
    let mut rng = Rng::new(seed, 100 + id);
    let mut done = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return vec![("-", Err(format!("client {id}: connect: {e}")))],
    };
    let mut earlier: Vec<(&'static str, u64)> = Vec::new();
    let mut fresh = 0u64;
    while Instant::now() < deadline {
        let drawn = SYNC_CODES[rng.below(SYNC_CODES.len())];
        let (code, job_seed) = if !earlier.is_empty() && rng.unit() < HIT_SHARE {
            earlier[rng.below(earlier.len())]
        } else {
            fresh += 1;
            (drawn, 1 + id * 1_000_000 + fresh)
        };
        let r = submit(&mut client, &spec(code, job_seed), None);
        if r.is_ok() && !earlier.contains(&(code, job_seed)) {
            earlier.push((code, job_seed));
        }
        done.push((code, r));
    }
    done
}

/// Mean client latency of a request mix: each kind of request (a cache
/// hit, or a miss of one code) at its median latency over its
/// least-stolen requests, weighted by its share of the requests.
fn mix_latency_s(kinds: &BTreeMap<String, Vec<Sample>>) -> Option<f64> {
    let total: usize = kinds.values().map(Vec::len).sum();
    let mut mean = 0.0;
    for v in kinds.values() {
        mean += code_medians(v)?.2 * v.len() as f64 / total as f64;
    }
    (total > 0).then_some(mean)
}

pub fn end_to_end(env: &Env, seed: u64, seconds: f64, out: &mut Outcome) {
    let mut starts = Vec::new();
    let mut daemon = None;
    for i in 0..STARTS {
        match Daemon::start(env, &format!("npbd{i}")) {
            Ok((d, s)) => {
                starts.push(s);
                if i + 1 < STARTS {
                    let r = d.stop();
                    out.record(r.is_ok(), || r.unwrap_err());
                } else {
                    daemon = Some(d);
                }
            }
            Err(e) => out.record(false, || e),
        }
    }
    // The answer depends on whether the connection beat the accept loop's
    // first poll, a race the benchmark's own scheduling decides: so
    // `setup_s` is spawn to listen, and the rest is printed beside it.
    let listen: Vec<f64> = starts.iter().map(|s| s.listen_s * 1e3).collect();
    let answer: Vec<f64> = starts.iter().map(|s| s.answer_s * 1e3).collect();
    let late = starts.iter().filter(|s| s.answer_s > LATE_ANSWER.as_secs_f64()).count();
    println!(
        "daemon starts: {}, spawn to listen median {:.3} ms, listen to ping answered median {:.3} ms; {} answered at the first accept poll, {late} at a later one",
        starts.len(),
        median(&listen).unwrap_or(f64::NAN),
        median(&answer).unwrap_or(f64::NAN),
        starts.len() - late
    );
    out.set("setup_s", median(&listen).map(|ms| ms / 1e3));
    let Some(daemon) = daemon else { return };

    let sampler = StealSampler::start();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let results: Vec<_> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CLIENTS as u64)
            .map(|id| {
                s.spawn({
                    let addr = daemon.addr();
                    move || client_loop(addr, seed, id, deadline)
                })
            })
            .collect();
        hs.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let traffic_s = t0.elapsed().as_secs_f64();
    // Two one-thread jobs at a time share the two vCPUs, so a job moves
    // at 1 - the share of CPU time stolen. Steal is taken over the whole
    // traffic: a request is too short for the 10 ms steal counters.
    let (steal, _) = sampler.finish();
    let r = daemon.stop();
    out.record(r.is_ok(), || r.unwrap_err());

    let mut misses: PerCode = BTreeMap::new();
    let mut kinds: BTreeMap<String, Vec<Sample>> = BTreeMap::new();
    let (mut all, mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (code, r) in results {
        match r {
            Ok(rep) => {
                out.record(true, String::new);
                all.push(rep.latency_s * 1e3);
                let sample = Sample { ran: 1.0 - steal, ..rep.sample }.unstolen();
                if rep.from_cache {
                    hit_ms.push(rep.latency_s * 1e3);
                    kinds.entry("hit".into()).or_default().push(sample);
                } else {
                    miss_ms.push(rep.latency_s * 1e3);
                    misses.entry(code).or_default().push(sample);
                    kinds.entry(format!("miss {code}")).or_default().push(sample);
                }
            }
            Err(e) => out.record(false, || e),
        }
    }
    print_code_table(
        "per code, cache misses, class S at 1 thread (medians, times scaled to no steal; wall = client latency):",
        &misses,
    );
    let fmt = |v: Option<f64>| {
        v.map_or("n/a (fewer than 10 samples beyond)".to_string(), |x| format!("{x:.3} ms"))
    };
    println!(
        "requests: {} ({} hits, {} misses) from {CLIENTS} closed-loop clients in {traffic_s:.2} s",
        all.len(),
        hit_ms.len(),
        miss_ms.len()
    );
    println!("  req_p50_ms = {}", fmt(percentile(&all, 50.0)));
    println!("  req_p90_ms = {}", fmt(percentile(&all, 90.0)));
    println!("  req_per_s = {:.3} 1/s", all.len() as f64 / traffic_s);
    println!("  hit median = {}, miss median = {}", fmt(median(&hit_ms)), fmt(median(&miss_ms)));
    set_code_metrics(out, &misses, false);
    out.set("wall_s", mix_latency_s(&kinds));
}

/// Six misses and six hits of a class-S CG job on a scratch daemon, for
/// the `service.hit_ms` and `service.miss_ms` layer metrics.
pub fn probe_hits_and_misses(
    env: &Env,
    tr: &Tracer,
    group: SpanId,
    trace: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let (daemon, ..) = Daemon::start(env, "npbd-probe")?;
    let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
    for seed in 0..6 {
        let s = spec("CG", 500 + seed);
        for (name, want_hit) in [("service.miss", false), ("service.hit", true)] {
            let id = tr.open(name, Some(group), trace);
            let r = submit(&mut client, &s, Some((tr, trace, id)));
            tr.close(id);
            let ok = matches!(&r, Ok(rep) if rep.from_cache == want_hit);
            out.record(ok, || format!("{name} CG S seed {}: {r:?}", 500 + seed));
        }
    }
    drop(client);
    daemon.stop()
}

/// The workload part of the traced run: requests in untraced/traced
/// pairs on one connection. Each request is a fresh job (a miss) so a
/// pair is comparable. A miss is reconciled with what the daemon does for
/// it: `run_job` for the same code, timed beside each pair, plus one
/// journal append.
pub fn traced(env: &Env, rng: &mut Rng, tr: &Tracer, out: &mut Outcome) {
    let cfg = layers::exec_config(env);
    let (daemon, ..) = match Daemon::start(env, "npbd-traced") {
        Ok(d) => d,
        Err(e) => return out.record(false, || e),
    };
    let mut client = match Client::connect(daemon.addr()) {
        Ok(c) => c,
        Err(e) => return out.record(false, || e.to_string()),
    };
    let recon = Reconcile {
        what: "miss latency",
        part: |s| s.wall_s,
        layers: |code| {
            vec![(format!("harness.run_cell:{code}"), 1.0), ("service.journal_append".into(), 1.0)]
        },
    };
    let group = tr.open("layer:harness per code", None, 13);
    let (mut job_seed, mut seq) = (10_000, 0);
    traced::paired(
        &SYNC_CODES,
        rng,
        tr,
        out,
        recon,
        |code, ctx, out| {
            job_seed += 1;
            let r = submit(&mut client, &spec(code, job_seed), ctx);
            let ok = matches!(&r, Ok(rep) if !rep.from_cache);
            out.record(ok, || format!("{code} S t1 seed {job_seed}: {r:?}"));
            r.ok().filter(|_| ok).map(|rep| rep.sample)
        },
        |code, out| {
            seq += 1;
            let r = tr.scope(&format!("harness.run_cell:{code}"), Some(group), 13, || {
                npb_service::run_job(&cfg, &spec(code, 20_000 + seq), seq)
            });
            out.record(r.verified(), || format!("run_job {code} S t1: {}", r.disposition));
        },
    );
    tr.close(group);
    drop(client);
    let r = daemon.stop();
    out.record(r.is_ok(), || r.unwrap_err());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_latency_weights_each_kind_by_its_share() {
        let s = |wall_s| Sample { timed_s: 0.01, mops: 1.0, wall_s, steal: 0.0, ran: 1.0 };
        let mut kinds = BTreeMap::new();
        kinds.insert("hit".to_string(), vec![s(0.001); 3]);
        kinds.insert("miss CG".to_string(), vec![s(0.040), s(0.030), s(0.050)]);
        kinds.insert("miss IS".to_string(), vec![s(0.020); 2]);
        // 3/8 at 1 ms, 3/8 at 40 ms, 2/8 at 20 ms.
        let mix = mix_latency_s(&kinds).unwrap();
        assert!((mix - 0.020375).abs() < 1e-12, "{mix}");
        // A slower cache read path moves it.
        kinds.insert("hit".to_string(), vec![s(0.009); 3]);
        assert!((mix_latency_s(&kinds).unwrap() - mix - 0.003).abs() < 1e-12);
        assert_eq!(mix_latency_s(&BTreeMap::new()), None);
    }
}
