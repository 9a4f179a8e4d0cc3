//! `daemon`: two closed-loop clients against a running `suite serve`.
//!
//! The plan file holds one request per line, `client kind ref only runs
//! quick seed`, in each client's send order. `kind` is `ro` (read-only),
//! `w` (write-causing) or `pair`; both clients hold their `pair` lines at
//! the same positions and send them at the same moment, after a barrier, so
//! the daemon sees identical requests at once. The stop decision is also
//! taken at those barriers, so both clients stop at the same pair. Each
//! client sends its next request only after the previous reply, and stops
//! at the end of its list: a write-causing request is never sent twice, so
//! each one misses in the store.

use crate::exec::{critical_path_s, job_kind, kind_sums, paper_deps};
use crate::{json_nums, json_str, Flags, Obj, Spans};
use av_suite::serve::request_over_unix;
use av_suite::{EvalEvent, EvalRequest, EvalResponse, Priority};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;

struct Item {
    kind: String,
    reference: String,
    only: String,
    runs: u64,
    quick: bool,
    seed: u64,
}

/// What one request produced.
struct Done {
    kind: String,
    latency_ms: f64,
    admit_ms: Option<f64>,
    service_ms: Option<f64>,
    error: Option<String>,
    dedup: (u64, u64),
    hits: u64,
    misses: u64,
    jobs: Vec<(String, f64)>,
    /// Artifact-store ⟨hits, misses⟩ of the request's search jobs.
    search: (u64, u64),
}

fn parse_plan(text: &str) -> Result<Vec<Vec<Item>>, String> {
    let mut plan: Vec<Vec<Item>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("bad plan line {line:?}");
        if f.len() != 7 {
            return Err(bad());
        }
        let client: usize = f[0].parse().map_err(|_| bad())?;
        let item = Item {
            kind: f[1].to_string(),
            reference: f[2].to_string(),
            only: f[3].to_string(),
            runs: f[4].parse().map_err(|_| bad())?,
            quick: f[5] == "1",
            seed: f[6].parse().map_err(|_| bad())?,
        };
        plan.get_mut(client).ok_or_else(bad)?.push(item);
    }
    let pairs: Vec<usize> = plan
        .iter()
        .map(|items| items.iter().filter(|i| i.kind == "pair").count())
        .collect();
    if plan.iter().any(Vec::is_empty) || pairs.iter().any(|&n| n == 0 || n != pairs[0]) {
        return Err("every client needs requests and the same number of pairs".into());
    }
    Ok(plan)
}

fn send(
    socket: &Path,
    id: String,
    item: &Item,
    reference: &str,
    traced: bool,
    spans: &Spans,
) -> Done {
    let request = EvalRequest {
        id: id.clone(),
        only: vec![item.only.clone()],
        runs: item.runs,
        quick: item.quick,
        seed: item.seed,
        batch: None,
        jobs: 1,
        priority: Priority::Interactive,
    };
    let mut accepted = None;
    let mut jobs = Vec::new();
    let mut search = (0, 0);
    let sent = Instant::now();
    let outcome = request_over_unix(socket, &request, Duration::from_secs(10), |event| {
        if !traced {
            return;
        }
        match event {
            EvalEvent::Accepted { .. } => accepted = Some(Instant::now()),
            EvalEvent::JobFinished {
                job,
                wall_ms,
                hits,
                misses,
                skipped: false,
                ..
            } => {
                if job_kind(job) == "search" {
                    search = (search.0 + hits, search.1 + misses);
                }
                jobs.push((job.clone(), *wall_ms as f64));
            }
            _ => {}
        }
    });
    let finished = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    let mut done = Done {
        kind: item.kind.clone(),
        latency_ms: ms(finished - sent),
        admit_ms: accepted.map(|a| ms(a - sent)),
        service_ms: accepted.map(|a| ms(finished - a)),
        error: None,
        dedup: (0, 0),
        hits: 0,
        misses: 0,
        jobs,
        search,
    };
    match outcome {
        Ok(outcome) => match outcome.response {
            EvalResponse::Done {
                artifact_hits,
                artifact_misses,
                dedup_led,
                dedup_coalesced,
                ..
            } => {
                done.dedup = (dedup_led, dedup_coalesced);
                done.hits = artifact_hits;
                done.misses = artifact_misses;
                if outcome.stdout != reference {
                    done.error = Some(format!("{id}: stdout differs from one-shot {}", item.only));
                }
            }
            EvalResponse::Error { code, message, .. } => {
                done.error = Some(format!("{id}: {} {message}", code.name()));
            }
        },
        Err(e) => done.error = Some(format!("{id}: {e}")),
    }
    if traced {
        let root = spans.record("suite.serve.request", 0, &id, sent, finished);
        if let Some(a) = accepted {
            spans.record("suite.serve.admit_wait", root, &id, sent, a);
            spans.record("suite.serve.service", root, &id, a, finished);
        }
    }
    done
}

pub fn main(flags: &Flags, spans: &Spans) -> Result<String, String> {
    let socket: PathBuf = flags.path("socket")?;
    let refs = flags.path("refs")?;
    let seconds: f64 = flags.num("seconds")?;
    let min_requests: usize = flags.num("min-requests")?;
    let traced = spans.enabled();
    let plan_text =
        std::fs::read_to_string(flags.path("plan")?).map_err(|e| format!("reading plan: {e}"))?;
    let plan = parse_plan(&plan_text)?;

    let mut references: HashMap<String, String> = HashMap::new();
    for item in plan.iter().flatten() {
        if !references.contains_key(&item.reference) {
            let path = refs.join(format!("{}.out", item.reference));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            references.insert(item.reference.clone(), text);
        }
    }

    // A reply that never comes must not hang the benchmark: fail the run
    // well inside its time limit instead.
    let limit = Duration::from_secs_f64(seconds + 60.0);
    let (finished, finished_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = finished_rx.recv_timeout(limit) {
            eprintln!("perfbench-probe: daemon requests timed out after {limit:?}");
            std::process::exit(3);
        }
    });

    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let results: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let start = Instant::now();
    // `--seconds 0`: no time limit, run the whole plan. Otherwise also stop
    // at the first pair after the deadline by which at least
    // `--min-requests` replies have arrived.
    let deadline = (seconds > 0.0).then(|| start + Duration::from_secs_f64(seconds));
    std::thread::scope(|scope| {
        for (client, items) in plan.iter().enumerate() {
            let (barrier, stop, results, references, socket) =
                (&barrier, &stop, &results, &references, &socket);
            scope.spawn(move || {
                for (n, item) in items.iter().enumerate() {
                    if item.kind == "pair" {
                        if barrier.wait().is_leader() {
                            let completed = results.lock().expect("result list lock").len();
                            let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
                            stop.store(timed_out && completed >= min_requests, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    let done = send(
                        socket,
                        format!("c{client}-{n}"),
                        item,
                        &references[&item.reference],
                        traced,
                        spans,
                    );
                    results.lock().expect("result list lock").push(done);
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    drop(finished);
    watchdog.join().expect("watchdog thread panicked");

    let results = results.into_inner().expect("result list lock");
    let errors: Vec<&String> = results.iter().filter_map(|d| d.error.as_ref()).collect();
    let ok: Vec<&Done> = results.iter().filter(|d| d.error.is_none()).collect();
    let pick = |f: &dyn Fn(&Done) -> Option<f64>| -> Vec<f64> {
        ok.iter().filter_map(|d| f(d)).collect::<Vec<f64>>()
    };
    let mut out = Obj::default();
    out.num("requests", results.len() as f64)
        .num("failed", errors.len() as f64)
        .num("elapsed_s", elapsed)
        .raw("latency_ms", json_nums(&pick(&|d| Some(d.latency_ms))));
    // The kind of each entry of `latency_ms`, in the same order.
    let kinds: Vec<String> = ok.iter().map(|d| json_str(&d.kind)).collect();
    out.raw("kinds", format!("[{}]", kinds.join(",")));
    let errors: Vec<String> = errors.iter().take(5).map(|e| json_str(e)).collect();
    out.raw("errors", format!("[{}]", errors.join(",")));
    if traced {
        let deps = paper_deps()?;
        let walls: Vec<(String, f64)> = ok.iter().flat_map(|d| d.jobs.iter().cloned()).collect();
        let critical = ok
            .iter()
            .map(|d| critical_path_s(&deps, &d.jobs.iter().cloned().collect()))
            .fold(0.0, f64::max);
        let led = ok.iter().map(|d| d.dedup.0).max().unwrap_or(0);
        let coalesced = ok.iter().map(|d| d.dedup.1).max().unwrap_or(0);
        out.raw("admit_ms", json_nums(&pick(&|d| d.admit_ms)))
            .raw("service_ms", json_nums(&pick(&|d| d.service_ms)))
            .num("led", led as f64)
            .num("coalesced", coalesced as f64)
            .num("hits", ok.iter().map(|d| d.hits).sum::<u64>() as f64)
            .num("misses", ok.iter().map(|d| d.misses).sum::<u64>() as f64)
            .num(
                "search_hits",
                ok.iter().map(|d| d.search.0).sum::<u64>() as f64,
            )
            .num(
                "search_misses",
                ok.iter().map(|d| d.search.1).sum::<u64>() as f64,
            )
            .num("critical_path_s", critical);
        for (kind, secs) in kind_sums(&walls) {
            out.num(&format!("{kind}_s"), secs);
        }
    }
    Ok(out.render())
}
