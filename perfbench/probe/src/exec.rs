//! `exec`: one `suite --jobs 1` evaluation in process, timed per job.

use crate::{dir_bytes, Flags, Obj, Spans};
use av_experiments::jobs::paper_dag;
use av_experiments::suite::Args;
use av_suite::{execute, ArtifactStore, Dag, ExecEvent, ExecOptions};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer a job belongs to, by its id.
pub fn job_kind(id: &str) -> &'static str {
    if id.starts_with("dataset:") {
        "dataset"
    } else if id.starts_with("oracle:") {
        "oracle"
    } else if id.starts_with("search:") {
        "search"
    } else {
        "report"
    }
}

/// The dependency lists of the paper DAG, keyed by job id.
pub fn paper_deps() -> Result<HashMap<String, Vec<String>>, String> {
    let dag = paper_dag(&Args::default(), &Arc::new(ArtifactStore::disabled()))
        .map_err(|e| format!("paper DAG is invalid: {e}"))?;
    Ok(deps_of(&dag))
}

fn deps_of(dag: &Dag) -> HashMap<String, Vec<String>> {
    dag.jobs()
        .iter()
        .map(|j| (j.id().to_string(), j.dep_ids().to_vec()))
        .collect()
}

/// The longest `dep_ids` chain of job wall times, in seconds. Jobs absent
/// from `wall_ms` (not part of the run) count as zero.
pub fn critical_path_s(deps: &HashMap<String, Vec<String>>, wall_ms: &HashMap<String, f64>) -> f64 {
    fn finish(
        id: &str,
        deps: &HashMap<String, Vec<String>>,
        wall_ms: &HashMap<String, f64>,
        memo: &mut HashMap<String, f64>,
    ) -> f64 {
        if let Some(&t) = memo.get(id) {
            return t;
        }
        let before = deps
            .get(id)
            .map(|ds| {
                ds.iter()
                    .map(|d| finish(d, deps, wall_ms, memo))
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0);
        let t = before + wall_ms.get(id).copied().unwrap_or(0.0);
        memo.insert(id.to_string(), t);
        t
    }
    let mut memo = HashMap::new();
    wall_ms
        .keys()
        .map(|id| finish(id, deps, wall_ms, &mut memo))
        .fold(0.0, f64::max)
        / 1000.0
}

/// Job wall time summed by kind, in seconds.
pub fn kind_sums(wall_ms: &[(String, f64)]) -> [(&'static str, f64); 4] {
    let mut sums = [
        ("dataset", 0.0),
        ("oracle", 0.0),
        ("search", 0.0),
        ("report", 0.0),
    ];
    for (id, ms) in wall_ms {
        let kind = job_kind(id);
        if let Some(slot) = sums.iter_mut().find(|(k, _)| *k == kind) {
            slot.1 += ms / 1000.0;
        }
    }
    sums
}

pub fn main(flags: &Flags, spans: &Spans) -> Result<String, String> {
    let store_dir = flags.path("store")?;
    let args = Args {
        seed: flags.num("seed")?,
        cache_dir: Some(store_dir.clone()),
        ..Args::default()
    };
    let store = Arc::new(args.artifact_store());
    let dag = paper_dag(&args, &store).map_err(|e| format!("paper DAG is invalid: {e}"))?;
    let bytes_before = dir_bytes(&store_dir);

    // The observer runs on the executor's worker; it records each job's
    // span while the DAG executes.
    let started: Arc<Mutex<HashMap<String, Instant>>> = Arc::default();
    let job_spans: Arc<Mutex<Vec<(String, Instant, Instant)>>> = Arc::default();
    let mut opts = ExecOptions::new().workers(1);
    if spans.enabled() {
        let (started, job_spans) = (started.clone(), job_spans.clone());
        opts = opts.observer(move |event| match event {
            ExecEvent::JobStarted { job } => {
                started
                    .lock()
                    .expect("job start map lock")
                    .insert(job.to_string(), Instant::now());
            }
            ExecEvent::JobFinished { report } => {
                let end = Instant::now();
                if let Some(start) = started
                    .lock()
                    .expect("job start map lock")
                    .remove(&report.id)
                {
                    job_spans.lock().expect("job span list lock").push((
                        report.id.clone(),
                        start,
                        end,
                    ));
                }
            }
        });
    }

    let start = Instant::now();
    let report = execute(&dag, &opts).map_err(|e| format!("execute failed: {e}"))?;
    let end = Instant::now();
    let root = spans.record("suite.exec", 0, "", start, end);
    for (id, s, e) in job_spans.lock().expect("job span list lock").iter() {
        spans.record(&format!("suite.exec.{}", job_kind(id)), root, id, *s, *e);
    }

    let stdout: String = report
        .jobs
        .iter()
        .filter(|j| j.emits_stdout)
        .map(|j| j.stdout.as_str())
        .collect();
    std::fs::write(flags.path("stdout")?, stdout).map_err(|e| format!("writing stdout: {e}"))?;

    let walls: Vec<(String, f64)> = report
        .jobs
        .iter()
        .filter(|j| !j.skipped)
        .map(|j| (j.id.clone(), j.wall_ms as f64))
        .collect();
    let wall_map: HashMap<String, f64> = walls.iter().cloned().collect();
    let (hits, misses) = report.artifact_totals();
    let search = report
        .jobs
        .iter()
        .filter(|j| !j.skipped && job_kind(&j.id) == "search")
        .fold((0, 0), |(h, m), j| {
            (h + j.artifact_hits, m + j.artifact_misses)
        });
    let (led, coalesced) = store.dedup_counters();

    let mut out = Obj::default();
    out.num("wall_s", (end - start).as_secs_f64())
        .num("jobs_run", report.jobs_run() as f64)
        .num(
            "critical_path_s",
            critical_path_s(&deps_of(&dag), &wall_map),
        );
    for (kind, secs) in kind_sums(&walls) {
        out.num(&format!("{kind}_s"), secs);
    }
    out.num("hits", hits as f64)
        .num("misses", misses as f64)
        .num("search_hits", search.0 as f64)
        .num("search_misses", search.1 as f64)
        .num("led", led as f64)
        .num("coalesced", coalesced as f64)
        .num(
            "bytes_written",
            dir_bytes(&store_dir).saturating_sub(bytes_before) as f64,
        );
    Ok(out.render())
}
