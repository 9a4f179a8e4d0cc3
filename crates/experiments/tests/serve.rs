//! End-to-end tests of the evaluation service over the real paper DAG:
//! two concurrent identical `table2` requests must coalesce onto one
//! training job per artifact key (the dedup counters prove it), and each
//! request's reassembled stdout must be byte-identical to a one-shot
//! execution of the same subgraph — the contract CI's daemon smoke relies
//! on.

use av_experiments::campaign::DispatchMode;
use av_experiments::jobs::PaperEvalService;
use av_experiments::suite::Args;
use av_suite::serve::{serve_lines, EvalService, ServeOptions, ServeReport};
use av_suite::{execute, EvalEvent, EvalRequest, EvalResponse, ExecOptions};
use std::collections::HashMap;
use std::io::{Cursor, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("suite-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn quick_args(store_dir: &Path) -> Args {
    Args {
        runs: 2,
        quick: true,
        seed: 2020,
        cache_dir: Some(store_dir.to_path_buf()),
        no_cache: false,
        dispatch: DispatchMode::Auto,
    }
}

fn table2_request(id: &str) -> EvalRequest {
    EvalRequest {
        id: id.into(),
        only: vec!["table2".into()],
        runs: 2,
        quick: true,
        seed: 2020,
        ..EvalRequest::default()
    }
}

/// A capture buffer usable as the serve output.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Capture {
    fn events(&self) -> Vec<EvalEvent> {
        let bytes = self.0.lock().expect("capture lock");
        String::from_utf8_lossy(&bytes)
            .lines()
            .filter_map(EvalEvent::parse)
            .collect()
    }
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("capture lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Reassembles one request's report stdout from its streamed chunks, in
/// the terminal response's `stdout_jobs` order.
fn stdout_of(events: &[EvalEvent], request: &str) -> String {
    let mut chunks: HashMap<&str, &str> = HashMap::new();
    let mut order: Option<&[String]> = None;
    for event in events.iter().filter(|e| e.request() == request) {
        match event {
            EvalEvent::StdoutChunk { job, stdout, .. } => {
                chunks.insert(job, stdout);
            }
            EvalEvent::Response(EvalResponse::Done { stdout_jobs, .. }) => {
                order = Some(stdout_jobs);
            }
            _ => {}
        }
    }
    order
        .expect("terminal done response")
        .iter()
        .filter_map(|id| chunks.get(id.as_str()).copied())
        .collect()
}

#[test]
fn concurrent_identical_requests_train_each_oracle_once() {
    let dir = scratch("dedup");
    let args = quick_args(&dir.join("store"));
    let service = PaperEvalService::new(args.clone(), Arc::new(args.artifact_store()));

    // Two identical quick table2 requests, admitted together on the
    // default two request slots — they execute concurrently against one
    // shared store.
    let capture = Capture::default();
    let input = format!(
        "{}\n{}\n",
        table2_request("a").to_json(),
        table2_request("b").to_json()
    );
    let report = serve_lines(
        Cursor::new(input),
        Box::new(capture.clone()),
        &service,
        &ServeOptions::default(),
    );
    assert_eq!(
        report,
        ServeReport {
            requests: 2,
            errors: 0
        }
    );

    // The dedup proof: the table2 subgraph has 6 dataset + 6 oracle
    // artifact keys, and exactly one computation ran per key — the second
    // request coalesced onto (or read the stored result of) the first's
    // work instead of training its own oracles.
    let (led, coalesced) = service.dedup_counters();
    assert_eq!(led, 12, "one computation per 〈scenario, vector〉 key");
    assert!(coalesced >= 1, "concurrent requests coalesced in flight");

    // Each request still got the complete report, byte-identical to a
    // one-shot execution of the same subgraph (on its own cold store, so
    // this also pins warm ≡ cold).
    let events = capture.events();
    for id in ["a", "b"] {
        assert!(
            events.iter().any(|e| matches!(
                e,
                EvalEvent::Response(EvalResponse::Done { request, .. }) if request == id
            )),
            "request {id} completed"
        );
    }
    let reference_args = quick_args(&dir.join("reference-store"));
    let reference_service = PaperEvalService::new(
        reference_args.clone(),
        Arc::new(reference_args.artifact_store()),
    );
    let dag = reference_service
        .dag_for(&table2_request("ref"))
        .expect("table2 subgraph");
    let reference = execute(&dag, &ExecOptions::new().workers(2)).expect("one-shot run");
    let expected: String = reference
        .jobs
        .iter()
        .filter(|j| j.emits_stdout)
        .map(|j| j.stdout.as_str())
        .collect();
    assert!(!expected.is_empty(), "table2 produced a report");
    assert_eq!(stdout_of(&events, "a"), expected, "request a stdout");
    assert_eq!(stdout_of(&events, "b"), expected, "request b stdout");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn real_service_answers_hostile_and_unknown_requests_with_typed_errors() {
    let dir = scratch("hostile");
    let args = quick_args(&dir.join("store"));
    let service = PaperEvalService::new(args.clone(), Arc::new(args.artifact_store()));

    let capture = Capture::default();
    let unknown = EvalRequest {
        only: vec!["fig99".into()],
        ..table2_request("bogus")
    };
    let input = format!(
        "not json at all\n{{\"runs\":\"NaN\"}}\n{}\n",
        unknown.to_json()
    );
    let report = serve_lines(
        Cursor::new(input),
        Box::new(capture.clone()),
        &service,
        &ServeOptions::default(),
    );
    // The unknown-job request was admitted (then failed validation); the
    // two malformed lines never reached a slot.
    assert_eq!(
        report,
        ServeReport {
            requests: 1,
            errors: 3
        }
    );
    let events = capture.events();
    let errors: Vec<&EvalEvent> = events
        .iter()
        .filter(|e| matches!(e, EvalEvent::Response(EvalResponse::Error { .. })))
        .collect();
    assert_eq!(errors.len(), 3, "every bad input answered: {events:?}");
    assert!(
        events.iter().any(|e| matches!(
            e,
            EvalEvent::Response(EvalResponse::Error { request, message, .. })
                if request == "bogus" && message.contains("fig99")
        )),
        "unknown job error names the offender"
    );
    // Nothing executed, so the store never trained anything.
    assert_eq!(service.dedup_counters(), (0, 0));

    let _ = std::fs::remove_dir_all(&dir);
}
