//! In-process half of the repository benchmark. `perfbench/run.py` builds
//! this binary next to the release `suite` binary and calls it for the
//! parts a CLI run cannot show:
//!
//! - `exec`: the paper DAG through `paper_dag`/`execute`, with an
//!   `ExecOptions::observer` that times every job (the traced twin of a
//!   `suite --jobs 1` run);
//! - `daemon`: two closed-loop clients driving a running `suite serve`
//!   through `av_suite::serve::request_over_unix`, checking every reply
//!   against one-shot reference stdout;
//! - `layers`: timed calls into each layer's public functions on a warm
//!   artifact store.
//!
//! Every subcommand prints one JSON object as its last stdout line. With
//! `--spans FILE` it also records a span around each timed call, keeps the
//! spans in memory and writes them to FILE as JSON lines when it ends.

mod daemon;
mod exec;
mod layers;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parsed `--flag value` pairs.
pub struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(argv: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut iter = argv.iter();
        while let Some(flag) = iter.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    /// A required string flag.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// A required path flag.
    pub fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.str(name).map(PathBuf::from)
    }

    /// An optional path flag.
    pub fn opt_path(&self, name: &str) -> Option<PathBuf> {
        self.0.get(name).map(PathBuf::from)
    }

    /// A required numeric flag.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.str(name)?;
        raw.parse()
            .map_err(|_| format!("--{name}: cannot parse {raw:?}"))
    }
}

/// One timed interval. Spans of one request or job share `req`.
struct Span {
    id: u64,
    parent: u64,
    name: String,
    req: String,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder; disabled when no `--spans` file was given, so
/// untraced runs pay nothing.
pub struct Spans {
    t0: Instant,
    out: Option<PathBuf>,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    fn new(out: Option<PathBuf>) -> Spans {
        Spans {
            t0: Instant::now(),
            out,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.out.is_some()
    }

    /// Records the interval `start..end` and returns its id (0 when
    /// disabled). `parent` 0 means a root span.
    pub fn record(&self, name: &str, parent: u64, req: &str, start: Instant, end: Instant) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            req: req.to_string(),
            start_ns: start.saturating_duration_since(self.t0).as_nanos(),
            end_ns: end.saturating_duration_since(self.t0).as_nanos(),
        };
        self.spans.lock().expect("span list lock").push(span);
        id
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// elapsed time.
    pub fn time<T>(&self, name: &str, parent: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let end = Instant::now();
        self.record(name, parent, "", start, end);
        (value, end - start)
    }

    /// Writes the recorded spans as JSON lines.
    fn flush(&self) -> std::io::Result<()> {
        let Some(path) = &self.out else {
            return Ok(());
        };
        let spans = self.spans.lock().expect("span list lock");
        let mut text = String::new();
        for s in spans.iter() {
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                json_str(&s.name),
                json_str(&s.req),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

/// A JSON object built field by field, in insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// Adds a number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Obj {
        let text = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.0.push((key.to_string(), text));
        self
    }

    /// Adds an already-encoded JSON value.
    pub fn raw(&mut self, key: &str, json: String) -> &mut Obj {
        self.0.push((key.to_string(), json));
        self
    }

    /// Encodes the object.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Encodes a JSON string literal.
pub fn json_str(text: &str) -> String {
    format!("\"{}\"", av_suite::api::json_escape(text))
}

/// Encodes a list of numbers.
pub fn json_nums(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(","))
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Sum of the byte sizes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn run(argv: &[String]) -> Result<String, String> {
    let (command, rest) = argv
        .split_first()
        .ok_or("usage: perfbench-probe <exec|daemon|layers> --flag value ...")?;
    let flags = Flags::parse(rest)?;
    let spans = Spans::new(flags.opt_path("spans"));
    let result = match command.as_str() {
        "exec" => exec::main(&flags, &spans),
        "daemon" => daemon::main(&flags, &spans),
        "layers" => layers::main(&flags, &spans),
        other => Err(format!("unknown subcommand {other:?}")),
    }?;
    spans
        .flush()
        .map_err(|e| format!("writing spans failed: {e}"))?;
    Ok(result)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(json) => println!("{json}"),
        Err(message) => {
            eprintln!("perfbench-probe: {message}");
            std::process::exit(1);
        }
    }
}
