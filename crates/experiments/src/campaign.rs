//! Seeded campaigns: batches of runs with Table II / Fig. 6 / Fig. 7 metrics.

use crate::batch::LanePool;
use crate::runner::{AttackerSpec, RunConfig, RunOutcome};
use crate::session::SimSession;
use crate::stats;
use av_faults::FaultPlan;
use av_simkit::scenario::ScenarioId;
use av_telemetry::{MetricsRegistry, MetricsSnapshot, Telemetry, TraceEvent};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a campaign could not be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// `threads == 0` was requested. Historical behavior silently clamped
    /// this to sequential execution; the caller now has to pick a real
    /// worker count (1 = sequential).
    ZeroThreads,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::ZeroThreads => {
                write!(f, "campaign requires at least one worker thread (got 0)")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// A campaign: one 〈scenario, attacker〉 pair executed over many seeds, like
/// the paper's 150–200 runs per experimental campaign (§VI-C).
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign id, e.g. `DS-1-Disappear-R` (paper naming).
    pub name: String,
    /// Scenario to run.
    pub scenario: ScenarioId,
    /// For generated scenarios: the spec every run samples its world from
    /// (at `base_seed + index`, the same stream the fixed recipes draw
    /// from). `None` for the fixed DS-1..5 scenarios.
    pub spec: Option<Arc<av_scenarios::ScenarioSpec>>,
    /// Attacker riding along.
    pub attacker: AttackerSpec,
    /// Number of seeded runs.
    pub runs: u64,
    /// Base seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Sensor faults injected into every run (empty = healthy sensors).
    pub faults: FaultPlan,
    /// Collect per-stage timing metrics across all workers (merged into
    /// [`CampaignResult::metrics`]). Off by default: the campaign then runs
    /// with telemetry fully disabled, the zero-cost path.
    pub collect_metrics: bool,
}

impl Campaign {
    /// Creates a campaign with healthy sensors.
    pub fn new(
        name: impl Into<String>,
        scenario: ScenarioId,
        attacker: AttackerSpec,
        runs: u64,
        base_seed: u64,
    ) -> Self {
        Campaign {
            name: name.into(),
            scenario,
            spec: None,
            attacker,
            runs,
            base_seed,
            faults: FaultPlan::none(),
            collect_metrics: false,
        }
    }

    /// A campaign over a generated scenario: every run samples its world
    /// from `spec`, and [`Campaign::scenario`] is the spec's content-hash
    /// id ([`av_scenarios::ScenarioSpec::scenario_id`]).
    pub fn generated(
        name: impl Into<String>,
        spec: Arc<av_scenarios::ScenarioSpec>,
        attacker: AttackerSpec,
        runs: u64,
        base_seed: u64,
    ) -> Self {
        let mut campaign = Campaign::new(name, spec.scenario_id(), attacker, runs, base_seed);
        campaign.spec = Some(spec);
        campaign
    }

    /// The same campaign with a fault plan applied to every run.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The same campaign with per-stage timing collection enabled.
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.collect_metrics = true;
        self
    }
}

/// Aggregated campaign outcomes.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign id.
    pub name: String,
    /// Scenario run.
    pub scenario: ScenarioId,
    /// All run outcomes, in seed order.
    pub outcomes: Vec<RunOutcome>,
    /// Per-stage timing + event counts merged across all worker threads
    /// (`Some` only when the campaign was built [`Campaign::with_metrics`]).
    /// The deterministic projection ([`MetricsSnapshot::deterministic_counts`])
    /// is thread-count invariant; durations are wall-clock and are not.
    pub metrics: Option<MetricsSnapshot>,
}

impl CampaignResult {
    /// Runs in which an attack was actually launched ("valid runs"; the
    /// paper discards invalid runs, §VI-C).
    pub fn launched(&self) -> Vec<&RunOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.attack.launched_at.is_some())
            .collect()
    }

    /// Number of valid (attack-launched) runs.
    pub fn n_launched(&self) -> usize {
        self.launched().len()
    }

    /// Emergency-braking count and rate (%) over valid runs.
    pub fn eb(&self) -> (usize, f64) {
        let launched = self.launched();
        let n = launched.iter().filter(|o| o.eb_after_attack).count();
        let pct = if launched.is_empty() {
            0.0
        } else {
            100.0 * n as f64 / launched.len() as f64
        };
        (n, pct)
    }

    /// Accident (crash) count and rate (%) over valid runs.
    pub fn crashes(&self) -> (usize, f64) {
        let launched = self.launched();
        let n = launched.iter().filter(|o| o.accident).count();
        let pct = if launched.is_empty() {
            0.0
        } else {
            100.0 * n as f64 / launched.len() as f64
        };
        (n, pct)
    }

    /// Median planned attack length K (frames) over valid runs.
    pub fn median_k(&self) -> f64 {
        let ks: Vec<f64> = self
            .launched()
            .iter()
            .map(|o| f64::from(o.attack.k))
            .collect();
        stats::median(&ks)
    }

    /// All measured K′ values (ADS-side, Fig. 7).
    pub fn k_primes(&self) -> Vec<f64> {
        self.launched()
            .iter()
            .filter_map(|o| o.k_prime_ads.map(f64::from))
            .collect()
    }

    /// Min-δ-since-attack values (Fig. 6).
    pub fn min_deltas(&self) -> Vec<f64> {
        self.launched()
            .iter()
            .filter_map(|o| o.min_delta_post_attack)
            .collect()
    }
}

/// Widest lockstep block [`DispatchMode::Auto`] forms. Past 64 lanes the
/// feature-major oracle activation tile outgrows L1d and per-lane in-flight
/// state grows peak memory, so larger campaigns get more blocks per worker
/// instead of wider ones.
pub const MAX_AUTO_WIDTH: usize = 64;

/// How a campaign's runs are grouped into lockstep blocks.
///
/// Every mode runs through the lockstep batch engine
/// ([`crate::batch::LanePool`]): a block's sessions advance tick by tick off
/// one shared scheduler and answer their safety-hijacker k-search queries as
/// one oracle GEMM per bisection round. Workers claim blocks off an atomic
/// counter and outcomes land in seed order. Outcomes are bit-identical for
/// every mode, width and thread count (the differential-equivalence suite
/// pins the digests against the sequential [`SimSession::run_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// The width is worked out from the campaign: one block per worker,
    /// with more blocks per worker only where a block would exceed
    /// [`MAX_AUTO_WIDTH`] lanes, and block sizes balanced to within one run.
    /// The default.
    #[default]
    Auto,
    /// Fixed-width blocks of `batch_size` runs (`--batch N`); the last
    /// block takes the remainder.
    Batched {
        /// Sessions advanced per lockstep block (clamped to at least 1).
        batch_size: usize,
    },
}

/// Executes a campaign, parallelized across worker threads.
pub fn run_campaign(campaign: &Campaign) -> CampaignResult {
    run_campaign_with_threads(campaign, default_threads())
        .expect("default_threads() is always at least 1")
}

/// Reasonable worker count for this host.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Executes a campaign on exactly `threads` workers under the default
/// dispatch ([`DispatchMode::Auto`]).
///
/// # Errors
///
/// Returns [`CampaignError::ZeroThreads`] for `threads == 0` — previously
/// this was silently clamped to sequential execution.
pub fn run_campaign_with_threads(
    campaign: &Campaign,
    threads: usize,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_dispatch(campaign, threads, DispatchMode::default())
}

/// The lockstep blocks [`DispatchMode::Auto`] splits `runs` runs into for
/// `workers` workers: `workers × per_worker` contiguous blocks, with
/// `per_worker = ⌈runs / (workers × MAX_AUTO_WIDTH)⌉`, whose sizes differ by
/// at most one. Every worker thus gets the same number of blocks and no
/// block is wider than [`MAX_AUTO_WIDTH`]. `workers` is capped at `runs`,
/// so no block is empty.
fn auto_blocks(runs: usize, workers: usize) -> Vec<Range<usize>> {
    if runs == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, runs);
    let blocks = workers * runs.div_ceil(workers * MAX_AUTO_WIDTH);
    (0..blocks)
        .map(|b| b * runs / blocks..(b + 1) * runs / blocks)
        .collect()
}

/// Executes a campaign on exactly `threads` workers with an explicit
/// [`DispatchMode`]. Outcomes land in seed order and are bit-identical for
/// every (threads, mode) combination.
///
/// # Errors
///
/// Returns [`CampaignError::ZeroThreads`] for `threads == 0`.
pub fn run_campaign_dispatch(
    campaign: &Campaign,
    threads: usize,
    mode: DispatchMode,
) -> Result<CampaignResult, CampaignError> {
    if threads == 0 {
        return Err(CampaignError::ZeroThreads);
    }
    let runs = usize::try_from(campaign.runs).expect("run count fits usize");
    // Spawning more workers than runs would only create idle threads.
    let workers = threads.min(runs).max(1);
    let blocks: Vec<Range<usize>> = match mode {
        DispatchMode::Auto => auto_blocks(runs, workers),
        DispatchMode::Batched { batch_size } => {
            let width = batch_size.max(1);
            (0..runs)
                .step_by(width)
                .map(|start| start..(start + width).min(runs))
                .collect()
        }
    };
    let workers = workers.min(blocks.len()).max(1);
    // One registry per worker: workers record lock-free into their own and
    // the merge at the end is associative + commutative, so the merged
    // deterministic counters are identical for any thread count.
    let registries: Vec<Arc<MetricsRegistry>> = if campaign.collect_metrics {
        (0..workers)
            .map(|_| Arc::new(MetricsRegistry::new()))
            .collect()
    } else {
        Vec::new()
    };

    // Each worker keeps one LanePool (a warm SessionWorker per lane) across
    // every block it claims, and claims blocks off a shared counter.
    let next = AtomicUsize::new(0);
    let work = |worker: usize| -> Vec<(usize, Vec<RunOutcome>)> {
        let tele = registries
            .get(worker)
            .map_or_else(Telemetry::disabled, |r| Telemetry::with_registry(r.clone()));
        let mut pool = LanePool::new();
        let mut claimed = Vec::new();
        while let Some(block) = blocks.get(next.fetch_add(1, Ordering::Relaxed)) {
            let sessions: Vec<SimSession> = block
                .clone()
                .map(|i| {
                    let index = i as u64;
                    tele.emit(0.0, || TraceEvent::CampaignRunDispatched { index });
                    session_for(campaign, index, &tele)
                })
                .collect();
            claimed.push((block.start, pool.run_batch(&sessions, &tele)));
        }
        claimed
    };
    // Worker 0 runs on the calling thread; the rest are scoped threads.
    let mut claimed = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        let mut claimed = work(0);
        for handle in handles {
            claimed.extend(handle.join().expect("campaign worker panicked"));
        }
        claimed
    });
    // The claimed blocks partition 0..runs; sorting by start restores seed
    // order.
    claimed.sort_unstable_by_key(|&(start, _)| start);
    let outcomes: Vec<RunOutcome> = claimed
        .into_iter()
        .flat_map(|(_, outcomes)| outcomes)
        .collect();
    debug_assert_eq!(outcomes.len(), runs, "every run finished once");

    let metrics = registries.split_first().map(|(first, rest)| {
        for r in rest {
            first.merge_from(r);
        }
        first.snapshot()
    });

    Ok(CampaignResult {
        name: campaign.name.clone(),
        scenario: campaign.scenario,
        outcomes,
        metrics,
    })
}

/// Builds the session for run `index` of the campaign.
fn session_for(campaign: &Campaign, index: u64, telemetry: &Telemetry) -> SimSession {
    let seed = campaign.base_seed + index;
    let mut config = match &campaign.spec {
        Some(spec) => RunConfig::generated(spec.clone(), seed),
        None => RunConfig::new(campaign.scenario, seed),
    };
    config = config.with_faults(campaign.faults.clone());
    SimSession::builder(campaign.scenario)
        .config(config)
        .attacker(campaign.attacker.clone())
        .telemetry(telemetry.clone())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionWorker;

    /// Per-seed digests from the sequential engine ([`SimSession::run_with`]),
    /// the reference every dispatch mode must reproduce.
    fn reference_digests(campaign: &Campaign) -> Vec<String> {
        let mut worker = SessionWorker::new();
        (0..campaign.runs)
            .map(|i| {
                session_for(campaign, i, &Telemetry::disabled())
                    .run_with(&mut worker)
                    .record
                    .digest()
            })
            .collect()
    }

    /// Asserts that `result` holds exactly the `reference` digests, in seed
    /// order.
    fn assert_matches_reference(
        campaign: &Campaign,
        result: &CampaignResult,
        reference: &[String],
        label: &str,
    ) {
        assert_eq!(result.outcomes.len(), reference.len(), "{label}: run count");
        for ((i, outcome), digest) in result.outcomes.iter().enumerate().zip(reference) {
            assert_eq!(
                outcome.seed,
                campaign.base_seed + i as u64,
                "{label}: seed order"
            );
            assert_eq!(
                &outcome.record.digest(),
                digest,
                "{label}: seed {}",
                outcome.seed
            );
        }
    }

    #[test]
    fn default_dispatch_matches_sequential_reference() {
        // One reference over the longest campaign; the shorter campaigns
        // share its base seed, so their references are prefixes of it.
        let reference = reference_digests(&Campaign::new(
            "test-default",
            ScenarioId::Ds3,
            AttackerSpec::None,
            130,
            100,
        ));
        for runs in [0u64, 1, 5, 130] {
            let campaign = Campaign::new(
                "test-default",
                ScenarioId::Ds3,
                AttackerSpec::None,
                runs,
                100,
            );
            for threads in [1, 2, 3] {
                let result =
                    run_campaign_dispatch(&campaign, threads, DispatchMode::default()).unwrap();
                assert_matches_reference(
                    &campaign,
                    &result,
                    &reference[..runs as usize],
                    &format!("{runs} runs, {threads} threads"),
                );
            }
        }
    }

    #[test]
    fn auto_blocks_give_every_worker_one_block_up_to_the_width_cap() {
        for runs in 0..=400 {
            for threads in 1..=4 {
                let workers = threads.min(runs);
                let blocks = auto_blocks(runs, workers);
                let label = format!("{runs} runs, {workers} workers");
                // Contiguous, non-empty, and covering 0..runs exactly once.
                let mut end = 0;
                for block in &blocks {
                    assert_eq!(block.start, end, "{label}: gap or overlap");
                    assert!(!block.is_empty(), "{label}: empty block");
                    assert!(block.len() <= MAX_AUTO_WIDTH, "{label}: block too wide");
                    end = block.end;
                }
                assert_eq!(end, runs, "{label}: coverage");
                if runs == 0 {
                    assert!(blocks.is_empty(), "{label}");
                    continue;
                }
                assert_eq!(blocks.len() % workers, 0, "{label}: uneven block count");
                if runs <= workers * MAX_AUTO_WIDTH {
                    assert_eq!(blocks.len(), workers, "{label}: one block per worker");
                }
                // Balanced: the widest block is ⌈runs / blocks⌉ lanes and
                // the narrowest at most one lane short of it.
                let widest = blocks.iter().map(Range::len).max().unwrap();
                let narrowest = blocks.iter().map(Range::len).min().unwrap();
                let per_worker = runs.div_ceil(workers * MAX_AUTO_WIDTH);
                assert_eq!(widest, runs.div_ceil(workers * per_worker), "{label}");
                assert!(widest - narrowest <= 1, "{label}: unbalanced");
            }
        }
    }

    #[test]
    fn batched_dispatch_matches_sequential_reference() {
        let campaign = Campaign::new("test-batched", ScenarioId::Ds3, AttackerSpec::None, 5, 100);
        let reference = reference_digests(&campaign);
        // Batch sizes below, at, and above the run count; single- and
        // multi-worker block claiming.
        for batch_size in [1, 2, 5, 8] {
            for threads in [1, 3] {
                let batched =
                    run_campaign_dispatch(&campaign, threads, DispatchMode::Batched { batch_size })
                        .unwrap();
                assert_matches_reference(
                    &campaign,
                    &batched,
                    &reference,
                    &format!("batch {batch_size}, {threads} threads"),
                );
            }
        }
    }

    #[test]
    fn faulted_campaign_is_thread_count_invariant() {
        let plan = av_faults::FaultPlan::single(av_faults::FaultSpec::always(
            av_faults::FaultKind::CameraFrameDrop { probability: 0.2 },
        ));
        let campaign =
            Campaign::new("faulted", ScenarioId::Ds1, AttackerSpec::None, 3, 500).with_faults(plan);
        let reference = reference_digests(&campaign);
        let seq = run_campaign_with_threads(&campaign, 1).unwrap();
        assert!(
            seq.outcomes
                .iter()
                .any(|o| o.faults.camera_frames_dropped > 0),
            "the fault plan must actually fire"
        );
        assert_matches_reference(&campaign, &seq, &reference, "faulted, 1 thread");
        let par = run_campaign_with_threads(&campaign, 8).unwrap();
        assert_matches_reference(&campaign, &par, &reference, "faulted, 8 threads");
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.faults, b.faults, "fault schedule, seed {}", a.seed);
        }
    }

    #[test]
    fn zero_runs_campaign_is_empty() {
        let campaign = Campaign::new("empty", ScenarioId::Ds1, AttackerSpec::None, 0, 0);
        for threads in [1, 4] {
            let result = run_campaign_with_threads(&campaign, threads).unwrap();
            assert!(result.outcomes.is_empty());
            assert_eq!(result.n_launched(), 0);
        }
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let campaign = Campaign::new("bad", ScenarioId::Ds1, AttackerSpec::None, 1, 0);
        assert_eq!(
            run_campaign_with_threads(&campaign, 0).unwrap_err(),
            CampaignError::ZeroThreads
        );
    }

    #[test]
    fn metrics_on_golden_campaign_are_zero() {
        let campaign = Campaign::new("golden", ScenarioId::Ds1, AttackerSpec::None, 3, 0);
        let result = run_campaign_with_threads(&campaign, 2).unwrap();
        assert_eq!(result.n_launched(), 0);
        assert_eq!(result.eb(), (0, 0.0));
        assert_eq!(result.crashes(), (0, 0.0));
    }
}
