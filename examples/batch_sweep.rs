//! Batch-size sweep for the lockstep batch engine.
//!
//! Times the NN-oracle RoboTack campaign (the paper's primary workload, and
//! the one cross-session GEMM batching accelerates) on the sequential engine
//! (`SimSession::run_with`, one run at a time), under the default
//! auto-width dispatch and under `DispatchMode::Batched` at several batch
//! sizes, asserting along the way that every per-run digest is
//! bit-identical to the sequential engine.
//!
//! This regenerates the `batched_campaign` section of `BENCH_suite.json`:
//!
//! ```text
//! cargo run --release --example batch_sweep
//! ```

use av_experiments::campaign::{run_campaign_dispatch, DispatchMode};
use av_experiments::prelude::*;
use av_experiments::train_sh::train_oracle_on;
use av_neural::train::Dataset;
use std::time::Instant;

const RUNS: u64 = 32;
const REPS: u32 = 3;

fn synthetic_dataset(n: usize) -> Dataset {
    Dataset::from_rows((0..n).map(|i| {
        let delta = 5.0 + (i % 20) as f64 * 2.0;
        let k = (i % 9) as f64 * 10.0;
        (vec![delta, -3.0, 0.5, -0.1, k], vec![delta - 0.1 * k])
    }))
}

fn campaign() -> Campaign {
    let oracle = train_oracle_on(&synthetic_dataset(128)).expect("synthetic dataset trains");
    Campaign::new(
        "batch-sweep",
        ScenarioId::Ds1,
        AttackerSpec::RoboTack {
            vector: Some(AttackVector::Disappear),
            oracle: OracleSpec::Nn(oracle.oracle),
        },
        RUNS,
        900,
    )
}

/// Best-of-`REPS` wall-clock of `run`, plus the run digests it returns.
fn best_of(mut run: impl FnMut() -> Vec<RunOutcome>) -> (f64, Vec<String>) {
    let mut best = f64::INFINITY;
    let mut digests = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let outcomes = run();
        best = best.min(t0.elapsed().as_secs_f64());
        digests = outcomes.iter().map(|o| o.record.digest()).collect();
    }
    (best, digests)
}

/// Best-of-`REPS` wall-clock for one dispatch mode on one thread.
fn time_mode(campaign: &Campaign, mode: DispatchMode) -> (f64, Vec<String>) {
    best_of(|| {
        run_campaign_dispatch(campaign, 1, mode)
            .expect("one thread is nonzero")
            .outcomes
    })
}

/// Best-of-`REPS` wall-clock for the sequential engine, one run at a time.
fn time_sequential(campaign: &Campaign) -> (f64, Vec<String>) {
    best_of(|| {
        let mut worker = SessionWorker::new();
        (0..campaign.runs)
            .map(|i| {
                SimSession::builder(campaign.scenario)
                    .seed(campaign.base_seed + i)
                    .attacker(campaign.attacker.clone())
                    .build()
                    .run_with(&mut worker)
            })
            .collect()
    })
}

fn main() {
    println!("training the synthetic oracle ...");
    let campaign = campaign();

    println!("timing the {RUNS}-run DS-1 NN campaign (best of {REPS}, 1 thread):\n");
    let (seq_s, seq_digests) = time_sequential(&campaign);
    println!(
        "{:<14} {:>9.1} ms {:>8}",
        "sequential",
        seq_s * 1e3,
        "1.00x"
    );

    let modes = [("auto".to_string(), DispatchMode::Auto)]
        .into_iter()
        .chain([4usize, 8, 16, 32, 64].map(|batch_size| {
            (
                format!("batched_{batch_size}"),
                DispatchMode::Batched { batch_size },
            )
        }));
    for (name, mode) in modes {
        let (s, digests) = time_mode(&campaign, mode);
        assert_eq!(
            digests, seq_digests,
            "{name}: digests diverged from sequential"
        );
        println!(
            "{:<14} {:>9.1} ms {:>7.2}x   digests identical",
            name,
            s * 1e3,
            seq_s / s
        );
    }
}
