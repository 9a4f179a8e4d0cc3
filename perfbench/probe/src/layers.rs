//! `layers`: timed calls into each layer's public functions, on a warm
//! artifact store (one that a full suite run, or at least its table2
//! subgraph, has filled).

use crate::{median, Flags, Obj, Spans};
use av_experiments::oracle_cache::{
    cache_key, dataset_digest, oracle_digest, OracleCache, NS_DATASET, NS_ORACLE,
};
use av_experiments::prelude::*;
use av_experiments::search::{run_search, SearchConfig, NS_SEARCH_EVAL};
use av_experiments::suite::{Args, ARMS};
use av_experiments::train_sh::{collect_dataset, train_oracle_on, SweepConfig};
use av_neural::Dataset;
use av_scenarios::{ds, mutate, MutateConfig};
use av_suite::ArtifactStore;
use robotack::safety_hijacker::AttackFeatures;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Batch widths of the inference and batched-campaign sweeps.
const WIDTHS: [usize; 4] = [1, 16, 32, 64];
/// Runs of the DS-1 Disappear NN campaign (the ROADMAP's 32-run row).
const CAMPAIGN_RUNS: u64 = 32;
/// Repeats of each short timing; the median is reported.
const REPEATS: usize = 3;
/// Epochs and minibatch size `train_oracle_on` trains with.
const EPOCHS: f64 = 300.0;
const BATCH: f64 = 16.0;

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median `get`/`put` µs over the store's own blobs, replayed into a
/// scratch store.
fn store_replay(warm: &Path, scratch: &Path, spans: &Spans, out: &mut Obj) -> Result<(), String> {
    let scratch_store = ArtifactStore::at(scratch);
    let (mut gets, mut puts) = (Vec::new(), Vec::new());
    let mut entries: Vec<_> = std::fs::read_dir(warm)
        .map_err(|e| format!("listing {}: {e}", warm.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some((key, ns)) = name.split_once('.') else {
            continue;
        };
        let ns: &'static str = match ns {
            "dataset" => NS_DATASET,
            "oracle" => NS_ORACLE,
            "search-eval" => NS_SEARCH_EVAL,
            _ => continue,
        };
        let Ok(key) = u64::from_str_radix(key, 16) else {
            continue;
        };
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {name}: {e}"))?;
        let ((), put) = spans.time("suite.store.put", 0, || scratch_store.put(ns, key, &bytes));
        let (got, get) = spans.time("suite.store.get", 0, || scratch_store.get(ns, key));
        if got.map_err(|e| e.to_string())?.as_deref() != Some(bytes.as_slice()) {
            return Err(format!("store replay of {name} read back different bytes"));
        }
        puts.push(us(put));
        gets.push(us(get));
    }
    if gets.is_empty() {
        return Err(format!("{} holds no artifacts", warm.display()));
    }
    out.num("suite.store.get_us", median(&gets))
        .num("suite.store.put_us", median(&puts));
    Ok(())
}

/// `OracleCache` lookups (read plus decode) of every arm, plus the warm
/// datasets and the DS-1 Disappear oracle for the later probes.
fn lookups(
    cache: &OracleCache,
    sweep: &SweepConfig,
    spans: &Spans,
    out: &mut Obj,
) -> Result<(Vec<Dataset>, Vec<TrainedOracle>), String> {
    let (mut oracle_us, mut dataset_us) = (Vec::new(), Vec::new());
    let (mut datasets, mut oracles) = (Vec::new(), Vec::new());
    for (scenario, vector, name) in ARMS {
        let key = cache_key(scenario, vector, sweep);
        for repeat in 0..REPEATS {
            let (oracle, t) = spans.time("oracle_cache.lookup", 0, || cache.lookup(key));
            let (data, u) = spans.time("oracle_cache.lookup_dataset", 0, || {
                cache.lookup_dataset(key)
            });
            oracle_us.push(us(t));
            dataset_us.push(us(u));
            if repeat == 0 {
                let missing = || format!("warm store lacks the {name} artifacts");
                oracles.push(oracle.ok_or_else(missing)?);
                datasets.push(data.ok_or_else(missing)?);
            }
        }
    }
    out.num("oracle_cache.oracle_lookup_us", median(&oracle_us))
        .num("oracle_cache.dataset_lookup_us", median(&dataset_us));
    Ok((datasets, oracles))
}

/// `collect_dataset` and `train_oracle_on` over the six arms; both must
/// reproduce the stored artifacts bit for bit.
fn training(
    sweep: &SweepConfig,
    stored_data: &[Dataset],
    stored_oracles: &[TrainedOracle],
    spans: &Spans,
    out: &mut Obj,
) -> Result<(), String> {
    let (mut collect_s, mut fit_s, mut examples, mut steps) = (0.0, 0.0, 0usize, 0.0);
    for (i, (scenario, vector, name)) in ARMS.into_iter().enumerate() {
        let (data, t) = spans.time("train_sh.collect_dataset", 0, || {
            collect_dataset(scenario, vector, sweep)
        });
        collect_s += t.as_secs_f64();
        examples += data.len();
        if dataset_digest(&data) != dataset_digest(&stored_data[i]) {
            return Err(format!(
                "{name}: collected dataset differs from the stored one"
            ));
        }
        let (trained, t) = spans.time("neural.train", 0, || train_oracle_on(&data));
        fit_s += t.as_secs_f64();
        let trained = trained.ok_or_else(|| format!("{name}: too little data to train"))?;
        if oracle_digest(&trained) != oracle_digest(&stored_oracles[i]) {
            return Err(format!(
                "{name}: trained oracle differs from the stored one"
            ));
        }
        let n_train = (data.len() as f64 * 0.6).round();
        steps += EPOCHS * (n_train / BATCH).ceil();
    }
    out.num("train_sh.collect_s", collect_s)
        .num("train_sh.examples", examples as f64)
        .num("neural.train.fit_s", fit_s)
        .num("neural.train.step_us", fit_s * 1e6 / steps);
    Ok(())
}

/// `NnOracle::predict_delta_batch` per query at each width, on rows of the
/// collected datasets.
fn inference(
    data: &[Dataset],
    oracle: &TrainedOracle,
    spans: &Spans,
    out: &mut Obj,
) -> Result<(), String> {
    let queries: Vec<(AttackFeatures, u32)> = data
        .iter()
        .flat_map(|d| d.inputs.iter())
        .map(|x| {
            let features = AttackFeatures {
                delta: x[0],
                v_rel_lon: x[1],
                v_rel_lat: x[2],
                a_rel_lon: x[3],
            };
            (features, x[4] as u32)
        })
        .collect();
    if queries.len() <= WIDTHS[WIDTHS.len() - 1] {
        return Err(format!("only {} query rows in the datasets", queries.len()));
    }
    let total = 8192usize;
    let mut buf = Vec::new();
    for w in WIDTHS {
        let mut per_query = Vec::new();
        for _ in 0..REPEATS {
            let ((), t) = spans.time(&format!("neural.infer.w{w}"), 0, || {
                let mut done = 0;
                while done < total {
                    let at = done % (queries.len() - w);
                    oracle
                        .oracle
                        .predict_delta_batch(std::hint::black_box(&queries[at..at + w]), &mut buf);
                    std::hint::black_box(&buf);
                    done += w;
                }
            });
            per_query.push(t.as_secs_f64() * 1e9 / total as f64);
        }
        out.num(&format!("neural.infer.query_ns_w{w}"), median(&per_query));
    }
    Ok(())
}

/// The 32-run DS-1 Disappear NN campaign under the default dispatch and
/// batched at each width, plus its stage sums. Every mode must yield the
/// same run digests.
fn campaigns(
    oracle: &TrainedOracle,
    seed: u64,
    spans: &Spans,
    out: &mut Obj,
) -> Result<(), String> {
    let campaign = Campaign::new(
        "DS-1-Disappear-R",
        ScenarioId::Ds1,
        AttackerSpec::RoboTack {
            vector: Some(AttackVector::Disappear),
            oracle: OracleSpec::Nn(oracle.oracle.clone()),
        },
        CAMPAIGN_RUNS,
        seed,
    );
    let digests = |r: &CampaignResult| -> Vec<String> {
        r.outcomes.iter().map(|o| o.record.digest()).collect()
    };
    let mut reference = None;
    let mut timed = |name: &str, threads: usize, mode: DispatchMode| -> Result<f64, String> {
        let mut rates = Vec::new();
        for _ in 0..REPEATS {
            let (result, t) =
                spans.time(name, 0, || run_campaign_dispatch(&campaign, threads, mode));
            let result = result.map_err(|e| e.to_string())?;
            let d = digests(&result);
            match &reference {
                None => reference = Some(d),
                Some(r) if *r != d => return Err(format!("{name}: run digests differ")),
                Some(_) => {}
            }
            rates.push(CAMPAIGN_RUNS as f64 / t.as_secs_f64());
        }
        Ok(median(&rates))
    };
    let rate = timed(
        "campaign.default",
        default_threads(),
        DispatchMode::default(),
    )?;
    out.num("campaign.runs_per_s", rate);
    for w in WIDTHS {
        let rate = timed(
            &format!("campaign.batched_w{w}"),
            1,
            DispatchMode::Batched { batch_size: w },
        )?;
        out.num(&format!("campaign.batched_w{w}.runs_per_s"), rate);
    }

    let metered = campaign.clone().with_metrics();
    let (result, _) = spans.time("campaign.metered", 0, || {
        run_campaign_dispatch(&metered, default_threads(), DispatchMode::default())
    });
    let snapshot = result
        .map_err(|e| e.to_string())?
        .metrics
        .ok_or("metered campaign returned no metrics")?;
    let total = |stage: Stage| snapshot.stage(stage).map_or(0, |s| s.total_ns) as f64;
    let mut attributed = 0.0;
    for stage in Stage::ALL.into_iter().filter(|&s| s != Stage::Run) {
        attributed += total(stage);
        out.num(
            &format!("campaign.stage.{}_us_per_run", stage.name()),
            total(stage) / 1e3 / CAMPAIGN_RUNS as f64,
        );
    }
    out.num(
        "campaign.unattributed_share",
        1.0 - attributed / total(Stage::Run),
    );
    Ok(())
}

/// One boundary search on one vector, at a seed no workload request uses,
/// so its candidate evaluations miss in the store.
fn search(cache: &OracleCache, seed: u64, spans: &Spans, out: &mut Obj) {
    let args = Args {
        seed: seed.wrapping_add(7919),
        runs: 8,
        ..Args::default()
    };
    let cfg = SearchConfig::for_args(AttackVector::Disappear, &args);
    let (report, t) = spans.time("search.run_search", 0, || {
        run_search(&cfg, &args.sweep(), cache)
    });
    let candidates = (report.baselines.len() + report.evaluated) as f64;
    out.num(
        "search.eval_ms_per_candidate",
        t.as_secs_f64() * 1e3 / candidates,
    );
}

/// `ScenarioSpec::sample` and `mutate` over the DS-1..5 specs.
fn scenarios(seed: u64, spans: &Spans, out: &mut Obj) {
    let specs = ds::all();
    let cfg = MutateConfig::default();
    let mut rng = av_simkit::rng::run_rng(seed, 0x5CE);
    let (mut sample_us, mut mutate_us) = (Vec::new(), Vec::new());
    for i in 0..40u64 {
        for spec in &specs {
            let (_, t) = spans.time("scenarios.sample", 0, || spec.sample(seed.wrapping_add(i)));
            sample_us.push(us(t));
            let (_, t) = spans.time("scenarios.mutate", 0, || mutate(spec, &mut rng, &cfg));
            mutate_us.push(us(t));
        }
    }
    out.num("scenarios.sample_us", median(&sample_us))
        .num("scenarios.mutate_us", median(&mutate_us));
}

pub fn main(flags: &Flags, spans: &Spans) -> Result<String, String> {
    let warm = flags.path("store")?;
    let seed: u64 = flags.num("seed")?;
    let sweep = Args::default().sweep();
    let cache = OracleCache::over(Arc::new(ArtifactStore::at(&warm)));

    let mut out = Obj::default();
    let start = Instant::now();
    store_replay(&warm, &flags.path("scratch")?, spans, &mut out)?;
    let (datasets, oracles) = lookups(&cache, &sweep, spans, &mut out)?;
    training(&sweep, &datasets, &oracles, spans, &mut out)?;
    inference(&datasets, &oracles[0], spans, &mut out)?;
    campaigns(&oracles[0], seed, spans, &mut out)?;
    search(&cache, seed, spans, &mut out);
    scenarios(seed, spans, &mut out);
    out.num("elapsed_s", start.elapsed().as_secs_f64());
    Ok(out.render())
}
