//! `campaign`: Monte Carlo fault-injection trials per second.
//!
//! An op is one `run_campaign` call at test scale: 2 trials at each of the
//! 4 default error rates. Every attempt recompiles and re-runs the IR VM,
//! samples the per-core error models and checks PSNR, so compile, sampler
//! and retry costs show here and not in `figure-sweep`. Four kinds rotate;
//! the two that start at a loose threshold make the quality controller
//! retry, the two at the paper's threshold bypass the retry path. A pass
//! runs each kind on many campaign seeds, so how often a seed happens to
//! retry averages out over the pass.

use std::time::Instant;

use tm_bench::{run_campaign, CampaignSpec};
use tm_kernels::{KernelId, Scale, GRAY_LEVELS_PER_THRESHOLD_UNIT};
use tm_sim::prelude::*;
use tm_timing::{BurstErrors, HeterogeneousErrors};

use crate::layers::{self, Launch, LaunchKernel};
use crate::trace::{ms_since, Spans};
use crate::{timed_phase, Args, Metric, Outcome};

const TRIALS: u32 = 2;
/// Campaign seeds per pass of the two kinds that start at the paper
/// threshold and of the two that retry. How long a retrying op takes
/// depends on its seed, so the p90, which falls among the retrying ops,
/// needs many of them. Retrying ops take two to three times as long as
/// the others; with as many of each, the median op would sit on the edge
/// between the two groups and read the slowest non-retrying op, so the
/// non-retrying kinds run on twice as many seeds.
const SEEDS_PAPER: usize = 16;
const SEEDS_RETRYING: usize = 8;
/// The first round of a pass runs one op of each kind.
const KINDS: usize = 4;

/// The four kinds: (name, kernel, error model, starting threshold in gray
/// levels, campaign seeds per pass).
fn kinds() -> [(&'static str, KernelId, ErrorModelSpec, f32, usize); 4] {
    let hetero = ErrorModelSpec::Heterogeneous(HeterogeneousErrors::quartile_corners());
    let burst = ErrorModelSpec::Burst(BurstErrors::droop());
    [
        (
            "sobel-hetero-paper",
            KernelId::Sobel,
            hetero.clone(),
            GRAY_LEVELS_PER_THRESHOLD_UNIT,
            SEEDS_PAPER,
        ),
        (
            "gaussian-burst-paper",
            KernelId::Gaussian,
            burst.clone(),
            GRAY_LEVELS_PER_THRESHOLD_UNIT,
            SEEDS_PAPER,
        ),
        (
            "sobel-burst-16",
            KernelId::Sobel,
            burst,
            16.0,
            SEEDS_RETRYING,
        ),
        (
            "gaussian-hetero-32",
            KernelId::Gaussian,
            hetero,
            32.0,
            SEEDS_RETRYING,
        ),
    ]
}

/// The pass: the four kinds in rotation, each on its campaign seeds.
fn specs(args: &Args) -> Vec<(&'static str, CampaignSpec)> {
    let mut seeds = args.seeds();
    let mut pass = Vec::new();
    for round in 0..SEEDS_PAPER.max(SEEDS_RETRYING) {
        for (name, kernel, error_model, threshold, _) in kinds().into_iter().filter(|k| round < k.4)
        {
            let spec = CampaignSpec {
                kernel,
                scale: Scale::Test,
                trials: TRIALS,
                seed: seeds.next_u64(),
                error_model,
                threshold,
                ..CampaignSpec::default()
            };
            pass.push((name, spec));
        }
    }
    pass
}

/// A campaign's JSONL and whether every trial ended acceptable.
fn op(spec: &CampaignSpec) -> (String, bool) {
    let outcome = run_campaign(spec, None);
    (
        outcome.jsonl(),
        outcome.records.iter().all(|r| r.acceptable),
    )
}

/// One attempt of each kind, on its first seed, at the middle error rate.
fn reference_launches(specs: &[(&str, CampaignSpec)]) -> Vec<Launch> {
    specs[..KINDS]
        .iter()
        .map(|(_, spec)| Launch {
            kernel: LaunchKernel::Program {
                id: spec.kernel,
                scale: spec.scale,
                image_seed: spec.seed,
                in_flight: spec.in_flight,
            },
            config: DeviceConfig::builder()
                .with_compute_units(spec.compute_units)
                .with_policy(MatchPolicy::threshold(spec.threshold))
                .with_error_mode(ErrorMode::FixedRate(spec.error_rates[2]))
                .with_error_model(spec.error_model.clone())
                .with_seed(spec.seed)
                .with_backend(spec.backend)
                .build()
                .expect("reference device config is valid"),
        })
        .collect()
}

pub fn run(args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome {
        consistent: true,
        ..Outcome::default()
    };
    // Each op's JSONL from the first time it ran: the set-up for the first
    // op of each kind, the first timed pass for the rest.
    let mut reference: Vec<Option<String>> = Vec::new();
    let mut specs_now = Vec::new();
    for _ in 0..args.setups() {
        let start = Instant::now();
        specs_now = specs(args);
        let warm: Vec<(String, bool)> = specs_now[..KINDS]
            .iter()
            .map(|(_, spec)| op(spec))
            .collect();
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.consistent &= warm.iter().all(|(_, ok)| *ok);
        if reference.is_empty() {
            reference = vec![None; specs_now.len()];
            for (slot, (jsonl, _)) in reference.iter_mut().zip(warm) {
                *slot = Some(jsonl);
            }
        } else {
            out.consistent &= reference
                .iter()
                .zip(&warm)
                .all(|(first, (jsonl, _))| first.as_ref() == Some(jsonl));
        }
    }

    let mut failed = 0_u64;
    let (mut trials, mut attempts, mut traced_ms) = (0_u64, 0_u64, 0.0_f64);
    let pass = |spans: &mut Spans, op_ms: &mut Vec<f64>| {
        for ((name, spec), expected) in specs_now.iter().zip(reference.iter_mut()) {
            let start = Instant::now();
            let ((jsonl, acceptable), _) = spans.timed(name, None, || op(spec));
            let ms = ms_since(start);
            op_ms.push(ms);
            let first = expected.get_or_insert_with(|| jsonl.clone());
            if !acceptable || jsonl != *first {
                failed += 1;
            }
            if spans.enabled() {
                let trial_lines = jsonl
                    .lines()
                    .filter(|l| l.contains("\"kind\":\"trial\""))
                    .count() as u64;
                let adapt_lines = jsonl
                    .lines()
                    .filter(|l| l.contains("\"kind\":\"adapt\""))
                    .count() as u64;
                trials += trial_lines;
                attempts += trial_lines + adapt_lines;
                traced_ms += ms;
            }
        }
    };
    timed_phase(args, spans, &mut out, pass);
    if args.trace {
        out.layers.push(Metric {
            name: "bench.campaign.attempts_per_trial".to_string(),
            value: attempts as f64 / trials as f64,
            unit: "ratio",
        });
        out.layers.push(Metric {
            name: "bench.campaign.ms_per_attempt".to_string(),
            value: traced_ms / attempts as f64,
            unit: "ms",
        });
    }
    out.failed = failed;

    let launches = reference_launches(&specs_now);
    out.model = layers::model_counts(&launches);
    if args.trace {
        out.layers.extend(layers::probe(&launches, spans));
    }
    out
}
