//! `figure-sweep`: what researchers run, `repro --experiment all` at test
//! scale on the sequential backend, one thread.
//!
//! An op is one call to a registry experiment function. `campaign` is a
//! workload of its own; `bench`, `speedup`, `report` and `obs-demo` time
//! themselves or write files, so they are left out.

use std::time::Instant;

use tm_bench::{
    fifo_sweep, fig10, fig11, fig6_7, fig8, frequency_sweep, gating_ablation, interleaving_sweep,
    kernel_policy, locality_analysis, lut_exploration, matching_ablation, psnr_sweep,
    recovery_ablation, replacement_ablation, scorecard, sensitivity_sweep, spatial_ablation,
    ExperimentConfig, LocalityRow,
};
use tm_kernels::workload::InputImage;
use tm_kernels::{KernelId, Scale, ALL_KERNELS};
use tm_sim::prelude::*;

use crate::layers::{self, Launch, LaunchKernel};
use crate::trace::{median, ms_since, Spans};
use crate::{timed_phase, Args, Metric, Outcome};

/// An experiment's rows rendered for comparison, and whether any row
/// reported a failed host acceptance check.
struct Rows {
    /// Every field, bit for bit, except those in `order_dependent`.
    fingerprint: String,
    /// Fields the program sums in hash-map order, which differ in their
    /// last bits from call to call (see README.md, "Known defect").
    order_dependent: Vec<f64>,
    host_check_failed: bool,
}

impl Rows {
    fn matches(&self, first: &Self) -> bool {
        self.fingerprint == first.fingerprint
            && self.order_dependent.len() == first.order_dependent.len()
            && self
                .order_dependent
                .iter()
                .zip(&first.order_dependent)
                .all(|(a, b)| (a - b).abs() <= 1e-12 * b.abs().max(1.0))
    }
}

fn rows<T: std::fmt::Debug>(rows: &[T]) -> Rows {
    Rows {
        fingerprint: format!("{rows:?}"),
        order_dependent: Vec::new(),
        host_check_failed: false,
    }
}

/// `locality_analysis` rows with each operand entropy held apart: the
/// entropy is a sum over a `HashMap` in iteration order.
fn locality_rows(mut rows: Vec<LocalityRow>) -> Rows {
    let mut entropies = Vec::new();
    for summary in rows.iter_mut().flat_map(|r| r.per_op.iter_mut()) {
        entropies.push(std::mem::take(&mut summary.entropy_bits));
    }
    Rows {
        order_dependent: entropies,
        ..self::rows(&rows)
    }
}

/// One figure-sweep op: the experiment's `repro` name and its call.
type FigureOp = (&'static str, fn(&ExperimentConfig) -> Rows);

/// The pass, in `repro --experiment all` order.
const OPS: [FigureOp; 21] = [
    ("scorecard", |c| rows(&scorecard(c))),
    ("locality", |c| locality_rows(locality_analysis(c))),
    ("frequency", |c| rows(&frequency_sweep(c))),
    ("gating-ablation", |c| rows(&gating_ablation(c))),
    ("lut-exploration", |c| rows(&lut_exploration(c))),
    ("interleaving", |c| rows(&interleaving_sweep(c))),
    ("sensitivity", |c| rows(&sensitivity_sweep(c))),
    ("fig2", |c| {
        rows(&psnr_sweep(KernelId::Sobel, InputImage::Face, c))
    }),
    ("fig3", |c| {
        rows(&psnr_sweep(KernelId::Gaussian, InputImage::Face, c))
    }),
    ("fig4", |c| {
        rows(&psnr_sweep(KernelId::Sobel, InputImage::Book, c))
    }),
    ("fig5", |c| {
        rows(&psnr_sweep(KernelId::Gaussian, InputImage::Book, c))
    }),
    ("fig6", |c| {
        rows(&[
            fig6_7(KernelId::Sobel, InputImage::Face, c),
            fig6_7(KernelId::Sobel, InputImage::Book, c),
        ])
    }),
    ("fig7", |c| {
        rows(&[
            fig6_7(KernelId::Gaussian, InputImage::Face, c),
            fig6_7(KernelId::Gaussian, InputImage::Book, c),
        ])
    }),
    ("fig8", |c| {
        let r = fig8(c);
        Rows {
            host_check_failed: r.iter().any(|row| !row.passed),
            ..rows(&r)
        }
    }),
    ("fifo-sweep", |c| rows(&fifo_sweep(c))),
    ("fig10", |c| rows(&fig10(c))),
    ("fig11", |c| rows(&fig11(c))),
    ("matching-ablation", |c| {
        let r = matching_ablation(c);
        Rows {
            host_check_failed: r.iter().any(|row| !row.approx_passed),
            ..rows(&r)
        }
    }),
    ("recovery-ablation", |c| rows(&recovery_ablation(c))),
    ("replacement-ablation", |c| rows(&replacement_ablation(c))),
    ("spatial-ablation", |c| rows(&spatial_ablation(c))),
];

/// The error rate of the reference launches: the middle of the Fig. 10
/// axis the experiments sweep.
const REFERENCE_ERROR_RATE: f64 = 0.02;

/// Each of the seven kernels at its Table-1 design point, with the
/// experiments' scale and seed.
fn reference_launches(cfg: &ExperimentConfig) -> Vec<Launch> {
    ALL_KERNELS
        .iter()
        .map(|&id| Launch {
            kernel: LaunchKernel::Workload {
                id,
                scale: cfg.scale,
                seed: cfg.seed,
            },
            config: DeviceConfig::builder()
                .with_policy(kernel_policy(id))
                .with_error_mode(ErrorMode::FixedRate(REFERENCE_ERROR_RATE))
                .with_seed(cfg.seed)
                .with_backend(cfg.backend)
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
    let mut reference: Option<Vec<Rows>> = None;
    let mut cfg = ExperimentConfig::default();
    for _ in 0..args.setups() {
        let start = Instant::now();
        cfg = ExperimentConfig {
            scale: Scale::Test,
            seed: args.seeds().next_u64(),
            backend: ExecBackend::Sequential,
        };
        // One untimed warm-up op of each kind; its rows are what every
        // timed op must reproduce.
        let warm: Vec<Rows> = OPS.iter().map(|(_, op)| op(&cfg)).collect();
        out.setup_s.push(start.elapsed().as_secs_f64());
        if warm.iter().any(|r| r.host_check_failed) {
            out.consistent = false;
        }
        match &reference {
            None => reference = Some(warm),
            Some(first) => {
                if first.iter().zip(&warm).any(|(a, b)| !b.matches(a)) {
                    out.consistent = false;
                }
            }
        }
    }
    let reference = reference.expect("at least one set-up");

    let mut failed = 0_u64;
    let pass = |spans: &mut Spans, op_ms: &mut Vec<f64>| {
        for ((name, op), expected) in OPS.iter().zip(&reference) {
            let start = Instant::now();
            let (got, _) = spans.timed(name, None, || op(&cfg));
            op_ms.push(ms_since(start));
            if got.host_check_failed || !got.matches(expected) {
                eprintln!("perfbench: {name} failed");
                failed += 1;
            }
        }
    };
    timed_phase(args, spans, &mut out, pass);
    if args.trace {
        for (name, _) in &OPS {
            out.layers.push(Metric {
                name: format!("bench.figure.{name}.ms"),
                value: median(&spans.durations_ms(name)),
                unit: "ms",
            });
        }
    }
    out.failed = failed;

    let launches = reference_launches(&cfg);
    out.model = layers::model_counts(&launches);
    if args.trace {
        out.layers.extend(layers::probe(&launches, spans));
    }
    out
}
