//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <figure-sweep|campaign|served-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload is a closed loop over a fixed list of ops that runs in
//! whole passes, in a fixed order, so every percentile lands on the same
//! mix of ops in every run. Every input the program receives is derived
//! from `--seed`. With `--trace 0` the last stdout line reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics
//! of a separate traced run. See README.md in this directory.

mod campaign;
mod figure;
mod layers;
mod served;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use tm_rng::SplitMix64;

use crate::trace::{percentile, Spans};

/// How many times an untraced run sets its workload up; `setup_s` is the
/// median, so one slow set-up does not move it.
const SETUPS: usize = 5;

/// Fewest timed ops a run makes, so that at least ten of its samples lie
/// beyond their p90 and every op of a pass list runs several times.
pub const MIN_OPS: usize = 100;

/// Every per-layer metric a traced run prints, with its unit. A metric
/// whose layer a workload does not use reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.build.ms", "ms"),
    ("sim.compile.us", "us"),
    ("sim.compile.packets", "count"),
    ("sim.device.new.us", "us"),
    ("sim.report.us", "us"),
    ("sim.exec.lane_instr", "count"),
    ("sim.exec.ns_per_lane_instr", "ns"),
    ("sim.exec.self_ns_per_lane_instr", "ns"),
    ("sim.exec.dispatches", "count"),
    ("core.memo.lookups", "count"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.memo.ns_per_access", "ns"),
    ("fpu.eval.calls", "count"),
    ("fpu.eval.ns_per_call", "ns"),
    ("timing.sample.ns_per_draw.uniform", "ns"),
    ("timing.sample.ns_per_draw.heterogeneous", "ns"),
    ("timing.sample.ns_per_draw.burst", "ns"),
    ("timing.sample.error_ratio", "ratio"),
    ("timing.ecu.recoveries", "count"),
    ("energy.ledger.charges", "count"),
    ("energy.ledger.ns_per_charge", "ns"),
    ("image.check.us", "us"),
    ("sim.snapshot.capture_ms", "ms"),
    ("sim.snapshot.json_kb", "KiB"),
    ("sim.snapshot.parse_ms", "ms"),
    ("sim.snapshot.restore_ms", "ms"),
    ("obs.json.parse_us_per_kb", "us/KiB"),
    ("bench.figure.fig2.ms", "ms"),
    ("bench.figure.fig3.ms", "ms"),
    ("bench.figure.fig4.ms", "ms"),
    ("bench.figure.fig5.ms", "ms"),
    ("bench.figure.fig6.ms", "ms"),
    ("bench.figure.fig7.ms", "ms"),
    ("bench.figure.fig8.ms", "ms"),
    ("bench.figure.fifo-sweep.ms", "ms"),
    ("bench.figure.fig10.ms", "ms"),
    ("bench.figure.fig11.ms", "ms"),
    ("bench.figure.matching-ablation.ms", "ms"),
    ("bench.figure.recovery-ablation.ms", "ms"),
    ("bench.figure.replacement-ablation.ms", "ms"),
    ("bench.figure.spatial-ablation.ms", "ms"),
    ("bench.figure.gating-ablation.ms", "ms"),
    ("bench.figure.sensitivity.ms", "ms"),
    ("bench.figure.scorecard.ms", "ms"),
    ("bench.figure.locality.ms", "ms"),
    ("bench.figure.frequency.ms", "ms"),
    ("bench.figure.lut-exploration.ms", "ms"),
    ("bench.figure.interleaving.ms", "ms"),
    ("bench.campaign.attempts_per_trial", "ratio"),
    ("bench.campaign.ms_per_attempt", "ms"),
    ("serve.ping_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.pool_warm_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FigureSweep,
    Campaign,
    ServedMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "figure-sweep" => Some(Self::FigureSweep),
            "campaign" => Some(Self::Campaign),
            "served-mix" => Some(Self::ServedMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::FigureSweep => "figure-sweep",
            Self::Campaign => "campaign",
            Self::ServedMix => "served-mix",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The workload's seed stream: every config, spec and launch seed the
    /// program receives is drawn from it.
    pub fn seeds(&self) -> SplitMix64 {
        SplitMix64::new(self.seed)
    }

    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (figure-sweep, campaign, served-mix)")
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Simulated statistics summed over a workload's reference launches.
/// They are exact functions of the seed: a change that only makes the
/// simulator faster leaves every one unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelCounts {
    pub lane_instr: u64,
    pub cycles_max: u64,
    pub hits: u64,
    pub lookups: u64,
    pub errors_injected: u64,
    pub recoveries: u64,
    pub energy_pj: f64,
}

impl ModelCounts {
    pub fn add(&mut self, report: &tm_sim::DeviceReport) {
        let stats = report.total_stats();
        self.lane_instr += report.total_instructions();
        self.cycles_max += report.cycles_max;
        self.hits += stats.hits;
        self.lookups += stats.lookups;
        self.errors_injected += report.errors_injected;
        self.recoveries += report.recoveries;
        self.energy_pj += report.total_energy_pj();
    }

    fn json(&self) -> String {
        let hit_rate = if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        };
        format!(
            "{{\"model.lane_instr\":{},\"model.cycles_max\":{},\"model.hit_rate\":{hit_rate:?},\"model.errors_injected\":{},\"model.recoveries\":{},\"model.energy_pj\":{:?}}}",
            self.lane_instr, self.cycles_max, self.errors_injected, self.recoveries, self.energy_pj
        )
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every timed op, milliseconds.
    pub op_ms: Vec<f64>,
    /// The timed passes of each load thread, in order.
    pub lanes: Vec<Passes>,
    pub failed: u64,
    /// False when a set-up pass failed its checks or disagreed with an
    /// earlier set-up.
    pub consistent: bool,
    pub model: ModelCounts,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

/// One load thread's passes: `passes[p][i]` is the latency in ms of op
/// `i` of the op list in pass `p`.
pub type Passes = Vec<Vec<f64>>;

/// Throughput and latency of load threads running side by side, taken
/// from each thread's best pass: every op at the fastest time it ran in
/// any pass of the run. The host is shared, and another tenant's load
/// only ever adds time to an op, so the fastest of many runs of the same
/// op is the steadiest estimate of what the program itself costs.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Ops per second, summed over the load threads.
    pub rate: f64,
    /// Nearest-rank median of the best-pass op latencies, ms.
    pub p50_ms: f64,
    /// Nearest-rank p90 of the best-pass op latencies, ms.
    pub p90_ms: f64,
}

impl Summary {
    pub fn of(lanes: &[Passes]) -> Self {
        let best: Vec<Vec<f64>> = lanes.iter().map(|passes| best_pass(passes)).collect();
        let rate = best
            .iter()
            .map(|ops| ops.len() as f64 / (ops.iter().sum::<f64>() / 1e3))
            .sum();
        let all: Vec<f64> = best.concat();
        Self {
            rate,
            p50_ms: percentile(&all, 0.5).0,
            p90_ms: percentile(&all, 0.9).0,
        }
    }
}

/// Each op of the op list at the fastest time it ran in any of `passes`.
fn best_pass(passes: &[Vec<f64>]) -> Vec<f64> {
    let first = passes.first().expect("at least one pass");
    assert!(
        passes.iter().all(|p| p.len() == first.len()),
        "every pass runs the same op list"
    );
    (0..first.len())
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Runs `pass` in whole passes until `seconds` have gone by and at least
/// `min_ops` ops were timed.
fn run_passes(
    seconds: f64,
    min_ops: usize,
    op_ms: &mut Vec<f64>,
    mut pass: impl FnMut(&mut Vec<f64>),
) -> Passes {
    let start = Instant::now();
    let first = op_ms.len();
    let mut passes = Vec::new();
    while start.elapsed().as_secs_f64() < seconds || op_ms.len() - first < min_ops {
        let before = op_ms.len();
        pass(op_ms);
        passes.push(op_ms[before..].to_vec());
    }
    passes
}

/// The timed phase of a one-client workload: whole passes of `pass` for
/// `--seconds`. A traced run spends the first half untraced and the
/// second half traced, and reports the difference.
pub fn timed_phase(
    args: &Args,
    spans: &mut Spans,
    out: &mut Outcome,
    mut pass: impl FnMut(&mut Spans, &mut Vec<f64>),
) {
    if args.trace {
        let half = args.seconds / 2.0;
        let untraced = run_passes(half, 0, &mut out.op_ms, |ops| pass(spans, ops));
        spans.set_enabled(true);
        let traced = run_passes(half, 0, &mut out.op_ms, |ops| pass(spans, ops));
        out.layers.push(overhead_pct(&[untraced], &[traced]));
    } else {
        let passes = run_passes(args.seconds, MIN_OPS, &mut out.op_ms, |ops| {
            pass(spans, ops)
        });
        out.lanes.push(passes);
    }
}

/// The tracing overhead of a traced run: how much slower the traced half
/// of its timed phase ran than the untraced half, in percent of the
/// best-pass throughput.
pub fn overhead_pct(untraced: &[Passes], traced: &[Passes]) -> Metric {
    Metric {
        name: "trace.overhead_pct".to_string(),
        value: (Summary::of(untraced).rate / Summary::of(traced).rate - 1.0) * 100.0,
        unit: "%",
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The end-to-end metrics. A pass is a fixed mix of ops, so the best
/// pass holds every op of the mix once and each latency percentile always
/// reads the same op of the mix.
fn end_to_end(out: &Outcome) -> Result<Vec<Metric>, String> {
    let (_, beyond) = percentile(&out.op_ms, 0.9);
    if beyond < 10 {
        return Err(format!("only {beyond} samples beyond p90; need 10"));
    }
    let metric = |name: &str, value: f64, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let best = Summary::of(&out.lanes);
    Ok(vec![
        metric("setup_s", trace::median(&out.setup_s), "s"),
        metric("ops_per_s", best.rate, "1/s"),
        metric("op_p50_ms", best.p50_ms, "ms"),
        metric("op_p90_ms", best.p90_ms, "ms"),
        metric("peak_rss_mb", peak_rss_mib()?, "MiB"),
    ])
}

fn result_line(correct: bool, attempted: usize, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}

fn run(args: &Args) -> Result<(), String> {
    let mut spans = Spans::new(false);
    let out = match args.workload {
        Workload::FigureSweep => figure::run(args, &mut spans),
        Workload::Campaign => campaign::run(args, &mut spans),
        Workload::ServedMix => served::run(args, &mut spans)?,
    };
    println!(
        "model counts ({}, seed {}; the simulator is calibrated to the paper's reported figures, not validated against hardware, so no error figure is given): {}",
        args.workload.name(),
        args.seed,
        out.model.json()
    );
    let metrics = if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "{}-seed{}.trace.json",
                args.workload.name(),
                args.seed
            ));
        spans
            .write_chrome_trace(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = out
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric {
                    name: name.to_string(),
                    value,
                    unit,
                }
            })
            .collect()
    } else {
        end_to_end(&out)?
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    if let Some(extra) = out
        .layers
        .iter()
        .find(|m| !PER_LAYER.iter().any(|&(n, _)| n == m.name))
    {
        return Err(format!(
            "per-layer metric {} is not in the published list",
            extra.name
        ));
    }
    let correct = out.failed == 0 && out.consistent;
    println!(
        "{}",
        result_line(correct, out.op_ms.len(), out.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <figure-sweep|campaign|served-mix> --seed N --seconds S --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
