//! Per-layer probes: the traced run times each layer of the simulator by
//! calling its public entry points directly, on the same kernels, seeds
//! and device configurations the workload uses.
//!
//! Whole launches are timed around `workload::build`, `Device::new`,
//! `DeviceWorkload::run` / `Device::run_compiled`, `Device::report` and the
//! host checks. The inner layers a launch runs (memo LUT, FPU, error
//! sampler, ECU, energy ledger) are timed by replaying the launch's
//! recorded operand stream through each layer's own entry point. What the
//! replays do not account for is the self time of VM dispatch, issue and
//! sinks.

use tm_core::MemoModule;
use tm_energy::EnergyLedger;
use tm_fpu::{compute, ALL_OPS};
use tm_image::{gaussian3x3_reference, psnr, sobel_reference, GrayImage};
use tm_kernels::ir::{gaussian_program, sobel_program, ImageProgram};
use tm_kernels::workload::{self, image_side, DeviceWorkload, InputImage};
use tm_kernels::{KernelId, Scale};
use tm_obs::{JsonValue, TelemetryHub};
use tm_sim::prelude::*;
use tm_sim::{CompileOptions, CompiledProgram, DeviceSnapshot, TraceEvent};
use tm_timing::{BurstErrors, Ecu, ErrorModelSpec, HeterogeneousErrors};

use crate::trace::{median, Spans};
use crate::{Metric, ModelCounts};

/// Rounds of every probe; each metric is the median over rounds.
const ROUNDS: usize = 5;

/// What a reference launch runs.
#[derive(Debug, Clone)]
pub enum LaunchKernel {
    /// A Table-1 workload as `workload::build` makes it.
    Workload {
        id: KernelId,
        scale: Scale,
        seed: u64,
    },
    /// A campaign's IR image program over the synthetic face input.
    Program {
        id: KernelId,
        scale: Scale,
        image_seed: u64,
        in_flight: usize,
    },
}

/// One launch of a workload's kernel on a device configured as the
/// workload configures it.
#[derive(Debug, Clone)]
pub struct Launch {
    pub kernel: LaunchKernel,
    pub config: DeviceConfig,
}

enum Built {
    Workload(Box<dyn DeviceWorkload>),
    Program {
        ip: Box<ImageProgram>,
        image: GrayImage,
        golden: GrayImage,
        in_flight: usize,
    },
}

impl Built {
    /// The launch's own program, if it runs one.
    fn program(&self) -> Option<&ImageProgram> {
        match self {
            Built::Workload(_) => None,
            Built::Program { ip, .. } => Some(ip.as_ref()),
        }
    }
}

fn compile(ip: &ImageProgram) -> CompiledProgram {
    CompiledProgram::compile(&ip.program, &CompileOptions::default())
}

fn image_program(id: KernelId, image: &GrayImage) -> ImageProgram {
    match id {
        KernelId::Sobel => sobel_program(image),
        KernelId::Gaussian => gaussian_program(image),
        other => panic!("{other} has no IR image program"),
    }
}

impl Launch {
    /// The IR twin of an image workload over the same input, which the
    /// compile probe lowers; `None` for every other launch.
    fn ir_twin(&self) -> Option<ImageProgram> {
        match self.kernel {
            LaunchKernel::Workload {
                id: id @ (KernelId::Sobel | KernelId::Gaussian),
                scale,
                seed,
            } => Some(image_program(
                id,
                &InputImage::Face.generate(image_side(scale), seed),
            )),
            _ => None,
        }
    }

    fn build(&self) -> Built {
        match self.kernel {
            LaunchKernel::Workload { id, scale, seed } => {
                Built::Workload(workload::build(id, scale, seed))
            }
            LaunchKernel::Program {
                id,
                scale,
                image_seed,
                in_flight,
            } => {
                let image = InputImage::Face.generate(image_side(scale), image_seed);
                let ip = Box::new(image_program(id, &image));
                let golden = match id {
                    KernelId::Sobel => sobel_reference(&image),
                    _ => gaussian3x3_reference(&image),
                };
                Built::Program {
                    ip,
                    image,
                    golden,
                    in_flight,
                }
            }
        }
    }
}

/// Runs the launch; a program launch runs `compiled`, its lowered form.
fn execute(built: &mut Built, compiled: Option<&CompiledProgram>, device: &mut Device) -> Vec<f32> {
    match built {
        Built::Workload(wl) => wl.run(device),
        Built::Program { ip, in_flight, .. } => {
            let compiled = compiled.expect("a program launch is compiled before it runs");
            device.run_compiled(compiled, &mut ip.bindings, ip.global_size, *in_flight);
            ip.bindings.buffer(ip.output).to_vec()
        }
    }
}

/// The host check a launch's output goes through: the workload's own
/// acceptance check, or PSNR against the exact reference.
fn check(built: &Built, output: &[f32]) -> bool {
    match built {
        Built::Workload(wl) => wl.acceptable(output),
        Built::Program { image, golden, .. } => {
            let out = GrayImage::from_vec(image.width(), image.height(), output.to_vec());
            psnr(golden, &out) >= tm_bench::PSNR_FLOOR_DB
        }
    }
}

fn run_once(launch: &Launch, config: DeviceConfig) -> Device {
    let mut built = launch.build();
    let compiled = built.program().map(compile);
    let mut device = Device::new(config);
    execute(&mut built, compiled.as_ref(), &mut device);
    device
}

/// The simulated statistics of `launches`, each on a fresh device.
pub fn model_counts(launches: &[Launch]) -> ModelCounts {
    let mut counts = ModelCounts::default();
    for launch in launches {
        counts.add(&run_once(launch, launch.config.clone()).report());
    }
    counts
}

/// The launch's operand stream, recorded by the device's own trace.
fn operand_stream(launch: &Launch, lane_instr: u64) -> Vec<TraceEvent> {
    let depth = usize::try_from(lane_instr).expect("lane count fits usize") + 1;
    let config = launch
        .config
        .clone()
        .rebuild()
        .with_trace_depth(depth)
        .build()
        .expect("trace depth is valid");
    run_once(launch, config).trace_events().cloned().collect()
}

/// Device launches (dispatches) one run makes, counted by the device's
/// own telemetry.
fn dispatches(launch: &Launch) -> u64 {
    let hub = TelemetryHub::new();
    let mut built = launch.build();
    let compiled = built.program().map(compile);
    let mut device = Device::new(launch.config.clone());
    device.attach_hub_scoped(&hub, "probe.");
    execute(&mut built, compiled.as_ref(), &mut device);
    hub.counter("probe.launches")
}

#[derive(Clone, Copy)]
enum Charge {
    Exec,
    Hit,
    LutLookup,
    LutUpdate,
    Recovery,
}

/// The ledger charges the device's energy sink makes for `events`.
fn charges(config: &DeviceConfig, events: &[TraceEvent]) -> Vec<(Charge, f64)> {
    let model = config.energy_model;
    let scale = config.dynamic_scale();
    let mut out = Vec::with_capacity(events.len() * 3);
    for ev in events {
        if ev.hit {
            out.push((Charge::Hit, model.hit_energy(ev.op, scale)));
            continue;
        }
        out.push((Charge::Exec, model.exec_energy(ev.op, scale)));
        out.push((Charge::LutLookup, model.lut_lookup_energy()));
        if ev.error {
            out.push((
                Charge::Recovery,
                model.recovery_energy(ev.op, config.recovery, scale),
            ));
        } else {
            out.push((Charge::LutUpdate, model.lut_update_energy()));
        }
    }
    out
}

/// The three error models whose draw cost is reported.
fn sampler_models() -> [(&'static str, ErrorModelSpec); 3] {
    [
        ("uniform", ErrorModelSpec::Uniform),
        (
            "heterogeneous",
            ErrorModelSpec::Heterogeneous(HeterogeneousErrors::quartile_corners()),
        ),
        ("burst", ErrorModelSpec::Burst(BurstErrors::droop())),
    ]
}

/// Everything one probe round measured, summed over the launches.
#[derive(Default)]
struct Round {
    build_ns: u64,
    compile_ns: u64,
    device_new_ns: u64,
    exec_ns: u64,
    report_ns: u64,
    check_ns: u64,
    memo_ns: u64,
    memo_hits: u64,
    fpu_ns: u64,
    sample_ns: [u64; 3],
    /// Draw time of each launch's own error model.
    own_sample_ns: u64,
    ledger_ns: u64,
    capture_ns: u64,
    parse_ns: u64,
    restore_ns: u64,
    json_ns: u64,
}

/// Static facts of the reference launches (the same in every round).
#[derive(Default)]
struct Counts {
    packets: u64,
    lane_instr: u64,
    dispatches: u64,
    accesses: u64,
    fpu_calls: u64,
    errors: u64,
    recoveries: u64,
    charges: u64,
    json_bytes: u64,
}

/// Runs every per-layer probe over `launches` and returns the metrics.
pub fn probe(launches: &[Launch], spans: &mut Spans) -> Vec<Metric> {
    let mut counts = Counts::default();
    let mut streams = Vec::with_capacity(launches.len());
    for launch in launches {
        let lane_instr = run_once(launch, launch.config.clone())
            .report()
            .total_instructions();
        counts.lane_instr += lane_instr;
        counts.dispatches += dispatches(launch);
        let events = operand_stream(launch, lane_instr);
        let own = sampler_models()
            .iter()
            .position(|(_, spec)| *spec == launch.config.error_model);
        let ledger = charges(&launch.config, &events);
        counts.accesses += events.len() as u64;
        counts.fpu_calls += events.iter().filter(|e| !e.hit).count() as u64;
        counts.charges += ledger.len() as u64;
        streams.push((events, own, ledger));
    }

    let mut rounds = Vec::with_capacity(ROUNDS);
    for round_index in 0..ROUNDS {
        let round_span = spans.open("probe.round", None);
        let mut r = Round::default();
        for (launch, (events, own, ledger)) in launches.iter().zip(&streams) {
            let parent = spans.open("probe.launch", round_span);
            let (mut built, ns) = spans.timed("kernels.build", parent, || launch.build());
            r.build_ns += ns;
            let twin = launch.ir_twin();
            let compiled = built.program().or(twin.as_ref()).map(|ip| {
                let (compiled, ns) = spans.timed("sim.compile", parent, || compile(ip));
                r.compile_ns += ns;
                if round_index == 0 {
                    counts.packets += compiled.packet_count() as u64;
                }
                compiled
            });
            let (mut device, ns) = spans.timed("sim.device.new", parent, || {
                Device::new(launch.config.clone())
            });
            r.device_new_ns += ns;
            let (output, ns) = spans.timed("sim.exec", parent, || {
                execute(&mut built, compiled.as_ref(), &mut device)
            });
            r.exec_ns += ns;
            let (_, ns) = spans.timed("sim.report", parent, || device.report());
            r.report_ns += ns;
            let (_, ns) = spans.timed("image.check", parent, || check(&built, &output));
            r.check_ns += ns;

            let (hits, ns) = spans.timed("core.memo.access", parent, || {
                replay_memo(&launch.config, events)
            });
            r.memo_ns += ns;
            r.memo_hits += hits;
            let (_, ns) = spans.timed("fpu.eval", parent, || replay_fpu(events));
            r.fpu_ns += ns;
            for (i, (name, spec)) in sampler_models().iter().enumerate() {
                let ((errors, recoveries), ns) =
                    spans.timed(&format!("timing.sample.{name}"), parent, || {
                        replay_sampler(&launch.config, spec, events)
                    });
                r.sample_ns[i] += ns;
                if *own == Some(i) {
                    r.own_sample_ns += ns;
                    if round_index == 0 {
                        counts.errors += errors;
                        counts.recoveries += recoveries;
                    }
                }
            }
            let (_, ns) = spans.timed("energy.ledger.charge", parent, || replay_ledger(ledger));
            r.ledger_ns += ns;

            let (snapshot, ns) = spans.timed("sim.snapshot.capture", parent, || {
                device.snapshot().expect("a finished device snapshots")
            });
            r.capture_ns += ns;
            let doc = snapshot.to_json();
            if round_index == 0 {
                counts.json_bytes += doc.len() as u64;
            }
            let (parsed, ns) = spans.timed("sim.snapshot.parse", parent, || {
                DeviceSnapshot::from_json(&doc).expect("a snapshot parses back")
            });
            r.parse_ns += ns;
            let (_, ns) = spans.timed("sim.snapshot.restore", parent, || {
                Device::restore(&parsed).expect("a parsed snapshot restores")
            });
            r.restore_ns += ns;
            let (_, ns) = spans.timed("obs.json.parse", parent, || {
                JsonValue::parse(&doc).expect("snapshot is JSON")
            });
            r.json_ns += ns;
            spans.close(parent);
        }
        spans.close(round_span);
        rounds.push(r);
    }
    metrics(&counts, &rounds)
}

fn replay_memo(config: &DeviceConfig, events: &[TraceEvent]) -> u64 {
    let per_op = config.stream_cores_per_cu;
    let mut modules: Vec<MemoModule> = ALL_OPS
        .iter()
        .flat_map(|&op| {
            (0..per_op).map(move |_| MemoModule::with_depth(op, config.policy, config.fifo_depth))
        })
        .collect();
    for ev in events {
        let m = &mut modules[ev.op.index() * per_op + ev.stream_core];
        std::hint::black_box(m.access(ev.operands, || ev.result, ev.error));
    }
    modules.iter().map(|m| m.stats().hits).sum()
}

fn replay_fpu(events: &[TraceEvent]) -> f32 {
    events
        .iter()
        .filter(|e| !e.hit)
        .map(|e| std::hint::black_box(compute(e.op, e.operands)))
        .sum()
}

/// Draws one error verdict per event through `spec`'s sampler and sends
/// each error through an ECU; returns (errors, recoveries).
fn replay_sampler(
    config: &DeviceConfig,
    spec: &ErrorModelSpec,
    events: &[TraceEvent],
) -> (u64, u64) {
    let rate = config.effective_error_rate();
    let mut sampler = spec
        .instantiate(config.vdd, &config.voltage_model)
        .build_sampler(0, 0, config.seed);
    let mut ecu = Ecu::new(config.recovery);
    let mut errors = 0;
    for ev in events {
        if sampler.sample_with_rate(rate) {
            errors += 1;
            ecu.recover(ev.op.latency());
        }
    }
    (errors, ecu.recoveries())
}

fn replay_ledger(charges: &[(Charge, f64)]) -> f64 {
    let mut ledger = EnergyLedger::new();
    for &(charge, pj) in charges {
        match charge {
            Charge::Exec => ledger.charge_exec(pj),
            Charge::Hit => ledger.charge_hit(pj),
            Charge::LutLookup => ledger.charge_lut_lookup(pj),
            Charge::LutUpdate => ledger.charge_lut_update(pj),
            Charge::Recovery => ledger.charge_recovery(pj),
        }
    }
    ledger.total_pj()
}

fn metrics(c: &Counts, rounds: &[Round]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let lane = c.lane_instr;
    let kib = c.json_bytes as f64 / 1024.0;
    let metrics = [
        ("kernels.build.ms", per(&|r| r.build_ns as f64 / 1e6), "ms"),
        ("sim.compile.us", per(&|r| r.compile_ns as f64 / 1e3), "us"),
        ("sim.compile.packets", c.packets as f64, "count"),
        (
            "sim.device.new.us",
            per(&|r| r.device_new_ns as f64 / 1e3),
            "us",
        ),
        ("sim.report.us", per(&|r| r.report_ns as f64 / 1e3), "us"),
        ("sim.exec.lane_instr", lane as f64, "count"),
        (
            "sim.exec.ns_per_lane_instr",
            per(&|r| ratio(r.exec_ns, lane)),
            "ns",
        ),
        (
            "sim.exec.self_ns_per_lane_instr",
            per(&|r| {
                ratio(r.exec_ns, lane)
                    - ratio(r.memo_ns + r.fpu_ns + r.own_sample_ns + r.ledger_ns, lane)
            }),
            "ns",
        ),
        ("sim.exec.dispatches", c.dispatches as f64, "count"),
        ("core.memo.lookups", c.accesses as f64, "count"),
        (
            "core.memo.hit_ratio",
            ratio(rounds[0].memo_hits, c.accesses),
            "ratio",
        ),
        (
            "core.memo.ns_per_access",
            per(&|r| ratio(r.memo_ns, c.accesses)),
            "ns",
        ),
        ("fpu.eval.calls", c.fpu_calls as f64, "count"),
        (
            "fpu.eval.ns_per_call",
            per(&|r| ratio(r.fpu_ns, c.fpu_calls)),
            "ns",
        ),
        (
            "timing.sample.ns_per_draw.uniform",
            per(&|r| ratio(r.sample_ns[0], c.accesses)),
            "ns",
        ),
        (
            "timing.sample.ns_per_draw.heterogeneous",
            per(&|r| ratio(r.sample_ns[1], c.accesses)),
            "ns",
        ),
        (
            "timing.sample.ns_per_draw.burst",
            per(&|r| ratio(r.sample_ns[2], c.accesses)),
            "ns",
        ),
        (
            "timing.sample.error_ratio",
            ratio(c.errors, c.accesses),
            "ratio",
        ),
        ("timing.ecu.recoveries", c.recoveries as f64, "count"),
        ("energy.ledger.charges", c.charges as f64, "count"),
        (
            "energy.ledger.ns_per_charge",
            per(&|r| ratio(r.ledger_ns, c.charges)),
            "ns",
        ),
        ("image.check.us", per(&|r| r.check_ns as f64 / 1e3), "us"),
        (
            "sim.snapshot.capture_ms",
            per(&|r| r.capture_ns as f64 / 1e6),
            "ms",
        ),
        ("sim.snapshot.json_kb", kib, "KiB"),
        (
            "sim.snapshot.parse_ms",
            per(&|r| r.parse_ns as f64 / 1e6),
            "ms",
        ),
        (
            "sim.snapshot.restore_ms",
            per(&|r| r.restore_ns as f64 / 1e6),
            "ms",
        ),
        (
            "obs.json.parse_us_per_kb",
            per(&|r| r.json_ns as f64 / 1e3) / kib,
            "us/KiB",
        ),
    ];
    metrics
        .into_iter()
        .map(|(name, value, unit)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}
