//! The unified event/statistics pipeline of the execute stage.
//!
//! Historically every accounting concern — per-op tallies, the energy
//! ledger, the instruction trace, locality profiling — was hand-inlined
//! into [`crate::ComputeUnit::issue_vector`]. This module factors them
//! into composable [`EventSink`]s behind one [`SinkPipeline`]: the
//! execute stage *describes* what happened to each lane as a
//! [`LaneEvent`] (plus one [`VectorEvent`] per vector instruction), and
//! each installed sink folds the stream into its own statistic.
//!
//! Sinks are deliberately enum-dispatched ([`SinkKind`]) rather than
//! boxed trait objects so a [`crate::ComputeUnit`] stays `Clone` (the
//! crate forbids `unsafe` and devices are cloned by experiments).
//!
//! The accounting is bit-identical to the pre-refactor inline code: the
//! [`EnergySink`] applies the exact same per-category charge sequence
//! the Table-2 action used to apply directly, and per-op energy is
//! attributed as a ledger-total delta around each vector instruction.

use crate::config::{ArchMode, DeviceConfig};
use crate::locality::{entropy_in_key_order, LocalitySummary, OperandKey, StackDistanceProfile};
use crate::trace::{TraceBuffer, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use tm_energy::{EnergyLedger, EnergyModel};
use tm_obs::WindowedSeries;
use tm_fpu::{FpOp, Operands, ALL_OPS};
use tm_timing::RecoveryPolicy;

/// Per-opcode execution tallies of one compute unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTally {
    /// Lane-level (scalar) instructions issued.
    pub lane_instructions: u64,
    /// Wavefront-level (vector) instructions issued.
    pub vector_instructions: u64,
    /// Lane instructions satisfied by *spatial* (intra-slot) reuse when
    /// the device runs in [`ArchMode::Spatial`].
    pub spatial_hits: u64,
    /// Timing errors masked by spatial reuse.
    pub spatial_masked_errors: u64,
    /// Energy attributed to this opcode's instructions, pJ.
    pub energy_pj: f64,
}

/// How one lane's instruction was satisfied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneEventKind {
    /// The lane went through its stream core's FPU + memoization module
    /// (the Table-2 state machine); the fields are the module's verdict.
    Issue {
        /// The memoization LUT hit (FPU clock-gated).
        hit: bool,
        /// The lookup was skipped entirely (gated module).
        bypassed: bool,
        /// The miss committed a new LUT entry.
        updated: bool,
        /// A timing error forced an ECU recovery.
        recovered: bool,
    },
    /// The lane reused a concurrent lane's result via the spatial
    /// (intra-slot) comparators — only under [`ArchMode::Spatial`].
    SpatialReuse,
}

/// One lane-level instruction, as reported by the execute stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneEvent {
    /// The opcode.
    pub op: FpOp,
    /// The input operands.
    pub operands: Operands,
    /// The architecturally visible result.
    pub result: f32,
    /// Whether the EDS sensors flagged a timing violation.
    pub error: bool,
    /// Stream core index within the compute unit.
    pub stream_core: usize,
    /// Lane index within the wavefront.
    pub lane: usize,
    /// Issue cycle.
    pub cycle: u64,
    /// How the lane was satisfied.
    pub kind: LaneEventKind,
}

impl LaneEvent {
    /// Whether the lane's result came from reuse (LUT hit or spatial
    /// broadcast) rather than an FPU execution.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        match self.kind {
            LaneEventKind::Issue { hit, .. } => hit,
            LaneEventKind::SpatialReuse => true,
        }
    }
}

/// One vector (wavefront-wide) instruction, emitted after its lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorEvent {
    /// The opcode.
    pub op: FpOp,
    /// Number of active lanes.
    pub active_lanes: u64,
    /// Lanes satisfied by spatial reuse.
    pub spatial_hits: u64,
    /// Timing errors masked by spatial reuse.
    pub spatial_masked_errors: u64,
    /// Energy charged over the course of this instruction, pJ.
    pub energy_pj: f64,
    /// Issue cycle of the instruction's first lane (`0` when the
    /// instruction had no active lanes) — what time-windowed sinks
    /// resolve the instruction against.
    pub cycle: u64,
}

/// A consumer of execute-stage events.
pub trait EventSink {
    /// Folds one lane-level instruction into the sink.
    fn on_lane(&mut self, event: &LaneEvent);
    /// Folds one vector-level instruction into the sink.
    fn on_vector(&mut self, event: &VectorEvent) {
        let _ = event;
    }
    /// Clears accumulated statistics (the per-kernel measurement
    /// boundary — sinks must not retain cross-kernel state).
    fn reset(&mut self);
}

/// Per-opcode instruction tallies.
#[derive(Debug, Clone, Default)]
pub struct StatsSink {
    tallies: BTreeMap<FpOp, OpTally>,
}

impl StatsSink {
    /// An empty tally sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated per-opcode tallies.
    #[must_use]
    pub fn tallies(&self) -> &BTreeMap<FpOp, OpTally> {
        &self.tallies
    }

    /// Mutable tally access for the snapshot restore path.
    pub(crate) fn tallies_mut(&mut self) -> &mut BTreeMap<FpOp, OpTally> {
        &mut self.tallies
    }
}

impl EventSink for StatsSink {
    fn on_lane(&mut self, _event: &LaneEvent) {}

    fn on_vector(&mut self, event: &VectorEvent) {
        let tally = self.tallies.entry(event.op).or_default();
        tally.vector_instructions += 1;
        tally.lane_instructions += event.active_lanes;
        tally.spatial_hits += event.spatial_hits;
        tally.spatial_masked_errors += event.spatial_masked_errors;
        tally.energy_pj += event.energy_pj;
    }

    fn reset(&mut self) {
        self.tallies.clear();
    }
}

/// The energy accountant: charges the ledger per the Table-2 action.
#[derive(Debug, Clone)]
pub struct EnergySink {
    ledger: EnergyLedger,
    model: EnergyModel,
    policy: RecoveryPolicy,
    scale: f64,
    spatial: bool,
}

impl EnergySink {
    /// A sink charging energy per `config`'s model, recovery policy and
    /// supply voltage.
    #[must_use]
    pub fn new(config: &DeviceConfig) -> Self {
        Self {
            ledger: EnergyLedger::new(),
            model: config.energy_model,
            policy: config.recovery,
            scale: config.dynamic_scale(),
            spatial: config.arch == ArchMode::Spatial,
        }
    }

    /// The accumulated ledger.
    #[must_use]
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Mutable ledger access for the snapshot restore path.
    pub(crate) fn ledger_mut(&mut self) -> &mut EnergyLedger {
        &mut self.ledger
    }

    /// Batched fold of one vector instruction's lane events (all sharing
    /// `op`). Charges exactly what per-event [`EventSink::on_lane`] calls
    /// would, in the same order, but computes each per-op energy quantum
    /// once per instruction instead of once per lane.
    pub fn fold_lanes(&mut self, op: FpOp, events: &[LaneEvent]) {
        if events.is_empty() {
            return;
        }
        let scale = self.scale;
        let spatial_reuse_e = self.model.spatial_reuse_energy(op, scale);
        let hit_e = self.model.hit_energy(op, scale);
        let exec_e = self.model.exec_energy(op, scale);
        let lut_lookup_e = self.model.lut_lookup_energy();
        let lut_update_e = self.model.lut_update_energy();
        let recovery_e = self.model.recovery_energy(op, self.policy, scale);
        for event in events {
            debug_assert_eq!(event.op, op, "mixed-op lane batch");
            match event.kind {
                LaneEventKind::SpatialReuse => self.ledger.charge_hit(spatial_reuse_e),
                LaneEventKind::Issue {
                    hit,
                    bypassed,
                    updated,
                    recovered,
                } => {
                    if self.spatial {
                        self.ledger.charge_lut_lookup(lut_lookup_e);
                    }
                    if hit {
                        self.ledger.charge_hit(hit_e);
                    } else {
                        self.ledger.charge_exec(exec_e);
                        if !bypassed {
                            self.ledger.charge_lut_lookup(lut_lookup_e);
                        }
                        if updated {
                            self.ledger.charge_lut_update(lut_update_e);
                        }
                        if recovered {
                            self.ledger.charge_recovery(recovery_e);
                        }
                    }
                }
            }
        }
    }
}

impl EventSink for EnergySink {
    fn on_lane(&mut self, event: &LaneEvent) {
        let (op, scale) = (event.op, self.scale);
        match event.kind {
            LaneEventKind::SpatialReuse => {
                self.ledger
                    .charge_hit(self.model.spatial_reuse_energy(op, scale));
            }
            LaneEventKind::Issue {
                hit,
                bypassed,
                updated,
                recovered,
            } => {
                if self.spatial {
                    // The executed result is broadcast for the rest of
                    // the slot; the cross-lane comparators cost about a
                    // LUT search.
                    self.ledger.charge_lut_lookup(self.model.lut_lookup_energy());
                }
                if hit {
                    self.ledger.charge_hit(self.model.hit_energy(op, scale));
                } else {
                    self.ledger.charge_exec(self.model.exec_energy(op, scale));
                    if !bypassed {
                        self.ledger.charge_lut_lookup(self.model.lut_lookup_energy());
                    }
                    if updated {
                        self.ledger.charge_lut_update(self.model.lut_update_energy());
                    }
                    if recovered {
                        self.ledger
                            .charge_recovery(self.model.recovery_energy(op, self.policy, scale));
                    }
                }
            }
        }
    }

    fn reset(&mut self) {
        self.ledger.reset();
    }
}

/// The instruction-trace recorder.
#[derive(Debug, Clone)]
pub struct TraceSink {
    buffer: TraceBuffer,
}

impl TraceSink {
    /// A sink recording up to `capacity` events (`0` disables tracing).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            buffer: TraceBuffer::new(capacity),
        }
    }

    /// The recorded trace.
    #[must_use]
    pub fn buffer(&self) -> &TraceBuffer {
        &self.buffer
    }
}

impl EventSink for TraceSink {
    fn on_lane(&mut self, event: &LaneEvent) {
        self.buffer.record(TraceEvent {
            op: event.op,
            operands: event.operands,
            result: event.result,
            hit: event.is_hit(),
            error: event.error,
            stream_core: event.stream_core,
            lane: event.lane,
            cycle: event.cycle,
        });
    }

    fn reset(&mut self) {
        self.buffer.clear();
    }
}

/// Online value-locality profiling — the streaming twin of
/// [`crate::locality::summarize`], which needs no trace buffer (and so
/// no capacity bound): entropy counts and per-(stream core, opcode) LRU
/// stack distances are folded in as events arrive.
#[derive(Debug, Clone, Default)]
pub struct LocalitySink {
    counts: HashMap<(FpOp, OperandKey), u64>,
    stacks: HashMap<(usize, FpOp), Vec<OperandKey>>,
    profiles: HashMap<FpOp, StackDistanceProfile>,
}

impl LocalitySink {
    /// An empty locality profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The stack-distance profile accumulated for `op`, if any lane
    /// instruction of that opcode was observed.
    #[must_use]
    pub fn profile(&self, op: FpOp) -> Option<&StackDistanceProfile> {
        self.profiles.get(&op)
    }

    /// Per-opcode locality summaries — the same rows
    /// [`crate::locality::summarize`] derives from a recorded trace.
    #[must_use]
    pub fn summaries(&self) -> Vec<LocalitySummary> {
        let mut ops: Vec<FpOp> = self.profiles.keys().copied().collect();
        ops.sort_unstable();
        ops.into_iter()
            .map(|op| {
                let profile = &self.profiles[&op];
                let n = profile.total;
                let mut counts: Vec<(OperandKey, u64)> = self
                    .counts
                    .iter()
                    .filter(|((o, _), _)| *o == op)
                    .map(|(&(_, key), &c)| (key, c))
                    .collect();
                counts.sort_unstable_by_key(|&(key, _)| key);
                LocalitySummary {
                    op,
                    events: n,
                    entropy_bits: entropy_in_key_order(counts.iter().map(|&(_, c)| c), n),
                    max_entropy_bits: (counts.len() as f64).log2().max(0.0),
                    predicted_hit_rates: [
                        profile.hit_rate_at_depth(2),
                        profile.hit_rate_at_depth(4),
                        profile.hit_rate_at_depth(16),
                        profile.hit_rate_at_depth(64),
                    ],
                }
            })
            .collect()
    }
}

impl EventSink for LocalitySink {
    fn on_lane(&mut self, event: &LaneEvent) {
        let key = (event.operands.bits(), event.operands.arity());
        *self.counts.entry((event.op, key)).or_default() += 1;
        let stack = self.stacks.entry((event.stream_core, event.op)).or_default();
        let profile = self.profiles.entry(event.op).or_default();
        profile.total += 1;
        match stack.iter().position(|k| *k == key) {
            Some(pos) => {
                let distance = stack.len() - 1 - pos;
                if profile.histogram.len() <= distance {
                    profile.histogram.resize(distance + 1, 0);
                }
                profile.histogram[distance] += 1;
                let k = stack.remove(pos);
                stack.push(k);
            }
            None => {
                profile.cold += 1;
                stack.push(key);
                // Same 1024-entry bound as the offline profiler: deeper
                // distances are indistinguishable from cold misses.
                if stack.len() > 1024 {
                    stack.remove(0);
                }
            }
        }
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.stacks.clear();
        self.profiles.clear();
    }
}

/// Time-windowed metrics: the per-CU half of the observability layer.
///
/// Folds the execute stage's event stream into [`WindowedSeries`] — one
/// totals series plus one per opcode — resolving lanes, hits, errors,
/// masked errors, recoveries and energy against the issue cycle. Window
/// memory is bounded ([`MetricsSink::MAX_WINDOWS`]): long runs coalesce
/// adjacent windows and double the width, so the steady-state fold path
/// never allocates (proven by `tests/alloc_free.rs`).
#[derive(Debug, Clone)]
pub struct MetricsSink {
    window: u64,
    total: WindowedSeries<METRICS_CHANNELS>,
    // Dense by `FpOp::index()` — the fold path runs twice per vector
    // instruction, so per-op lookup must be an array index, not a tree
    // walk.
    per_op: Vec<Option<WindowedSeries<METRICS_CHANNELS>>>,
}

/// Number of channels in each [`MetricsSink`] series (see the channel
/// index constants on [`MetricsSink`]).
pub const METRICS_CHANNELS: usize = 6;

impl MetricsSink {
    /// Channel index: active lanes folded into the window.
    pub const LANES: usize = 0;
    /// Channel index: lanes satisfied by reuse (LUT hit or spatial).
    pub const HITS: usize = 1;
    /// Channel index: timing errors seen.
    pub const ERRORS: usize = 2;
    /// Channel index: errors masked by reuse (hit or spatial broadcast).
    pub const MASKED: usize = 3;
    /// Channel index: ECU recoveries.
    pub const RECOVERIES: usize = 4;
    /// Channel index: energy charged, pJ (folded from vector events).
    pub const ENERGY_PJ: usize = 5;
    /// Number of channels per series ([`METRICS_CHANNELS`]).
    pub const CHANNELS: usize = METRICS_CHANNELS;
    /// Maximum retained windows per series before coalescing.
    pub const MAX_WINDOWS: usize = 256;

    /// A sink with the given initial window width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64) -> Self {
        Self {
            window,
            total: WindowedSeries::new(window, Self::MAX_WINDOWS),
            per_op: vec![None; ALL_OPS.len()],
        }
    }

    fn per_op_series(&mut self, op: FpOp) -> &mut WindowedSeries<METRICS_CHANNELS> {
        let window = self.window;
        self.per_op[op.index()]
            .get_or_insert_with(|| WindowedSeries::new(window, Self::MAX_WINDOWS))
    }

    /// The configured initial window width in cycles.
    #[must_use]
    pub const fn window(&self) -> u64 {
        self.window
    }

    /// The all-opcode series.
    #[must_use]
    pub const fn total(&self) -> &WindowedSeries<METRICS_CHANNELS> {
        &self.total
    }

    /// The series for one opcode, if any instruction of it was observed.
    #[must_use]
    pub fn series(&self, op: FpOp) -> Option<&WindowedSeries<METRICS_CHANNELS>> {
        self.per_op[op.index()].as_ref()
    }

    /// Opcodes with a populated series, in opcode order.
    pub fn ops(&self) -> impl Iterator<Item = FpOp> + '_ {
        self.per_op
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| ALL_OPS[i]))
    }

    /// Installs restored series wholesale (the snapshot restore path);
    /// the per-op table is rebuilt dense by [`FpOp::index`].
    pub(crate) fn restore_series(
        &mut self,
        total: WindowedSeries<METRICS_CHANNELS>,
        per_op: Vec<(FpOp, WindowedSeries<METRICS_CHANNELS>)>,
    ) {
        self.total = total;
        self.per_op = vec![None; ALL_OPS.len()];
        for (op, series) in per_op {
            self.per_op[op.index()] = Some(series);
        }
    }

    /// Per-window hit rate of the totals series:
    /// `(window_start_cycle, window_cycles, hits / lanes)` for every
    /// window with at least one lane.
    #[must_use]
    pub fn hit_rate_windows(&self) -> Vec<(u64, u64, f64)> {
        let width = self.total.width();
        self.total
            .iter_windows()
            .filter(|(_, w)| w[Self::LANES] > 0.0)
            .map(|(start, w)| (start, width, w[Self::HITS] / w[Self::LANES]))
            .collect()
    }

    /// Batched fold of one vector instruction's lane events (all sharing
    /// `op`) — the [`SinkPipeline::flush_instruction`] fast path. The
    /// whole instruction lands in the window containing its first lane's
    /// issue cycle; energy arrives separately via
    /// [`EventSink::on_vector`].
    pub fn fold_lanes(&mut self, op: FpOp, events: &[LaneEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        // Tally in integers — counts are exact, the loop stays branch-light
        // and vectorizable, and only the four totals convert to f64. This
        // is the whole per-instruction cost of the sink, guarded at ≤5% by
        // `tests/obs_overhead.rs`.
        let mut hits = 0u32;
        let mut errors = 0u32;
        let mut masked = 0u32;
        let mut recoveries = 0u32;
        for e in events {
            let hit = match e.kind {
                LaneEventKind::SpatialReuse => true,
                LaneEventKind::Issue { hit, recovered, .. } => {
                    recoveries += u32::from(!hit && recovered);
                    hit
                }
            };
            hits += u32::from(hit);
            errors += u32::from(e.error);
            masked += u32::from(e.error & hit);
        }
        let mut sample = [0.0f64; METRICS_CHANNELS];
        sample[Self::LANES] = events.len() as f64;
        sample[Self::HITS] = f64::from(hits);
        sample[Self::ERRORS] = f64::from(errors);
        sample[Self::MASKED] = f64::from(masked);
        sample[Self::RECOVERIES] = f64::from(recoveries);
        let cycle = first.cycle;
        self.total.fold(cycle, &sample);
        self.per_op_series(op).fold(cycle, &sample);
    }
}

impl EventSink for MetricsSink {
    fn on_lane(&mut self, event: &LaneEvent) {
        self.fold_lanes(event.op, std::slice::from_ref(event));
    }

    fn on_vector(&mut self, event: &VectorEvent) {
        let mut sample = [0.0f64; METRICS_CHANNELS];
        sample[Self::ENERGY_PJ] = event.energy_pj;
        self.total.fold(event.cycle, &sample);
        self.per_op_series(event.op).fold(event.cycle, &sample);
    }

    fn reset(&mut self) {
        self.total.reset();
        for series in self.per_op.iter_mut().flatten() {
            series.reset();
        }
    }
}

/// One installed sink (enum dispatch keeps the pipeline `Clone`).
#[derive(Debug, Clone)]
pub enum SinkKind {
    /// Per-opcode tallies.
    Stats(StatsSink),
    /// Energy ledger.
    Energy(EnergySink),
    /// Instruction trace.
    Trace(TraceSink),
    /// Online locality profiling.
    Locality(LocalitySink),
    /// Time-windowed metrics series.
    Metrics(MetricsSink),
}

impl SinkKind {
    fn as_sink_mut(&mut self) -> &mut dyn EventSink {
        match self {
            SinkKind::Stats(s) => s,
            SinkKind::Energy(s) => s,
            SinkKind::Trace(s) => s,
            SinkKind::Locality(s) => s,
            SinkKind::Metrics(s) => s,
        }
    }
}

/// An ordered set of sinks fed by the execute stage.
#[derive(Debug, Clone, Default)]
pub struct SinkPipeline {
    sinks: Vec<SinkKind>,
}

impl SinkPipeline {
    /// An empty pipeline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard pipeline a [`crate::ComputeUnit`] installs: stats,
    /// energy and trace always; locality when the config asks for it.
    #[must_use]
    pub fn standard(config: &DeviceConfig) -> Self {
        let mut pipeline = Self::new();
        pipeline.push(SinkKind::Stats(StatsSink::new()));
        pipeline.push(SinkKind::Energy(EnergySink::new(config)));
        pipeline.push(SinkKind::Trace(TraceSink::new(config.trace_depth)));
        if config.locality_tracking {
            pipeline.push(SinkKind::Locality(LocalitySink::new()));
        }
        if let Some(window) = config.metrics_window {
            pipeline.push(SinkKind::Metrics(MetricsSink::new(window)));
        }
        pipeline
    }

    /// Appends a sink; events flow to sinks in insertion order.
    pub fn push(&mut self, sink: SinkKind) {
        self.sinks.push(sink);
    }

    /// Number of installed sinks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sink is installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Feeds one lane event to every sink.
    pub fn emit_lane(&mut self, event: &LaneEvent) {
        for sink in &mut self.sinks {
            sink.as_sink_mut().on_lane(event);
        }
    }

    /// Feeds one vector event to every sink.
    pub fn emit_vector(&mut self, event: &VectorEvent) {
        for sink in &mut self.sinks {
            sink.as_sink_mut().on_vector(event);
        }
    }

    /// Folds one vector instruction's worth of lane events — already in
    /// lane order — into every sink, then emits the vector-level event
    /// carrying the exact energy delta of this instruction.
    ///
    /// Equivalent to one [`SinkPipeline::emit_lane`] per event followed
    /// by [`SinkPipeline::emit_vector`], but the sink kind is matched
    /// once per instruction instead of once per lane event (no per-event
    /// virtual dispatch) and the energy sink hoists its per-op quanta
    /// out of the lane loop. This is the execute stage's batched flush.
    pub fn flush_instruction(
        &mut self,
        op: FpOp,
        events: &[LaneEvent],
        active_lanes: u64,
        spatial_hits: u64,
        spatial_masked_errors: u64,
    ) {
        let energy_before = self.total_energy_pj();
        for sink in &mut self.sinks {
            match sink {
                // Stats folds vector events only; its `on_lane` is a no-op.
                SinkKind::Stats(_) => {}
                SinkKind::Energy(s) => s.fold_lanes(op, events),
                SinkKind::Trace(s) => {
                    for event in events {
                        s.on_lane(event);
                    }
                }
                SinkKind::Locality(s) => {
                    for event in events {
                        s.on_lane(event);
                    }
                }
                SinkKind::Metrics(s) => s.fold_lanes(op, events),
            }
        }
        self.emit_vector(&VectorEvent {
            op,
            active_lanes,
            spatial_hits,
            spatial_masked_errors,
            energy_pj: self.total_energy_pj() - energy_before,
            cycle: events.first().map_or(0, |e| e.cycle),
        });
    }

    /// Resets every sink.
    pub fn reset(&mut self) {
        for sink in &mut self.sinks {
            sink.as_sink_mut().reset();
        }
    }

    /// The first energy sink's ledger, if one is installed.
    #[must_use]
    pub fn ledger(&self) -> Option<&EnergyLedger> {
        self.sinks.iter().find_map(|s| match s {
            SinkKind::Energy(e) => Some(e.ledger()),
            _ => None,
        })
    }

    /// Total energy across the pipeline's ledger (0 with no energy sink).
    #[must_use]
    pub fn total_energy_pj(&self) -> f64 {
        self.ledger().map_or(0.0, EnergyLedger::total_pj)
    }

    /// The first trace sink's buffer, if one is installed.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.sinks.iter().find_map(|s| match s {
            SinkKind::Trace(t) => Some(t.buffer()),
            _ => None,
        })
    }

    /// The first stats sink's tallies, if one is installed.
    #[must_use]
    pub fn tallies(&self) -> Option<&BTreeMap<FpOp, OpTally>> {
        self.sinks.iter().find_map(|s| match s {
            SinkKind::Stats(t) => Some(t.tallies()),
            _ => None,
        })
    }

    /// The first locality sink, if one is installed.
    #[must_use]
    pub fn locality(&self) -> Option<&LocalitySink> {
        self.sinks.iter().find_map(|s| match s {
            SinkKind::Locality(l) => Some(l),
            _ => None,
        })
    }

    /// The first metrics sink, if one is installed.
    #[must_use]
    pub fn metrics(&self) -> Option<&MetricsSink> {
        self.sinks.iter().find_map(|s| match s {
            SinkKind::Metrics(m) => Some(m),
            _ => None,
        })
    }

    /// Mutable stats-sink access for the snapshot restore path.
    pub(crate) fn stats_mut(&mut self) -> Option<&mut StatsSink> {
        self.sinks.iter_mut().find_map(|s| match s {
            SinkKind::Stats(t) => Some(t),
            _ => None,
        })
    }

    /// Mutable energy-sink access for the snapshot restore path.
    pub(crate) fn energy_mut(&mut self) -> Option<&mut EnergySink> {
        self.sinks.iter_mut().find_map(|s| match s {
            SinkKind::Energy(e) => Some(e),
            _ => None,
        })
    }

    /// Mutable metrics-sink access for the snapshot restore path.
    pub(crate) fn metrics_mut(&mut self) -> Option<&mut MetricsSink> {
        self.sinks.iter_mut().find_map(|s| match s {
            SinkKind::Metrics(m) => Some(m),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue_event(op: FpOp, v: f32, sc: usize, hit: bool) -> LaneEvent {
        LaneEvent {
            op,
            operands: Operands::unary(v),
            result: v,
            error: false,
            stream_core: sc,
            lane: sc,
            cycle: 0,
            kind: LaneEventKind::Issue {
                hit,
                bypassed: false,
                updated: !hit,
                recovered: false,
            },
        }
    }

    #[test]
    fn stats_sink_accumulates_vector_events() {
        let mut sink = StatsSink::new();
        sink.on_vector(&VectorEvent {
            op: FpOp::Add,
            active_lanes: 64,
            spatial_hits: 3,
            spatial_masked_errors: 1,
            energy_pj: 10.0,
            cycle: 0,
        });
        sink.on_vector(&VectorEvent {
            op: FpOp::Add,
            active_lanes: 32,
            spatial_hits: 0,
            spatial_masked_errors: 0,
            energy_pj: 5.0,
            cycle: 4,
        });
        let t = sink.tallies()[&FpOp::Add];
        assert_eq!(t.vector_instructions, 2);
        assert_eq!(t.lane_instructions, 96);
        assert_eq!(t.spatial_hits, 3);
        assert!((t.energy_pj - 15.0).abs() < 1e-12);
        sink.reset();
        assert!(sink.tallies().is_empty());
    }

    #[test]
    fn energy_sink_charges_hit_vs_miss_differently() {
        let config = DeviceConfig::default();
        let mut sink = EnergySink::new(&config);
        sink.on_lane(&issue_event(FpOp::Sqrt, 2.0, 0, false));
        let miss = sink.ledger().total_pj();
        sink.reset();
        sink.on_lane(&issue_event(FpOp::Sqrt, 2.0, 0, true));
        let hit = sink.ledger().total_pj();
        assert!(hit < miss, "a hit must be cheaper than a miss");
    }

    #[test]
    fn trace_sink_records_hits_from_both_kinds() {
        let mut sink = TraceSink::new(8);
        sink.on_lane(&issue_event(FpOp::Add, 1.0, 0, true));
        let mut spatial = issue_event(FpOp::Add, 1.0, 1, false);
        spatial.kind = LaneEventKind::SpatialReuse;
        sink.on_lane(&spatial);
        let hits: Vec<bool> = sink.buffer().events().map(|e| e.hit).collect();
        assert_eq!(hits, vec![true, true]);
    }

    #[test]
    fn locality_sink_matches_offline_profile() {
        // A B A B … on one stream core: the online profile must equal
        // the offline one computed from an equivalent trace.
        let mut sink = LocalitySink::new();
        let mut trace = Vec::new();
        for i in 0..20 {
            let v = if i % 2 == 0 { 1.0 } else { 2.0 };
            let e = issue_event(FpOp::Mul, v, 0, false);
            sink.on_lane(&e);
            trace.push(TraceEvent {
                op: e.op,
                operands: e.operands,
                result: e.result,
                hit: false,
                error: false,
                stream_core: 0,
                lane: 0,
                cycle: 0,
            });
        }
        let offline = StackDistanceProfile::from_events(trace.iter());
        assert_eq!(sink.profile(FpOp::Mul), Some(&offline));
        let rows = sink.summaries();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].entropy_bits - 1.0).abs() < 1e-9);
        assert_eq!(rows[0].events, 20);
    }

    #[test]
    fn entropies_do_not_depend_on_event_order() {
        // Many distinct operand sets with uneven counts, so the sums have
        // enough terms for the order of addition to show in the last bits.
        let mut events: Vec<LaneEvent> = (0..2000u32)
            .map(|i| issue_event(FpOp::Mul, ((i * i) % 613) as f32, (i % 4) as usize, false))
            .collect();
        events.extend(
            (0..500u32).map(|i| issue_event(FpOp::Add, (i % 97) as f32 * 0.5, 0, false)),
        );
        let trace = |events: &[LaneEvent]| -> Vec<TraceEvent> {
            events
                .iter()
                .map(|e| TraceEvent {
                    op: e.op,
                    operands: e.operands,
                    result: e.result,
                    hit: false,
                    error: false,
                    stream_core: e.stream_core,
                    lane: e.lane,
                    cycle: 0,
                })
                .collect()
        };
        let entropies = |events: &[LaneEvent]| -> (u64, Vec<u64>, Vec<u64>) {
            let mut sink = LocalitySink::new();
            for e in events {
                sink.on_lane(e);
            }
            let trace = trace(events);
            let bits = |rows: Vec<LocalitySummary>| -> Vec<u64> {
                rows.iter().map(|r| r.entropy_bits.to_bits()).collect()
            };
            (
                crate::locality::operand_entropy_bits(trace.iter()).to_bits(),
                bits(crate::locality::summarize(trace.iter())),
                bits(sink.summaries()),
            )
        };
        let forward = entropies(&events);
        events.reverse();
        assert_eq!(entropies(&events), forward);
        // The online and offline per-op summaries agree bit for bit too.
        assert_eq!(forward.1, forward.2);
    }

    #[test]
    fn pipeline_composes_and_routes_by_kind() {
        let config = DeviceConfig::builder().with_trace_depth(16).build().unwrap();
        let mut pipeline = SinkPipeline::standard(&config);
        assert_eq!(pipeline.len(), 3);
        pipeline.push(SinkKind::Locality(LocalitySink::new()));
        pipeline.emit_lane(&issue_event(FpOp::Add, 3.0, 2, false));
        pipeline.emit_vector(&VectorEvent {
            op: FpOp::Add,
            active_lanes: 1,
            spatial_hits: 0,
            spatial_masked_errors: 0,
            energy_pj: pipeline.total_energy_pj(),
            cycle: 0,
        });
        assert!(pipeline.total_energy_pj() > 0.0);
        assert_eq!(pipeline.trace().unwrap().len(), 1);
        assert_eq!(pipeline.tallies().unwrap()[&FpOp::Add].lane_instructions, 1);
        assert_eq!(pipeline.locality().unwrap().summaries().len(), 1);
        pipeline.reset();
        assert_eq!(pipeline.total_energy_pj(), 0.0);
        assert!(pipeline.trace().unwrap().is_empty());
        assert!(pipeline.tallies().unwrap().is_empty());
    }

    #[test]
    fn metrics_sink_windows_lanes_hits_and_energy() {
        let mut sink = MetricsSink::new(8);
        // Window 0: two hits, one miss-with-recovery; window 2: one miss.
        let mut miss = issue_event(FpOp::Add, 1.0, 0, false);
        miss.error = true;
        miss.kind = LaneEventKind::Issue {
            hit: false,
            bypassed: false,
            updated: false,
            recovered: true,
        };
        let batch = [
            issue_event(FpOp::Add, 1.0, 0, true),
            issue_event(FpOp::Add, 2.0, 1, true),
            miss,
        ];
        sink.fold_lanes(FpOp::Add, &batch);
        let mut later = issue_event(FpOp::Add, 3.0, 0, false);
        later.cycle = 16;
        sink.fold_lanes(FpOp::Add, std::slice::from_ref(&later));
        sink.on_vector(&VectorEvent {
            op: FpOp::Add,
            active_lanes: 3,
            spatial_hits: 0,
            spatial_masked_errors: 0,
            energy_pj: 2.5,
            cycle: 0,
        });

        let total = sink.total();
        assert_eq!(total.windows().len(), 3);
        let w0 = total.windows()[0];
        assert_eq!(w0[MetricsSink::LANES], 3.0);
        assert_eq!(w0[MetricsSink::HITS], 2.0);
        assert_eq!(w0[MetricsSink::ERRORS], 1.0);
        assert_eq!(w0[MetricsSink::MASKED], 0.0);
        assert_eq!(w0[MetricsSink::RECOVERIES], 1.0);
        assert_eq!(w0[MetricsSink::ENERGY_PJ], 2.5);
        assert_eq!(total.windows()[2][MetricsSink::LANES], 1.0);

        let rates = sink.hit_rate_windows();
        assert_eq!(rates.len(), 2);
        assert!((rates[0].2 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rates[1], (16, 8, 0.0));
        assert_eq!(sink.ops().collect::<Vec<_>>(), vec![FpOp::Add]);
        assert_eq!(sink.series(FpOp::Add).unwrap().windows(), total.windows());

        sink.reset();
        assert!(sink.total().is_empty());
        assert!(sink.series(FpOp::Add).unwrap().is_empty(), "entries survive reset empty");
    }

    #[test]
    fn standard_pipeline_installs_metrics_only_when_configured() {
        let without = SinkPipeline::standard(&DeviceConfig::default());
        assert!(without.metrics().is_none());
        let with = SinkPipeline::standard(&DeviceConfig::builder().with_metrics_window(64).build().unwrap());
        let sink = with.metrics().expect("metrics sink installed");
        assert_eq!(sink.window(), 64);
    }

    #[test]
    fn pipeline_without_sinks_reports_defaults() {
        let p = SinkPipeline::new();
        assert!(p.is_empty());
        assert_eq!(p.total_energy_pj(), 0.0);
        assert!(p.ledger().is_none() && p.trace().is_none() && p.tallies().is_none());
    }
}
