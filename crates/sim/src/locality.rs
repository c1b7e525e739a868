//! Value-locality analysis over instruction traces.
//!
//! Quantifies the paper's §1 observation — "the entropy of data-level
//! parallelism is low due to high locality of values" — from a recorded
//! [`crate::TraceEvent`] stream:
//!
//! - [`operand_entropy_bits`]: the Shannon entropy of the operand-set
//!   distribution. 32-bit operands could carry up to 32·arity bits; real
//!   data-parallel streams carry far fewer.
//! - [`StackDistanceProfile`]: LRU stack distances of each per-(stream
//!   core, opcode) operand stream. The CDF at depth *d* is the hit rate an
//!   LRU table of *d* entries would achieve — the analytical twin of the
//!   §4.1 FIFO-depth sweep.

use crate::trace::TraceEvent;
use std::collections::HashMap;
use tm_fpu::FpOp;

/// Bit-exact key of an operand set: raw bit patterns plus arity.
pub(crate) type OperandKey = ([u32; tm_fpu::MAX_ARITY], usize);

/// Shannon entropy (bits) of the operand-set distribution of `events`.
///
/// Returns `0.0` for an empty stream. Operand sets are compared
/// bit-exactly, matching the exact-matching constraint.
///
/// # Examples
///
/// ```
/// use tm_sim::locality::operand_entropy_bits;
/// use tm_sim::TraceEvent;
/// use tm_fpu::{FpOp, Operands};
///
/// let mk = |v: f32| TraceEvent {
///     op: FpOp::Sqrt,
///     operands: Operands::unary(v),
///     result: v.sqrt(),
///     hit: false,
///     error: false,
///     stream_core: 0,
///     lane: 0,
///     cycle: 0,
/// };
/// // Two equiprobable operand sets: exactly one bit of entropy.
/// let events = vec![mk(1.0), mk(2.0), mk(1.0), mk(2.0)];
/// let h = operand_entropy_bits(events.iter());
/// assert!((h - 1.0).abs() < 1e-12);
/// ```
pub fn operand_entropy_bits<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> f64 {
    let mut counts: HashMap<(FpOp, OperandKey), u64> = HashMap::new();
    let mut total = 0u64;
    for e in events {
        *counts
            .entry((e.op, (e.operands.bits(), e.operands.arity())))
            .or_default() += 1;
        total += 1;
    }
    if total == 0 {
        return 0.0;
    }
    let mut counts: Vec<_> = counts.into_iter().collect();
    counts.sort_unstable_by_key(|&(key, _)| key);
    entropy_in_key_order(counts.iter().map(|&(_, c)| c), total)
}

/// Shannon entropy (bits) of a count distribution over `total` events.
///
/// Callers pass the counts ordered by their keys: floating-point addition
/// is not associative, so summing the `-p·log2 p` terms in hash-map order
/// would change the last bits from one call to the next.
pub(crate) fn entropy_in_key_order(counts: impl Iterator<Item = u64>, total: u64) -> f64 {
    let n = total as f64;
    counts.fold(0.0, |h, c| {
        let p = c as f64 / n;
        h - p * p.log2()
    })
}

/// LRU stack-distance profile of per-FPU operand streams.
///
/// Distance *k* means the operand set recurred with *k* distinct operand
/// sets seen on that FPU in between; `cold` counts first occurrences.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackDistanceProfile {
    /// `histogram[k]` = number of accesses with stack distance `k`.
    pub histogram: Vec<u64>,
    /// First-touch (compulsory miss) count.
    pub cold: u64,
    /// Total accesses profiled.
    pub total: u64,
}

impl StackDistanceProfile {
    /// Builds the profile, treating each `(stream core, opcode)` pair as
    /// an independent stream — the granularity of the paper's private
    /// per-FPU FIFOs.
    pub fn from_events<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> Self {
        // Per-stream LRU stacks of operand keys.
        let mut stacks: HashMap<(usize, FpOp), Vec<OperandKey>> = HashMap::new();
        let mut profile = StackDistanceProfile::default();
        for e in events {
            let key = (e.operands.bits(), e.operands.arity());
            let stack = stacks.entry((e.stream_core, e.op)).or_default();
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
                    // Bound the stack so pathological streams stay cheap;
                    // distances beyond 1024 are indistinguishable from cold
                    // for any realistic LUT.
                    if stack.len() > 1024 {
                        stack.remove(0);
                    }
                }
            }
        }
        profile
    }

    /// Hit rate an LRU table of `depth` entries would achieve on this
    /// stream (the CDF of the distance histogram).
    ///
    /// # Examples
    ///
    /// ```
    /// use tm_sim::locality::StackDistanceProfile;
    ///
    /// let p = StackDistanceProfile {
    ///     histogram: vec![60, 20, 10],
    ///     cold: 10,
    ///     total: 100,
    /// };
    /// assert_eq!(p.hit_rate_at_depth(1), 0.60);
    /// assert_eq!(p.hit_rate_at_depth(2), 0.80);
    /// assert_eq!(p.hit_rate_at_depth(64), 0.90);
    /// ```
    #[must_use]
    pub fn hit_rate_at_depth(&self, depth: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.histogram.iter().take(depth).sum();
        hits as f64 / self.total as f64
    }

    /// Fraction of accesses that were first touches.
    #[must_use]
    pub fn cold_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cold as f64 / self.total as f64
        }
    }
}

/// Summary row of a locality analysis: one opcode's stream statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalitySummary {
    /// The opcode.
    pub op: FpOp,
    /// Events analysed.
    pub events: u64,
    /// Operand-set entropy, bits.
    pub entropy_bits: f64,
    /// Entropy of a uniform stream over the same support (upper bound).
    pub max_entropy_bits: f64,
    /// Predicted LRU hit rates at depths 2, 4, 16, 64.
    pub predicted_hit_rates: [f64; 4],
}

/// Per-opcode locality summaries over a trace.
pub fn summarize<'a>(events: impl Iterator<Item = &'a TraceEvent> + Clone) -> Vec<LocalitySummary> {
    let mut ops: Vec<FpOp> = events.clone().map(|e| e.op).collect();
    ops.sort_unstable();
    ops.dedup();
    ops.into_iter()
        .map(|op| {
            let stream = events.clone().filter(move |e| e.op == op);
            let n = stream.clone().count() as u64;
            let entropy = operand_entropy_bits(stream.clone());
            let mut distinct: Vec<OperandKey> = stream
                .clone()
                .map(|e| (e.operands.bits(), e.operands.arity()))
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            let profile = StackDistanceProfile::from_events(stream);
            LocalitySummary {
                op,
                events: n,
                entropy_bits: entropy,
                max_entropy_bits: (distinct.len() as f64).log2().max(0.0),
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

#[cfg(test)]
mod tests {
    use super::*;
    use tm_fpu::Operands;

    fn mk(op: FpOp, v: f32, sc: usize) -> TraceEvent {
        TraceEvent {
            op,
            operands: Operands::unary(v),
            result: v,
            hit: false,
            error: false,
            stream_core: sc,
            lane: 0,
            cycle: 0,
        }
    }

    #[test]
    fn entropy_of_constant_stream_is_zero() {
        let events: Vec<_> = (0..32).map(|_| mk(FpOp::Sqrt, 2.0, 0)).collect();
        assert_eq!(operand_entropy_bits(events.iter()), 0.0);
    }

    #[test]
    fn entropy_of_uniform_stream_is_log2_n() {
        let events: Vec<_> = (0..64).map(|i| mk(FpOp::Sqrt, i as f32, 0)).collect();
        assert!((operand_entropy_bits(events.iter()) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn stack_distance_of_alternating_pair() {
        // A B A B A B… distance 1 after warmup.
        let events: Vec<_> = (0..20)
            .map(|i| mk(FpOp::Add, if i % 2 == 0 { 1.0 } else { 2.0 }, 0))
            .collect();
        let p = StackDistanceProfile::from_events(events.iter());
        assert_eq!(p.cold, 2);
        assert_eq!(p.hit_rate_at_depth(2), 18.0 / 20.0);
        assert_eq!(p.hit_rate_at_depth(1), 0.0);
    }

    #[test]
    fn streams_are_separated_by_stream_core() {
        // Same value on two SCs: each stream has its own cold miss.
        let events = [mk(FpOp::Add, 1.0, 0), mk(FpOp::Add, 1.0, 1)];
        let p = StackDistanceProfile::from_events(events.iter());
        assert_eq!(p.cold, 2);
    }

    #[test]
    fn deeper_tables_never_hit_less() {
        let events: Vec<_> = (0..200)
            .map(|i| mk(FpOp::Mul, (i % 7) as f32, i % 3))
            .collect();
        let p = StackDistanceProfile::from_events(events.iter());
        let mut prev = 0.0;
        for d in [1, 2, 4, 8, 16, 64] {
            let r = p.hit_rate_at_depth(d);
            assert!(r >= prev);
            prev = r;
        }
        assert!((p.cold_fraction() - 21.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_groups_by_op() {
        let mut events: Vec<_> = (0..16).map(|_| mk(FpOp::Sqrt, 1.0, 0)).collect();
        events.extend((0..16).map(|i| mk(FpOp::Add, i as f32, 0)));
        let rows = summarize(events.iter());
        assert_eq!(rows.len(), 2);
        let sqrt = rows.iter().find(|r| r.op == FpOp::Sqrt).unwrap();
        let add = rows.iter().find(|r| r.op == FpOp::Add).unwrap();
        assert!(sqrt.entropy_bits < add.entropy_bits);
        assert!(sqrt.predicted_hit_rates[0] > add.predicted_hit_rates[0]);
    }
}
