//! A warm device pool for serving layers: reuse [`Device`]s across jobs.
//!
//! A job server handling many small kernel launches cannot afford to
//! rebuild a [`Device`] (compute units, stream cores, memo FIFOs) per
//! request. [`DevicePool`] keeps finished devices on an idle list keyed
//! by their full [`DeviceConfig`] and hands them back to the next job
//! with the same configuration after a [`Device::reset_stats`].
//!
//! `reset_stats` deliberately clears *statistics* (tallies, wavefront
//! counts, hub-scoped telemetry series) but **keeps the memoization FIFO
//! contents**. A warm-reused device therefore starts with whatever
//! operand history the previous job left in its FPU FIFOs — the
//! cross-job form of the paper's temporal value locality. Callers that
//! need bit-cold results (e.g. deterministic campaigns) should build
//! their own devices; callers serving repetitive launch traffic get the
//! warm FIFOs for free. [`PoolStats`] reports how often each case
//! happened.
//!
//! Reuse is last in, first out: [`DevicePool::acquire`] takes the most
//! recently released device with a matching configuration, and a full
//! idle list evicts its least recently released device. A device revived
//! from a snapshot enters through [`DevicePool::supersede`], which drops
//! every idle device with an equal configuration, so the next matching
//! acquisition gets the restored memo state and repeated restores of one
//! configuration keep at most one idle device for it.
//!
//! The pool is synchronous and unlocked: a serving layer wraps it in its
//! own `Mutex` alongside the rest of its scheduler state.
//!
//! # Examples
//!
//! ```
//! use tm_sim::{pool::DevicePool, DeviceConfig};
//!
//! let mut pool = DevicePool::new(4);
//! let config = DeviceConfig::default();
//!
//! let device = pool.acquire(&config); // cold: freshly built
//! pool.release(device);
//! let device = pool.acquire(&config); // warm: same device, stats reset
//! assert_eq!(pool.stats().warm_hits, 1);
//! assert_eq!(pool.stats().cold_builds, 1);
//! pool.release(device);
//! ```

use crate::config::DeviceConfig;
use crate::device::Device;

/// Counters describing how the pool has served its callers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions satisfied by resetting an idle device with a
    /// matching configuration (memo FIFOs still warm).
    pub warm_hits: u64,
    /// Acquisitions that had to construct a new device.
    pub cold_builds: u64,
    /// Devices dropped instead of kept: the least recently released idle
    /// device when the idle list is full (the released device itself when
    /// `max_idle == 0`), or idle devices superseded by a restored device
    /// with an equal configuration.
    pub evictions: u64,
}

/// A bounded pool of idle [`Device`]s keyed by [`DeviceConfig`].
///
/// See the [module docs](self) for the warm-reuse semantics.
#[derive(Debug)]
pub struct DevicePool {
    idle: Vec<Device>,
    max_idle: usize,
    stats: PoolStats,
}

impl DevicePool {
    /// Creates a pool keeping at most `max_idle` idle devices.
    ///
    /// `max_idle == 0` disables reuse entirely: every acquisition is a
    /// cold build and every release drops the device.
    #[must_use]
    pub fn new(max_idle: usize) -> Self {
        Self {
            idle: Vec::new(),
            max_idle,
            stats: PoolStats::default(),
        }
    }

    /// Hands out a device for `config`.
    ///
    /// If an idle device was built from an identical configuration, the
    /// most recently released one is revived with [`Device::reset_stats`]
    /// — statistics and hub series cleared, memo FIFOs kept warm.
    /// Otherwise a fresh device is built.
    pub fn acquire(&mut self, config: &DeviceConfig) -> Device {
        if let Some(pos) = self.idle.iter().rposition(|d| d.config() == config) {
            let mut device = self.idle.remove(pos);
            device.reset_stats();
            self.stats.warm_hits += 1;
            device
        } else {
            self.stats.cold_builds += 1;
            Device::new(config.clone())
        }
    }

    /// Returns a device to the idle list. A full list evicts its least
    /// recently released device to make room (with `max_idle == 0` the
    /// returned device itself is dropped). Telemetry hubs and recorders
    /// are detached first so an idle device cannot keep publishing into a
    /// finished job's scope.
    pub fn release(&mut self, mut device: Device) {
        device.detach_hub();
        device.detach_recorder();
        self.idle.push(device);
        if self.idle.len() > self.max_idle {
            self.idle.remove(0);
            self.stats.evictions += 1;
        }
    }

    /// Releases a device revived from a snapshot in place of every idle
    /// device with an equal configuration; those are dropped and counted
    /// as evictions. The next [`DevicePool::acquire`] of that
    /// configuration therefore gets `device` and its restored memo state.
    pub fn supersede(&mut self, device: Device) {
        let before = self.idle.len();
        self.idle.retain(|d| d.config() != device.config());
        self.stats.evictions += (before - self.idle.len()) as u64;
        self.release(device);
    }

    /// Number of devices currently idle.
    #[must_use]
    pub fn idle_len(&self) -> usize {
        self.idle.len()
    }

    /// Warm/cold/eviction counters since construction.
    #[must_use]
    pub const fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    /// Squares a splat of its value: one launch leaves that value's
    /// operands in every memo FIFO it touches.
    struct Square(f32);

    impl crate::Kernel for Square {
        fn name(&self) -> &'static str {
            "square"
        }
        fn execute(&mut self, ctx: &mut crate::WaveCtx<'_>) {
            let x = crate::VReg::splat(ctx.lanes(), self.0);
            let _ = ctx.mul(&x, &x);
        }
    }

    /// A device of `config` whose FIFOs hold `value`'s operands.
    fn warmed(config: &DeviceConfig, value: f32) -> Device {
        let mut d = Device::new(config.clone());
        d.run(&mut Square(value), 64);
        d
    }

    /// Snapshot bytes of `device` after the reset an acquisition applies:
    /// equal bytes mean equal memo FIFOs, injector states and counters.
    fn reset_bytes(mut device: Device) -> String {
        device.reset_stats();
        device.snapshot().expect("device snapshots").to_json()
    }

    fn restored(device: &Device) -> Device {
        Device::restore(&device.snapshot().expect("device snapshots")).expect("device restores")
    }

    #[test]
    fn warm_reuse_matches_config_and_resets_stats() {
        let mut pool = DevicePool::new(2);
        let config = DeviceConfig::default();
        let mut d = pool.acquire(&config);
        assert_eq!(pool.stats().cold_builds, 1);
        // Leave some state behind: one launch worth of stats + FIFO fill.
        d.run(&mut Square(2.0), 64);
        assert!(d.report().wavefronts > 0);
        pool.release(d);
        assert_eq!(pool.idle_len(), 1);

        let d = pool.acquire(&config);
        assert_eq!(pool.stats().warm_hits, 1);
        // Stats were reset; the device is ready for a fresh job.
        assert_eq!(d.report().wavefronts, 0);
        pool.release(d);
    }

    #[test]
    fn different_config_is_a_cold_build() {
        let mut pool = DevicePool::new(2);
        let a = DeviceConfig::default();
        let b = DeviceConfig {
            compute_units: a.compute_units + 1,
            ..a.clone()
        };
        let d = pool.acquire(&a);
        pool.release(d);
        let d = pool.acquire(&b);
        assert_eq!(pool.stats().cold_builds, 2);
        assert_eq!(pool.stats().warm_hits, 0);
        pool.release(d);
    }

    #[test]
    fn acquire_takes_the_most_recently_released_match() {
        let config = DeviceConfig::default();
        let mut pool = DevicePool::new(4);
        pool.release(warmed(&config, 2.0));
        pool.release(warmed(&config, 3.0));
        let expected = reset_bytes(warmed(&config, 3.0));
        assert_ne!(expected, reset_bytes(warmed(&config, 2.0)));
        assert_eq!(reset_bytes(pool.acquire(&config)), expected);
        assert_eq!(pool.idle_len(), 1);
    }

    #[test]
    fn restored_device_supersedes_idle_devices_of_its_config() {
        let config = DeviceConfig::default();
        let other = DeviceConfig {
            compute_units: config.compute_units + 1,
            ..config.clone()
        };
        let mut pool = DevicePool::new(4);
        pool.release(warmed(&config, 2.0));
        pool.release(warmed(&other, 2.0));
        let b = warmed(&config, 3.0);
        let expected = reset_bytes(restored(&b));
        pool.supersede(restored(&b));
        // The older same-config device is gone; the other config stays.
        assert_eq!(pool.idle_len(), 2);
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(reset_bytes(pool.acquire(&config)), expected);
        assert_eq!(pool.stats().warm_hits, 1);
    }

    #[test]
    fn repeated_restores_keep_one_idle_device_per_config() {
        let config = DeviceConfig::default();
        let snapshot = warmed(&config, 3.0).snapshot().expect("device snapshots");
        let mut pool = DevicePool::new(8);
        for _ in 0..100 {
            pool.supersede(Device::restore(&snapshot).expect("device restores"));
            let mut d = pool.acquire(&config);
            d.run(&mut Square(2.0), 64);
            pool.release(d);
            assert!(
                pool.idle_len() <= 1,
                "idle list grew to {}",
                pool.idle_len()
            );
        }
        assert_eq!(pool.stats().warm_hits, 100);
        assert_eq!(pool.stats().evictions, 99);
    }

    #[test]
    fn full_idle_list_evicts_the_least_recently_released() {
        let a = DeviceConfig::default();
        let b = DeviceConfig {
            compute_units: a.compute_units + 1,
            ..a.clone()
        };
        let mut pool = DevicePool::new(1);
        pool.release(Device::new(a.clone()));
        pool.supersede(Device::new(b.clone()));
        assert_eq!(pool.stats().evictions, 1);
        let _ = pool.acquire(&b);
        assert_eq!(pool.stats().warm_hits, 1, "the newest device must survive");
        let _ = pool.acquire(&a);
        assert_eq!(pool.stats().cold_builds, 1);
    }

    #[test]
    fn capacity_zero_always_evicts() {
        let mut pool = DevicePool::new(0);
        let config = DeviceConfig::default();
        let d = pool.acquire(&config);
        pool.release(d);
        assert_eq!(pool.idle_len(), 0);
        assert_eq!(pool.stats().evictions, 1);
        let _ = pool.acquire(&config);
        assert_eq!(pool.stats().cold_builds, 2);
    }
}
