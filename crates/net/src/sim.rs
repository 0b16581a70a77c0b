//! Network condition simulation.
//!
//! The paper's WAN experiments run the coordinator in Copenhagen and
//! workers in Graz: "round-trip latency of about 35-60 ms, and data
//! transfer bandwidth of about 1.4-2 MB/s". We reproduce those two effects
//! — latency per message and transfer time per byte — by shaping the
//! *receive* path of a channel: a pump thread timestamps each message's
//! real arrival and withholds it until link transfer plus one-way latency
//! have elapsed, so pipelined messages overlap their latencies exactly as
//! they would on a real link. The send path is not shaped, so a round
//! trip pays one one-way latency and uploads take no link time (see
//! [`crate::transport::ShapedChannel`]). Sleeps are real wall-clock time so
//! end-to-end runtimes reflect the same costs the paper measures; a
//! `scale` factor lets the harness shrink them proportionally for fast
//! runs.

use std::time::Duration;

/// Link profile applied to each message as it crosses the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetProfile {
    /// One-way latency added per message, in milliseconds.
    pub one_way_latency_ms: f64,
    /// Link bandwidth in bytes per second (`f64::INFINITY` = unshaped).
    pub bandwidth_bytes_per_sec: f64,
    /// Per-message latency jitter as a fraction of the one-way latency
    /// (`0.25` = ±25%). `0.0` (the default) disables jitter.
    pub jitter_frac: f64,
    /// Seed for the deterministic jitter stream. Two channels shaped with
    /// the same `(seed, message sequence)` draw identical jitter, so a
    /// shaped run is reproducible from its recorded seed.
    pub jitter_seed: u64,
}

impl NetProfile {
    /// Unshaped local-area profile: loopback/LAN latency and bandwidth are
    /// left to the real socket (the paper's 10 Gb LAN is likewise unshaped
    /// relative to its workloads).
    pub fn lan() -> Self {
        Self {
            one_way_latency_ms: 0.0,
            bandwidth_bytes_per_sec: f64::INFINITY,
            jitter_frac: 0.0,
            jitter_seed: 0,
        }
    }

    /// The paper's measured WAN band: ~40 ms RTT (20 ms one-way) and
    /// ~1.7 MB/s.
    pub fn wan() -> Self {
        Self {
            one_way_latency_ms: 20.0,
            bandwidth_bytes_per_sec: 1.7e6,
            jitter_frac: 0.0,
            jitter_seed: 0,
        }
    }

    /// Custom profile from round-trip latency and bandwidth in MB/s,
    /// stored as a one-way latency of `rtt_ms / 2`. A [`ShapedChannel`]
    /// applies it to inbound messages only, so a shaped coordinator's
    /// round trip pays `rtt_ms / 2`, not `rtt_ms`.
    ///
    /// [`ShapedChannel`]: crate::transport::ShapedChannel
    pub fn custom(rtt_ms: f64, mbps: f64) -> Self {
        Self {
            one_way_latency_ms: rtt_ms / 2.0,
            bandwidth_bytes_per_sec: mbps * 1e6,
            jitter_frac: 0.0,
            jitter_seed: 0,
        }
    }

    /// Adds seeded latency jitter: each message's propagation latency is
    /// perturbed by a deterministic draw in `±frac` of the base latency,
    /// keyed by `(seed, message sequence number)`.
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        self.jitter_frac = frac.max(0.0);
        self.jitter_seed = seed;
        self
    }

    /// Scales delays down by `factor` (e.g. 0.1 = ten times faster), for
    /// quick experiment runs; relative overheads are preserved because both
    /// the latency and transfer terms scale together (and jitter is
    /// relative, so it scales with them).
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            one_way_latency_ms: self.one_way_latency_ms * factor,
            bandwidth_bytes_per_sec: if self.bandwidth_bytes_per_sec.is_finite() {
                self.bandwidth_bytes_per_sec / factor
            } else {
                self.bandwidth_bytes_per_sec
            },
            ..self
        }
    }

    /// True when the profile adds no shaping at all.
    pub fn is_unshaped(&self) -> bool {
        self.one_way_latency_ms == 0.0 && self.bandwidth_bytes_per_sec.is_infinite()
    }

    /// The one-way propagation latency as a [`Duration`].
    pub fn latency(&self) -> Duration {
        Duration::from_secs_f64(self.one_way_latency_ms / 1e3)
    }

    /// The one-way latency for message number `seq` on this link,
    /// including the deterministic jitter draw (identical to
    /// [`NetProfile::latency`] when `jitter_frac` is 0).
    pub fn latency_jittered(&self, seq: u64) -> Duration {
        if self.jitter_frac == 0.0 {
            return self.latency();
        }
        // splitmix64 over (seed, seq): a full avalanche per message, so
        // consecutive sequence numbers draw independent-looking jitter
        // while the whole stream replays from the recorded seed.
        let mut s = self
            .jitter_seed
            .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^= s >> 31;
        // Uniform in [-1, 1).
        let unit = (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let ms = (self.one_way_latency_ms * (1.0 + self.jitter_frac * unit)).max(0.0);
        Duration::from_secs_f64(ms / 1e3)
    }

    /// The link-occupancy (serialization) time for `bytes` at the
    /// profile's bandwidth. This is the component that stays serial when
    /// messages are pipelined: concurrent messages share the link, so
    /// their transfer times add while their latencies overlap.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        if self.bandwidth_bytes_per_sec.is_finite() {
            Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
        } else {
            Duration::ZERO
        }
    }

    /// The simulated delay for sending one message of `bytes` over an
    /// otherwise idle link: propagation latency plus transfer time.
    pub fn delay_for(&self, bytes: usize) -> Duration {
        self.latency() + self.transfer_time(bytes)
    }

    /// Sleeps for the simulated delay of one `bytes`-sized message.
    pub fn apply(&self, bytes: usize) {
        if !self.is_unshaped() {
            std::thread::sleep(self.delay_for(bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_is_unshaped() {
        assert!(NetProfile::lan().is_unshaped());
        assert_eq!(NetProfile::lan().delay_for(1 << 20), Duration::ZERO);
    }

    #[test]
    fn wan_delay_combines_latency_and_transfer() {
        let p = NetProfile::wan();
        let d = p.delay_for(1_700_000); // 1.7 MB at 1.7 MB/s = 1 s
        assert!((d.as_secs_f64() - 1.02).abs() < 1e-9, "{d:?}");
    }

    #[test]
    fn custom_profile_from_rtt() {
        let p = NetProfile::custom(50.0, 2.0);
        assert_eq!(p.one_way_latency_ms, 25.0);
        assert_eq!(p.bandwidth_bytes_per_sec, 2e6);
    }

    #[test]
    fn scaling_preserves_ratio() {
        let p = NetProfile::wan();
        let s = p.scaled(0.1);
        let big = 1 << 20;
        let ratio = p.delay_for(big).as_secs_f64() / s.delay_for(big).as_secs_f64();
        assert!((ratio - 10.0).abs() < 1e-6);
        let ratio_small = p.delay_for(64).as_secs_f64() / s.delay_for(64).as_secs_f64();
        // Nanosecond rounding in Duration loosens the small-message ratio.
        assert!((ratio_small - 10.0).abs() < 1e-3);
    }

    #[test]
    fn delay_math_decomposes_into_latency_and_transfer() {
        let p = NetProfile::wan();
        assert_eq!(p.latency(), Duration::from_millis(20));
        // 170 KB at 1.7 MB/s = 100 ms of link occupancy.
        let t = p.transfer_time(170_000);
        assert!((t.as_secs_f64() - 0.1).abs() < 1e-9, "{t:?}");
        assert_eq!(p.delay_for(170_000), p.latency() + t);
        // Zero-byte messages still pay propagation latency.
        assert_eq!(p.delay_for(0), p.latency());
        // Unshaped profiles pay nothing at all.
        assert_eq!(NetProfile::lan().latency(), Duration::ZERO);
        assert_eq!(NetProfile::lan().transfer_time(1 << 30), Duration::ZERO);
        // Latency-only profiles are byte-size independent.
        let lat_only = NetProfile {
            one_way_latency_ms: 5.0,
            bandwidth_bytes_per_sec: f64::INFINITY,
            jitter_frac: 0.0,
            jitter_seed: 0,
        };
        assert_eq!(lat_only.delay_for(0), lat_only.delay_for(1 << 20));
        assert!(!lat_only.is_unshaped());
    }

    #[test]
    fn jitter_is_seeded_bounded_and_deterministic() {
        let base = NetProfile::wan();
        // No jitter: jittered latency is exactly the base latency.
        assert_eq!(base.latency_jittered(17), base.latency());
        let p = base.with_jitter(0.25, 99);
        let lo = base.one_way_latency_ms * 0.75 / 1e3;
        let hi = base.one_way_latency_ms * 1.25 / 1e3;
        let mut distinct = false;
        for seq in 0..64u64 {
            let d = p.latency_jittered(seq).as_secs_f64();
            assert!((lo..=hi).contains(&d), "seq {seq}: {d} outside ±25%");
            // Same (seed, seq) replays the identical draw.
            assert_eq!(p.latency_jittered(seq), p.latency_jittered(seq));
            if p.latency_jittered(seq) != p.latency() {
                distinct = true;
            }
        }
        assert!(distinct, "jitter never moved off the base latency");
        // A different seed yields a different stream.
        let q = base.with_jitter(0.25, 100);
        assert!((0..64u64).any(|s| p.latency_jittered(s) != q.latency_jittered(s)));
        // Scaling preserves the relative jitter band.
        let s = p.scaled(0.1);
        assert_eq!(s.jitter_frac, p.jitter_frac);
        assert_eq!(s.jitter_seed, p.jitter_seed);
    }

    #[test]
    fn apply_sleeps_approximately() {
        let p = NetProfile::custom(10.0, 1000.0);
        let t0 = std::time::Instant::now();
        p.apply(0);
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(4), "{elapsed:?}");
    }
}
