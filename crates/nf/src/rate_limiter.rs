//! The token-bucket rate-limiter NF — one of the edge services the paper's
//! introduction motivates alongside firewalls and caches.
//!
//! The limiter polices the client's traffic against a configured rate and
//! burst, either per client (one bucket for everything) or per flow. The
//! bucket levels are part of the migratable state, so a roaming client cannot
//! escape its limit by hopping between cells.

use crate::nf::{
    apply_delta_via_export, Direction, NetworkFunction, NfContext, NfEvent, NfStats, Verdict,
};
use crate::spec::NfKind;
use crate::state::{NfStateDelta, NfStateSnapshot, StateTable};
use gnf_packet::{FiveTuple, Packet};
use gnf_types::{PathMap, SimTime};
use serde::{Deserialize, Serialize};

/// Bucket granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LimiterScope {
    /// One bucket shared by all of the client's traffic.
    PerClient,
    /// One bucket per transport flow.
    PerFlow,
}

/// Rate limiter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateLimiterConfig {
    /// Sustained rate in bytes per second.
    pub rate_bytes_per_sec: f64,
    /// Burst capacity in bytes.
    pub burst_bytes: f64,
    /// Bucket granularity.
    pub scope: LimiterScope,
    /// Which directions are policed.
    pub police_ingress: bool,
    /// Whether downstream traffic is policed too.
    pub police_egress: bool,
}

impl Default for RateLimiterConfig {
    fn default() -> Self {
        RateLimiterConfig {
            rate_bytes_per_sec: 1_250_000.0, // 10 Mbit/s
            burst_bytes: 64_000.0,
            scope: LimiterScope::PerClient,
            police_ingress: true,
            police_egress: true,
        }
    }
}

impl RateLimiterConfig {
    /// A per-client limiter with the given rate (bytes/s) and burst (bytes).
    pub fn per_client(rate_bytes_per_sec: f64, burst_bytes: f64) -> Self {
        RateLimiterConfig {
            rate_bytes_per_sec,
            burst_bytes,
            ..Default::default()
        }
    }
}

/// The shared "all traffic" bucket key used in [`LimiterScope::PerClient`]
/// mode.
fn client_bucket_key() -> FiveTuple {
    FiveTuple::new(
        std::net::Ipv4Addr::UNSPECIFIED,
        std::net::Ipv4Addr::UNSPECIFIED,
        gnf_packet::IpProtocol::Other(255),
        0,
        0,
    )
}

/// The token-bucket rate-limiter NF.
pub struct RateLimiter {
    name: String,
    config: RateLimiterConfig,
    buckets: PathMap<FiveTuple, f64>,
    last_refill: SimTime,
    dropped_bytes: u64,
    conforming_bytes: u64,
    stats: NfStats,
    events: Vec<NfEvent>,
    limit_engaged: bool,
}

impl RateLimiter {
    /// Creates a rate limiter from its configuration.
    pub fn new(name: &str, config: RateLimiterConfig) -> Self {
        RateLimiter {
            name: name.to_string(),
            config,
            buckets: PathMap::default(),
            last_refill: SimTime::ZERO,
            dropped_bytes: 0,
            conforming_bytes: 0,
            stats: NfStats::default(),
            events: Vec::new(),
            limit_engaged: false,
        }
    }

    /// Bytes dropped because the limit was exceeded.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Bytes that conformed to the limit.
    pub fn conforming_bytes(&self) -> u64 {
        self.conforming_bytes
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        if elapsed > 0.0 {
            let add = elapsed * self.config.rate_bytes_per_sec;
            for level in self.buckets.values_mut() {
                *level = (*level + add).min(self.config.burst_bytes);
            }
            self.last_refill = now;
        }
    }

    fn bucket_key(&self, packet: &Packet) -> FiveTuple {
        match self.config.scope {
            LimiterScope::PerClient => client_bucket_key(),
            LimiterScope::PerFlow => packet
                .five_tuple()
                .map(|t| t.canonical())
                .unwrap_or_else(client_bucket_key),
        }
    }

    fn policed(&self, direction: Direction) -> bool {
        match direction {
            Direction::Ingress => self.config.police_ingress,
            Direction::Egress => self.config.police_egress,
        }
    }
}

impl NetworkFunction for RateLimiter {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> NfKind {
        NfKind::RateLimiter
    }

    fn process(&mut self, packet: Packet, direction: Direction, ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());
        if !self.policed(direction) {
            let verdict = Verdict::Forward(packet);
            self.stats.record_verdict(&verdict);
            return verdict;
        }

        self.refill(ctx.now);
        let key = self.bucket_key(&packet);
        let burst = self.config.burst_bytes;
        let level = self.buckets.entry(key).or_insert(burst);
        let cost = packet.len() as f64;

        let verdict = if *level >= cost {
            *level -= cost;
            self.conforming_bytes += packet.len() as u64;
            self.limit_engaged = false;
            Verdict::Forward(packet)
        } else {
            self.dropped_bytes += packet.len() as u64;
            if !self.limit_engaged {
                self.limit_engaged = true;
                ctx.raise(
                    &mut self.events,
                    NfEvent::warning(
                        "rate-limit",
                        format!("client exceeded {} B/s", self.config.rate_bytes_per_sec),
                    ),
                );
            }
            Verdict::Drop("rate limit exceeded".into())
        };
        self.stats.record_verdict(&verdict);
        verdict
    }

    fn stats(&self) -> NfStats {
        self.stats
    }

    fn fields_consulted(&self) -> crate::nf::FieldsConsulted {
        // Deliberately opaque, always: every packet consumes tokens, so even
        // a forwarded packet's processing changes the state later verdicts
        // depend on — a wildcard bypass would let traffic through without
        // debiting the bucket.
        crate::nf::FieldsConsulted::Opaque
    }

    fn export_state(&self) -> NfStateSnapshot {
        NfStateSnapshot::RateLimiter {
            buckets: StateTable(self.buckets.clone()),
            last_refill_nanos: self.last_refill.as_nanos(),
        }
    }

    fn import_state(&mut self, state: NfStateSnapshot) {
        if let NfStateSnapshot::RateLimiter {
            buckets,
            last_refill_nanos,
        } = state
        {
            buckets.merge_into(&mut self.buckets);
            self.last_refill = SimTime::from_nanos(last_refill_nanos);
        }
    }

    fn replace_state(&mut self, state: NfStateSnapshot) {
        if matches!(state, NfStateSnapshot::RateLimiter { .. }) {
            self.buckets.clear();
        }
        self.import_state(state);
    }

    fn apply_delta(&mut self, delta: &NfStateDelta) {
        let NfStateDelta::RateLimiter {
            upserts,
            removals,
            last_refill_nanos,
        } = delta
        else {
            return apply_delta_via_export(self, delta);
        };
        for key in removals {
            self.buckets.remove(key);
        }
        for (key, level) in upserts {
            self.buckets.insert(*key, *level);
        }
        self.last_refill = SimTime::from_nanos(*last_refill_nanos);
    }

    fn drain_events(&mut self) -> Vec<NfEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_packet::builder;
    use gnf_types::MacAddr;
    use std::net::Ipv4Addr;

    fn packet_of_size(payload: usize) -> Packet {
        builder::udp_packet(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(192, 0, 2, 9),
            4000,
            5000,
            &vec![0u8; payload],
        )
    }

    #[test]
    fn traffic_within_burst_is_forwarded() {
        let mut rl = RateLimiter::new("rl", RateLimiterConfig::per_client(10_000.0, 5_000.0));
        let ctx = NfContext::at(SimTime::from_secs(1));
        for _ in 0..4 {
            let v = rl.process(packet_of_size(1000), Direction::Ingress, &ctx);
            assert!(v.is_forward());
        }
        assert_eq!(rl.dropped_bytes(), 0);
    }

    #[test]
    fn traffic_beyond_burst_is_dropped_until_tokens_refill() {
        let mut rl = RateLimiter::new("rl", RateLimiterConfig::per_client(1_000.0, 2_000.0));
        let t1 = NfContext::at(SimTime::from_secs(1));
        // Exhaust the burst.
        let mut forwarded = 0;
        let mut dropped = 0;
        for _ in 0..5 {
            match rl.process(packet_of_size(1000), Direction::Ingress, &t1) {
                Verdict::Forward(_) => forwarded += 1,
                Verdict::Drop(_) => dropped += 1,
                Verdict::Reply(_) => unreachable!(),
            }
        }
        assert!(forwarded <= 2, "burst is 2000 B, ~1042 B packets");
        assert!(dropped >= 3);

        // After 10 seconds at 1000 B/s the bucket has refilled to its burst.
        let t2 = NfContext::at(SimTime::from_secs(11));
        assert!(rl
            .process(packet_of_size(1000), Direction::Ingress, &t2)
            .is_forward());

        // The warning event is emitted once per engagement.
        let events = rl.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, "rate-limit");
    }

    #[test]
    fn per_flow_scope_gives_each_flow_its_own_bucket() {
        let config = RateLimiterConfig {
            rate_bytes_per_sec: 1_000.0,
            burst_bytes: 1_500.0,
            scope: LimiterScope::PerFlow,
            police_ingress: true,
            police_egress: true,
        };
        let mut rl = RateLimiter::new("rl", config);
        let ctx = NfContext::at(SimTime::from_secs(1));
        let flow_a = builder::udp_packet(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(192, 0, 2, 9),
            4000,
            5000,
            &vec![0u8; 1000],
        );
        let flow_b = builder::udp_packet(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(192, 0, 2, 9),
            4001,
            5000,
            &vec![0u8; 1000],
        );
        assert!(rl
            .process(flow_a.clone(), Direction::Ingress, &ctx)
            .is_forward());
        // Flow A's bucket is now nearly empty, but flow B gets its own bucket.
        assert!(rl.process(flow_a, Direction::Ingress, &ctx).is_drop());
        assert!(rl.process(flow_b, Direction::Ingress, &ctx).is_forward());
    }

    #[test]
    fn unpoliced_direction_passes_freely() {
        let config = RateLimiterConfig {
            police_egress: false,
            burst_bytes: 100.0,
            ..RateLimiterConfig::default()
        };
        let mut rl = RateLimiter::new("rl", config);
        let ctx = NfContext::at(SimTime::from_secs(1));
        for _ in 0..10 {
            assert!(rl
                .process(packet_of_size(1400), Direction::Egress, &ctx)
                .is_forward());
        }
    }

    #[test]
    fn bucket_state_migrates_with_the_client() {
        let mut rl1 = RateLimiter::new("rl", RateLimiterConfig::per_client(1_000.0, 2_000.0));
        let ctx = NfContext::at(SimTime::from_secs(1));
        // Drain the bucket on station 1.
        while rl1
            .process(packet_of_size(1000), Direction::Ingress, &ctx)
            .is_forward()
        {}
        let snapshot = rl1.export_state();

        // On station 2, without imported state the client would get a fresh
        // burst; with the snapshot the limit carries over.
        let mut rl2 = RateLimiter::new("rl", RateLimiterConfig::per_client(1_000.0, 2_000.0));
        rl2.import_state(snapshot);
        assert!(rl2
            .process(packet_of_size(1000), Direction::Ingress, &ctx)
            .is_drop());
    }

    #[test]
    fn long_idle_periods_cap_the_bucket_at_burst() {
        let mut rl = RateLimiter::new("rl", RateLimiterConfig::per_client(1_000_000.0, 3_000.0));
        let t0 = NfContext::at(SimTime::from_secs(1));
        rl.process(packet_of_size(100), Direction::Ingress, &t0);
        // A very long idle period must not accumulate unbounded tokens.
        let t1 = NfContext::at(SimTime::from_secs(3_600));
        let mut forwarded = 0;
        while rl
            .process(packet_of_size(1000), Direction::Ingress, &t1)
            .is_forward()
        {
            forwarded += 1;
            assert!(forwarded < 10, "bucket should cap at burst");
        }
        assert!(forwarded <= 3);
    }
}
