//! A lightweight intrusion-detection NF.
//!
//! The paper's Manager "relays notifications ... such as an intrusion attempt
//! or detected malware" from NFs. This IDS provides that signal: it watches
//! the client's traffic for (a) SYN-flood behaviour (too many TCP SYNs from
//! one source within a window) and (b) payload signatures, and raises alert
//! events that the Agent forwards to the Manager. Detection is monitor-only by
//! default; it can optionally drop offending packets.

use crate::nf::{
    apply_delta_via_export, Direction, NetworkFunction, NfContext, NfEvent, NfStats, Verdict,
};
use crate::spec::NfKind;
use crate::state::{NfStateDelta, NfStateSnapshot};
use gnf_packet::Packet;
use gnf_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// IDS configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdsConfig {
    /// Number of TCP SYNs from a single source within the window that
    /// triggers a SYN-flood alert.
    pub syn_flood_threshold: u64,
    /// Length of the SYN-counting window in seconds.
    pub window_secs: u64,
    /// Byte sequences treated as malicious payload signatures.
    pub signatures: Vec<Vec<u8>>,
    /// Whether packets matching a signature are dropped (true) or only
    /// reported (false).
    pub block_on_signature: bool,
}

impl Default for IdsConfig {
    fn default() -> Self {
        IdsConfig {
            syn_flood_threshold: 100,
            window_secs: 10,
            signatures: vec![b"MALWARE-TEST-SIGNATURE".to_vec()],
            block_on_signature: false,
        }
    }
}

/// The IDS NF.
pub struct Ids {
    name: String,
    config: IdsConfig,
    syn_counts: BTreeMap<Ipv4Addr, u64>,
    window_start: SimTime,
    alerted_sources: Vec<Ipv4Addr>,
    signature_matches: u64,
    stats: NfStats,
    events: Vec<NfEvent>,
}

impl Ids {
    /// Creates an IDS from its configuration.
    pub fn new(name: &str, config: IdsConfig) -> Self {
        Ids {
            name: name.to_string(),
            config,
            syn_counts: BTreeMap::new(),
            window_start: SimTime::ZERO,
            alerted_sources: Vec::new(),
            signature_matches: 0,
            stats: NfStats::default(),
            events: Vec::new(),
        }
    }

    /// Number of payload-signature matches seen so far.
    pub fn signature_matches(&self) -> u64 {
        self.signature_matches
    }

    /// Sources that have triggered a SYN-flood alert in the current window.
    pub fn alerted_sources(&self) -> &[Ipv4Addr] {
        &self.alerted_sources
    }

    fn roll_window(&mut self, now: SimTime) {
        let window = SimDuration::from_secs(self.config.window_secs);
        if now.duration_since(self.window_start) >= window {
            self.syn_counts.clear();
            self.alerted_sources.clear();
            self.window_start = now;
        }
    }

    fn payload_of(packet: &Packet) -> Option<&[u8]> {
        packet.tcp_payload().or_else(|| packet.udp_payload())
    }

    fn matches_signature(&self, payload: &[u8]) -> bool {
        self.config
            .signatures
            .iter()
            .any(|sig| contains(payload, sig))
    }

    /// Inspects one packet (window already rolled): SYN counting plus
    /// signature matching. Works entirely off the fast header scan
    /// (`tcp_flags`/`five_tuple`/raw payload), so the pass-through path
    /// never materializes the packet's typed layer view.
    fn inspect(&mut self, packet: Packet, ctx: &NfContext) -> Verdict {
        // SYN-flood detection.
        if let Some(flags) = packet.tcp_flags() {
            if flags.syn && !flags.ack {
                let src = packet
                    .five_tuple()
                    .expect("TCP flags imply a transport flow")
                    .src_ip;
                let count = self.syn_counts.entry(src).or_insert(0);
                *count += 1;
                if *count == self.config.syn_flood_threshold && !self.alerted_sources.contains(&src)
                {
                    self.alerted_sources.push(src);
                    ctx.raise(
                        &mut self.events,
                        NfEvent::alert(
                            "syn-flood",
                            format!(
                                "{} sent {} SYNs within {}s",
                                src, count, self.config.window_secs
                            ),
                        ),
                    );
                }
            }
        }

        // Signature matching.
        let signature_hit = !self.config.signatures.is_empty()
            && Self::payload_of(&packet)
                .map(|p| self.matches_signature(p))
                .unwrap_or(false);
        if signature_hit {
            self.signature_matches += 1;
            ctx.raise(
                &mut self.events,
                NfEvent::alert(
                    "malware-signature",
                    format!("payload signature matched in {}", packet.summary()),
                ),
            );
            if self.config.block_on_signature {
                return Verdict::Drop("malicious payload signature".into());
            }
        }
        Verdict::Forward(packet)
    }
}

/// True when the non-empty `needle` occurs in `haystack`. Skips to each
/// occurrence of the needle's first byte and compares only there, instead
/// of comparing a full window at every offset.
fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    let Some((first, rest)) = needle.split_first() else {
        return false;
    };
    let mut tail = haystack;
    while let Some(at) = tail.iter().position(|byte| byte == first) {
        tail = &tail[at + 1..];
        if tail.starts_with(rest) {
            return true;
        }
    }
    false
}

impl NetworkFunction for Ids {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> NfKind {
        NfKind::Ids
    }

    fn process(&mut self, packet: Packet, _direction: Direction, ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());
        self.roll_window(ctx.now);
        let verdict = self.inspect(packet, ctx);
        self.stats.record_verdict(&verdict);
        verdict
    }

    fn stats(&self) -> NfStats {
        self.stats
    }

    fn fields_consulted(&self) -> crate::nf::FieldsConsulted {
        // Deliberately opaque, always: detection reads the payload (signature
        // scan) and TCP flags and updates the per-source SYN window — a
        // wildcard bypass would blind the detector to exactly the repetitive
        // traffic (floods) it exists to count.
        crate::nf::FieldsConsulted::Opaque
    }

    fn export_state(&self) -> NfStateSnapshot {
        NfStateSnapshot::Ids {
            syn_counts: self.syn_counts.clone(),
            window_start_nanos: self.window_start.as_nanos(),
        }
    }

    fn import_state(&mut self, state: NfStateSnapshot) {
        if let NfStateSnapshot::Ids {
            syn_counts,
            window_start_nanos,
        } = state
        {
            self.syn_counts = syn_counts;
            self.window_start = SimTime::from_nanos(window_start_nanos);
        }
    }

    // IDS import already replaces its window wholesale, so replace == import.
    fn replace_state(&mut self, state: NfStateSnapshot) {
        self.import_state(state);
    }

    fn apply_delta(&mut self, delta: &NfStateDelta) {
        let NfStateDelta::Ids {
            upserts,
            removals,
            window_start_nanos,
        } = delta
        else {
            return apply_delta_via_export(self, delta);
        };
        for source in removals {
            self.syn_counts.remove(source);
        }
        for (source, count) in upserts {
            self.syn_counts.insert(*source, *count);
        }
        self.window_start = SimTime::from_nanos(*window_start_nanos);
    }

    fn drain_events(&mut self) -> Vec<NfEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::NfEventSeverity;
    use gnf_packet::builder;
    use gnf_types::MacAddr;

    fn syn_from(src: Ipv4Addr, port: u16) -> Packet {
        builder::tcp_syn(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            src,
            Ipv4Addr::new(203, 0, 113, 9),
            port,
            80,
        )
    }

    #[test]
    fn syn_flood_raises_a_single_alert_per_window() {
        let config = IdsConfig {
            syn_flood_threshold: 10,
            window_secs: 10,
            ..Default::default()
        };
        let mut ids = Ids::new("ids", config);
        let attacker = Ipv4Addr::new(10, 0, 0, 66);
        let ctx = NfContext::at(SimTime::from_secs(1));
        for i in 0..25 {
            let v = ids.process(syn_from(attacker, 10_000 + i), Direction::Ingress, &ctx);
            assert!(v.is_forward(), "IDS is monitor-only by default");
        }
        let events = ids.drain_events();
        assert_eq!(events.len(), 1, "one alert per source per window");
        assert_eq!(events[0].severity, NfEventSeverity::Alert);
        assert_eq!(events[0].category, "syn-flood");
        assert_eq!(ids.alerted_sources(), &[attacker]);
    }

    #[test]
    fn window_roll_resets_counts() {
        let config = IdsConfig {
            syn_flood_threshold: 5,
            window_secs: 10,
            ..Default::default()
        };
        let mut ids = Ids::new("ids", config);
        let src = Ipv4Addr::new(10, 0, 0, 5);
        let early = NfContext::at(SimTime::from_secs(1));
        for i in 0..4 {
            ids.process(syn_from(src, 20_000 + i), Direction::Ingress, &early);
        }
        // A new window starts; the earlier 4 SYNs no longer count.
        let late = NfContext::at(SimTime::from_secs(30));
        for i in 0..4 {
            ids.process(syn_from(src, 21_000 + i), Direction::Ingress, &late);
        }
        assert!(ids.drain_events().is_empty());
    }

    #[test]
    fn below_threshold_traffic_raises_nothing() {
        let mut ids = Ids::new("ids", IdsConfig::default());
        let ctx = NfContext::at(SimTime::from_secs(1));
        for i in 0..20 {
            ids.process(
                syn_from(Ipv4Addr::new(10, 0, 0, 2), 30_000 + i),
                Direction::Ingress,
                &ctx,
            );
        }
        assert!(ids.drain_events().is_empty());
    }

    proptest::proptest! {
        #[test]
        fn signature_scan_equals_the_window_scan(
            haystack in proptest::collection::vec(0u8..3, 0..24),
            needle in proptest::collection::vec(0u8..3, 0..4),
        ) {
            // A three-letter alphabet makes repeated first bytes, partial
            // matches and matches at either end common.
            let windows = !needle.is_empty()
                && haystack.windows(needle.len()).any(|w| w == needle.as_slice());
            proptest::prop_assert_eq!(contains(&haystack, &needle), windows);
        }
    }

    #[test]
    fn signature_matching_detects_and_optionally_blocks() {
        let mut monitor = Ids::new("ids", IdsConfig::default());
        let ctx = NfContext::at(SimTime::from_secs(1));
        let malicious = builder::tcp_data(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            40_000,
            80,
            b"xxxxMALWARE-TEST-SIGNATUREyyyy",
        );
        assert!(monitor
            .process(malicious.clone(), Direction::Ingress, &ctx)
            .is_forward());
        assert_eq!(monitor.signature_matches(), 1);
        let events = monitor.drain_events();
        assert_eq!(events[0].category, "malware-signature");

        let mut blocker = Ids::new(
            "ids",
            IdsConfig {
                block_on_signature: true,
                ..IdsConfig::default()
            },
        );
        assert!(blocker
            .process(malicious, Direction::Ingress, &ctx)
            .is_drop());
    }

    #[test]
    fn benign_payloads_pass() {
        let mut ids = Ids::new("ids", IdsConfig::default());
        let ctx = NfContext::at(SimTime::from_secs(1));
        let benign = builder::http_get(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            40_100,
            "www.example",
            "/",
        );
        assert!(ids.process(benign, Direction::Ingress, &ctx).is_forward());
        assert_eq!(ids.signature_matches(), 0);
    }

    #[test]
    fn syn_window_state_migrates() {
        let config = IdsConfig {
            syn_flood_threshold: 10,
            window_secs: 60,
            ..Default::default()
        };
        let mut ids1 = Ids::new("ids", config.clone());
        let attacker = Ipv4Addr::new(10, 0, 0, 66);
        let ctx = NfContext::at(SimTime::from_secs(5));
        for i in 0..6 {
            ids1.process(syn_from(attacker, 11_000 + i), Direction::Ingress, &ctx);
        }
        let snapshot = ids1.export_state();

        // The remaining SYNs arrive after the migration; the alert still fires
        // because the count carried over.
        let mut ids2 = Ids::new("ids", config);
        ids2.import_state(snapshot);
        let ctx2 = NfContext::at(SimTime::from_secs(8));
        for i in 0..4 {
            ids2.process(syn_from(attacker, 12_000 + i), Direction::Ingress, &ctx2);
        }
        let events = ids2.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, "syn-flood");
    }
}
