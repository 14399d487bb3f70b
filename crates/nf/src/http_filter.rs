//! The HTTP filter NF from the paper's demo: a transparent URL/host filter
//! that inspects HTTP requests in the client's upstream traffic and blocks
//! requests matching a provider-configured block list.
//!
//! Blocked requests are answered on behalf of the server with an HTTP `403
//! Forbidden` page (so the user sees an explanation rather than a hang), and
//! an alert is queued for the Manager.

use crate::nf::{Direction, NetworkFunction, NfContext, NfEvent, NfStats, Verdict};
use crate::spec::NfKind;
use gnf_packet::{builder, HttpResponse, Packet};
use serde::{Deserialize, Serialize};

/// How a block-list entry is matched against the request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UrlPattern {
    /// The Host header equals this value (case-insensitive).
    HostExact(String),
    /// The Host header ends with this suffix (matches a domain and all of its
    /// subdomains).
    HostSuffix(String),
    /// `host + path` contains this substring.
    UrlContains(String),
    /// The path starts with this prefix (any host).
    PathPrefix(String),
}

impl UrlPattern {
    /// True when the pattern matches the request's host and path. Hosts
    /// compare ASCII-case-insensitively, paths exactly (against the
    /// lower-cased needle, for `UrlContains`); every pattern compares in
    /// place, without allocating.
    pub fn matches(&self, host: &str, path: &str) -> bool {
        match self {
            UrlPattern::HostExact(h) => host.eq_ignore_ascii_case(h),
            UrlPattern::HostSuffix(suffix) => {
                let (host, suffix) = (host.as_bytes(), suffix.as_bytes());
                match host.len().checked_sub(suffix.len()) {
                    Some(0) => host.eq_ignore_ascii_case(suffix),
                    // A longer host matches on a label boundary only.
                    Some(at) => host[at - 1] == b'.' && host[at..].eq_ignore_ascii_case(suffix),
                    None => false,
                }
            }
            UrlPattern::UrlContains(needle) => {
                // The URL is the lower-cased host followed by the path as
                // sent; it must contain the lower-cased needle. Windows are
                // read across the host/path seam rather than built.
                let (host, path, needle) = (host.as_bytes(), path.as_bytes(), needle.as_bytes());
                let url = |at: usize| match host.get(at) {
                    Some(byte) => byte.to_ascii_lowercase(),
                    None => path[at - host.len()],
                };
                let Some(last) = (host.len() + path.len()).checked_sub(needle.len()) else {
                    return false;
                };
                (0..=last).any(|start| {
                    needle
                        .iter()
                        .enumerate()
                        .all(|(k, wanted)| url(start + k) == wanted.to_ascii_lowercase())
                })
            }
            UrlPattern::PathPrefix(prefix) => path.starts_with(prefix.as_str()),
        }
    }
}

/// HTTP filter configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HttpFilterConfig {
    /// Requests matching any of these patterns are blocked.
    pub blocked: Vec<UrlPattern>,
    /// When true, blocked requests receive a 403 response; when false they are
    /// silently dropped.
    pub respond_with_403: bool,
}

impl HttpFilterConfig {
    /// A configuration blocking the given host suffixes, responding with 403.
    pub fn block_hosts(hosts: &[&str]) -> Self {
        HttpFilterConfig {
            blocked: hosts
                .iter()
                .map(|h| UrlPattern::HostSuffix((*h).to_string()))
                .collect(),
            respond_with_403: true,
        }
    }
}

/// The HTTP filter NF.
pub struct HttpFilter {
    name: String,
    config: HttpFilterConfig,
    stats: NfStats,
    blocked_requests: u64,
    inspected_requests: u64,
    events: Vec<NfEvent>,
}

impl HttpFilter {
    /// Creates an HTTP filter from its configuration.
    pub fn new(name: &str, config: HttpFilterConfig) -> Self {
        HttpFilter {
            name: name.to_string(),
            config,
            stats: NfStats::default(),
            blocked_requests: 0,
            inspected_requests: 0,
            events: Vec::new(),
        }
    }

    /// Number of HTTP requests inspected so far.
    pub fn inspected_requests(&self) -> u64 {
        self.inspected_requests
    }

    /// Number of requests blocked so far.
    pub fn blocked_requests(&self) -> u64 {
        self.blocked_requests
    }

    fn is_blocked(&self, host: &str, path: &str) -> bool {
        self.config.blocked.iter().any(|p| p.matches(host, path))
    }
}

impl NetworkFunction for HttpFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> NfKind {
        NfKind::HttpFilter
    }

    fn process(&mut self, packet: Packet, direction: Direction, ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());

        // Only client→network traffic carries requests worth inspecting.
        // The request is read through a view borrowing the frame; only a
        // blocked request's URL is copied out (for the event and the drop
        // reason), so a pass-through request allocates nothing.
        let blocked_url = match direction {
            Direction::Ingress => packet.http_request_view(),
            Direction::Egress => None,
        }
        .and_then(|req| {
            self.inspected_requests += 1;
            let host = req.host().unwrap_or("");
            self.is_blocked(host, req.path)
                .then(|| format!("{host}{}", req.path))
        });

        let verdict = match blocked_url {
            Some(url) => {
                self.blocked_requests += 1;
                ctx.raise(
                    &mut self.events,
                    NfEvent::warning("blocked-url", format!("blocked HTTP request to {url}")),
                );
                if self.config.respond_with_403 {
                    let tuple = packet
                        .five_tuple()
                        .expect("an HTTP request is always TCP/IPv4");
                    let reply = builder::http_response(
                        packet.dst_mac(),
                        packet.src_mac(),
                        tuple.dst_ip,
                        tuple.src_ip,
                        tuple.src_port,
                        &HttpResponse::forbidden(),
                    );
                    Verdict::Reply(vec![reply])
                } else {
                    Verdict::Drop(format!("blocked URL {url}").into())
                }
            }
            None => Verdict::Forward(packet),
        };
        self.stats.record_verdict(&verdict);
        verdict
    }

    fn stats(&self) -> NfStats {
        self.stats
    }

    fn drain_events(&mut self) -> Vec<NfEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_types::{MacAddr, SimTime};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn ctx() -> NfContext {
        NfContext::at(SimTime::from_secs(1))
    }

    fn http_to(host: &str, path: &str) -> Packet {
        builder::http_get(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(198, 51, 100, 7),
            40_100,
            host,
            path,
        )
    }

    #[test]
    fn pattern_matching_variants() {
        assert!(UrlPattern::HostExact("ads.example".into()).matches("ADS.example", "/"));
        assert!(!UrlPattern::HostExact("ads.example".into()).matches("cdn.ads.example", "/"));
        assert!(UrlPattern::HostSuffix("example.org".into()).matches("a.b.example.org", "/"));
        assert!(UrlPattern::HostSuffix("example.org".into()).matches("example.org", "/"));
        assert!(!UrlPattern::HostSuffix("example.org".into()).matches("badexample.org", "/"));
        assert!(UrlPattern::UrlContains("tracker".into()).matches("x.com", "/tracker.js"));
        // Across the host/path seam: the host in any case, the path as sent.
        let seam = UrlPattern::UrlContains("Example.ORG/ad".into());
        assert!(seam.matches("WWW.example.org", "/ads"));
        assert!(!seam.matches("WWW.example.org", "/Ads"));
        assert!(!seam.matches("example.org", "/"));
        assert!(UrlPattern::PathPrefix("/admin".into()).matches("any.host", "/admin/panel"));
        assert!(!UrlPattern::PathPrefix("/admin".into()).matches("any.host", "/public"));
    }

    /// The historical matcher: lower-case everything, then compare. The
    /// specification the in-place comparisons are held to.
    fn lower_casing_reference(pattern: &UrlPattern, host: &str, path: &str) -> bool {
        let host = host.to_ascii_lowercase();
        match pattern {
            UrlPattern::HostExact(h) => host == h.to_ascii_lowercase(),
            UrlPattern::HostSuffix(suffix) => {
                let suffix = suffix.to_ascii_lowercase();
                host == suffix || host.ends_with(&format!(".{suffix}"))
            }
            UrlPattern::UrlContains(needle) => {
                format!("{host}{path}").contains(&needle.to_ascii_lowercase())
            }
            UrlPattern::PathPrefix(prefix) => path.starts_with(prefix.as_str()),
        }
    }

    fn all_patterns(text: &str) -> [UrlPattern; 4] {
        [
            UrlPattern::HostExact(text.into()),
            UrlPattern::HostSuffix(text.into()),
            UrlPattern::UrlContains(text.into()),
            UrlPattern::PathPrefix(text.into()),
        ]
    }

    #[test]
    fn pattern_matching_boundaries_equal_the_reference() {
        let hosts = [
            "",
            ".",
            "org",
            "example.org",
            "EXAMPLE.ORG",
            ".example.org",
            "badexample.org",
            "a.Example.Org",
            "example.org.",
            "exämple.org",
        ];
        for text in ["", ".", "example.org", "Example.ORG", "ämple.org", "/a"] {
            for pattern in all_patterns(text) {
                for host in hosts {
                    for path in ["/", "/a/Example.org", "/A"] {
                        assert_eq!(
                            pattern.matches(host, path),
                            lower_casing_reference(&pattern, host, path),
                            "{pattern:?} on {host:?} {path:?}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn pattern_matching_equals_the_lower_casing_reference(
            stem in "[a-bA-B.]{0,5}",
            text in "[a-bA-B./]{0,5}",
            path in "/[a-bA-B/]{0,5}",
            glue in 0u8..3,
            flips in any::<u32>(),
        ) {
            // A host that often ends in a re-cased copy of the pattern, on
            // and off a label boundary, so matches are as common as misses.
            let recased: String = text
                .chars()
                .enumerate()
                .map(|(i, c)| if flips >> i & 1 == 1 { c.to_ascii_uppercase() } else { c })
                .collect();
            let host = match glue {
                0 => stem,
                1 => format!("{stem}{recased}"),
                _ => format!("{stem}.{recased}"),
            };
            for pattern in all_patterns(&text) {
                prop_assert!(
                    pattern.matches(&host, &path) == lower_casing_reference(&pattern, &host, &path),
                    "{:?} on {:?} {:?}", pattern, host, path
                );
            }
        }
    }

    #[test]
    fn allowed_requests_are_forwarded() {
        let mut filter = HttpFilter::new("hf", HttpFilterConfig::block_hosts(&["blocked.example"]));
        let verdict = filter.process(http_to("ok.example", "/"), Direction::Ingress, &ctx());
        assert!(verdict.is_forward());
        assert_eq!(filter.inspected_requests(), 1);
        assert_eq!(filter.blocked_requests(), 0);
        assert!(filter.drain_events().is_empty());
    }

    #[test]
    fn blocked_requests_get_a_403_reply() {
        let mut filter = HttpFilter::new("hf", HttpFilterConfig::block_hosts(&["blocked.example"]));
        let verdict = filter.process(
            http_to("www.blocked.example", "/page"),
            Direction::Ingress,
            &ctx(),
        );
        let Verdict::Reply(replies) = verdict else {
            panic!("expected a 403 reply");
        };
        let resp = HttpResponse::parse(replies[0].tcp_payload().unwrap()).unwrap();
        assert_eq!(resp.status, 403);
        // The reply heads back to the client.
        assert_eq!(replies[0].ipv4().unwrap().dst, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(filter.blocked_requests(), 1);

        let events = filter.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, "blocked-url");
        assert_eq!(
            events[0].message,
            "blocked HTTP request to www.blocked.example/page"
        );
        assert!(
            filter.drain_events().is_empty(),
            "events drain exactly once"
        );
    }

    #[test]
    fn silent_drop_mode() {
        let config = HttpFilterConfig {
            blocked: vec![UrlPattern::HostSuffix("blocked.example".into())],
            respond_with_403: false,
        };
        let mut filter = HttpFilter::new("hf", config);
        let verdict = filter.process(http_to("Blocked.Example", "/x"), Direction::Ingress, &ctx());
        // The reason and the event quote the host as the client sent it.
        assert_eq!(
            verdict,
            Verdict::Drop("blocked URL Blocked.Example/x".into())
        );
        assert_eq!(
            filter.drain_events()[0].message,
            "blocked HTTP request to Blocked.Example/x"
        );
    }

    #[test]
    fn non_http_and_downstream_traffic_is_not_inspected() {
        let mut filter = HttpFilter::new("hf", HttpFilterConfig::block_hosts(&["blocked.example"]));
        // Downstream direction: even a blocked host's packet is forwarded.
        let verdict = filter.process(http_to("blocked.example", "/"), Direction::Egress, &ctx());
        assert!(verdict.is_forward());
        // Non-HTTP traffic.
        let dns = builder::dns_query(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(8, 8, 8, 8),
            5353,
            1,
            "blocked.example",
        );
        assert!(filter.process(dns, Direction::Ingress, &ctx()).is_forward());
        assert_eq!(filter.inspected_requests(), 0);
    }

    #[test]
    fn stats_track_blocked_and_forwarded() {
        let mut filter = HttpFilter::new("hf", HttpFilterConfig::block_hosts(&["bad.example"]));
        filter.process(http_to("good.example", "/"), Direction::Ingress, &ctx());
        filter.process(http_to("bad.example", "/"), Direction::Ingress, &ctx());
        let stats = filter.stats();
        assert_eq!(stats.packets_in, 2);
        assert_eq!(stats.packets_forwarded, 1);
        assert_eq!(stats.packets_replied, 1);
    }
}
