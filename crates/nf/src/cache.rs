//! A transparent HTTP cache NF — one of the edge services the paper's
//! introduction lists as a candidate for placement at the network edge.
//!
//! The cache watches the client's HTTP GET requests. On a hit it answers
//! directly from the edge (a [`Verdict::Reply`]); on a miss it remembers the
//! outstanding request and, when the origin's `200 OK` response flows back
//! downstream, stores the body for future requests. Entries are evicted in
//! least-recently-used order when the configured capacity is exceeded.

use crate::nf::{Direction, NetworkFunction, NfContext, NfStats, Verdict};
use crate::spec::NfKind;
use crate::state::NfStateSnapshot;
use gnf_packet::{builder, FiveTuple, HttpMethod, HttpResponse, Packet};
use gnf_types::PathMap;
use std::collections::VecDeque;

/// The transparent HTTP cache NF.
pub struct HttpCache {
    name: String,
    capacity: usize,
    /// Cached URL → serialized HTTP response bytes.
    entries: PathMap<String, Vec<u8>>,
    /// LRU order: front = least recently used.
    lru: VecDeque<String>,
    /// Outstanding requests keyed by canonical flow: URL awaiting a response.
    pending: PathMap<FiveTuple, String>,
    hits: u64,
    misses: u64,
    stored: u64,
    stats: NfStats,
}

impl HttpCache {
    /// Creates a cache holding at most `capacity` responses.
    pub fn new(name: &str, capacity: usize) -> Self {
        HttpCache {
            name: name.to_string(),
            capacity: capacity.max(1),
            entries: PathMap::default(),
            lru: VecDeque::new(),
            pending: PathMap::default(),
            hits: 0,
            misses: 0,
            stored: 0,
            stats: NfStats::default(),
        }
    }

    /// Cache hits served from the edge.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that had to go to the origin.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Responses stored so far.
    pub fn stored(&self) -> u64 {
        self.stored
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn touch(&mut self, url: &str) {
        if let Some(pos) = self.lru.iter().position(|u| u == url) {
            self.lru.remove(pos);
        }
        self.lru.push_back(url.to_string());
    }

    fn insert(&mut self, url: String, response: Vec<u8>) {
        if !self.entries.contains_key(&url) && self.entries.len() >= self.capacity {
            if let Some(evicted) = self.lru.pop_front() {
                self.entries.remove(&evicted);
            }
        }
        self.entries.insert(url.clone(), response);
        self.touch(&url);
        self.stored += 1;
    }
}

impl NetworkFunction for HttpCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> NfKind {
        NfKind::HttpCache
    }

    fn process(&mut self, packet: Packet, direction: Direction, _ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());

        let verdict = match direction {
            Direction::Ingress => {
                if let Some(req) = packet.http_request_view() {
                    if req.method == HttpMethod::Get {
                        let url = req.url();
                        if let Some(cached) = self.entries.get(&url).cloned() {
                            self.hits += 1;
                            self.touch(&url);
                            let tuple = packet.five_tuple().expect("HTTP request is TCP/IPv4");
                            let response = HttpResponse::parse(&cached)
                                .unwrap_or_else(|_| HttpResponse::ok(&cached));
                            let reply = builder::http_response(
                                packet.dst_mac(),
                                packet.src_mac(),
                                tuple.dst_ip,
                                tuple.src_ip,
                                tuple.src_port,
                                &response,
                            );
                            Verdict::Reply(vec![reply])
                        } else {
                            self.misses += 1;
                            if let Some(tuple) = packet.five_tuple() {
                                self.pending.insert(tuple.canonical(), url);
                            }
                            Verdict::Forward(packet)
                        }
                    } else {
                        Verdict::Forward(packet)
                    }
                } else {
                    Verdict::Forward(packet)
                }
            }
            Direction::Egress => {
                // Downstream: look for responses answering a pending request.
                if let (Some(tuple), Some(payload)) = (packet.five_tuple(), packet.tcp_payload()) {
                    let key = tuple.canonical();
                    if let Some(url) = self.pending.get(&key).cloned() {
                        if let Ok(response) = HttpResponse::parse(payload) {
                            if response.status == 200 {
                                self.insert(url, payload.to_vec());
                            }
                            self.pending.remove(&key);
                        }
                    }
                }
                Verdict::Forward(packet)
            }
        };
        self.stats.record_verdict(&verdict);
        verdict
    }

    fn stats(&self) -> NfStats {
        self.stats
    }

    fn export_state(&self) -> NfStateSnapshot {
        let entries = self
            .lru
            .iter()
            .filter_map(|url| {
                self.entries
                    .get(url)
                    .map(|body| (url.clone(), body.clone()))
            })
            .collect();
        NfStateSnapshot::HttpCache { entries }
    }

    fn import_state(&mut self, state: NfStateSnapshot) {
        if let NfStateSnapshot::HttpCache { entries } = state {
            for (url, body) in entries {
                self.insert(url, body);
                // insert() counts stores; imported entries are not new stores.
                self.stored -= 1;
            }
        }
    }

    fn replace_state(&mut self, state: NfStateSnapshot) {
        if matches!(state, NfStateSnapshot::HttpCache { .. }) {
            self.entries.clear();
            self.lru.clear();
        }
        self.import_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_types::{MacAddr, SimTime};
    use std::net::Ipv4Addr;

    fn ctx() -> NfContext {
        NfContext::at(SimTime::from_secs(1))
    }
    fn client_ip() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }
    fn server_ip() -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, 7)
    }

    fn get(host: &str, path: &str, src_port: u16) -> Packet {
        builder::http_get(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            server_ip(),
            src_port,
            host,
            path,
        )
    }

    fn response(body: &[u8], dst_port: u16) -> Packet {
        builder::http_response(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            client_ip(),
            dst_port,
            &HttpResponse::ok(body),
        )
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut cache = HttpCache::new("cache", 16);
        // First request misses and is forwarded to the origin.
        let v = cache.process(
            get("cdn.example", "/logo.png", 41_000),
            Direction::Ingress,
            &ctx(),
        );
        assert!(v.is_forward());
        assert_eq!(cache.misses(), 1);

        // The origin's 200 response fills the cache.
        let v = cache.process(response(b"PNG-BYTES", 41_000), Direction::Egress, &ctx());
        assert!(v.is_forward());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stored(), 1);

        // A later request (different flow) is served from the edge.
        let v = cache.process(
            get("cdn.example", "/logo.png", 41_001),
            Direction::Ingress,
            &ctx(),
        );
        let Verdict::Reply(replies) = v else {
            panic!("expected a cache hit reply")
        };
        let served = HttpResponse::parse(replies[0].tcp_payload().unwrap()).unwrap();
        assert_eq!(served.status, 200);
        assert_eq!(served.body, b"PNG-BYTES");
        // The reply heads back to the requesting flow's own port.
        let tuple = replies[0].five_tuple().unwrap();
        assert_eq!((tuple.dst_ip, tuple.dst_port), (client_ip(), 41_001));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn non_200_responses_are_not_cached() {
        let mut cache = HttpCache::new("cache", 16);
        cache.process(
            get("cdn.example", "/missing", 41_000),
            Direction::Ingress,
            &ctx(),
        );
        let not_found = builder::http_response(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            client_ip(),
            41_000,
            &HttpResponse::new(404, "Not Found", b"nope"),
        );
        cache.process(not_found, Direction::Egress, &ctx());
        assert!(cache.is_empty());
    }

    #[test]
    fn only_get_requests_are_considered() {
        let mut cache = HttpCache::new("cache", 16);
        let mut req = gnf_packet::HttpRequest::get("api.example", "/submit");
        req.method = HttpMethod::Post;
        let post = builder::tcp_data(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            server_ip(),
            41_500,
            80,
            &req.to_bytes(),
        );
        assert!(cache.process(post, Direction::Ingress, &ctx()).is_forward());
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let mut cache = HttpCache::new("cache", 2);
        for (i, path) in ["/a", "/b", "/c"].iter().enumerate() {
            let port = 42_000 + i as u16;
            cache.process(get("cdn.example", path, port), Direction::Ingress, &ctx());
            cache.process(response(path.as_bytes(), port), Direction::Egress, &ctx());
        }
        assert_eq!(cache.len(), 2, "capacity is 2");
        // "/a" was least recently used and must have been evicted.
        let v = cache.process(get("cdn.example", "/a", 43_000), Direction::Ingress, &ctx());
        assert!(v.is_forward(), "evicted entry must miss");
        // "/c" is still cached.
        let v = cache.process(get("cdn.example", "/c", 43_001), Direction::Ingress, &ctx());
        assert!(v.is_reply());
    }

    #[test]
    fn cache_contents_migrate() {
        let mut cache1 = HttpCache::new("cache", 8);
        cache1.process(
            get("cdn.example", "/app.js", 41_000),
            Direction::Ingress,
            &ctx(),
        );
        cache1.process(
            response(b"console.log(1)", 41_000),
            Direction::Egress,
            &ctx(),
        );
        let snapshot = cache1.export_state();
        assert!(snapshot.approximate_size_bytes() > 10);

        let mut cache2 = HttpCache::new("cache", 8);
        cache2.import_state(snapshot);
        assert_eq!(cache2.len(), 1);
        let v = cache2.process(
            get("cdn.example", "/app.js", 45_000),
            Direction::Ingress,
            &ctx(),
        );
        assert!(v.is_reply(), "migrated cache must keep serving hits");
    }

    #[test]
    fn non_http_traffic_flows_through() {
        let mut cache = HttpCache::new("cache", 4);
        let dns = builder::dns_query(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            Ipv4Addr::new(8, 8, 8, 8),
            5353,
            1,
            "cdn.example",
        );
        assert!(cache.process(dns, Direction::Ingress, &ctx()).is_forward());
        assert_eq!(cache.hits() + cache.misses(), 0);
    }
}
