//! Virtual-time event tracing: typed spans/instants emitted by the Manager,
//! the Agents, the switch layer and the emulator, merged deterministically
//! and exported as Chrome `trace_event` JSON or CSV.
//!
//! ## Sink model
//!
//! Every emitting component owns a [`TraceSink`] — an enum with exactly two
//! states. `Disabled` (the default) is a single branch on the hot path: no
//! allocation, no buffering, nothing to merge. `Buffered` records
//! [`TraceEvent`]s into a bounded per-scope ring with its own monotone
//! sequence counter.
//!
//! ## Determinism argument
//!
//! Events carry virtual timestamps and per-scope sequence numbers assigned
//! in emission order. Each scope (the run loop, the Manager, one station) is
//! driven deterministically by the event queue regardless of how many host
//! threads execute the work, so each scope's event list is reproducible;
//! the final merge sorts by `(timestamp, scope, seq)`, which is a total
//! order independent of thread interleaving. The exported artifacts are
//! therefore byte-identical across worker and pool configurations, same
//! as the `RunReport`.

use gnf_types::SimTime;
use std::collections::VecDeque;

/// Which component emitted an event. Part of the deterministic merge key
/// and the Chrome `tid` an event renders under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceScope {
    /// The emulator's run loop (faults, recovery windows, loss classes).
    Run,
    /// The Manager (migration lifecycle).
    Manager,
    /// One station's Agent + switch data plane.
    Station(u64),
}

impl TraceScope {
    /// The Chrome `tid` this scope renders under.
    fn tid(&self) -> u64 {
        match self {
            TraceScope::Run => 0,
            TraceScope::Manager => 1,
            TraceScope::Station(n) => 10 + n,
        }
    }

    /// Stable label used by the CSV export.
    fn label(&self) -> String {
        match self {
            TraceScope::Run => "run".to_string(),
            TraceScope::Manager => "manager".to_string(),
            TraceScope::Station(n) => format!("station-{n}"),
        }
    }
}

/// One sampled flow-lifecycle record from the flight recorder: which cache
/// path the flow's packets took and what verdict they met.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Station whose data plane handled (or lost) the packets.
    pub station: u64,
    /// Direction-symmetric flow hash (the sampling key).
    pub flow: u64,
    /// Human-readable five-tuple.
    pub tuple: String,
    /// Cache probe path: `exact`, `megaflow-bypass`, `megaflow-drop`,
    /// `slow-path`, `unsteered`, `gap-drop`, `gap-bypass`, `station-down`
    /// or `hairpin`.
    pub stage: &'static str,
    /// Outcome: `forwarded`, `dropped`, `replied` or `lost`.
    pub verdict: &'static str,
}

/// A typed trace event. Spans carry the virtual time their window opened
/// (`since`); the event's own timestamp is the window close.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A migration spent `[since, at]` in phase `phase`.
    MigrationPhase {
        /// Migration id.
        migration: u64,
        /// Roaming client.
        client: u64,
        /// Phase name (`PreCopy`, `Prepare`, `Delta`, `Activate`, ...).
        phase: &'static str,
        /// When the migration entered the phase.
        since: SimTime,
    },
    /// A migration reached a terminal outcome.
    MigrationOutcome {
        /// Migration id.
        migration: u64,
        /// Roaming client.
        client: u64,
        /// `complete`, `failed` or `timed-out`.
        outcome: &'static str,
        /// Retry attempt the outcome landed on.
        attempt: u64,
    },
    /// A chaos fault fired at a station.
    Fault {
        /// Target station.
        station: u64,
        /// `crash`, `restart`, `steering-churn` or `cache-invalidation`.
        kind: &'static str,
        /// Fault magnitude (down-time ms, rules churned, floods, ...).
        detail: u64,
    },
    /// Crash→reconvergence recovery window of one station (span; `since` is
    /// the restart, `at` the instant every owed chain was active again).
    RecoveryWindow {
        /// The recovered station.
        station: u64,
        /// When the station rejoined.
        since: SimTime,
    },
    /// A control-link partition window (span emitted at injection; `at` is
    /// the heal time).
    PartitionWindow {
        /// The partitioned station.
        station: u64,
        /// `drop` or `delay`.
        mode: &'static str,
        /// When the partition started.
        since: SimTime,
    },
    /// A megaflow entry was sealed into the wildcard cache.
    MegaflowSeal {
        /// `forward`, `drop` or `decision` (chain-opaque).
        outcome: &'static str,
        /// Wildcard entries resident after the install.
        occupancy: u64,
    },
    /// The wildcard cache evicted entries to honour its capacity bound.
    MegaflowEvict {
        /// Entries evicted by this install.
        evicted: u64,
        /// Wildcard entries resident afterwards.
        occupancy: u64,
    },
    /// A data-plane batch was flushed through a station pipeline.
    BatchFlush {
        /// Packets in the batch.
        packets: u64,
    },
    /// A flow flight-recorder sample.
    Flow(FlowRecord),
}

impl TraceKind {
    /// Chrome `cat` of the event.
    pub fn category(&self) -> &'static str {
        match self {
            TraceKind::MigrationPhase { .. } | TraceKind::MigrationOutcome { .. } => "migration",
            TraceKind::Fault { .. } | TraceKind::PartitionWindow { .. } => "chaos",
            TraceKind::RecoveryWindow { .. } => "recovery",
            TraceKind::MegaflowSeal { .. } | TraceKind::MegaflowEvict { .. } => "megaflow",
            TraceKind::BatchFlush { .. } => "batch",
            TraceKind::Flow(_) => "flight",
        }
    }

    /// Chrome `name` of the event.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::MigrationPhase { phase, .. } => phase,
            TraceKind::MigrationOutcome { outcome, .. } => outcome,
            TraceKind::Fault { kind, .. } => kind,
            TraceKind::RecoveryWindow { .. } => "recovery",
            TraceKind::PartitionWindow { .. } => "partition",
            TraceKind::MegaflowSeal { .. } => "seal",
            TraceKind::MegaflowEvict { .. } => "evict",
            TraceKind::BatchFlush { .. } => "flush",
            TraceKind::Flow(record) => record.stage,
        }
    }

    /// When the event is a span, the virtual time its window opened.
    pub fn span_since(&self) -> Option<SimTime> {
        match self {
            TraceKind::MigrationPhase { since, .. }
            | TraceKind::RecoveryWindow { since, .. }
            | TraceKind::PartitionWindow { since, .. } => Some(*since),
            _ => None,
        }
    }

    /// The event's argument list as `(key, value)` rows; string values are
    /// rendered verbatim (escaped by the exporters).
    fn args(&self) -> Vec<(&'static str, ArgValue<'_>)> {
        use ArgValue::{Num, Str};
        match self {
            TraceKind::MigrationPhase {
                migration, client, ..
            } => vec![("migration", Num(*migration)), ("client", Num(*client))],
            TraceKind::MigrationOutcome {
                migration,
                client,
                attempt,
                ..
            } => vec![
                ("migration", Num(*migration)),
                ("client", Num(*client)),
                ("attempt", Num(*attempt)),
            ],
            TraceKind::Fault {
                station, detail, ..
            } => vec![("station", Num(*station)), ("detail", Num(*detail))],
            TraceKind::RecoveryWindow { station, .. } => vec![("station", Num(*station))],
            TraceKind::PartitionWindow { station, mode, .. } => {
                vec![("station", Num(*station)), ("mode", Str(mode))]
            }
            TraceKind::MegaflowSeal { outcome, occupancy } => {
                vec![("outcome", Str(outcome)), ("occupancy", Num(*occupancy))]
            }
            TraceKind::MegaflowEvict { evicted, occupancy } => {
                vec![("evicted", Num(*evicted)), ("occupancy", Num(*occupancy))]
            }
            TraceKind::BatchFlush { packets } => vec![("packets", Num(*packets))],
            TraceKind::Flow(r) => vec![
                ("flow", Num(r.flow)),
                ("tuple", Str(&r.tuple)),
                ("verdict", Str(r.verdict)),
            ],
        }
    }
}

enum ArgValue<'a> {
    Num(u64),
    Str(&'a str),
}

/// One recorded event: virtual timestamp, emitting scope, per-scope
/// sequence number and typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event (spans: the window close).
    pub at: SimTime,
    /// Emitting scope.
    pub scope: TraceScope,
    /// Per-scope emission sequence number.
    pub seq: u64,
    /// Typed payload.
    pub kind: TraceKind,
}

impl TraceEvent {
    fn sort_key(&self) -> (u64, TraceScope, u64) {
        (self.at.as_nanos(), self.scope, self.seq)
    }
}

/// The bounded per-scope buffer behind an enabled [`TraceSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBuffer {
    scope: TraceScope,
    events: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

/// An enum-dispatch trace sink: [`TraceSink::Disabled`] (the default) costs
/// one branch and never allocates; [`TraceSink::Buffered`] records into a
/// bounded ring. Hot-path call sites guard payload construction with
/// [`TraceSink::enabled`].
#[derive(Debug, Clone, Default, PartialEq)]
pub enum TraceSink {
    /// Tracing off: `emit` is a no-op.
    #[default]
    Disabled,
    /// Tracing on: events buffer into a bounded per-scope ring.
    Buffered(Box<TraceBuffer>),
}

/// Default per-scope event-ring bound.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl TraceSink {
    /// Creates an enabled sink buffering up to `capacity` events for `scope`.
    pub fn buffered(scope: TraceScope, capacity: usize) -> Self {
        TraceSink::Buffered(Box::new(TraceBuffer {
            scope,
            events: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
        }))
    }

    /// True when events are being recorded. Hot paths check this before
    /// building an event payload, so the disabled case does no work.
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, TraceSink::Buffered(_))
    }

    /// Records an event at virtual time `at`. No-op when disabled.
    #[inline]
    pub fn emit(&mut self, at: SimTime, kind: TraceKind) {
        if let TraceSink::Buffered(buffer) = self {
            let seq = buffer.next_seq;
            buffer.next_seq += 1;
            if buffer.events.len() == buffer.capacity {
                buffer.events.pop_front();
                buffer.dropped += 1;
            }
            buffer.events.push_back(TraceEvent {
                at,
                scope: buffer.scope,
                seq,
                kind,
            });
        }
    }

    /// Drains the buffered events (sequence numbering continues across
    /// drains). Empty when disabled.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        match self {
            TraceSink::Disabled => Vec::new(),
            TraceSink::Buffered(buffer) => buffer.events.drain(..).collect(),
        }
    }

    /// Events rotated out by the ring bound.
    pub fn dropped(&self) -> u64 {
        match self {
            TraceSink::Disabled => 0,
            TraceSink::Buffered(buffer) => buffer.dropped,
        }
    }
}

/// The merged, deterministically ordered event log of one run, with its
/// Chrome-trace and CSV exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one sink's drained events and drop count.
    pub fn absorb(&mut self, sink: &mut TraceSink) {
        self.dropped += sink.dropped();
        self.events.append(&mut sink.take_events());
    }

    /// Appends pre-collected events (used for flight-recorder rings).
    pub fn extend(&mut self, events: Vec<TraceEvent>, dropped: u64) {
        self.events.extend(events);
        self.dropped += dropped;
    }

    /// Sorts into the deterministic `(timestamp, scope, seq)` order. Call
    /// once after every sink has been absorbed.
    pub fn sort(&mut self) {
        self.events.sort_by_key(TraceEvent::sort_key);
    }

    /// The merged events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of merged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events lost to ring bounds across all absorbed sinks.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events in a category (tests and CI validation).
    pub fn count_category(&self, category: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.category() == category)
            .count()
    }

    /// Renders the log as Chrome `trace_event` JSON (object format, `ts` and
    /// `dur` in integer microseconds of virtual time). Deterministic: equal
    /// logs render to identical bytes.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (ix, event) in self.events.iter().enumerate() {
            if ix > 0 {
                out.push(',');
            }
            let ts_us = event.at.as_nanos() / 1_000;
            out.push_str("{\"name\":\"");
            out.push_str(event.kind.name());
            out.push_str("\",\"cat\":\"");
            out.push_str(event.kind.category());
            out.push_str("\",\"pid\":1,\"tid\":");
            out.push_str(&event.scope.tid().to_string());
            match event.kind.span_since() {
                Some(since) => {
                    let start_us = since.as_nanos() / 1_000;
                    out.push_str(",\"ph\":\"X\",\"ts\":");
                    out.push_str(&start_us.to_string());
                    out.push_str(",\"dur\":");
                    out.push_str(&ts_us.saturating_sub(start_us).to_string());
                }
                None => {
                    out.push_str(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                    out.push_str(&ts_us.to_string());
                }
            }
            out.push_str(",\"args\":{");
            for (aix, (key, value)) in event.kind.args().iter().enumerate() {
                if aix > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(key);
                out.push_str("\":");
                match value {
                    ArgValue::Num(n) => out.push_str(&n.to_string()),
                    ArgValue::Str(s) => {
                        out.push('"');
                        escape_json_into(&mut out, s);
                        out.push('"');
                    }
                }
            }
            out.push_str("}}");
        }
        out.push_str("],\"otherData\":{\"droppedEvents\":\"");
        out.push_str(&self.dropped.to_string());
        out.push_str("\"}}");
        out
    }

    /// Renders the log as CSV (`ts_us`/`dur_us` in integer microseconds;
    /// args joined as `key=value` pairs). Deterministic like the JSON.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 + self.events.len() * 64);
        out.push_str("ts_us,dur_us,scope,seq,cat,name,args\n");
        for event in &self.events {
            let ts_us = event.at.as_nanos() / 1_000;
            let (start_us, dur_us) = match event.kind.span_since() {
                Some(since) => {
                    let s = since.as_nanos() / 1_000;
                    (s, ts_us.saturating_sub(s))
                }
                None => (ts_us, 0),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},",
                start_us,
                dur_us,
                event.scope.label(),
                event.seq,
                event.kind.category(),
                event.kind.name(),
            ));
            for (aix, (key, value)) in event.kind.args().iter().enumerate() {
                if aix > 0 {
                    out.push(';');
                }
                out.push_str(key);
                out.push('=');
                match value {
                    ArgValue::Num(n) => out.push_str(&n.to_string()),
                    ArgValue::Str(s) => out.push_str(s),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::default();
        assert!(!sink.enabled());
        sink.emit(SimTime::from_secs(1), TraceKind::BatchFlush { packets: 4 });
        assert!(sink.take_events().is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn buffered_sink_assigns_monotone_seq_and_bounds_the_ring() {
        let mut sink = TraceSink::buffered(TraceScope::Station(3), 2);
        for i in 0..4u64 {
            sink.emit(SimTime::from_secs(i), TraceKind::BatchFlush { packets: i });
        }
        assert_eq!(sink.dropped(), 2);
        let events = sink.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 2, "oldest events rotated out");
        assert_eq!(events[1].seq, 3);
        // Sequence numbering continues across drains.
        sink.emit(SimTime::from_secs(9), TraceKind::BatchFlush { packets: 9 });
        assert_eq!(sink.take_events()[0].seq, 4);
    }

    #[test]
    fn merge_orders_by_time_scope_seq() {
        let mut a = TraceSink::buffered(TraceScope::Station(1), 16);
        let mut b = TraceSink::buffered(TraceScope::Manager, 16);
        let t = SimTime::from_secs(5);
        a.emit(t, TraceKind::BatchFlush { packets: 1 });
        b.emit(
            t,
            TraceKind::MigrationOutcome {
                migration: 7,
                client: 2,
                outcome: "complete",
                attempt: 0,
            },
        );
        b.emit(
            SimTime::from_secs(1),
            TraceKind::Fault {
                station: 0,
                kind: "crash",
                detail: 0,
            },
        );
        let mut log = TraceLog::new();
        log.absorb(&mut a);
        log.absorb(&mut b);
        log.sort();
        let kinds: Vec<&str> = log.events().iter().map(|e| e.kind.name()).collect();
        // t=1 first; at t=5 Manager sorts before Station(1).
        assert_eq!(kinds, vec!["crash", "complete", "flush"]);
    }

    #[test]
    fn chrome_json_spans_and_instants() {
        let mut sink = TraceSink::buffered(TraceScope::Run, 16);
        sink.emit(
            SimTime::from_secs(2),
            TraceKind::RecoveryWindow {
                station: 3,
                since: SimTime::from_secs(1),
            },
        );
        sink.emit(
            SimTime::from_millis(2500),
            TraceKind::MegaflowSeal {
                outcome: "forward",
                occupancy: 17,
            },
        );
        let mut log = TraceLog::new();
        log.absorb(&mut sink);
        log.sort();
        let json = log.to_chrome_json();
        assert!(json.contains(
            "{\"name\":\"recovery\",\"cat\":\"recovery\",\"pid\":1,\"tid\":0,\
             \"ph\":\"X\",\"ts\":1000000,\"dur\":1000000,\"args\":{\"station\":3}}"
        ));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.ends_with("\"otherData\":{\"droppedEvents\":\"0\"}}"));
        // The exported JSON parses back.
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("chrome JSON parses");
        let events = parsed["traceEvents"].as_array().expect("event array");
        assert_eq!(events.len(), 2);
        assert_eq!(log.count_category("recovery"), 1);
        assert_eq!(log.count_category("megaflow"), 1);
    }

    #[test]
    fn csv_rows_cover_args() {
        let mut sink = TraceSink::buffered(TraceScope::Station(2), 16);
        sink.emit(
            SimTime::from_secs(1),
            TraceKind::Flow(FlowRecord {
                station: 2,
                flow: 0xabcd,
                tuple: "10.0.0.1:1000 -> 10.0.0.2:80 tcp".to_string(),
                stage: "exact",
                verdict: "forwarded",
            }),
        );
        let mut log = TraceLog::new();
        log.absorb(&mut sink);
        log.sort();
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "ts_us,dur_us,scope,seq,cat,name,args");
        assert_eq!(
            lines[1],
            "1000000,0,station-2,0,flight,exact,flow=43981;\
             tuple=10.0.0.1:1000 -> 10.0.0.2:80 tcp;verdict=forwarded"
        );
    }
}
