//! Deterministic fault injection for the emulator.
//!
//! The paper argues GNF stations are cheap, disposable edge boxes: stations
//! crash, backhaul links flap, and the Manager must re-deploy chains without
//! the client noticing more than a blip. This module provides the seeded
//! fault schedule the emulator replays — every draw comes from the run's
//! `--seed`, so a chaos run is byte-for-byte reproducible across worker
//! counts, which is what lets the recovery-invariant tests compare
//! `RunReport`s across the execution matrix.
//!
//! A [`FaultSchedule`] is a time-sorted list of [`FaultEvent`]s, either
//! scripted via [`FaultSchedule::push`] or generated from a [`ChaosSpec`]
//! with [`FaultSchedule::generate`]. The emulator executes each event as a
//! control event (flushing pending packet batches first, like every other
//! control mutation) and tallies the outcome into a [`ChaosReport`].

use gnf_sim::Rng;
use gnf_telemetry::{ChaosTelemetry, LogHistogram};
use gnf_types::{SimDuration, SimTime, StationId};
use serde::{Deserialize, Serialize};

/// What happens to Manager⇄Agent messages while a link partition holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionMode {
    /// Messages in both directions are silently dropped.
    Drop,
    /// Messages are held and delivered in a burst when the partition heals.
    Delay,
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The station process dies, losing all soft state (chains, clients,
    /// caches), and restarts after `down_for`. On restart it re-registers
    /// with a bumped generation so no stale cache entry survives.
    StationCrash {
        /// The station to kill.
        station: StationId,
        /// How long it stays down before rejoining.
        down_for: SimDuration,
    },
    /// The Manager⇄Agent control link to one station partitions for
    /// `duration`; the data plane keeps forwarding with whatever state the
    /// station already has.
    LinkPartition {
        /// The station whose control link breaks.
        station: StationId,
        /// How long the partition holds.
        duration: SimDuration,
        /// Whether in-flight control messages are dropped or delayed.
        mode: PartitionMode,
    },
    /// A steering-rule churn storm: `rules` transient rules are installed
    /// and immediately removed on the station's switch, exercising the
    /// megaflow revalidation path.
    SteeringChurn {
        /// The station whose switch churns.
        station: StationId,
        /// How many install/remove pairs to apply.
        rules: u64,
    },
    /// A cache-invalidation flood: the station's topology generation is
    /// bumped `floods` times, lazily invalidating every cached flow.
    CacheInvalidation {
        /// The station whose caches are flooded.
        station: StationId,
        /// How many generation bumps to apply.
        floods: u64,
    },
}

impl FaultKind {
    /// The station this fault targets.
    pub fn station(&self) -> StationId {
        match *self {
            FaultKind::StationCrash { station, .. }
            | FaultKind::LinkPartition { station, .. }
            | FaultKind::SteeringChurn { station, .. }
            | FaultKind::CacheInvalidation { station, .. } => station,
        }
    }
}

/// One fault at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Parameters for generating a random fault storm.
///
/// All times and counts are drawn uniformly from the inclusive ranges below
/// using the run's seeded [`Rng`], so the same spec + seed + station list
/// always yields the same schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSpec {
    /// Number of station crashes to inject.
    pub crashes: u64,
    /// Range of crash downtimes.
    pub crash_down_for: (SimDuration, SimDuration),
    /// Number of control-link partitions to inject.
    pub partitions: u64,
    /// Range of partition durations.
    pub partition_duration: (SimDuration, SimDuration),
    /// Number of steering-churn storms to inject.
    pub churn_storms: u64,
    /// Range of rules per churn storm.
    pub churn_rules: (u64, u64),
    /// Number of cache-invalidation floods to inject.
    pub invalidation_floods: u64,
    /// Range of generation bumps per flood.
    pub flood_size: (u64, u64),
    /// The window faults are drawn from. Keep this inside the run so
    /// recoveries have time to complete before the report.
    pub window: (SimTime, SimTime),
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            crashes: 1,
            crash_down_for: (SimDuration::from_secs(3), SimDuration::from_secs(8)),
            partitions: 1,
            partition_duration: (SimDuration::from_secs(2), SimDuration::from_secs(6)),
            churn_storms: 1,
            churn_rules: (16, 64),
            invalidation_floods: 1,
            flood_size: (1, 4),
            window: (SimTime::from_secs(10), SimTime::from_secs(40)),
        }
    }
}

/// A time-sorted schedule of faults for one emulator run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Creates an empty schedule (script faults with [`FaultSchedule::push`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates a schedule from `spec`, drawing every time, target and
    /// magnitude from a `"chaos"`-derived stream of `seed`. The result is
    /// independent of worker counts by construction: nothing here consults
    /// the execution configuration.
    pub fn generate(seed: u64, spec: &ChaosSpec, stations: &[StationId]) -> Self {
        let mut schedule = FaultSchedule::new();
        if stations.is_empty() {
            return schedule;
        }
        let mut rng = Rng::new(seed).derive("chaos");
        let (start, end) = spec.window;
        let lo = start.as_nanos() / 1_000_000;
        let hi = (end.as_nanos() / 1_000_000).max(lo);
        let draw_at = |rng: &mut Rng| SimTime::from_millis(rng.range_inclusive(lo, hi));
        let draw_station = |rng: &mut Rng| *rng.choose(stations).expect("stations non-empty");

        for _ in 0..spec.crashes {
            let at = draw_at(&mut rng);
            let station = draw_station(&mut rng);
            let down_for = SimDuration::from_millis(
                rng.range_inclusive(
                    spec.crash_down_for.0.as_millis(),
                    spec.crash_down_for
                        .1
                        .as_millis()
                        .max(spec.crash_down_for.0.as_millis()),
                ),
            );
            schedule.push(at, FaultKind::StationCrash { station, down_for });
        }
        for _ in 0..spec.partitions {
            let at = draw_at(&mut rng);
            let station = draw_station(&mut rng);
            let duration = SimDuration::from_millis(
                rng.range_inclusive(
                    spec.partition_duration.0.as_millis(),
                    spec.partition_duration
                        .1
                        .as_millis()
                        .max(spec.partition_duration.0.as_millis()),
                ),
            );
            let mode = if rng.chance(0.5) {
                PartitionMode::Drop
            } else {
                PartitionMode::Delay
            };
            schedule.push(
                at,
                FaultKind::LinkPartition {
                    station,
                    duration,
                    mode,
                },
            );
        }
        for _ in 0..spec.churn_storms {
            let at = draw_at(&mut rng);
            let station = draw_station(&mut rng);
            let rules = rng.range_inclusive(
                spec.churn_rules.0,
                spec.churn_rules.1.max(spec.churn_rules.0),
            );
            schedule.push(at, FaultKind::SteeringChurn { station, rules });
        }
        for _ in 0..spec.invalidation_floods {
            let at = draw_at(&mut rng);
            let station = draw_station(&mut rng);
            let floods =
                rng.range_inclusive(spec.flood_size.0, spec.flood_size.1.max(spec.flood_size.0));
            schedule.push(at, FaultKind::CacheInvalidation { station, floods });
        }
        schedule
    }

    /// Adds one fault and keeps the schedule time-sorted (stable for equal
    /// timestamps, so scripted order is preserved).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|event| event.at);
    }

    /// The faults, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What the fault storm did to the run, merged into the `RunReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Total faults executed from the schedule.
    pub faults_injected: u64,
    /// Station crashes injected.
    pub crashes: u64,
    /// Stations that came back and re-registered.
    pub restarts: u64,
    /// Control-link partitions injected.
    pub partitions: u64,
    /// Steering-churn storms injected.
    pub churn_storms: u64,
    /// Cache-invalidation floods injected.
    pub invalidation_floods: u64,
    /// Manager⇄Agent messages dropped by crashes and `Drop` partitions.
    pub messages_dropped: u64,
    /// Manager⇄Agent messages held back by `Delay` partitions.
    pub messages_delayed: u64,
    /// Time from each restart until every chain owed to that station was
    /// active again, in milliseconds (log-bucketed).
    pub recovery_ms: LogHistogram,
    /// Per-station chaos counters summed across the fleet.
    pub stations: ChaosTelemetry,
}

impl ChaosReport {
    /// True when every crashed station re-registered and reconverged.
    pub fn fully_recovered(&self) -> bool {
        self.restarts == self.crashes && self.recovery_ms.count() == self.crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stations(n: u64) -> Vec<StationId> {
        (0..n).map(StationId::new).collect()
    }

    #[test]
    fn generate_is_deterministic_for_a_seed() {
        let spec = ChaosSpec {
            crashes: 3,
            partitions: 2,
            churn_storms: 2,
            invalidation_floods: 2,
            ..ChaosSpec::default()
        };
        let a = FaultSchedule::generate(7, &spec, &stations(4));
        let b = FaultSchedule::generate(7, &spec, &stations(4));
        assert_eq!(a, b);
        assert_eq!(a.len(), 9);

        let c = FaultSchedule::generate(8, &spec, &stations(4));
        assert_ne!(a, c, "different seeds must yield different storms");
    }

    #[test]
    fn generated_events_stay_inside_the_window_and_sorted() {
        let spec = ChaosSpec {
            crashes: 5,
            partitions: 5,
            churn_storms: 5,
            invalidation_floods: 5,
            ..ChaosSpec::default()
        };
        let schedule = FaultSchedule::generate(42, &spec, &stations(3));
        let (start, end) = spec.window;
        for pair in schedule.events().windows(2) {
            assert!(pair[0].at <= pair[1].at, "schedule must be time-sorted");
        }
        for event in schedule.events() {
            assert!(event.at >= start && event.at <= end);
            assert!(event.kind.station().raw() < 3);
        }
    }

    #[test]
    fn push_keeps_scripted_order_for_equal_timestamps() {
        let mut schedule = FaultSchedule::new();
        let at = SimTime::from_secs(5);
        schedule.push(
            at,
            FaultKind::SteeringChurn {
                station: StationId::new(0),
                rules: 1,
            },
        );
        schedule.push(
            at,
            FaultKind::CacheInvalidation {
                station: StationId::new(1),
                floods: 1,
            },
        );
        schedule.push(
            SimTime::from_secs(1),
            FaultKind::StationCrash {
                station: StationId::new(2),
                down_for: SimDuration::from_secs(1),
            },
        );
        let kinds: Vec<StationId> = schedule.events().iter().map(|e| e.kind.station()).collect();
        assert_eq!(
            kinds,
            vec![StationId::new(2), StationId::new(0), StationId::new(1)]
        );
    }

    #[test]
    fn empty_station_list_yields_an_empty_schedule() {
        let schedule = FaultSchedule::generate(7, &ChaosSpec::default(), &[]);
        assert!(schedule.is_empty());
    }

    #[test]
    fn fully_recovered_requires_matching_restart_and_recovery_counts() {
        let mut report = ChaosReport {
            crashes: 2,
            restarts: 2,
            ..ChaosReport::default()
        };
        assert!(!report.fully_recovered());
        report.recovery_ms.record(120.0);
        report.recovery_ms.record(80.0);
        assert!(report.fully_recovered());
        report.crashes = 3;
        assert!(!report.fully_recovered());
    }
}
