//! The emulator's host stage table: where `Emulator::run` spent *host*
//! wall-clock time, stage by stage.
//!
//! Virtual time (the [`RunReport`](crate::RunReport), the Chrome trace)
//! says what the emulated system did. This table says how long this build
//! took to do it, which no two hosts agree on — so it never enters the
//! report or the trace, and its CSV is labelled wall clock.
//!
//! ## Sink model
//!
//! The same shape as [`gnf_telemetry::TraceSink`]: `HostStages` is either
//! off (the default), where every call is one branch and reads no clock, or
//! armed. `Emulator::enable_tracing` arms it.
//!
//! ## Laps, and closing the table
//!
//! The top-level stages tile `run()` as *laps*: `HostStages::lap` charges
//! the time since the previous lap to the stage that just ended, with one
//! clock read per boundary. The tiles are the queue pop, the metrics
//! sampler, the workload pump, a packet event's admission, the station
//! flush, each handled control event by kind and the final report. The
//! loop's own dispatch between two stages is charged to the later one. A
//! pair of reads per section instead would leave one read (≈ 50 ns on a
//! 2-vCPU VM) per boundary unattributed, which on a small run is most of a
//! 10 % gap.
//!
//! [`Stage::Run`] is timed on its own, from `HostStages::begin_run` to
//! `HostStages::end_run`, and [`StageTable::closes`] checks the tiles
//! against it: a lap charged outside `run()` or a stage counted twice
//! breaks it. A sub-row (the gap filter's `gap_state` walk, the split
//! flushes) is timed by a `HostStages::start` / `HostStages::stop` pair
//! inside its parent's lap and is not summed.

use std::time::Instant;

/// One row of the stage table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `EventQueue::pop_until`, once per loop iteration.
    QueuePop,
    /// The virtual-time metrics sampler (armed by `enable_metrics`).
    MetricsSample,
    /// Pulling a streaming workload source's next batch.
    WorkloadPump,
    /// A packet event's admission as it pops: the gap filter
    /// (`admit_packets`) into the station slots.
    GapFilter,
    /// Sub-row of [`Stage::GapFilter`]: the `gap_state` walks it paid for.
    GapState,
    /// A flush: the touched stations' batches, their NF notifications'
    /// dispatch in station then batch order, and the fold of the packet
    /// counters.
    StationJobs,
    /// Sub-row of [`Stage::StationJobs`]: the flushes that split their
    /// stations over threads, and their wall time.
    StationJobsSplit,
    /// `handle` of a control message to the Manager.
    HandleToManager,
    /// `handle` of a control message to an Agent, migration commands
    /// included.
    HandleToAgent,
    /// `handle` of a client association.
    HandleAttach,
    /// `handle` of a station's report timer.
    HandleReportTimer,
    /// `handle` of a region aggregator's flush timer.
    HandleRegionFlush,
    /// `handle` of the Manager's housekeeping tick.
    HandleManagerTick,
    /// `handle` of an operator policy attach.
    HandleOperatorAttach,
    /// `handle` of a scheduled fault.
    HandleFault,
    /// `handle` of a crashed station's restart.
    HandleStationRestart,
    /// `handle` of a partition heal.
    HandlePartitionHeal,
    /// Building the [`RunReport`](crate::RunReport) at the end of the run.
    Report,
    /// The whole of `run()`: the row the others must sum to.
    Run,
}

impl Stage {
    /// Every stage, in table order.
    pub const ALL: [Stage; 19] = [
        Stage::QueuePop,
        Stage::MetricsSample,
        Stage::WorkloadPump,
        Stage::GapFilter,
        Stage::GapState,
        Stage::StationJobs,
        Stage::StationJobsSplit,
        Stage::HandleToManager,
        Stage::HandleToAgent,
        Stage::HandleAttach,
        Stage::HandleReportTimer,
        Stage::HandleRegionFlush,
        Stage::HandleManagerTick,
        Stage::HandleOperatorAttach,
        Stage::HandleFault,
        Stage::HandleStationRestart,
        Stage::HandlePartitionHeal,
        Stage::Report,
        Stage::Run,
    ];

    /// The row's name in the CSV.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueuePop => "queue.pop",
            Stage::MetricsSample => "metrics.sample",
            Stage::WorkloadPump => "workload.pump",
            Stage::GapFilter => "flush.gap_filter",
            Stage::GapState => "flush.gap_filter.gap_state",
            Stage::StationJobs => "flush.station_jobs",
            Stage::StationJobsSplit => "flush.station_jobs.split",
            Stage::HandleToManager => "handle.to_manager",
            Stage::HandleToAgent => "handle.to_agent",
            Stage::HandleAttach => "handle.attach",
            Stage::HandleReportTimer => "handle.report_timer",
            Stage::HandleRegionFlush => "handle.region_flush",
            Stage::HandleManagerTick => "handle.manager_tick",
            Stage::HandleOperatorAttach => "handle.operator_attach",
            Stage::HandleFault => "handle.fault",
            Stage::HandleStationRestart => "handle.station_restart",
            Stage::HandlePartitionHeal => "handle.partition_heal",
            Stage::Report => "report.build",
            Stage::Run => "run",
        }
    }

    /// The stage whose time already contains this one's, if any.
    pub fn parent(self) -> Option<Stage> {
        match self {
            Stage::GapState => Some(Stage::GapFilter),
            Stage::StationJobsSplit => Some(Stage::StationJobs),
            _ => None,
        }
    }

    /// True for the stages that tile `run()`: neither a sub-row nor the
    /// total.
    fn is_top_level(self) -> bool {
        self.parent().is_none() && self != Stage::Run
    }
}

/// One row's accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageRow {
    /// Timed sections recorded.
    pub count: u64,
    /// Their host wall-clock nanoseconds, summed.
    pub ns: u64,
}

/// The armed table: one [`StageRow`] per [`Stage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTable {
    rows: [StageRow; Stage::ALL.len()],
}

impl StageTable {
    /// A stage's row.
    pub fn row(&self, stage: Stage) -> StageRow {
        self.rows[stage as usize]
    }

    fn add(&mut self, stage: Stage, from: Instant, to: Instant) {
        let row = &mut self.rows[stage as usize];
        row.count += 1;
        row.ns += to.duration_since(from).as_nanos() as u64;
    }

    /// Nanoseconds of the top-level stages, summed.
    fn top_level_ns(&self) -> u64 {
        Stage::ALL
            .iter()
            .filter(|stage| stage.is_top_level())
            .map(|stage| self.row(*stage).ns)
            .sum()
    }

    /// True when the top-level stages sum to within `tolerance` (a
    /// fraction) of [`Stage::Run`].
    pub fn closes(&self, tolerance: f64) -> bool {
        let run = self.row(Stage::Run).ns as f64;
        (self.top_level_ns() as f64 - run).abs() <= tolerance * run
    }

    /// The table as CSV, one row per stage in table order, after a comment
    /// line naming the clock: `stage,parent,count,ns,share_of_run`.
    pub fn to_csv(&self) -> String {
        let run = self.row(Stage::Run).ns.max(1) as f64;
        let mut csv = String::from(
            "# host wall clock (ns) per stage of Emulator::run; not virtual time, \
             never part of the RunReport or the trace\nstage,parent,count,ns,share_of_run\n",
        );
        for stage in Stage::ALL {
            let row = self.row(stage);
            csv.push_str(&format!(
                "{},{},{},{},{:.4}\n",
                stage.name(),
                stage.parent().map_or("", Stage::name),
                row.count,
                row.ns,
                row.ns as f64 / run,
            ));
        }
        csv
    }
}

/// An armed sink: the table, the last lap's clock reading and the run's
/// start.
#[derive(Debug, Clone)]
struct Clock {
    table: StageTable,
    mark: Instant,
    run_started: Instant,
}

/// The emulator's stage sink: off by default, armed by
/// `Emulator::enable_tracing`.
#[derive(Debug, Clone, Default)]
pub(crate) struct HostStages(Option<Box<Clock>>);

impl HostStages {
    /// An armed, empty table.
    pub(crate) fn armed() -> Self {
        let now = Instant::now();
        HostStages(Some(Box::new(Clock {
            table: StageTable::default(),
            mark: now,
            run_started: now,
        })))
    }

    /// Opens [`Stage::Run`] and the first lap.
    pub(crate) fn begin_run(&mut self) {
        if let Some(clock) = self.0.as_mut() {
            clock.run_started = Instant::now();
            clock.mark = clock.run_started;
        }
    }

    /// Charges the time since the previous lap (or `HostStages::begin_run`)
    /// to `stage`, which just ended.
    #[inline]
    pub(crate) fn lap(&mut self, stage: Stage) {
        if let Some(clock) = self.0.as_mut() {
            let now = Instant::now();
            clock.table.add(stage, clock.mark, now);
            clock.mark = now;
        }
    }

    /// Closes [`Stage::Run`].
    pub(crate) fn end_run(&mut self) {
        if let Some(clock) = self.0.as_mut() {
            clock
                .table
                .add(Stage::Run, clock.run_started, Instant::now());
        }
    }

    /// Starts a sub-row's section: the clock reading when armed, `None` (one
    /// branch, no clock read) when off. It does not move the lap mark.
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// Ends a section `HostStages::start` opened, adding it to `stage`.
    #[inline]
    pub(crate) fn stop(&mut self, stage: Stage, started: Option<Instant>) {
        if let (Some(clock), Some(started)) = (self.0.as_mut(), started) {
            clock.table.add(stage, started, Instant::now());
        }
    }

    /// The table, when armed.
    pub(crate) fn table(&self) -> Option<&StageTable> {
        self.0.as_deref().map(|clock| &clock.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_off_sink_reads_no_clock_and_records_nothing() {
        let mut stages = HostStages::default();
        stages.begin_run();
        let started = stages.start();
        assert!(started.is_none());
        stages.stop(Stage::GapState, started);
        stages.lap(Stage::QueuePop);
        stages.end_run();
        assert!(stages.table().is_none());
    }

    #[test]
    fn laps_tile_the_run_and_a_sub_row_is_not_a_tile() {
        let mut stages = HostStages::armed();
        stages.begin_run();
        for stage in [Stage::QueuePop, Stage::HandleAttach, Stage::QueuePop] {
            let started = stages.start();
            std::hint::black_box((0..1_000u64).sum::<u64>());
            stages.stop(Stage::GapState, started);
            stages.lap(stage);
        }
        stages.end_run();
        let table = stages.table().expect("armed").clone();
        assert_eq!(table.row(Stage::QueuePop).count, 2);
        assert_eq!(table.row(Stage::HandleAttach).count, 1);
        assert_eq!(table.row(Stage::GapState).count, 3);
        assert_eq!(table.row(Stage::Run).count, 1);
        assert!(table.top_level_ns() <= table.row(Stage::Run).ns);
        assert!(table.row(Stage::GapState).ns <= table.top_level_ns());
        assert!(table.closes(0.10), "{}", table.to_csv());
        // The sub-row is not a tile.
        assert_eq!(
            table.top_level_ns(),
            table.row(Stage::QueuePop).ns + table.row(Stage::HandleAttach).ns
        );
        let csv = table.to_csv();
        assert!(csv.starts_with("# host wall clock"));
        assert_eq!(csv.lines().count(), 2 + Stage::ALL.len());
        assert!(csv.contains("\nflush.gap_filter.gap_state,flush.gap_filter,3,"));
    }

    #[test]
    fn a_table_closes_only_within_its_tolerance() {
        let mut table = StageTable::default();
        table.rows[Stage::Run as usize].ns = 1_000;
        table.rows[Stage::QueuePop as usize].ns = 500;
        table.rows[Stage::StationJobs as usize].ns = 420;
        table.rows[Stage::GapState as usize].ns = 400;
        assert!(table.closes(0.10));
        assert!(!table.closes(0.05));
        table.rows[Stage::StationJobs as usize].ns = 700;
        assert!(!table.closes(0.10), "over the total does not close either");
    }
}
