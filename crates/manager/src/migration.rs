//! The per-migration record the Manager's migration engine drives.
//!
//! When a client roams, its chains must follow it. The Manager opens one
//! [`MigrationRecord`] per (chain, handover) under one of three plans and
//! advances it reply by reply (`Manager::advance`):
//!
//! * **break-before-make** — remove the old instance and deploy a fresh,
//!   stateless one in parallel: `Deploying → RemovingOld → Complete`;
//! * **monolithic** make-before-break — checkpoint the NF state on the old
//!   station, deploy the chain with it on the new one, then tear the old
//!   instance down: `AwaitingState → Deploying → RemovingOld → Complete`;
//! * **pre-copy** — the same checkpoint retained as a baseline while the
//!   source keeps serving, a *staged* deploy on the target, and only the
//!   dirty delta replayed inside the switchover window: `AwaitingPreCopy →
//!   Preparing → AwaitingDelta → SwitchingOver → RemovingOld → Complete`.
//!
//! Any in-flight phase can instead end in `Failed` or `TimedOut` (rolled
//! back; a retry runs as a fresh record). The record captures the timeline so
//! experiments can report migration latency, service downtime and — for
//! pre-copy — the downtime of the switchover window alone.

use gnf_types::{ChainId, ClientId, MigrationId, SimDuration, SimTime, StationId};
use serde::{Deserialize, Serialize};

/// Phases of a chain migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationPhase {
    /// Waiting for the source station to return the chain's NF state.
    AwaitingState,
    /// Pre-copy pipeline: waiting for the source to export (and retain) the
    /// baseline state while it keeps serving.
    AwaitingPreCopy,
    /// Pre-copy pipeline: waiting for the target to stage the chain
    /// (containers deployed, baseline imported, no steering yet).
    Preparing,
    /// Pre-copy pipeline: waiting for the source's dirty delta. Switchover
    /// has begun — the clock for switchover downtime starts here.
    AwaitingDelta,
    /// Pre-copy pipeline: waiting for the target to replay the delta and
    /// install steering.
    SwitchingOver,
    /// Waiting for the target station to finish deploying the chain.
    Deploying,
    /// Waiting for the source station to confirm removal of the old chain.
    RemovingOld,
    /// The migration finished successfully.
    Complete,
    /// The migration failed (reason recorded).
    Failed,
    /// The migration missed its deadline and was aborted (and rolled back:
    /// the source chain keeps serving under make-before-break). A retry, if
    /// any, runs as a fresh record.
    TimedOut,
}

/// One chain migration, from trigger to completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Migration identifier.
    pub id: MigrationId,
    /// The chain being migrated.
    pub chain: ChainId,
    /// The roaming client.
    pub client: ClientId,
    /// The station the chain is moving away from.
    pub from: StationId,
    /// The station the chain is moving to.
    pub to: StationId,
    /// Current phase.
    pub phase: MigrationPhase,
    /// When the handover was observed (the client attached to the new cell).
    pub started_at: SimTime,
    /// When the chain became active on the new station (steering switched).
    pub service_restored_at: Option<SimTime>,
    /// When the old chain was fully removed.
    pub completed_at: Option<SimTime>,
    /// Bytes of NF state transferred.
    pub state_bytes: usize,
    /// Failure reason, when `phase == Failed` or `phase == TimedOut`.
    pub failure: Option<String>,
    /// Hard deadline: a migration still awaiting state or deployment at this
    /// instant is aborted and (with attempts left) retried with backoff.
    pub deadline: Option<SimTime>,
    /// Which retry this record is: 0 for the original attempt, n for the
    /// n-th backoff retry of a timed-out/failed predecessor.
    pub attempt: u32,
    /// Whether this migration carries checkpointed NF state from a live
    /// source chain (and therefore must tear the old instance down when
    /// done). False for plain redeploys — e.g. a retry after the source
    /// station crashed, where there is no state left to move.
    pub with_state: bool,
    /// Whether this migration runs the pre-copy pipeline (baseline shipped
    /// ahead of switchover, dirty delta replayed at cutover) instead of the
    /// classic monolithic checkpoint/restore.
    pub precopy: bool,
    /// When the switchover window opened: the target reported the staged
    /// chain ready and the Manager requested the source's dirty delta.
    /// Pre-copy migrations only.
    pub switchover_started_at: Option<SimTime>,
    /// Bytes of dirty delta replayed during the switchover window.
    /// Pre-copy migrations only.
    pub delta_bytes: usize,
}

impl MigrationRecord {
    /// Creates a record in its initial phase.
    pub fn new(
        id: MigrationId,
        chain: ChainId,
        client: ClientId,
        from: StationId,
        to: StationId,
        started_at: SimTime,
        with_state: bool,
    ) -> Self {
        MigrationRecord {
            id,
            chain,
            client,
            from,
            to,
            phase: if with_state {
                MigrationPhase::AwaitingState
            } else {
                MigrationPhase::Deploying
            },
            started_at,
            service_restored_at: None,
            completed_at: None,
            state_bytes: 0,
            failure: None,
            deadline: None,
            attempt: 0,
            with_state,
            precopy: false,
            switchover_started_at: None,
            delta_bytes: 0,
        }
    }

    /// Service downtime: from the handover until the chain was serving again
    /// on the new station. `None` while the migration is still in progress.
    pub fn downtime(&self) -> Option<SimDuration> {
        self.service_restored_at
            .map(|restored| restored.duration_since(self.started_at))
    }

    /// Downtime of the switchover window alone: for a pre-copy migration,
    /// from the instant the staged target was ready (and the dirty delta was
    /// requested) until steering switched over. This is the service-affecting
    /// interval that the pre-copy pipeline keeps independent of state size;
    /// for classic migrations it degenerates to the full [`downtime`].
    ///
    /// [`downtime`]: MigrationRecord::downtime
    pub fn switchover_downtime(&self) -> Option<SimDuration> {
        match (self.switchover_started_at, self.service_restored_at) {
            (Some(start), Some(restored)) => Some(restored.duration_since(start)),
            _ => self.downtime(),
        }
    }

    /// Total migration duration (until the old chain was removed).
    pub fn total_duration(&self) -> Option<SimDuration> {
        self.completed_at
            .map(|done| done.duration_since(self.started_at))
    }

    /// True when the migration reached a terminal phase.
    pub fn is_finished(&self) -> bool {
        matches!(
            self.phase,
            MigrationPhase::Complete | MigrationPhase::Failed | MigrationPhase::TimedOut
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downtime_and_duration_are_derived_from_timestamps() {
        let mut record = MigrationRecord::new(
            MigrationId::new(1),
            ChainId::new(1),
            ClientId::new(1),
            StationId::new(0),
            StationId::new(1),
            SimTime::from_secs(10),
            true,
        );
        assert_eq!(record.phase, MigrationPhase::AwaitingState);
        assert!(record.downtime().is_none());
        assert!(!record.is_finished());

        record.service_restored_at = Some(SimTime::from_secs(11));
        record.completed_at = Some(SimTime::from_secs(12));
        record.phase = MigrationPhase::Complete;
        assert_eq!(record.downtime().unwrap(), SimDuration::from_secs(1));
        assert_eq!(record.total_duration().unwrap(), SimDuration::from_secs(2));
        assert!(record.is_finished());
    }

    #[test]
    fn timed_out_is_terminal() {
        let mut record = MigrationRecord::new(
            MigrationId::new(3),
            ChainId::new(1),
            ClientId::new(1),
            StationId::new(0),
            StationId::new(1),
            SimTime::from_secs(10),
            true,
        );
        assert_eq!(record.attempt, 0);
        assert!(record.with_state);
        record.phase = MigrationPhase::TimedOut;
        assert!(record.is_finished());
    }

    #[test]
    fn switchover_downtime_is_the_delta_window_for_precopy() {
        let mut record = MigrationRecord::new(
            MigrationId::new(4),
            ChainId::new(1),
            ClientId::new(1),
            StationId::new(0),
            StationId::new(1),
            SimTime::from_secs(10),
            true,
        );
        record.precopy = true;
        record.phase = MigrationPhase::AwaitingPreCopy;
        assert!(!record.is_finished());

        // Classic fallback while the switchover clock has not started.
        record.service_restored_at = Some(SimTime::from_secs(13));
        assert_eq!(
            record.switchover_downtime().unwrap(),
            SimDuration::from_secs(3)
        );

        // Once the staged target was ready at t=12s, only the final second
        // counts as switchover downtime.
        record.switchover_started_at = Some(SimTime::from_secs(12));
        assert_eq!(
            record.switchover_downtime().unwrap(),
            SimDuration::from_secs(1)
        );
        assert_eq!(record.downtime().unwrap(), SimDuration::from_secs(3));
    }

    #[test]
    fn stateless_migrations_skip_the_checkpoint_phase() {
        let record = MigrationRecord::new(
            MigrationId::new(2),
            ChainId::new(1),
            ClientId::new(1),
            StationId::new(0),
            StationId::new(1),
            SimTime::ZERO,
            false,
        );
        assert_eq!(record.phase, MigrationPhase::Deploying);
    }
}
