//! The desired-state store behind the Manager's reconciliation loop.
//!
//! [`DesiredState`] owns every [`AttachmentRecord`] — the *desired* placement
//! of each chain — together with the secondary indexes that make
//! reconciliation cheap at fleet scale:
//!
//! * `by_client` — which chains follow each client, so a roam touches only
//!   that client's chains instead of scanning the fleet (only ever
//!   point-accessed, so a hashed map of small sets, held inline in the
//!   client's bucket: a packet's gap check reads it);
//! * `by_station` — which chains the Manager believes are *observed* on each
//!   station, so a crash/rejoin resets only that station's chains;
//! * `window_events` — the future activation-window boundaries, ordered by
//!   virtual time, so `tick()` pops only the boundaries that are due;
//! * `dirty` — the chains whose desired and observed placement may disagree
//!   and must be reconciled on the next tick.
//!
//! Every mutation goes through [`DesiredState::insert`],
//! [`DesiredState::remove`] or [`DesiredState::update`]; the store re-derives
//! the indexes itself, so they can never drift from the records. The Manager's
//! `tick()` therefore does `O(due events + dirty chains)` work, not
//! `O(attachments)`.

use crate::manager::AttachmentRecord;
use gnf_types::{ChainId, ClientId, InlineMap, PathMap, SimTime, StationId};
use std::collections::{BTreeMap, BTreeSet};

/// The attachment table plus the reconciliation indexes.
#[derive(Debug, Default)]
pub(crate) struct DesiredState {
    attachments: BTreeMap<ChainId, AttachmentRecord>,
    by_client: PathMap<ClientId, InlineMap<ChainId, ()>>,
    by_station: BTreeMap<StationId, BTreeSet<ChainId>>,
    window_events: BTreeSet<(SimTime, ChainId)>,
    dirty: BTreeSet<ChainId>,
}

impl DesiredState {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// One attachment, by chain.
    pub(crate) fn get(&self, chain: ChainId) -> Option<&AttachmentRecord> {
        self.attachments.get(&chain)
    }

    /// All attachments, in chain order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &AttachmentRecord> {
        self.attachments.values()
    }

    /// Inserts (or replaces) an attachment, maintaining every index. New
    /// window boundaries are scheduled as reconciliation events.
    pub(crate) fn insert(&mut self, attachment: AttachmentRecord) {
        let chain = attachment.chain;
        if let Some(old) = self.attachments.remove(&chain) {
            self.unindex(&old);
        }
        self.by_client
            .entry(attachment.client)
            .or_default()
            .insert(chain, ());
        if let Some(station) = attachment.station {
            self.by_station.entry(station).or_default().insert(chain);
        }
        if let Some((from, to)) = attachment.window {
            self.window_events.insert((from, chain));
            self.window_events.insert((to, chain));
        }
        self.attachments.insert(chain, attachment);
    }

    /// Removes an attachment and every index entry pointing at it.
    pub(crate) fn remove(&mut self, chain: ChainId) -> Option<AttachmentRecord> {
        let old = self.attachments.remove(&chain)?;
        self.unindex(&old);
        self.dirty.remove(&chain);
        Some(old)
    }

    fn unindex(&mut self, old: &AttachmentRecord) {
        if let Some(chains) = self.by_client.get_mut(&old.client) {
            chains.remove(&old.chain);
            if chains.is_empty() {
                self.by_client.remove(&old.client);
            }
        }
        if let Some(station) = old.station {
            if let Some(set) = self.by_station.get_mut(&station) {
                set.remove(&old.chain);
                if set.is_empty() {
                    self.by_station.remove(&station);
                }
            }
        }
        if let Some((from, to)) = old.window {
            self.window_events.remove(&(from, old.chain));
            self.window_events.remove(&(to, old.chain));
        }
    }

    /// Applies `f` to the attachment (if present) and re-syncs the observed
    /// `by_station` index against whatever `f` did to `station`. The closure
    /// must not change `chain`, `client` or `window` (the Manager never
    /// does).
    pub(crate) fn update<R>(
        &mut self,
        chain: ChainId,
        f: impl FnOnce(&mut AttachmentRecord) -> R,
    ) -> Option<R> {
        let record = self.attachments.get_mut(&chain)?;
        let before = record.station;
        let result = f(record);
        let after = record.station;
        if before != after {
            if let Some(station) = before {
                if let Some(set) = self.by_station.get_mut(&station) {
                    set.remove(&chain);
                    if set.is_empty() {
                        self.by_station.remove(&station);
                    }
                }
            }
            if let Some(station) = after {
                self.by_station.entry(station).or_default().insert(chain);
            }
        }
        Some(result)
    }

    /// The chains following `client`, in unspecified order, straight off
    /// the `by_client` index: one hashed probe, no allocation.
    pub(crate) fn chains_of(&self, client: ClientId) -> impl Iterator<Item = ChainId> + '_ {
        self.by_client
            .get(&client)
            .into_iter()
            .flat_map(|chains| chains.keys().copied())
    }

    /// The attachments following `client`, in unspecified order, through
    /// [`DesiredState::chains_of`].
    pub(crate) fn attachments_of(
        &self,
        client: ClientId,
    ) -> impl Iterator<Item = &AttachmentRecord> {
        self.chains_of(client)
            .filter_map(|chain| self.attachments.get(&chain))
    }

    /// Chains the Manager believes are placed on `station`, in chain order.
    pub(crate) fn chains_on_station(&self, station: StationId) -> Vec<ChainId> {
        self.by_station
            .get(&station)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Flags a chain for reconciliation on the next tick.
    pub(crate) fn mark_dirty(&mut self, chain: ChainId) {
        self.dirty.insert(chain);
    }

    /// Pops every window boundary that is due and returns the dirty set to
    /// reconcile this tick (due-boundary chains plus chains flagged since the
    /// last tick). The set is drained; reconciliation re-flags with
    /// [`DesiredState::mark_dirty`] anything that must be looked at again.
    pub(crate) fn take_dirty(&mut self, now: SimTime) -> Vec<ChainId> {
        while let Some(&(at, chain)) = self.window_events.iter().next() {
            if at > now {
                break;
            }
            self.window_events.remove(&(at, chain));
            self.dirty.insert(chain);
        }
        let due = self.dirty.iter().copied().collect();
        self.dirty.clear();
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_switch::TrafficSelector;
    use proptest::prelude::*;

    fn attachment(chain: u64, client: u64, station: Option<u64>) -> AttachmentRecord {
        AttachmentRecord {
            chain: ChainId::new(chain),
            client: ClientId::new(client),
            specs: Vec::new(),
            selector: TrafficSelector::all(),
            station: station.map(StationId::new),
            active: station.is_some(),
            last_deploy_latency: None,
            last_images_cached: None,
            window: None,
        }
    }

    #[test]
    fn indexes_track_insert_update_remove() {
        let mut state = DesiredState::new();
        state.insert(attachment(1, 10, Some(5)));
        state.insert(attachment(2, 10, Some(6)));
        state.insert(attachment(3, 11, None));

        let mut chains: Vec<ChainId> = state.chains_of(ClientId::new(10)).collect();
        chains.sort();
        assert_eq!(chains, vec![ChainId::new(1), ChainId::new(2)]);
        assert_eq!(
            state.chains_on_station(StationId::new(5)),
            vec![ChainId::new(1)]
        );

        // Moving a chain between stations re-points the observed index.
        state.update(ChainId::new(1), |a| a.station = Some(StationId::new(6)));
        assert!(state.chains_on_station(StationId::new(5)).is_empty());
        assert_eq!(
            state.chains_on_station(StationId::new(6)),
            vec![ChainId::new(1), ChainId::new(2)]
        );

        state.remove(ChainId::new(1));
        assert!(state.chains_of(ClientId::new(10)).eq([ChainId::new(2)]));
        assert_eq!(
            state.chains_on_station(StationId::new(6)),
            vec![ChainId::new(2)]
        );
    }

    #[test]
    fn window_boundaries_become_dirty_when_due() {
        let mut state = DesiredState::new();
        let mut windowed = attachment(1, 10, None);
        windowed.window = Some((SimTime::from_secs(100), SimTime::from_secs(200)));
        state.insert(windowed);

        assert!(state.take_dirty(SimTime::from_secs(50)).is_empty());
        // The open boundary pops exactly once.
        assert_eq!(
            state.take_dirty(SimTime::from_secs(100)),
            vec![ChainId::new(1)]
        );
        assert!(state.take_dirty(SimTime::from_secs(150)).is_empty());
        // The close boundary pops later, and stay-dirty re-flagging works.
        assert_eq!(
            state.take_dirty(SimTime::from_secs(210)),
            vec![ChainId::new(1)]
        );
        state.mark_dirty(ChainId::new(1));
        assert_eq!(
            state.take_dirty(SimTime::from_secs(211)),
            vec![ChainId::new(1)]
        );
        assert!(state.take_dirty(SimTime::from_secs(212)).is_empty());
    }

    #[test]
    fn removing_a_chain_drops_its_window_events_and_dirty_flag() {
        let mut state = DesiredState::new();
        let mut windowed = attachment(1, 10, None);
        windowed.window = Some((SimTime::from_secs(100), SimTime::from_secs(200)));
        state.insert(windowed);
        state.mark_dirty(ChainId::new(1));
        state.remove(ChainId::new(1));
        assert!(state.take_dirty(SimTime::from_secs(300)).is_empty());
    }

    proptest! {
        /// Index consistency is checked, not assumed: whatever sequence of
        /// inserts (fresh, replacing, client-changing), removes and station
        /// updates ran, both secondary indexes answer exactly what a filter
        /// over the records answers (the by-client one in its own order).
        #[test]
        fn indexed_views_equal_a_filter_over_the_records(
            ops in proptest::collection::vec((0u8..3, 0u64..8, 0u64..5, 0u64..4), 0..60),
        ) {
            let mut state = DesiredState::new();
            for (op, chain, client, station) in ops {
                // Station 0 stands for "not placed".
                let station = (station > 0).then_some(station);
                match op {
                    0 => state.insert(attachment(chain, client, station)),
                    1 => {
                        state.remove(ChainId::new(chain));
                    }
                    _ => {
                        state.update(ChainId::new(chain), |a| {
                            a.station = station.map(StationId::new);
                        });
                    }
                }
                for client in (0..5).map(ClientId::new) {
                    let mut indexed: Vec<ChainId> =
                        state.attachments_of(client).map(|a| a.chain).collect();
                    indexed.sort();
                    let filtered: Vec<ChainId> = state
                        .iter()
                        .filter(|a| a.client == client)
                        .map(|a| a.chain)
                        .collect();
                    prop_assert_eq!(&indexed, &filtered);
                    let mut chains: Vec<ChainId> = state.chains_of(client).collect();
                    chains.sort();
                    prop_assert_eq!(chains, filtered);
                }
                for station in (1..4).map(StationId::new) {
                    let filtered: Vec<ChainId> = state
                        .iter()
                        .filter(|a| a.station == Some(station))
                        .map(|a| a.chain)
                        .collect();
                    prop_assert_eq!(state.chains_on_station(station), filtered);
                }
            }
        }
    }
}
