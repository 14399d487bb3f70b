//! `EdgeTopology`'s id lookups index by position (`add_site` and
//! `add_client` make every id its own position). This property builds
//! topologies of random shape and checks all four lookups against the
//! linear scans they replaced: the same element for every id that exists,
//! and `not_found` for every id past the end.

use gnf_edge::{EdgeTopology, Position};
use gnf_types::{CellId, ClientId, GnfResult, HostClass, SimDuration, StationId};
use proptest::prelude::*;

/// Compares a lookup with its reference scan: both find the same element
/// (by address), or the lookup fails with `not_found` where the scan
/// finds nothing.
fn agree<T>(got: GnfResult<*const T>, want: Option<&T>) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Some(want)) => prop_assert!(std::ptr::eq(got, want)),
        (Err(error), None) => prop_assert_eq!(error.category(), "not_found"),
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "lookup {got:?} but the scan found {}",
                want.is_some()
            )))
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_lookup_agrees_with_a_linear_scan(
        sites in proptest::collection::vec((0u32..1_000, 0u32..1_000, 1u64..50), 0..24),
        clients in proptest::collection::vec((0u32..1_000, 0u32..1_000, any::<bool>()), 0..24),
    ) {
        let mut topo = EdgeTopology::new();
        for (x, y, latency_ms) in sites {
            topo.add_site(
                HostClass::EdgeServer,
                Position::new(f64::from(x), f64::from(y)),
                100.0,
                SimDuration::from_millis(latency_ms),
            );
        }
        for (x, y, attach) in clients {
            topo.add_client(Position::new(f64::from(x), f64::from(y)), attach);
        }

        // Every id that exists, then a few past the end (and one far past).
        let probes = |len: usize| (0..len as u64 + 3).chain([u64::MAX]);
        for id in probes(topo.cell_count()) {
            let (station, cell) = (StationId::new(id), CellId::new(id));
            let by_station = topo.sites().iter().find(|s| s.station == station);
            agree(topo.site(station).map(|s| s as *const _), by_station)?;
            let by_cell = topo.sites().iter().find(|s| s.cell == cell);
            agree(topo.site_for_cell(cell).map(|s| s as *const _), by_cell)?;
        }
        for id in probes(topo.client_count()) {
            let client = ClientId::new(id);
            let got = topo.client(client).map(|c| c as *const _);
            let got_mut = topo.client_mut(client).map(|c| c as *const _);
            let by_id = topo.clients().iter().find(|c| c.client == client);
            agree(got, by_id)?;
            agree(got_mut, by_id)?;
        }
    }
}
