//! The edge topology: cells, the stations serving them, and clients.
//!
//! Fig. 1 of the paper shows a 5G edge built from many small, dense cells,
//! each backed by a compute node ranging from a home router to an edge
//! server, all managed by a central controller across a wide-area control
//! network. This module models that layout geometrically (cells on a plane)
//! so the mobility model can roam clients between adjacent cells.

use gnf_types::{
    CellId, ClientId, GnfError, GnfResult, HostClass, MacAddr, SimDuration, StationId,
};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance_to(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A cell and the GNF station serving it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StationSite {
    /// The station (one Agent runs here).
    pub station: StationId,
    /// The radio cell this station serves.
    pub cell: CellId,
    /// Hardware class of the station.
    pub host_class: HostClass,
    /// Where the cell is centred.
    pub position: Position,
    /// Radio coverage radius in metres.
    pub radius_m: f64,
    /// One-way latency from this station to the Manager over the control
    /// network.
    pub control_latency: SimDuration,
    /// The gateway MAC address clients see at this station.
    pub gateway_mac: MacAddr,
    /// The gateway IP address clients use at this station.
    pub gateway_ip: Ipv4Addr,
}

/// A mobile client (smartphone / UE).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientDevice {
    /// The client.
    pub client: ClientId,
    /// The client's MAC address (stable across cells).
    pub mac: MacAddr,
    /// The client's IP address (kept stable by the operator across roams,
    /// as in the paper's location-transparent service).
    pub ip: Ipv4Addr,
    /// Current position.
    pub position: Position,
    /// The cell the client is currently associated with, if any.
    pub attached_cell: Option<CellId>,
}

/// The whole edge deployment.
///
/// Ids are positions: [`EdgeTopology::add_site`] gives the `n`-th site
/// station and cell id `n`, and [`EdgeTopology::add_client`] the `n`-th
/// client id `n`. Every lookup by id is therefore one index and one id
/// check, whatever the fleet's size; there is no other way in, so the
/// fields stay private and the type is not deserializable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeTopology {
    sites: Vec<StationSite>,
    clients: Vec<ClientDevice>,
}

impl EdgeTopology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a square-ish grid of `cell_count` cells, `spacing_m` apart, all
    /// of the same host class.
    pub fn grid(cell_count: usize, host_class: HostClass, spacing_m: f64) -> Self {
        let mut topo = Self::new();
        let columns = (cell_count as f64).sqrt().ceil() as usize;
        for ix in 0..cell_count {
            let row = ix / columns;
            let col = ix % columns;
            topo.add_site(
                host_class,
                Position::new(col as f64 * spacing_m, row as f64 * spacing_m),
                spacing_m * 0.75,
                SimDuration::from_millis(10),
            );
        }
        topo
    }

    /// Adds a station/cell site, returning its ids.
    pub fn add_site(
        &mut self,
        host_class: HostClass,
        position: Position,
        radius_m: f64,
        control_latency: SimDuration,
    ) -> (StationId, CellId) {
        let ix = self.sites.len() as u64;
        let station = StationId::new(ix);
        let cell = CellId::new(ix);
        self.sites.push(StationSite {
            station,
            cell,
            host_class,
            position,
            radius_m,
            control_latency,
            gateway_mac: MacAddr::derived(0xA0, ix as u32),
            gateway_ip: Ipv4Addr::new(10, (ix >> 8) as u8, ix as u8, 1),
        });
        (station, cell)
    }

    /// Adds a client at a position, optionally pre-attached to the nearest
    /// cell. Returns its id.
    pub fn add_client(&mut self, position: Position, attach: bool) -> ClientId {
        let ix = self.clients.len() as u64;
        let client = ClientId::new(ix);
        let attached_cell = if attach {
            self.nearest_cell(position).map(|s| s.cell)
        } else {
            None
        };
        self.clients.push(ClientDevice {
            client,
            mac: MacAddr::derived(0x01, ix as u32),
            ip: Ipv4Addr::new(172, 16 + (ix >> 8) as u8, ix as u8, 2),
            position,
            attached_cell,
        });
        client
    }

    /// All sites.
    pub fn sites(&self) -> &[StationSite] {
        &self.sites
    }

    /// All clients.
    pub fn clients(&self) -> &[ClientDevice] {
        &self.clients
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.sites.len()
    }

    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// A site by station id: the site at position `station`.
    pub fn site(&self, station: StationId) -> GnfResult<&StationSite> {
        at(&self.sites, station.raw())
            .filter(|s| s.station == station)
            .ok_or_else(|| GnfError::not_found("station", station))
    }

    /// A site by cell id: the site at position `cell`.
    pub fn site_for_cell(&self, cell: CellId) -> GnfResult<&StationSite> {
        at(&self.sites, cell.raw())
            .filter(|s| s.cell == cell)
            .ok_or_else(|| GnfError::not_found("cell", cell))
    }

    /// A client by id: the client at position `client`.
    pub fn client(&self, client: ClientId) -> GnfResult<&ClientDevice> {
        at(&self.clients, client.raw())
            .filter(|c| c.client == client)
            .ok_or_else(|| GnfError::not_found("client", client))
    }

    /// A mutable client by id: the client at position `client`.
    pub fn client_mut(&mut self, client: ClientId) -> GnfResult<&mut ClientDevice> {
        usize::try_from(client.raw())
            .ok()
            .and_then(|ix| self.clients.get_mut(ix))
            .filter(|c| c.client == client)
            .ok_or_else(|| GnfError::not_found("client", client))
    }

    /// The site whose cell centre is nearest to `position`.
    pub fn nearest_cell(&self, position: Position) -> Option<&StationSite> {
        self.sites.iter().min_by(|a, b| {
            a.position
                .distance_to(&position)
                .partial_cmp(&b.position.distance_to(&position))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// The cells adjacent to `cell` (within twice the grid spacing), nearest
    /// first — the candidates a client can roam to.
    pub fn neighbours(&self, cell: CellId) -> Vec<CellId> {
        let Ok(origin) = self.site_for_cell(cell) else {
            return Vec::new();
        };
        let mut others: Vec<(&StationSite, f64)> = self
            .sites
            .iter()
            .filter(|s| s.cell != cell)
            .map(|s| (s, s.position.distance_to(&origin.position)))
            .collect();
        others.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let Some(min_distance) = others.first().map(|(_, d)| *d) else {
            return Vec::new();
        };
        others
            .into_iter()
            .filter(|(_, d)| *d <= min_distance * 1.5 + 1e-9)
            .map(|(s, _)| s.cell)
            .collect()
    }

    /// Directly re-attaches a client to a cell (used by trace-driven roaming).
    pub fn attach_client(&mut self, client: ClientId, cell: CellId) -> GnfResult<Option<CellId>> {
        let position = self.site_for_cell(cell)?.position;
        let device = self.client_mut(client)?;
        let old = device.attached_cell;
        device.attached_cell = Some(cell);
        device.position = position;
        Ok(old)
    }
}

/// The element at position `id`, if the slice is that long.
fn at<T>(items: &[T], id: u64) -> Option<&T> {
    items.get(usize::try_from(id).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_topology_lays_out_cells() {
        let topo = EdgeTopology::grid(9, HostClass::HomeRouter, 100.0);
        assert_eq!(topo.cell_count(), 9);
        assert_eq!(topo.sites()[0].position, Position::new(0.0, 0.0));
        assert_eq!(topo.sites()[4].position, Position::new(100.0, 100.0));
        // Every site has a distinct gateway identity.
        let macs: std::collections::HashSet<_> =
            topo.sites().iter().map(|s| s.gateway_mac).collect();
        assert_eq!(macs.len(), 9);
    }

    #[test]
    fn nearest_cell_and_neighbours() {
        let topo = EdgeTopology::grid(9, HostClass::HomeRouter, 100.0);
        let near_origin = topo.nearest_cell(Position::new(10.0, 5.0)).unwrap();
        assert_eq!(near_origin.cell, CellId::new(0));
        let neighbours = topo.neighbours(CellId::new(4)); // centre of the 3x3 grid
        assert!(neighbours.contains(&CellId::new(1)));
        assert!(neighbours.contains(&CellId::new(3)));
        assert!(neighbours.contains(&CellId::new(5)));
        assert!(neighbours.contains(&CellId::new(7)));
        assert!(!neighbours.contains(&CellId::new(4)));
    }

    #[test]
    fn clients_attach_and_roam_between_cells() {
        let mut topo = EdgeTopology::grid(4, HostClass::EdgeServer, 100.0);
        let client = topo.add_client(Position::new(5.0, 5.0), true);
        assert_eq!(
            topo.client(client).unwrap().attached_cell,
            Some(CellId::new(0))
        );

        // Direct attachment by cell id.
        let old = topo.attach_client(client, CellId::new(1)).unwrap();
        assert_eq!(old, Some(CellId::new(0)));
        assert_eq!(
            topo.client(client).unwrap().attached_cell,
            Some(CellId::new(1))
        );
    }

    #[test]
    fn lookups_of_unknown_entities_fail() {
        let topo = EdgeTopology::grid(2, HostClass::HomeRouter, 50.0);
        assert!(topo.site(StationId::new(9)).is_err());
        assert!(topo.site_for_cell(CellId::new(9)).is_err());
        assert!(topo.client(ClientId::new(0)).is_err());
        assert!(EdgeTopology::new()
            .nearest_cell(Position::default())
            .is_none());
    }
}
