//! # gnf-ui
//!
//! The management dashboard of the GNF reproduction.
//!
//! The paper's UI "provides the overall management interface for the system
//! through a direct connection to the Manager's API. Using a simple interface,
//! the entire network health, status, and notifications can be monitored,
//! including the number of online stations, connected clients, enabled NFs,
//! and current processing and network resource consumption."
//!
//! [`Dashboard`] is that view, built from a [`gnf_manager::Manager`] snapshot:
//! it aggregates the same counters and renders them either as an ASCII panel
//! (for terminal demos and examples) or as JSON (for an external front end).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gnf_manager::Manager;
use gnf_telemetry::{NotificationSeverity, StationStatus};
use gnf_types::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One station row on the dashboard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StationRow {
    /// Station name (e.g. `station-3`).
    pub station: String,
    /// Hardware class label.
    pub host_class: String,
    /// Online / degraded / offline.
    pub status: String,
    /// CPU utilisation fraction from the latest report.
    pub cpu: f64,
    /// Memory in use (MB) from the latest report.
    pub memory_mb: u64,
    /// Clients currently associated.
    pub clients: usize,
    /// NF containers currently running.
    pub running_nfs: usize,
    /// Receive rate in bits per second.
    pub rx_bps: f64,
    /// Transmit rate in bits per second.
    pub tx_bps: f64,
}

/// One notification row on the dashboard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NotificationRow {
    /// When it was raised (seconds of virtual time).
    pub at_secs: f64,
    /// Severity label.
    pub severity: String,
    /// Category.
    pub category: String,
    /// Message text.
    pub message: String,
}

/// The aggregated dashboard state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dashboard {
    /// When the snapshot was taken.
    pub taken_at_secs: f64,
    /// Stations known to the Manager.
    pub total_stations: usize,
    /// Stations currently online.
    pub online_stations: usize,
    /// Clients currently connected somewhere.
    pub connected_clients: usize,
    /// Chains (NF attachments) currently enabled.
    pub enabled_chains: usize,
    /// NF containers running across the whole edge.
    pub running_nfs: usize,
    /// Migrations completed so far.
    pub migrations_completed: u64,
    /// Migrations currently in flight.
    pub migrations_in_flight: usize,
    /// Critical notifications raised so far.
    pub critical_notifications: u64,
    /// Per-station rows.
    pub stations: Vec<StationRow>,
    /// Most recent notifications, newest first.
    pub notifications: Vec<NotificationRow>,
}

impl Dashboard {
    /// Builds a dashboard snapshot from the Manager's current state.
    pub fn capture(manager: &Manager, now: SimTime) -> Self {
        let mut stations = Vec::new();
        for (view, registration) in manager.stations() {
            let status = match view.status {
                StationStatus::Online => "online",
                StationStatus::Degraded => "degraded",
                StationStatus::Offline => "offline",
            };
            let report = view.last_report.as_ref();
            let usage = report.map(|r| r.usage).unwrap_or_default();
            stations.push(StationRow {
                station: view.station.to_string(),
                host_class: registration.host_class.to_string(),
                status: status.to_string(),
                cpu: usage.cpu_fraction,
                memory_mb: usage.memory_mb,
                clients: report.map_or(0, |r| r.connected_clients.len()),
                running_nfs: report.map_or(0, |r| r.running_nfs),
                rx_bps: usage.rx_bps,
                tx_bps: usage.tx_bps,
            });
        }

        let notifications = manager
            .notifications()
            .recent(10)
            .into_iter()
            .map(|n| NotificationRow {
                at_secs: n.raised_at.as_secs_f64(),
                severity: match n.severity {
                    NotificationSeverity::Info => "info".to_string(),
                    NotificationSeverity::Warning => "warning".to_string(),
                    NotificationSeverity::Critical => "critical".to_string(),
                },
                category: n.category.clone(),
                message: n.message.clone(),
            })
            .collect();

        Dashboard {
            taken_at_secs: now.as_secs_f64(),
            total_stations: manager.stations().count(),
            online_stations: manager.monitoring().online_count(),
            connected_clients: manager.clients().filter(|c| c.station.is_some()).count(),
            enabled_chains: manager.attachments().filter(|a| a.active).count(),
            running_nfs: manager.monitoring().running_nfs(),
            migrations_completed: manager.stats().migrations_completed,
            migrations_in_flight: manager.migrations_in_flight(),
            critical_notifications: manager
                .notifications()
                .total(NotificationSeverity::Critical),
            stations,
            notifications,
        }
    }

    /// Renders the dashboard as an ASCII panel (what the examples print).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Glasgow Network Functions — network health @ t={:.1}s ==",
            self.taken_at_secs
        );
        let _ = writeln!(
            out,
            "stations: {}/{} online | clients: {} | enabled chains: {} | running NFs: {} | migrations done: {} (in flight: {}) | critical alerts: {}",
            self.online_stations,
            self.total_stations,
            self.connected_clients,
            self.enabled_chains,
            self.running_nfs,
            self.migrations_completed,
            self.migrations_in_flight,
            self.critical_notifications,
        );
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:<9} {:>6} {:>9} {:>8} {:>6} {:>12} {:>12}",
            "station", "class", "status", "cpu%", "mem(MB)", "clients", "NFs", "rx(bps)", "tx(bps)"
        );
        for row in &self.stations {
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:<9} {:>5.1}% {:>9} {:>8} {:>6} {:>12.0} {:>12.0}",
                row.station,
                row.host_class,
                row.status,
                row.cpu * 100.0,
                row.memory_mb,
                row.clients,
                row.running_nfs,
                row.rx_bps,
                row.tx_bps,
            );
        }
        if !self.notifications.is_empty() {
            let _ = writeln!(out, "-- recent notifications --");
            for n in &self.notifications {
                let _ = writeln!(
                    out,
                    "[{:>8.1}s] {:<8} {:<18} {}",
                    n.at_secs, n.severity, n.category, n.message
                );
            }
        }
        out
    }

    /// Renders the dashboard as pretty-printed JSON (for an external UI).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_api::messages::AgentToManager;
    use gnf_nf::testing::sample_specs;
    use gnf_switch::TrafficSelector;
    use gnf_types::{AgentId, ClientId, GnfConfig, HostClass, MacAddr, ResourceUsage, StationId};
    use std::net::Ipv4Addr;

    fn populated_manager() -> Manager {
        let mut m = Manager::new(GnfConfig::default());
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::Register {
                agent: AgentId::new(0),
                station: StationId::new(0),
                host_class: HostClass::HomeRouter,
                capacity: HostClass::HomeRouter.capacity(),
            },
            SimTime::ZERO,
        );
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ClientConnected {
                client: ClientId::new(0),
                mac: MacAddr::derived(1, 0),
                ip: Ipv4Addr::new(172, 16, 0, 2),
            },
            SimTime::from_secs(1),
        );
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::Report(Box::new(gnf_telemetry::StationReport {
                station: StationId::new(0),
                agent: AgentId::new(0),
                produced_at: SimTime::from_secs(2),
                host_class: HostClass::HomeRouter,
                capacity: HostClass::HomeRouter.capacity(),
                usage: ResourceUsage {
                    cpu_fraction: 0.42,
                    memory_mb: 64,
                    disk_mb: 20,
                    rx_bps: 1_000_000.0,
                    tx_bps: 250_000.0,
                },
                connected_clients: vec![ClientId::new(0)],
                running_nfs: 3,
                cached_images: 2,
                flow_cache: Default::default(),
                megaflow: Default::default(),
                batches: Default::default(),
                chaos: Default::default(),
            })),
            SimTime::from_secs(2),
        );
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                vec![sample_specs()[0].clone()],
                TrafficSelector::all(),
                SimTime::from_secs(3),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: gnf_types::SimDuration::from_millis(300),
                images_cached: false,
                migration: None,
            },
            SimTime::from_secs(4),
        );
        m
    }

    #[test]
    fn dashboard_reflects_manager_state() {
        let manager = populated_manager();
        let dash = Dashboard::capture(&manager, SimTime::from_secs(5));
        assert_eq!(dash.total_stations, 1);
        assert_eq!(dash.online_stations, 1);
        assert_eq!(dash.connected_clients, 1);
        assert_eq!(dash.enabled_chains, 1);
        assert_eq!(dash.running_nfs, 3);
        assert_eq!(dash.stations.len(), 1);
        assert_eq!(dash.stations[0].status, "online");
        assert!((dash.stations[0].cpu - 0.42).abs() < 1e-12);
        assert!(!dash.notifications.is_empty());
    }

    #[test]
    fn text_rendering_contains_the_headline_numbers() {
        let manager = populated_manager();
        let dash = Dashboard::capture(&manager, SimTime::from_secs(5));
        let text = dash.render_text();
        assert!(text.contains("Glasgow Network Functions"));
        assert!(text.contains("stations: 1/1 online"));
        assert!(text.contains("station-0"));
        assert!(text.contains("home-router"));
        assert!(text.contains("recent notifications"));
    }

    #[test]
    fn json_rendering_is_valid_json() {
        let manager = populated_manager();
        let dash = Dashboard::capture(&manager, SimTime::from_secs(5));
        let json = dash.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["total_stations"], 1);
        let back: Dashboard = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dash);
    }

    #[test]
    fn empty_manager_renders_without_panicking() {
        let manager = Manager::new(GnfConfig::default());
        let dash = Dashboard::capture(&manager, SimTime::ZERO);
        assert_eq!(dash.total_stations, 0);
        assert!(dash.render_text().contains("stations: 0/0 online"));
    }
}
