//! Compute-resource descriptions shared by the container runtime, the VM
//! baseline, the Agents and the Manager's placement / hotspot logic.
//!
//! Resources are expressed the way the paper's deployment targets differ:
//! CPU in millicores (a TP-Link home router has far less than an edge server),
//! memory and disk in mebibytes. [`ResourceSpec`] is a static requirement or
//! capacity; [`ResourceUsage`] is a measured utilisation at a point in time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A static amount of compute resources: a capacity (what a host offers) or a
/// requirement (what an NF instance needs).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ResourceSpec {
    /// CPU in millicores (1000 = one full core).
    pub cpu_millicores: u64,
    /// Memory in mebibytes.
    pub memory_mb: u64,
    /// Persistent storage in mebibytes (image layers, logs, NF state).
    pub disk_mb: u64,
}

impl ResourceSpec {
    /// The zero spec.
    pub const ZERO: ResourceSpec = ResourceSpec {
        cpu_millicores: 0,
        memory_mb: 0,
        disk_mb: 0,
    };

    /// Convenience constructor.
    pub const fn new(cpu_millicores: u64, memory_mb: u64, disk_mb: u64) -> Self {
        Self {
            cpu_millicores,
            memory_mb,
            disk_mb,
        }
    }

    /// True when every dimension of `other` fits within `self`.
    pub fn can_fit(&self, other: &ResourceSpec) -> bool {
        self.cpu_millicores >= other.cpu_millicores
            && self.memory_mb >= other.memory_mb
            && self.disk_mb >= other.disk_mb
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &ResourceSpec) -> ResourceSpec {
        ResourceSpec {
            cpu_millicores: self.cpu_millicores.saturating_sub(other.cpu_millicores),
            memory_mb: self.memory_mb.saturating_sub(other.memory_mb),
            disk_mb: self.disk_mb.saturating_sub(other.disk_mb),
        }
    }

    /// Component-wise scaling by an integer factor (e.g. "n instances of this
    /// NF need n times its spec").
    pub fn scaled(&self, factor: u64) -> ResourceSpec {
        ResourceSpec {
            cpu_millicores: self.cpu_millicores * factor,
            memory_mb: self.memory_mb * factor,
            disk_mb: self.disk_mb * factor,
        }
    }

    /// True if all dimensions are zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }
}

impl Add for ResourceSpec {
    type Output = ResourceSpec;
    fn add(self, rhs: ResourceSpec) -> ResourceSpec {
        ResourceSpec {
            cpu_millicores: self.cpu_millicores + rhs.cpu_millicores,
            memory_mb: self.memory_mb + rhs.memory_mb,
            disk_mb: self.disk_mb + rhs.disk_mb,
        }
    }
}

impl AddAssign for ResourceSpec {
    fn add_assign(&mut self, rhs: ResourceSpec) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceSpec {
    type Output = ResourceSpec;
    fn sub(self, rhs: ResourceSpec) -> ResourceSpec {
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for ResourceSpec {
    fn sub_assign(&mut self, rhs: ResourceSpec) {
        *self = *self - rhs;
    }
}

impl fmt::Display for ResourceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}m CPU / {} MB mem / {} MB disk",
            self.cpu_millicores, self.memory_mb, self.disk_mb
        )
    }
}

/// A point-in-time utilisation measurement reported by an Agent to the Manager
/// (the statistics the paper's UI displays: CPU load, memory usage, traffic).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// CPU utilisation as a fraction of the host's capacity, in `[0, 1]`.
    pub cpu_fraction: f64,
    /// Memory in use, in mebibytes.
    pub memory_mb: u64,
    /// Disk in use, in mebibytes.
    pub disk_mb: u64,
    /// Aggregate network receive rate in bits per second.
    pub rx_bps: f64,
    /// Aggregate network transmit rate in bits per second.
    pub tx_bps: f64,
}

impl ResourceUsage {
    /// A usage report with every gauge at zero.
    pub const IDLE: ResourceUsage = ResourceUsage {
        cpu_fraction: 0.0,
        memory_mb: 0,
        disk_mb: 0,
        rx_bps: 0.0,
        tx_bps: 0.0,
    };

    /// Memory utilisation as a fraction of the given capacity (clamped to 1.0).
    pub fn memory_fraction(&self, capacity: &ResourceSpec) -> f64 {
        if capacity.memory_mb == 0 {
            return 0.0;
        }
        (self.memory_mb as f64 / capacity.memory_mb as f64).min(1.0)
    }

    /// The dominant utilisation fraction across CPU and memory — the value the
    /// Manager's hotspot detector thresholds on.
    pub fn dominant_fraction(&self, capacity: &ResourceSpec) -> f64 {
        self.cpu_fraction.max(self.memory_fraction(capacity))
    }
}

/// The classes of hosting platform the paper targets, with representative
/// capacities. Fig. 1 shows NFs on home routers, enterprise/edge servers and
/// (via GNFC \[2\]) public-cloud VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostClass {
    /// A consumer home router / access point (the demo's TP-Link WDR3600:
    /// single small MIPS core, 128 MB RAM).
    HomeRouter,
    /// A small-cell / street-cabinet edge server.
    EdgeServer,
    /// A commodity x86 server in an operator PoP.
    PopServer,
    /// A rented public-cloud VM (the GNFC deployment target).
    CloudVm,
}

impl HostClass {
    /// Representative capacity for the host class.
    pub fn capacity(&self) -> ResourceSpec {
        match self {
            // 1 small core, 128 MB RAM, 8 MB flash + small USB storage.
            HostClass::HomeRouter => ResourceSpec::new(1_000, 128, 512),
            // 4 cores, 8 GB RAM.
            HostClass::EdgeServer => ResourceSpec::new(4_000, 8_192, 65_536),
            // 16 cores, 64 GB RAM.
            HostClass::PopServer => ResourceSpec::new(16_000, 65_536, 524_288),
            // 8 vCPU cloud instance, 32 GB RAM.
            HostClass::CloudVm => ResourceSpec::new(8_000, 32_768, 262_144),
        }
    }

    /// All host classes, in increasing order of capability.
    pub fn all() -> [HostClass; 4] {
        [
            HostClass::HomeRouter,
            HostClass::EdgeServer,
            HostClass::CloudVm,
            HostClass::PopServer,
        ]
    }

    /// A short human-readable label used in reports and the UI.
    pub fn label(&self) -> &'static str {
        match self {
            HostClass::HomeRouter => "home-router",
            HostClass::EdgeServer => "edge-server",
            HostClass::PopServer => "pop-server",
            HostClass::CloudVm => "cloud-vm",
        }
    }
}

impl fmt::Display for HostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn can_fit_checks_every_dimension() {
        let cap = ResourceSpec::new(1000, 128, 512);
        assert!(cap.can_fit(&ResourceSpec::new(100, 16, 32)));
        assert!(!cap.can_fit(&ResourceSpec::new(2000, 16, 32)));
        assert!(!cap.can_fit(&ResourceSpec::new(100, 256, 32)));
        assert!(!cap.can_fit(&ResourceSpec::new(100, 16, 1024)));
        assert!(cap.can_fit(&ResourceSpec::ZERO));
    }

    #[test]
    fn arithmetic_is_componentwise_and_saturating() {
        let a = ResourceSpec::new(100, 64, 10);
        let b = ResourceSpec::new(50, 100, 5);
        assert_eq!(a + b, ResourceSpec::new(150, 164, 15));
        assert_eq!(a - b, ResourceSpec::new(50, 0, 5));
        let mut c = a;
        c += b;
        assert_eq!(c, ResourceSpec::new(150, 164, 15));
        c -= a;
        assert_eq!(c, ResourceSpec::new(50, 100, 5));
    }

    #[test]
    fn scaled_multiplies_each_dimension() {
        let nf = ResourceSpec::new(5, 2, 1);
        assert_eq!(nf.scaled(10), ResourceSpec::new(50, 20, 10));
        assert_eq!(nf.scaled(0), ResourceSpec::ZERO);
    }

    #[test]
    fn usage_fractions() {
        let cap = ResourceSpec::new(1000, 200, 100);
        let usage = ResourceUsage {
            cpu_fraction: 0.4,
            memory_mb: 150,
            disk_mb: 10,
            rx_bps: 0.0,
            tx_bps: 0.0,
        };
        assert!((usage.memory_fraction(&cap) - 0.75).abs() < 1e-12);
        assert!((usage.dominant_fraction(&cap) - 0.75).abs() < 1e-12);

        let cpu_bound = ResourceUsage {
            cpu_fraction: 0.9,
            ..usage
        };
        assert!((cpu_bound.dominant_fraction(&cap) - 0.9).abs() < 1e-12);
        assert_eq!(
            ResourceUsage::IDLE.memory_fraction(&ResourceSpec::ZERO),
            0.0
        );
    }

    #[test]
    fn host_classes_are_ordered_by_capability() {
        let router = HostClass::HomeRouter.capacity();
        let edge = HostClass::EdgeServer.capacity();
        let pop = HostClass::PopServer.capacity();
        assert!(edge.can_fit(&router));
        assert!(pop.can_fit(&edge));
        assert_eq!(HostClass::all().len(), 4);
        assert_eq!(HostClass::HomeRouter.to_string(), "home-router");
    }
}
