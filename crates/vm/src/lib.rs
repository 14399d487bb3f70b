//! # gnf-vm
//!
//! The virtual-machine NFV baseline the paper's container approach is compared
//! against.
//!
//! Current NFV frameworks criticised in the paper ("utilise commodity x86
//! servers using resource-hungry Virtual Machines") deploy each network
//! function as a full VM: a guest OS image of hundreds of megabytes, seconds
//! to tens of seconds of boot time, and hundreds of megabytes of memory per
//! instance. [`VmRuntime`] implements exactly the same
//! [`gnf_container::NfvRuntime`] interface as
//! [`gnf_container::ContainerRuntime`], so the instantiation
//! (E2), density (E3) and migration experiments can run both technologies
//! through identical code paths and compare the outcomes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gnf_container::cost::CostModel;
use gnf_container::cost::RuntimeKind;
use gnf_container::delegate_runtime;
use gnf_container::image::{vm_layers_for, NfImage};
use gnf_container::runtime::RuntimePool;
use gnf_nf::NfKind;
use gnf_types::{GnfResult, HostClass, ImageId, ResourceSpec};
use serde::{Deserialize, Serialize};

/// The VM-based NFV runtime baseline.
#[derive(Debug, Clone)]
pub struct VmRuntime {
    pool: RuntimePool,
}

impl VmRuntime {
    /// Creates a VM runtime on a host of the given class.
    ///
    /// Note that creating the runtime does not guarantee any VM actually
    /// fits: on a home-router class host the per-VM footprint exceeds the
    /// host capacity, which is exactly the point the paper makes.
    pub fn new(host: HostClass) -> Self {
        VmRuntime {
            pool: RuntimePool::new(host, CostModel::vm_on(host)),
        }
    }

    /// Creates a runtime with an explicit capacity override.
    pub fn with_capacity(host: HostClass, capacity: ResourceSpec) -> Self {
        VmRuntime {
            pool: RuntimePool::new(host, CostModel::vm_on(host)).with_capacity(capacity),
        }
    }
}

delegate_runtime!(VmRuntime, RuntimeKind::VirtualMachine);

/// A repository of full-VM images mirroring the standard container images:
/// one `glanf/<nf>-vm` image per NF kind, each including a complete guest OS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VmImageCatalog {
    images: Vec<NfImage>,
}

impl Default for VmImageCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl VmImageCatalog {
    /// Builds the catalog with one VM image per NF kind.
    pub fn new() -> Self {
        let images = NfKind::all()
            .iter()
            .enumerate()
            .map(|(ix, kind)| NfImage {
                id: ImageId::new(1_000 + ix as u64),
                name: format!("{}-vm", kind.image_name()),
                layers: vm_layers_for(*kind),
            })
            .collect();
        VmImageCatalog { images }
    }

    /// The VM image for an NF kind.
    pub fn for_kind(&self, kind: NfKind) -> GnfResult<&NfImage> {
        let name = format!("{}-vm", kind.image_name());
        self.images
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| gnf_types::GnfError::not_found("vm image", name))
    }

    /// All VM images.
    pub fn images(&self) -> &[NfImage] {
        &self.images
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_container::runtime::NfvRuntime;
    use gnf_container::{ContainerRuntime, ImageRepository};

    #[test]
    fn vm_catalog_has_an_image_per_kind() {
        let catalog = VmImageCatalog::new();
        assert_eq!(catalog.images().len(), NfKind::all().len());
        for kind in NfKind::all() {
            let image = catalog.for_kind(kind).unwrap();
            assert!(image.name.ends_with("-vm"));
            assert!(image.size_mb() > 300, "VM images include a guest OS");
        }
    }

    #[test]
    fn vms_cannot_run_on_a_home_router_but_containers_can() {
        let catalog = VmImageCatalog::new();
        let repo = ImageRepository::with_standard_images();
        let kind = NfKind::Firewall;

        let mut vms = VmRuntime::new(HostClass::HomeRouter);
        let vm_image = catalog.for_kind(kind).unwrap();
        // The VM image alone exceeds the router's storage.
        assert!(vms.deploy("fw-vm", vm_image, kind.vm_footprint()).is_err());

        let mut containers = ContainerRuntime::new(HostClass::HomeRouter);
        let c_image = repo.for_kind(kind).unwrap();
        let deployed = containers
            .deploy("fw-c", c_image, kind.container_footprint())
            .unwrap();
        assert!(deployed.total_duration.as_millis() > 0);
    }

    #[test]
    fn vm_instantiation_is_orders_of_magnitude_slower() {
        let catalog = VmImageCatalog::new();
        let repo = ImageRepository::with_standard_images();
        let kind = NfKind::HttpFilter;
        let host = HostClass::PopServer;

        let mut vms = VmRuntime::new(host);
        let mut containers = ContainerRuntime::new(host);
        let vm = vms
            .deploy(
                "hf-vm",
                catalog.for_kind(kind).unwrap(),
                kind.vm_footprint(),
            )
            .unwrap();
        let container = containers
            .deploy(
                "hf-c",
                repo.for_kind(kind).unwrap(),
                kind.container_footprint(),
            )
            .unwrap();
        let ratio = vm.total_duration.as_millis_f64() / container.total_duration.as_millis_f64();
        assert!(
            ratio > 10.0,
            "VM deploy should be >10x slower, got {ratio:.1}x"
        );
    }

    #[test]
    fn container_density_dwarfs_vm_density_on_the_same_host() {
        let catalog = VmImageCatalog::new();
        let repo = ImageRepository::with_standard_images();
        let kind = NfKind::RateLimiter;
        let host = HostClass::EdgeServer;

        let mut vms = VmRuntime::new(host);
        let vm_image = catalog.for_kind(kind).unwrap();
        let mut vm_count = 0;
        while vms
            .deploy(&format!("vm-{vm_count}"), vm_image, kind.vm_footprint())
            .is_ok()
        {
            vm_count += 1;
            assert!(vm_count < 10_000);
        }

        let mut containers = ContainerRuntime::new(host);
        let c_image = repo.for_kind(kind).unwrap();
        let mut c_count = 0;
        while containers
            .deploy(&format!("c-{c_count}"), c_image, kind.container_footprint())
            .is_ok()
        {
            c_count += 1;
            assert!(c_count < 100_000);
        }

        assert!(vm_count >= 1);
        assert!(
            c_count as f64 / vm_count as f64 > 10.0,
            "expected container density ≫ VM density, got {c_count} vs {vm_count}"
        );
    }

    #[test]
    fn vm_lifecycle_works_on_capable_hosts() {
        let catalog = VmImageCatalog::new();
        let kind = NfKind::Firewall;
        let mut vms = VmRuntime::new(HostClass::CloudVm);
        let image = catalog.for_kind(kind).unwrap();
        let deployed = vms.deploy("fw-vm", image, kind.vm_footprint()).unwrap();
        assert!(vms.checkpoint(deployed.handle, 1_000_000).is_ok());
        vms.stop(deployed.handle).unwrap();
        vms.remove(deployed.handle).unwrap();
        assert_eq!(vms.instance_count(), 0);
        assert_eq!(vms.runtime_kind(), RuntimeKind::VirtualMachine);
    }
}
