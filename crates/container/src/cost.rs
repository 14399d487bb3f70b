//! Cost models for NFV runtime operations.
//!
//! The physical testbed of the paper (OpenWRT home routers starting LXC-style
//! containers) is replaced by a calibrated cost model: every lifecycle
//! operation takes a deterministic amount of *virtual* time derived from the
//! image size, the amount of NF state to transfer, the host's class and the
//! runtime technology (container vs. full VM). The absolute values are
//! representative of published measurements for LXC/Docker containers and
//! small KVM virtual machines; the experiments depend on their *relative*
//! magnitudes, which is what the container-vs-VM comparison in the paper is
//! about.

use crate::image::NfImage;
use gnf_types::{HostClass, SimDuration};
use serde::{Deserialize, Serialize};

/// The deployment technology a cost model describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuntimeKind {
    /// Lightweight OS-level containers (the GNF approach).
    Container,
    /// Full virtual machines (the baseline GNF is compared against).
    VirtualMachine,
}

impl RuntimeKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RuntimeKind::Container => "container",
            RuntimeKind::VirtualMachine => "vm",
        }
    }
}

/// Deterministic per-operation costs of an NFV runtime on a particular host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Which technology these costs describe.
    pub kind: RuntimeKind,
    /// Downlink bandwidth available for image pulls, in megabits per second.
    pub pull_bandwidth_mbps: f64,
    /// Fixed overhead per pull (registry round trips, unpacking setup).
    pub pull_overhead: SimDuration,
    /// Time to create (but not start) an instance.
    pub create: SimDuration,
    /// Time from start request until the NF is processing packets.
    pub start: SimDuration,
    /// Time to stop a running instance gracefully.
    pub stop: SimDuration,
    /// Time to remove a stopped instance and release its resources.
    pub remove: SimDuration,
    /// Fixed overhead of a checkpoint operation.
    pub checkpoint_overhead: SimDuration,
    /// Fixed overhead of a restore operation.
    pub restore_overhead: SimDuration,
    /// Bandwidth at which NF state is serialized/transferred during
    /// checkpoint/restore, in megabits per second.
    pub state_bandwidth_mbps: f64,
    /// Multiplier applied to every CPU-bound operation (slow edge hardware
    /// has a factor above 1).
    pub cpu_factor: f64,
}

impl CostModel {
    /// The container cost model for a host class.
    ///
    /// Containers start in hundreds of milliseconds on weak hardware and tens
    /// of milliseconds on servers — the paper's "fast instantiation time".
    pub fn container_on(host: HostClass) -> Self {
        let (cpu_factor, bandwidth) = host_factors(host);
        CostModel {
            kind: RuntimeKind::Container,
            pull_bandwidth_mbps: bandwidth,
            pull_overhead: SimDuration::from_millis(150),
            create: SimDuration::from_millis(40),
            start: SimDuration::from_millis(120),
            stop: SimDuration::from_millis(60),
            remove: SimDuration::from_millis(30),
            checkpoint_overhead: SimDuration::from_millis(25),
            restore_overhead: SimDuration::from_millis(35),
            state_bandwidth_mbps: bandwidth,
            cpu_factor,
        }
    }

    /// The full-VM cost model for a host class.
    ///
    /// A VM must boot a guest kernel and userspace: tens of seconds on edge
    /// hardware, seconds on servers, with image pulls of hundreds of MB.
    pub fn vm_on(host: HostClass) -> Self {
        let (cpu_factor, bandwidth) = host_factors(host);
        CostModel {
            kind: RuntimeKind::VirtualMachine,
            pull_bandwidth_mbps: bandwidth,
            pull_overhead: SimDuration::from_millis(600),
            create: SimDuration::from_millis(1_500),
            start: SimDuration::from_secs(12),
            stop: SimDuration::from_secs(3),
            remove: SimDuration::from_millis(400),
            checkpoint_overhead: SimDuration::from_millis(900),
            restore_overhead: SimDuration::from_millis(1_200),
            state_bandwidth_mbps: bandwidth,
            cpu_factor,
        }
    }

    /// Time to pull an image from the central repository.
    pub fn pull_time(&self, image: &NfImage) -> SimDuration {
        let bits = image.size_mb() as f64 * 8.0 * 1_048_576.0 / 1_000_000.0; // Mb
        let transfer = SimDuration::from_secs_f64(bits / self.pull_bandwidth_mbps);
        self.pull_overhead.mul_f64(self.cpu_factor) + transfer
    }

    /// Time to create an instance.
    pub fn create_time(&self) -> SimDuration {
        self.create.mul_f64(self.cpu_factor)
    }

    /// Time from start request to a packet-processing instance.
    pub fn start_time(&self) -> SimDuration {
        self.start.mul_f64(self.cpu_factor)
    }

    /// Time to stop an instance.
    pub fn stop_time(&self) -> SimDuration {
        self.stop.mul_f64(self.cpu_factor)
    }

    /// Time to remove a stopped instance.
    pub fn remove_time(&self) -> SimDuration {
        self.remove.mul_f64(self.cpu_factor)
    }

    /// Time to checkpoint `state_bytes` of NF state.
    pub fn checkpoint_time(&self, state_bytes: usize) -> SimDuration {
        self.checkpoint_overhead.mul_f64(self.cpu_factor) + self.state_transfer(state_bytes)
    }

    /// Time to restore `state_bytes` of NF state.
    pub fn restore_time(&self, state_bytes: usize) -> SimDuration {
        self.restore_overhead.mul_f64(self.cpu_factor) + self.state_transfer(state_bytes)
    }

    /// Warm-deploy latency: create + start with the image already cached.
    pub fn warm_deploy_time(&self) -> SimDuration {
        self.create_time() + self.start_time()
    }

    fn state_transfer(&self, state_bytes: usize) -> SimDuration {
        let bits = state_bytes as f64 * 8.0 / 1_000_000.0; // Mb
        SimDuration::from_secs_f64(bits / self.state_bandwidth_mbps)
    }
}

/// (CPU slowness factor, pull bandwidth in Mbit/s) per host class.
fn host_factors(host: HostClass) -> (f64, f64) {
    match host {
        // A MIPS home router: ~4x slower CPU, 20 Mbit/s backhaul.
        HostClass::HomeRouter => (4.0, 20.0),
        // A small edge server: modest CPU, 200 Mbit/s.
        HostClass::EdgeServer => (1.5, 200.0),
        // A PoP server: fast CPU, 1 Gbit/s.
        HostClass::PopServer => (1.0, 1_000.0),
        // A cloud VM: fast CPU, 500 Mbit/s.
        HostClass::CloudVm => (1.0, 500.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{container_layers_for, vm_layers_for, ImageRepository};
    use gnf_nf::NfKind;
    use gnf_types::ImageId;

    fn firewall_container_image() -> NfImage {
        NfImage {
            id: ImageId::new(0),
            name: "glanf/firewall".into(),
            layers: container_layers_for(NfKind::Firewall),
        }
    }

    fn firewall_vm_image() -> NfImage {
        NfImage {
            id: ImageId::new(1),
            name: "glanf/firewall-vm".into(),
            layers: vm_layers_for(NfKind::Firewall),
        }
    }

    /// Cold-deploy latency: pull, then a warm deploy.
    fn cold_deploy_time(model: &CostModel, image: &NfImage) -> SimDuration {
        model.pull_time(image) + model.warm_deploy_time()
    }

    #[test]
    fn containers_deploy_orders_of_magnitude_faster_than_vms() {
        for host in [
            HostClass::HomeRouter,
            HostClass::EdgeServer,
            HostClass::PopServer,
        ] {
            let c = CostModel::container_on(host);
            let v = CostModel::vm_on(host);
            let c_cold = cold_deploy_time(&c, &firewall_container_image());
            let v_cold = cold_deploy_time(&v, &firewall_vm_image());
            assert!(
                v_cold.as_millis_f64() / c_cold.as_millis_f64() > 10.0,
                "{host}: VM cold deploy {v_cold} should be >10x container {c_cold}"
            );
            let c_warm = c.warm_deploy_time();
            let v_warm = v.warm_deploy_time();
            assert!(v_warm.as_millis_f64() / c_warm.as_millis_f64() > 20.0);
        }
    }

    #[test]
    fn warm_deploy_is_much_faster_than_cold_deploy() {
        let model = CostModel::container_on(HostClass::HomeRouter);
        let image = firewall_container_image();
        assert!(cold_deploy_time(&model, &image) > model.warm_deploy_time() * 2);
    }

    #[test]
    fn container_warm_start_is_subsecond_even_on_a_home_router() {
        // The paper claims NFs can be "attached in seconds" even on low-end
        // hardware; warm container starts must be well below a second.
        let model = CostModel::container_on(HostClass::HomeRouter);
        assert!(model.warm_deploy_time() < SimDuration::from_secs(1));
        // And even a cold pull of a small image stays within a few seconds.
        assert!(cold_deploy_time(&model, &firewall_container_image()) < SimDuration::from_secs(10));
    }

    #[test]
    fn weaker_hosts_are_slower() {
        let router = CostModel::container_on(HostClass::HomeRouter);
        let pop = CostModel::container_on(HostClass::PopServer);
        assert!(router.start_time() > pop.start_time());
        let image = firewall_container_image();
        assert!(router.pull_time(&image) > pop.pull_time(&image));
    }

    #[test]
    fn checkpoint_time_grows_with_state_size() {
        let model = CostModel::container_on(HostClass::EdgeServer);
        let small = model.checkpoint_time(1_000);
        let large = model.checkpoint_time(10_000_000);
        assert!(large > small);
        assert!(model.restore_time(10_000_000) > model.restore_time(0));
        // Zero state still has a fixed overhead.
        assert!(model.checkpoint_time(0) > SimDuration::ZERO);
    }

    #[test]
    fn pull_time_scales_with_image_size() {
        let model = CostModel::container_on(HostClass::EdgeServer);
        let repo = ImageRepository::with_standard_images();
        let small = repo.for_kind(NfKind::RateLimiter).unwrap();
        let large = repo.for_kind(NfKind::Ids).unwrap();
        assert!(model.pull_time(large) > model.pull_time(small));
    }

    #[test]
    fn runtime_kind_labels() {
        assert_eq!(RuntimeKind::Container.label(), "container");
        assert_eq!(RuntimeKind::VirtualMachine.label(), "vm");
    }
}
