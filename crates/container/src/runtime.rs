//! The NFV runtime abstraction and its container implementation.
//!
//! [`NfvRuntime`] is the interface the GNF Agent drives: pull images into a
//! local cache, create/start/stop/remove instances, and checkpoint/restore
//! their NF state during migrations. [`ContainerRuntime`] implements it with
//! container-calibrated costs and per-instance resource accounting against the
//! host's capacity; the `gnf-vm` crate provides the VM-based baseline on the
//! same interface so experiments can swap one for the other.

use crate::cost::{CostModel, RuntimeKind};
use crate::image::NfImage;
use gnf_types::{GnfError, GnfResult, HostClass, ImageId, ResourceSpec, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Lifecycle state of a runtime instance (container or VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceState {
    /// Created but never started.
    Created,
    /// Running and processing packets.
    Running,
    /// Paused (frozen in memory).
    Paused,
    /// Stopped (not scheduled, resources still reserved).
    Stopped,
}

/// A runtime instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    /// Runtime-local handle.
    pub handle: u64,
    /// The image the instance was created from.
    pub image: ImageId,
    /// Image name (kept for reporting).
    pub image_name: String,
    /// Resources reserved for the instance.
    pub footprint: ResourceSpec,
    /// Current lifecycle state.
    pub state: InstanceState,
    /// Free-form label (the NF instance name).
    pub label: String,
}

/// Result of [`NfvRuntime::ensure_image`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PullOutcome {
    /// How long the operation took.
    pub duration: SimDuration,
    /// True when the image was already in the local cache.
    pub was_cached: bool,
}

/// Result of the [`NfvRuntime::deploy`] convenience operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeployOutcome {
    /// Handle of the created (and started) instance.
    pub handle: u64,
    /// End-to-end latency: (pull if needed) + create + start.
    pub total_duration: SimDuration,
    /// True when no pull was needed.
    pub image_was_cached: bool,
}

/// The interface every NFV runtime (container or VM) offers to the Agent.
pub trait NfvRuntime {
    /// Which technology this runtime uses.
    fn runtime_kind(&self) -> RuntimeKind;

    /// The host class the runtime is deployed on.
    fn host_class(&self) -> HostClass;

    /// Total host capacity.
    fn capacity(&self) -> ResourceSpec;

    /// Resources currently reserved by instances and cached images.
    fn used(&self) -> ResourceSpec;

    /// Capacity remaining for new instances.
    fn available(&self) -> ResourceSpec {
        self.capacity().saturating_sub(&self.used())
    }

    /// Number of existing instances (any state).
    fn instance_count(&self) -> usize;

    /// Number of running instances.
    fn running_count(&self) -> usize;

    /// Number of images in the local cache.
    fn cached_image_count(&self) -> usize;

    /// The cost model in effect.
    fn cost_model(&self) -> &CostModel;

    /// True when the image is in the local cache.
    fn is_image_cached(&self, image: &NfImage) -> bool;

    /// Makes sure the image is available locally, pulling it from the central
    /// repository if necessary.
    fn ensure_image(&mut self, image: &NfImage) -> GnfResult<PullOutcome>;

    /// Creates an instance from a cached image, reserving `footprint`.
    fn create(
        &mut self,
        label: &str,
        image: &NfImage,
        footprint: ResourceSpec,
    ) -> GnfResult<(u64, SimDuration)>;

    /// Starts a created or stopped instance.
    fn start(&mut self, handle: u64) -> GnfResult<SimDuration>;

    /// Stops a running or paused instance.
    fn stop(&mut self, handle: u64) -> GnfResult<SimDuration>;

    /// Pauses a running instance.
    fn pause(&mut self, handle: u64) -> GnfResult<SimDuration>;

    /// Resumes a paused instance.
    fn resume(&mut self, handle: u64) -> GnfResult<SimDuration>;

    /// Removes an instance (any state), releasing its resources.
    fn remove(&mut self, handle: u64) -> GnfResult<SimDuration>;

    /// Checkpoints `state_bytes` of NF state out of a running instance.
    fn checkpoint(&mut self, handle: u64, state_bytes: usize) -> GnfResult<SimDuration>;

    /// Restores `state_bytes` of NF state into a created or stopped instance.
    fn restore(&mut self, handle: u64, state_bytes: usize) -> GnfResult<SimDuration>;

    /// Looks up an instance.
    fn instance(&self, handle: u64) -> GnfResult<&Instance>;

    /// All current instances, ordered by handle.
    fn instances(&self) -> Vec<&Instance>;

    /// Convenience: ensure the image, create and start in one step, returning
    /// the end-to-end deployment latency (the paper's "attached in seconds"
    /// metric).
    fn deploy(
        &mut self,
        label: &str,
        image: &NfImage,
        footprint: ResourceSpec,
    ) -> GnfResult<DeployOutcome> {
        let pull = self.ensure_image(image)?;
        let (handle, create_time) = self.create(label, image, footprint)?;
        let start_time = self.start(handle)?;
        Ok(DeployOutcome {
            handle,
            total_duration: pull.duration + create_time + start_time,
            image_was_cached: pull.was_cached,
        })
    }
}

/// Shared implementation of instance bookkeeping, resource accounting and an
/// image cache, parameterised by a [`CostModel`]. Both [`ContainerRuntime`]
/// and the VM baseline build on it.
///
/// The totals a station report reads — reserved footprint, image-cache disk
/// and running instances — are running counters, kept by the four methods
/// that change them (`ensure_image`, `create`, the state transitions and
/// `remove`), so a report reads them without walking the instances.
#[derive(Debug, Clone)]
pub struct RuntimePool {
    host: HostClass,
    capacity: ResourceSpec,
    cost: CostModel,
    instances: BTreeMap<u64, Instance>,
    image_cache: HashMap<ImageId, u64>, // image id → size MB
    next_handle: u64,
    /// Sum of every instance's footprint.
    reserved: ResourceSpec,
    /// Sum of the cached images' sizes, in MB.
    cache_disk_mb: u64,
    /// Instances in [`InstanceState::Running`].
    running: usize,
}

impl RuntimePool {
    /// Creates a pool on a host of the given class with the given cost model.
    pub fn new(host: HostClass, cost: CostModel) -> Self {
        RuntimePool {
            host,
            capacity: host.capacity(),
            cost,
            instances: BTreeMap::new(),
            image_cache: HashMap::new(),
            next_handle: 0,
            reserved: ResourceSpec::ZERO,
            cache_disk_mb: 0,
            running: 0,
        }
    }

    /// Overrides the capacity (used by tests and density experiments).
    pub fn with_capacity(mut self, capacity: ResourceSpec) -> Self {
        self.capacity = capacity;
        self
    }

    /// The host class this pool runs on.
    pub fn host_class(&self) -> HostClass {
        self.host
    }

    /// Total host capacity.
    pub fn capacity(&self) -> ResourceSpec {
        self.capacity
    }

    /// Resources reserved by instances plus cached image layers.
    pub fn used(&self) -> ResourceSpec {
        let mut used = self.reserved;
        used.disk_mb += self.cache_disk_mb;
        used
    }

    /// Number of existing instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of running instances.
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// Number of images in the local cache.
    pub fn cached_image_count(&self) -> usize {
        self.image_cache.len()
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// True when the image is already in the local cache.
    pub fn is_image_cached(&self, image: &NfImage) -> bool {
        self.image_cache.contains_key(&image.id)
    }

    /// Pulls the image into the local cache unless already present.
    pub fn ensure_image(&mut self, image: &NfImage) -> GnfResult<PullOutcome> {
        if self.is_image_cached(image) {
            return Ok(PullOutcome {
                duration: SimDuration::ZERO,
                was_cached: true,
            });
        }
        let available_disk = self.capacity.disk_mb.saturating_sub(self.used().disk_mb);
        if image.size_mb() > available_disk {
            return Err(GnfError::insufficient(
                format!("{} MB disk for image {}", image.size_mb(), image.name),
                format!("{available_disk} MB disk"),
            ));
        }
        self.image_cache.insert(image.id, image.size_mb());
        self.cache_disk_mb += image.size_mb();
        Ok(PullOutcome {
            duration: self.cost.pull_time(image),
            was_cached: false,
        })
    }

    /// Creates an instance from a cached image, reserving its footprint.
    pub fn create(
        &mut self,
        label: &str,
        image: &NfImage,
        footprint: ResourceSpec,
    ) -> GnfResult<(u64, SimDuration)> {
        if !self.is_image_cached(image) {
            return Err(GnfError::not_found("cached image", &image.name));
        }
        let available = self.capacity.saturating_sub(&self.used());
        if !available.can_fit(&footprint) {
            return Err(GnfError::insufficient(footprint, available));
        }
        let handle = self.next_handle;
        self.next_handle += 1;
        self.instances.insert(
            handle,
            Instance {
                handle,
                image: image.id,
                image_name: image.name.clone(),
                footprint,
                state: InstanceState::Created,
                label: label.to_string(),
            },
        );
        self.reserved += footprint;
        Ok((handle, self.cost.create_time()))
    }

    fn transition(
        &mut self,
        handle: u64,
        allowed_from: &[InstanceState],
        to: InstanceState,
        duration: SimDuration,
        op: &str,
    ) -> GnfResult<SimDuration> {
        let instance = self
            .instances
            .get_mut(&handle)
            .ok_or_else(|| GnfError::not_found("instance", handle))?;
        if !allowed_from.contains(&instance.state) {
            return Err(GnfError::invalid_state(format!(
                "cannot {op} instance {handle} in state {:?}",
                instance.state
            )));
        }
        let from = instance.state;
        instance.state = to;
        if from == InstanceState::Running {
            self.running -= 1;
        }
        if to == InstanceState::Running {
            self.running += 1;
        }
        Ok(duration)
    }

    /// Starts a created or stopped instance.
    pub fn start(&mut self, handle: u64) -> GnfResult<SimDuration> {
        let d = self.cost.start_time();
        self.transition(
            handle,
            &[InstanceState::Created, InstanceState::Stopped],
            InstanceState::Running,
            d,
            "start",
        )
    }

    /// Stops a running or paused instance.
    pub fn stop(&mut self, handle: u64) -> GnfResult<SimDuration> {
        let d = self.cost.stop_time();
        self.transition(
            handle,
            &[InstanceState::Running, InstanceState::Paused],
            InstanceState::Stopped,
            d,
            "stop",
        )
    }

    /// Pauses a running instance.
    pub fn pause(&mut self, handle: u64) -> GnfResult<SimDuration> {
        let d = self.cost.stop_time() / 2;
        self.transition(
            handle,
            &[InstanceState::Running],
            InstanceState::Paused,
            d,
            "pause",
        )
    }

    /// Resumes a paused instance.
    pub fn resume(&mut self, handle: u64) -> GnfResult<SimDuration> {
        let d = self.cost.start_time() / 2;
        self.transition(
            handle,
            &[InstanceState::Paused],
            InstanceState::Running,
            d,
            "resume",
        )
    }

    /// Removes an instance and releases its resources.
    pub fn remove(&mut self, handle: u64) -> GnfResult<SimDuration> {
        let instance = self
            .instances
            .remove(&handle)
            .ok_or_else(|| GnfError::not_found("instance", handle))?;
        self.reserved -= instance.footprint;
        if instance.state == InstanceState::Running {
            self.running -= 1;
        }
        Ok(self.cost.remove_time())
    }

    /// Checkpoints NF state out of a running or paused instance.
    pub fn checkpoint(&mut self, handle: u64, state_bytes: usize) -> GnfResult<SimDuration> {
        let instance = self
            .instances
            .get(&handle)
            .ok_or_else(|| GnfError::not_found("instance", handle))?;
        if !matches!(
            instance.state,
            InstanceState::Running | InstanceState::Paused
        ) {
            return Err(GnfError::invalid_state(format!(
                "cannot checkpoint instance {handle} in state {:?}",
                instance.state
            )));
        }
        Ok(self.cost.checkpoint_time(state_bytes))
    }

    /// Restores NF state into a created or stopped instance.
    pub fn restore(&mut self, handle: u64, state_bytes: usize) -> GnfResult<SimDuration> {
        let instance = self
            .instances
            .get(&handle)
            .ok_or_else(|| GnfError::not_found("instance", handle))?;
        if !matches!(
            instance.state,
            InstanceState::Created | InstanceState::Stopped
        ) {
            return Err(GnfError::invalid_state(format!(
                "cannot restore into instance {handle} in state {:?}",
                instance.state
            )));
        }
        Ok(self.cost.restore_time(state_bytes))
    }

    /// Looks up an instance by handle.
    pub fn instance(&self, handle: u64) -> GnfResult<&Instance> {
        self.instances
            .get(&handle)
            .ok_or_else(|| GnfError::not_found("instance", handle))
    }

    /// All instances, ordered by handle.
    pub fn instances(&self) -> Vec<&Instance> {
        self.instances.values().collect()
    }
}

/// Implements the [`NfvRuntime`] trait for a type whose `pool` field is a
/// [`RuntimePool`]; shared by the container runtime here and the VM runtime in
/// `gnf-vm`.
#[macro_export]
macro_rules! delegate_runtime {
    ($ty:ty, $kind:expr) => {
        impl $crate::runtime::NfvRuntime for $ty {
            fn runtime_kind(&self) -> $crate::cost::RuntimeKind {
                $kind
            }
            fn host_class(&self) -> gnf_types::HostClass {
                self.pool.host_class()
            }
            fn capacity(&self) -> gnf_types::ResourceSpec {
                self.pool.capacity()
            }
            fn used(&self) -> gnf_types::ResourceSpec {
                self.pool.used()
            }
            fn instance_count(&self) -> usize {
                self.pool.instance_count()
            }
            fn running_count(&self) -> usize {
                self.pool.running_count()
            }
            fn cached_image_count(&self) -> usize {
                self.pool.cached_image_count()
            }
            fn cost_model(&self) -> &$crate::cost::CostModel {
                self.pool.cost_model()
            }
            fn is_image_cached(&self, image: &$crate::image::NfImage) -> bool {
                self.pool.is_image_cached(image)
            }
            fn ensure_image(
                &mut self,
                image: &$crate::image::NfImage,
            ) -> gnf_types::GnfResult<$crate::runtime::PullOutcome> {
                self.pool.ensure_image(image)
            }
            fn create(
                &mut self,
                label: &str,
                image: &$crate::image::NfImage,
                footprint: gnf_types::ResourceSpec,
            ) -> gnf_types::GnfResult<(u64, gnf_types::SimDuration)> {
                self.pool.create(label, image, footprint)
            }
            fn start(&mut self, handle: u64) -> gnf_types::GnfResult<gnf_types::SimDuration> {
                self.pool.start(handle)
            }
            fn stop(&mut self, handle: u64) -> gnf_types::GnfResult<gnf_types::SimDuration> {
                self.pool.stop(handle)
            }
            fn pause(&mut self, handle: u64) -> gnf_types::GnfResult<gnf_types::SimDuration> {
                self.pool.pause(handle)
            }
            fn resume(&mut self, handle: u64) -> gnf_types::GnfResult<gnf_types::SimDuration> {
                self.pool.resume(handle)
            }
            fn remove(&mut self, handle: u64) -> gnf_types::GnfResult<gnf_types::SimDuration> {
                self.pool.remove(handle)
            }
            fn checkpoint(
                &mut self,
                handle: u64,
                state_bytes: usize,
            ) -> gnf_types::GnfResult<gnf_types::SimDuration> {
                self.pool.checkpoint(handle, state_bytes)
            }
            fn restore(
                &mut self,
                handle: u64,
                state_bytes: usize,
            ) -> gnf_types::GnfResult<gnf_types::SimDuration> {
                self.pool.restore(handle, state_bytes)
            }
            fn instance(&self, handle: u64) -> gnf_types::GnfResult<&$crate::runtime::Instance> {
                self.pool.instance(handle)
            }
            fn instances(&self) -> Vec<&$crate::runtime::Instance> {
                self.pool.instances()
            }
        }
    };
}

/// The container runtime used by GNF Agents: Linux-container semantics with
/// container-calibrated costs.
#[derive(Debug, Clone)]
pub struct ContainerRuntime {
    pool: RuntimePool,
}

impl ContainerRuntime {
    /// Creates a container runtime on a host of the given class.
    pub fn new(host: HostClass) -> Self {
        ContainerRuntime {
            pool: RuntimePool::new(host, CostModel::container_on(host)),
        }
    }

    /// Creates a runtime with an explicit capacity override (for density
    /// experiments sweeping host sizes).
    pub fn with_capacity(host: HostClass, capacity: ResourceSpec) -> Self {
        ContainerRuntime {
            pool: RuntimePool::new(host, CostModel::container_on(host)).with_capacity(capacity),
        }
    }
}

delegate_runtime!(ContainerRuntime, RuntimeKind::Container);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageRepository;
    use gnf_nf::NfKind;
    use proptest::prelude::*;

    fn repo() -> ImageRepository {
        ImageRepository::with_standard_images()
    }

    fn firewall_footprint() -> ResourceSpec {
        NfKind::Firewall.container_footprint()
    }

    #[test]
    fn full_lifecycle_happy_path() {
        let repo = repo();
        let image = repo.for_kind(NfKind::Firewall).unwrap();
        let mut rt = ContainerRuntime::new(HostClass::EdgeServer);

        let pull = rt.ensure_image(image).unwrap();
        assert!(!pull.was_cached);
        assert!(pull.duration > SimDuration::ZERO);

        let (handle, create_time) = rt.create("fw-0", image, firewall_footprint()).unwrap();
        assert!(create_time > SimDuration::ZERO);
        assert_eq!(rt.instance(handle).unwrap().state, InstanceState::Created);

        let start_time = rt.start(handle).unwrap();
        assert!(start_time > SimDuration::ZERO);
        assert_eq!(rt.instance(handle).unwrap().state, InstanceState::Running);
        assert_eq!(rt.running_count(), 1);

        rt.pause(handle).unwrap();
        assert_eq!(rt.instance(handle).unwrap().state, InstanceState::Paused);
        rt.resume(handle).unwrap();
        rt.stop(handle).unwrap();
        assert_eq!(rt.instance(handle).unwrap().state, InstanceState::Stopped);
        rt.remove(handle).unwrap();
        assert_eq!(rt.instance_count(), 0);
        assert!(rt.instance(handle).is_err());
    }

    #[test]
    fn second_pull_hits_the_cache() {
        let repo = repo();
        let image = repo.for_kind(NfKind::HttpFilter).unwrap();
        let mut rt = ContainerRuntime::new(HostClass::HomeRouter);
        let first = rt.ensure_image(image).unwrap();
        let second = rt.ensure_image(image).unwrap();
        assert!(!first.was_cached);
        assert!(second.was_cached);
        assert_eq!(second.duration, SimDuration::ZERO);
        assert!(rt.is_image_cached(image));
    }

    #[test]
    fn create_requires_a_cached_image() {
        let repo = repo();
        let image = repo.for_kind(NfKind::Nat).unwrap();
        let mut rt = ContainerRuntime::new(HostClass::EdgeServer);
        let err = rt.create("nat-0", image, firewall_footprint()).unwrap_err();
        assert_eq!(err.category(), "not_found");
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let repo = repo();
        let image = repo.for_kind(NfKind::Firewall).unwrap();
        let mut rt = ContainerRuntime::new(HostClass::EdgeServer);
        rt.ensure_image(image).unwrap();
        let (handle, _) = rt.create("fw", image, firewall_footprint()).unwrap();
        // Stop before start.
        assert!(rt.stop(handle).is_err());
        // Resume before pause.
        assert!(rt.resume(handle).is_err());
        rt.start(handle).unwrap();
        // Double start.
        assert!(rt.start(handle).is_err());
        // Restore into a running instance.
        assert!(rt.restore(handle, 100).is_err());
        // Unknown handles.
        assert!(rt.start(999).is_err());
        assert!(rt.remove(999).is_err());
    }

    #[test]
    fn resource_accounting_limits_density() {
        let repo = repo();
        let image = repo.for_kind(NfKind::Firewall).unwrap();
        // A tiny host that can fit exactly 3 firewall containers after the
        // image is cached.
        let footprint = firewall_footprint();
        let capacity = ResourceSpec::new(
            footprint.cpu_millicores * 3,
            footprint.memory_mb * 3,
            footprint.disk_mb * 3 + image.size_mb() + 1,
        );
        let mut rt = ContainerRuntime::with_capacity(HostClass::HomeRouter, capacity);
        rt.ensure_image(image).unwrap();
        for i in 0..3 {
            let (h, _) = rt.create(&format!("fw-{i}"), image, footprint).unwrap();
            rt.start(h).unwrap();
        }
        let err = rt.create("fw-overflow", image, footprint).unwrap_err();
        assert_eq!(err.category(), "insufficient_resources");
        assert_eq!(rt.running_count(), 3);
        // Removing one frees capacity again.
        rt.remove(0).unwrap();
        assert!(rt.create("fw-again", image, footprint).is_ok());
    }

    #[test]
    fn image_cache_consumes_disk() {
        let repo = repo();
        let image = repo.for_kind(NfKind::Ids).unwrap();
        let mut rt = ContainerRuntime::with_capacity(
            HostClass::HomeRouter,
            ResourceSpec::new(1000, 128, image.size_mb()), // exactly fits one image
        );
        rt.ensure_image(image).unwrap();
        assert_eq!(rt.used().disk_mb, image.size_mb());
        let other = repo.for_kind(NfKind::HttpCache).unwrap();
        let err = rt.ensure_image(other).unwrap_err();
        assert_eq!(err.category(), "insufficient_resources");
    }

    #[test]
    fn deploy_reports_end_to_end_latency() {
        let repo = repo();
        let image = repo.for_kind(NfKind::Firewall).unwrap();
        let mut rt = ContainerRuntime::new(HostClass::EdgeServer);
        let cold = rt.deploy("fw-cold", image, firewall_footprint()).unwrap();
        assert!(!cold.image_was_cached);
        let warm = rt.deploy("fw-warm", image, firewall_footprint()).unwrap();
        assert!(warm.image_was_cached);
        assert!(cold.total_duration > warm.total_duration);
        assert_eq!(rt.running_count(), 2);
        assert_eq!(warm.total_duration, rt.cost_model().warm_deploy_time());
    }

    #[test]
    fn checkpoint_and_restore_follow_the_migration_flow() {
        let repo = repo();
        let image = repo.for_kind(NfKind::Firewall).unwrap();
        let mut source = ContainerRuntime::new(HostClass::HomeRouter);
        let deployed = source.deploy("fw", image, firewall_footprint()).unwrap();
        let checkpoint_time = source.checkpoint(deployed.handle, 50_000).unwrap();
        assert!(checkpoint_time > SimDuration::ZERO);
        source.stop(deployed.handle).unwrap();
        source.remove(deployed.handle).unwrap();

        let mut target = ContainerRuntime::new(HostClass::EdgeServer);
        target.ensure_image(image).unwrap();
        let (handle, _) = target.create("fw", image, firewall_footprint()).unwrap();
        let restore_time = target.restore(handle, 50_000).unwrap();
        assert!(restore_time > SimDuration::ZERO);
        target.start(handle).unwrap();
        assert_eq!(
            target.instance(handle).unwrap().state,
            InstanceState::Running
        );
    }

    #[test]
    fn home_router_hosts_hundreds_of_containers() {
        // The paper's density claim: commodity devices host "up to hundreds of
        // NFs" in containers.
        let repo = repo();
        let image = repo.for_kind(NfKind::RateLimiter).unwrap();
        let mut rt = ContainerRuntime::new(HostClass::EdgeServer);
        rt.ensure_image(image).unwrap();
        let footprint = NfKind::RateLimiter.container_footprint();
        let mut count = 0;
        while let Ok((h, _)) = rt.create(&format!("rl-{count}"), image, footprint) {
            rt.start(h).unwrap();
            count += 1;
            if count > 10_000 {
                break;
            }
        }
        assert!(count >= 100, "expected hundreds of containers, got {count}");
    }

    proptest! {
        /// The running totals are checked, not assumed: whatever sequence
        /// of pulls, creates and transitions ran — failed ones included —
        /// `used()`, `available()`, `running_count()` and the cached-image
        /// count equal a walk over the instances and the cache.
        #[test]
        fn running_totals_equal_a_walk_over_the_instances_and_the_cache(
            ops in proptest::collection::vec((0u8..7, 0u64..7, 0u64..6), 0..80),
        ) {
            let repo = repo();
            let images = repo.images();
            // Small enough that pulls and creates also fail for lack of room.
            let capacity = ResourceSpec::new(200, 120, 90);
            let mut rt = ContainerRuntime::with_capacity(HostClass::HomeRouter, capacity);
            for (op, image, handle) in ops {
                let image = &images[image as usize % images.len()];
                let footprint = NfKind::all()[handle as usize % NfKind::all().len()]
                    .container_footprint();
                let _ = match op {
                    0 => rt.ensure_image(image).map(|outcome| outcome.duration),
                    1 => rt.create("nf", image, footprint).map(|(_, took)| took),
                    2 => rt.start(handle),
                    3 => rt.stop(handle),
                    4 => rt.pause(handle),
                    5 => rt.resume(handle),
                    _ => rt.remove(handle),
                };
                let instances = rt.instances();
                let mut walked = instances
                    .iter()
                    .fold(ResourceSpec::ZERO, |acc, i| acc + i.footprint);
                walked.disk_mb += rt.pool.image_cache.values().sum::<u64>();
                let running = instances
                    .iter()
                    .filter(|i| i.state == InstanceState::Running)
                    .count();
                let cached = images.iter().filter(|i| rt.is_image_cached(i)).count();
                prop_assert_eq!(rt.used(), walked);
                prop_assert_eq!(rt.available(), capacity.saturating_sub(&walked));
                prop_assert_eq!(rt.running_count(), running);
                prop_assert_eq!(rt.cached_image_count(), cached);
            }
        }
    }

    #[test]
    fn the_runtime_reports_the_pool_totals() {
        let repo = repo();
        let image = repo.for_kind(NfKind::Firewall).unwrap();
        let mut rt = ContainerRuntime::new(HostClass::EdgeServer);
        let deployed = rt.deploy("fw", image, firewall_footprint()).unwrap();
        assert_eq!(rt.cached_image_count(), 1);
        assert_eq!(rt.running_count(), 1);
        assert_eq!(
            rt.available(),
            rt.capacity().saturating_sub(&rt.used()),
            "the trait's default reads the counters"
        );
        rt.remove(deployed.handle).unwrap();
        assert_eq!(rt.running_count(), 0);
        assert_eq!(rt.used().disk_mb, image.size_mb(), "the image stays cached");
    }
}
