//! Experiment E3 — "commodity compute devices are now able to host up to
//! hundreds of NFs": maximum NF instances per host, containers vs VMs, across
//! host classes, plus the memory cost per instance.

use gnf_bench::section;
use gnf_container::{ContainerRuntime, ImageRepository, NfvRuntime};
use gnf_core::{Emulator, Scenario};
use gnf_edge::TrafficProfile;
use gnf_nf::testing::sample_specs;
use gnf_nf::NfKind;
use gnf_switch::TrafficSelector;
use gnf_types::{HostClass, SimDuration, SimTime};
use gnf_vm::{VmImageCatalog, VmRuntime};
use std::time::Instant;

fn pack_containers(host: HostClass, kind: NfKind, repo: &ImageRepository) -> usize {
    let image = repo.for_kind(kind).unwrap();
    let mut rt = ContainerRuntime::new(host);
    if rt.ensure_image(image).is_err() {
        return 0;
    }
    let mut count = 0usize;
    while let Ok((handle, _)) = rt.create(&format!("c-{count}"), image, kind.container_footprint())
    {
        rt.start(handle).unwrap();
        count += 1;
        if count > 100_000 {
            break;
        }
    }
    count
}

fn pack_vms(host: HostClass, kind: NfKind, catalog: &VmImageCatalog) -> usize {
    let image = catalog.for_kind(kind).unwrap();
    let mut rt = VmRuntime::new(host);
    if rt.ensure_image(image).is_err() {
        return 0;
    }
    let mut count = 0usize;
    while let Ok((handle, _)) = rt.create(&format!("v-{count}"), image, kind.vm_footprint()) {
        rt.start(handle).unwrap();
        count += 1;
        if count > 10_000 {
            break;
        }
    }
    count
}

fn main() {
    println!("E3 — NF density per host (how many instances fit before resources exhaust)");
    let seed = gnf_bench::seed_arg();
    let repo = ImageRepository::with_standard_images();
    let catalog = VmImageCatalog::new();
    let kind = NfKind::Firewall;

    section(&format!(
        "NF: {} (container {} / VM {})",
        kind.label(),
        kind.container_footprint(),
        kind.vm_footprint()
    ));
    println!(
        "{:<14} {:>22} {:>12} {:>12} {:>10}",
        "host class", "capacity", "containers", "VMs", "ratio"
    );
    for host in HostClass::all() {
        let containers = pack_containers(host, kind, &repo);
        let vms = pack_vms(host, kind, &catalog);
        let ratio = if vms == 0 {
            "∞".to_string()
        } else {
            format!("{:.0}x", containers as f64 / vms as f64)
        };
        println!(
            "{:<14} {:>22} {:>12} {:>12} {:>10}",
            host.label(),
            host.capacity().to_string(),
            containers,
            vms,
            ratio
        );
    }

    section("per-NF-kind container density on a home router");
    println!("{:<16} {:>12}", "NF", "containers");
    for kind in NfKind::all() {
        println!(
            "{:<16} {:>12}",
            kind.label(),
            pack_containers(HostClass::HomeRouter, kind, &repo)
        );
    }

    section("density under live traffic: 8 emulated stations, per-client firewall chains");
    {
        let mut builder = Scenario::builder(8, HostClass::EdgeServer)
            .with_config(gnf_types::GnfConfig::default().with_seed(seed));
        let clients = builder.add_clients(
            16,
            TrafficProfile::ConstantBitRate {
                packets_per_sec: 200.0,
                payload_bytes: 256,
            },
        );
        let mut sb = builder.with_duration(SimDuration::from_secs(5));
        for client in &clients {
            sb = sb.attach_policy(
                *client,
                vec![sample_specs()[0].clone()],
                TrafficSelector::all(),
                SimTime::from_secs(1),
            );
        }
        let mut emulator = Emulator::new(sb.build());
        // Artifacts (when requested) describe this live-traffic run.
        let obs = gnf_bench::observability_args();
        obs.arm(&mut emulator);
        let start = Instant::now();
        let report = emulator.run();
        let elapsed = start.elapsed().as_secs_f64();
        let processed =
            report.packets.forwarded + report.packets.dropped_by_nf + report.packets.replied_by_nf;
        println!(
            "{} packets in {:.1} ms wall ({:.0} kpps aggregate), \
             batches: {} (mean size {:.1}, max {}), flow-cache hit rate {:.1}%",
            processed,
            elapsed * 1e3,
            processed as f64 / elapsed / 1e3,
            report.batches.batches,
            report.batches.mean_batch_size(),
            report.batches.max_batch,
            report.flow_cache.hit_rate() * 100.0,
        );
        obs.write(&mut emulator);
    }
}
