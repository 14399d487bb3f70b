//! Experiment E1 — Fig. 2 / Section 4: NFs migrate seamlessly when a client
//! roams between cells.
//!
//! Reproduces the demo's handover with the firewall + HTTP-filter chain and
//! reports the migration timeline (downtime, total duration, state size) for
//! a cold image cache, a warm cache (second handover back), and both
//! migration modes (make-before-break vs break-before-make), plus the fate of
//! packets that arrive during the gap. The only harness that drives the
//! default monolithic plan and break-before-make end to end, so it asserts
//! its own contract and runs as a CI smoke.

use gnf_bench::{section, ObservabilityArgs};
use gnf_core::{Emulator, Mobility, Scenario};
use gnf_edge::{Position, RoamTrace, TrafficProfile};
use gnf_nf::testing::sample_specs;
use gnf_switch::TrafficSelector;
use gnf_types::{CellId, GnfConfig, HostClass, SimDuration, SimTime};

fn ping_pong_scenario(config: GnfConfig, handovers: usize) -> Scenario {
    let mut builder = Scenario::builder(2, HostClass::HomeRouter);
    let client = builder.add_client_at(Position::new(10.0, 0.0), TrafficProfile::smartphone());
    let trace = RoamTrace::ping_pong(
        client,
        CellId::new(0),
        CellId::new(1),
        SimTime::from_secs(60),
        SimDuration::from_secs(60),
        handovers,
    );
    builder
        .with_config(config)
        .with_duration(SimDuration::from_secs(60 * (handovers as u64 + 2)))
        .with_mobility(Mobility::Trace(trace))
        .attach_policy(
            client,
            vec![sample_specs()[0].clone(), sample_specs()[1].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(5),
        )
        .build()
}

fn run_mode(
    label: &str,
    make_before_break: bool,
    bypass: bool,
    seed: u64,
    obs: &ObservabilityArgs,
) {
    let config = GnfConfig {
        make_before_break,
        bypass_during_migration: bypass,
        seed,
        ..Default::default()
    };
    let mut emulator = Emulator::new(ping_pong_scenario(config, 4));
    obs.arm(&mut emulator);
    let report = emulator.run();

    section(&format!(
        "E1 roaming — {label} (make-before-break={make_before_break}, bypass={bypass})"
    ));
    println!(
        "{:<10} {:>6} {:>6} {:>14} {:>14} {:>12}",
        "migration", "from", "to", "downtime(ms)", "total(ms)", "state(B)"
    );
    for (ix, m) in report.migrations.iter().enumerate() {
        println!(
            "{:<10} {:>6} {:>6} {:>14.1} {:>14.1} {:>12}",
            format!("#{ix} ({})", if ix == 0 { "cold" } else { "warm" }),
            m.from,
            m.to,
            m.downtime_ms.unwrap_or(f64::NAN),
            m.total_ms.unwrap_or(f64::NAN),
            m.state_bytes
        );
    }
    println!(
        "packets: generated={} forwarded={} dropped-by-NF={} replied={} gap-dropped={} gap-bypassed={} (gap fraction {:.2}%)",
        report.packets.generated,
        report.packets.forwarded,
        report.packets.dropped_by_nf,
        report.packets.replied_by_nf,
        report.packets.dropped_in_gap,
        report.packets.bypassed_in_gap,
        report.packets.gap_fraction() * 100.0
    );
    println!(
        "all migrations completed: {} | handovers: {}",
        report.all_migrations_completed(),
        report.handovers
    );
    // The harness's contract (it runs as a CI smoke): every handover moves
    // the chain, no packet goes unaccounted, and only make-before-break
    // carries NF state across — monolithically, pre-copy is off here.
    assert!(
        report.all_migrations_completed(),
        "{label}: migration stuck"
    );
    assert_eq!(report.handovers, 4, "{label}: handovers");
    assert_eq!(report.migrations.len(), 4, "{label}: one move per handover");
    let p = &report.packets;
    assert!(p.is_conserved(), "{label}: packet conservation: {p:?}");
    let (gap_dropped, gap_bypassed) = (p.dropped_in_gap > 0, p.bypassed_in_gap > 0);
    assert_eq!(
        (gap_dropped, gap_bypassed),
        (!bypass, bypass),
        "{label}: gap"
    );
    for m in &report.migrations {
        assert!(!m.precopy && m.delta_bytes == 0, "{label}: pre-copy is off");
        assert_eq!(
            m.state_bytes > 0,
            make_before_break,
            "{label}: state moves exactly under make-before-break"
        );
    }
    obs.write(&mut emulator);
}

fn main() {
    println!("E1 — roaming edge vNFs (paper Fig. 2 / Section 4)");
    let seed = gnf_bench::seed_arg();
    println!("2 home-router cells, 1 smartphone, firewall + HTTP filter chain, 4 handovers");
    // Artifacts (when requested) describe the default make-before-break run.
    let obs = gnf_bench::observability_args();
    run_mode("default", true, false, seed, &obs);
    let off = ObservabilityArgs::default();
    run_mode("bypass traffic during migration", true, true, seed, &off);
    run_mode(
        "break-before-make (no state transfer)",
        false,
        false,
        seed,
        &off,
    );
}
