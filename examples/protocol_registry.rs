//! Tour of the first-class `Protocol` surface: resolve string specs through
//! the registry, run the same workloads on the abstract and physical
//! backends, watch the capability gate refuse a CD protocol on a no-CD
//! stack, and read the unified per-run reports.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example protocol_registry
//! ```

use radio_energy::bfs::metrics::format_table;
use radio_energy::bfs::protocol::registry;
use radio_energy::graph::generators;
use radio_energy::protocols::{EnergyModel, ProtocolInput, StackBuilder};

fn main() {
    let registry = registry();
    println!("registered protocols:");
    println!("{}", registry.help());
    println!();

    // One graph, several protocols, two backends — all through one API.
    let g = generators::grid(16, 16);
    let specs = [
        "trivial_bfs",
        "decay_bfs",
        "recursive",
        "clustering:b=4",
        "lb_sweep:r=8",
    ];
    let mut rows = Vec::new();
    for spec in specs {
        let protocol = registry.get(spec).expect("spec resolves");
        for physical in [false, true] {
            let builder = StackBuilder::new(g.clone()).with_seed(7);
            let mut stack = if physical {
                builder.physical(EnergyModel::Uniform).build()
            } else {
                builder.build()
            };
            let report = protocol
                .run(&mut stack, &ProtocolInput::from_seed(7))
                .expect("requirements satisfied");
            rows.push(vec![
                report.protocol.to_string(),
                if physical { "physical" } else { "abstract" }.into(),
                report.lb_calls().to_string(),
                report.energy.max_lb_energy().to_string(),
                report
                    .energy
                    .max_physical_energy()
                    .map_or_else(|| "-".into(), |x| x.to_string()),
                report.outcome().to_string(),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &[
                "protocol",
                "backend",
                "LB calls",
                "max energy (LB)",
                "max energy (slots)",
                "outcome",
            ],
            &rows
        )
    );

    // The capability gate: trivial_bfs_cd needs receiver-side collision
    // detection and refuses anything less with a typed error.
    let cd_protocol = registry.get("trivial_bfs_cd").expect("spec resolves");
    let mut no_cd = StackBuilder::new(g.clone())
        .physical(EnergyModel::Uniform)
        .with_seed(7)
        .build();
    let refusal = cd_protocol
        .run(&mut no_cd, &ProtocolInput::from_seed(7))
        .expect_err("must refuse a stack without CD");
    println!("capability gate: {refusal}");

    let mut with_cd = StackBuilder::new(g)
        .physical(EnergyModel::Uniform)
        .with_cd()
        .with_seed(7)
        .build();
    let report = cd_protocol
        .run(&mut with_cd, &ProtocolInput::from_seed(7))
        .expect("CD stack passes the gate");
    println!(
        "with CD:         {} labelled {} vertices in {} LB calls, max energy {} LB units / {} slots",
        report.protocol,
        report.outcome(),
        report.lb_calls(),
        report.energy.max_lb_energy(),
        report
            .energy
            .max_physical_energy()
            .expect("a physical stack counts slots"),
    );

    // Unknown specs fail with the known-protocol list — the same message
    // `experiments -- scenarios --protocol <spec>` exits with.
    let Err(unknown) = registry.get("warp_drive") else {
        unreachable!("warp_drive is not a protocol");
    };
    println!("unknown spec:    {unknown}");
}
