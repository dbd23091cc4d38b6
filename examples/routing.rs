//! Connectivity routing: compiling onto a coupling graph with
//! `CompileOptions::{topology, cost}`.
//!
//! Demonstrates:
//!
//! 1. the stock topology builders (`linear`, `ring`, `grid`, `heavy_hex`)
//!    and their distance metrics;
//! 2. a routed, self-verifying compile of a k-Toffoli onto a linear chain,
//!    with the routed-depth / swap-count / weighted-cost report columns;
//! 3. the adjacency invariant — every multi-qudit gate of the routed
//!    circuit acts on a coupled pair — checked by `validate_adjacency`;
//! 4. uniform vs noise-aware cost models steering the router.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example routing
//! ```

use qudit_core::route::{validate_adjacency, NoiseAwareCost, UniformCost};
use qudit_core::topology::CouplingGraph;
use qudit_core::Dimension;
use qudit_synthesis::{CompileOptions, KToffoli, OptLevel, Verify};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dimension = Dimension::new(3)?;

    // 1. Topologies and their metrics.
    println!("Stock coupling graphs:");
    for (label, graph) in [
        ("linear(6)", CouplingGraph::linear(6)?),
        ("ring(6)", CouplingGraph::ring(6)?),
        ("grid(2, 3)", CouplingGraph::grid(2, 3)?),
        ("heavy_hex(2, 3)", CouplingGraph::heavy_hex(2, 3)?),
    ] {
        println!(
            "  {label:15} {} sites, {} edges, diameter {}",
            graph.sites(),
            graph.edges().len(),
            graph.diameter()
        );
    }
    println!();

    // 2. A routed, fully verified compile: the 4-controlled Toffoli onto a
    //    linear chain spanning its register.
    let synthesis = KToffoli::new(dimension, 4)?.synthesize()?;
    let width = synthesis.layout().width;
    let chain = CouplingGraph::linear(width)?;
    println!("Routing the 4-controlled Toffoli (d = 3, width {width}) onto linear({width}):");
    let routed = CompileOptions::new()
        .topology(chain.clone())
        .cost(NoiseAwareCost::default())
        .opt_level(OptLevel::O2)
        .verify(Verify::Exhaustive)
        .compiler()
        .compile(synthesis.circuit())?;
    for stats in &routed.stats {
        println!("  {stats}");
    }
    println!(
        "  scheduled depth {}, {} SWAPs inserted, weighted cost {:.1}, verified: {}",
        routed.depth,
        routed.swap_count.expect("routed compile reports swaps"),
        routed.weighted_cost.expect("routed compile reports a cost"),
        routed.verification
    );
    assert!(routed.verification.is_verified());

    // 3. The adjacency invariant holds on the compiled circuit.
    validate_adjacency(&routed.circuit, &chain)?;
    println!("  every multi-qudit gate acts on a coupled pair\n");

    // 4. Cost models steer tie-breaking; the uniform model reports the
    //    plain gate count as its weighted cost.
    let uniform = CompileOptions::new()
        .topology(chain.clone())
        .cost(UniformCost)
        .opt_level(OptLevel::O2)
        .compiler()
        .compile(synthesis.circuit())?;
    validate_adjacency(&uniform.circuit, &chain)?;
    println!(
        "Uniform cost: {} gates, weighted cost {:.1} (1.0 per gate); noise-aware cost: {:.1}",
        uniform.circuit.len(),
        uniform
            .weighted_cost
            .expect("routed compile reports a cost"),
        routed.weighted_cost.unwrap(),
    );
    assert_eq!(uniform.weighted_cost.unwrap(), uniform.circuit.len() as f64);
    Ok(())
}
