//! The three workloads: their seeded job sets and the compile options each
//! one drives the system with.

use qudit_core::qasm::print_circuit;
use qudit_core::topology::CouplingGraph;
use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
use qudit_sim::MctSpec;
use qudit_synthesis::{CompileOptions, KToffoli, OptLevel, Verify};
use rand::rngs::StdRng;
use rand::Rng;

/// Compile workers of the service workloads and connections driving them.
pub const SERVICE_WORKERS: usize = 2;
pub const CONNECTIONS: usize = 2;

/// Sites of the linear chain `sweep_verified` routes onto: the widest job of
/// its family (d=4, k=4 with its borrowed ancilla, and d=3, k=5).
pub const SWEEP_SITES: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeGadgets,
    ServeMct,
    SweepVerified,
}

/// One compile job: the text a client submits plus the independent
/// reference its output is checked against.
pub struct Job {
    pub label: String,
    pub source: String,
    /// The circuit the source encodes, built without the parser.
    pub input: Circuit,
    /// The k-Toffoli specification of the job, when it is one.
    pub spec: Option<MctSpec>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeGadgets,
        Workload::ServeMct,
        Workload::SweepVerified,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeGadgets => "serve_gadgets",
            Workload::ServeMct => "serve_mct",
            Workload::SweepVerified => "sweep_verified",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_served(self) -> bool {
        self != Workload::SweepVerified
    }

    /// The compile options of the workload.  The service workloads hand
    /// them to the service, which substitutes its own shared cache and
    /// persistent pool.
    pub fn options(self, threads: usize) -> CompileOptions {
        match self {
            Workload::ServeGadgets => CompileOptions::new(),
            Workload::ServeMct => CompileOptions::new().opt_level(OptLevel::O2),
            Workload::SweepVerified => CompileOptions::new()
                .opt_level(OptLevel::O1)
                .verify(Verify::Exhaustive)
                .topology(CouplingGraph::linear(SWEEP_SITES).expect("a chain of six sites"))
                .cache(qudit_core::pipeline::CacheMode::PerRun)
                .threads(qudit_synthesis::Threads::Fixed(threads)),
        }
    }

    /// The job set.  The seed only places wires (gadgets); the set of
    /// shapes is fixed, so output sizes do not depend on the seed.
    pub fn jobs(self, rng: &mut StdRng) -> Vec<Job> {
        match self {
            Workload::ServeGadgets => gadget_jobs(rng),
            Workload::ServeMct => ktoffoli_jobs(&MCT_FAMILY),
            // Two copies of the family per batch: its largest job (d=4,
            // k=4) is over a third of one copy, so with a single copy the
            // batch's wall time hangs on where that job lands in the order.
            Workload::SweepVerified => [ktoffoli_jobs(&SWEEP_FAMILY), ktoffoli_jobs(&SWEEP_FAMILY)]
                .into_iter()
                .flatten()
                .collect(),
        }
    }
}

/// `serve_mct`: d ∈ {3,4,5}, k ∈ {4…8}, d=5 capped at k=4.
const MCT_FAMILY: [(u32, usize); 11] = [
    (3, 4),
    (3, 5),
    (3, 6),
    (3, 7),
    (3, 8),
    (4, 4),
    (4, 5),
    (4, 6),
    (4, 7),
    (4, 8),
    (5, 4),
];

/// `sweep_verified`: the E10-style family exhaustive checking still covers.
const SWEEP_FAMILY: [(u32, usize); 7] = [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (5, 4)];

fn ktoffoli_jobs(family: &[(u32, usize)]) -> Vec<Job> {
    family
        .iter()
        .map(|&(d, k)| {
            let dimension = Dimension::new(d).expect("family dimensions are valid");
            let synthesis = KToffoli::new(dimension, k)
                .and_then(|t| t.synthesize())
                .expect("family k-Toffolis synthesise");
            let layout = synthesis.layout();
            Job {
                label: format!("ktoffoli d={d} k={k}"),
                source: print_circuit(synthesis.circuit()),
                input: synthesis.circuit().clone(),
                spec: Some(MctSpec::toffoli(layout.controls.clone(), layout.target)),
            }
        })
        .collect()
}

/// `serve_gadgets`: one doubly-controlled swap per source over
/// d ∈ {3,5,7} × width ∈ {3,4} × four control/level variants; the seed
/// picks which wires carry the controls and the target.
fn gadget_jobs(rng: &mut StdRng) -> Vec<Job> {
    let mut jobs = Vec::new();
    for d in [3u32, 5, 7] {
        for width in [3usize, 4] {
            for variant in 0..4 {
                let (c0, c1, a, b) = match variant {
                    0 => (0, 0, 0, 1),
                    1 => (1, 0, 0, 2),
                    2 => (0, 2, 1, 2),
                    _ => (1, 1, 0, d - 1),
                };
                let mut wires: Vec<usize> = (0..width).collect();
                shuffle(&mut wires, rng);
                let (w0, w1, t) = (wires[0], wires[1], wires[2]);
                let source = format!(
                    "OPENQASM 3.0;\nqudit[{d}] q[{width}];\n\
                     ctrl({c0}) @ ctrl({c1}) @ swap({a}, {b}) q[{w0}], q[{w1}], q[{t}];\n"
                );
                let dimension = Dimension::new(d).expect("gadget dimensions are valid");
                let mut input = Circuit::new(dimension, width);
                input
                    .push(Gate::controlled(
                        SingleQuditOp::Swap(a, b),
                        QuditId::new(t),
                        vec![
                            Control::level(QuditId::new(w0), c0),
                            Control::level(QuditId::new(w1), c1),
                        ],
                    ))
                    .expect("gadget wires are in range");
                jobs.push(Job {
                    label: format!("gadget d={d} w={width} v={variant}"),
                    source,
                    input,
                    spec: None,
                });
            }
        }
    }
    jobs
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}
