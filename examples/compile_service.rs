//! The compile service end to end: boot the TCP front door, drive a mix of
//! jobs over loopback from concurrent tenants, and shut down cleanly.
//!
//! Demonstrates:
//!
//! 1. booting `CompileService` on an ephemeral loopback port with two
//!    compile workers;
//! 2. the newline-JSON protocol via `ServiceClient` — ok, error and
//!    rejected replies;
//! 3. a clean shutdown that drains every job and reports the service's
//!    lifetime counters.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example compile_service
//! ```

use qudit_synthesis::service::{CompileService, JobRequest, ServiceClient, ServiceConfig};

fn gadget_source(dimension: u32, width: usize, levels: (u32, u32)) -> String {
    format!(
        "OPENQASM 3.0;\nqudit[{dimension}] q[{width}];\n\
         ctrl @ ctrl @ swap({}, {}) q[0], q[1], q[2];\n",
        levels.0, levels.1,
    )
}

fn main() -> std::io::Result<()> {
    // 1. Boot: ephemeral loopback port, two workers.
    let service = CompileService::start(ServiceConfig::new().workers(2).max_queue_depth(8))?;
    let addr = service.local_addr();
    println!("service listening on {addr}");

    // 2. Two tenants drive jobs concurrently; each connection's replies
    //    come back in submission order.
    let sources: Vec<String> = vec![
        gadget_source(3, 3, (0, 1)),
        gadget_source(3, 4, (0, 2)),
        gadget_source(5, 3, (1, 3)),
    ];
    std::thread::scope(|scope| {
        for tenant in ["alice", "bob"] {
            let sources = &sources;
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                for (j, source) in sources.iter().enumerate() {
                    client
                        .send(&JobRequest {
                            tenant: tenant.into(),
                            id: format!("{tenant}-{j}"),
                            source: source.clone(),
                        })
                        .expect("send");
                }
                for _ in sources {
                    let reply = client.recv().expect("reply");
                    assert!(reply.is_ok(), "{}", reply.message);
                    println!(
                        "  {} -> ok: {} gates, depth {}",
                        reply.id, reply.gates, reply.depth
                    );
                }
            });
        }
    });

    // A malformed job gets a typed error reply, not a dropped connection.
    let mut client = ServiceClient::connect(addr)?;
    let bad = client.roundtrip(&JobRequest {
        tenant: "alice".into(),
        id: "bad".into(),
        source: "OPENQASM 3.0;\nboop q[0];".into(),
    })?;
    assert!(!bad.is_ok());
    println!("  bad -> {:?}: {}", bad.status, bad.message);

    // 3. Shut down and read the lifetime counters.
    let stats = service.shutdown();
    println!(
        "service: {} completed, {} errors",
        stats.completed, stats.compile_errors,
    );
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.compile_errors, 1);
    println!("clean shutdown");
    Ok(())
}
