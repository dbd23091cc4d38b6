//! End-to-end tests of the compile service: concurrent clients, round-robin
//! service of busy tenants, admission control, backpressure, a client that
//! stops reading, and the byte-level framing of request lines (multi-byte
//! UTF-8 split across reads, invalid UTF-8, an oversized line).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use qudit_synthesis::service::{
    CompileService, JobRequest, JobStatus, ServiceClient, ServiceConfig,
};

/// A program of `repeats` doubly-controlled swaps (the paper's 2-Toffoli
/// gadget shape — the deepest gate the pipeline lowers directly) over a
/// register of the given width.
fn mcs_source(dimension: u32, width: usize, levels: (u32, u32), repeats: usize) -> String {
    let mut source = format!("OPENQASM 3.0;\nqudit[{dimension}] q[{width}];\n");
    for r in 0..repeats {
        let a = r % width;
        let b = (r + 1) % width;
        let c = (r + 2) % width;
        source.push_str(&format!(
            "ctrl @ ctrl @ swap({}, {}) q[{a}], q[{b}], q[{c}];\n",
            levels.0, levels.1,
        ));
    }
    source
}

fn job(tenant: &str, id: usize, source: String) -> JobRequest {
    JobRequest {
        tenant: tenant.to_string(),
        id: format!("{tenant}-{id}"),
        source,
    }
}

#[test]
fn concurrent_tenants_each_get_exactly_one_reply_in_fifo_order() {
    let service = CompileService::start(ServiceConfig::new().workers(2).max_queue_depth(32))
        .expect("service boots");
    let addr = service.local_addr();
    let clients = 4;
    let jobs_per_client = 8;
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let tenant = format!("tenant-{c}");
                let mut client = ServiceClient::connect(addr).expect("connect");
                for j in 0..jobs_per_client {
                    if j % 4 == 3 {
                        // An unparsable qasm job: flows through the tenant
                        // queue like any other and must get an error reply.
                        client
                            .send(&job(&tenant, j, "OPENQASM 3.0;\nboop q[0];".into()))
                            .expect("send");
                    } else {
                        let source = mcs_source(3, 3 + (j % 2), (0, 1 + (j as u32 % 2)), 2);
                        client.send(&job(&tenant, j, source)).expect("send");
                    }
                }
                let mut replies = Vec::new();
                for _ in 0..jobs_per_client {
                    replies.push(client.recv().expect("one reply per job"));
                }
                // Exactly one reply per job id, in submission order (the
                // whole connection is one tenant, so FIFO is end-to-end).
                let ids: Vec<String> = replies.iter().map(|r| r.id.clone()).collect();
                let expected: Vec<String> = (0..jobs_per_client)
                    .map(|j| format!("{tenant}-{j}"))
                    .collect();
                assert_eq!(ids, expected, "per-tenant FIFO order");
                for (j, reply) in replies.iter().enumerate() {
                    assert_eq!(reply.tenant, tenant);
                    if j % 4 == 3 {
                        assert_eq!(reply.status, JobStatus::Error);
                        assert!(!reply.message.is_empty());
                    } else {
                        assert!(reply.is_ok(), "job {j}: {}", reply.message);
                        assert!(reply.gates > 0);
                        assert!(reply.depth > 0);
                        assert!(!reply.qasm.is_empty());
                    }
                }
            });
        }
    });
    let stats = service.shutdown();
    let total = (clients * jobs_per_client) as u64;
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.completed + stats.compile_errors, total);
    assert_eq!(stats.compile_errors, (clients * jobs_per_client / 4) as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn one_worker_serves_two_busy_tenants_in_turn() {
    // One worker, one connection: its replies arrive in exactly the order
    // the worker finishes the jobs.  A heavy job from a third tenant holds
    // the worker while every job of tenants "a" and "b" is queued.
    let service = CompileService::start(ServiceConfig::new().workers(1).max_queue_depth(32))
        .expect("service boots");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    client
        .send(&job("blocker", 0, mcs_source(5, 3, (0, 1), 2000)))
        .expect("send");
    let (jobs, source) = (6, mcs_source(5, 3, (0, 1), 200));
    for j in 0..jobs {
        for tenant in ["a", "b"] {
            client.send(&job(tenant, j, source.clone())).expect("send");
        }
    }
    assert_eq!(client.recv().expect("reply").tenant, "blocker");
    let order: Vec<String> = (0..2 * jobs)
        .map(|_| {
            let reply = client.recv().expect("one reply per job");
            assert!(reply.is_ok(), "{}: {}", reply.id, reply.message);
            reply.tenant
        })
        .collect();
    // No tenant completes two jobs in a row while the other still has one
    // outstanding (a later reply).
    for (i, pair) in order.windows(2).enumerate() {
        let other_waiting = order[i + 2..].iter().any(|tenant| *tenant != pair[1]);
        assert!(pair[0] != pair[1] || !other_waiting, "{order:?}");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 1 + 2 * jobs as u64);
}

#[test]
fn a_client_that_stops_reading_cannot_stall_other_tenants() {
    // One worker: a reply write blocked on a client that never reads would
    // hold it, and every other tenant with it, for good.
    let service = CompileService::start(ServiceConfig::new().workers(1).max_queue_depth(32))
        .expect("service boots");
    // 16 jobs of ~1.5 MB replies each: far more than the loopback socket
    // buffers hold, so the worker's writes block once they fill.
    let jobs = 16;
    let mut stalled = ServiceClient::connect(service.local_addr()).expect("connect");
    let source = mcs_source(5, 3, (0, 1), 2000);
    for j in 0..jobs {
        stalled
            .send(&job("stalled", j, source.clone()))
            .expect("send");
    }
    // Wait until the worker is stuck on a reply: `completed` stops moving
    // before every job has compiled.
    let mut last = (u64::MAX, Instant::now());
    loop {
        let completed = service.stats().completed;
        if completed != last.0 {
            last = (completed, Instant::now());
        } else if last.1.elapsed() > Duration::from_millis(500) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        last.0 < jobs as u64,
        "the stalled client's socket buffers never filled"
    );

    // Another tenant still gets its reply, within the write timeout: once the
    // blocked write gives up, the stalled connection's queued jobs are
    // dropped, not compiled.
    let addr = service.local_addr();
    let (sender, receiver) = std::sync::mpsc::channel();
    let other = std::thread::spawn(move || {
        let mut other = ServiceClient::connect(addr).expect("connect");
        let _ = sender.send(other.roundtrip(&job("other", 0, mcs_source(3, 3, (0, 1), 2))));
    });
    let reply = receiver.recv_timeout(Duration::from_secs(30));
    // Closing the stalled socket releases a worker still blocked on it, so a
    // failure below ends the test instead of hanging its shutdown.
    drop(stalled);
    let reply = reply
        .expect("the other tenant was served while a client stopped reading")
        .expect("reply");
    assert!(reply.is_ok(), "{}", reply.message);
    other.join().expect("the other tenant's client thread");
    let stats = service.shutdown();
    // The stalled jobs compiled before the write gave up (the blocked one
    // included) plus the other tenant's; the rest were dropped as rejected.
    assert_eq!(stats.completed, last.0 + 1);
    assert_eq!(stats.rejected, jobs as u64 - last.0);
}

#[test]
fn malformed_lines_get_error_replies_without_entering_the_queues() {
    let service = CompileService::start(ServiceConfig::new().workers(1)).expect("service boots");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    client.send_raw("this is not json").expect("send");
    let reply = client.recv().expect("reply");
    assert_eq!(reply.status, JobStatus::Error);
    client
        .send_raw("{\"tenant\":\"t\",\"id\":\"7\"}")
        .expect("send");
    let reply = client.recv().expect("reply");
    assert_eq!(reply.status, JobStatus::Error);
    assert_eq!(reply.id, "7", "identity fields are echoed when parsable");
    assert!(reply.message.contains("source"));
    let stats = service.shutdown();
    assert_eq!(stats.protocol_errors, 2);
    assert_eq!(stats.accepted, 0);
}

#[test]
fn admission_control_rejects_when_a_tenant_queue_is_full() {
    // One worker and a queue depth of one: occupy the worker with a heavy
    // job, fill the queue with the second, and every further burst job is
    // turned away with a typed reject.
    let service = CompileService::start(ServiceConfig::new().workers(1).max_queue_depth(1))
        .expect("service boots");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    let heavy = mcs_source(3, 8, (0, 2), 150);
    let burst = 6;
    for j in 0..burst {
        client.send(&job("burst", j, heavy.clone())).expect("send");
    }
    let mut ok = 0;
    let mut rejected = 0;
    for _ in 0..burst {
        let reply = client.recv().expect("one reply per job");
        match reply.status {
            JobStatus::Ok => ok += 1,
            JobStatus::Rejected => {
                rejected += 1;
                assert!(reply.message.contains("queue is full"));
            }
            JobStatus::Error => panic!("unexpected error: {}", reply.message),
        }
    }
    assert_eq!(ok + rejected, burst);
    assert!(rejected >= 1, "burst past the queue depth must reject");
    let stats = service.shutdown();
    assert_eq!(stats.rejected, rejected as u64);
    assert_eq!(stats.completed, ok as u64);
}

#[test]
fn backpressure_blocks_the_reader_instead_of_growing_memory() {
    // max_pending(1): at most one job queued or in flight service-wide;
    // the reader stalls on further lines until the worker drains.  Every
    // job still completes, none are rejected.
    let service = CompileService::start(
        ServiceConfig::new()
            .workers(1)
            .max_pending(1)
            .max_queue_depth(8),
    )
    .expect("service boots");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    let jobs = 5;
    for j in 0..jobs {
        client
            .send(&job("slow", j, mcs_source(3, 4, (0, 2), 3)))
            .expect("send");
    }
    for j in 0..jobs {
        let reply = client.recv().expect("reply");
        assert!(reply.is_ok(), "job {j}: {}", reply.message);
        assert_eq!(reply.id, format!("slow-{j}"));
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, jobs as u64);
    assert_eq!(stats.rejected, 0);
}

/// A bare connection for writing request bytes verbatim: the writer half
/// plus a buffered reader over the reply lines.
fn raw_connection(service: &CompileService) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(service.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone the socket"));
    (stream, reader)
}

/// Reads one reply line, failing when the server hung up instead.
fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let read = reader.read_line(&mut line).expect("reply line");
    assert!(read > 0, "the server closed the connection without a reply");
    line
}

#[test]
fn a_multi_byte_character_split_across_reads_keeps_its_line() {
    let service = CompileService::start(ServiceConfig::new().workers(1)).expect("service boots");
    let (mut writer, mut reader) = raw_connection(&service);
    let request = concat!(
        r#"{"tenant":"utf8","id":"split","source":"OPENQASM 3.0;\n// d ≥ 3\n"#,
        r#"qudit[3] q[3];\nctrl @ ctrl @ swap(0, 1) q[0], q[1], q[2];\n"}"#,
        "\n",
    );
    // Split after the first byte of `≥` and pause past the service's 25 ms
    // read timeout, so the timeout falls inside the character.
    let split = request.find('≥').expect("the request carries a ≥") + 1;
    writer
        .write_all(&request.as_bytes()[..split])
        .expect("first half");
    std::thread::sleep(Duration::from_millis(120));
    writer
        .write_all(&request.as_bytes()[split..])
        .expect("second half");

    let reply = read_reply(&mut reader);
    assert!(reply.contains(r#""id":"split","status":"ok""#), "{reply}");
    let stats = service.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.protocol_errors, 0);
    // Exactly one reply: after shutdown the connection only reports EOF.
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("clean close"),
        0,
        "{rest}"
    );
}

#[test]
fn invalid_utf8_gets_an_error_reply_and_the_connection_stays_open() {
    let service = CompileService::start(ServiceConfig::new().workers(1)).expect("service boots");
    let (mut writer, mut reader) = raw_connection(&service);
    writer
        .write_all(b"{\"tenant\":\"t\",\"id\":\"\xFF\"}\n")
        .expect("send");
    let reply = read_reply(&mut reader);
    assert!(reply.contains(r#""status":"error""#), "{reply}");
    assert!(reply.contains("UTF-8"), "{reply}");

    // The same connection still serves a valid job.
    let next = concat!(
        r#"{"tenant":"t","id":"next","source":"OPENQASM 3.0;\nqudit[3] q[2];\n"#,
        r#"ctrl @ swap(0, 1) q[0], q[1];"}"#,
        "\n",
    );
    writer.write_all(next.as_bytes()).expect("send");
    let reply = read_reply(&mut reader);
    assert!(reply.contains(r#""id":"next","status":"ok""#), "{reply}");
    let stats = service.shutdown();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn an_oversized_line_gets_one_error_reply_and_closes_only_its_connection() {
    let service = CompileService::start(ServiceConfig::new().workers(1)).expect("service boots");
    let mut other = ServiceClient::connect(service.local_addr()).expect("connect");
    let (mut writer, mut reader) = raw_connection(&service);
    // One byte past the 4 MiB cap, and never a newline.
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'a'; 64 << 10];
        let mut sent = 0;
        while sent <= 4 << 20 && writer.write_all(&chunk).is_ok() {
            sent += chunk.len();
        }
    });
    let reply = read_reply(&mut reader);
    assert!(reply.contains(r#""status":"error""#), "{reply}");
    assert!(
        reply.contains("request line exceeds 4194304 bytes"),
        "{reply}"
    );
    // The service hung up after that one reply.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");
    flood
        .join()
        .expect("the flood writer stops once the socket closes");

    // Another tenant's connection is still served.
    let reply = other
        .roundtrip(&job("other", 0, mcs_source(3, 3, (0, 1), 2)))
        .expect("reply");
    assert!(reply.is_ok(), "{}", reply.message);
    let stats = service.shutdown();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.completed, 1);
}
