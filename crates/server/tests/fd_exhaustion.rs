//! The listener at the file-descriptor limit. `accept` fails with `EMFILE`
//! while the refused connection stays in the backlog, so a level-triggered
//! listener is readable forever: a reactor that keeps polling it spins a
//! core until an fd comes back. This binary lowers the process's own
//! `RLIMIT_NOFILE`, which is why the test lives alone in it.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use einet_core::ExitPlan;
use einet_edge::{PoolConfig, StaticSource};
use einet_models::{zoo, BranchSpec};
use einet_server::{ModelRegistry, ModelSpec, ReactorConfig, ReactorServer};
use einet_trace::json;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;
const CLOCKS_PER_TICK: i64 = 10_000; // clock() counts µs; a tick is 1/100 s

extern "C" {
    fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
    /// Processor time used by the whole process, every thread included.
    fn clock() -> i64;
}

fn lower_fd_limit(to: u64) {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid `struct rlimit` (two u64 on Linux) for both
    // calls; lowering the soft limit needs no privilege.
    unsafe {
        assert_eq!(getrlimit(RLIMIT_NOFILE, &mut limit), 0);
        limit.cur = to.min(limit.max);
        assert_eq!(setrlimit(RLIMIT_NOFILE, &limit), 0);
    }
}

fn cpu_ticks() -> i64 {
    // SAFETY: no arguments, no preconditions.
    unsafe { clock() / CLOCKS_PER_TICK }
}

/// One request down `conn`, one response back; the response code.
fn round_trip(conn: &TcpStream, id: u64) -> u64 {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    // Written through the shared reference: a `try_clone` would need a
    // descriptor of its own, and the table is full.
    let mut writer = conn;
    writeln!(
        writer,
        "{{\"id\": {id}, \"model\": \"m\", \"input\": {{\"shape\": [1, 1, 16, 16], \"fill\": 0.5}}}}"
    )
    .expect("send");
    let mut line = String::new();
    BufReader::new(conn)
        .read_line(&mut line)
        .expect("response before the timeout");
    let v = json::parse(line.trim()).expect("response is valid JSON");
    assert_eq!(v.get("id").and_then(|i| i.as_u64()), Some(id));
    v.get("code").and_then(|c| c.as_u64()).expect("code")
}

#[test]
fn listener_at_the_fd_limit_waits_instead_of_spinning_and_recovers() {
    let mut registry = ModelRegistry::new();
    registry.register(
        "m",
        zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 1),
        |_replica, _worker| Box::new(StaticSource::new(ExitPlan::full(3))),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                ..PoolConfig::default()
            },
            ..ModelSpec::default()
        },
    );
    let registry = Arc::new(registry);
    let server = ReactorServer::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ReactorConfig::default(),
    )
    .expect("reactor binds");
    let addr = server.local_addr();
    let ingest = server.metrics_handle();
    let wait_for_open = |want: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while ingest.snapshot().open_connections != want {
            assert!(Instant::now() < deadline, "gauge never reached {want}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    lower_fd_limit(128);
    // A few served connections, so that closing one later hands the
    // reactor an fd back.
    let mut served: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    wait_for_open(4);
    // Fill the table to the brim, then free exactly one descriptor ...
    let mut filler = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        filler.push(f);
    }
    filler.pop();
    // ... which the next client socket takes: the handshake completes in
    // the kernel, and the reactor's accept has no fd left to return.
    let stranded = TcpStream::connect(addr).expect("client socket takes the last fd");

    std::thread::sleep(Duration::from_millis(100)); // let the accept fail
    let before = cpu_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let burned = cpu_ticks() - before;
    assert_eq!(ingest.snapshot().open_connections, 4, "nothing accepted");
    assert!(
        burned < 20,
        "process burned {burned} of 100 CPU ticks idling at the fd limit"
    );

    // A client hangs up: the reactor gets its fd back and must notice the
    // listener again — the stranded connection is accepted and answered.
    drop(served.pop());
    assert_eq!(round_trip(&stranded, 1), 200);
    wait_for_open(4);
    // And with room in the table, so is a fresh one.
    drop(filler);
    let fresh = TcpStream::connect(addr).expect("connect");
    assert_eq!(round_trip(&fresh, 2), 200);

    drop((served, stranded, fresh));
    server.shutdown();
    Arc::try_unwrap(registry).expect("sole owner").shutdown();
}
