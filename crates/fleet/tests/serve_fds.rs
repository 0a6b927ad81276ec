//! File-descriptor hygiene of the fleet service: a closed connection
//! must give back every descriptor the server took for it. Its own test
//! binary with a single test, so no other test opens descriptors while
//! this one counts them.
#![cfg(target_os = "linux")]

use ptherm_fleet::{FleetEngineBuilder, FleetServer, ServeConfig, ServeListener};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

const REQUEST: &str = "{\"type\": \"floorplan\", \"name\": \"quad\", \"tiles\": \
    {\"rows\": 2, \"cols\": 2, \"p_min\": 0.0, \"p_max\": 0.0, \"seed\": 7}}\n\
    {\"type\": \"steady\", \"floorplan\": \"quad\", \"dynamic_w\": 0.1, \
    \"leakage_w\": 0.01, \"vdd_scales\": [1.0]}\n";

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

/// Sends `request`, half-closes, and reads until the server closes.
fn exchange(stream: &mut TcpStream, request: &str) -> Vec<String> {
    stream.write_all(request.as_bytes()).expect("send request");
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|line| line.expect("response line"))
        .collect()
}

/// 64 sequential connections, each sending one job and closing, leave
/// the process's descriptor count where it started (within a small
/// slack for connections whose threads are still winding down).
#[test]
fn closed_connections_release_their_file_descriptors() {
    let engine = FleetEngineBuilder::new()
        .threads(1)
        .build()
        .expect("valid configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = FleetServer::new(engine, ServeConfig::default());
    let handle = thread::spawn(move || {
        server
            .serve(vec![ServeListener::Tcp(listener)])
            .expect("serve")
    });

    let before = open_fds();
    for i in 0..64 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let lines = exchange(&mut stream, REQUEST);
        assert_eq!(lines.len(), 1, "connection {i}: {lines:?}");
        assert!(
            lines[0].contains("\"ok\":true"),
            "connection {i}: {lines:?}"
        );
    }

    // A connection's reader and writer finish just after the client
    // sees EOF; give the last few a moment to close their handles.
    let slack = 4;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = open_fds();
    while after > before + slack && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
        after = open_fds();
    }
    assert!(
        after <= before + slack,
        "{after} descriptors open after 64 closed connections, {before} before"
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = exchange(&mut stream, "{\"type\": \"shutdown\"}\n");
    let _ = handle.join().expect("server thread");
}
