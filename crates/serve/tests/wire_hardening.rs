//! Wire-protocol hardening: hostile and malformed input must kill the
//! offending connection — never the server, never a queue slot.
//!
//! The deterministic cases cover each failure class by name; the seeded
//! SplitMix64 fuzz throws hundreds of mutated frames at both the frame
//! decoder (in process) and a live server (over a socket) and then
//! proves the server still serves.

use bsched_harness::{Engine, EngineConfig};
use bsched_serve::{
    serve, Client, Endpoint, Request, Response, ServeConfig, ServeCore, ServerConfig,
    WIRE_SCHEMA_VERSION,
};
use bsched_util::{read_frame, write_frame, Json, Prng, MAX_FRAME_LEN};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bsched-wire-{tag}-{}.sock", std::process::id()))
}

struct TestServer {
    /// Keeps the serving core alive for the server/dispatcher threads.
    #[allow(dead_code)]
    core: Arc<ServeCore>,
    endpoint: Endpoint,
    serve_thread: std::thread::JoinHandle<()>,
    dispatcher: std::thread::JoinHandle<()>,
}

fn start_server(tag: &str) -> TestServer {
    let engine = Engine::with_standard_kernels(EngineConfig::default().with_jobs(2));
    let core = Arc::new(ServeCore::new(engine, ServeConfig::default()));
    let endpoint = Endpoint::Unix(sock_path(tag));
    let dispatcher = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.run_dispatcher())
    };
    let serve_thread = {
        let core = Arc::clone(&core);
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            serve(&core, &endpoint, &ServerConfig::default()).expect("serve");
        })
    };
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!()
    };
    for _ in 0..200 {
        if path.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    TestServer {
        core,
        endpoint,
        serve_thread,
        dispatcher,
    }
}

fn stop_server(server: TestServer) {
    Client::connect(&server.endpoint, Duration::from_secs(30))
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    server.serve_thread.join().expect("serve thread");
    server.dispatcher.join().expect("dispatcher");
}

fn raw_connect(endpoint: &Endpoint) -> UnixStream {
    let Endpoint::Unix(path) = endpoint else {
        unreachable!()
    };
    let s = UnixStream::connect(path).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    s
}

/// Reads one frame and asserts it is an `error` response.
fn expect_error_frame(stream: &mut UnixStream) {
    let doc = read_frame(stream, MAX_FRAME_LEN)
        .expect("server must answer before closing")
        .expect("frame, not EOF");
    let response = Response::from_json(&doc).expect("parseable response");
    assert!(
        matches!(response, Response::Error { .. }),
        "expected error frame, got {response:?}"
    );
}

#[test]
fn hostile_frames_kill_the_connection_but_never_the_server() {
    let server = start_server("hostile");

    // Case 1: oversized length prefix → error frame, connection closed.
    {
        let mut s = raw_connect(&server.endpoint);
        s.write_all(&(u32::MAX).to_be_bytes()).expect("write");
        s.flush().expect("flush");
        expect_error_frame(&mut s);
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).expect("closed cleanly");
        assert!(rest.is_empty(), "nothing after the error frame");
    }

    // Case 2: truncated frame (length promises more than arrives).
    {
        let mut s = raw_connect(&server.endpoint);
        s.write_all(&100u32.to_be_bytes()).expect("write");
        s.write_all(b"short").expect("write");
        drop(s); // close mid-payload; server sees EOF and drops the conn
    }

    // Case 3: garbage JSON payload → error frame, connection closed.
    {
        let mut s = raw_connect(&server.endpoint);
        let garbage = b"{this is not json";
        s.write_all(&(garbage.len() as u32).to_be_bytes())
            .expect("write");
        s.write_all(garbage).expect("write");
        s.flush().expect("flush");
        expect_error_frame(&mut s);
    }

    // Case 4: valid JSON, wrong schema version → error frame, but the
    // connection survives (stream is still in sync) and serves a ping.
    {
        let mut s = raw_connect(&server.endpoint);
        let wrong = Json::obj(vec![
            ("v", Json::u64(u64::from(WIRE_SCHEMA_VERSION) + 41)),
            ("type", Json::Str("ping".to_string())),
        ]);
        write_frame(&mut s, &wrong).expect("write");
        expect_error_frame(&mut s);
        write_frame(&mut s, &Request::Ping.to_json()).expect("write");
        let doc = read_frame(&mut s, MAX_FRAME_LEN)
            .expect("read")
            .expect("frame");
        assert!(matches!(
            Response::from_json(&doc).expect("response"),
            Response::Pong
        ));
    }

    // Case 5: valid frame, unknown request type → same survivable path.
    {
        let mut s = raw_connect(&server.endpoint);
        let unknown = Json::obj(vec![
            ("v", Json::u64(u64::from(WIRE_SCHEMA_VERSION))),
            ("type", Json::Str("make_coffee".to_string())),
        ]);
        write_frame(&mut s, &unknown).expect("write");
        expect_error_frame(&mut s);
    }

    // After all of it: the server still answers and leaked no slots.
    let mut client = Client::connect(&server.endpoint, Duration::from_secs(30)).expect("connect");
    client.ping().expect("server must still serve");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.queue_depth, 0,
        "hostile input must not occupy the queue"
    );
    stop_server(server);
}

#[test]
fn seeded_fuzz_of_frame_decoding_never_panics_or_leaks() {
    // In-process fuzz of the decoder itself: mutated valid frames,
    // random prefixes, random bytes. The decoder must return, not panic.
    let mut rng = Prng::new(0xB5ED_F422);
    let valid = {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping.to_json()).expect("encode");
        buf
    };
    for _ in 0..500 {
        let mut bytes = match rng.next_u64() % 3 {
            0 => {
                // Mutate a valid frame at 1–4 positions.
                let mut b = valid.clone();
                for _ in 0..rng.range_u64(1, 5) {
                    let at = rng.range_u64(0, b.len() as u64) as usize;
                    b[at] = (rng.next_u64() & 0xFF) as u8;
                }
                b
            }
            1 => {
                // Truncate a valid frame.
                let at = rng.range_u64(0, valid.len() as u64) as usize;
                valid[..at].to_vec()
            }
            _ => {
                // Pure noise.
                (0..rng.range_u64(0, 64))
                    .map(|_| (rng.next_u64() & 0xFF) as u8)
                    .collect()
            }
        };
        // Sometimes append a second partial frame to catch desyncs.
        if rng.next_u64().is_multiple_of(4) {
            bytes.extend_from_slice(&valid[..rng.range_u64(0, valid.len() as u64) as usize]);
        }
        let mut cursor = bytes.as_slice();
        // Drain the stream: every frame either parses or errors; EOF ends.
        while let Ok(Some(doc)) = read_frame(&mut cursor, MAX_FRAME_LEN) {
            // Whatever parsed must survive request decoding too.
            let _ = Request::from_json(&doc);
        }
    }

    // Socket fuzz: the same generator against a live server, across
    // many short-lived connections.
    let server = start_server("fuzz");
    let mut rng = Prng::new(0xB5ED_F423);
    for _ in 0..60 {
        let mut s = raw_connect(&server.endpoint);
        let n = rng.range_u64(1, 48) as usize;
        let mut bytes = Vec::with_capacity(n);
        if rng.next_u64().is_multiple_of(2) {
            // Start from a valid frame, then corrupt.
            bytes.extend_from_slice(&valid);
            let at = rng.range_u64(0, bytes.len() as u64) as usize;
            bytes[at] = (rng.next_u64() & 0xFF) as u8;
        }
        bytes.extend((0..n).map(|_| (rng.next_u64() & 0xFF) as u8));
        let _ = s.write_all(&bytes); // server may hang up mid-write
        let _ = s.flush();
        drop(s);
    }
    // The server survived and is fully functional.
    let mut client = Client::connect(&server.endpoint, Duration::from_secs(30)).expect("connect");
    client.ping().expect("server survived the fuzz");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.queue_depth, 0, "fuzz must not occupy queue slots");
    stop_server(server);
}
