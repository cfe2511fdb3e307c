//! Wire robustness tests: the protocol decoder under adversarial bytes,
//! pipelined request attribution over a live socket, and the
//! client-disconnect cancellation contract.

use dol_acl::FnOracle;
use dol_server::frame::{self, DEFAULT_MAX_FRAME};
use dol_server::proto::{self, Method, Request, WireSemantics};
use dol_server::{Client, ClientError, ErrorCode, Json, Server, ServerConfig, UpdateOp};
use proptest::prelude::*;
use secure_xml::{GroupCommitConfig, SecureXmlDb};
use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const XML: &str = "<lib><shelf><book>alpha</book><book>beta</book></shelf>\
                   <shelf><book>gamma</book><mag>delta</mag></shelf></lib>";

fn test_db() -> SecureXmlDb {
    SecureXmlDb::from_xml(XML, &FnOracle::new(2, |_, _| true)).expect("build db")
}

/// One long-lived server shared by every pipelining proptest case (leaked:
/// a drain per case would dominate the test's runtime).
fn shared_server_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let server = Server::start(test_db(), ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        Box::leak(Box::new(server));
        addr
    })
}

// ---------------------------------------------------------------------------
// Parser-level fuzz: arbitrary bytes must never panic (or succeed wrongly).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_and_request_decoders_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        // The frame decoder on raw bytes: any outcome but a panic is fine,
        // and a decoded payload must actually checksum-match.
        let mut r = Cursor::new(bytes.clone());
        let _ = frame::read_frame(&mut r, &[], DEFAULT_MAX_FRAME);
        // The request decoder on raw bytes.
        let _ = proto::decode_request(&bytes);
        // The JSON parser on raw bytes.
        let _ = dol_server::json::parse(&bytes);
    }

    #[test]
    fn corrupted_valid_frames_never_decode_silently(
        payload in proptest::collection::vec(any::<u8>(), 0..80),
        flip_byte in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let wire = frame::encode_frame(&payload);
        let mut corrupt = wire.clone();
        let idx = (flip_byte as usize) % corrupt.len();
        corrupt[idx] ^= 1 << flip_bit;
        let mut r = Cursor::new(corrupt);
        // A flipped bit may enlarge the length prefix so the read runs
        // past the buffer (torn), exceed the cap (oversize), or break
        // the checksum — any of those outcomes is a detected rejection.
        // What must never happen is an unnoticed round-trip: a decode
        // that succeeds must yield the original payload exactly.
        if let Ok(Some(decoded)) = frame::read_frame(&mut r, &[], DEFAULT_MAX_FRAME) {
            prop_assert_eq!(decoded, payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Live-socket pipelining: interleaved requests, truncated tails, flipped
// bits — the server must answer the valid prefix with correctly attributed
// ids, then close; never hang, never mis-attribute.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Tail {
    /// Stream ends cleanly on a frame boundary.
    Clean,
    /// Stream ends mid-frame (torn).
    Truncated(usize),
    /// One bit of the last frame flipped.
    BitFlip(usize),
    /// A hostile oversize length prefix appended.
    Oversize,
    /// Raw garbage appended.
    Garbage(Vec<u8>),
}

fn arb_tail() -> impl Strategy<Value = Tail> {
    prop_oneof![
        Just(Tail::Clean),
        (1usize..64).prop_map(Tail::Truncated),
        (0usize..512).prop_map(Tail::BitFlip),
        Just(Tail::Oversize),
        proptest::collection::vec(any::<u8>(), 1..40).prop_map(Tail::Garbage),
    ]
}

fn read_all_frames(stream: &mut TcpStream) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        match frame::read_frame(stream, &[], DEFAULT_MAX_FRAME) {
            Ok(Some(p)) => out.push(p),
            Ok(None) | Err(_) => return out,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipelined_requests_are_answered_by_id_until_the_stream_breaks(
        kinds in proptest::collection::vec(0u8..3, 1..10),
        tail in arb_tail(),
    ) {
        let addr = shared_server_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        // Encode the whole pipeline up front: ids 1..=n, a mix of pings,
        // queries, and (decodable but) invalid requests.
        let mut wire = Vec::new();
        let mut sent: Vec<(u64, u8)> = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            let id = i as u64 + 1;
            let payload = match kind {
                0 => proto::encode_request(&Request {
                    id,
                    method: Method::Ping,
                    deadline_ms: None,
                }),
                1 => proto::encode_request(&Request {
                    id,
                    method: Method::Query {
                        query: "//book".into(),
                        subject: 0,
                        semantics: WireSemantics::Binding,
                    },
                    deadline_ms: None,
                }),
                _ => format!("{{\"id\":{id},\"method\":\"no_such_method\"}}").into_bytes(),
            };
            sent.push((id, *kind));
            wire.extend_from_slice(&frame::encode_frame(&payload));
        }
        // How many requests survive the tail corruption intact.
        let mut intact = sent.len();
        match &tail {
            Tail::Clean => {}
            Tail::Truncated(cut) => {
                let cut = (*cut).min(wire.len() - 1).max(1);
                wire.truncate(wire.len() - cut);
                // Dropping bytes clips at least the last request.
                intact = 0;
                let mut consumed = 0usize;
                for (i, kind) in kinds.iter().enumerate() {
                    let id = i as u64 + 1;
                    let len = match kind {
                        0 => proto::encode_request(&Request {
                            id,
                            method: Method::Ping,
                            deadline_ms: None,
                        })
                        .len(),
                        1 => proto::encode_request(&Request {
                            id,
                            method: Method::Query {
                                query: "//book".into(),
                                subject: 0,
                                semantics: WireSemantics::Binding,
                            },
                            deadline_ms: None,
                        })
                        .len(),
                        _ => format!("{{\"id\":{id},\"method\":\"no_such_method\"}}").len(),
                    } + frame::HEADER_SIZE;
                    if consumed + len <= wire.len() {
                        consumed += len;
                        intact += 1;
                    } else {
                        break;
                    }
                }
            }
            Tail::BitFlip(at) => {
                // Flip a bit somewhere in the final frame: every earlier
                // request is still intact.
                let last_start = {
                    let mut consumed = 0usize;
                    let mut start = 0usize;
                    let mut r = Cursor::new(wire.clone());
                    while let Ok(Some(p)) = frame::read_frame(&mut r, &[], DEFAULT_MAX_FRAME) {
                        start = consumed;
                        consumed += frame::HEADER_SIZE + p.len();
                    }
                    start
                };
                let idx = last_start + at % (wire.len() - last_start);
                wire[idx] ^= 0x10;
                intact = sent.len() - 1;
            }
            Tail::Oversize => {
                wire.extend_from_slice(&u32::MAX.to_le_bytes());
                wire.extend_from_slice(&0u32.to_le_bytes());
            }
            Tail::Garbage(g) => {
                // Garbage after valid frames: decoded as a torn/oversize/
                // CRC-broken header; all real requests intact.
                wire.extend_from_slice(g);
            }
        }

        stream.write_all(&wire).expect("write pipeline");
        let _ = stream.shutdown(Shutdown::Write);
        let responses = read_all_frames(&mut stream);

        // Attribution: every response id echoes a sent id, at most once,
        // and its body matches that id's method.
        let mut seen = std::collections::HashSet::new();
        for payload in &responses {
            let resp = proto::decode_response(payload).expect("decodable response");
            prop_assert!(seen.insert(resp.id), "duplicate response id {}", resp.id);
            let kind = sent
                .iter()
                .find(|(id, _)| *id == resp.id)
                .map(|(_, k)| *k)
                .expect("response id was never sent");
            match (kind, &resp.outcome) {
                (0, Ok(body)) => {
                    prop_assert_eq!(body.get("pong").and_then(Json::as_bool), Some(true))
                }
                (1, Ok(body)) => {
                    prop_assert!(body.get("matches").is_some(), "query answer without matches")
                }
                // A query still queued when the stream broke is cancelled
                // by the close and refused — never half-answered.
                (1, Err((ErrorCode::DeadlineExceeded, _))) => {}
                (2, Err((ErrorCode::InvalidRequest, _))) => {}
                (k, out) => prop_assert!(false, "kind {} got unexpected outcome {:?}", k, out),
            }
        }
        // Completeness: every request that was fully on the wire before
        // the corruption point is answered (BitFlip corrupts only the last
        // frame; truncation clips a suffix; garbage/oversize none).
        prop_assert!(
            responses.len() >= intact,
            "only {} responses for {} intact requests",
            responses.len(),
            intact
        );
    }
}

// ---------------------------------------------------------------------------
// Regression: a client that disconnects mid-request cancels its in-flight
// work through the CancelToken and releases its admission slot.
// ---------------------------------------------------------------------------

#[test]
fn disconnect_mid_request_cancels_and_releases_admission_slot() {
    // A slow committer makes the update hold the worker (and its admission
    // slot) for a known window; the pipelined query sits behind it with a
    // registered cancel token.
    let cfg = ServerConfig {
        max_inflight: 2,
        commit: GroupCommitConfig {
            flush_interval: Duration::from_millis(300),
            ..GroupCommitConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(test_db(), cfg).expect("bind");
    let addr = server.local_addr().to_string();

    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let update = proto::encode_request(&Request {
            id: 1,
            method: Method::Update(UpdateOp::SetNodeAccess {
                pos: 1,
                subject: 1,
                allow: false,
            }),
            deadline_ms: None,
        });
        let query = proto::encode_request(&Request {
            id: 2,
            method: Method::Query {
                query: "//book".into(),
                subject: 0,
                semantics: WireSemantics::Binding,
            },
            deadline_ms: Some(60_000),
        });
        let mut wire = frame::encode_frame(&update);
        wire.extend_from_slice(&frame::encode_frame(&query));
        stream.write_all(&wire).expect("write");
        // Give the reader a moment to admit both requests, then vanish.
        let start = Instant::now();
        while server.in_flight() < 2 && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.in_flight(), 2, "both requests should hold slots");
        drop(stream); // abrupt disconnect, update still committing
    }

    // Both slots must come back without any client involvement.
    let start = Instant::now();
    while server.in_flight() > 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.in_flight(), 0, "slots leaked after disconnect");
    // The disconnect cancelled the registered in-flight tokens...
    assert!(
        server.metrics().requests("update") >= 1,
        "update should have been dispatched"
    );
    let cancelled = {
        // Token cancellation is observable through the queued query's
        // refusal: its deadline was cancelled before dispatch, so it was
        // refused as deadline_exceeded without touching the engine.
        server.metrics().refusals(ErrorCode::DeadlineExceeded)
    };
    assert!(
        cancelled >= 1,
        "queued query should be refused via its cancelled token"
    );

    // ...and the freed slots serve a fresh client immediately.
    let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("reconnect");
    client.ping().expect("ping after slot release");
    let matches = client
        .query("//book", 0, WireSemantics::Binding, None)
        .expect("query after slot release");
    assert!(!matches.is_empty());
}

// ---------------------------------------------------------------------------
// End-to-end smoke of the typed client against a live server.
// ---------------------------------------------------------------------------

#[test]
fn client_roundtrip_query_update_stats_metrics() {
    let server = Server::start(test_db(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");

    c.ping().expect("ping");
    let before = c
        .query("//book", 1, WireSemantics::Binding, None)
        .expect("query");
    assert_eq!(before.len(), 3);
    // Revoke one book for subject 1 and observe the change.
    c.update(
        UpdateOp::SetNodeAccess {
            pos: before[0],
            subject: 1,
            allow: false,
        },
        None,
    )
    .expect("update");
    let after = c
        .query("//book", 1, WireSemantics::Binding, None)
        .expect("query after update");
    assert_eq!(after.len(), 2);

    // A pre-expired deadline is refused, not served from the warm cache.
    match c.query("//book", 1, WireSemantics::Binding, Some(0)) {
        Err(ClientError::Server(ErrorCode::DeadlineExceeded, _)) => {}
        other => panic!("expected deadline refusal, got {other:?}"),
    }

    let sid = c.register_subject(Some(0), &[]).expect("register");
    assert!(u64::from(sid) >= 2);

    let stats = c.stats().expect("stats");
    assert!(stats.get("commit").is_some() && stats.get("io").is_some());
    for counter in ["evictions", "read_shared", "read_exclusive_fallback"] {
        assert!(
            stats
                .get("io")
                .and_then(|io| io.get(counter))
                .and_then(Json::as_uint)
                .is_some(),
            "io.{counter} missing from the stats reply"
        );
    }
    assert_eq!(
        stats
            .get("commit")
            .and_then(|c| c.get("committed"))
            .and_then(Json::as_uint),
        Some(1)
    );
    let text = c.metrics_text().expect("metrics");
    assert!(text.contains("dol_requests_total{method=\"query\"}"));
    assert!(text.contains("dol_refusals_total{code=\"deadline_exceeded\"} 1"));

    // HTTP scrape on the same port.
    let mut http = TcpStream::connect(&addr).expect("http connect");
    http.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("http write");
    let mut body = String::new();
    let _ = http.read_to_string(&mut body);
    assert!(body.starts_with("HTTP/1.1 200 OK"));
    assert!(body.contains("dol_requests_total"));

    // Graceful drain over the wire: responds, then stops the server.
    c.shutdown().expect("shutdown ack");
    server.wait();
}

#[test]
fn oversized_query_is_invalid_request_and_the_connection_keeps_answering() {
    let server = Server::start(test_db(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
    let cap = secure_xml::query::MAX_PATTERN_NODES;
    // `/lib` plus `depth` nested `[shelf` predicates: depth + 1 pattern nodes.
    let nested = |depth: usize| format!("/lib{}{}", "[shelf".repeat(depth), "]".repeat(depth));
    for q in [
        nested(cap),
        "//book".repeat(cap + 1),
        // Without the cap these would overflow a worker's stack (about
        // 140 KB) and exhaust memory in lowering (about 150 KB); both fit
        // inside the frame cap.
        nested(20_000),
        "//a".repeat(50_000),
    ] {
        match c.query(&q, 1, WireSemantics::Binding, None) {
            Err(ClientError::Server(ErrorCode::InvalidRequest, msg)) => {
                assert!(msg.contains("pattern nodes"), "{msg}");
            }
            other => panic!("expected invalid_request, got {other:?}"),
        }
        let ok = c
            .query("//book", 1, WireSemantics::Binding, None)
            .expect("the same connection answers a normal query");
        assert_eq!(ok.len(), 3);
    }
    c.shutdown().expect("shutdown ack");
    server.wait();
}
