//! Multiplexing end to end: hundreds of concurrent in-flight requests
//! on one protocol-v2 connection, out-of-order completion correlated by
//! request id, per-request deadlines that do not head-of-line block,
//! v1/v2 interop on one port, and reload-under-mux-load with zero wrong
//! answers.
//!
//! Raw [`TcpStream`]s drive the wire-level cases so the frames are
//! exactly what each test says; [`MuxClient`] drives the client-side
//! semantics (deadline isolation, late-response dropping) against both
//! live and scripted mock servers.

use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hl_core::pll::PrunedLandmarkLabeling;
use hl_graph::{bfs, generators, Graph, NodeId};
use hl_net::wire::{encode_mux, read_frame, split_mux, write_frame, ClientHello, ServerHello};
use hl_net::{
    ClientConfig, ErrorCode, MuxClient, NetClient, NetError, NetServer, Request, Response,
    ServerConfig, StopHandle, MAX_PROTOCOL_VERSION, PROTOCOL_V2,
};
use hl_server::engine::SMALL_BATCH_INLINE;
use hl_server::QueryEngine;

const TEST_MAX_FRAME: u32 = 1 << 20;

struct TestServer {
    addr: SocketAddr,
    stop: StopHandle,
    thread: Option<JoinHandle<()>>,
}

impl TestServer {
    fn start(g: &Graph, tweak: impl FnOnce(&mut ServerConfig)) -> Self {
        let hl = PrunedLandmarkLabeling::by_degree(g).into_labeling();
        let engine = Arc::new(QueryEngine::new(hl, 2).expect("engine"));
        let mut config = ServerConfig {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            frame_timeout: Duration::from_secs(2),
            allow_remote_shutdown: false,
            allow_remote_reload: false,
            ..ServerConfig::default()
        };
        tweak(&mut config);
        let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr();
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || server.serve().expect("serve"));
        TestServer {
            addr,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread");
        }
    }
}

/// A raw socket past a v2 handshake, asserting the advertised ceiling.
fn v2_socket(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("server hello");
    let hello = ServerHello::decode(&payload).expect("decode hello");
    assert_eq!(
        hello.protocol_version, MAX_PROTOCOL_VERSION,
        "server must advertise its v2 ceiling"
    );
    let client_hello = ClientHello {
        protocol_version: PROTOCOL_V2,
    };
    write_frame(&mut stream, &client_hello.encode()).expect("client hello");
    stream
}

fn send_mux(stream: &mut TcpStream, id: u64, req: &Request) {
    write_frame(stream, &encode_mux(id, &req.encode())).expect("send mux frame");
}

fn read_mux(stream: &mut TcpStream) -> (u64, Response) {
    let payload = read_frame(stream, TEST_MAX_FRAME).expect("response frame");
    let (id, inner) = split_mux(&payload).expect("mux split");
    (id, Response::decode(inner).expect("decode response"))
}

/// The acceptance bar: one v2 connection, 300 requests written before a
/// single response is read — all in flight at once — answered complete,
/// id-correlated, and BFS-correct regardless of completion order.
#[test]
fn v2_connection_sustains_300_inflight_and_answers_correctly() {
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::start(&g, |_| {});
    let mut stream = v2_socket(server.addr);

    const INFLIGHT: usize = 300;
    let mut sent: Vec<(u64, NodeId, NodeId)> = Vec::with_capacity(INFLIGHT);
    for i in 0..INFLIGHT {
        let id = i as u64 + 1;
        let u = (i % n) as NodeId;
        let v = ((i * 7 + 3) % n) as NodeId;
        send_mux(&mut stream, id, &Request::Query { u, v });
        sent.push((id, u, v));
    }

    let mut answered: HashSet<u64> = HashSet::with_capacity(INFLIGHT);
    for _ in 0..INFLIGHT {
        let (id, resp) = read_mux(&mut stream);
        assert!(answered.insert(id), "request id {id} answered twice");
        let &(_, u, v) = sent
            .iter()
            .find(|&&(sid, _, _)| sid == id)
            .unwrap_or_else(|| panic!("response for an id never sent: {id}"));
        match resp {
            Response::Distance(d) => {
                assert_eq!(d, truth[u as usize][v as usize], "d({u},{v}) wrong");
            }
            other => panic!("expected Distance for id {id}, got {other:?}"),
        }
    }
    assert_eq!(answered.len(), INFLIGHT, "some request went unanswered");
}

/// MuxClient semantics: submit everything, then collect in *reverse*
/// submission order — each wait only blocks on its own id.
#[test]
fn mux_client_collects_in_any_order() {
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::start(&g, |_| {});
    let client = MuxClient::connect(server.addr, ClientConfig::default()).expect("connect");
    assert_eq!(client.num_nodes(), n as u64);

    let mut submitted: Vec<(u64, NodeId, NodeId)> = Vec::new();
    for i in 0..256usize {
        let u = (i % n) as NodeId;
        let v = ((i * 11 + 5) % n) as NodeId;
        let id = client.submit(&Request::Query { u, v }).expect("submit");
        submitted.push((id, u, v));
    }
    for &(id, u, v) in submitted.iter().rev() {
        match client.wait(id, Duration::from_secs(10)).expect("wait") {
            Response::Distance(d) => assert_eq!(d, truth[u as usize][v as usize]),
            other => panic!("expected Distance, got {other:?}"),
        }
    }
    assert_eq!(client.in_flight(), 0);
}

/// Negotiation keeps both protocols on one port: a lock-step v1
/// NetClient and a multiplexing v2 MuxClient serve correct answers from
/// the same daemon at the same time.
#[test]
fn v1_and_v2_clients_interoperate_on_one_port() {
    let g = generators::grid(5, 5);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::start(&g, |_| {});

    let mut v1 = NetClient::connect(server.addr, ClientConfig::default()).expect("v1 connect");
    let v2 = MuxClient::connect(server.addr, ClientConfig::default()).expect("v2 connect");
    assert_eq!(
        v1.server_hello().map(|h| h.protocol_version),
        Some(MAX_PROTOCOL_VERSION)
    );
    assert_eq!(v2.server_hello().protocol_version, MAX_PROTOCOL_VERSION);

    // Interleave the two protocols request by request.
    for u in 0..n as NodeId {
        let v = (u * 3 + 2) % n as NodeId;
        assert_eq!(
            v1.query(u, v).expect("v1 query"),
            truth[u as usize][v as usize]
        );
        assert_eq!(
            v2.query(v, u).expect("v2 query"),
            truth[v as usize][u as usize]
        );
    }
    let pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId).map(|u| (u, n as NodeId - 1 - u)).collect();
    let want: Vec<u64> = pairs
        .iter()
        .map(|&(u, v)| truth[u as usize][v as usize])
        .collect();
    assert_eq!(v1.query_batch(&pairs).expect("v1 batch"), want);
    assert_eq!(v2.query_batch(&pairs).expect("v2 batch"), want);
}

/// A request that times out abandons only its own slot: later responses
/// keep flowing, the late answer is dropped instead of misdelivered,
/// and unknown ids from the server are ignored.
#[test]
fn per_request_deadline_frees_only_that_request() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
    let addr = listener.local_addr().expect("addr");

    // A scripted server: never answers the first request, answers the
    // second promptly (plus a bogus unknown id), and answers the first
    // *late* — after its waiter gave up — followed by the third.
    let mock = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let hello = ServerHello {
            protocol_version: PROTOCOL_V2,
            store_version: 1,
            num_nodes: 100,
        };
        write_frame(&mut stream, &hello.encode()).expect("send hello");
        let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("client hello");
        let ch = ClientHello::decode(&payload).expect("decode client hello");
        assert_eq!(ch.protocol_version, PROTOCOL_V2);

        let read_id = |stream: &mut TcpStream| -> u64 {
            let payload = read_frame(stream, TEST_MAX_FRAME).expect("request frame");
            split_mux(&payload).expect("split").0
        };
        let pong = Response::Pong.encode();
        let id_a = read_id(&mut stream);
        let id_b = read_id(&mut stream);
        // Unknown id first: the client must drop it on the floor.
        write_frame(&mut stream, &encode_mux(9999, &pong)).expect("bogus id");
        write_frame(&mut stream, &encode_mux(id_b, &pong)).expect("answer b");
        let id_c = read_id(&mut stream);
        // A's answer arrives only now — after A's waiter timed out.
        write_frame(&mut stream, &encode_mux(id_a, &pong)).expect("late a");
        write_frame(&mut stream, &encode_mux(id_c, &pong)).expect("answer c");
        // Hold the socket open until the client is done with it.
        let _ = read_frame(&mut stream, TEST_MAX_FRAME);
    });

    let client = MuxClient::connect(addr, ClientConfig::default()).expect("connect");
    let a = client.submit(&Request::Ping).expect("submit a");
    let b = client.submit(&Request::Ping).expect("submit b");

    // B answers even though A — submitted first — never will: no
    // head-of-line blocking.
    assert!(matches!(
        client.wait(b, Duration::from_secs(5)).expect("wait b"),
        Response::Pong
    ));
    // A's own deadline expires without disturbing anything else.
    match client.wait(a, Duration::from_millis(100)) {
        Err(NetError::RequestTimeout { request_id, .. }) => assert_eq!(request_id, a),
        other => panic!("expected RequestTimeout for {a}, got {other:?}"),
    }
    // C still round-trips although A's late response and a bogus id
    // arrive before it: both are dropped, not misdelivered.
    let c = client.submit(&Request::Ping).expect("submit c");
    assert!(matches!(
        client.wait(c, Duration::from_secs(5)).expect("wait c"),
        Response::Pong
    ));
    assert_eq!(client.in_flight(), 0);

    drop(client); // shuts the socket down, unblocking the mock
    mock.join().expect("mock server");
}

/// The per-connection in-flight cap answers `Busy` *per id* — typed,
/// correlated, and only for pooled work. Requests answered on the loop
/// (point queries, labels, small batches, ping) are exempt.
#[test]
fn inflight_overflow_answers_busy_for_that_id_only() {
    let g = generators::grid(4, 4);
    let server = TestServer::start(&g, |c| c.max_inflight_per_conn = 0);
    let mut stream = v2_socket(server.addr);

    // One pair past the inline limit: the batch must go to the pool, and
    // at cap 0 the pool is closed to this connection.
    let pairs: Vec<(NodeId, NodeId)> = (1..=SMALL_BATCH_INLINE as NodeId + 1)
        .map(|v| (0, v))
        .collect();
    send_mux(&mut stream, 7, &Request::QueryBatch(pairs));
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 7, "Busy must carry the overflowing request's id");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected Busy, got {other:?}"),
    }

    // A point query is answered on the loop and never counts against
    // the cap.
    send_mux(&mut stream, 8, &Request::Query { u: 0, v: 15 });
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 8);
    match resp {
        Response::Distance(d) => assert_eq!(d, bfs::bfs_distances(&g, 0)[15]),
        other => panic!("expected Distance, got {other:?}"),
    }

    // Neither does Ping.
    send_mux(&mut stream, 9, &Request::Ping);
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 9);
    assert!(matches!(resp, Response::Pong));
}

/// v1 is lock-step even when pooled and inline requests mix: a pooled
/// batch written ahead of three inline requests still answers first,
/// and every answer matches BFS.
#[test]
fn v1_mixed_pooled_and_inline_requests_answer_in_send_order() {
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::start(&g, |_| {});
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    read_frame(&mut stream, TEST_MAX_FRAME).expect("server hello");
    let hello = ClientHello {
        protocol_version: hl_net::PROTOCOL_VERSION,
    };
    write_frame(&mut stream, &hello.encode()).expect("client hello");

    let pairs: Vec<(NodeId, NodeId)> = (0..64usize)
        .map(|i| ((i % n) as NodeId, ((i * 7 + 3) % n) as NodeId))
        .collect();
    let (qu, qv) = (2 as NodeId, 33 as NodeId);
    let lv = 17 as NodeId;
    // Everything is on the wire before the first response is read.
    for req in [
        Request::QueryBatch(pairs.clone()),
        Request::Query { u: qu, v: qv },
        Request::Label { v: lv },
        Request::Ping,
    ] {
        write_frame(&mut stream, &req.encode()).expect("send request");
    }

    let mut read = || {
        let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("response frame");
        Response::decode(&payload).expect("decode response")
    };
    match read() {
        Response::DistanceBatch(ds) => {
            let want: Vec<u64> = pairs
                .iter()
                .map(|&(u, v)| truth[u as usize][v as usize])
                .collect();
            assert_eq!(ds, want, "batch answered wrong");
        }
        other => panic!("expected DistanceBatch first, got {other:?}"),
    }
    match read() {
        Response::Distance(d) => assert_eq!(d, truth[qu as usize][qv as usize]),
        other => panic!("expected Distance second, got {other:?}"),
    }
    match read() {
        Response::Label(hubs) => {
            assert!(!hubs.is_empty(), "label of {lv} is empty");
            for (hub, d) in hubs {
                assert_eq!(d, truth[lv as usize][hub as usize], "d({lv},{hub}) wrong");
            }
        }
        other => panic!("expected Label third, got {other:?}"),
    }
    assert!(matches!(read(), Response::Pong), "expected Pong last");
}

/// A pooled reload and a burst of inline queries on one v2 connection:
/// every query answers BFS-correct under its own id and the reload
/// still acknowledges.
#[test]
fn v2_queries_behind_a_pooled_reload_all_answer() {
    use hl_core::FlatLabeling;
    use hl_server::FlatStore;

    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let flat = FlatLabeling::from(PrunedLandmarkLabeling::by_degree(&g).into_labeling());
    let mut path = std::env::temp_dir();
    path.push(format!("hlnet-mux-mixed-{}.hlbs", std::process::id()));
    FlatStore::from_flat(flat).save(&path).expect("save store");

    let server = TestServer::start(&g, |c| c.allow_remote_reload = true);
    let mut stream = v2_socket(server.addr);
    const RELOAD_ID: u64 = 1_000;
    send_mux(
        &mut stream,
        RELOAD_ID,
        &Request::Reload {
            path: path.to_str().expect("utf-8 path").to_string(),
        },
    );
    let mut sent: Vec<(u64, NodeId, NodeId)> = Vec::with_capacity(100);
    for i in 0..100usize {
        let id = i as u64 + 1;
        let u = ((i * 13) % n) as NodeId;
        let v = ((i * 5 + 1) % n) as NodeId;
        send_mux(&mut stream, id, &Request::Query { u, v });
        sent.push((id, u, v));
    }

    let mut answered: HashSet<u64> = HashSet::with_capacity(sent.len() + 1);
    for _ in 0..=sent.len() {
        let (id, resp) = read_mux(&mut stream);
        assert!(answered.insert(id), "request id {id} answered twice");
        if id == RELOAD_ID {
            match resp {
                Response::ReloadAck { epoch, num_nodes } => {
                    assert_eq!(epoch, 1);
                    assert_eq!(num_nodes, n as u64);
                }
                other => panic!("expected ReloadAck, got {other:?}"),
            }
            continue;
        }
        let &(_, u, v) = sent
            .iter()
            .find(|&&(sid, _, _)| sid == id)
            .unwrap_or_else(|| panic!("response for an id never sent: {id}"));
        match resp {
            Response::Distance(d) => assert_eq!(d, truth[u as usize][v as usize], "d({u},{v})"),
            other => panic!("expected Distance for id {id}, got {other:?}"),
        }
    }
    assert!(answered.contains(&RELOAD_ID), "reload never acknowledged");
    let _ = std::fs::remove_file(path);
}

/// v2 framing violations answer `Malformed` with the best id available:
/// the echoed id when the payload carried 8 bytes, id 0 when it could
/// not even hold one — and the connection keeps serving either way.
#[test]
fn short_mux_frames_answer_malformed_with_best_effort_id() {
    let g = generators::grid(4, 4);
    let server = TestServer::start(&g, |_| {});
    let mut stream = v2_socket(server.addr);

    // 3 payload bytes: too short for an id at all.
    stream.write_all(&3u32.to_le_bytes()).expect("len");
    stream
        .write_all(&[0xAA, 0xBB, 0xCC])
        .expect("short payload");
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 0, "id-less violation must answer on id 0");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // Exactly 8 bytes: an id with an empty request — echo that id.
    stream.write_all(&8u32.to_le_bytes()).expect("len");
    stream.write_all(&0x55u64.to_le_bytes()).expect("bare id");
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 0x55, "parsable id must be echoed on the error");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "got {resp:?}"
    );

    // The frame boundaries were intact, so the connection survives.
    send_mux(&mut stream, 9, &Request::Ping);
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 9);
    assert!(matches!(resp, Response::Pong));
}

/// Reload under multiplexed load: four threads hammer queries on one
/// shared MuxClient while the store is swapped repeatedly. Both staged
/// stores hold the *same* labeling, so every single answer — whichever
/// epoch served it — must equal BFS truth: zero wrong, zero failed.
#[test]
fn reload_mid_mux_swaps_epochs_with_zero_wrong_answers() {
    use hl_core::FlatLabeling;
    use hl_server::FlatStore;

    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Arc<Vec<Vec<u64>>> = Arc::new(
        (0..n as NodeId)
            .map(|u| bfs::bfs_distances(&g, u))
            .collect(),
    );
    let flat = FlatLabeling::from(PrunedLandmarkLabeling::by_degree(&g).into_labeling());

    let mut paths = Vec::new();
    for tag in ["a", "b"] {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hlnet-mux-reload-{}-{tag}.hlbs",
            std::process::id()
        ));
        FlatStore::from_flat(flat.clone())
            .save(&p)
            .expect("save store");
        paths.push(p);
    }

    let server = TestServer::start(&g, |c| c.allow_remote_reload = true);
    let client =
        Arc::new(MuxClient::connect(server.addr, ClientConfig::default()).expect("connect"));

    let workers: Vec<_> = (0..4)
        .map(|w| {
            let client = Arc::clone(&client);
            let truth = Arc::clone(&truth);
            std::thread::spawn(move || {
                for i in 0..200usize {
                    let u = ((i * 13 + w * 7) % n) as NodeId;
                    let v = ((i * 5 + w * 3 + 1) % n) as NodeId;
                    let d = client.query(u, v).expect("query under reload");
                    assert_eq!(
                        d, truth[u as usize][v as usize],
                        "d({u},{v}) wrong mid-reload"
                    );
                }
            })
        })
        .collect();

    let mut last_epoch = 0;
    for round in 0..10 {
        let path = paths[round % 2].to_str().expect("utf-8 path");
        let (epoch, num_nodes) = client.reload(path).expect("reload under load");
        assert_eq!(num_nodes, n as u64);
        assert!(epoch > last_epoch, "epoch must advance on every swap");
        last_epoch = epoch;
        std::thread::sleep(Duration::from_millis(5));
    }
    for w in workers {
        w.join().expect("load thread");
    }
    assert_eq!(last_epoch, 10);

    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}
