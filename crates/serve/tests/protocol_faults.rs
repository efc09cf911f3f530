//! Wire-level fault injection against a live server: torn writes,
//! malformed framing, and mid-request disconnects. Every scenario must
//! end in an exact status code or a clean reap — never a hung worker,
//! never a panic. Each test finishes by proving the server is still
//! fully live (`requests_in_flight == 0` and a fresh `/healthz` works).

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use webre_serve::handlers::App;
use webre_serve::server::{ServeConfig, Server};
use webre_serve::Engine;
use webre_substrate::http::{request, write_request, Client};

const RESUME: &str =
    "<h2>Education</h2><ul><li>Stanford University, M.S., 1996</li>\
     <li>MIT, B.S., 1994</li></ul><h2>Skills</h2><p>C++, Java, XML</p>";

fn start() -> Server {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_cap: 16,
        ..ServeConfig::default()
    };
    Server::start(config, Engine::resume_domain()).expect("bind ephemeral port")
}

/// A raw socket, for faults that never complete a request.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn client(addr: SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(10)).expect("connect")
}

/// Asserts the server closed the connection with nothing more to say.
fn assert_closed(client: &mut Client) {
    let error = client.recv().expect_err("no response after the last one");
    assert_eq!(error.kind(), ErrorKind::UnexpectedEof, "{error}");
}

/// After any fault, the server must have zero requests in flight and
/// still answer a fresh connection — the "no hung worker" postcondition.
fn assert_fully_live(addr: SocketAddr, app: &App) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while app.metrics.in_flight.load(Ordering::Relaxed) != 0 {
        assert!(
            Instant::now() < deadline,
            "a worker is still stuck in a request after the fault"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = request(addr, "GET", "/healthz", b"").expect("healthz after fault");
    assert_eq!(response.status, 200, "server unhealthy after the fault");
}

#[test]
fn byte_at_a_time_delivery_still_yields_a_complete_response() {
    let server = start();
    let addr = server.local_addr();

    let request = format!(
        "POST /convert HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        RESUME.len(),
        RESUME
    );
    let mut client = client(addr);
    // One byte per write for the head, so the parser sees dozens of
    // partial states; the body goes in small chunks to keep the test
    // under a second.
    let (head, body) = request.split_at(request.find("\r\n\r\n").unwrap() + 4);
    for byte in head.as_bytes() {
        client.send_raw(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
    for chunk in body.as_bytes().chunks(7) {
        client.send_raw(chunk).unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
    let response = client.recv().unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.text(), Engine::resume_domain().convert_to_xml(RESUME).2);

    assert_fully_live(addr, &server.app());
    server.request_drain();
    server.join();
}

#[test]
fn headers_split_across_writes_parse_once_complete() {
    let server = start();
    let addr = server.local_addr();

    let mut client = client(addr);
    // Split in the middle of a header name, value, and the blank line.
    for part in [
        "GET /hea",
        "lthz HTTP/1.1\r\nconn",
        "ection: cl",
        "ose\r\n",
        "\r",
        "\n",
    ] {
        client.send_raw(part.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = client.recv().unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.text(), "ok\n");

    assert_fully_live(addr, &server.app());
    server.request_drain();
    server.join();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = start();
    let addr = server.local_addr();

    // Mixed fast-path (/healthz inline) and worker-path (cold convert)
    // requests in one write: responses must come back in request order.
    let mut batch = Vec::new();
    write_request(&mut batch, "GET", "/healthz", b"", true).unwrap();
    write_request(&mut batch, "POST", "/convert", RESUME.as_bytes(), true).unwrap();
    write_request(&mut batch, "GET", "/healthz", b"", false).unwrap();

    let mut client = client(addr);
    client.send_raw(&batch).unwrap();
    let first = client.recv().unwrap();
    assert_eq!((first.status, first.text().as_str()), (200, "ok\n"));
    let second = client.recv().unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("content-type"), Some("application/xml"));
    let third = client.recv().unwrap();
    assert_eq!((third.status, third.text().as_str()), (200, "ok\n"));
    // The final `connection: close` is honoured.
    assert_closed(&mut client);

    assert_fully_live(addr, &server.app());
    server.request_drain();
    server.join();
}

#[test]
fn oversized_head_answers_413_and_closes() {
    let server = start();
    let addr = server.local_addr();

    let mut client = client(addr);
    client.send_raw(b"GET /healthz HTTP/1.1\r\n").unwrap();
    // Pour header bytes past the 16 KiB head cap without ever
    // finishing the head.
    let filler = format!("x-padding: {}\r\n", "p".repeat(250));
    for _ in 0..80 {
        if client.send_raw(filler.as_bytes()).is_err() {
            break; // the server already slammed the door — fine
        }
    }
    let response = client.recv().unwrap();
    assert_eq!(response.status, 413, "{}", response.text());

    assert_fully_live(addr, &server.app());
    server.request_drain();
    server.join();
}

#[test]
fn body_longer_than_content_length_gets_400_for_the_trailing_garbage() {
    let server = start();
    let addr = server.local_addr();

    let mut client = client(addr);
    // content-length covers only "hello"; the rest must be parsed as
    // the start of a next request, which it is not.
    client
        .send_raw(b"POST /convert HTTP/1.1\r\ncontent-length: 5\r\n\r\nhelloTRAILING GARBAGE\r\n\r\n")
        .unwrap();
    let first = client.recv().unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    let second = client.recv().unwrap();
    assert_eq!(second.status, 400, "{}", second.text());
    assert_closed(&mut client);

    assert_fully_live(addr, &server.app());
    server.request_drain();
    server.join();
}

#[test]
fn body_shorter_than_content_length_reaps_cleanly_on_disconnect() {
    let server = start();
    let addr = server.local_addr();
    let app = server.app();

    let stream = connect(addr);
    (&stream)
        .write_all(b"POST /convert HTTP/1.1\r\ncontent-length: 100\r\n\r\nonly-fifty-bytes-arrive")
        .unwrap();
    // Half-close: the server sees EOF mid-body. No response is owed;
    // the connection must be reaped without a worker ever seeing it.
    stream.shutdown(Shutdown::Write).unwrap();
    let mut tail = Vec::new();
    (&stream).read_to_end(&mut tail).unwrap();
    assert!(tail.is_empty(), "no response for a request that never completed");

    let deadline = Instant::now() + Duration::from_secs(5);
    while app.metrics.open_connections.load(Ordering::Relaxed) != 0 {
        assert!(Instant::now() < deadline, "mid-body EOF connection never reaped");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_fully_live(addr, &app);
    server.request_drain();
    server.join();
}

#[test]
fn mid_body_disconnect_never_hangs_a_worker() {
    let server = start();
    let addr = server.local_addr();
    let app = server.app();

    // A burst of abrupt disconnects at different points in the request.
    for cut in [
        &b"POST /conv"[..],
        &b"POST /convert HTTP/1.1\r\ncontent-le"[..],
        &b"POST /convert HTTP/1.1\r\ncontent-length: 40\r\n\r\n"[..],
        &b"POST /convert HTTP/1.1\r\ncontent-length: 40\r\n\r\nhalf of the bo"[..],
    ] {
        let stream = connect(addr);
        (&stream).write_all(cut).unwrap();
        drop(stream); // RST or FIN mid-request
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while app.metrics.open_connections.load(Ordering::Relaxed) != 0 {
        assert!(Instant::now() < deadline, "abandoned connections never reaped");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_fully_live(addr, &app);
    server.request_drain();
    server.join();
}
