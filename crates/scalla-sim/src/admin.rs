//! Minimal admin/metrics endpoint for the live runtimes.
//!
//! One listener thread per net, speaking a line-oriented protocol: the
//! client connects, sends one request line, and gets the full response
//! followed by connection close (curl/netcat friendly — no HTTP framing):
//!
//! | request         | response                                         |
//! |-----------------|--------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition of the shared registry|
//! | `/stats`        | JSON snapshot of the same registry               |
//! | `/flight`       | flight-recorder dump (live ring + last incident) |
//! | `/cluster`      | merged cluster view (Prometheus text), when the  |
//! |                 | net hosts a monitoring collector                 |
//! | `/cluster.json` | the same merged view as JSON                     |
//!
//! Sources attached to the registry (cache stats, wire counters) are
//! read in place at every scrape, so they are current at read time.
//! Teardown follows the runtime's deterministic wake protocol: set
//! the stop flag, then a throwaway connection unblocks `accept`.

use scalla_monitor::ClusterView;
use scalla_obs::Obs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request line; anything beyond is garbage.
const MAX_REQUEST: usize = 256;

/// Per-connection I/O budget so a wedged scraper cannot pin the thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The running admin endpoint of one net.
pub(crate) struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds an ephemeral localhost port and spawns the listener thread.
    /// Also serves the merged cluster view (`/cluster`, `/cluster.json`)
    /// when a collector's view handle is provided.
    pub(crate) fn spawn_with(
        obs: Obs,
        view: Option<Arc<ClusterView>>,
    ) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new().name("scalla-admin".into()).spawn(move || {
            while !thread_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if thread_stop.load(Ordering::Relaxed) {
                            break; // the shutdown wake-up call
                        }
                        let _ = serve_conn(stream, &obs, view.as_deref());
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        })?;
        Ok(AdminServer { addr, stop, handle: Some(handle) })
    }

    /// The endpoint's socket address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread (wakes it with a throwaway connection).
    pub(crate) fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_conn(mut stream: TcpStream, obs: &Obs, view: Option<&ClusterView>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Read one request line, byte-bounded.
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if line.len() >= MAX_REQUEST {
            stream.write_all(b"ERR request line too long\n")?;
            return Ok(());
        }
        match stream.read(&mut byte)? {
            0 => break, // EOF before newline still serves what arrived
            _ if byte[0] == b'\n' => break,
            _ => line.push(byte[0]),
        }
    }
    let req = String::from_utf8_lossy(&line);
    let body = match req.trim() {
        "/metrics" => obs.registry().prometheus_text(),
        "/stats" => {
            let mut json = obs.registry().json_snapshot();
            json.push('\n');
            json
        }
        "/flight" => obs.flight().render(),
        "/cluster" => match view {
            Some(v) => v.prometheus_text(),
            None => "ERR no cluster view (net has no monitoring collector)\n".to_string(),
        },
        "/cluster.json" => match view {
            Some(v) => {
                let mut json = v.json();
                json.push('\n');
                json
            }
            None => "ERR no cluster view (net has no monitoring collector)\n".to_string(),
        },
        other => format!(
            "ERR unknown endpoint {other:?} (try /metrics, /stats, /flight, /cluster, /cluster.json)\n"
        ),
    };
    stream.write_all(body.as_bytes())
}

/// Scrapes one endpooint path (`/metrics`, `/stats`, or `/flight`) from an
/// admin server — the client side of the line protocol, shared by tests,
/// examples, and CI checks.
pub fn scrape(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(path.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalla_obs::{SpanEvent, Stage, TraceId};

    fn test_obs() -> Obs {
        let obs = Obs::with_config(1, 64);
        obs.record_stage(Stage::Resolve, 1_500);
        obs.span(SpanEvent::new(TraceId(0xF00D), 2, "cms_resolve").verdict("redirect"));
        obs
    }

    #[test]
    fn serves_all_three_endpoints() {
        let server = AdminServer::spawn_with(test_obs(), None).unwrap();
        let metrics = scrape(server.addr(), "/metrics").unwrap();
        assert!(metrics.contains("# TYPE scalla_stage_ns histogram"), "{metrics}");
        assert!(metrics.contains("scalla_stage_ns_count{stage=\"resolve\"} 1"), "{metrics}");
        let stats = scrape(server.addr(), "/stats").unwrap();
        assert!(stats.contains("\"histograms\""), "{stats}");
        let flight = scrape(server.addr(), "/flight").unwrap();
        assert!(flight.contains("trace=000000000000f00d"), "{flight}");
        assert!(flight.contains("stage=cms_resolve"), "{flight}");
        server.shutdown();
    }

    #[test]
    fn unknown_endpoint_gets_an_error_line() {
        let server = AdminServer::spawn_with(test_obs(), None).unwrap();
        let resp = scrape(server.addr(), "/nope").unwrap();
        assert!(resp.starts_with("ERR unknown endpoint"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent_via_drop() {
        let server = AdminServer::spawn_with(test_obs(), None).unwrap();
        let addr = server.addr();
        let t0 = std::time::Instant::now();
        server.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2), "wake protocol must be prompt");
        assert!(scrape(addr, "/metrics").is_err(), "endpoint must be closed");
    }

    #[test]
    fn oversized_request_is_rejected() {
        let server = AdminServer::spawn_with(test_obs(), None).unwrap();
        let mut stream = TcpStream::connect_timeout(&server.addr(), IO_TIMEOUT).unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        // The server may close after MAX_REQUEST bytes, so later writes can
        // hit a broken pipe — that is fine, the error line already shipped.
        let _ = stream.write_all("x".repeat(4 * MAX_REQUEST).as_bytes());
        let _ = stream.write_all(b"\n");
        let mut resp = String::new();
        let _ = stream.read_to_string(&mut resp);
        assert!(resp.starts_with("ERR request line too long"), "{resp}");
        server.shutdown();
    }
}
