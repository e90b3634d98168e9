//! The TCP front end: a fixed pool of workers, each accepting its own
//! connections.
//!
//! Every worker loops on `accept()` over its own clone of the listening
//! socket, so the kernel hands each connection straight to an idle
//! worker: no acceptor thread, no queue. The loop is kept deliberately
//! simple: one request per connection, `Connection: close`, a
//! per-connection read timeout so a stalled client occupies a worker
//! for bounded time. The handle's [`ServerHandle::stop`] sets the stop
//! flag, wakes each worker out of `accept()` with one self-connect, and
//! joins every worker, so tests and the CI gate can start and stop
//! servers on ephemeral ports without leaking threads.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::ServeError;
use crate::http;
use crate::service::{Service, ServiceConfig};

/// How long a worker waits for a slow client before giving up on the
/// connection.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Service configuration (cache directory, threads, miss budget).
    pub service: ServiceConfig,
}

/// A running server: its bound address and the workers behind it.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener (tests assert on its counters).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Blocks until the server stops. It never stops on its own — this
    /// is how the daemon parks its main thread behind the workers.
    pub fn wait(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
        self.service.shutdown_dump();
    }

    /// Stops accepting, lets each worker finish its connection, joins
    /// every worker, then flushes the flight recorder to the access log
    /// so slow and errored traces survive the shutdown.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Each worker blocks in accept(); one throwaway connection per
        // worker wakes it to observe the flag and exit.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        self.wait();
    }
}

fn handle_connection(service: &Service, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let parse_start = std::time::Instant::now();
    let response = match http::read_request(&mut reader) {
        Ok(req) => service.handle_traced(&req, Some(parse_start)),
        Err(e) => service.reject(&e),
    };
    let mut stream = reader.into_inner();
    let _ = response.write_to(&mut stream);
}

/// Binds the address and starts the workers, each accepting its own
/// connections on a clone of the listener.
///
/// # Errors
///
/// [`ServeError::Io`] if the address cannot be bound or the listener
/// cloned, or the service's cache directory cannot be created.
pub fn serve(config: &ServerConfig) -> Result<ServerHandle, ServeError> {
    let service = Arc::new(Service::new(&config.service)?);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    // At least two workers even when the simulator is pinned to one
    // thread, so a slow miss cannot starve the health and metrics
    // endpoints. Every listener is cloned before any worker starts, so
    // a failed clone leaves no worker blocked in accept().
    let listeners = (0..config.service.threads.get().max(2))
        .map(|_| listener.try_clone())
        .collect::<std::io::Result<Vec<_>>>()?;
    let workers = listeners
        .into_iter()
        .map(|listener| {
            let (service, stop) = (Arc::clone(&service), Arc::clone(&stop));
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        handle_connection(&service, stream);
                    }
                }
            })
        })
        .collect();
    Ok(ServerHandle {
        addr,
        service,
        stop,
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_core::par::ThreadCount;
    use std::io::{Read, Write};

    fn ephemeral_config(tag: &str) -> ServerConfig {
        let dir =
            std::env::temp_dir().join(format!("dlp_serve_server_{tag}_{}", std::process::id()));
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            service: ServiceConfig {
                cache_dir: dir.to_string_lossy().into_owned(),
                threads: ThreadCount::fixed(1).expect("one thread"),
                miss_budget_ms: None,
                flight_capacity: 8,
                access_log: crate::accesslog::AccessLogConfig::Off,
            },
        }
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("recv");
        response
    }

    #[test]
    fn serves_health_and_errors_over_tcp_then_stops_cleanly() {
        let handle = serve(&ephemeral_config("health")).expect("server");
        let addr = handle.addr();
        let ok = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.ends_with("{\"status\":\"ok\"}"), "{ok}");
        let missing = roundtrip(addr, "GET /v1/nope HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404 "), "{missing}");
        let malformed = roundtrip(addr, "BOGUS\r\n\r\n");
        assert!(malformed.starts_with("HTTP/1.1 400 "), "{malformed}");
        assert_eq!(
            handle.service().obs().counter_value("serve.requests"),
            Some(3)
        );
        // The workers are the only threads a server starts.
        assert_eq!(handle.workers.len(), 2, "max(2, threads) workers");
        handle.stop();
    }
}
