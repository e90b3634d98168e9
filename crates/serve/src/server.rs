//! The TCP front end: a listener thread feeding a fixed worker pool.
//!
//! The shape mirrors `dlp_core::par`'s worker-pool discipline — a fixed
//! number of std threads pulling work items (here: accepted
//! connections) off a shared queue — kept deliberately simple: one
//! request per connection, `Connection: close`, a per-connection read
//! timeout so a stalled client occupies a worker for bounded time. The
//! handle's [`ServerHandle::stop`] unblocks the listener with a
//! self-connect, drains the queue, and joins every thread, so tests and
//! the CI gate can start and stop servers on ephemeral ports without
//! leaking threads.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dlp_core::par::ThreadCount;

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

/// A running server: its bound address and the threads behind it.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    listener_thread: Option<JoinHandle<()>>,
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
    /// is how the daemon parks its main thread behind the listener.
    pub fn wait(mut self) {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.service.shutdown_dump();
    }

    /// Stops accepting, drains queued connections, joins every thread,
    /// then flushes the flight recorder to the access log so slow and
    /// errored traces survive the shutdown.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The listener blocks in accept(); a throwaway connection wakes
        // it so it can observe the flag and hang up.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.service.shutdown_dump();
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

/// Binds the address and starts the listener and worker threads.
///
/// # Errors
///
/// [`ServeError::Io`] if the address cannot be bound, or the service's
/// cache directory cannot be created.
pub fn serve(config: &ServerConfig) -> Result<ServerHandle, ServeError> {
    let service = Arc::new(Service::new(&config.service)?);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..worker_count(config.service.threads))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            std::thread::spawn(move || loop {
                let next = {
                    let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
                    guard.recv()
                };
                match next {
                    Ok(stream) => handle_connection(&service, stream),
                    // Sender dropped: the listener stopped; drain done.
                    Err(_) => break,
                }
            })
        })
        .collect();

    let listener_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    // A send can only fail once every worker has exited,
                    // which only happens after this sender is dropped.
                    let _ = tx.send(stream);
                }
            }
            drop(tx);
        })
    };

    Ok(ServerHandle {
        addr,
        service,
        stop,
        listener_thread: Some(listener_thread),
        workers,
    })
}

/// At least two workers even when the simulator is pinned to one
/// thread, so a slow miss cannot starve the health and metrics
/// endpoints completely.
fn worker_count(threads: ThreadCount) -> usize {
    threads.get().max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        handle.stop();
    }
}
