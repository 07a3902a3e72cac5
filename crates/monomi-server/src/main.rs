#![forbid(unsafe_code)]
//! Standalone MONOMI server binary.
//!
//! Knobs, read here from the environment and printed on the start line (a
//! malformed value logs a warning and the default is used):
//! * `MONOMI_LISTEN` — listen address, default `127.0.0.1:7433`;
//! * `MONOMI_MAX_CONNS` — concurrent-connection limit, default 64;
//! * `MONOMI_METRICS_DUMP` — where to write the Prometheus-text metrics dump
//!   on graceful shutdown (unset: no dump);
//! * `MONOMI_SLOW_QUERY_MS` — queries at or over this many milliseconds log
//!   one JSON line (trace id, latency, rows; never SQL) to stderr.
//!
//! The engine reads `MONOMI_STORAGE`, `MONOMI_THREADS` and `MONOMI_INDEXES`.
//! `monomi-server metrics <addr>` prints a running server's metrics dump.

use monomi_proto::{read_response, write_request, Request, Response, WIRE_VERSION};
use monomi_server::{Server, ServerOptions, DEFAULT_LISTEN, DEFAULT_MAX_CONNS};
use monomi_store::env_knob;
use std::path::PathBuf;

/// `MONOMI_LISTEN`, or [`DEFAULT_LISTEN`].
fn listen_addr() -> String {
    std::env::var("MONOMI_LISTEN").unwrap_or_else(|_| DEFAULT_LISTEN.to_string())
}

/// The server's options from `MONOMI_MAX_CONNS`, `MONOMI_SLOW_QUERY_MS` and
/// `MONOMI_METRICS_DUMP`.
fn options_from_env() -> ServerOptions {
    let var = |name| std::env::var(name).ok();
    let slow_query_ms = var("MONOMI_SLOW_QUERY_MS").and_then(|raw| {
        let bad = || eprintln!("monomi-server: ignoring malformed MONOMI_SLOW_QUERY_MS={raw:?}");
        raw.parse().map_err(|_| bad()).ok()
    });
    ServerOptions {
        max_conns: env_knob("MONOMI_MAX_CONNS", DEFAULT_MAX_CONNS, |&n| n >= 1),
        metrics_dump: var("MONOMI_METRICS_DUMP")
            .filter(|p| !p.is_empty())
            .map(PathBuf::from),
        slow_query_ms,
    }
}

/// Fetches the live Prometheus dump from the server at `addr` over the wire:
/// version handshake, then one `Metrics` round trip.
fn fetch_metrics(addr: &str) -> Result<String, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    // An arbitrary fixed client id: the scrape session owns no tables and
    // replays nothing, it only reads the registry.
    let hello = Request::Hello {
        version: WIRE_VERSION,
        client_id: 0x4d_4554_5249_4353, // "METRICS"
    };
    write_request(&mut stream, &hello).map_err(|e| format!("handshake send failed: {e}"))?;
    match read_response(&mut stream) {
        Ok((Response::Hello { version }, _)) if version == WIRE_VERSION => {}
        other => return Err(format!("handshake failed: {other:?}")),
    }
    write_request(&mut stream, &Request::Metrics)
        .map_err(|e| format!("metrics request failed: {e}"))?;
    match read_response(&mut stream) {
        Ok((Response::Metrics { text }, _)) => Ok(text),
        other => Err(format!("unexpected metrics response: {other:?}")),
    }
}

/// Logs `msg` and exits with status 1.
fn die(msg: String) -> ! {
    eprintln!("monomi-server: {msg}");
    std::process::exit(1)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("metrics") {
        let addr = argv.get(2).cloned().unwrap_or_else(listen_addr);
        let text = fetch_metrics(&addr).unwrap_or_else(|e| die(format!("metrics: {e}")));
        print!("{text}");
        return;
    }

    let addr = listen_addr();
    let opts = options_from_env();
    let resolved = format!("{opts:?}");
    let server =
        Server::bind(&addr, opts).unwrap_or_else(|e| die(format!("cannot bind {addr}: {e}")));
    let bound = server.local_addr().map_or(addr, |a| a.to_string());
    println!("monomi-server listening on {bound} ({resolved})");
    server.run();
}
