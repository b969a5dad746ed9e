//! `mcsm-serve`: an incremental timing/simulation query server.
//!
//! A timing engine spends almost all of its life answering *small questions
//! about an unchanged circuit*: what-if ECO edits, arrival queries after a
//! drive tweak, repeated waveform fetches. Re-running the full netlist
//! simulator for each of them throws away everything the previous run
//! learned. This crate keeps a characterized
//! [`ModelLibrary`](mcsm_sta::models::ModelLibrary), a
//! [`Netlist`](mcsm_net::Netlist) and the last committed
//! [`NetsimResult`](mcsm_netsim::NetsimResult) **resident** and answers
//! JSON-RPC queries against them, three layers deep:
//!
//! * **Session** ([`Session`]) — typed request handlers (`load_netlist`,
//!   `set_drive`, `eco`, `arrival`, `slew`, `waveform`, `resim`, `stats`),
//!   each response stamped with a monotonic `seq` and per-request cache
//!   counters.
//! * **Cone-of-influence re-evaluation** — edits record which gates they
//!   invalidated; the next query re-solves only the downstream cone
//!   ([`mcsm_netsim::resimulate_netlist`]) and reuses every committed
//!   waveform outside it, bit-identical to a from-scratch run.
//! * **Waveform memoization** — whole gate solves are memoized in a
//!   [`WaveformCache`](mcsm_sta::WaveformCache) keyed by exact content
//!   hashes ([`mcsm_num::hash`]), so warm queries skip the numerical engine
//!   entirely. The memo has a fixed byte budget, enforced by rotating its
//!   generations between requests only, so a request's hits and misses do
//!   not depend on the thread count.
//!
//! Transports: newline-delimited JSON-RPC over stdin/stdout
//! ([`serve_stdio`]) or threaded TCP ([`serve_tcp`]), both serializing
//! through the [`Engine`] session lock — any concurrent client interleaving
//! is equivalent to the serial replay of the observed `seq` order.
//!
//! The serving path is hardened for long-lived operation: per-request panic
//! isolation with session rollback to the last committed result (`-32000`,
//! `recovered: true`), per-request `deadline_ms` budgets with cooperative
//! cancellation (`-32001`), a bounded request-line length (default 4 MiB),
//! and a deterministic fault-injection harness ([`mcsm_num::fault`], armed
//! via the `MCSM_FAULT_*` environment knobs) to rehearse all of it in tests
//! and CI without touching production defaults.
//!
//! # Example
//!
//! ```
//! use mcsm_serve::{Engine, Session, SessionConfig};
//! use mcsm_sta::models::ModelLibrary;
//!
//! // A session without characterized cells can still answer `stats`.
//! let engine = Engine::new(Session::new(ModelLibrary::new(1.2), SessionConfig::default()));
//! let response = engine.handle_line(r#"{"id": 1, "method": "stats", "params": {}}"#);
//! assert!(response.contains("\"result\""));
//! ```

pub mod error;
pub mod protocol;
pub mod server;
pub mod session;

pub use error::ServeError;
pub use protocol::{handle_request_line, strip_timing};
pub use server::{
    serve_stdio, serve_tcp, Engine, TcpServer, TransportOptions, DEFAULT_MAX_LINE_BYTES,
};
pub use session::{Session, SessionConfig};
