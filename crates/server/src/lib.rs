//! # sh-server — the network service layer
//!
//! SpatialHadoop's pipeline was only reachable through the CLI driver;
//! this crate is the front door. It serves Pigeon over a line-oriented
//! TCP protocol, one OS thread per connection, with the existing
//! [`sh_mapreduce::JobScheduler`] providing admission control — no
//! async runtime required or wanted:
//!
//! * **Sessions.** Every connection forks the server's base
//!   [`sh_pigeon::SessionCtx`] (whatever the init script bound) and owns
//!   the fork: `SET` and variable bindings are session-local, so two
//!   clients can hold conflicting `SET result_limit`s and get
//!   independent answers.
//! * **Results.** A statement's answer is one shared
//!   [`sh_mapreduce::Rows`] buffer; once the statement completes it
//!   leaves as bounded `DATA <nbytes>` frames that are slices of that
//!   buffer, and a terminator line (`OK <rows>` / `ERR <nbytes>` /
//!   `429 BUSY <retry_ms>`) closes every request.
//! * **Back-pressure.** Statements that run cluster jobs are admitted
//!   through the shared scheduler under the connection's tenant and,
//!   once admitted, run on the connection thread; `QueueFull` maps to a
//!   structured `429 BUSY` the client retries.
//! * **Disconnect safety.** While a statement is queued the connection
//!   thread waits for its admission in short slices and looks at the
//!   socket between them; a client that goes away has its still-queued
//!   statement cancelled so it cannot wedge a slot.
//!
//! The protocol is netcat-friendly by construction — see [`protocol`]
//! for the exact framing and `README.md` for a quickstart.

#![forbid(unsafe_code)]

pub mod protocol;
pub mod server;

pub use protocol::{Header, BANNER, MAX_REQUEST_BYTES, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
