//! A blocking client for the analysis daemon.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::json::Json;
use crate::protocol::{CostKind, Request, Response};
use crate::stats::StatsSnapshot;

/// A client-side failure: transport, protocol or service.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP transport failed.
    Io(std::io::Error),
    /// The peer sent something outside the protocol.
    Protocol(String),
    /// The daemon answered with an error envelope.
    Service(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport error: {err}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Service(msg) => write!(f, "service error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// The payload of an availability reply.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReply {
    /// The canonical model spec the daemon resolved.
    pub model: String,
    /// Steady-state availability.
    pub availability: f64,
    /// Solver-chain states of the cached quotient.
    pub states: usize,
    /// States of the chain the quotient was reduced from.
    pub source_states: usize,
    /// Iterative sweeps of the solve that produced the distribution; a
    /// memoised reply repeats the count of the solve it reuses.
    pub iterations: usize,
    /// Whether that solve was warm-started from a family sibling.
    pub warm_started: bool,
    /// The availability planner's tier for facility specs (`joint-solve`,
    /// `orbit-enumeration`, `product-form`); `None` for single lines.
    pub tier: Option<String>,
    /// The solver that ran (`gs-materialised`, `krylov-operator`, …), or
    /// the tier name when the planner's tier runs no joint solver.
    pub solver_tier: String,
}

/// A blocking connection to a running daemon. One request/response at a
/// time; reuse the connection for as many queries as you like.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One request/response round trip, unwrapping the envelope.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, and error envelopes.
    pub fn request(&mut self, request: &Request) -> Result<Json, ClientError> {
        writeln!(self.writer, "{}", request.to_json())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                "connection closed before a response arrived".to_string(),
            ));
        }
        match Response::parse_line(line.trim()).map_err(ClientError::Protocol)? {
            Response::Ok(payload) => Ok(payload),
            Response::Err(message) => Err(ClientError::Service(message)),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// Steady-state availability of a registry model.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn availability(&mut self, model: &str) -> Result<AvailabilityReply, ClientError> {
        let payload = self.request(&Request::Availability {
            model: model.to_string(),
        })?;
        let field = |name: &str| {
            payload
                .get(name)
                .cloned()
                .ok_or_else(|| ClientError::Protocol(format!("reply lacks `{name}`")))
        };
        Ok(AvailabilityReply {
            model: field("model")?
                .as_str()
                .ok_or_else(|| ClientError::Protocol("`model` must be a string".into()))?
                .to_string(),
            availability: field("availability")?
                .as_f64()
                .ok_or_else(|| ClientError::Protocol("`availability` must be a number".into()))?,
            states: field("states")?
                .as_usize()
                .ok_or_else(|| ClientError::Protocol("`states` must be an integer".into()))?,
            source_states: field("source_states")?.as_usize().ok_or_else(|| {
                ClientError::Protocol("`source_states` must be an integer".into())
            })?,
            iterations: field("iterations")?
                .as_usize()
                .ok_or_else(|| ClientError::Protocol("`iterations` must be an integer".into()))?,
            warm_started: field("warm_started")?
                .as_bool()
                .ok_or_else(|| ClientError::Protocol("`warm_started` must be a bool".into()))?,
            tier: payload
                .get("tier")
                .and_then(Json::as_str)
                .map(str::to_string),
            solver_tier: field("solver_tier")?
                .as_str()
                .ok_or_else(|| ClientError::Protocol("`solver_tier` must be a string".into()))?
                .to_string(),
        })
    }

    /// Survivability curve after a disaster.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn survivability(
        &mut self,
        model: &str,
        disaster: &str,
        level: f64,
        times: &[f64],
    ) -> Result<Vec<(f64, f64)>, ClientError> {
        let payload = self.request(&Request::Survivability {
            model: model.to_string(),
            disaster: disaster.to_string(),
            level,
            times: times.to_vec(),
        })?;
        Self::curve_of(&payload)
    }

    /// Instantaneous or accumulated cost curve, optionally after a disaster.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn cost(
        &mut self,
        model: &str,
        kind: CostKind,
        disaster: Option<&str>,
        times: &[f64],
    ) -> Result<Vec<(f64, f64)>, ClientError> {
        let payload = self.request(&Request::Cost {
            model: model.to_string(),
            kind,
            disaster: disaster.map(str::to_string),
            times: times.to_vec(),
        })?;
        Self::curve_of(&payload)
    }

    /// The daemon's service counters.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let payload = self.request(&Request::Stats)?;
        StatsSnapshot::from_json(&payload).map_err(ClientError::Protocol)
    }

    /// The daemon's Prometheus-style text exposition (the `metrics` op).
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; also fails on a reply without the `metrics`
    /// text field.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let payload = self.request(&Request::Metrics)?;
        payload
            .get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("reply lacks a `metrics` text field".into()))
    }

    /// Asks the daemon to stop (acknowledged before it exits).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }

    fn curve_of(payload: &Json) -> Result<Vec<(f64, f64)>, ClientError> {
        payload
            .get("curve")
            .and_then(Json::to_curve)
            .ok_or_else(|| ClientError::Protocol("reply lacks a `curve` array".into()))
    }
}
