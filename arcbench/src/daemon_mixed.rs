//! `daemon-mixed`: a closed loop of client connections over loopback to an
//! `arcade_server::server::spawn` daemon on port 0. Each client sends its
//! next request only after the reply arrives.
//!
//! The seeded request mix per client and pass: mostly repeat queries over a
//! warm working set of single-line specs (availability, survivability, both
//! costs, a small simulate); first queries of fresh rate-scaled specs
//! (cache misses with warm-start donors); one cold facility spec
//! (`ded+ded`, `frf-1+frf-1`, `ded^3`); and one request both clients send
//! at the same moment, so the daemon coalesces it.
//!
//! Correctness: after the run, the whole request sequence is replayed in
//! reply order against a fresh in-process `AnalysisService`. Every daemon
//! reply must give the replay's answer (the correctness gate; a reply that
//! does not is a failed op) and should be bit-identical to it (the
//! reproducibility gate, reported as a gate line and as
//! `server.replay_bit_mismatch_frac`).
//!
//! Known defect: a fresh rate-scaled availability is warm-started from a
//! solved sibling spec, and `QuotientCache::warm_donor` takes the first one
//! in `HashMap` iteration order, while which siblings are solved when a
//! solve starts depends on how the two clients' requests interleave. The
//! replay can therefore start from another donor and reply with the same
//! availability to within solver tolerance but other bits and iteration
//! counts. How many replies that hits varies from run to run with the
//! interleaving and the hash order, so it is reported, not counted as
//! failed ops: a run's failed-op count stays a count of wrong answers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use arcade_server::protocol::{CostKind, Request, Response, SimMeasure};
use arcade_server::{spawn, AnalysisService, Client, ClientError, QueryOp, ServerHandle};
use watertreatment::experiments::{kline_reduction_table, service_levels};
use watertreatment::facility::{DISASTER_ALL_PUMPS, DISASTER_LINE2_MIXED};
use watertreatment::ModelSpec;

use crate::harness::{median, timed, Config, Metric, OpRecord, Outcome};
use crate::layers::ratio;
use crate::rng::Rng;
use crate::trace;
use crate::workload::Workload;

pub struct DaemonMixed;

/// The warm working set.
const WARM_SPECS: [&str; 5] = [
    "line1/ded",
    "line1/frf-1",
    "line2/ded",
    "line2/frf-1",
    "line2/fff-2",
];

/// Requests per client and pass, and the position of the coalesced request.
const PER_CLIENT: usize = 30;
const COALESCE_AT: usize = 15;
/// Fresh rate-scaled single-line specs per client and pass.
const FRESH: usize = 4;

/// Cold facility specs; client `c` queries `COLD_FACILITIES[c]` each pass,
/// client 0 also the `ded^3` bank.
const COLD_FACILITIES: [&str; 2] = ["facility/ded+ded", "facility/frf-1+frf-1"];
const COLD_BANK: &str = "facility/ded^3";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A repeat query of the warm working set.
    Warm,
    /// The first query of a spec.
    Cold,
}

/// One timed request/reply exchange.
struct Exchange {
    request: Request,
    kind: Kind,
    /// The payload JSON or the error message.
    reply: Result<String, String>,
    rtt_ms: f64,
    done: Instant,
}

pub struct State {
    service: Arc<AnalysisService>,
    daemon: Option<ServerHandle>,
    clients: Vec<Client>,
    warm: Vec<Request>,
    log: Vec<Exchange>,
}

impl Drop for State {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
        }
    }
}

fn line_disaster(spec: &str) -> (&'static str, f64, Vec<f64>) {
    if spec.starts_with("line1") {
        (
            DISASTER_ALL_PUMPS,
            service_levels::LINE1_X1,
            (0..=6).map(|i| f64::from(i) * 0.75).collect(),
        )
    } else {
        (
            DISASTER_LINE2_MIXED,
            service_levels::LINE2_X1,
            (0..=8).map(|i| f64::from(i) * 12.5).collect(),
        )
    }
}

/// The five warm query kinds of one spec.
fn queries(spec: &str) -> Vec<Request> {
    let (disaster, level, times) = line_disaster(spec);
    let model = spec.to_string();
    let cost = |kind| Request::Cost {
        model: model.clone(),
        kind,
        disaster: Some(disaster.to_string()),
        times: times.clone(),
    };
    vec![
        Request::Availability {
            model: model.clone(),
        },
        Request::Survivability {
            model: model.clone(),
            disaster: disaster.to_string(),
            level,
            times: times.clone(),
        },
        cost(CostKind::Instantaneous),
        cost(CostKind::Accumulated),
        Request::Simulate {
            model: model.clone(),
            measure: SimMeasure::Unavailability,
            disaster: None,
            horizon: 100.0,
            replications: 2000,
            seed: 7,
            bias: 1.0,
            alpha: 0.95,
        },
    ]
}

fn warm_set() -> Vec<Request> {
    WARM_SPECS.iter().flat_map(|spec| queries(spec)).collect()
}

/// The request list of client `client` in pass `pass`: structure fixed,
/// rate scales and warm picks from the seed.
fn plan(seed: u64, pass: usize, client: usize) -> Vec<(Request, Kind)> {
    let warm = warm_set();
    let mut rng = Rng::stream(seed ^ ((pass as u64) << 8) ^ client as u64, "daemon-mixed");
    let mut items: Vec<(Request, Kind)> = Vec::new();
    for i in 0..FRESH {
        let family = WARM_SPECS[(client * FRESH + i) % WARM_SPECS.len()];
        items.push((
            Request::Availability {
                model: format!("{family}@{}", rng.rate_scale()),
            },
            Kind::Cold,
        ));
    }
    let facility = |base: &str, rng: &mut Rng| Request::Availability {
        model: format!("{base}@{}", rng.rate_scale()),
    };
    items.push((facility(COLD_FACILITIES[client % 2], &mut rng), Kind::Cold));
    if client == 0 {
        items.push((facility(COLD_BANK, &mut rng), Kind::Cold));
    }
    while items.len() < PER_CLIENT - 1 {
        let pick = (rng.next_u64() % warm.len() as u64) as usize;
        items.push((warm[pick].clone(), Kind::Warm));
    }
    // Seeded shuffle, then the coalesced request at its fixed position.
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    let mut shared = Rng::stream(seed ^ ((pass as u64) << 8), "daemon-mixed/coalesce");
    let (disaster, level, times) = line_disaster("line2");
    let coalesced = Request::Survivability {
        model: format!("line2/frf-2@{}", shared.rate_scale()),
        disaster: disaster.to_string(),
        level,
        times,
    };
    items.insert(COALESCE_AT, (coalesced, Kind::Cold));
    items
}

fn reply_of(result: Result<arcade_server::Json, ClientError>) -> Result<String, String> {
    match result {
        Ok(payload) => Ok(payload.to_string()),
        Err(ClientError::Service(message)) => Err(message),
        Err(other) => Err(format!("transport: {other}")),
    }
}

fn replay_reply(response: Response) -> Result<String, String> {
    match response {
        Response::Ok(payload) => Ok(payload.to_string()),
        Response::Err(message) => Err(message),
    }
}

/// Largest relative difference a reply may have from the replay's and
/// still give the same answer: well above the Gauss–Seidel stopping
/// tolerance (10⁻¹⁰ change per sweep), far below any reported digit.
const AGREEMENT: f64 = 1e-8;

/// Fields that report how a solve ran, not what it answered; they depend on
/// the warm-start donor.
const SOLVE_BOOKKEEPING: [&str; 2] = ["iterations", "warm_started"];

/// The largest relative difference between the numbers of two replies that
/// agree in everything else, ignoring [`SOLVE_BOOKKEEPING`]; `None` if they
/// differ otherwise.
fn answer_deviation(a: &Result<String, String>, b: &Result<String, String>) -> Option<f64> {
    use arcade_server::Json;
    fn walk(a: &Json, b: &Json) -> Option<f64> {
        match (a, b) {
            (Json::Number(x), Json::Number(y)) => {
                Some((x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE))
            }
            (Json::Array(xs), Json::Array(ys)) if xs.len() == ys.len() => xs
                .iter()
                .zip(ys)
                .try_fold(0.0f64, |worst, (x, y)| Some(worst.max(walk(x, y)?))),
            (Json::Object(xs), Json::Object(ys)) if xs.len() == ys.len() => xs
                .iter()
                .zip(ys)
                .try_fold(0.0f64, |worst, ((kx, x), (ky, y))| {
                    if kx != ky {
                        None
                    } else if SOLVE_BOOKKEEPING.contains(&kx.as_str()) {
                        Some(worst)
                    } else {
                        Some(worst.max(walk(x, y)?))
                    }
                }),
            _ => (a == b).then_some(0.0),
        }
    }
    match (a, b) {
        (Ok(a), Ok(b)) => walk(&Json::parse(a).ok()?, &Json::parse(b).ok()?),
        (Err(a), Err(b)) => (a == b).then_some(0.0),
        _ => None,
    }
}

/// One client's closed loop over its request list; `first_op` numbers its
/// ops.
fn client_loop(
    first_op: usize,
    client: &mut Client,
    items: Vec<(Request, Kind)>,
    barrier: &Barrier,
) -> Vec<Exchange> {
    let _root = trace::span("bench.client");
    items
        .into_iter()
        .enumerate()
        .map(|(i, (request, kind))| {
            if i == COALESCE_AT {
                barrier.wait();
            }
            let _op = trace::op_span((first_op + i) as u64 + 1);
            let (reply, rtt_ms) = timed(|| {
                let _span = trace::span("server.roundtrip");
                reply_of(client.request(&request))
            });
            Exchange {
                request,
                kind,
                reply,
                rtt_ms,
                done: Instant::now(),
            }
        })
        .collect()
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// Ping round trips: through `Client` (request written as payload plus a
/// separate newline), and raw with one write on a `TCP_NODELAY` socket,
/// timing the first reply byte and the full reply line. Returns
/// (client ms, raw first byte ms, raw line ms), medians of 20.
fn transport_probe(daemon: &ServerHandle) -> Result<(f64, f64, f64), String> {
    let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
    let mut pings = Vec::new();
    for _ in 0..20 {
        let (result, ms) = timed(|| client.ping());
        result.map_err(|e| e.to_string())?;
        pings.push(ms);
    }
    let stream = TcpStream::connect(daemon.addr()).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut writer = stream.try_clone().map_err(io)?;
    let mut reader = BufReader::new(stream);
    let line = format!("{}\n", Request::Ping.to_json());
    let (mut first, mut full) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        let t0 = Instant::now();
        writer.write_all(line.as_bytes()).map_err(io)?;
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte).map_err(io)?;
        first.push(t0.elapsed().as_secs_f64() * 1e3);
        let mut rest = String::new();
        reader.read_line(&mut rest).map_err(io)?;
        full.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&pings), median(&first), median(&full)))
}

/// Reads the raw probe: the daemon writes a reply as the payload, then the
/// newline. If the newline arrives a delayed-ACK timeout (Linux: ≥ 40 ms)
/// after the payload, Nagle's algorithm held it until the client's ACK.
fn transport_verdict(first_byte_ms: f64, line_ms: f64) -> String {
    let gap = line_ms - first_byte_ms;
    if gap >= 20.0 {
        format!(
            "one-write NODELAY ping: the reply line ends {gap:.1} ms after its first byte, \
             so Nagle + delayed ACK on the daemon's two-write reply is confirmed"
        )
    } else {
        format!(
            "one-write NODELAY ping: the reply line ends {gap:.3} ms after its first byte, \
             so no Nagle stall on the daemon's reply"
        )
    }
}

/// Cold `facility/ded^3` availability through a fresh daemon, and the k-line
/// reduction row of the same spec in-process (ms each).
fn planner_gap(cfg: &Config) -> Result<(f64, f64), String> {
    let service = Arc::new(AnalysisService::new(cfg.exec()));
    let daemon = spawn("127.0.0.1:0", Arc::clone(&service)).map_err(io)?;
    let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
    let (reply, daemon_ms) = timed(|| client.availability(COLD_BANK));
    reply.map_err(|e| e.to_string())?;
    drop(client);
    daemon.shutdown();
    let spec = ModelSpec::parse(COLD_BANK).map_err(|e| e.to_string())?;
    let (rows, kline_ms) = timed(|| kline_reduction_table(&[spec], cfg.exec()));
    rows.map_err(|e| e.to_string())?;
    Ok((daemon_ms, kline_ms))
}

impl Workload for DaemonMixed {
    type State = State;

    const NAME: &'static str = "daemon-mixed";
    const NOMINAL_PASS_S: f64 = 4.0;
    const WHY: &'static str = "client round trips take 96-99% of a traced pass, nearly all \
        of it the ~88 ms loopback wait for replies the service handles in microseconds; the \
        rest of the daemon's work is cold compiles and Gauss-Seidel solves, with cache \
        reads and inserts side by side";

    fn setup(&self, cfg: &Config) -> Result<State, String> {
        let service = Arc::new(AnalysisService::new(cfg.exec()));
        let daemon = spawn("127.0.0.1:0", Arc::clone(&service)).map_err(io)?;
        let connections = cfg.nproc.clamp(1, 2);
        let clients = (0..connections)
            .map(|_| Client::connect(daemon.addr()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let state = State {
            service,
            daemon: Some(daemon),
            clients,
            warm: warm_set(),
            log: Vec::new(),
        };
        // Warm the daemon's service directly: the working set's compiles and
        // solves are set-up, its round trips are not.
        for request in &state.warm {
            if let Response::Err(e) = state.service.handle(request) {
                return Err(format!(
                    "warming the daemon with {}: {e}",
                    request.to_json()
                ));
            }
        }
        Ok(state)
    }

    fn pass(&self, cfg: &Config, state: &mut State, index: usize, out: &mut Outcome) {
        let connections = state.clients.len();
        let barrier = &Barrier::new(connections);
        let first_op = move |client: usize| (index * connections + client) * PER_CLIENT;
        let plans: Vec<_> = (0..connections).map(|c| plan(cfg.seed, index, c)).collect();
        let (first, rest) = state
            .clients
            .split_first_mut()
            .expect("at least one client");
        let mut plans = plans.into_iter();
        let first_plan = plans.next().expect("a plan per client");
        let exchanges = std::thread::scope(|scope| {
            // Client 0 runs on this thread, the others on their own.
            let others: Vec<_> = rest
                .iter_mut()
                .zip(plans)
                .enumerate()
                .map(|(i, (client, items))| {
                    scope.spawn(move || client_loop(first_op(i + 1), client, items, barrier))
                })
                .collect();
            let mut all = client_loop(first_op(0), first, first_plan, barrier);
            for other in others {
                all.extend(other.join().expect("client thread panicked"));
            }
            all
        });
        for exchange in &exchanges {
            out.ops.push(OpRecord {
                latency_ms: exchange.rtt_ms,
                failed: exchange
                    .reply
                    .as_ref()
                    .is_err_and(|e| e.starts_with("transport")),
            });
        }
        state.log.extend(exchanges);
    }

    fn finish(&self, cfg: &Config, state: &mut State, out: &mut Outcome) {
        // Replay in reply order against a fresh service warmed the same way.
        let replay = AnalysisService::new(cfg.exec());
        // Simulate handle times (µs), warm-up included, as in the daemon's
        // own latency histogram.
        let mut simulate_us = Vec::new();
        let mut note_simulate = |request: &Request, ms: f64| {
            if matches!(request, Request::Simulate { .. }) {
                simulate_us.push(ms * 1e3);
            }
        };
        for request in &state.warm {
            let (_, ms) = timed(|| replay.handle(request));
            note_simulate(request, ms);
        }
        let mut order: Vec<usize> = (0..state.log.len()).collect();
        order.sort_by_key(|&i| state.log[i].done);
        let mut handle_ms = vec![0.0; state.log.len()];
        let (mut wrong, mut differ) = (Vec::new(), Vec::new());
        let mut deviation: f64 = 0.0;
        for &i in &order {
            let exchange = &state.log[i];
            let (response, ms) = timed(|| replay.handle(&exchange.request));
            handle_ms[i] = ms;
            note_simulate(&exchange.request, ms);
            let expected = replay_reply(response);
            if expected == exchange.reply {
                continue;
            }
            differ.push(i);
            match answer_deviation(&exchange.reply, &expected) {
                Some(d) if d <= AGREEMENT => deviation = deviation.max(d),
                _ => wrong.push(i),
            }
        }
        // `out.ops` ends with this run's exchanges, in log order.
        let offset = out.ops.len() - state.log.len();
        for &i in &wrong {
            out.ops[offset + i].failed = true;
        }
        let first = |list: &[usize]| {
            list.first().map_or(String::new(), |&i| {
                let e = &state.log[i];
                format!(
                    "; first: {} → daemon {:?}",
                    e.request.to_json(),
                    e.reply
                        .as_ref()
                        .map_or_else(|m| m.clone(), |r| r.chars().take(160).collect())
                )
            })
        };
        out.gate(
            "replay-same-answers",
            wrong.is_empty(),
            format!(
                "{} of {} daemon replies give another answer than the in-process replay \
                 (numbers beyond {AGREEMENT:e} relative, other fields, or errors){}",
                wrong.len(),
                state.log.len(),
                first(&wrong)
            ),
        );
        out.reproducibility_gate(
            "replay-bit-identical",
            differ.is_empty(),
            format!(
                "{} of {} daemon replies differ from the in-process replay, by at most \
                 {deviation:e} relative in their answers (warm-start donor defect){}",
                differ.len(),
                state.log.len(),
                first(&differ)
            ),
        );
        let mismatch = Metric::new(
            "server.replay_bit_mismatch_frac",
            ratio(differ.len() as f64, state.log.len() as f64),
            "ratio",
        )
        .note(format!(
            "{} of {} daemon replies not bit-identical to the replay → none: \
             reproducibility of the warm-start donor choice",
            differ.len(),
            state.log.len()
        ));
        if !cfg.trace {
            out.extra.push(mismatch.clone());
        }
        let cold: Vec<f64> = state
            .log
            .iter()
            .filter(|e| e.kind == Kind::Cold)
            .map(|e| e.rtt_ms)
            .collect();
        out.extra.push(
            Metric::new("cold_op_p50_ms", median(&cold), "ms")
                .note(format!("first query of a spec, {} ops", cold.len())),
        );
        if !cfg.trace {
            return;
        }

        // Per-layer figures of the serving path.
        let warm_idx: Vec<usize> = (0..state.log.len())
            .filter(|&i| state.log[i].kind == Kind::Warm)
            .collect();
        let transport: Vec<f64> = warm_idx
            .iter()
            .map(|&i| state.log[i].rtt_ms - handle_ms[i])
            .collect();
        let mut codec_us = Vec::new();
        for exchange in &state.log {
            let response = match &exchange.reply {
                Ok(payload) => Response::Ok(
                    arcade_server::Json::parse(payload).unwrap_or(arcade_server::Json::Null),
                ),
                Err(message) => Response::Err(message.clone()),
            };
            let (_, ms) = timed(|| {
                let line = exchange.request.to_json().to_string();
                let parsed = Request::parse_line(&line);
                let reply = response.to_json().to_string();
                (parsed, Response::parse_line(&reply))
            });
            codec_us.push(ms * 1e3);
        }
        let snapshot = state.service.stats();
        let hist_p50 = snapshot.latency_of(QueryOp::Simulate).p50().unwrap_or(0) as f64;
        let lookups = (snapshot.cache_hits + snapshot.cache_misses) as f64;
        let mut layers = vec![
            Metric::new("server.handle_ms", median(&handle_ms), "ms")
                .note("AnalysisService::handle on the in-process replay, median → op_p50_ms and cold_op_p50_ms on daemon-mixed"),
            Metric::new("server.codec_us", median(&codec_us), "us")
                .note("request and reply encode + parse, median → op_p50_ms on daemon-mixed"),
            Metric::new("server.transport_ms", median(&transport), "ms").note(
                "client round trip − replay handle time, warm requests, median → op_p50_ms and ops_per_s on daemon-mixed",
            ),
            Metric::new("server.cache_hit_ratio", ratio(snapshot.cache_hits as f64, lookups), "ratio")
                .note("→ cold_op_p50_ms and ops_per_s on daemon-mixed"),
            Metric::new(
                "server.warm_solve_ratio",
                ratio(snapshot.warm_solves as f64, snapshot.stationary_solves as f64),
                "ratio",
            )
            .note("→ cold_op_p50_ms on daemon-mixed"),
            Metric::new("server.coalesced", snapshot.coalesced_queries as f64, "count")
                .note("→ ops_per_s on daemon-mixed"),
            Metric::new("server.evictions", snapshot.evictions as f64, "count")
                .note("unbounded cache → cold_op_p50_ms on daemon-mixed"),
            Metric::new(
                "server.hist_p50_ratio",
                ratio(hist_p50, median(&simulate_us)),
                "ratio",
            )
            .note("daemon simulate p50 (power-of-two buckets) ÷ measured handle p50 of the same queries"),
            mismatch,
        ];
        match state.daemon.as_ref().map(transport_probe) {
            Some(Ok((ping, first_byte, line))) => layers.extend([
                Metric::new("server.ping_ms", ping, "ms")
                    .note("Client::ping round trip, median of 20"),
                Metric::new("server.raw_first_byte_ms", first_byte, "ms")
                    .note("one-write NODELAY ping: first reply byte"),
                Metric::new("server.raw_line_ms", line, "ms")
                    .note(transport_verdict(first_byte, line)),
            ]),
            Some(Err(e)) => out.gate("transport-probe", false, e),
            None => {}
        }
        match planner_gap(cfg) {
            Ok((daemon_ms, kline_ms)) => layers.extend([
                Metric::new("server.cold_ded3_ms", daemon_ms, "ms")
                    .note("cold facility/ded^3 availability through a fresh daemon"),
                Metric::new("core.kline_ded3_ms", kline_ms, "ms")
                    .note("experiments::kline_reduction_table on facility/ded^3 in-process"),
            ]),
            Err(e) => out.gate("planner-gap-probe", false, e),
        }
        out.layers.extend(layers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_agree_up_to_solver_bookkeeping() {
        let reply = |a: f64, iterations: u32| {
            Ok(format!(
                r#"{{"model":"line2/ded@0.9","availability":{a},"iterations":{iterations},"warm_started":true,"curve":[[0,1],[1,{a}]]}}"#
            ))
        };
        let same = reply(0.8344011871281499, 22);
        assert_eq!(answer_deviation(&same, &same), Some(0.0));
        let other_donor = reply(0.8344011871281577, 19);
        let d = answer_deviation(&same, &other_donor).unwrap();
        assert!(d > 0.0 && d <= AGREEMENT);
        let wrong = reply(0.8345, 22);
        assert!(answer_deviation(&same, &wrong).unwrap() > AGREEMENT);
        let renamed = Ok(same.clone().unwrap().replace("line2/ded@0.9", "line2/ded"));
        assert_eq!(answer_deviation(&same, &renamed), None);
        assert_eq!(
            answer_deviation(&same, &Err("transport: reset".to_string())),
            None
        );
    }

    #[test]
    fn seed_changes_requests_but_not_the_mix() {
        let kinds = |items: &[(Request, Kind)]| {
            items
                .iter()
                .map(|(_, k)| *k)
                .filter(|k| *k == Kind::Cold)
                .count()
        };
        for client in 0..2 {
            let (a, b) = (plan(1, 0, client), plan(2, 0, client));
            assert_eq!((a.len(), b.len()), (PER_CLIENT, PER_CLIENT));
            assert_eq!(kinds(&a), kinds(&b));
            assert_ne!(a, b);
        }
        // Both clients send the same coalesced request at the same index.
        assert_eq!(plan(3, 1, 0)[COALESCE_AT].0, plan(3, 1, 1)[COALESCE_AT].0);
        assert_ne!(plan(3, 1, 0)[COALESCE_AT].0, plan(4, 1, 0)[COALESCE_AT].0);
    }
}
