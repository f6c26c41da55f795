//! One session over HTTP: create (first page), stream to a fixed depth
//! (NDJSON), delete. Checks status codes and stream framing as it goes;
//! tuple order is checked later against the oracle.

use std::net::SocketAddr;
use std::time::Instant;

use qr2_http::{parse_json, Json};

use crate::client::{send, Reply};
use crate::workload::STREAM_LIMIT;

/// What one session produced, as the client saw it.
#[derive(Default)]
pub struct Outcome {
    /// Index of the request in its phase (the spec is regenerated from it).
    pub index: u64,
    /// Tuple ids in the order received: first page, then stream.
    pub ids: Vec<u32>,
    /// First failure: non-2xx status, malformed body or stream, or (after
    /// the answer check) a wrong answer.
    pub error: Option<String>,
    /// Client wall time per route (create, stream, delete), µs.
    pub wall_us: [f64; 3],
    /// `connect()` time per route, µs.
    pub connect_us: [f64; 3],
    /// Whole session, create through the DELETE 204, µs.
    pub session_us: f64,
    /// When the session ended, seconds from the start of its window.
    pub done_s: f64,
    /// Response bytes received, all three calls.
    pub resp_bytes: usize,
    /// NDJSON lines received (tuples and summary).
    pub lines: usize,
    /// The summary line's cumulative session stats.
    pub rounds: f64,
    pub parallel_fraction: f64,
    pub recon_hits: f64,
    /// Request ids, when the session was traced.
    pub request_ids: Option<[String; 3]>,
}

fn expect_status(reply: &Reply, want: u16, what: &str) -> Result<(), String> {
    if reply.status == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: status {} ({})",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ))
    }
}

fn tuple_id(tuple: &Json) -> Result<u32, String> {
    tuple
        .get("id")
        .and_then(Json::as_usize)
        .and_then(|id| u32::try_from(id).ok())
        .ok_or_else(|| "tuple without an id".to_string())
}

/// Run one session. `trace` names the requests (`x-request-id`) so the
/// server traces each of them in full.
pub fn run(addr: SocketAddr, source: &str, body: &str, index: u64, trace: Option<&str>) -> Outcome {
    let mut out = Outcome {
        index,
        request_ids: trace.map(|t| ["create", "stream", "delete"].map(|r| format!("{t}-{r}"))),
        ..Outcome::default()
    };
    let start = Instant::now();
    if let Err(e) = drive(addr, source, body, &mut out) {
        out.error = Some(e);
    }
    out.session_us = start.elapsed().as_secs_f64() * 1e6;
    out
}

fn drive(addr: SocketAddr, source: &str, body: &str, out: &mut Outcome) -> Result<(), String> {
    let rid = |i: usize| out.request_ids.as_ref().map(|ids| ids[i].clone());
    let (create_id, stream_id, delete_id) = (rid(0), rid(1), rid(2));
    let record = |out: &mut Outcome, i: usize, r: &Reply| {
        out.wall_us[i] = r.wall_us;
        out.connect_us[i] = r.connect_us;
        out.resp_bytes += r.wire_bytes;
    };

    let created = send(
        addr,
        "POST",
        &format!("/v1/sources/{source}/queries"),
        Some(body),
        create_id.as_deref(),
    )?;
    record(out, 0, &created);
    expect_status(&created, 201, "create")?;
    let page = parse_json(created.body_str()?).map_err(|e| format!("create body: {e:?}"))?;
    let query_id = page
        .get("query_id")
        .and_then(Json::as_str)
        .ok_or("create body has no query_id")?
        .to_string();
    for t in page
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("create body has no results")?
    {
        out.ids.push(tuple_id(t)?);
    }

    let streamed = send(
        addr,
        "GET",
        &format!("/v1/queries/{query_id}/stream?limit={STREAM_LIMIT}"),
        None,
        stream_id.as_deref(),
    )?;
    record(out, 1, &streamed);
    expect_status(&streamed, 200, "stream")?;
    let text = streamed.body_str()?;
    let mut tuples = 0usize;
    let mut summary: Option<Json> = None;
    for line in text.lines() {
        out.lines += 1;
        if summary.is_some() {
            return Err("stream has lines after its summary".into());
        }
        let ev = parse_json(line).map_err(|e| format!("stream line: {e:?}"))?;
        match ev.get("event").and_then(Json::as_str) {
            Some("tuple") => {
                if ev.get("index").and_then(Json::as_usize) != Some(tuples) {
                    return Err(format!("stream tuple {tuples} has the wrong index"));
                }
                out.ids.push(tuple_id(
                    ev.get("tuple").ok_or("tuple event without tuple")?,
                )?);
                tuples += 1;
            }
            Some("summary") => summary = Some(ev),
            other => return Err(format!("unknown stream event {other:?}")),
        }
    }
    let summary = summary.ok_or("stream has no summary line")?;
    if summary.get("count").and_then(Json::as_usize) != Some(tuples) {
        return Err(format!("summary count != {tuples} tuple lines"));
    }
    match summary.get("status").and_then(Json::as_str) {
        Some("complete") | Some("done") => {}
        other => return Err(format!("stream ended with status {other:?}")),
    }
    let stats = summary.get("stats").ok_or("summary has no stats")?;
    let stat = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    out.rounds = stat("rounds");
    out.parallel_fraction = stat("parallel_fraction");
    out.recon_hits = stat("recon_hits");

    let deleted = send(
        addr,
        "DELETE",
        &format!("/v1/queries/{query_id}"),
        None,
        delete_id.as_deref(),
    )?;
    record(out, 2, &deleted);
    expect_status(&deleted, 204, "delete")?;
    Ok(())
}
