//! The stage ledger: a workload's own input driven through each stage of
//! its path in isolation, with materialized intermediates, so that every
//! layer has a time and the layers can be summed against the end-to-end
//! figure.
//!
//! Every stage is timed from outside, around calls into the layer's
//! public functions, and recorded as a `ledger.<stage>` span. Engine-side
//! stages (`sig`, `core`, `analysis`) run on every workload; transport
//! stages (`trace`, `types`, `queue`, `server`) only on the workloads
//! whose path crosses them, and read 0 elsewhere. A stage that contains a
//! shorter one (the engine's frame handler contains the session feed,
//! which contains Algorithm 1, which contains the signature probe) has as
//! *self time* its own time minus the contained stage's.

use crate::metrics::{per_layer_zeroes, Values};
use crate::spans::{self_times_ns, Recorder, Span};
use crate::stats;
use crate::sys::thread_cpu_ns;
use crate::workloads::{parallel_workers, Input, Kind, Prepared};
use depprof::analysis::incremental::full_delta;
use depprof::analysis::{compare, posthoc_report, OnlineAnalysis};
use depprof::core::{report, AlgoOptions, AlgoState, DepStore, ProfileResult, SequentialProfiler};
use depprof::queue::{spsc_ring, Chunk, ChunkPool};
use depprof::server::{PushOptions, SessionEngine};
use depprof::sig::{AccessStore, ExtendedSlot, SigEntry, Signature};
use depprof::trace::{FrameChunker, Interp, NullTracer, TraceReader};
use depprof::types::protocol::{self, Frame, Hello, MAX_FRAME_BYTES};
use depprof::types::{TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Sums over all inputs of a workload.
#[derive(Default)]
struct Totals {
    events: u64,
    accesses: u64,
    frames: u64,
    wire_bytes: u64,
    trace_bytes: u64,
    stage_ns: BTreeMap<&'static str, u64>,
    evictions: u64,
    occupied_slots: u64,
    total_slots: u64,
    est_fpr_pct: f64,
    baseline_deps: usize,
    profiled_deps: usize,
    false_positives: usize,
    false_negatives: usize,
    sig_bytes: u64,
    mem_total_bytes: u64,
    deps_built: u64,
    deps_merged: u64,
    report_bytes: u64,
    analysis_bytes: u64,
    checkpoint_bytes: u64,
    stall_ns: u64,
}

impl Totals {
    fn ns(&self, stage: &str) -> f64 {
        self.stage_ns.get(stage).copied().unwrap_or(0) as f64
    }

    fn per_event(&self, stage: &str) -> f64 {
        self.ns(stage) / self.events as f64
    }

    fn ms(&self, stage: &str) -> f64 {
        self.ns(stage) / 1e6
    }

    /// Self time of every stage measured: the stages as a span tree in
    /// which each contained stage is its container's child.
    fn self_ns(&self) -> BTreeMap<&'static str, f64> {
        let names: Vec<&'static str> = self.stage_ns.keys().copied().collect();
        let spans: Vec<Span> = names
            .iter()
            .map(|&name| Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: self.stage_ns[name],
                parent: CONTAINS
                    .iter()
                    .find(|(_, inner)| *inner == name)
                    .and_then(|(outer, _)| names.iter().position(|n| n == outer)),
            })
            .collect();
        names.into_iter().zip(self_times_ns(&spans).into_iter().map(|ns| ns as f64)).collect()
    }
}

/// `(stage, the shorter stage it contains)`: the frame handler feeds the
/// session, which runs Algorithm 1, which probes the signatures.
const CONTAINS: [(&str, &str); 3] =
    [("engine_handle", "session_feed"), ("session_feed", "algo"), ("algo", "probe")];

/// Times `f` as the span `ledger.<stage>` and adds it to the stage's total.
fn timed<T>(
    rec: &mut Recorder,
    totals: &mut Totals,
    stage: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let id = rec.open(&format!("ledger.{stage}"));
    let out = f();
    *totals.stage_ns.entry(stage).or_insert(0) += rec.close(id);
    out
}

/// A tracer that is enabled and does nothing with what it is given: the
/// interpreter pays for building every event, and nothing else runs.
struct Discard(u64);

impl Tracer for Discard {
    fn event(&mut self, ev: TraceEvent) {
        self.0 += 1;
        black_box(&ev);
    }
}

/// Engine-side stages over one input's events.
fn engine_stages(rec: &mut Recorder, t: &mut Totals, input: &Input, events: &[TraceEvent]) {
    let slots = input.slots;
    let interner = input.interner();
    let spec = input.serial_spec();

    // The bare store traffic of Algorithm 1: for a write, look up both
    // signatures and record the write; for a read, look up the write
    // signature and record the read.
    let accesses: Vec<(u64, bool)> =
        events.iter().filter_map(|e| e.as_access()).map(|a| (a.addr, a.kind.is_write())).collect();
    timed(rec, t, "probe", || {
        let mut reads = Signature::<ExtendedSlot>::new(slots);
        let mut writes = Signature::<ExtendedSlot>::new(slots);
        let entry = SigEntry::new(depprof::types::loc::loc(1, 1), 0, 1);
        for &(addr, is_write) in &accesses {
            if is_write {
                if black_box(writes.get(addr)).is_some() {
                    black_box(reads.get(addr));
                }
                writes.put(addr, entry);
            } else {
                black_box(writes.get(addr));
                reads.put(addr, entry);
            }
        }
        black_box(reads.occupied() + writes.occupied());
    });

    let gauges = timed(rec, t, "algo", || {
        let new = Signature::<ExtendedSlot>::new;
        let mut algo = AlgoState::new(new(slots), new(slots), AlgoOptions::default());
        for ev in events {
            algo.on_event(ev);
        }
        let gauges: depprof::core::SigGauges = algo.sig_gauges();
        black_box(algo.counters());
        gauges
    });
    t.evictions += gauges.evictions;
    t.occupied_slots += gauges.occupied_slots;
    t.total_slots += gauges.total_slots;
    t.est_fpr_pct = t.est_fpr_pct.max(gauges.est_fpr_pct);

    let mut perfect = SequentialProfiler::perfect();
    timed(rec, t, "algo_perfect", || {
        for ev in events {
            perfect.on_event(ev);
        }
    });
    let baseline = perfect.finish();

    let mut session = timed(rec, t, "session_feed", || {
        let mut session = spec.build();
        for ev in events {
            session.on_event(*ev);
        }
        session
    });
    t.checkpoint_bytes += timed(rec, t, "checkpoint", || {
        let data = session
            .checkpoint_data(1, events.len() as u64, spec.encode())
            .expect("signature engines checkpoint");
        data.encode().len() as u64
    });
    let result = timed(rec, t, "finish", || session.finish());
    let accuracy = compare(&baseline, &result);
    t.baseline_deps += accuracy.baseline;
    t.profiled_deps += accuracy.profiled;
    t.false_positives += accuracy.false_positives;
    t.false_negatives += accuracy.false_negatives;
    t.sig_bytes += result.memory.signatures as u64;
    t.mem_total_bytes += result.memory.total() as u64;
    t.deps_built += result.stats.deps_built;
    t.deps_merged += result.stats.deps_merged;

    t.report_bytes +=
        timed(rec, t, "render", || report::render(&result, &interner, false).len() as u64);
    t.analysis_bytes += timed(rec, t, "posthoc", || {
        posthoc_report(&result).to_json(&interner, true, true, true).len() as u64
    });
    timed(rec, t, "online_fold", || {
        let mut online = OnlineAnalysis::new();
        online.fold(&full_delta(&result));
        black_box(online.report().to_json(&interner, true, true, true).len());
    });
    store_stages(rec, t, &result);
}

/// `DepStore::add` of the finished dependence set into four local maps,
/// then `merge` of the four into one: the worker-local insert and the
/// final merge of Figure 2, without the workers.
fn store_stages(rec: &mut Recorder, t: &mut Totals, result: &ProfileResult) {
    let deps: Vec<_> = result.deps.dependences().map(|(d, _)| d).collect();
    let locals = timed(rec, t, "store_insert", || {
        let mut locals: [DepStore; 4] = Default::default();
        for (i, d) in deps.iter().enumerate() {
            let e = &d.edge;
            locals[i % 4].add(
                d.sink,
                e.dtype,
                e.source_loc,
                e.source_thread,
                e.var,
                e.flags,
                e.carrier,
            );
        }
        locals
    });
    timed(rec, t, "store_merge", || {
        let mut global = DepStore::new();
        for local in locals {
            global.merge(local);
        }
        black_box(global.merged_len());
    });
}

/// `live_serial`: the interpreter alone, building events and not.
fn interp_stages(rec: &mut Recorder, t: &mut Totals, input: &Input) {
    let program = input.program().expect("live input");
    timed(rec, t, "interp", || {
        let mut sink = Discard(0);
        Interp::new(program).run_seq(&mut sink);
        black_box(sink.0);
    });
    timed(rec, t, "interp_native", || Interp::new(program).run_seq(&mut NullTracer));
}

/// `replay_parallel`: trace decode, the router (feeding the parallel
/// engine, with the time it spent blocked on full queues taken out) and
/// the SPSC chunk hand-off to a draining thread.
fn replay_stages(
    rec: &mut Recorder,
    t: &mut Totals,
    prepared: &Prepared,
    input: &Input,
    events: &[TraceEvent],
) {
    t.trace_bytes += input.trace.len() as u64;
    timed(rec, t, "decode", || {
        let reader = TraceReader::new(&input.trace[..]).expect("own recording opens");
        black_box(reader.filter(|ev| black_box(ev).is_ok()).count());
    });

    let session = timed(rec, t, "router", || {
        let mut session = prepared.parallel_spec().build();
        for ev in events {
            session.on_event(*ev);
        }
        session
    });
    t.stall_ns += session.finish().metrics.stall_nanos;

    const CHUNK_EVENTS: usize = 1024;
    let pool = ChunkPool::new(64, CHUNK_EVENTS);
    let (tx, rx) = spsc_ring::<Chunk>(32);
    let drain_pool = pool.clone();
    let total = events.len();
    let drain = std::thread::spawn(move || {
        let mut seen = 0usize;
        while seen < total {
            match rx.pop() {
                Some(chunk) => {
                    seen += chunk.len();
                    drain_pool.release(chunk);
                }
                None => std::hint::spin_loop(),
            }
        }
    });
    timed(rec, t, "spsc", || {
        let hand_off = |mut chunk: Chunk| loop {
            match tx.push(chunk) {
                Ok(()) => return,
                Err(back) => {
                    chunk = back;
                    std::thread::yield_now();
                }
            }
        };
        let mut chunk = pool.acquire();
        for ev in events {
            chunk.push(*ev);
            if chunk.is_full() {
                hand_off(std::mem::replace(&mut chunk, pool.acquire()));
            }
        }
        if !chunk.is_empty() {
            hand_off(chunk);
        }
    });
    drain.join().expect("drain thread");
}

/// The served path's stages: chunker, frame encode, the client's socket
/// writes, the server's socket reads, frame decode, and the session
/// engine's frame handler.
fn served_stages(
    rec: &mut Recorder,
    t: &mut Totals,
    input: &Input,
    events: &[TraceEvent],
    watched: bool,
) {
    let frames = timed(rec, t, "chunker", || {
        let mut chunker = FrameChunker::new(PushOptions::default().chunk_events);
        let mut frames = Vec::new();
        for ev in events {
            frames.extend(chunker.push(*ev));
        }
        frames.extend(chunker.flush());
        frames
    });
    t.frames += frames.len() as u64;

    let wire = timed(rec, t, "frame_encode", || {
        let mut wire = Vec::new();
        for f in &frames {
            protocol::write_frame(&mut wire, f).expect("writing to memory");
        }
        wire
    });
    t.wire_bytes += wire.len() as u64;

    let decoded = timed(rec, t, "frame_decode", || {
        let mut cursor = &wire[..];
        let mut n = 0u64;
        while let Some(f) = protocol::read_frame(&mut cursor, MAX_FRAME_BYTES).expect("decodes") {
            black_box(&f);
            n += 1;
        }
        n
    });
    assert_eq!(decoded, frames.len() as u64, "every encoded frame decodes");

    socket_stage(rec, t, &wire);

    let hello = Hello {
        session: "ledger".into(),
        spec: input.serial_spec().encode(),
        checkpoint_every: 0,
        names: input.names.clone(),
    };
    let mut engine = timed(rec, t, "engine_handle", || {
        let (mut engine, _ack) = SessionEngine::open(&hello, 1, None, 0).expect("session opens");
        if watched {
            // A watched session tracks dependence-map movement from its
            // first query on, which is nearly all of the stream.
            let first = Frame::Query { id: 0, kind: protocol::query_kind::ALL };
            black_box(engine.handle(first).expect("query in order"));
        }
        for f in frames {
            black_box(engine.handle(f).expect("frame in order"));
        }
        engine
    });
    assert_eq!(engine.position(), events.len() as u64, "engine fed every event");
    black_box(engine.handle(Frame::Finish).expect("finish"));
}

/// The socket alone, both ends at once as in a real push: a writer
/// thread issues one write per frame of already-encoded bytes, and this
/// thread reads them the way the connection handler does — one byte to
/// poll, four of header, then the body — without decoding. On loopback
/// the kernel does the receiver's protocol work in whichever thread
/// happens to be in the kernel, so each end's cost is the CPU time its
/// thread consumed, not the wall time around it.
fn socket_stage(rec: &mut Recorder, t: &mut Totals, wire: &[u8]) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let span = rec.open("ledger.socket");
    let (write_cpu, read_cpu) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect loopback");
            conn.set_nodelay(true).expect("nodelay");
            let cpu0 = thread_cpu_ns();
            let mut rest = wire;
            while !rest.is_empty() {
                let len = u32::from_le_bytes(rest[1..5].try_into().expect("frame header"));
                let (frame, tail) = rest.split_at(len as usize + 6);
                conn.write_all(frame).expect("loopback write");
                rest = tail;
            }
            thread_cpu_ns() - cpu0
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let cpu0 = thread_cpu_ns();
        let mut head = [0u8; 5];
        let mut body = Vec::new();
        while conn.read(&mut head[..1]).expect("loopback read") == 1 {
            conn.read_exact(&mut head[1..]).expect("frame header");
            let len = u32::from_le_bytes(head[1..].try_into().expect("four bytes"));
            body.resize(len as usize + 1, 0);
            conn.read_exact(&mut body).expect("frame body");
            black_box(&body);
        }
        let read_cpu = thread_cpu_ns() - cpu0;
        (writer.join().expect("writer thread"), read_cpu)
    });
    rec.close(span);
    *t.stage_ns.entry("socket_write").or_insert(0) += write_cpu;
    *t.stage_ns.entry("socket_read").or_insert(0) += read_cpu;
}

/// What the ledger concluded about where a pass's time goes.
pub struct Verdict {
    pub ok: bool,
    pub text: String,
}

/// What the untraced passes of the same run measured.
pub struct Untraced {
    pub ns_per_event: f64,
    pub reference_ns_per_event: f64,
    pub pass_wall_ns: f64,
    /// `live_serial`: profiled wall ÷ native wall; 0 elsewhere.
    pub slowdown_x: f64,
}

/// Runs the ledger for `prepared` and returns every per-layer metric.
/// `rec` holds the traced pass already; `traced_wall_ns` is its wall.
pub fn run(
    prepared: &Prepared,
    rec: &mut Recorder,
    untraced: &Untraced,
    traced_wall_ns: u64,
) -> (Values, Verdict) {
    let kind = prepared.kind;
    let mut t = Totals::default();
    for input in &prepared.inputs {
        let events = input.events();
        t.events += events.len() as u64;
        t.accesses += input.id.accesses;
        engine_stages(rec, &mut t, input, &events);
        match kind {
            Kind::LiveSerial => interp_stages(rec, &mut t, input),
            Kind::ReplayParallel => replay_stages(rec, &mut t, prepared, input, &events),
            Kind::ZipfSerial => {}
            Kind::ServedSparse | Kind::ServedDenseWatch => {
                served_stages(rec, &mut t, input, &events, kind == Kind::ServedDenseWatch)
            }
        }
    }

    let mut v = per_layer_zeroes();
    let own = t.self_ns();
    let events = t.events as f64;
    let sessions = prepared.inputs.len() as f64;

    v.insert("sig.probe.ns_per_access", t.ns("probe") / t.accesses as f64);
    v.insert("sig.evictions", t.evictions as f64);
    v.insert("sig.occupancy_pct", 100.0 * t.occupied_slots as f64 / t.total_slots as f64);
    v.insert("sig.est_fpr_pct", t.est_fpr_pct);
    v.insert("sig.fpr_pct", 100.0 * t.false_positives as f64 / t.profiled_deps.max(1) as f64);
    v.insert("sig.fnr_pct", 100.0 * t.false_negatives as f64 / t.baseline_deps.max(1) as f64);
    v.insert("sig.bytes", t.sig_bytes as f64);
    v.insert("core.algo.ns_per_event", t.per_event("algo"));
    v.insert("core.algo_perfect.ns_per_event", t.per_event("algo_perfect"));
    v.insert("core.session_feed.ns_per_event", t.per_event("session_feed"));
    v.insert("core.store.deps_built", t.deps_built as f64);
    v.insert("core.store.deps_merged", t.deps_merged as f64);
    v.insert("core.store.insert_ns_per_dep", t.ns("store_insert") / t.deps_merged.max(1) as f64);
    v.insert("core.store.merge_ns_per_dep", t.ns("store_merge") / t.deps_merged.max(1) as f64);
    v.insert("core.report_render.ms", t.ms("render"));
    v.insert("core.report.bytes", t.report_bytes as f64);
    v.insert("core.checkpoint.ms", t.ms("checkpoint"));
    v.insert("core.checkpoint.bytes", t.checkpoint_bytes as f64);
    v.insert("core.mem_total_bytes", t.mem_total_bytes as f64);
    v.insert("analysis.posthoc.ms", t.ms("posthoc"));
    v.insert("analysis.online_fold.ms", t.ms("online_fold"));
    v.insert("analysis.report.bytes", t.analysis_bytes as f64);
    // The engine's own finish where the pass runs one in this process;
    // the served workloads' engines finish behind the socket, so theirs
    // is the offline twin's.
    let finish_ns = if kind.served() { t.ns("finish") } else { rec.total_ns("finish") as f64 };
    v.insert("core.finish.ms", finish_ns / 1e6);

    // Time after the last event: finish, render and the analysis pass
    // where the workload runs one.
    let tail_ns = match kind {
        Kind::LiveSerial => finish_ns + t.ns("render"),
        Kind::ReplayParallel | Kind::ZipfSerial => finish_ns + t.ns("render") + t.ns("posthoc"),
        Kind::ServedSparse | Kind::ServedDenseWatch => rec.total_ns("finish") as f64,
    };
    let (client_ns, server_ns) = match kind {
        Kind::LiveSerial => {
            v.insert("trace.interp.ns_per_event", t.per_event("interp"));
            v.insert("trace.interp_native.ns_per_event", t.per_event("interp_native"));
            v.insert("bench.slowdown_x", untraced.slowdown_x);
            (t.ns("interp") + t.ns("algo") + tail_ns, 0.0)
        }
        Kind::ZipfSerial => (t.ns("session_feed") + tail_ns, 0.0),
        Kind::ReplayParallel => {
            let router_ns = (t.ns("router") - t.stall_ns as f64).max(0.0);
            v.insert("trace.decode.ns_per_event", t.per_event("decode"));
            v.insert("trace.decode.bytes_per_event", t.trace_bytes as f64 / events);
            v.insert("core.router.ns_per_event", router_ns / events);
            v.insert("queue.spsc.ns_per_event", t.per_event("spsc"));
            for name in ["queue.chunks_pushed", "queue.push_fulls", "queue.mem_high_water_bytes"] {
                v.insert(name, rec.counted(name) as f64);
            }
            // Every worker sees every non-access event and its share of
            // the accesses.
            let workers = parallel_workers() as f64;
            let worker_events = (t.events - t.accesses) as f64 + t.accesses as f64 / workers;
            (t.ns("decode") + router_ns + tail_ns, t.ns("algo") * worker_events / events)
        }
        Kind::ServedSparse | Kind::ServedDenseWatch => {
            let frames = t.frames as f64;
            let (socket_write, socket_read) = (t.ns("socket_write"), t.ns("socket_read"));
            v.insert("trace.chunker.ns_per_event", t.per_event("chunker"));
            v.insert("trace.chunker.events_per_frame", events / frames);
            v.insert("types.frame_encode.ns_per_event", t.per_event("frame_encode"));
            v.insert("types.frame_encode.ns_per_frame", t.ns("frame_encode") / frames);
            v.insert("types.frame.bytes_per_event", t.wire_bytes as f64 / events);
            v.insert("types.frame_decode.ns_per_event", t.per_event("frame_decode"));
            v.insert("types.frame_decode.ns_per_frame", t.ns("frame_decode") / frames);
            v.insert("server.engine_handle.ns_per_event", t.per_event("engine_handle"));
            v.insert("server.engine_handle.ns_per_frame", t.ns("engine_handle") / frames);
            v.insert("server.socket.ns_per_event", (socket_write + socket_read) / events);
            v.insert("server.socket.ns_per_frame", (socket_write + socket_read) / frames);
            v.insert("server.frames", rec.counted("server.frames") as f64);
            v.insert("server.bytes_sent", rec.counted("server.bytes_sent") as f64);
            let us = |ns: Vec<u64>| ns.into_iter().map(|n| n as f64 / 1e3).collect::<Vec<_>>();
            let sync = stats::latency(&us(rec.durations_ns("sync")));
            v.insert("server.sync_rtt_p50_us", sync.p50);
            v.insert("server.sync_rtt_hi_us", sync.hi);
            v.insert("server.sync_samples", sync.samples as f64);
            let query = stats::latency(&us(rec.durations_ns("query")));
            v.insert("server.query_rtt_p50_us", query.p50);
            v.insert("server.query_rtt_hi_us", query.hi);
            v.insert("server.query_samples", query.samples as f64);
            let query_ns = rec.total_ns("query") as f64;
            v.insert("server.query_total_ms", query_ns / 1e6);
            v.insert("server.finish_to_report_ms", tail_ns / 1e6 / sessions);
            eprintln!(
                "  latency percentiles: sync p{} over {} samples, query p{} over {} samples",
                sync.hi_percentile, sync.samples, query.hi_percentile, query.samples
            );
            (
                t.ns("chunker") + t.ns("frame_encode"),
                t.ns("frame_decode") + t.ns("engine_handle") + tail_ns + query_ns,
            )
        }
    };

    // A side's own work can land nowhere else, but on loopback the kernel
    // does the socket's protocol work in whichever thread is in the kernel
    // at the time, so the two ends' socket CPU is one pool: a pass can be
    // no faster than its busier side's own work, nor than both sides and
    // the pool shared evenly, and no slower than everything run in turn.
    let measured = untraced.ns_per_event;
    let socket = (t.ns("socket_write") + t.ns("socket_read")) / events;
    let (client, server) = (client_ns / events, server_ns / events);
    let all = client + server + socket;
    let floor = client.max(server).max(all / 2.0);
    let coverage = floor / measured;
    v.insert("bench.ns_per_event", measured);
    v.insert("bench.reference.ns_per_event", untraced.reference_ns_per_event);
    v.insert("bench.ledger_coverage", coverage);
    v.insert("bench.client_side_ns_per_event", client + t.ns("socket_write") / events);
    v.insert("bench.server_side_ns_per_event", server + t.ns("socket_read") / events);
    v.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall_ns as f64 - untraced.pass_wall_ns) / untraced.pass_wall_ns,
    );

    let verdict = if kind.single_threaded() {
        Verdict {
            ok: (0.85..=1.15).contains(&coverage),
            text: format!(
                "stages sum to {client:.1} ns/event of {measured:.1} measured (coverage {coverage:.2}, want 0.85–1.15)"
            ),
        }
    } else {
        let (near, far) = if kind == Kind::ReplayParallel {
            ("producer", "workers")
        } else {
            ("client", "server")
        };
        let bottleneck = if client >= server { near } else { far };
        Verdict {
            ok: floor <= measured * 1.05 && measured <= all * 1.15,
            text: format!(
                "{near} {client:.1} + {far} {server:.1} + socket {socket:.1} ns/event against {measured:.1} measured; the {bottleneck} side is the busier (want {floor:.1} ≤ measured ≤ {:.1})",
                all * 1.15
            ),
        }
    };
    // Where the time goes: every stage's self time, largest first.
    let mut stages: Vec<(&str, f64)> = own.iter().map(|(n, ns)| (*n, ns / events)).collect();
    stages.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut verdict = verdict;
    for (name, self_ns) in stages {
        verdict.text.push_str(&format!(
            "\n    {name:<14} {:>9.2} ns/event in all, {self_ns:>9.2} self ({:>5.1} % of measured)",
            t.per_event(name),
            100.0 * self_ns / measured
        ));
    }
    (v, verdict)
}
