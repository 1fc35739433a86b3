//! The five workloads: how each is set up and what one end-to-end pass
//! of it runs, times and checks.
//!
//! Load model: closed loop, one client. The profiler's callers block on
//! it (an instrumented program stalls on a full queue, `push` blocks on
//! TCP), so a slow system receives less load and the cost shows as time
//! per event. Busy threads never exceed the hardware threads: in-process
//! workloads use one, the parallel engine a producer plus
//! `max(1, nproc − 1)` workers, the served ones a client thread and one
//! server connection thread over loopback TCP with `TCP_NODELAY`.

use crate::client;
use crate::inputs::{self, Fingerprinter, StreamId, Tee, ZipfShape};
use crate::json;
use crate::spans::Recorder;
use crate::sys::QuietStderr;
use depprof::analysis::posthoc_report;
use depprof::core::{report, ProfileResult, SequentialProfiler, SessionSpec, TransportKind};
use depprof::server::{push_events, PushOptions, Server, ServerConfig};
use depprof::trace::{CollectTracer, NullTracer, Program, TraceReader, TraceWriter};
use depprof::types::{Interner, TraceEvent};
use std::borrow::Cow;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LiveSerial,
    ReplayParallel,
    ZipfSerial,
    ServedSparse,
    ServedDenseWatch,
}

pub const KINDS: [Kind; 5] = [
    Kind::LiveSerial,
    Kind::ReplayParallel,
    Kind::ZipfSerial,
    Kind::ServedSparse,
    Kind::ServedDenseWatch,
];

/// Signature slots of the `mix6` workloads: every program's footprint is
/// far below it, so the signature behaves like an exact store.
const MIX_SLOTS: usize = 1 << 20;

impl Kind {
    /// The workload's declared name ([`KINDS`] is in declaration order).
    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    pub fn served(self) -> bool {
        matches!(self, Kind::ServedSparse | Kind::ServedDenseWatch)
    }

    /// True when one thread does all the work of a pass.
    pub fn single_threaded(self) -> bool {
        matches!(self, Kind::LiveSerial | Kind::ZipfSerial)
    }

    /// `mix6` scale, for the workloads fed by it. The in-process ones run
    /// at 4.0 so that per-session set-up (32 MB of signature) stays a
    /// small share of a program's run; the served one at 0.5 so that a
    /// pass of ~0.45 M two-event frames fits a run eight times or so.
    fn mix_scale(self, smoke: bool) -> Option<f64> {
        let full = match self {
            Kind::LiveSerial | Kind::ReplayParallel => 4.0,
            Kind::ServedSparse => 0.5,
            Kind::ZipfSerial | Kind::ServedDenseWatch => return None,
        };
        Some(if smoke { 0.1 } else { full })
    }

    fn zipf_shape(self, smoke: bool) -> Option<ZipfShape> {
        let full = match self {
            Kind::ZipfSerial => 4_000_000,
            Kind::ServedDenseWatch => 2_000_000,
            _ => return None,
        };
        Some(ZipfShape { events: if smoke { 200_000 } else { full } })
    }
}

/// Hardware threads, as the standard library reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers of the parallel engine: every hardware thread but the
/// producer's.
pub fn parallel_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Outcome counts of the checks a run makes; a failed or refused
/// operation counts like a failed check.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(20);
    }
}

/// One event stream to profile in one session, with what is needed to
/// feed it the workload's way and to check what comes back.
pub struct Input {
    pub name: String,
    /// Variable names in id order (`"*"` first), as a `Hello` carries them.
    pub names: Vec<String>,
    pub id: StreamId,
    pub slots: usize,
    /// `live_serial`: the program to execute.
    program: Option<Program>,
    /// `replay_parallel`: the recording, DPTR v2 bytes.
    pub trace: Vec<u8>,
    /// Every other workload: the events themselves.
    events: Vec<TraceEvent>,
    /// What an offline serial session over the same events produces
    /// (see [`Prepared::compute_expected`]).
    expected: Option<Expected>,
    /// The input's accesses, as the reference profiler reads them.
    reference_accesses: Vec<inputs::RefAccess>,
}

struct Expected {
    /// The report a serial-spec pass must reproduce byte for byte.
    report: String,
    mem_bytes: u64,
}

impl Input {
    pub fn interner(&self) -> Interner {
        let mut interner = Interner::new();
        for n in &self.names {
            interner.intern(n);
        }
        interner
    }

    /// The serial engine this input is profiled with.
    pub fn serial_spec(&self) -> SessionSpec {
        SessionSpec { slots: self.slots, ..SessionSpec::default() }
    }

    /// The input's events, materialized on demand where a pass does not
    /// need them in memory.
    pub fn events(&self) -> Cow<'_, [TraceEvent]> {
        if let Some(program) = &self.program {
            let mut out = CollectTracer::new();
            depprof::trace::Interp::new(program).run_seq(&mut out);
            Cow::Owned(out.events)
        } else if !self.trace.is_empty() {
            let reader = TraceReader::new(&self.trace[..]).expect("own recording opens");
            Cow::Owned(reader.map(|ev| ev.expect("own recording decodes")).collect())
        } else {
            Cow::Borrowed(&self.events)
        }
    }

    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// Profiles the input's accesses with the reference profiler.
    pub fn reference_run(&self) {
        let mut reference = inputs::RefProfiler::new(self.slots);
        reference.run(&self.reference_accesses);
        std::hint::black_box(reference.digest());
    }
}

/// Profiles `events` in an offline serial session.
pub fn offline(spec: &SessionSpec, events: &[TraceEvent]) -> ProfileResult {
    let mut session = spec.build();
    for ev in events {
        session.on_event(*ev);
    }
    session.finish()
}

static SERVER_STOP: AtomicBool = AtomicBool::new(false);

/// A `dp-server` on an ephemeral loopback port, stopped and joined on drop.
struct ServerHandle {
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    fn start() -> ServerHandle {
        SERVER_STOP.store(false, Ordering::SeqCst);
        // The poll interval is a deployment setting: at its 50 ms default
        // the accept loop alone would add a random 0–50 ms to every
        // session, which is scheduling luck and not a layer's cost.
        let cfg = ServerConfig { poll_interval_ms: 1, ..ServerConfig::default() };
        let server = Server::bind_tcp("127.0.0.1:0", cfg).expect("bind loopback");
        let addr = server.local_addr().expect("tcp server has an address");
        let thread = std::thread::spawn(move || server.run(&SERVER_STOP));
        ServerHandle { addr, thread: Some(thread) }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        SERVER_STOP.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A workload, set up and ready to run passes.
pub struct Prepared {
    pub kind: Kind,
    pub inputs: Vec<Input>,
    /// Identity of the whole input (all sessions of a pass).
    pub id: StreamId,
    /// Distinct addresses over all inputs; 0 until
    /// [`Prepared::compute_expected`] has run.
    pub distinct_addrs: u64,
    /// Checks made once, at set-up.
    pub setup_checks: Checks,
    server: Option<ServerHandle>,
    sessions_opened: u64,
    /// Report fingerprint of the first pass (serial-spec workloads).
    first_report: Option<u64>,
}

/// What one pass measured.
#[derive(Debug, Default, Clone)]
pub struct PassOut {
    pub wall_ns: u64,
    /// `live_serial`: wall of the same programs under `NullTracer`.
    pub null_wall_ns: u64,
    /// Wall of the reference profiler over the same accesses, taken
    /// session by session beside the profiled one.
    pub reference_wall_ns: u64,
    pub events: u64,
    pub mem_bytes: u64,
    pub checks: Checks,
}

impl PassOut {
    pub fn ns_per_event(&self) -> f64 {
        self.wall_ns as f64 / self.events as f64
    }
}

/// Sets a workload up: generates (and where needed records) its input,
/// identifies it, and binds the server.
pub fn prepare(kind: Kind, seed: u64, smoke: bool) -> Prepared {
    let mut setup_checks = Checks::default();
    let mut inputs = Vec::new();
    if let Some(scale) = kind.mix_scale(smoke) {
        for p in inputs::mix6(scale) {
            let mut f = Fingerprinter::default();
            let mut input = Input {
                name: p.name.to_string(),
                names: p.names.clone(),
                id: StreamId::default(),
                slots: MIX_SLOTS,
                program: None,
                trace: Vec::new(),
                events: Vec::new(),
                expected: None,
                reference_accesses: Vec::new(),
            };
            match kind {
                Kind::LiveSerial => {
                    p.run(&mut Tee { id: &mut f, inner: NullTracer });
                    input.program = Some(p.program);
                }
                Kind::ReplayParallel => {
                    let writer = TraceWriter::with_names(Vec::new(), &p.program.interner)
                        .expect("writing to memory");
                    let mut tee = Tee { id: &mut f, inner: writer };
                    p.run(&mut tee);
                    input.trace = tee.inner.finish().expect("writing to memory");
                }
                _ => {
                    let mut tee = Tee { id: &mut f, inner: CollectTracer::new() };
                    p.run(&mut tee);
                    input.events = tee.inner.events;
                }
            }
            (input.id, input.reference_accesses) = f.finish();
            inputs.push(input);
        }
        let id = inputs::combine(inputs.iter().map(|i| i.id));
        let golden = inputs::mix6_golden(scale);
        setup_checks.check(golden == Some((id.events, id.fingerprint)), || {
            format!(
                "input changed: mix6 at scale {scale} has {} events, fingerprint {:#018x}; golden {golden:x?}",
                id.events, id.fingerprint
            )
        });
    }
    if let Some(shape) = kind.zipf_shape(smoke) {
        let events = inputs::zipf(seed, shape);
        let (id, reference_accesses) = inputs::identify(&events);
        setup_checks.check(id.events == shape.events && id.accesses == shape.events, || {
            format!("zipf generated {} events, wanted {}", id.events, shape.events)
        });
        inputs.push(Input {
            name: "zipf".into(),
            names: vec!["*".into()],
            id,
            slots: shape.slots(),
            program: None,
            trace: Vec::new(),
            events,
            expected: None,
            reference_accesses,
        });
    }
    let id = inputs::combine(inputs.iter().map(|i| i.id));
    Prepared {
        kind,
        inputs,
        id,
        distinct_addrs: 0,
        setup_checks,
        server: kind.served().then(ServerHandle::start),
        sessions_opened: 0,
        first_report: None,
    }
}

/// One session of a pass: its report, the engine's memory, and the wall
/// time from its first input to the report text in hand (checks excluded).
struct Session {
    report: String,
    mem_bytes: u64,
    wall_ns: u64,
}

/// Opens a span when tracing is on.
fn open(rec: &mut Option<&mut Recorder>, name: &str) -> Option<crate::spans::SpanId> {
    rec.as_mut().map(|r| r.open(name))
}

fn close(rec: &mut Option<&mut Recorder>, id: Option<crate::spans::SpanId>) {
    if let (Some(r), Some(id)) = (rec.as_mut(), id) {
        r.close(id);
    }
}

/// The checks every finished engine must pass: it saw every event fed
/// and lost none.
fn check_result(checks: &mut Checks, what: &str, result: &ProfileResult, fed: u64) {
    checks.check(result.stats.events == fed, || {
        format!("{what}: engine counted {} events, {fed} were fed", result.stats.events)
    });
    checks.check(result.stats.dropped_events == 0, || {
        format!("{what}: {} events dropped", result.stats.dropped_events)
    });
    checks.check(result.stats.worker_failures.is_empty(), || {
        format!("{what}: {} worker failures", result.stats.worker_failures.len())
    });
}

impl Prepared {
    /// The benchmark's bookkeeping, not set-up of the workload, so it is
    /// not part of `setup_s`: counts the distinct addresses (the
    /// denominator of bytes per address), and for the served and `zipf`
    /// workloads profiles every input in an offline serial session and
    /// keeps its report and memory, which their passes are checked against.
    pub fn compute_expected(&mut self) {
        self.distinct_addrs =
            self.inputs.iter().map(|i| inputs::distinct_addrs(&i.reference_accesses)).sum();
        if matches!(self.kind, Kind::LiveSerial | Kind::ReplayParallel) {
            return;
        }
        for input in &mut self.inputs {
            let result = offline(&input.serial_spec(), &input.events);
            input.expected = Some(Expected {
                report: report::render(&result, &input.interner(), false),
                mem_bytes: result.memory.total() as u64,
            });
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("served workload").addr
    }

    /// The spec `replay_parallel` builds its sessions from.
    pub fn parallel_spec(&self) -> SessionSpec {
        SessionSpec {
            parallel: true,
            transport: TransportKind::Spsc,
            workers: parallel_workers(),
            slots: MIX_SLOTS,
            ..SessionSpec::default()
        }
    }

    /// Options of the product client for this served workload.
    fn push_options(&mut self, input: usize) -> PushOptions {
        self.sessions_opened += 1;
        let base = PushOptions {
            session: format!("{}-{}", self.kind.name(), self.sessions_opened),
            spec: self.inputs[input].serial_spec(),
            ..PushOptions::default()
        };
        match self.kind {
            Kind::ServedDenseWatch => {
                PushOptions { sync_every_chunks: 8, watch_ms: Some(100), ..base }
            }
            _ => base,
        }
    }

    /// Runs one end-to-end pass: every input through one session, from
    /// its first input to its final report text in hand. With a recorder
    /// the same pass records a span around each call into a layer (the
    /// served workloads then use the benchmark's own client).
    pub fn pass(&mut self, mut rec: Option<&mut Recorder>) -> PassOut {
        let mut out = PassOut { events: self.id.events, ..PassOut::default() };
        let mut report_fp = 0u64;
        let _quiet = self.kind.served().then(QuietStderr::engage).flatten();
        let pass_span = open(&mut rec, "pass");
        for i in 0..self.inputs.len() {
            let session = match self.kind {
                Kind::LiveSerial => self.live_session(i, &mut rec, &mut out.checks),
                Kind::ReplayParallel => self.replay_session(i, &mut rec, &mut out.checks),
                Kind::ZipfSerial => self.zipf_session(i, &mut rec, &mut out.checks),
                Kind::ServedSparse | Kind::ServedDenseWatch => {
                    self.served_session(i, &mut rec, &mut out.checks)
                }
            };
            out.wall_ns += session.wall_ns;
            out.mem_bytes += session.mem_bytes;
            report_fp = report_fp.rotate_left(9) ^ inputs::text_fingerprint(&session.report);
            let t0 = Instant::now();
            let span = open(&mut rec, "reference");
            self.inputs[i].reference_run();
            close(&mut rec, span);
            out.reference_wall_ns += t0.elapsed().as_nanos() as u64;
            if self.kind == Kind::LiveSerial {
                let input = &self.inputs[i];
                let t0 = Instant::now();
                let span = open(&mut rec, "native");
                depprof::trace::Interp::new(input.program().expect("live input"))
                    .run_seq(&mut NullTracer);
                close(&mut rec, span);
                out.null_wall_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        close(&mut rec, pass_span);
        if self.kind != Kind::ReplayParallel {
            let first = *self.first_report.get_or_insert(report_fp);
            out.checks.check(first == report_fp, || {
                "report differs from the first pass's on a serial-spec workload".into()
            });
        }
        out
    }

    fn live_session(
        &self,
        i: usize,
        rec: &mut Option<&mut Recorder>,
        checks: &mut Checks,
    ) -> Session {
        let input = &self.inputs[i];
        let program = input.program().expect("live input");
        let t0 = Instant::now();
        let span = open(rec, "stream");
        let mut profiler = SequentialProfiler::with_signature(input.slots);
        depprof::trace::Interp::new(program).run_seq(&mut profiler);
        close(rec, span);
        let span = open(rec, "finish");
        let result = profiler.finish();
        close(rec, span);
        let span = open(rec, "render");
        let report = report::render(&result, &program.interner, false);
        close(rec, span);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        check_result(checks, &input.name, &result, input.id.events);
        Session { report, mem_bytes: result.memory.total() as u64, wall_ns }
    }

    fn replay_session(
        &self,
        i: usize,
        rec: &mut Option<&mut Recorder>,
        checks: &mut Checks,
    ) -> Session {
        let input = &self.inputs[i];
        let t0 = Instant::now();
        let span = open(rec, "stream");
        let mut reader = TraceReader::new(&input.trace[..]).expect("own recording opens");
        let mut session = self.parallel_spec().build();
        let mut decode_errors = 0u64;
        for ev in &mut reader {
            match ev {
                Ok(ev) => session.on_event(ev),
                Err(_) => decode_errors += 1,
            }
        }
        close(rec, span);
        let span = open(rec, "finish");
        let result = session.finish();
        close(rec, span);
        let span = open(rec, "render");
        let mut report = report::render(&result, reader.interner(), false);
        close(rec, span);
        let span = open(rec, "analysis");
        report.push_str(&posthoc_report(&result).to_json(reader.interner(), true, true, true));
        close(rec, span);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        checks.check(decode_errors == 0, || format!("{}: trace did not decode", input.name));
        check_result(checks, &input.name, &result, input.id.events);
        if let Some(r) = rec.as_mut() {
            r.count("queue.chunks_pushed", result.stats.chunks_pushed);
            r.count("queue.push_fulls", result.metrics.chunks.push_retries);
            r.count_max(
                "queue.mem_high_water_bytes",
                (result.memory.queues + result.memory.chunks) as u64,
            );
        }
        Session { report, mem_bytes: result.memory.total() as u64, wall_ns }
    }

    fn zipf_session(
        &self,
        i: usize,
        rec: &mut Option<&mut Recorder>,
        checks: &mut Checks,
    ) -> Session {
        let input = &self.inputs[i];
        let interner = input.interner();
        let t0 = Instant::now();
        let span = open(rec, "stream");
        let mut session = input.serial_spec().build();
        for ev in &input.events {
            session.on_event(*ev);
        }
        close(rec, span);
        let span = open(rec, "finish");
        let result = session.finish();
        close(rec, span);
        let span = open(rec, "render");
        let report = report::render(&result, &interner, false);
        close(rec, span);
        let span = open(rec, "analysis");
        let json = posthoc_report(&result).to_json(&interner, true, true, true);
        close(rec, span);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        check_result(checks, &input.name, &result, input.id.events);
        let expected = input.expected.as_ref().expect("expected outputs were computed");
        checks.check(report == expected.report, || "report differs from the offline one".into());
        checks.check(json::parse(&json).is_ok(), || "analysis JSON does not parse".into());
        Session { report, mem_bytes: result.memory.total() as u64, wall_ns }
    }

    fn served_session(
        &mut self,
        i: usize,
        rec: &mut Option<&mut Recorder>,
        checks: &mut Checks,
    ) -> Session {
        let opts = self.push_options(i);
        let addr = self.addr();
        let input = &self.inputs[i];
        let fed = input.id.events;
        let t0 = Instant::now();
        let outcome = match rec.as_mut() {
            Some(rec) => client::traced_push(addr, input, &opts, rec),
            None => TcpStream::connect(addr).map_err(|e| e.to_string()).and_then(|mut conn| {
                conn.set_nodelay(true).map_err(|e| e.to_string())?;
                push_events(&mut conn, input.names.clone(), input.events.iter().copied(), &opts)
                    .map_err(|e| e.to_string())
            }),
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let expected = input.expected.as_ref().expect("expected outputs were computed");
        let mem_bytes = expected.mem_bytes;
        checks.check(outcome.is_ok(), || {
            format!("{}: push failed: {}", input.name, outcome.as_ref().err().unwrap())
        });
        let Ok(outcome) = outcome else {
            return Session { report: String::new(), mem_bytes, wall_ns };
        };
        checks.check(outcome.events_sent == fed, || {
            format!("{}: sent {} of {fed} events", input.name, outcome.events_sent)
        });
        checks.check(outcome.report == expected.report, || {
            format!("{}: served report differs from the offline serial session's", input.name)
        });
        if opts.watch_ms.is_some() {
            let position = outcome
                .last_query_json
                .as_deref()
                .and_then(|j| json::parse(j).ok())
                .and_then(|v| v.get("position").and_then(json::Value::as_f64));
            checks.check(position == Some(fed as f64), || {
                format!("{}: final watch snapshot at {position:?}, stream has {fed}", input.name)
            });
        }
        Session { report: outcome.report, mem_bytes, wall_ns }
    }
}
