//! `depprof` — command-line front-end to the dependence profiler.
//!
//! `depprof --help` prints the synopsis of every verb (`list`, `profile`,
//! `record`, `replay`, `serve`, `push`, `fuzz`) and the exit-code legend;
//! it is generated from the flag table in `flags.rs`, the one place a
//! flag is declared.
//!
//! `--stats` replaces the normal report on stdout with the pipeline
//! metrics snapshot (event-conservation counters, queue statistics,
//! signature gauges, phase timings) — `json` emits a single stable-keyed
//! JSON object suitable for `jq`, `text` a human-readable table. The
//! engine banner and any degradation warnings stay on stderr.
//!
//! `<workload>` is any bundled mini (NAS: bt sp lu is ep cg mg ft;
//! Starbench: c-ray kmeans md5 ray-rot rgbyuv rotate rot-cc
//! streamcluster tinyjpeg bodytrack h264dec; SPLASH: water-spatial;
//! synthetic: racy-counter locked-counter). Parallel (pthread-style)
//! targets are profiled with the multi-threaded engine automatically.
//!
//! `replay --checkpoint-every N` makes the run *durable*: every N trace
//! records the pipeline is quiesced and its full state (signatures,
//! dependence maps, router statistics, queue ledger) is written to a
//! two-generation checkpoint directory with an atomic temp-file + rename
//! protocol — a kill at any instant leaves a valid generation on disk.
//! `replay --resume <dir>` picks up the latest valid generation, seeks
//! the trace to the recorded position and continues; the final profile is
//! identical to an uninterrupted run. `--watchdog-deadline MS` arms a
//! monitor that forces an emergency checkpoint and exits with code `6`
//! when the pipeline stops making progress.
//!
//! `serve` runs the profiler as a network service speaking the DPSV v3
//! frame protocol; `push` streams a recorded trace to it and prints the
//! report the server sends back. Each push names a *session*; a server
//! started with `--checkpoint-dir` checkpoints its sessions, and a push
//! repeated after a server crash (or SIGTERM) resumes where the
//! checkpoint left off — the server tells the client how many events to
//! skip in its `HelloAck`. `push` survives flaky networks on its own:
//! on a mid-stream disconnect it reconnects with bounded jittered
//! backoff (`--retries`, `--retry-delay-ms`), re-`Hello`s the same
//! session, and resumes from the server's watermark — positional frames
//! make the overlap land exactly once. A server past `--max-sessions`
//! answers with a typed `Busy{retry_after_ms}` hint (`--busy-retry-ms`)
//! the client honors; `--hibernate-after MS` evicts idle durable
//! sessions to the checkpoint store so the cap bounds live engines, not
//! named sessions. `--chaos SPEC` (both sides) injects deterministic
//! network faults — `seed=N,reset-bytes=N,reset-frames=N,short-io,`
//! `stall=EVERYxMS,dup=N` — for drills and tests.
//!
//! Exit codes are distinct so scripts and CI can react to each failure
//! class: they are the `EXIT_*` constants below, and every failure
//! reaches the single `exit` in `main` as a [`CliError`].

mod flags;

use depprof::analysis::{degradation, text_sections, LoopMeta};
use depprof::core::{
    report, CheckpointMetrics, CheckpointStore, FaultPlan, ProfileResult, ProfileSession,
    ProfilerConfig, SessionSpec, TransportKind, Watchdog,
};
use depprof::server::{
    install_signal_handlers, push_with_retry, shutdown_flag, ChaosStream, ClientError, PushOptions,
    RetryPolicy, Server, ServerConfig,
};
use depprof::trace::workloads::{nas_suite, splash, starbench_suite, synth, Scale, Workload};
use depprof::trace::TraceReader;
use depprof::types::wire::{atomic_write, ByteReader, ByteWriter, WireError};
use flags::{Args, Engine, Output, Stats, Verb};
use std::fmt::Display;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Bad command line (unknown flag/engine/value).
const EXIT_USAGE: i32 = 2;
/// Input missing: unknown workload, or a file that cannot be opened.
const EXIT_INPUT: i32 = 3;
/// The trace file exists but is not a readable trace (corrupt/truncated).
const EXIT_CORRUPT: i32 = 4;
/// The run finished but the profile is degraded (losses were recorded).
const EXIT_DEGRADED: i32 = 5;
/// The run watchdog detected a stalled pipeline; an emergency checkpoint
/// was written (when checkpointing is active) and the run gave up.
const EXIT_WATCHDOG: i32 = 6;
/// The run was terminated by SIGINT/SIGTERM after writing a final
/// emergency checkpoint (`serve` and `replay`).
const EXIT_SIGNAL: i32 = depprof::server::SIGTERM_EXIT;
/// `push`: the server refused the session with typed backpressure
/// (`Busy`/`AT_CAPACITY`) and every retry budgeted for it was spent.
/// The session was *not* profiled; rerun the push once load drops.
const EXIT_BUSY: i32 = 8;

/// Every way a verb fails: the exit code, and what `main` still has to
/// say on stderr (empty when the verb has said it all already).
struct CliError {
    code: i32,
    message: String,
}

type Cli<T = ()> = Result<T, CliError>;

fn fail(code: i32, message: impl Into<String>) -> CliError {
    CliError { code, message: message.into() }
}

/// `result.or_fail(code, what)?` — fails with "`what`: `error`".
trait OrFail<T> {
    fn or_fail(self, code: i32, what: impl Display) -> Cli<T>;
}

impl<T, E: Display> OrFail<T> for Result<T, E> {
    fn or_fail(self, code: i32, what: impl Display) -> Cli<T> {
        self.map_err(|e| fail(code, format!("{what}: {e}")))
    }
}

fn find_workload(name: &str, scale: Scale) -> Cli<Workload> {
    let lower = name.to_ascii_lowercase();
    nas_suite(scale)
        .into_iter()
        .chain(starbench_suite(scale))
        .find(|w| w.meta.name.eq_ignore_ascii_case(&lower))
        .or_else(|| match lower.as_str() {
            "water-spatial" => Some(splash::water_spatial(scale, 8)),
            "racy-counter" => Some(synth::racy_counter(scale, 4)),
            "locked-counter" => Some(synth::locked_counter(scale, 4)),
            _ => None,
        })
        .ok_or_else(|| fail(EXIT_INPUT, format!("unknown workload '{name}' (try `depprof list`)")))
}

fn open_trace(path: &str) -> Cli<TraceReader<File>> {
    let file =
        File::open(path).or_fail(EXIT_INPUT, format_args!("cannot open trace file '{path}'"))?;
    TraceReader::new(file).or_fail(EXIT_CORRUPT, format_args!("'{path}'"))
}

/// Everything a resumed run needs to rebuild the engine exactly as the
/// interrupted run configured it. Serialized into the checkpoint's CONFIG
/// section, so `depprof replay --resume <dir>` takes no other flags.
/// Fault-injection levers (the overflow policy among them) are not
/// persisted: a resumed run is healthy unless its own flags say otherwise.
#[derive(Debug, PartialEq)]
struct ReplayConfig {
    trace_path: String,
    spec: SessionSpec,
    checkpoint_every: u64,
}

impl ReplayConfig {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.blob(self.trace_path.as_bytes());
        w.u8(self.spec.parallel as u8);
        w.u8(self.spec.transport.code());
        w.u32(self.spec.workers as u32);
        w.u64(self.spec.slots as u64);
        w.u64(self.checkpoint_every);
        w.u8(!self.spec.redistribution as u8);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let trace_path = String::from_utf8(r.blob()?.to_vec())
            .map_err(|_| WireError::Invalid("trace path in checkpoint is not UTF-8"))?;
        // Field expressions run in the order written: the wire order.
        let spec = SessionSpec {
            parallel: r.u8()? != 0,
            transport: TransportKind::from_code(r.u8()?)
                .ok_or(WireError::Invalid("unknown transport code in checkpoint"))?,
            workers: r.u32()? as usize,
            slots: r.u64()? as usize,
            ..SessionSpec::default()
        };
        let checkpoint_every = r.u64()?;
        let spec = SessionSpec { redistribution: r.u8()? == 0, ..spec };
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after replay config"));
        }
        Ok(ReplayConfig { trace_path, spec: spec.checked()?, checkpoint_every })
    }
}

/// Writes a CLI artifact: to stdout by default, or atomically (hidden
/// temp file + fsync + rename) to `path` — a crash mid-write can never
/// leave a torn or half-written artifact behind.
fn emit(path: Option<&str>, content: &str) -> Cli {
    match path {
        None => println!("{content}"),
        Some(p) => {
            let mut bytes = content.as_bytes().to_vec();
            bytes.push(b'\n');
            atomic_write(Path::new(p), &bytes)
                .or_fail(EXIT_INPUT, format_args!("cannot write '{p}'"))?;
            eprintln!("wrote {} bytes to {p}", bytes.len());
        }
    }
    Ok(())
}

/// The tail `profile` and `replay` share: `--stats` replaces the report
/// (stdout then carries *only* the snapshot, so `... --stats json | jq`
/// works unpiped), and a degraded profile fails with its banner — worker
/// failures plus the Formula-1 coverage estimate — *after* the artifact
/// is out: the dependences that were reported are exact, and the exit
/// code makes the coverage loss impossible to miss in scripts and CI.
/// The chaos seed rides along so a loss observed under fault injection
/// can be replayed exactly from the log alone.
fn emit_result(args: &Args, result: &ProfileResult, report: impl FnOnce() -> String) -> Cli {
    let content = match args.stats {
        Some(Stats::Json) => result.metrics.to_json(),
        Some(Stats::Text) => result.metrics.to_text(),
        None => report(),
    };
    emit(args.out.as_deref(), &content)?;
    let d = degradation(result);
    if !d.degraded() {
        return Ok(());
    }
    let mut banner: String =
        result.stats.worker_failures.iter().map(|f| format!("WARNING: {f}\n")).collect();
    banner += &format!(
        "WARNING: {} — expected FNR ~{:.2}% (chaos seed {})",
        d.summary(),
        d.expected_fnr(),
        result.metrics.chaos_seed
    );
    Err(fail(EXIT_DEGRADED, banner))
}

/// `depprof replay` — feed a recorded trace into an engine, with optional
/// durability: periodic checkpoints, crash resume, and a run watchdog.
fn run_replay(args: &Args) -> Cli {
    // Resolve the run configuration: a fresh run takes it from the flags,
    // a resumed run from the checkpoint's own CONFIG section.
    let load = |dir: &String| {
        let latest = CheckpointStore::open(dir.clone()).load_latest();
        latest.or_fail(EXIT_CORRUPT, format_args!("cannot resume from '{dir}'"))
    };
    let resume_data = args.resume.as_ref().map(load).transpose()?;
    let rc = match &resume_data {
        Some(d) => {
            let mut rc = ReplayConfig::decode(&d.config)
                .or_fail(EXIT_CORRUPT, "checkpoint config section is unreadable")?;
            rc.spec.overflow = args.spec.overflow;
            rc
        }
        None => ReplayConfig {
            trace_path: args.input.clone(),
            spec: args.spec,
            checkpoint_every: args.checkpoint_every,
        },
    };
    let path = &rc.trace_path;

    // Open the trace; on resume, skip the events the interrupted run
    // already profiled (the checkpoint records the reader position).
    let mut reader = open_trace(path)?;
    let interner = reader.interner().clone();
    if let Some(d) = &resume_data {
        let at = d.records_read;
        let what = format!("'{path}': checkpoint was taken {at} records in");
        reader.skip_to(at).or_fail(EXIT_CORRUPT, what)?;
        eprintln!("resuming from checkpoint generation {} at record {at}", d.generation);
    }

    // Build (or restore) the engine.
    let chaos_seed = depprof::queue::chaos_seeds(&[0])[0];
    let mut cfg = rc.spec.config();
    if let Some(f) = args.inject_stall {
        cfg = cfg.with_fault_plan(
            FaultPlan::none().with_seed(chaos_seed).with_stall(f.worker, f.after_chunks),
        );
    }
    if let Some(ms) = args.stall_deadline_ms {
        cfg = cfg.with_stall_deadline_ms(ms);
    }
    let what = if rc.spec.parallel {
        "cannot resume the parallel pipeline"
    } else {
        "cannot restore the serial engine"
    };
    let mut engine = rc.spec.open(cfg, resume_data.as_ref()).or_fail(EXIT_CORRUPT, what)?;

    // A checkpoint store is needed for periodic checkpoints and for the
    // watchdog's emergency checkpoint. Resumed runs keep writing into the
    // directory they resumed from, preserving the two-generation rotation.
    let create = || {
        let dir = args.resume.clone().or_else(|| args.checkpoint_dir.clone());
        CheckpointStore::create(dir.unwrap_or_else(|| format!("{path}.ckpt")))
            .or_fail(EXIT_INPUT, "cannot create checkpoint directory")
    };
    let durable = rc.checkpoint_every > 0 || args.watchdog_deadline_ms > 0;
    let store = durable.then(create).transpose()?;

    let mut generation = resume_data.as_ref().map_or(0, |d| d.generation + 1);
    let mut ck = CheckpointMetrics {
        resumed_from: resume_data.as_ref().map_or(0, |d| d.records_read),
        ..CheckpointMetrics::default()
    };

    // The watchdog escalates in two stages: after one deadline without
    // progress it sets the sticky `fired` flag, which the feed loop turns
    // into an emergency checkpoint + exit at the next record boundary;
    // if the feed loop itself is wedged (blocked on a full queue behind a
    // stalled worker) and a second deadline passes, the hard-timeout
    // callback exits directly — the previous on-disk generation survives.
    let watchdog = (args.watchdog_deadline_ms > 0).then(|| {
        Watchdog::spawn(Duration::from_millis(args.watchdog_deadline_ms), || {
            eprintln!("watchdog: pipeline made no progress for two deadlines; giving up");
            std::process::exit(EXIT_WATCHDOG);
        })
    });
    let wd_progress = watchdog.as_ref().map(|w| w.progress_handle());

    // SIGINT/SIGTERM become a final emergency checkpoint + exit code 7
    // instead of a death mid-write: the handler only sets a flag, which
    // the feed loop observes at the next record boundary.
    install_signal_handlers();

    // Quiesce → write → report, for all three reasons a replay checkpoints.
    // `reason` prefixes an emergency checkpoint's messages; the periodic
    // checkpoint passes none and speaks only when it fails. `None` also
    // when checkpointing is off.
    let checkpoint =
        |engine: &mut ProfileSession, generation: u64, records_read: u64, reason: &str| {
            let store = store.as_ref()?;
            let periodic = reason.is_empty();
            let data = match engine.checkpoint_data(generation, records_read, rc.encode()) {
                Ok(data) => data,
                Err(e) if periodic => {
                    eprintln!("WARNING: checkpoint skipped: {e}");
                    return None;
                }
                Err(e) => {
                    eprintln!("{reason}cannot quiesce for emergency checkpoint: {e}");
                    return None;
                }
            };
            match store.write(&data) {
                Ok(st) if periodic => return Some(st),
                Ok(st) => eprintln!(
                    "{reason}emergency checkpoint generation {} ({} bytes) written to '{}'{}",
                    st.generation,
                    st.bytes,
                    store.dir().display(),
                    if reason.starts_with("signal") { "; resume with --resume" } else { "" }
                ),
                Err(e) if periodic => eprintln!("WARNING: checkpoint write failed: {e}"),
                Err(e) => eprintln!("{reason}emergency checkpoint failed: {e}"),
            }
            None
        };

    let mut fed: u64 = 0;
    while let Some(rec) = reader.next() {
        let ev = rec.or_fail(EXIT_CORRUPT, format_args!("'{path}'"))?;
        // A recording is of a sequential target: both engines profile
        // thread 0's events only.
        if ev.thread() != 0 {
            let at = reader.records_read() - 1;
            return Err(fail(EXIT_CORRUPT, format!("'{path}': event {at} is off thread 0")));
        }
        engine.on_event(ev);
        fed += 1;
        if shutdown_flag().load(Ordering::SeqCst) {
            if store.is_none() {
                eprintln!("signal: terminating (checkpointing is off, nothing to save)");
            }
            checkpoint(&mut engine, generation, reader.records_read(), "signal: ");
            return Err(fail(EXIT_SIGNAL, ""));
        }
        if let Some(p) = &wd_progress {
            p.store(fed + engine.heartbeat(), Ordering::Relaxed);
        }
        if watchdog.as_ref().is_some_and(|w| w.fired()) {
            checkpoint(&mut engine, generation, reader.records_read(), "watchdog: stalled; ");
            return Err(fail(EXIT_WATCHDOG, ""));
        }
        if rc.checkpoint_every > 0 && fed.is_multiple_of(rc.checkpoint_every) {
            let t0 = Instant::now();
            if let Some(st) = checkpoint(&mut engine, generation, reader.records_read(), "") {
                ck.generations += 1;
                ck.last_bytes = st.bytes;
                ck.write_nanos += t0.elapsed().as_nanos() as u64;
                generation += 1;
            }
        }
        // The kill point sits at a record boundary *after* any checkpoint
        // due at it — deterministic, and it exercises the worst case
        // (death immediately after a successful checkpoint write).
        if args.inject_kill_after == fed {
            eprintln!("fault injection: killing the process after {fed} records");
            // A real SIGKILL (not abort/panic): nothing runs after it — no
            // destructors, no atexit — which is exactly the crash model the
            // checkpoint store must survive.
            #[cfg(unix)]
            {
                let _ = std::process::Command::new("kill")
                    .args(["-KILL", &std::process::id().to_string()])
                    .status();
            }
            std::process::abort(); // non-unix fallback; unreachable on unix
        }
    }
    drop(wd_progress);
    if let Some(w) = watchdog {
        w.stop();
    }

    let mut result = engine.finish();
    result.metrics.checkpoints = ck;
    result.metrics.chaos_seed = chaos_seed;

    eprintln!("{}", report::summary(&result));
    emit_result(args, &result, || report::render(&result, &interner, false))
}

/// `depprof serve` — run the profiler as a long-lived network service.
/// Listens for DPSV v3 connections, one profiling session per client,
/// until SIGINT/SIGTERM; in-flight sessions are emergency-checkpointed
/// on shutdown and resumed when their clients reconnect.
fn run_serve(args: &Args) -> Cli {
    let cfg = ServerConfig {
        max_sessions: args.max_sessions,
        checkpoint_dir: args.checkpoint_dir.as_ref().map(PathBuf::from),
        checkpoint_every: args.checkpoint_every,
        busy_retry_ms: args.busy_retry_ms,
        hibernate_after_ms: args.hibernate_after_ms,
        fault_plan: args.chaos_plan.clone().unwrap_or_default(),
        ..ServerConfig::default()
    };
    if let Some(plan) = &args.chaos_plan {
        eprintln!("chaos: injecting network faults on every accepted connection: {plan:?}");
    }
    let addr = args.listen.as_deref().unwrap_or("127.0.0.1:7077");
    let (server, bound) = match &args.unix_sock {
        #[cfg(unix)]
        Some(path) => (Server::bind_unix(path, cfg), format!("unix socket {path}")),
        _ => (Server::bind_tcp(addr, cfg), addr.to_owned()),
    };
    let server = server.or_fail(EXIT_INPUT, format_args!("cannot bind {bound}"))?;
    // Print the *bound* address: `--listen 127.0.0.1:0` picks an
    // ephemeral port, and scripts parse this line to find it.
    match server.local_addr() {
        Some(a) => eprintln!("serving DPSV on {a}"),
        None => eprintln!("serving DPSV on {bound}"),
    }

    install_signal_handlers();
    server.run(shutdown_flag()).or_fail(EXIT_INPUT, "server accept loop failed")?;
    // run() only returns once the stop flag is raised and every
    // connection thread has written its emergency checkpoint.
    Err(fail(EXIT_SIGNAL, "signal: server stopped; in-flight sessions checkpointed"))
}

/// `depprof fuzz` — run the differential fuzz campaign: seeded MiniVM
/// programs through every engine (serial, three parallel transports,
/// served over DPSV, killed-and-resumed), dependence-for-dependence,
/// plus undersized-signature accuracy vs Formula 2 and the web-scale
/// Zipfian stress. Exit 1 when any divergence survives.
fn run_fuzz(args: &Args) -> Cli {
    let opts = depprof::fuzz::FuzzOpts {
        seeds: args.seeds,
        start_seed: args.start_seed,
        quick: args.quick,
        corpus_dir: args.corpus.as_ref().map(PathBuf::from),
        webscale: !args.no_webscale,
        workers: args.spec.workers,
        ..depprof::fuzz::FuzzOpts::default()
    };
    eprintln!(
        "fuzzing {} seeds from {} ({} mode, {} workers) ...",
        opts.seeds,
        opts.start_seed,
        if opts.quick { "quick" } else { "full" },
        opts.workers
    );
    let start = Instant::now();
    let report = depprof::fuzz::run_fuzz(&opts, &mut |line| eprintln!("{line}"));
    eprintln!(
        "fuzz: {} seeds ({} sequential x {} legs, {} multi-threaded), {} accesses, \
         {} webscale streams, {:.1}s",
        report.seeds,
        report.sequential,
        report.sequential_legs,
        report.mt,
        report.total_accesses,
        report.webscale_runs,
        start.elapsed().as_secs_f64()
    );
    if !report.samples.is_empty() {
        eprintln!(
            "fuzz: accuracy over {} undersized runs: mean FPR {:.2}% / FNR {:.2}% \
             vs Formula-2 dep-level bound {:.2}% — {}",
            report.samples.len(),
            report.mean_fpr(),
            report.mean_fnr(),
            report.mean_dep_bound(),
            if report.accuracy_within_formula2() { "within bound" } else { "EXCEEDED" }
        );
    }
    for d in &report.divergences {
        eprintln!(
            "fuzz: DIVERGENCE seed {} leg {} ({} stmts minimized){}: {}",
            d.seed,
            d.leg,
            d.stmts,
            d.corpus_path.as_ref().map(|p| format!(", repro {}", p.display())).unwrap_or_default(),
            d.detail
        );
    }
    for e in &report.webscale_failures {
        eprintln!("fuzz: WEBSCALE FAILURE: {e}");
    }
    if !report.passed() {
        return Err(fail(1, ""));
    }
    eprintln!("fuzz: all engines agree");
    Ok(())
}

/// What `push` talks over: a TCP or a Unix stream.
trait Socket: Read + Write {}
impl<T: Read + Write> Socket for T {}

/// `depprof push` — stream a recorded trace to a running `serve` and
/// print the report it sends back. If the server resumed the session
/// from a checkpoint, the already-profiled prefix is skipped client-side.
/// Connection refusals and mid-stream disconnects are retried with
/// bounded, jittered backoff ([`push_with_retry`]); the jitter seed is
/// the process id so a fleet of pushers does not reconnect in lockstep.
fn run_push(args: &Args) -> Cli {
    let path = &args.input;
    let mut reader = open_trace(path)?;
    let interner = reader.interner().clone();
    let names: Vec<String> =
        (0..interner.len()).map(|id| interner.resolve(id as u32).to_owned()).collect();

    let session = args.session.clone().unwrap_or_else(|| {
        Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "default".into())
    });
    let opts = PushOptions {
        session,
        spec: args.spec,
        checkpoint_every: args.checkpoint_every,
        chunk_events: args.chunk_events,
        throttle_ms: args.throttle_ms,
        request_stats: args.stats.is_some(),
        sync_every_chunks: args.sync_every,
        watch_ms: args.watch,
    };

    // The whole trace is loaded up front: a retry must be able to
    // replay the stream from the server's resume watermark, which an
    // already-consumed reader cannot. A corrupt record aborts the push
    // before the first connection attempt, not mid-session.
    let events = reader
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .or_fail(EXIT_CORRUPT, format_args!("'{path}'"))?;

    let policy = RetryPolicy {
        max_attempts: args.retries,
        base_delay_ms: args.retry_delay_ms,
        max_delay_ms: args.retry_delay_ms.saturating_mul(20).max(1_000),
        seed: std::process::id() as u64,
    };
    let connect = || -> std::io::Result<Box<dyn Socket>> {
        match (&args.connect, &args.unix_sock) {
            (Some(addr), _) => {
                let c = std::net::TcpStream::connect(addr)?;
                c.set_nodelay(true).ok();
                Ok(Box::new(c))
            }
            #[cfg(unix)]
            (None, Some(sock)) => Ok(Box::new(std::os::unix::net::UnixStream::connect(sock)?)),
            _ => unreachable!("the parser requires --connect or --unix"),
        }
    };
    // The chaos wrapper is always in the path; an empty plan is a
    // transparent passthrough, so the clean case pays only the frame
    // accounting.
    let plan = args.chaos_plan.clone().unwrap_or_default();
    let pushed = push_with_retry(
        || connect().map(|c| ChaosStream::new(c, plan.clone())),
        &names,
        &events,
        &opts,
        &policy,
    );

    let r = pushed.map_err(|e| {
        // Backpressure is not a failure of the push, it is the server
        // asking us to come back later — give scripts a distinct code
        // and a concrete retry hint.
        let busy_hint = match &e {
            ClientError::Busy { retry_after_ms } => Some(*retry_after_ms),
            ClientError::Server { code, .. }
                if *code == depprof::types::protocol::error_code::AT_CAPACITY =>
            {
                Some(args.busy_retry_ms)
            }
            _ => None,
        };
        match busy_hint {
            Some(after_ms) => fail(
                EXIT_BUSY,
                format!(
                    "push refused: {e}\nserver is at capacity; retry in ~{after_ms}ms or raise \
                     its --max-sessions (exit code {EXIT_BUSY})"
                ),
            ),
            None => fail(1, format!("push failed: {e}")),
        }
    })?;
    let out = &r.outcome;
    if out.resumed_from > 0 {
        eprintln!(
            "server resumed session '{}' from event {}; sent {} remaining events",
            opts.session, out.resumed_from, out.events_sent
        );
    } else {
        eprintln!("sent {} events to session '{}'", out.events_sent, opts.session);
    }
    if r.reconnects > 0 || r.busy_waits > 0 {
        eprintln!(
            "push survived {} reconnect(s) and {} busy wait(s) \
             ({} events resent, {}ms recovering)",
            r.reconnects, r.busy_waits, r.events_resent, r.recovery_ms_total
        );
    }
    if let Some(dump) = args.watch_dump.as_deref() {
        match &out.last_query_json {
            Some(json) => std::fs::write(dump, json)
                .or_fail(1, format_args!("cannot write --watch-dump '{dump}'"))?,
            None => eprintln!(
                "--watch-dump '{dump}': no QueryResult captured (pass --watch to enable \
                 live analysis queries)"
            ),
        }
    }
    let content = out.stats_json.as_ref().filter(|_| args.stats.is_some()).unwrap_or(&out.report);
    emit(args.out.as_deref(), content)
}

/// `depprof record` — run a sequential workload and write its event
/// stream as a trace file (a recorded DPSV session).
fn run_record(args: &Args) -> Cli {
    let path = args.out.as_deref().unwrap_or("trace.dptr");
    let w = find_workload(&args.input, Scale(args.scale))?;
    if w.meta.parallel {
        return Err(fail(
            EXIT_USAGE,
            "recording multi-threaded targets is not supported (their event order \
             is schedule-dependent); profile them live with `depprof profile`",
        ));
    }
    // Stream to a sibling temp file and rename at the end, so an
    // interrupted recording never leaves a truncated trace under the
    // final name (a previous complete recording survives untouched).
    let tmp = format!("{path}.tmp.{}", std::process::id());
    let file =
        File::create(&tmp).or_fail(EXIT_INPUT, format_args!("cannot create trace file '{tmp}'"))?;
    let write = || -> Result<u64, String> {
        let mut wtr = depprof::trace::TraceWriter::with_names(file, &w.program.interner)
            .map_err(|e| format!("cannot write trace header to '{tmp}': {e}"))?;
        depprof::trace::Interp::new(&w.program).run_seq(&mut wtr);
        let events = wtr.events();
        let file = wtr.finish().map_err(|e| format!("cannot flush trace to '{tmp}': {e}"))?;
        file.sync_all().map_err(|e| format!("cannot sync trace to '{tmp}': {e}"))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("cannot move finished trace into place at '{path}': {e}"))?;
        // Persist the rename itself, as `atomic_write` does: the data is
        // durable already, only the directory entry may lag.
        let dir = Path::new(path).parent().filter(|d| !d.as_os_str().is_empty());
        if let Ok(dir) = File::open(dir.unwrap_or(Path::new("."))) {
            let _ = dir.sync_all();
        }
        Ok(events)
    };
    let events = write().map_err(|message| {
        let _ = std::fs::remove_file(&tmp);
        fail(EXIT_INPUT, message)
    })?;
    eprintln!("recorded {events} events of {} to {path}", w.meta.name);
    Ok(())
}

/// `depprof profile` — run a bundled workload under an engine and print
/// its dependence report (or an analysis, graph, CSV or `--stats` view).
fn run_profile(args: &Args) -> Cli {
    let w = find_workload(&args.input, Scale(args.scale))?;
    let (name, workers) = (w.meta.name, args.spec.workers);

    let chaos_seed = depprof::queue::chaos_seeds(&[0])[0];
    let mut plan = FaultPlan::none().with_seed(chaos_seed);
    if let Some(f) = args.inject_panic {
        plan = plan.with_panic(f.worker, f.after_chunks);
    }
    if let Some(f) = args.inject_stall {
        plan = plan.with_stall(f.worker, f.after_chunks);
    }
    let cfg = ProfilerConfig::default()
        .with_workers(workers)
        .with_slots(args.spec.slots)
        .with_overflow(args.spec.overflow)
        .with_fault_plan(plan);
    let mut result = match args.engine {
        _ if w.meta.parallel => {
            eprintln!(
                "profiling {name} ({} target threads) with the multi-threaded engine, \
                 {workers} workers ...",
                w.meta.nthreads
            );
            depprof::profile_mt(&w.program, cfg)
        }
        Engine::Serial => {
            eprintln!("profiling {name} with the serial signature engine ...");
            depprof::profile_sequential(&w.program, args.spec.slots)
        }
        Engine::Perfect => {
            eprintln!("profiling {name} with the perfect-signature baseline ...");
            depprof::profile_sequential_perfect(&w.program)
        }
        Engine::Parallel => {
            // The target is sequential (one producer), so the SPSC
            // fast path is the default unless --transport overrides.
            let cfg = cfg.with_transport(args.spec.transport);
            eprintln!(
                "profiling {name} with the parallel pipeline ({} transport), {workers} workers ...",
                cfg.transport.name()
            );
            depprof::profile_parallel(&w.program, cfg)
        }
        Engine::LockBased => {
            eprintln!("profiling {name} with the lock-based pipeline, {workers} workers ...");
            depprof::profile_parallel(&w.program, cfg.with_transport(TransportKind::Lock))
        }
    };

    result.metrics.chaos_seed = chaos_seed;
    eprintln!("{}\n", report::summary(&result));
    emit_result(args, &result, || match args.output {
        Output::Report => report::render(&result, &w.program.interner, w.meta.parallel),
        Output::Dot => depprof::analysis::DepGraph::build(&result).to_dot(w.meta.parallel),
        Output::Csv => report::to_csv(&result, &w.program.interner),
        Output::Analyze => {
            let metas: Vec<LoopMeta> = w
                .program
                .loops
                .iter()
                .map(|l| LoopMeta { id: l.id, name: l.name.clone(), omp: l.omp })
                .collect();
            let fragments = text_sections(
                &result,
                &w.program.interner,
                &metas,
                &w.program.func_names,
                if w.meta.parallel { w.meta.nthreads as usize + 1 } else { 0 },
            );
            let mut out: String = fragments
                .iter()
                .map(|(name, fragment)| format!("== {name} ==\n{fragment}\n\n"))
                .collect();
            out.pop(); // `emit` ends the artifact with one newline of its own
            out
        }
    })
}

fn run_list() {
    println!("NAS:       BT SP LU IS EP CG MG FT");
    println!(
        "Starbench: c-ray kmeans md5 ray-rot rgbyuv rotate rot-cc streamcluster \
         tinyjpeg bodytrack h264dec"
    );
    println!("SPLASH:    water-spatial (8 target threads)");
    println!("synthetic: racy-counter locked-counter (4 target threads)");
}

fn run() -> Cli {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = flags::parse(&argv).map_err(|e| {
        let error = if e.is_empty() { e } else { format!("error: {e}\n\n") };
        fail(EXIT_USAGE, error + &flags::usage())
    })?;
    match args.verb {
        Verb::List => run_list(),
        Verb::Profile => run_profile(&args)?,
        Verb::Record => run_record(&args)?,
        Verb::Replay => run_replay(&args)?,
        Verb::Serve => run_serve(&args)?,
        Verb::Push => run_push(&args)?,
        Verb::Fuzz => run_fuzz(&args)?,
    }
    Ok(())
}

/// The one place a verb's failure becomes an exit code (the watchdog's
/// hard-timeout callback is the only other `exit`: by then nothing can
/// be trusted to return here).
fn main() {
    if let Err(e) = run() {
        if !e.message.is_empty() {
            eprintln!("{}", e.message);
        }
        std::process::exit(e.code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A replay checkpoint's CONFIG section is an on-disk format: this
    /// blob was written by `replay km.dptr --engine parallel --transport
    /// mpmc --workers 3 --slots 4096 --no-redistribution
    /// --checkpoint-every 5000` and must decode and re-encode unchanged.
    #[test]
    fn replay_config_bytes_are_pinned() {
        let hex = "070000006b6d2e647074720101030000000010000000000000881300000000000001";
        let blob: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let rc = ReplayConfig::decode(&blob).unwrap();
        let spec = SessionSpec {
            parallel: true,
            transport: TransportKind::Mpmc,
            workers: 3,
            slots: 4096,
            redistribution: false,
            ..SessionSpec::default()
        };
        assert_eq!(rc, ReplayConfig { trace_path: "km.dptr".into(), spec, checkpoint_every: 5000 });
        assert_eq!(rc.encode(), blob);
        assert!(ReplayConfig::decode(&blob[..blob.len() - 1]).is_err(), "truncated");
    }
}
