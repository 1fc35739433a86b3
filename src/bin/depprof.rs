//! `depprof` — command-line front-end to the dependence profiler.
//!
//! ```text
//! depprof list
//! depprof profile <workload> [--engine serial|parallel|lock-based|perfect]
//!                            [--transport spsc|mpmc|lock]
//!                            [--overflow block|drop]
//!                            [--workers N] [--slots N] [--scale F]
//!                            [--inject-panic W@N] [--inject-stall W@N]
//!                            [--report|--analyze|--dot|--csv]
//!                            [--stats json|text] [--out PATH]
//! depprof record <workload>  [--out trace.dptr] [--scale F]
//! depprof replay <trace.dptr> [--engine serial|parallel]
//!                            [--transport spsc|mpmc|lock]
//!                            [--workers N] [--slots N]
//!                            [--checkpoint-every N] [--checkpoint-dir DIR]
//!                            [--watchdog-deadline MS]
//!                            [--inject-kill-after N] [--no-redistribution]
//!                            [--stats json|text] [--report-out PATH]
//! depprof replay --resume <dir> [--watchdog-deadline MS] ...
//! depprof serve              [--listen HOST:PORT] [--unix PATH]
//!                            [--max-sessions N]
//!                            [--checkpoint-dir DIR] [--checkpoint-every N]
//!                            [--busy-retry-ms MS] [--hibernate-after MS]
//!                            [--chaos SPEC]
//! depprof push <trace.dptr>  (--connect HOST:PORT | --unix PATH)
//!                            [--session NAME] [--engine serial|parallel]
//!                            [--transport spsc|mpmc|lock] [--workers N]
//!                            [--slots N] [--checkpoint-every N]
//!                            [--chunk-events N] [--throttle-ms MS]
//!                            [--retries N] [--retry-delay-ms MS]
//!                            [--sync-every N] [--chaos SPEC]
//!                            [--watch[=MS]] [--watch-dump PATH]
//!                            [--stats json] [--report-out PATH]
//! ```
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
//! `serve` runs the profiler as a network service speaking the DPSV v1
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
//! class: `2` usage errors (bad flag, unknown engine), `3` missing or
//! unopenable inputs (unknown workload, absent trace file), `4` a trace
//! file or checkpoint that exists but is corrupt or truncated, `5` a
//! profile that completed *degraded* (worker failures or dropped events —
//! the report is still printed, with a `WARNING:` banner on stderr), `6`
//! the run watchdog gave up on a stalled pipeline, `7` terminated by
//! SIGINT/SIGTERM after a final emergency checkpoint (`replay`, `serve`),
//! `8` the server refused a `push` with typed backpressure and the retry
//! budget ran out (nothing was profiled; retry after the hinted delay).

use depprof::analysis::{degradation, Framework, LoopMeta};
use depprof::core::{
    report, CheckpointMetrics, CheckpointStore, OverflowPolicy, ProfileResult, ProfileSession,
    ProfilerConfig, SessionSpec, TransportKind, Watchdog, WorkerFault,
};
use depprof::server::{
    install_signal_handlers, push_with_retry, shutdown_flag, ChaosStream, ClientError,
    NetFaultPlan, PushOptions, RetryPolicy, Server, ServerConfig,
};
use depprof::trace::workloads::{nas_suite, splash, starbench_suite, synth, Scale, Workload};
use depprof::trace::TraceReader;
use depprof::types::wire::{atomic_write, ByteReader, ByteWriter, WireError};
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

#[derive(Default)]
struct Args {
    workload: String,
    engine: String,
    workers: usize,
    slots: usize,
    scale: f64,
    mode: String,
    transport: Option<TransportKind>,
    overflow: Option<OverflowPolicy>,
    inject_panic: Option<WorkerFault>,
    inject_stall: Option<WorkerFault>,
    stats: Option<String>,
    /// Replay: which engine consumes the trace (serial|parallel).
    replay_engine: String,
    /// Replay: checkpoint every N trace records (0 = off).
    checkpoint_every: u64,
    /// Replay: checkpoint directory (default `<trace>.ckpt`).
    checkpoint_dir: Option<String>,
    /// Replay: resume from this checkpoint directory.
    resume: Option<String>,
    /// Watchdog no-progress deadline in milliseconds (0 = off).
    watchdog_deadline_ms: u64,
    /// Replay: SIGKILL the process after feeding N records this run.
    inject_kill_after: Option<u64>,
    /// Replay (parallel engine): disable hot-address redistribution.
    no_redistribution: bool,
    /// Replay (parallel engine): override the supervisor's stall deadline
    /// (lets tests pit the run watchdog against a wedged pipeline without
    /// the per-worker supervision recovering it first).
    stall_deadline_ms: Option<u64>,
    /// Write the main artifact (report or stats) to this path atomically
    /// instead of stdout.
    out: Option<String>,
    /// Serve: TCP listen address.
    listen: Option<String>,
    /// Serve/push: Unix socket path.
    unix_sock: Option<String>,
    /// Push: TCP address to connect to.
    connect: Option<String>,
    /// Push: session name (resume identity on the server).
    session: Option<String>,
    /// Serve: concurrent-session cap.
    max_sessions: usize,
    /// Push: accesses per Chunk frame.
    chunk_events: usize,
    /// Push: sleep between chunk frames (ms).
    throttle_ms: u64,
    /// Push: total connection attempts before giving up.
    retries: u32,
    /// Push: base reconnect backoff delay (ms).
    retry_delay_ms: u64,
    /// Push: send a Sync watermark probe every N chunks (0 = never).
    sync_every: u64,
    /// Push: query live analysis every N ms while streaming (`--watch[=MS]`).
    watch: Option<u64>,
    /// Push: write the final QueryResult JSON to this path.
    watch_dump: Option<String>,
    /// Serve: Busy retry hint handed to refused clients (ms).
    busy_retry_ms: u64,
    /// Serve: hibernate idle durable sessions after this long (ms, 0 = never).
    hibernate_after_ms: u64,
    /// Serve/push: network fault-injection plan (`--chaos SPEC`).
    chaos_plan: Option<NetFaultPlan>,
    /// Fuzz: programs to generate and check.
    seeds: u64,
    /// Fuzz: first seed (shards campaigns across CI jobs).
    start_seed: u64,
    /// Fuzz: small/fast generator configuration.
    quick: bool,
    /// Fuzz: directory minimized repros are written to.
    corpus: Option<String>,
    /// Fuzz: skip the web-scale Zipfian stress streams.
    no_webscale: bool,
}

fn base_args() -> Args {
    Args {
        workers: 8,
        slots: 1 << 20,
        scale: 0.25,
        replay_engine: "serial".into(),
        max_sessions: 16,
        chunk_events: 512,
        retries: 5,
        retry_delay_ms: 100,
        busy_retry_ms: 200,
        ..Args::default()
    }
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        return Err("usage".into());
    }
    if argv[0] == "record" || argv[0] == "replay" {
        let mut a = base_args();
        a.engine = argv[0].clone();
        a.mode = "trace".into();
        // `replay --resume DIR` has no trace argument; everything else
        // starts with one.
        let mut i = if argv.get(1).is_some_and(|s| s.starts_with("--")) {
            1
        } else {
            a.workload = argv.get(1).cloned().ok_or("record/replay need an argument")?;
            2
        };
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    i += 1;
                    a.scale = argv.get(i).and_then(|s| s.parse().ok()).ok_or("--scale: float")?;
                }
                "--slots" => {
                    i += 1;
                    a.slots = argv.get(i).and_then(|s| s.parse().ok()).ok_or("--slots: int")?;
                }
                "--out" | "--in" => {
                    i += 1;
                    a.mode = argv.get(i).cloned().ok_or("--out/--in need a path")?;
                }
                "--engine" if a.engine == "replay" => {
                    i += 1;
                    let v = argv.get(i).cloned().ok_or("--engine needs a value")?;
                    if v != "serial" && v != "parallel" {
                        return Err(format!(
                            "--engine: replay supports serial|parallel, not '{v}'"
                        ));
                    }
                    a.replay_engine = v;
                }
                "--transport" if a.engine == "replay" => {
                    i += 1;
                    let v = argv.get(i).ok_or("--transport needs a value")?;
                    a.transport = Some(
                        TransportKind::parse(v)
                            .ok_or_else(|| format!("--transport: unknown kind '{v}'"))?,
                    );
                }
                "--workers" if a.engine == "replay" => {
                    i += 1;
                    a.workers = argv.get(i).and_then(|s| s.parse().ok()).ok_or("--workers: int")?;
                }
                "--checkpoint-every" if a.engine == "replay" => {
                    i += 1;
                    a.checkpoint_every = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--checkpoint-every: positive record count")?;
                }
                "--checkpoint-dir" if a.engine == "replay" => {
                    i += 1;
                    a.checkpoint_dir =
                        Some(argv.get(i).cloned().ok_or("--checkpoint-dir needs a path")?);
                }
                "--resume" if a.engine == "replay" => {
                    i += 1;
                    a.resume = Some(argv.get(i).cloned().ok_or("--resume needs a directory")?);
                }
                "--watchdog-deadline" if a.engine == "replay" => {
                    i += 1;
                    a.watchdog_deadline_ms = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--watchdog-deadline: positive milliseconds")?;
                }
                "--inject-kill-after" if a.engine == "replay" => {
                    i += 1;
                    a.inject_kill_after = Some(
                        argv.get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or("--inject-kill-after: record count")?,
                    );
                }
                "--no-redistribution" if a.engine == "replay" => a.no_redistribution = true,
                "--overflow" if a.engine == "replay" => {
                    i += 1;
                    let v = argv.get(i).ok_or("--overflow needs a value")?;
                    a.overflow =
                        Some(OverflowPolicy::parse(v).ok_or_else(|| {
                            format!("--overflow: unknown policy '{v}' (block|drop)")
                        })?);
                }
                "--inject-stall" if a.engine == "replay" => {
                    i += 1;
                    let v = argv.get(i).ok_or("--inject-stall needs WORKER@CHUNKS")?;
                    a.inject_stall = Some(
                        WorkerFault::parse(v)
                            .ok_or_else(|| format!("--inject-stall: bad spec '{v}' (e.g. 2@5)"))?,
                    );
                }
                "--stall-deadline" if a.engine == "replay" => {
                    i += 1;
                    a.stall_deadline_ms = Some(
                        argv.get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or("--stall-deadline: milliseconds")?,
                    );
                }
                "--stats" if a.engine == "replay" => {
                    i += 1;
                    let v = argv.get(i).ok_or("--stats needs a format (json|text)")?;
                    if v != "json" && v != "text" {
                        return Err(format!("--stats: unknown format '{v}' (json|text)"));
                    }
                    a.stats = Some(v.clone());
                }
                "--report-out" if a.engine == "replay" => {
                    i += 1;
                    a.out = Some(argv.get(i).cloned().ok_or("--report-out needs a path")?);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        if a.engine == "replay" && a.workload.is_empty() && a.resume.is_none() {
            return Err("replay needs a trace file or --resume <dir>".into());
        }
        if a.engine == "record" && a.workload.is_empty() {
            return Err("record needs a workload name".into());
        }
        return Ok(a);
    }
    if argv[0] == "serve" {
        let mut a = base_args();
        a.engine = "serve".into();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--listen" => {
                    i += 1;
                    a.listen = Some(argv.get(i).cloned().ok_or("--listen needs HOST:PORT")?);
                }
                "--unix" => {
                    i += 1;
                    a.unix_sock = Some(argv.get(i).cloned().ok_or("--unix needs a path")?);
                }
                "--max-sessions" => {
                    i += 1;
                    a.max_sessions = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--max-sessions: positive count")?;
                }
                "--checkpoint-dir" => {
                    i += 1;
                    a.checkpoint_dir =
                        Some(argv.get(i).cloned().ok_or("--checkpoint-dir needs a path")?);
                }
                "--checkpoint-every" => {
                    i += 1;
                    a.checkpoint_every = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--checkpoint-every: positive event count")?;
                }
                "--busy-retry-ms" => {
                    i += 1;
                    a.busy_retry_ms = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--busy-retry-ms: milliseconds")?;
                }
                "--hibernate-after" => {
                    i += 1;
                    a.hibernate_after_ms = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--hibernate-after: positive milliseconds")?;
                }
                "--chaos" => {
                    i += 1;
                    let spec = argv.get(i).ok_or("--chaos needs a fault spec")?;
                    a.chaos_plan = Some(NetFaultPlan::parse(spec)?);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        return Ok(a);
    }
    if argv[0] == "push" {
        let mut a = base_args();
        a.engine = "push".into();
        a.workload = argv.get(1).cloned().ok_or("push needs a trace file")?;
        if a.workload.starts_with("--") {
            return Err("push needs a trace file before its flags".into());
        }
        let mut i = 2;
        while i < argv.len() {
            match argv[i].as_str() {
                "--connect" => {
                    i += 1;
                    a.connect = Some(argv.get(i).cloned().ok_or("--connect needs HOST:PORT")?);
                }
                "--unix" => {
                    i += 1;
                    a.unix_sock = Some(argv.get(i).cloned().ok_or("--unix needs a path")?);
                }
                "--session" => {
                    i += 1;
                    a.session = Some(argv.get(i).cloned().ok_or("--session needs a name")?);
                }
                "--engine" => {
                    i += 1;
                    let v = argv.get(i).cloned().ok_or("--engine needs a value")?;
                    if v != "serial" && v != "parallel" {
                        return Err(format!("--engine: push supports serial|parallel, not '{v}'"));
                    }
                    a.replay_engine = v;
                }
                "--transport" => {
                    i += 1;
                    let v = argv.get(i).ok_or("--transport needs a value")?;
                    a.transport = Some(
                        TransportKind::parse(v)
                            .ok_or_else(|| format!("--transport: unknown kind '{v}'"))?,
                    );
                }
                "--overflow" => {
                    i += 1;
                    let v = argv.get(i).ok_or("--overflow needs a value")?;
                    a.overflow =
                        Some(OverflowPolicy::parse(v).ok_or_else(|| {
                            format!("--overflow: unknown policy '{v}' (block|drop)")
                        })?);
                }
                "--workers" => {
                    i += 1;
                    a.workers = argv.get(i).and_then(|s| s.parse().ok()).ok_or("--workers: int")?;
                }
                "--slots" => {
                    i += 1;
                    a.slots = argv.get(i).and_then(|s| s.parse().ok()).ok_or("--slots: int")?;
                }
                "--checkpoint-every" => {
                    i += 1;
                    a.checkpoint_every = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--checkpoint-every: positive event count")?;
                }
                "--chunk-events" => {
                    i += 1;
                    a.chunk_events = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--chunk-events: positive count")?;
                }
                "--throttle-ms" => {
                    i += 1;
                    a.throttle_ms =
                        argv.get(i).and_then(|s| s.parse().ok()).ok_or("--throttle-ms: int")?;
                }
                "--retries" => {
                    i += 1;
                    a.retries = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u32| n > 0)
                        .ok_or("--retries: positive attempt count")?;
                }
                "--retry-delay-ms" => {
                    i += 1;
                    a.retry_delay_ms =
                        argv.get(i).and_then(|s| s.parse().ok()).ok_or("--retry-delay-ms: int")?;
                }
                "--sync-every" => {
                    i += 1;
                    a.sync_every =
                        argv.get(i).and_then(|s| s.parse().ok()).ok_or("--sync-every: int")?;
                }
                "--chaos" => {
                    i += 1;
                    let spec = argv.get(i).ok_or("--chaos needs a fault spec")?;
                    a.chaos_plan = Some(NetFaultPlan::parse(spec)?);
                }
                "--watch" => a.watch = Some(1000),
                w if w.starts_with("--watch=") => {
                    a.watch = Some(
                        w["--watch=".len()..]
                            .parse()
                            .map_err(|_| "--watch=MS: interval in milliseconds")?,
                    );
                }
                "--watch-dump" => {
                    i += 1;
                    a.watch_dump = Some(argv.get(i).cloned().ok_or("--watch-dump needs a path")?);
                }
                "--no-redistribution" => a.no_redistribution = true,
                "--stats" => {
                    i += 1;
                    let v = argv.get(i).ok_or("--stats needs a format (json)")?;
                    if v != "json" {
                        return Err(format!("--stats: push supports json, not '{v}'"));
                    }
                    a.stats = Some(v.clone());
                }
                "--report-out" => {
                    i += 1;
                    a.out = Some(argv.get(i).cloned().ok_or("--report-out needs a path")?);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        if a.connect.is_none() && a.unix_sock.is_none() {
            return Err("push needs --connect HOST:PORT or --unix PATH".into());
        }
        return Ok(a);
    }
    if argv[0] == "fuzz" {
        let mut a = base_args();
        a.engine = "fuzz".into();
        a.seeds = 50;
        a.workers = 3;
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--seeds" => {
                    i += 1;
                    a.seeds = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--seeds: positive count")?;
                }
                "--start-seed" => {
                    i += 1;
                    a.start_seed =
                        argv.get(i).and_then(|s| s.parse().ok()).ok_or("--start-seed: int")?;
                }
                "--quick" => a.quick = true,
                "--corpus" => {
                    i += 1;
                    a.corpus = Some(argv.get(i).cloned().ok_or("--corpus needs a directory")?);
                }
                "--no-webscale" => a.no_webscale = true,
                "--workers" => {
                    i += 1;
                    a.workers = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--workers: positive count")?;
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        return Ok(a);
    }
    if argv[0] == "list" {
        return Ok(Args { workload: "list".into(), ..Args::default() });
    }
    if argv[0] != "profile" {
        return Err(format!("unknown command '{}'", argv[0]));
    }
    let mut a = base_args();
    a.workload = argv.get(1).cloned().ok_or("profile needs a workload name")?;
    a.engine = "serial".into();
    a.mode = "report".into();
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--engine" => {
                i += 1;
                a.engine = argv.get(i).cloned().ok_or("--engine needs a value")?;
            }
            "--transport" => {
                i += 1;
                let v = argv.get(i).ok_or("--transport needs a value")?;
                a.transport = Some(
                    TransportKind::parse(v)
                        .ok_or_else(|| format!("--transport: unknown kind '{v}'"))?,
                );
            }
            "--overflow" => {
                i += 1;
                let v = argv.get(i).ok_or("--overflow needs a value")?;
                a.overflow = Some(
                    OverflowPolicy::parse(v)
                        .ok_or_else(|| format!("--overflow: unknown policy '{v}' (block|drop)"))?,
                );
            }
            "--inject-panic" => {
                i += 1;
                let v = argv.get(i).ok_or("--inject-panic needs WORKER@CHUNKS")?;
                a.inject_panic = Some(
                    WorkerFault::parse(v)
                        .ok_or_else(|| format!("--inject-panic: bad spec '{v}' (e.g. 2@5)"))?,
                );
            }
            "--inject-stall" => {
                i += 1;
                let v = argv.get(i).ok_or("--inject-stall needs WORKER@CHUNKS")?;
                a.inject_stall = Some(
                    WorkerFault::parse(v)
                        .ok_or_else(|| format!("--inject-stall: bad spec '{v}' (e.g. 2@5)"))?,
                );
            }
            "--workers" => {
                i += 1;
                a.workers = argv.get(i).and_then(|s| s.parse().ok()).ok_or("--workers: int")?;
            }
            "--slots" => {
                i += 1;
                a.slots = argv.get(i).and_then(|s| s.parse().ok()).ok_or("--slots: int")?;
            }
            "--scale" => {
                i += 1;
                a.scale = argv.get(i).and_then(|s| s.parse().ok()).ok_or("--scale: float")?;
            }
            "--stats" => {
                i += 1;
                let v = argv.get(i).ok_or("--stats needs a format (json|text)")?;
                if v != "json" && v != "text" {
                    return Err(format!("--stats: unknown format '{v}' (json|text)"));
                }
                a.stats = Some(v.clone());
            }
            "--out" => {
                i += 1;
                a.out = Some(argv.get(i).cloned().ok_or("--out needs a path")?);
            }
            "--report" => a.mode = "report".into(),
            "--analyze" => a.mode = "analyze".into(),
            "--dot" => a.mode = "dot".into(),
            "--csv" => a.mode = "csv".into(),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(a)
}

fn find_workload(name: &str, scale: Scale) -> Option<Workload> {
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
}

/// Everything a resumed run needs to rebuild the engine exactly as the
/// interrupted run configured it. Serialized into the checkpoint's CONFIG
/// section, so `depprof replay --resume <dir>` takes no other flags.
struct ReplayConfig {
    trace_path: String,
    parallel: bool,
    transport: TransportKind,
    workers: usize,
    slots: usize,
    checkpoint_every: u64,
    no_redistribution: bool,
}

impl ReplayConfig {
    fn from_args(a: &Args) -> Self {
        ReplayConfig {
            trace_path: a.workload.clone(),
            parallel: a.replay_engine == "parallel",
            transport: a.transport.unwrap_or(TransportKind::Spsc),
            workers: a.workers,
            slots: a.slots,
            checkpoint_every: a.checkpoint_every,
            no_redistribution: a.no_redistribution,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.blob(self.trace_path.as_bytes());
        w.u8(self.parallel as u8);
        w.u8(match self.transport {
            TransportKind::Spsc => 0,
            TransportKind::Mpmc => 1,
            TransportKind::Lock => 2,
        });
        w.u32(self.workers as u32);
        w.u64(self.slots as u64);
        w.u64(self.checkpoint_every);
        w.u8(self.no_redistribution as u8);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let trace_path = String::from_utf8(r.blob()?.to_vec())
            .map_err(|_| WireError::Invalid("trace path in checkpoint is not UTF-8"))?;
        let parallel = r.u8()? != 0;
        let transport = match r.u8()? {
            0 => TransportKind::Spsc,
            1 => TransportKind::Mpmc,
            2 => TransportKind::Lock,
            _ => return Err(WireError::Invalid("unknown transport code in checkpoint")),
        };
        let workers = r.u32()? as usize;
        let slots = r.u64()? as usize;
        let checkpoint_every = r.u64()?;
        let no_redistribution = r.u8()? != 0;
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after replay config"));
        }
        Ok(ReplayConfig {
            trace_path,
            parallel,
            transport,
            workers,
            slots,
            checkpoint_every,
            no_redistribution,
        })
    }
}

/// Writes a CLI artifact: to stdout by default, or atomically (hidden
/// temp file + fsync + rename) to `path` — a crash mid-write can never
/// leave a torn or half-written artifact behind.
fn emit(path: Option<&str>, content: &str) {
    match path {
        None => println!("{content}"),
        Some(p) => {
            let mut bytes = content.as_bytes().to_vec();
            bytes.push(b'\n');
            if let Err(e) = atomic_write(Path::new(p), &bytes) {
                eprintln!("cannot write '{p}': {e}");
                std::process::exit(EXIT_INPUT);
            }
            eprintln!("wrote {} bytes to {p}", bytes.len());
        }
    }
}

/// Prints the degraded-profile banner (worker failures plus the
/// Formula-1 coverage estimate). The effective chaos seed rides along so
/// a loss observed under fault injection can be replayed exactly from
/// the log alone.
fn warn_degraded(result: &ProfileResult, chaos_seed: u64) {
    for f in &result.stats.worker_failures {
        eprintln!("WARNING: {f}");
    }
    let d = degradation(result);
    eprintln!(
        "WARNING: {} — expected FNR ~{:.2}% (chaos seed {chaos_seed})",
        d.summary(),
        d.expected_fnr()
    );
}

/// `depprof replay` — feed a recorded trace into an engine, with optional
/// durability: periodic checkpoints, crash resume, and a run watchdog.
fn run_replay(args: &Args) {
    // Resolve the run configuration: a fresh run takes it from the flags,
    // a resumed run from the checkpoint's own CONFIG section.
    let resume_data =
        args.resume.as_ref().map(|dir| match CheckpointStore::open(dir.clone()).load_latest() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot resume from '{dir}': {e}");
                std::process::exit(EXIT_CORRUPT);
            }
        });
    let rc = match &resume_data {
        Some(d) => match ReplayConfig::decode(&d.config) {
            Ok(rc) => rc,
            Err(e) => {
                eprintln!("checkpoint config section is unreadable: {e}");
                std::process::exit(EXIT_CORRUPT);
            }
        },
        None => ReplayConfig::from_args(args),
    };
    let path = rc.trace_path.clone();

    // Open the trace; on resume, skip the records the interrupted run
    // already profiled (the checkpoint records the reader position).
    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open trace file '{path}': {e}");
            std::process::exit(EXIT_INPUT);
        }
    };
    let mut reader = match TraceReader::new(file) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("'{path}': {e}");
            std::process::exit(EXIT_CORRUPT);
        }
    };
    let interner = reader.interner().clone();
    if let Some(d) = &resume_data {
        while reader.records_read() < d.records_read {
            match reader.next() {
                Some(Ok(_)) => {}
                Some(Err(e)) => {
                    eprintln!("'{path}': {e}");
                    std::process::exit(EXIT_CORRUPT);
                }
                None => {
                    eprintln!(
                        "checkpoint was taken {} records in, but '{path}' ends after {}",
                        d.records_read,
                        reader.records_read()
                    );
                    std::process::exit(EXIT_CORRUPT);
                }
            }
        }
        eprintln!(
            "resuming from checkpoint generation {} at record {}",
            d.generation, d.records_read
        );
    }

    // Build (or restore) the engine. Fault-injection knobs (stall,
    // overflow policy) are runtime test levers, deliberately NOT part of
    // the persisted ReplayConfig — a resumed run is healthy by default.
    let chaos_seed = depprof::queue::chaos_seeds(&[0])[0];
    let spec = SessionSpec {
        parallel: rc.parallel,
        transport: rc.transport,
        overflow: args.overflow.unwrap_or_default(),
        redistribution: !rc.no_redistribution,
        workers: rc.workers,
        slots: rc.slots,
    };
    let mut cfg = spec.config();
    if let Some(f) = args.inject_stall {
        cfg = cfg.with_fault_plan(
            depprof::core::FaultPlan::none()
                .with_seed(chaos_seed)
                .with_stall(f.worker, f.after_chunks),
        );
    }
    if let Some(ms) = args.stall_deadline_ms {
        cfg = cfg.with_stall_deadline_ms(ms);
    }
    let mut engine = match spec.open(cfg, resume_data.as_ref()) {
        Ok(engine) => engine,
        Err(e) => {
            let what = if rc.parallel {
                "resume the parallel pipeline"
            } else {
                "restore the serial engine"
            };
            eprintln!("cannot {what}: {e}");
            std::process::exit(EXIT_CORRUPT);
        }
    };

    // A checkpoint store is needed for periodic checkpoints and for the
    // watchdog's emergency checkpoint. Resumed runs keep writing into the
    // directory they resumed from, preserving the two-generation rotation.
    let store = if rc.checkpoint_every > 0 || args.watchdog_deadline_ms > 0 {
        let dir = args
            .resume
            .clone()
            .or_else(|| args.checkpoint_dir.clone())
            .unwrap_or_else(|| format!("{path}.ckpt"));
        match CheckpointStore::create(dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("cannot create checkpoint directory: {e}");
                std::process::exit(EXIT_INPUT);
            }
        }
    } else {
        None
    };

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
        let ev = match rec {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("'{path}': {e}");
                std::process::exit(EXIT_CORRUPT);
            }
        };
        engine.on_event(ev);
        fed += 1;
        if shutdown_flag().load(Ordering::SeqCst) {
            if store.is_none() {
                eprintln!("signal: terminating (checkpointing is off, nothing to save)");
            }
            checkpoint(&mut engine, generation, reader.records_read(), "signal: ");
            std::process::exit(EXIT_SIGNAL);
        }
        if let Some(p) = &wd_progress {
            p.store(fed + engine.heartbeat(), Ordering::Relaxed);
        }
        if watchdog.as_ref().is_some_and(|w| w.fired()) {
            if store.is_none() {
                eprintln!("watchdog: stalled (checkpointing is off, nothing to save)");
            }
            checkpoint(&mut engine, generation, reader.records_read(), "watchdog: stalled; ");
            std::process::exit(EXIT_WATCHDOG);
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
        if args.inject_kill_after == Some(fed) {
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
    let content = match args.stats.as_deref() {
        Some("json") => result.metrics.to_json(),
        Some(_) => result.metrics.to_text(),
        None => report::render(&result, &interner, false),
    };
    emit(args.out.as_deref(), &content);

    if degradation(&result).degraded() {
        warn_degraded(&result, chaos_seed);
        std::process::exit(EXIT_DEGRADED);
    }
}

/// `depprof serve` — run the profiler as a long-lived network service.
/// Listens for DPSV v1 connections, one profiling session per client,
/// until SIGINT/SIGTERM; in-flight sessions are emergency-checkpointed
/// on shutdown and resumed when their clients reconnect.
fn run_serve(args: &Args) {
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
    #[cfg(unix)]
    let server = if let Some(path) = &args.unix_sock {
        match Server::bind_unix(path, cfg) {
            Ok(s) => {
                eprintln!("serving DPSV on unix socket {path}");
                s
            }
            Err(e) => {
                eprintln!("cannot bind unix socket '{path}': {e}");
                std::process::exit(EXIT_INPUT);
            }
        }
    } else {
        bind_tcp_or_die(args, cfg)
    };
    #[cfg(not(unix))]
    let server = {
        if args.unix_sock.is_some() {
            eprintln!("--unix is only available on unix platforms");
            std::process::exit(EXIT_USAGE);
        }
        bind_tcp_or_die(args, cfg)
    };

    install_signal_handlers();
    if let Err(e) = server.run(shutdown_flag()) {
        eprintln!("server accept loop failed: {e}");
        std::process::exit(EXIT_INPUT);
    }
    // run() only returns once the stop flag is raised and every
    // connection thread has written its emergency checkpoint.
    eprintln!("signal: server stopped; in-flight sessions checkpointed");
    std::process::exit(EXIT_SIGNAL);
}

fn bind_tcp_or_die(args: &Args, cfg: ServerConfig) -> Server {
    let addr = args.listen.as_deref().unwrap_or("127.0.0.1:7077");
    match Server::bind_tcp(addr, cfg) {
        // Print the *bound* address: `--listen 127.0.0.1:0` picks an
        // ephemeral port, and scripts parse this line to find it.
        Ok(s) => {
            match s.local_addr() {
                Some(a) => eprintln!("serving DPSV on {a}"),
                None => eprintln!("serving DPSV on {addr}"),
            }
            s
        }
        Err(e) => {
            eprintln!("cannot bind '{addr}': {e}");
            std::process::exit(EXIT_INPUT);
        }
    }
}

/// `depprof fuzz` — run the differential fuzz campaign: seeded MiniVM
/// programs through every engine (serial, three parallel transports,
/// served over DPSV, killed-and-resumed), dependence-for-dependence,
/// plus undersized-signature accuracy vs Formula 2 and the web-scale
/// Zipfian stress. Exit 1 when any divergence survives.
fn run_fuzz_cmd(args: &Args) {
    let opts = depprof::fuzz::FuzzOpts {
        seeds: args.seeds,
        start_seed: args.start_seed,
        quick: args.quick,
        corpus_dir: args.corpus.as_ref().map(PathBuf::from),
        webscale: !args.no_webscale,
        workers: args.workers,
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
        "fuzz: {} seeds ({} sequential x 13 legs, {} multi-threaded), {} accesses, \
         {} webscale streams, {:.1}s",
        report.seeds,
        report.sequential,
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
    if report.passed() {
        eprintln!("fuzz: all engines agree");
    } else {
        std::process::exit(1);
    }
}

/// `depprof push` — stream a recorded trace to a running `serve` and
/// print the report it sends back. If the server resumed the session
/// from a checkpoint, the already-profiled prefix is skipped client-side.
/// Connection refusals and mid-stream disconnects are retried with
/// bounded, jittered backoff ([`push_with_retry`]); the jitter seed is
/// the process id so a fleet of pushers does not reconnect in lockstep.
fn run_push(args: &Args) {
    let path = &args.workload;
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open trace file '{path}': {e}");
            std::process::exit(EXIT_INPUT);
        }
    };
    let mut reader = match TraceReader::new(file) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("'{path}': {e}");
            std::process::exit(EXIT_CORRUPT);
        }
    };
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
        spec: SessionSpec {
            parallel: args.replay_engine == "parallel",
            transport: args.transport.unwrap_or(TransportKind::Spsc),
            overflow: args.overflow.unwrap_or(OverflowPolicy::Block),
            redistribution: !args.no_redistribution,
            workers: args.workers,
            slots: args.slots,
        },
        checkpoint_every: args.checkpoint_every,
        chunk_events: args.chunk_events,
        throttle_ms: args.throttle_ms,
        request_stats: args.stats.as_deref() == Some("json"),
        sync_every_chunks: args.sync_every,
        watch_ms: args.watch,
    };

    // The whole trace is loaded up front: a retry must be able to
    // replay the stream from the server's resume watermark, which an
    // already-consumed reader cannot. A corrupt record aborts the push
    // before the first connection attempt, not mid-session.
    let mut events = Vec::new();
    for ev in reader.by_ref() {
        match ev {
            Ok(ev) => events.push(ev),
            Err(e) => {
                eprintln!("'{path}': {e}");
                std::process::exit(EXIT_CORRUPT);
            }
        }
    }

    let policy = RetryPolicy {
        max_attempts: args.retries,
        base_delay_ms: args.retry_delay_ms,
        max_delay_ms: args.retry_delay_ms.saturating_mul(20).max(1_000),
        seed: std::process::id() as u64,
    };
    // The chaos wrapper is always in the path; an empty plan is a
    // transparent passthrough, so the clean case pays only the frame
    // accounting.
    let plan = args.chaos_plan.clone().unwrap_or_default();

    let outcome = if let Some(addr) = &args.connect {
        push_with_retry(
            || {
                let c = std::net::TcpStream::connect(addr)?;
                c.set_nodelay(true).ok();
                Ok(ChaosStream::new(c, plan.clone()))
            },
            &names,
            &events,
            &opts,
            &policy,
        )
    } else {
        #[cfg(unix)]
        {
            let sock = args.unix_sock.as_ref().expect("parse() requires --connect or --unix");
            push_with_retry(
                || {
                    std::os::unix::net::UnixStream::connect(sock)
                        .map(|c| ChaosStream::new(c, plan.clone()))
                },
                &names,
                &events,
                &opts,
                &policy,
            )
        }
        #[cfg(not(unix))]
        {
            eprintln!("--unix is only available on unix platforms");
            std::process::exit(EXIT_USAGE);
        }
    };

    match outcome {
        Ok(r) => {
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
                    Some(json) => {
                        if let Err(e) = std::fs::write(dump, json) {
                            eprintln!("cannot write --watch-dump '{dump}': {e}");
                            std::process::exit(1);
                        }
                    }
                    None => eprintln!(
                        "--watch-dump '{dump}': no QueryResult captured (pass --watch to enable \
                         live analysis queries)"
                    ),
                }
            }
            let content = match (&out.stats_json, args.stats.as_deref()) {
                (Some(json), Some("json")) => json.clone(),
                _ => out.report.clone(),
            };
            emit(args.out.as_deref(), &content);
        }
        Err(e) => {
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
            if let Some(after_ms) = busy_hint {
                eprintln!("push refused: {e}");
                eprintln!(
                    "server is at capacity; retry in ~{after_ms}ms or raise its \
                     --max-sessions (exit code {EXIT_BUSY})"
                );
                std::process::exit(EXIT_BUSY);
            }
            eprintln!("push failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            if e != "usage" {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage:\n  depprof list\n  depprof profile <workload> \
                 [--engine serial|parallel|lock-based|perfect] \
                 [--transport spsc|mpmc|lock] [--overflow block|drop] \
                 [--workers N] [--slots N] [--scale F] \
                 [--inject-panic W@N] [--inject-stall W@N] \
                 [--report|--analyze|--dot|--csv] [--stats json|text] [--out PATH]\n  \
                 depprof record <workload> [--out trace.dptr] [--scale F]\n  \
                 depprof replay <trace.dptr> [--engine serial|parallel] \
                 [--transport spsc|mpmc|lock] [--workers N] [--slots N] \
                 [--checkpoint-every N] [--checkpoint-dir DIR] \
                 [--watchdog-deadline MS] [--inject-kill-after N] \
                 [--no-redistribution] [--stats json|text] [--report-out PATH]\n  \
                 depprof replay --resume <dir> [--watchdog-deadline MS] \
                 [--stats json|text] [--report-out PATH]\n  \
                 depprof serve [--listen HOST:PORT] [--unix PATH] \
                 [--max-sessions N] [--checkpoint-dir DIR] [--checkpoint-every N] \
                 [--busy-retry-ms MS] [--hibernate-after MS] [--chaos SPEC]\n  \
                 depprof push <trace.dptr> (--connect HOST:PORT | --unix PATH) \
                 [--session NAME] [--engine serial|parallel] \
                 [--transport spsc|mpmc|lock] [--overflow block|drop] \
                 [--workers N] [--slots N] [--checkpoint-every N] \
                 [--chunk-events N] [--throttle-ms MS] [--retries N] \
                 [--retry-delay-ms MS] [--sync-every N] [--chaos SPEC] \
                 [--watch[=MS]] [--watch-dump PATH] \
                 [--no-redistribution] [--stats json] [--report-out PATH]\n  \
                 depprof fuzz [--seeds N] [--start-seed N] [--quick] \
                 [--corpus DIR] [--no-webscale] [--workers N]\n\n\
                 exit codes: 0 ok, 2 usage, 3 missing input, 4 corrupt trace or \
                 checkpoint, 5 degraded profile, 6 watchdog gave up, \
                 7 terminated by signal, 8 server busy (retry later)"
            );
            std::process::exit(EXIT_USAGE);
        }
    };

    if args.engine == "record" {
        // `depprof record <workload> --out trace.dptr`
        let path = if args.mode == "trace" { "trace.dptr".to_string() } else { args.mode.clone() };
        let Some(w) = find_workload(&args.workload, Scale(args.scale)) else {
            eprintln!("unknown workload '{}'", args.workload);
            std::process::exit(EXIT_INPUT);
        };
        if w.meta.parallel {
            eprintln!(
                "recording multi-threaded targets is not supported (their event order \
                 is schedule-dependent); profile them live with `depprof profile`"
            );
            std::process::exit(EXIT_USAGE);
        }
        // Stream to a sibling temp file and rename at the end, so an
        // interrupted recording never leaves a truncated trace under the
        // final name (a previous complete recording survives untouched).
        let tmp = format!("{path}.tmp.{}", std::process::id());
        let file = match std::fs::File::create(&tmp) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create trace file '{tmp}': {e}");
                std::process::exit(EXIT_INPUT);
            }
        };
        let mut wtr = match depprof::trace::TraceWriter::with_names(file, &w.program.interner) {
            Ok(wtr) => wtr,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                eprintln!("cannot write trace header to '{tmp}': {e}");
                std::process::exit(EXIT_INPUT);
            }
        };
        let vm = depprof::trace::Interp::new(&w.program);
        vm.run_seq(&mut wtr);
        let events = wtr.events();
        if let Err(e) = wtr.finish() {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("cannot flush trace to '{tmp}': {e}");
            std::process::exit(EXIT_INPUT);
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("cannot move finished trace into place at '{path}': {e}");
            std::process::exit(EXIT_INPUT);
        }
        eprintln!("recorded {events} events of {} to {path}", w.meta.name);
        return;
    }
    if args.engine == "replay" {
        run_replay(&args);
        return;
    }
    if args.engine == "serve" {
        run_serve(&args);
        return;
    }
    if args.engine == "push" {
        run_push(&args);
        return;
    }
    if args.engine == "fuzz" {
        run_fuzz_cmd(&args);
        return;
    }
    if args.workload == "list" {
        println!("NAS:       BT SP LU IS EP CG MG FT");
        println!(
            "Starbench: c-ray kmeans md5 ray-rot rgbyuv rotate rot-cc streamcluster \
             tinyjpeg bodytrack h264dec"
        );
        println!("SPLASH:    water-spatial (8 target threads)");
        println!("synthetic: racy-counter locked-counter (4 target threads)");
        return;
    }

    let Some(w) = find_workload(&args.workload, Scale(args.scale)) else {
        eprintln!("unknown workload '{}' (try `depprof list`)", args.workload);
        std::process::exit(EXIT_INPUT);
    };

    let mut cfg = ProfilerConfig::default().with_workers(args.workers).with_slots(args.slots);
    if let Some(p) = args.overflow {
        cfg = cfg.with_overflow(p);
    }
    let chaos_seed = depprof::queue::chaos_seeds(&[0])[0];
    let mut plan = depprof::core::FaultPlan::none().with_seed(chaos_seed);
    if let Some(f) = args.inject_panic {
        plan = plan.with_panic(f.worker, f.after_chunks);
    }
    if let Some(f) = args.inject_stall {
        plan = plan.with_stall(f.worker, f.after_chunks);
    }
    cfg = cfg.with_fault_plan(plan);
    let mut result = if w.meta.parallel {
        eprintln!(
            "profiling {} ({} target threads) with the multi-threaded engine, {} workers ...",
            w.meta.name, w.meta.nthreads, args.workers
        );
        depprof::profile_mt(&w.program, cfg)
    } else {
        match args.engine.as_str() {
            "serial" => {
                eprintln!("profiling {} with the serial signature engine ...", w.meta.name);
                depprof::profile_sequential(&w.program, args.slots)
            }
            "perfect" => {
                eprintln!("profiling {} with the perfect-signature baseline ...", w.meta.name);
                depprof::profile_sequential_perfect(&w.program)
            }
            "parallel" => {
                // The target is sequential (one producer), so the SPSC
                // fast path is the default unless --transport overrides.
                let cfg = cfg.with_transport(args.transport.unwrap_or(TransportKind::Spsc));
                eprintln!(
                    "profiling {} with the parallel pipeline ({} transport), {} workers ...",
                    w.meta.name,
                    cfg.transport.name(),
                    args.workers
                );
                depprof::profile_parallel(&w.program, cfg)
            }
            "lock-based" => {
                eprintln!(
                    "profiling {} with the lock-based pipeline, {} workers ...",
                    w.meta.name, args.workers
                );
                depprof::profile_parallel(&w.program, cfg.with_transport(TransportKind::Lock))
            }
            other => {
                eprintln!("unknown engine '{other}'");
                std::process::exit(EXIT_USAGE);
            }
        }
    };

    result.metrics.chaos_seed = chaos_seed;
    eprintln!("{}\n", report::summary(&result));
    if let Some(fmt) = &args.stats {
        // Stats mode replaces the report: stdout carries *only* the
        // snapshot so `depprof ... --stats json | jq` works unpiped.
        let content = match fmt.as_str() {
            "json" => result.metrics.to_json(),
            _ => result.metrics.to_text(),
        };
        emit(args.out.as_deref(), &content);
        if degradation(&result).degraded() {
            warn_degraded(&result, chaos_seed);
            std::process::exit(EXIT_DEGRADED);
        }
        return;
    }
    let content = match args.mode.as_str() {
        "report" => report::render(&result, &w.program.interner, w.meta.parallel),
        "dot" => {
            let g = depprof::analysis::DepGraph::build(&result);
            g.to_dot(w.meta.parallel)
        }
        "csv" => report::to_csv(&result, &w.program.interner),
        "analyze" => {
            let metas: Vec<LoopMeta> = w
                .program
                .loops
                .iter()
                .map(|l| LoopMeta { id: l.id, name: l.name.clone(), omp: l.omp })
                .collect();
            let mut fw = Framework::with_builtin();
            let mut out = String::new();
            for (name, fragment) in fw.run(
                &result,
                &w.program.interner,
                &metas,
                &w.program.func_names,
                if w.meta.parallel { w.meta.nthreads as usize + 1 } else { 0 },
            ) {
                out.push_str(&format!("== {name} ==\n{fragment}\n\n"));
            }
            // Drop the final separator newline so stdout output matches
            // the previous per-fragment println formatting exactly.
            out.pop();
            out
        }
        _ => unreachable!(),
    };
    emit(args.out.as_deref(), &content);

    // The dependences that WERE reported are exact; the banner and exit
    // code make the coverage loss impossible to miss in scripts and CI.
    if degradation(&result).degraded() {
        warn_degraded(&result, chaos_seed);
        std::process::exit(EXIT_DEGRADED);
    }
}
