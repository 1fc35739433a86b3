//! The command line, said once. [`FLAGS`] has one row per flag — name,
//! the verbs that accept it, metavariable, typed setter — and that table
//! drives the parse loop, the "unknown flag for this verb" rejection and
//! the generated `--help`. A new flag is one row; a new verb is one row
//! of [`VERBS`] plus its name in the rows of the flags it takes.

use depprof::core::{OverflowPolicy, SessionSpec, TransportKind, WorkerFault};
use depprof::server::NetFaultPlan;
use std::str::FromStr;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verb {
    #[default]
    List,
    Profile,
    Record,
    Replay,
    Serve,
    Push,
    Fuzz,
}
use Verb::*;

/// Each verb's spelling and positional argument (`<required>`,
/// `[<optional>]` or none).
const VERBS: [(Verb, &str, &str); 7] = [
    (List, "list", ""),
    (Profile, "profile", "<workload>"),
    (Record, "record", "<workload>"),
    (Replay, "replay", "[<trace.dptr>]"),
    (Serve, "serve", ""),
    (Push, "push", "<trace.dptr>"),
    (Fuzz, "fuzz", ""),
];

/// `profile --engine`; `replay` and `push` take the first two only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    #[default]
    Serial,
    Parallel,
    Perfect,
}

/// What `profile` renders: `--report` (default), `--analyze`, `--dot`, `--csv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Output {
    #[default]
    Report,
    Analyze,
    Dot,
    Csv,
}

/// `--stats json|text`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stats {
    Json,
    Text,
}

/// The parsed command line.
#[derive(Default)]
pub struct Args {
    pub verb: Verb,
    /// The verb's positional argument — a workload name (`profile`,
    /// `record`) or a trace path (`replay`, `push`); empty when absent.
    pub input: String,
    /// The engine's shape. `replay`, `push` and the checkpoint CONFIG
    /// section all read this one value; `fuzz` reads its worker count.
    pub spec: SessionSpec,
    pub engine: Engine,
    pub scale: f64,
    pub output: Output,
    pub stats: Option<Stats>,
    /// `--out` / `--report-out`: where the main artifact goes instead of
    /// stdout (`record`: the trace file, default `trace.dptr`).
    pub out: Option<String>,
    pub inject_panic: Option<WorkerFault>,
    pub inject_stall: Option<WorkerFault>,
    /// Checkpoint every N records (`replay`) or events (`serve`, `push`);
    /// 0 = no periodic checkpoints.
    pub checkpoint_every: u64,
    /// Where checkpoints go; a `replay` or `serve` with one is durable and
    /// writes an emergency checkpoint when stopped. `replay` defaults it to
    /// `<trace>.ckpt` when `--checkpoint-every` or `--watchdog-deadline`
    /// asks for checkpoints; `serve` has none unless given.
    pub checkpoint_dir: Option<String>,
    pub resume: Option<String>,
    /// Run-watchdog no-progress deadline (0 = off).
    pub watchdog_deadline_ms: u64,
    /// SIGKILL the process after feeding N records this run (0 = never).
    pub inject_kill_after: u64,
    pub listen: Option<String>,
    pub unix_sock: Option<String>,
    pub connect: Option<String>,
    /// Resume identity on the server (default: the trace's file stem).
    pub session: Option<String>,
    pub max_sessions: usize,
    /// Accesses per Chunk frame.
    pub chunk_events: usize,
    /// Sleep between chunk frames.
    pub throttle_ms: u64,
    /// Total connection attempts before giving up.
    pub retries: u32,
    /// Base reconnect backoff delay.
    pub retry_delay_ms: u64,
    /// Send a Sync watermark probe every N chunks (0 = never).
    pub sync_every: u64,
    /// Query live analysis every N ms while streaming.
    pub watch: Option<u64>,
    /// Write the final QueryResult JSON here.
    pub watch_dump: Option<String>,
    /// Retry hint handed to refused clients.
    pub busy_retry_ms: u64,
    /// Hibernate idle durable sessions after this long (0 = never).
    pub hibernate_after_ms: u64,
    pub chaos_plan: Option<NetFaultPlan>,
    pub seeds: u64,
    /// First seed (shards campaigns across CI jobs).
    pub start_seed: u64,
    pub quick: bool,
    /// Directory minimized repros are written to.
    pub corpus: Option<String>,
    pub no_webscale: bool,
}

impl Args {
    fn new(verb: Verb) -> Args {
        let workers = if verb == Fuzz { 3 } else { 8 };
        Args {
            verb,
            spec: SessionSpec { workers, ..SessionSpec::default() },
            scale: 0.25,
            max_sessions: 16,
            chunk_events: depprof::trace::stream::DEFAULT_CHUNK_EVENTS,
            retries: 5,
            retry_delay_ms: 100,
            busy_retry_ms: 200,
            seeds: 50,
            ..Args::default()
        }
    }
}

type Setter = fn(&mut Args, &str) -> Result<(), String>;

/// One flag: its name, the verbs that accept it, its metavariable
/// (`""` for a switch, `[=X]` for an optional `--flag=X`, alternatives
/// separated by `|`) and the setter that checks the value and stores it.
struct Flag {
    name: &'static str,
    verbs: &'static [Verb],
    metavar: &'static str,
    set: Setter,
}

const fn flag(
    name: &'static str,
    verbs: &'static [Verb],
    metavar: &'static str,
    set: Setter,
) -> Flag {
    Flag { name, verbs, metavar, set }
}

impl Flag {
    /// A switch, or a value that can only ride along as `--flag=X`.
    fn takes_no_word(&self) -> bool {
        self.metavar.is_empty() || self.metavar.starts_with("[=")
    }

    /// The metavariable as `verb` sees it: of several alternatives,
    /// those its setter takes.
    fn metavar_for(&self, verb: Verb) -> String {
        if !self.metavar.contains('|') {
            return self.metavar.to_owned();
        }
        let takes = |alt: &&str| (self.set)(&mut Args::new(verb), alt).is_ok();
        self.metavar.split('|').filter(takes).collect::<Vec<_>>().join("|")
    }
}

/// A setter: `to!(field, parse)` stores what `parse` makes of the value
/// in `Args.field`; `to!(field = value)` is a switch.
macro_rules! to {
    ($($field:ident).+ = $value:expr) => {
        |a: &mut Args, _: &str| {
            a.$($field).+ = $value;
            Ok(())
        }
    };
    ($($field:ident).+, $parse:expr) => {
        |a: &mut Args, v: &str| {
            a.$($field).+ = $parse(v)?;
            Ok(())
        }
    };
}

/// The verbs that build an engine from the command line.
const ENGINE: &[Verb] = &[Profile, Replay, Push];

const FLAGS: &[Flag] = &[
    flag("--engine", ENGINE, "serial|parallel|perfect", set_engine),
    flag("--transport", ENGINE, "spsc|mpmc|lock", to!(spec.transport, transport)),
    flag("--overflow", ENGINE, "block|drop", to!(spec.overflow, overflow)),
    flag("--workers", &[Profile, Replay, Push, Fuzz], "N", to!(spec.workers, positive)),
    flag("--slots", ENGINE, "N", to!(spec.slots, positive)),
    flag("--no-redistribution", &[Replay, Push], "", to!(spec.redistribution = false)),
    flag("--scale", &[Profile, Record], "F", to!(scale, number)),
    flag("--inject-panic", &[Profile], "W@N", to!(inject_panic, fault)),
    flag("--inject-stall", &[Profile, Replay], "W@N", to!(inject_stall, fault)),
    flag("--report", &[Profile], "", to!(output = Output::Report)),
    flag("--analyze", &[Profile], "", to!(output = Output::Analyze)),
    flag("--dot", &[Profile], "", to!(output = Output::Dot)),
    flag("--csv", &[Profile], "", to!(output = Output::Csv)),
    flag("--resume", &[Replay], "DIR", to!(resume, text)),
    flag("--listen", &[Serve], "HOST:PORT", to!(listen, text)),
    flag("--connect", &[Push], "HOST:PORT", to!(connect, text)),
    flag("--unix", &[Serve, Push], "PATH", set_unix),
    flag("--session", &[Push], "NAME", to!(session, text)),
    flag("--max-sessions", &[Serve], "N", to!(max_sessions, positive)),
    flag("--checkpoint-every", &[Replay, Serve, Push], "N", to!(checkpoint_every, positive)),
    flag("--checkpoint-dir", &[Replay, Serve], "DIR", to!(checkpoint_dir, text)),
    flag("--watchdog-deadline", &[Replay], "MS", to!(watchdog_deadline_ms, positive)),
    flag("--inject-kill-after", &[Replay], "N", to!(inject_kill_after, number)),
    flag("--busy-retry-ms", &[Serve], "MS", to!(busy_retry_ms, number)),
    flag("--hibernate-after", &[Serve], "MS", to!(hibernate_after_ms, positive)),
    flag("--chunk-events", &[Push], "N", to!(chunk_events, chunk_events)),
    flag("--throttle-ms", &[Push], "MS", to!(throttle_ms, number)),
    flag("--retries", &[Push], "N", to!(retries, positive)),
    flag("--retry-delay-ms", &[Push], "MS", to!(retry_delay_ms, number)),
    flag("--sync-every", &[Push], "N", to!(sync_every, number)),
    flag("--chaos", &[Push], "SPEC", to!(chaos_plan, chaos)),
    flag("--watch", &[Push], "[=MS]", to!(watch, watch_interval)),
    flag("--watch-dump", &[Push], "PATH", to!(watch_dump, text)),
    flag("--seeds", &[Fuzz], "N", to!(seeds, positive)),
    flag("--start-seed", &[Fuzz], "N", to!(start_seed, number)),
    flag("--quick", &[Fuzz], "", to!(quick = true)),
    flag("--corpus", &[Fuzz], "DIR", to!(corpus, text)),
    flag("--no-webscale", &[Fuzz], "", to!(no_webscale = true)),
    flag("--stats", ENGINE, "json|text", set_stats),
    flag("--out", &[Profile, Record], "PATH", to!(out, text)),
    flag("--report-out", &[Replay, Push], "PATH", to!(out, text)),
];

fn number<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| "not a number".into())
}

fn positive<T: FromStr + PartialOrd + Default>(v: &str) -> Result<T, String> {
    number(v).ok().filter(|n| *n > T::default()).ok_or_else(|| "not a positive integer".into())
}

fn chunk_events(v: &str) -> Result<usize, String> {
    let max = depprof::types::protocol::MAX_CHUNK_EVENTS;
    positive(v).and_then(|n| match n {
        n if n > max => Err(format!("more events than a frame holds (at most {max})")),
        n => Ok(n),
    })
}

fn text(v: &str) -> Result<Option<String>, String> {
    Ok(Some(v.to_owned()))
}

fn some_number(v: &str) -> Result<Option<u64>, String> {
    number(v).map(Some)
}

/// `--watch` alone asks once a second.
fn watch_interval(v: &str) -> Result<Option<u64>, String> {
    match v {
        "" => Ok(Some(1000)),
        ms => some_number(ms),
    }
}

fn transport(v: &str) -> Result<TransportKind, String> {
    TransportKind::parse(v).ok_or_else(|| "unknown kind".into())
}

fn overflow(v: &str) -> Result<OverflowPolicy, String> {
    OverflowPolicy::parse(v).ok_or_else(|| "unknown policy".into())
}

fn fault(v: &str) -> Result<Option<WorkerFault>, String> {
    WorkerFault::parse(v).map(Some).ok_or_else(|| "bad spec (e.g. 2@5)".into())
}

fn chaos(v: &str) -> Result<Option<NetFaultPlan>, String> {
    NetFaultPlan::parse(v).map(Some)
}

fn set_engine(a: &mut Args, v: &str) -> Result<(), String> {
    a.engine = match v {
        "serial" => Engine::Serial,
        "parallel" => Engine::Parallel,
        "perfect" if a.verb == Profile => Engine::Perfect,
        _ => return Err("unknown engine".into()),
    };
    a.spec.parallel = a.engine == Engine::Parallel;
    Ok(())
}

fn set_stats(a: &mut Args, v: &str) -> Result<(), String> {
    a.stats = Some(match v {
        "json" => Stats::Json,
        "text" if a.verb != Push => Stats::Text,
        _ => return Err("unknown format".into()),
    });
    Ok(())
}

fn set_unix(a: &mut Args, v: &str) -> Result<(), String> {
    if cfg!(not(unix)) {
        return Err("only available on unix platforms".into());
    }
    a.unix_sock = Some(v.to_owned());
    Ok(())
}

/// Parses `argv` (program name already dropped). `Err("")` asks for the
/// bare usage text; any other error is printed above it.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter().peekable();
    let (verb, name, positional) = match it.next().map(String::as_str) {
        None | Some("--help" | "-h") => return Err(String::new()),
        Some(cmd) => *VERBS
            .iter()
            .find(|(_, name, _)| *name == cmd)
            .ok_or_else(|| format!("unknown command '{cmd}'"))?,
    };
    let mut a = Args::new(verb);
    match it.next_if(|s| !positional.is_empty() && !s.starts_with("--")) {
        Some(input) => a.input = input.clone(),
        None if positional.starts_with('<') => return Err(format!("{name} needs {positional}")),
        None => {}
    }
    while let Some(arg) = it.next() {
        let (flag_name, inline) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (arg.as_str(), None),
        };
        let flag = FLAGS
            .iter()
            .find(|f| f.name == flag_name && f.verbs.contains(&verb))
            .filter(|f| inline.is_none() || f.metavar.starts_with("[="))
            .ok_or_else(|| format!("unknown flag '{arg}' for `{name}`"))?;
        let value = if flag.takes_no_word() {
            inline.unwrap_or("")
        } else {
            it.next().ok_or_else(|| format!("{flag_name} needs {}", flag.metavar_for(verb)))?
        };
        (flag.set)(&mut a, value)
            .map_err(|e| format!("{flag_name} {}: {e}: '{value}'", flag.metavar_for(verb)))?;
    }
    match verb {
        Replay if a.input.is_empty() && a.resume.is_none() => {
            Err("replay needs a trace file or --resume <dir>".into())
        }
        Push if a.connect.is_none() && a.unix_sock.is_none() => {
            Err("push needs --connect HOST:PORT or --unix PATH".into())
        }
        _ => Ok(a),
    }
}

/// The `--help` text: one synopsis per verb, generated from [`FLAGS`].
pub fn usage() -> String {
    let mut out = String::from("usage:\n");
    for (verb, name, positional) in VERBS {
        let mut line = format!("  depprof {name}");
        let flags = FLAGS.iter().filter(|f| f.verbs.contains(&verb)).map(|f| {
            let sep = if f.takes_no_word() { "" } else { " " };
            format!("[{}{sep}{}]", f.name, f.metavar_for(verb))
        });
        let positional = (!positional.is_empty()).then(|| positional.to_owned());
        for word in positional.into_iter().chain(flags) {
            if line.len() + 1 + word.len() > 78 {
                out += &line;
                out += "\n";
                line = " ".repeat(5);
            }
            line += " ";
            line += &word;
        }
        out += &line;
        out += "\n";
    }
    out + "\nreplay needs <trace.dptr> or --resume; push needs --connect or --unix.\n\n\
           exit codes: 0 ok, 2 usage, 3 missing input, 4 corrupt trace or checkpoint,\n\
           5 degraded profile, 6 watchdog gave up, 7 terminated by signal,\n\
           8 server busy (retry later)"
}
