//! End-to-end tests of `depprof serve` / `depprof push` across real
//! process boundaries: a served report is byte-identical to an offline
//! replay, and a SIGTERM'd server resumes its sessions from checkpoint.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn depprof(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_depprof")).args(args).output().expect("spawn depprof")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("depprof-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts `depprof serve --listen 127.0.0.1:0 ...` and waits for the
/// "serving DPSV on <addr>" banner to learn the ephemeral port.
/// Every caller SIGTERMs and `wait()`s the returned child.
#[allow(clippy::zombie_processes)]
fn start_serve(dir: &Path, extra: &[&str]) -> (Child, String) {
    let log = dir.join(format!("serve-{}.log", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_depprof"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stderr(Stdio::from(std::fs::File::create(&log).unwrap()))
        .spawn()
        .expect("spawn serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        if let Some(line) = text.lines().find(|l| l.contains("serving DPSV on ")) {
            let addr = line.rsplit(' ').next().unwrap().to_string();
            return (child, addr);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve never printed its address:\n{text}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn sigterm(child: &Child) {
    let _ = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
}

#[test]
fn served_report_is_byte_identical_to_replay() {
    let dir = tmpdir("identical");
    let trace = dir.join("is.dptr");
    let trace_s = trace.to_str().unwrap();
    let rec = depprof(&["record", "IS", "--scale", "0.05", "--out", trace_s]);
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));

    let offline = dir.join("offline.txt");
    let rep = depprof(&["replay", trace_s, "--report-out", offline.to_str().unwrap()]);
    assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));

    let (mut serve, addr) = start_serve(&dir, &[]);
    // A `Hello` sized to take the whole server down (16 TiB of slots) is
    // answered with an `Error` frame; the push below is the proof that
    // the server still accepts the next session.
    {
        use depprof::core::SessionSpec;
        use depprof::types::protocol::{self, Frame, Hello};
        let spec = SessionSpec { slots: 1 << 40, ..SessionSpec::default() }.encode();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        protocol::write_preamble(&mut conn).unwrap();
        let hello = Hello { session: "huge".into(), spec, ..Hello::default() };
        protocol::write_frame(&mut conn, &Frame::Hello(hello)).unwrap();
        protocol::read_preamble(&mut conn).unwrap();
        let reply = protocol::read_frame(&mut conn, protocol::MAX_FRAME_BYTES).unwrap();
        assert!(matches!(reply, Some(Frame::Error { .. })), "{reply:?}");
    }
    let served = dir.join("served.txt");
    let push = depprof(&[
        "push",
        trace_s,
        "--connect",
        &addr,
        "--session",
        "e2e",
        "--report-out",
        served.to_str().unwrap(),
    ]);
    assert!(push.status.success(), "{}", String::from_utf8_lossy(&push.stderr));
    assert_eq!(
        std::fs::read(&offline).unwrap(),
        std::fs::read(&served).unwrap(),
        "served report differs from offline replay"
    );

    sigterm(&serve);
    let status = serve.wait().unwrap();
    assert_eq!(status.code(), Some(7), "serve must exit with the documented signal code");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A SIGTERM'd `serve --unix` exits with the signal code and removes its
/// socket file.
#[test]
fn a_sigtermed_unix_server_removes_its_socket() {
    let dir = tmpdir("unix");
    let sock = dir.join("dpsv.sock");
    let sock_s = sock.to_str().unwrap();
    // `--unix` takes the place of the `--listen` that start_serve passes.
    let (mut serve, bound) = start_serve(&dir, &["--unix", sock_s]);
    assert_eq!(bound, sock_s);
    assert!(sock.exists(), "no socket file at {sock_s}");
    sigterm(&serve);
    assert_eq!(serve.wait().unwrap().code(), Some(7));
    assert!(!sock.exists(), "the socket file outlived its server");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_mid_session_then_checkpointed_resume() {
    let dir = tmpdir("resume");
    let trace = dir.join("cg.dptr");
    let trace_s = trace.to_str().unwrap();
    let rec = depprof(&["record", "CG", "--scale", "0.2", "--out", trace_s]);
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));

    let offline = dir.join("offline.txt");
    let rep = depprof(&["replay", trace_s, "--report-out", offline.to_str().unwrap()]);
    assert!(rep.status.success());

    let ckpt = dir.join("ckpts");
    let ckpt_s = ckpt.to_str().unwrap();
    let (mut serve, addr) =
        start_serve(&dir, &["--checkpoint-dir", ckpt_s, "--checkpoint-every", "500"]);

    // A throttled push gives the server time to checkpoint; the server
    // is SIGTERM'd mid-session, so this push must fail. Left to finish,
    // it would take about 55 s: 2 743 chunks of 16 events, 20 ms apart.
    let mut push = Command::new(env!("CARGO_BIN_EXE_depprof"))
        .args([
            "push",
            trace_s,
            "--connect",
            &addr,
            "--session",
            "cg",
            "--chunk-events",
            "16",
            "--throttle-ms",
            "20",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Wait until at least one checkpoint generation exists on disk.
    let deadline = Instant::now() + Duration::from_secs(30);
    let session_dir = ckpt.join("cg");
    loop {
        let has_ckpt = std::fs::read_dir(&session_dir).map(|d| d.count() > 0).unwrap_or(false);
        if has_ckpt {
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint appeared in {session_dir:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    sigterm(&serve);
    let status = serve.wait().unwrap();
    assert_eq!(status.code(), Some(7));
    assert!(!push.wait().unwrap().success(), "interrupted push must not report success");

    // Restart the server over the same checkpoint base: the re-pushed
    // session resumes (the client is told to skip a non-zero prefix)
    // and the final report is still byte-identical.
    let (mut serve2, addr2) = start_serve(&dir, &["--checkpoint-dir", ckpt_s]);
    let served = dir.join("resumed.txt");
    let push2 = depprof(&[
        "push",
        trace_s,
        "--connect",
        &addr2,
        "--session",
        "cg",
        "--report-out",
        served.to_str().unwrap(),
    ]);
    assert!(push2.status.success(), "{}", String::from_utf8_lossy(&push2.stderr));
    let stderr = String::from_utf8_lossy(&push2.stderr);
    assert!(stderr.contains("resumed session 'cg' from event "), "no resume banner:\n{stderr}");
    assert_eq!(
        std::fs::read(&offline).unwrap(),
        std::fs::read(&served).unwrap(),
        "resumed report differs from offline replay"
    );
    // A finished session clears its checkpoints — nothing to resume.
    assert!(
        !session_dir.exists() || std::fs::read_dir(&session_dir).unwrap().count() == 0,
        "finished session left checkpoints behind"
    );

    sigterm(&serve2);
    assert_eq!(serve2.wait().unwrap().code(), Some(7));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable session idle past `--hibernate-after` is checkpointed and
/// evicted; the push, told so, reconnects and the session rehydrates
/// where it stopped. Pauses longer than the deadline between every chunk
/// make it happen several times in one push, and the report is still
/// byte-identical to an offline replay.
#[test]
fn idle_sessions_hibernate_and_rehydrate_exactly() {
    let dir = tmpdir("hibernate");
    let trace = dir.join("cg.dptr");
    let trace_s = trace.to_str().unwrap();
    let rec = depprof(&["record", "CG", "--scale", "0.02", "--out", trace_s]);
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));
    let offline = dir.join("offline.txt");
    let rep = depprof(&["replay", trace_s, "--report-out", offline.to_str().unwrap()]);
    assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));

    let ckpt = dir.join("ckpts");
    let (mut serve, addr) = start_serve(
        &dir,
        &["--checkpoint-dir", ckpt.to_str().unwrap(), "--hibernate-after", "100"],
    );
    let served = dir.join("served.txt");
    let push = depprof(&[
        "push",
        trace_s,
        "--connect",
        &addr,
        "--session",
        "nap",
        "--chunk-events",
        "1000",
        "--throttle-ms",
        "300",
        "--report-out",
        served.to_str().unwrap(),
    ]);
    sigterm(&serve);
    assert_eq!(serve.wait().unwrap().code(), Some(7));
    let log = std::fs::read_to_string(dir.join(format!("serve-{}.log", std::process::id())))
        .unwrap_or_default();
    assert!(push.status.success(), "{}\n{log}", String::from_utf8_lossy(&push.stderr));
    let naps = log.matches("hibernated at event").count();
    assert!(naps >= 2, "the session hibernated {naps} times:\n{log}");
    assert_eq!(
        std::fs::read(&offline).unwrap(),
        std::fs::read(&served).unwrap(),
        "a hibernated session's report differs from offline replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `Hello` the server cannot open is refused with the server's own
/// error code, and the server's log says which session and why: here the
/// checkpoint directory lies under a file.
#[test]
fn a_refused_hello_is_logged() {
    let dir = tmpdir("refused");
    let trace = dir.join("cg.dptr");
    let trace_s = trace.to_str().unwrap();
    let rec = depprof(&["record", "CG", "--scale", "0.02", "--out", trace_s]);
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));
    let file = dir.join("F");
    std::fs::write(&file, b"").unwrap();

    let ckpt = file.join("sub");
    let (mut serve, addr) = start_serve(&dir, &["--checkpoint-dir", ckpt.to_str().unwrap()]);
    let push = depprof(&["push", trace_s, "--connect", &addr, "--session", "cg"]);
    sigterm(&serve);
    assert_eq!(serve.wait().unwrap().code(), Some(7));
    let log = std::fs::read_to_string(dir.join(format!("serve-{}.log", std::process::id())))
        .unwrap_or_default();
    let stderr = String::from_utf8_lossy(&push.stderr);
    assert!(!push.status.success(), "the push succeeded:\n{stderr}");
    assert!(stderr.contains("server error 4"), "push stderr:\n{stderr}");
    let line = "session 1 'cg': refused at Hello; session checkpoint failed: ";
    assert!(log.contains(line), "no refusal in the server log:\n{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replay with a checkpoint directory is durable: SIGINT mid-run writes
/// an emergency checkpoint and exits 7, and the resumed run reports what
/// an uninterrupted one does — with periodic checkpoints effectively off,
/// and with none asked for at all.
#[test]
fn replay_sigint_writes_emergency_checkpoint_and_exits_7() {
    use std::io::Write;
    let dir = tmpdir("replay-signal");
    let trace = dir.join("ep.dptr");
    let trace_s = trace.to_str().unwrap();
    let rec = depprof(&["record", "EP", "--scale", "0.4", "--out", trace_s]);
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));
    let offline = dir.join("offline.txt");
    let rep = depprof(&["replay", trace_s, "--report-out", offline.to_str().unwrap()]);
    assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));
    let bytes = std::fs::read(&trace).unwrap();

    for (i, every) in [&["--checkpoint-every", "1000000000"][..], &[]].into_iter().enumerate() {
        // The replay reads its trace from a pipe and is signalled while
        // it waits for the second half, so the signal always lands
        // mid-run however fast the machine.
        let pipe = dir.join(format!("ep{i}.dptr"));
        assert!(Command::new("mkfifo").arg(&pipe).status().unwrap().success());
        let ckpt = dir.join(format!("ck{i}"));
        let mut replay = Command::new(env!("CARGO_BIN_EXE_depprof"))
            .args(["replay", pipe.to_str().unwrap(), "--checkpoint-dir", ckpt.to_str().unwrap()])
            .args(every)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // Opening a pipe's write end waits for its reader.
        let opener = {
            let pipe = pipe.clone();
            std::thread::spawn(move || std::fs::OpenOptions::new().write(true).open(pipe))
        };
        while !opener.is_finished() {
            assert!(replay.try_wait().unwrap().is_none(), "replay exited before opening its trace");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut feed = opener.join().unwrap().unwrap();
        // Once the first half is in the pipe, most of it has been read:
        // the replay is in its feed loop, signal handlers installed.
        feed.write_all(&bytes[..bytes.len() / 2]).unwrap();
        let _ = Command::new("kill").args(["-INT", &replay.id().to_string()]).status();
        // The next record shows the replay the flag; it stops reading
        // there, so the rest of the stream may not all go in.
        let _ = feed.write_all(&bytes[bytes.len() / 2..]);
        drop(feed);
        let out = replay.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(7), "{every:?} stderr:\n{stderr}");
        assert!(stderr.contains("emergency checkpoint"), "{every:?} stderr:\n{stderr}");

        // The checkpoint names the trace by the pipe's path.
        std::fs::remove_file(&pipe).unwrap();
        std::fs::copy(&trace, &pipe).unwrap();
        let resumed_out = dir.join(format!("resumed{i}.txt"));
        let resumed = depprof(&[
            "replay",
            "--resume",
            ckpt.to_str().unwrap(),
            "--report-out",
            resumed_out.to_str().unwrap(),
        ]);
        assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
        assert_eq!(
            std::fs::read(&offline).unwrap(),
            std::fs::read(&resumed_out).unwrap(),
            "{every:?}: resumed report differs from an uninterrupted replay"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
