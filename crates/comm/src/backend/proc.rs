//! Cross-process backend: one OS *process* per rank, launched by
//! re-exec'ing the current binary.
//!
//! # Launch model
//!
//! A [`Backend::Proc`](crate::Backend::Proc) launch inspects the
//! environment to decide its role:
//!
//! * **Spawner** (`CGNN_RANK` unset): the calling process becomes rank 0.
//!   It creates a rendezvous directory, re-execs the current binary once
//!   per remaining rank with `CGNN_RANK`/`CGNN_WORLD`/`CGNN_LAUNCHED`/
//!   `CGNN_PROC_SEQ`/`CGNN_PROC_DIR` set, runs its own rank inline, then
//!   reaps the children. Only rank 0's result is returned (a one-element
//!   vector): the other ranks live in other address spaces.
//! * **Joiner** (`CGNN_RANK` set, and this is the launch named by
//!   `CGNN_PROC_SEQ`): the process is a re-exec'd child. It connects the
//!   mesh, runs its rank, reports failure through a `rank{r}.fail` file
//!   in the rendezvous directory, and exits without returning.
//! * **Replayer** (`CGNN_RANK` set, but an *earlier* launch than the one
//!   this child was spawned for): a re-exec'd child replaying the program
//!   prefix deterministically. The launch is satisfied in-process on the
//!   serial backend — bit-identical to what the parent computed — so the
//!   program reaches the join point with exactly the parent's state.
//!
//! Because a child *re-runs the program from `main`*, any launch that is
//! not the program's first needs the child to replay the earlier launches;
//! the replay rule above makes that correct and deterministic. Test
//! binaries (whose argv selects which tests run) pin the argv for children
//! with [`reexec_scope`], which also restarts the launch numbering so
//! parent and child count launches identically.

use std::any::Any;
use std::cell::RefCell;
use std::io::{self, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backend::engine::{Engine, Frame, Heartbeat, Mailbox, KIND_HELLO};
use crate::backend::serial;
use crate::backend::wire::{self, Conn, StreamCarrier};
use crate::comm::Comm;
use crate::fault::{FaultPlan, RankFailure};
use crate::knob::{CGNN_LAUNCHED, CGNN_PROC_DIR, CGNN_PROC_SEQ, CGNN_RANK, CGNN_WORLD};

/// How long mesh dialing retries before giving up on a peer process.
const CONNECT_DEADLINE: Duration = Duration::from_secs(60);
/// How long the spawner waits for children to exit after its own rank
/// finished (kept under the chaos suite's `HangGuard`).
const CHILD_WAIT: Duration = Duration::from_secs(240);
/// Child exit code signalling "rank panicked, see the `.fail` report".
const CHILD_FAIL_EXIT: i32 = 70;

// ---------------------------------------------------------------------
// Launch numbering and re-exec argv scopes
// ---------------------------------------------------------------------

struct ScopeFrame {
    args: Vec<String>,
    next_seq: u64,
}

thread_local! {
    static SCOPES: RefCell<Vec<ScopeFrame>> = const { RefCell::new(Vec::new()) };
}

/// Launch counter for cross-process launches outside any scope.
static GLOBAL_SEQ: AtomicU64 = AtomicU64::new(0);

/// RAII argv scope for cross-process launches; see [`reexec_scope`].
pub struct ReexecScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Pin the argv that re-exec'd child ranks receive, and restart the
/// launch numbering, until the returned guard drops.
///
/// A spawned child re-runs the current *binary*; for a plain program the
/// program's own argv is correct, but a test binary must be told to run
/// only the worker entry point (e.g. `["my_worker", "--exact",
/// "--ignored"]`), not the whole suite. Both the parent and the worker
/// entry must execute the launches under the same scope so their launch
/// sequence numbers line up (the scope restarts numbering at 1).
pub fn reexec_scope<I, S>(args: I) -> ReexecScope
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    SCOPES.with(|s| {
        s.borrow_mut().push(ScopeFrame {
            args: args.into_iter().map(Into::into).collect(),
            next_seq: 1,
        })
    });
    ReexecScope {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ReexecScope {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Sequence number and child argv for the next cross-process launch.
fn next_launch() -> (u64, Vec<String>) {
    SCOPES.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(top) = s.last_mut() {
            let seq = top.next_seq;
            top.next_seq += 1;
            (seq, top.args.clone())
        } else {
            (
                GLOBAL_SEQ.fetch_add(1, Ordering::Relaxed) + 1,
                std::env::args().skip(1).collect(),
            )
        }
    })
}

enum Role {
    Spawn,
    Join { rank: usize },
    Replay,
}

fn role_for(seq: u64) -> Role {
    let Some(rank) = CGNN_RANK.lookup() else {
        return Role::Spawn;
    };
    let rank: usize = rank
        .parse()
        .expect("CGNN_RANK must be a rank index in 0..world");
    if CGNN_LAUNCHED.lookup().is_none() {
        // Manually launched rank (one process per machine, operator-run):
        // there is no spawner replaying a program prefix, so every
        // cross-process launch in the program joins.
        return Role::Join { rank };
    }
    if seq == CGNN_PROC_SEQ.usize_or(1) as u64 {
        Role::Join { rank }
    } else {
        Role::Replay
    }
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// How a process world dials its full mesh. The launch/role machinery is
/// transport-agnostic; `proc` (Unix-domain sockets) and `socket` (TCP)
/// implement this.
pub(crate) trait ProcTransport {
    fn label(&self) -> &'static str;

    /// Spawner-side setup before the children exist (e.g. binding a
    /// rendezvous listener whose address must go into the child env).
    /// Returns extra environment variables for the children.
    fn prepare(&mut self, dir: &Path, size: usize) -> io::Result<Vec<(&'static str, String)>>;

    /// Establish this rank's connection mesh: `conns[p]` for every peer,
    /// `None` at `rank` itself.
    fn connect(&mut self, rank: usize, size: usize, dir: &Path) -> io::Result<Vec<Option<Conn>>>;
}

/// Unix-domain-socket mesh in the rendezvous directory: rank `r` listens
/// on `r{r}.sock`, dials every lower rank (identifying itself with a
/// `Hello` frame), and accepts every higher rank.
#[derive(Default)]
pub(crate) struct UdsTransport;

fn sock_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("r{rank}.sock"))
}

fn timed_out(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, what.to_string())
}

impl ProcTransport for UdsTransport {
    fn label(&self) -> &'static str {
        "proc"
    }

    fn prepare(&mut self, _dir: &Path, _size: usize) -> io::Result<Vec<(&'static str, String)>> {
        Ok(Vec::new())
    }

    fn connect(&mut self, rank: usize, size: usize, dir: &Path) -> io::Result<Vec<Option<Conn>>> {
        let my = sock_path(dir, rank);
        let _ = std::fs::remove_file(&my);
        let listener = UnixListener::bind(&my)?;
        let mut conns: Vec<Option<Conn>> = (0..size).map(|_| None).collect();
        let deadline = Instant::now() + CONNECT_DEADLINE;
        for peer in 0..rank {
            let stream = loop {
                match UnixStream::connect(sock_path(dir, peer)) {
                    Ok(s) => break s,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(e),
                }
            };
            wire::write_frame(&mut (&stream), &Frame::control(KIND_HELLO, rank as u32, 0))?;
            conns[peer] = Some(Conn::Uds(stream));
        }
        listener.set_nonblocking(true)?;
        let mut pending = size - 1 - rank;
        while pending > 0 {
            match listener.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    let hello = wire::read_frame(&mut (&s))?
                        .ok_or_else(|| timed_out("peer closed before Hello"))?;
                    let src = hello.src as usize;
                    if hello.kind != KIND_HELLO || src >= size || src <= rank {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected rendezvous frame from rank {src}"),
                        ));
                    }
                    conns[src] = Some(Conn::Uds(s));
                    pending -= 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(timed_out("rendezvous accept timed out"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(conns)
    }
}

// ---------------------------------------------------------------------
// Failure reports across the process boundary
// ---------------------------------------------------------------------

/// Serialize a child's unwind payload for the `rank{r}.fail` report.
fn encode_failure(payload: &(dyn Any + Send)) -> String {
    if let Some(f) = RankFailure::from_payload(payload) {
        match f {
            RankFailure::Killed { rank, op } => format!("killed {rank} {op}"),
            RankFailure::PeerDead { rank, dead } => {
                let csv: Vec<String> = dead.iter().map(|d| d.to_string()).collect();
                format!("peerdead {rank} {}", csv.join(","))
            }
            RankFailure::Stalled { rank, src } => format!("stalled {rank} {src}"),
        }
    } else if let Some(m) = payload.downcast_ref::<String>() {
        format!("genuine {m}")
    } else if let Some(m) = payload.downcast_ref::<&'static str>() {
        format!("genuine {m}")
    } else {
        "genuine child rank panicked with an opaque payload".to_string()
    }
}

/// Reconstruct an unwind payload from a `rank{r}.fail` report; malformed
/// reports degrade to "the process is gone" ([`RankFailure::PeerDead`]).
fn decode_failure(text: &str, child_rank: usize) -> Box<dyn Any + Send> {
    let text = text.trim();
    let (kind, rest) = text.split_once(' ').unwrap_or((text, ""));
    match kind {
        "killed" => {
            if let Some((r, op)) = rest.split_once(' ') {
                if let (Ok(rank), Ok(op)) = (r.parse::<usize>(), op.parse::<u64>()) {
                    return Box::new(RankFailure::Killed { rank, op });
                }
            }
        }
        "peerdead" => {
            if let Some((r, csv)) = rest.split_once(' ') {
                let dead: Option<Vec<usize>> =
                    csv.split(',').map(|d| d.parse::<usize>().ok()).collect();
                if let (Ok(rank), Some(dead)) = (r.parse::<usize>(), dead) {
                    return Box::new(RankFailure::PeerDead { rank, dead });
                }
            }
        }
        "stalled" => {
            if let Some((r, s)) = rest.split_once(' ') {
                if let (Ok(rank), Ok(src)) = (r.parse::<usize>(), s.parse::<usize>()) {
                    return Box::new(RankFailure::Stalled { rank, src });
                }
            }
        }
        "genuine" => return Box::new(rest.to_string()),
        _ => {}
    }
    process_gone(child_rank)
}

/// All the spawner (rank 0) knows: the child's process is gone.
fn process_gone(child_rank: usize) -> Box<dyn Any + Send> {
    Box::new(RankFailure::PeerDead {
        rank: 0,
        dead: vec![child_rank],
    })
}

fn fail_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.fail"))
}

/// The unwind payload to charge to a child that exited unsuccessfully.
fn child_payload(dir: &Path, rank: usize) -> Box<dyn Any + Send> {
    match std::fs::read_to_string(fail_path(dir, rank)) {
        Ok(text) => decode_failure(&text, rank),
        // Died without writing a report (SIGKILL, OOM, ...).
        Err(_) => process_gone(rank),
    }
}

// ---------------------------------------------------------------------
// The launcher
// ---------------------------------------------------------------------

/// Run one rank over an established mesh: start the engine on a stream
/// carrier, armed from `plan`, run the start / finish hooks, tear the
/// carrier down, and hand back the closure result or the unwind payload.
fn run_local_rank<T, F>(
    rank: usize,
    label: &'static str,
    conns: Vec<Option<Conn>>,
    f: &F,
    plan: &FaultPlan,
    attempt: u32,
) -> Result<T, Box<dyn Any + Send>>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    let mailbox = Mailbox::new(rank, conns.len(), Heartbeat::from_env());
    let carrier = StreamCarrier::start(&mailbox, conns).expect("start this rank's stream carrier");
    let engine = Engine::new(label, mailbox, Some(carrier.clone()), plan, attempt);
    engine.on_rank_start();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        f(&Comm::new(Arc::clone(&engine)))
    }));
    engine.on_rank_finish(result.is_err());
    carrier.teardown();
    result
}

/// Launch `f` on `size` single-process ranks over a Unix-domain-socket
/// mesh; returns rank 0's result only (`vec[0]`), because the other
/// ranks run in other processes.
pub(crate) fn launch<T, F>(size: usize, f: F, plan: &FaultPlan, attempt: u32) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    launch_stream(UdsTransport, size, f, plan, attempt)
}

/// Transport-generic cross-process launch (see the module docs for the
/// role machinery).
pub(crate) fn launch_stream<T, F, P>(
    transport: P,
    size: usize,
    f: F,
    plan: &FaultPlan,
    attempt: u32,
) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
    P: ProcTransport,
{
    assert!(size > 0, "world size must be positive");
    let (seq, args) = next_launch();
    match role_for(seq) {
        Role::Spawn => spawn_world(transport, size, seq, args, f, plan, attempt),
        Role::Join { rank } => join_world(transport, rank, size, f, plan, attempt),
        Role::Replay => {
            // A child replaying a launch its parent already completed:
            // satisfy it deterministically in-process. The serial backend
            // is bit-identical to every other transport, so the program
            // reaches this child's join point with the parent's state.
            let mut all = serial::launch(size, f, plan, attempt);
            all.truncate(1);
            all
        }
    }
}

fn spawn_world<T, F, P>(
    mut transport: P,
    size: usize,
    seq: u64,
    args: Vec<String>,
    f: F,
    plan: &FaultPlan,
    attempt: u32,
) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
    P: ProcTransport,
{
    let base = CGNN_PROC_DIR
        .lookup()
        .map_or_else(std::env::temp_dir, PathBuf::from);
    // `seq` restarts in every `reexec_scope`, so concurrent scopes of one
    // process (parallel tests) need the counter to keep their
    // directories apart.
    static SPAWNED: AtomicU64 = AtomicU64::new(0);
    let dir = base.join(format!(
        "cgnn-{}-{}-{seq}-{}",
        transport.label(),
        std::process::id(),
        SPAWNED.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create the cross-process rendezvous directory");
    let extra_env = transport
        .prepare(&dir, size)
        .expect("prepare the cross-process rendezvous");
    let exe = std::env::current_exe().expect("resolve the current executable for re-exec");
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(size.saturating_sub(1));
    for r in 1..size {
        let log = std::fs::File::create(dir.join(format!("rank{r}.log")))
            .expect("create the child rank log file");
        let mut cmd = Command::new(&exe);
        cmd.args(&args)
            .env(CGNN_RANK.name, r.to_string())
            .env(CGNN_WORLD.name, size.to_string())
            .env(CGNN_LAUNCHED.name, "1")
            .env(CGNN_PROC_SEQ.name, seq.to_string())
            .env(CGNN_PROC_DIR.name, &dir)
            .stdin(Stdio::null())
            .stdout(Stdio::from(
                log.try_clone().expect("clone the child log handle"),
            ))
            .stderr(Stdio::from(log));
        for (k, v) in &extra_env {
            cmd.env(k, v);
        }
        let child = cmd
            .spawn()
            .expect("re-exec the current binary as a rank process");
        children.push((r, child));
    }

    // This process is rank 0.
    let conns = transport
        .connect(0, size, &dir)
        .expect("establish rank 0's connection mesh");
    let result = run_local_rank(0, transport.label(), conns, &f, plan, attempt);

    // Reap the children; collect failure reports.
    let mut payloads: Vec<Box<dyn Any + Send>> = Vec::new();
    let deadline = Instant::now() + CHILD_WAIT;
    for (r, mut child) in children {
        let status = loop {
            match child.try_wait().expect("poll a rank process") {
                Some(s) => break Some(s),
                None if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if !status.map(|s| s.success()).unwrap_or(false) {
            payloads.push(child_payload(&dir, r));
        }
    }
    match result {
        Ok(t0) => {
            if let Some(root) = payloads
                .into_iter()
                .min_by_key(|p| RankFailure::severity(p.as_ref()))
            {
                // Keep the directory: it holds the children's logs and
                // failure reports for post-mortem.
                std::panic::resume_unwind(root);
            }
            let _ = std::fs::remove_dir_all(&dir);
            vec![t0]
        }
        Err(p) => {
            payloads.push(p);
            let root = payloads
                .into_iter()
                .min_by_key(|p| RankFailure::severity(p.as_ref()))
                .expect("at least rank 0's own unwind payload is present");
            std::panic::resume_unwind(root);
        }
    }
}

fn join_world<T, F, P>(
    mut transport: P,
    rank: usize,
    size: usize,
    f: F,
    plan: &FaultPlan,
    attempt: u32,
) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
    P: ProcTransport,
{
    if let Some(w) = CGNN_WORLD.lookup() {
        let w: usize = w.parse().expect("CGNN_WORLD must be a world size");
        assert_eq!(
            w, size,
            "CGNN_WORLD disagrees with the program's world size at this launch: \
             the replayed program diverged from the spawner"
        );
    }
    assert!(rank < size, "CGNN_RANK must be inside 0..CGNN_WORLD");
    let dir = CGNN_PROC_DIR
        .lookup()
        .map_or_else(std::env::temp_dir, PathBuf::from);
    let launched = CGNN_LAUNCHED.lookup().is_some();
    let conns = transport
        .connect(rank, size, &dir)
        .expect("establish this rank's connection mesh");
    let result = run_local_rank(rank, transport.label(), conns, &f, plan, attempt);
    match result {
        Ok(t) => {
            if launched {
                // The re-exec'd child's program is done: its only purpose
                // was this rank. Results other than rank 0's are dropped
                // by design.
                let _ = io::stdout().flush();
                let _ = io::stderr().flush();
                std::process::exit(0);
            }
            vec![t]
        }
        Err(p) => {
            if launched {
                let _ = std::fs::write(fail_path(&dir, rank), encode_failure(p.as_ref()));
                let _ = io::stdout().flush();
                let _ = io::stderr().flush();
                std::process::exit(CHILD_FAIL_EXIT);
            }
            std::panic::resume_unwind(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_reports_round_trip() {
        let cases: Vec<RankFailure> = vec![
            RankFailure::Killed { rank: 2, op: 17 },
            RankFailure::PeerDead {
                rank: 1,
                dead: vec![0, 3],
            },
            RankFailure::Stalled { rank: 3, src: 1 },
        ];
        for case in cases {
            let text = encode_failure(&case.clone() as &(dyn Any + Send));
            let back = decode_failure(&text, 9);
            assert_eq!(RankFailure::from_payload(back.as_ref()), Some(&case));
        }
        let genuine = encode_failure(&"index out of bounds" as &(dyn Any + Send));
        let back = decode_failure(&genuine, 9);
        assert_eq!(
            back.downcast_ref::<String>().map(String::as_str),
            Some("index out of bounds")
        );
        // Garbage degrades to "the process is gone".
        let back = decode_failure("segfault probably", 4);
        assert_eq!(
            RankFailure::from_payload(back.as_ref()),
            Some(&RankFailure::PeerDead {
                rank: 0,
                dead: vec![4]
            })
        );
    }

    #[test]
    fn scopes_restart_launch_numbering() {
        let (outer_a, _) = next_launch();
        {
            let _scope = reexec_scope(["worker", "--exact"]);
            let (s1, args) = next_launch();
            let (s2, _) = next_launch();
            assert_eq!((s1, s2), (1, 2));
            assert_eq!(args, vec!["worker".to_string(), "--exact".to_string()]);
        }
        {
            let _scope = reexec_scope(["other"]);
            assert_eq!(next_launch().0, 1, "each scope numbers from 1");
        }
        let (outer_b, _) = next_launch();
        assert_eq!(outer_b, outer_a + 1, "the global counter resumes");
    }
}
