//! The process worlds: one OS *process* per rank, launched by re-exec'ing
//! the current binary and meshed over Unix-domain sockets
//! ([`Backend::Proc`](crate::Backend::Proc)) or TCP
//! ([`Backend::Socket`](crate::Backend::Socket)).
//!
//! # Launch model
//!
//! A launch inspects the environment to decide its role:
//!
//! * **Spawner** (`CGNN_RANK` unset): the calling process becomes rank 0.
//!   It creates a rendezvous directory, binds rank 0's listener, re-execs
//!   the binary once per remaining rank with `CGNN_RANK`, `CGNN_WORLD`,
//!   `CGNN_PROC_SEQ` and `CGNN_PROC_DIR` (and, over TCP, the resolved
//!   `CGNN_SOCKET_ADDR`) set, runs its own rank inline, and reaps the
//!   children. Only rank 0's result returns (a one-element vector).
//! * **Joiner** (`CGNN_RANK` set, and this is the launch `CGNN_PROC_SEQ`
//!   names): a re-exec'd child. It connects the mesh, runs its rank,
//!   reports failure through a `rank{r}.fail` file in the rendezvous
//!   directory, and exits. With `CGNN_PROC_SEQ` unset the rank is
//!   operator-run: every launch joins and returns this rank's result.
//! * **Replayer** (`CGNN_RANK` set, an *earlier* launch than the one this
//!   child was spawned for): a child re-runs the program from `main`, so
//!   it satisfies each earlier launch in-process on the serial backend —
//!   bit-identical to what the parent computed — and reaches its join
//!   point with exactly the parent's state.
//!
//! Test binaries (whose argv selects which tests run) pin the argv for
//! children with [`reexec_scope`], which also restarts the launch
//! numbering so parent and child count launches identically.
//!
//! # Mesh handshake
//!
//! Rank 0 listens at a known address: `r0.sock` in the rendezvous
//! directory, or `CGNN_SOCKET_ADDR`. Every other rank binds its own
//! listener, dials rank 0 with a `Hello` frame labelled with that
//! listener's table entry — a socket file name (resolved against the
//! directory) or a TCP `host:port`, so never the table's `,` — and reads
//! back the address table once every rank has checked in. Rank `r` then
//! dials ranks `1..r` and accepts ranks `r + 1..R`: one connection per
//! pair. Every accepted `Hello` must come from a rank above the acceptor
//! that is not yet connected; every dial and accept retries every
//! 0.5 ms until one 60 s deadline.

use std::any::Any;
use std::cell::RefCell;
use std::io::ErrorKind::{InvalidData, NotFound, TimedOut, WouldBlock};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backend::engine::{Engine, Frame, Mailbox, Sleep, KIND_HELLO};
use crate::backend::serial;
use crate::backend::wire::{Conn, StreamCarrier};
use crate::comm::Comm;
use crate::fault::{FaultPlan, RankFailure};
use crate::knob::{CGNN_PROC_DIR, CGNN_PROC_SEQ, CGNN_RANK, CGNN_SOCKET_ADDR, CGNN_WORLD};

/// How long the handshake's dials and accepts retry before giving up.
const CONNECT_DEADLINE: Duration = Duration::from_secs(60);
/// How often a pending dial, accept or child reap polls. A checked-in
/// rank waits out rank 0's sleep between accepts, so keep it short.
const POLL: Duration = Duration::from_micros(500);
/// Rank 0's Unix socket, in the rendezvous directory.
const UDS_ROOT: &str = "r0.sock";
/// Rank 0's TCP address when the spawner is given none: an ephemeral port.
const TCP_ROOT: &str = "127.0.0.1:0";
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

// ---------------------------------------------------------------------
// The mesh handshake
// ---------------------------------------------------------------------

/// The network a process world meshes over: Unix-domain sockets in the
/// rendezvous directory, or TCP (able to span machines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Net {
    Uds,
    Tcp,
}

impl Net {
    fn label(self) -> &'static str {
        match self {
            Net::Uds => "proc",
            Net::Tcp => "socket",
        }
    }
}

enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Bind `entry` — a socket file name in `dir`, or a TCP `host:port` —
    /// and return the listener with the entry peers dial it by (a TCP
    /// port 0 resolved).
    fn bind(net: Net, entry: &str, dir: &Path) -> io::Result<(Listener, String)> {
        Ok(match net {
            Net::Uds => {
                let path = dir.join(entry);
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (Listener::Uds(l), entry.to_string())
            }
            Net::Tcp => {
                let l = TcpListener::bind(entry)?;
                l.set_nonblocking(true)?;
                let resolved = l.local_addr()?.to_string();
                (Listener::Tcp(l), resolved)
            }
        })
    }

    /// Accept every rank above `rank` into `conns`; return their `Hello`
    /// labels by rank. A `Hello` from no new rank in `rank + 1..size`, or
    /// whose label holds the table's `,`, is `InvalidData`.
    fn accept_higher(
        &self,
        rank: usize,
        conns: &mut [Option<Conn>],
        deadline: Instant,
    ) -> io::Result<Vec<String>> {
        let size = conns.len();
        let mut labels = vec![String::new(); size];
        for _ in rank + 1..size {
            let missing: Vec<usize> = (rank + 1..size).filter(|&p| conns[p].is_none()).collect();
            let waiting = format!("rank {rank} awaiting Hellos from ranks {missing:?}");
            let conn = retry(deadline, &waiting, || match self {
                Listener::Uds(l) => l.accept().map(|(s, _)| Conn::Uds(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            })?;
            let hello =
                read_by(&conn, deadline, &waiting)?.ok_or_else(|| refused(rank, "peer hung up"))?;
            let src = hello.src as usize;
            let fresh = src > rank && src < size && conns[src].is_none();
            if hello.kind != KIND_HELLO || !fresh || hello.label.contains(',') {
                return Err(refused(rank, &format!("bad Hello from rank {src}")));
            }
            labels[src] = hello.label.into_owned();
            conns[src] = Some(conn);
        }
        Ok(labels)
    }
}

fn refused(rank: usize, what: &str) -> io::Error {
    io::Error::new(InvalidData, format!("handshake at rank {rank}: {what}"))
}

fn hello(src: usize, label: &str) -> Frame {
    Frame {
        label: label.to_string().into(),
        ..Frame::control(KIND_HELLO, src as u32, 0)
    }
}

/// Read one handshake frame from `conn` by `deadline`: a peer that
/// connects and never writes is `TimedOut`, naming what was `waiting`.
/// The timeout is cleared again: on an established link, the carrier's
/// reader reports EOF or a corrupt frame as the peer's death.
fn read_by(conn: &Conn, deadline: Instant, waiting: &str) -> io::Result<Option<Frame>> {
    let left = deadline.saturating_duration_since(Instant::now());
    // A zero timeout is an error, not an expired one.
    conn.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
    let frame = conn.read().map_err(|e| match e.kind() {
        WouldBlock | TimedOut => io::Error::new(TimedOut, format!("{waiting}: timed out ({e})")),
        _ => e,
    })?;
    conn.set_read_timeout(None)?;
    Ok(frame)
}

/// Retry a dial or accept every [`POLL`] until it yields a link, tuned
/// for the mesh; past `deadline` its last error comes back as `TimedOut`.
fn retry(
    deadline: Instant,
    what: &str,
    mut attempt: impl FnMut() -> io::Result<Conn>,
) -> io::Result<Conn> {
    loop {
        match attempt() {
            Ok(conn) => return conn.tune().map(|()| conn),
            Err(_) if Instant::now() < deadline => std::thread::sleep(POLL),
            Err(e) => return Err(io::Error::new(TimedOut, format!("{what}: timed out ({e})"))),
        }
    }
}

/// Dial the listener at table entry `entry` on `net`.
fn dial(net: Net, entry: &str, dir: &Path, deadline: Instant) -> io::Result<Conn> {
    retry(deadline, &format!("dialing {entry}"), || match net {
        Net::Uds => UnixStream::connect(dir.join(entry)).map(Conn::Uds),
        Net::Tcp => TcpStream::connect(entry).map(Conn::Tcp),
    })
}

/// Connect rank `rank` of a `size`-rank world over `net` (see the module
/// docs): `conns[p]` for every peer `p`, `None` at `rank`. Rank 0 listens
/// on `bound` when given, else binds `root`; every other rank dials it.
/// A world of one rank needs no `root`.
fn connect(
    net: Net,
    rank: usize,
    size: usize,
    root: Option<&str>,
    dir: &Path,
    bound: Option<Listener>,
) -> io::Result<Vec<Option<Conn>>> {
    let mut conns: Vec<Option<Conn>> = (0..size).map(|_| None).collect();
    if size == 1 {
        return Ok(conns);
    }
    let root = root.ok_or_else(|| io::Error::new(NotFound, "no address for rank 0"));
    let deadline = Instant::now() + CONNECT_DEADLINE;
    if rank == 0 {
        let listener = bound.map_or_else(|| Listener::bind(net, root?, dir).map(|(l, _)| l), Ok)?;
        let table = listener.accept_higher(0, &mut conns, deadline)?.join(",");
        for conn in conns.iter().flatten() {
            conn.write(&hello(0, &table))?;
        }
        return Ok(conns);
    }

    // Check in with rank 0 from a listener on the interface that reaches
    // it, and learn the table.
    let link = dial(net, root?, dir, deadline)?;
    let own = match &link {
        Conn::Uds(_) => format!("r{rank}.sock"),
        Conn::Tcp(s) => SocketAddr::new(s.local_addr()?.ip(), 0).to_string(),
    };
    let (listener, entry) = Listener::bind(net, &own, dir)?;
    link.write(&hello(rank, &entry))?;
    let waiting = format!("rank {rank} awaiting the address table from rank 0");
    let table = read_by(&link, deadline, &waiting)?;
    let table = table.filter(|f| f.kind == KIND_HELLO && f.src == 0);
    let table = table.map_or(String::new(), |f| f.label.into_owned());
    let entries: Vec<&str> = table.split(',').collect();
    if entries.len() != size {
        return Err(refused(rank, "no address table from rank 0"));
    }
    conns[0] = Some(link);
    for peer in 1..rank {
        let conn = dial(net, entries[peer], dir, deadline)?;
        conn.write(&hello(rank, ""))?;
        conns[peer] = Some(conn);
    }
    listener.accept_higher(rank, &mut conns, deadline)?;
    Ok(conns)
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
    let mailbox = Mailbox::new(rank, conns.len(), Arc::new(Sleep));
    #[expect(
        clippy::expect_used,
        reason = "a carrier whose threads cannot start is a world that cannot come up, which `launch` documents"
    )]
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

/// Launch `f` on `size` single-process ranks meshed over `net`; returns
/// rank 0's result only (`vec[0]`), because the other ranks run in other
/// processes.
///
/// # Panics
///
/// When this rank's world cannot come up (a rank fails to spawn or the
/// mesh fails to connect), naming the cause; a spawner first kills the
/// ranks it started. On a `CGNN_RANK` or `CGNN_WORLD` that does not parse
/// or fit the world.
pub(crate) fn launch<T, F>(net: Net, size: usize, f: F, plan: &FaultPlan, attempt: u32) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    assert!(size > 0, "world size must be positive");
    let (seq, args) = next_launch();
    // The rendezvous directory: the spawner's base, a joiner's own.
    let dir = CGNN_PROC_DIR
        .lookup()
        .map_or_else(std::env::temp_dir, PathBuf::from);
    // Where rank 0 listens: `r0.sock` in the rendezvous directory, or
    // `CGNN_SOCKET_ADDR`.
    let root = match net {
        Net::Uds => Some(UDS_ROOT.to_string()),
        Net::Tcp => CGNN_SOCKET_ADDR.lookup(),
    };
    let Some(rank) = CGNN_RANK.lookup() else {
        let root = root.unwrap_or_else(|| TCP_ROOT.to_string());
        return spawn_world(net, size, seq, args, root, &dir, f, plan, attempt);
    };
    #[expect(
        clippy::expect_used,
        reason = "a malformed launch environment fails at startup, which `launch` documents"
    )]
    let rank: usize = rank
        .parse()
        .expect("CGNN_RANK must be a rank index in 0..world");
    // `CGNN_PROC_SEQ` is set on re-exec'd children only. An operator-run
    // rank (one process per machine) has no spawner replaying a program
    // prefix, so every cross-process launch in the program joins.
    let launched = CGNN_PROC_SEQ.lookup().is_some();
    if launched && seq != CGNN_PROC_SEQ.usize_or(0) as u64 {
        // A child replaying a launch its parent already completed:
        // satisfy it deterministically in-process. The serial backend is
        // bit-identical to every other transport, so the program reaches
        // this child's join point with the parent's state.
        let mut all = serial::launch(size, f, plan, attempt);
        all.truncate(1);
        return all;
    }
    join_world(net, rank, size, launched, root, &dir, f, plan, attempt)
}

fn spawn_world<T, F>(
    net: Net,
    size: usize,
    seq: u64,
    args: Vec<String>,
    root: String,
    base: &Path,
    f: F,
    plan: &FaultPlan,
    attempt: u32,
) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    // `seq` restarts in every `reexec_scope`, so concurrent scopes of one
    // process (parallel tests) need the counter to keep their
    // directories apart.
    static SPAWNED: AtomicU64 = AtomicU64::new(0);
    let dir = base.join(format!(
        "cgnn-{}-{}-{seq}-{}",
        net.label(),
        std::process::id(),
        SPAWNED.fetch_add(1, Ordering::Relaxed)
    ));
    // Rank 0 listens before any child exists to dial it.
    let setup = std::fs::create_dir_all(&dir)
        .and_then(|()| Listener::bind(net, &root, &dir))
        .and_then(|bound| Ok((bound, std::env::current_exe()?)));
    let ((listener, root), exe) = match setup {
        Ok(setup) => setup,
        Err(e) => abort_spawn(Vec::new(), &dir, format!("set up rank 0 in {dir:?}: {e}")),
    };
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(size.saturating_sub(1));
    for r in 1..size {
        let spawned = std::fs::File::create(dir.join(format!("rank{r}.log"))).and_then(|log| {
            let mut cmd = Command::new(&exe);
            cmd.args(&args)
                .env(CGNN_RANK.name, r.to_string())
                .env(CGNN_WORLD.name, size.to_string())
                .env(CGNN_PROC_SEQ.name, seq.to_string())
                .env(CGNN_PROC_DIR.name, &dir)
                .stdin(Stdio::null())
                .stdout(Stdio::from(log.try_clone()?))
                .stderr(Stdio::from(log));
            if net == Net::Tcp {
                cmd.env(CGNN_SOCKET_ADDR.name, &root);
            }
            cmd.spawn()
        });
        match spawned {
            Ok(child) => children.push((r, child)),
            Err(e) => abort_spawn(children, &dir, format!("re-exec rank {r}: {e}")),
        }
    }

    // This process is rank 0.
    let conns = match connect(net, 0, size, Some(&root), &dir, Some(listener)) {
        Ok(conns) => conns,
        Err(e) => abort_spawn(children, &dir, unconnected(net, 0, e)),
    };
    let result = run_local_rank(0, net.label(), conns, &f, plan, attempt);

    // Reap the children; collect failure reports.
    let mut payloads: Vec<Box<dyn Any + Send>> = Vec::new();
    let deadline = Instant::now() + CHILD_WAIT;
    for (r, mut child) in children {
        let exited_ok = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => std::thread::sleep(POLL),
                // Past the deadline, or no longer pollable: the rank failed.
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break false;
                }
            }
        };
        if !exited_ok {
            payloads.push(child_payload(&dir, r));
        }
    }
    match result {
        Ok(t0) if payloads.is_empty() => {
            let _ = std::fs::remove_dir_all(&dir);
            vec![t0]
        }
        result => {
            // Keep the directory: it holds the children's logs and
            // failure reports for post-mortem.
            payloads.extend(result.err());
            #[expect(
                clippy::expect_used,
                reason = "this arm runs only when rank 0 failed or a child left a payload"
            )]
            let root = payloads
                .into_iter()
                .min_by_key(|p| RankFailure::severity(p.as_ref()))
                .expect("a failed rank left an unwind payload");
            std::panic::resume_unwind(root)
        }
    }
}

/// Why rank `rank` has no world: `e` from its [`connect`].
fn unconnected(net: Net, rank: usize, e: io::Error) -> String {
    format!(
        "rank {rank} could not connect the {} mesh: {e}",
        net.label()
    )
}

/// The spawner cannot bring its world up: kill and reap the children
/// spawned so far, so none outlives the launch, then panic with `why` and
/// the failure reports they left.
#[expect(
    clippy::panic,
    reason = "the launch API returns results, not errors: a world that cannot come up fails the launch loudly, as rank failures do"
)]
fn abort_spawn(children: Vec<(usize, Child)>, dir: &Path, mut why: String) -> ! {
    for (r, mut child) in children {
        let _ = child.kill();
        let _ = child.wait();
        if let Ok(report) = std::fs::read_to_string(fail_path(dir, r)) {
            why.push_str(&format!("; rank {r} reported: {}", report.trim()));
        }
    }
    panic!("{why}")
}

/// End a re-exec'd child (its only purpose was its rank): exit 0, or
/// write `failure` to its `rank{r}.fail` report and exit [`CHILD_FAIL_EXIT`].
fn exit_child(dir: &Path, rank: usize, failure: Option<&(dyn Any + Send)>) -> ! {
    if let Some(p) = failure {
        let _ = std::fs::write(fail_path(dir, rank), encode_failure(p));
    }
    let _ = io::stdout().flush();
    let _ = io::stderr().flush();
    std::process::exit(failure.map_or(0, |_| CHILD_FAIL_EXIT))
}

fn join_world<T, F>(
    net: Net,
    rank: usize,
    size: usize,
    launched: bool,
    root: Option<String>,
    dir: &Path,
    f: F,
    plan: &FaultPlan,
    attempt: u32,
) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    if let Some(w) = CGNN_WORLD.lookup() {
        #[expect(
            clippy::expect_used,
            reason = "a malformed launch environment fails at startup, which `launch` documents"
        )]
        let w: usize = w.parse().expect("CGNN_WORLD must be a world size");
        assert_eq!(
            w, size,
            "CGNN_WORLD disagrees with the program's world size at this launch: \
             the replayed program diverged from the spawner"
        );
    }
    assert!(rank < size, "CGNN_RANK must be inside 0..CGNN_WORLD");
    let conns =
        connect(net, rank, size, root.as_deref(), dir, None).map_err(|e| unconnected(net, rank, e));
    let conns = match conns {
        Ok(conns) => conns,
        Err(why) if launched => exit_child(dir, rank, Some(&why)),
        #[expect(
            clippy::panic,
            reason = "an operator-run rank whose world cannot come up fails its launch loudly, naming the cause"
        )]
        Err(why) => panic!("{why}"),
    };
    let result = run_local_rank(rank, net.label(), conns, &f, plan, attempt);
    if launched {
        // Results other than rank 0's are dropped by design.
        exit_child(dir, rank, result.as_ref().err().map(|p| p.as_ref()));
    }
    match result {
        Ok(t) => vec![t],
        Err(p) => std::panic::resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::engine::KIND_P2P;

    /// A fresh, empty rendezvous directory for one handshake test.
    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cgnn-hs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Rank 0's listener on `net`, as a spawner binds it.
    fn bind_root(net: Net, dir: &Path) -> (Listener, String) {
        let root = if net == Net::Uds { UDS_ROOT } else { TCP_ROOT };
        Listener::bind(net, root, dir).unwrap()
    }

    /// R = 4 ranks on threads connect a full mesh: one link per pair, and
    /// a frame crosses every link each way, to the rank that link names.
    fn full_mesh_on(net: Net) {
        const R: usize = 4;
        let dir = fresh_dir(net.label());
        let (listener, root) = bind_root(net, &dir);
        let mut listener = Some(listener);
        let meshes: Vec<Vec<Option<Conn>>> = std::thread::scope(|s| {
            let ranks: Vec<_> = (0..R)
                .map(|rank| {
                    let bound = if rank == 0 { listener.take() } else { None };
                    let (root, dir) = (&root, &dir);
                    s.spawn(move || connect(net, rank, R, Some(root), dir, bound).unwrap())
                })
                .collect();
            ranks.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (rank, conns) in meshes.iter().enumerate() {
            let linked: Vec<usize> = (0..R).filter(|&p| conns[p].is_some()).collect();
            let others: Vec<usize> = (0..R).filter(|&p| p != rank).collect();
            assert_eq!(linked, others, "rank {rank} links every other rank once");
            for (p, conn) in conns.iter().enumerate() {
                if let Some(conn) = conn {
                    let tag = (rank * R + p) as u64;
                    conn.write(&Frame::control(KIND_P2P, rank as u32, tag))
                        .unwrap();
                }
            }
        }
        for (rank, conns) in meshes.iter().enumerate() {
            for (p, conn) in conns.iter().enumerate() {
                if let Some(conn) = conn {
                    let frame = conn.read().unwrap().expect("a frame, not EOF");
                    assert_eq!((frame.src as usize, frame.tag), (p, (p * R + rank) as u64));
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn handshake_meshes_every_pair_over_unix_sockets() {
        full_mesh_on(Net::Uds);
    }

    #[test]
    fn handshake_meshes_every_pair_over_tcp() {
        full_mesh_on(Net::Tcp);
    }

    /// What rank `rank` of a 4-rank world makes of peers that dial it and
    /// open with the given `Hello`s (`(src, label)`), in order.
    fn accept_hellos(net: Net, rank: usize, hellos: &[(u32, &str)]) -> io::Result<Vec<String>> {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = fresh_dir(&format!(
            "{}-{}",
            net.label(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let (listener, entry) = bind_root(net, &dir);
        let deadline = Instant::now() + Duration::from_secs(5);
        let _peers: Vec<Conn> = hellos
            .iter()
            .map(|&(src, label)| {
                let conn = dial(net, &entry, &dir, deadline).unwrap();
                conn.write(&hello(src as usize, label)).unwrap();
                conn
            })
            .collect();
        let mut conns: Vec<Option<Conn>> = (0..4).map(|_| None).collect();
        let labels = listener.accept_higher(rank, &mut conns, deadline);
        std::fs::remove_dir_all(&dir).unwrap();
        labels
    }

    /// A peer that dials and never writes its `Hello` cannot hold the
    /// handshake past its deadline.
    #[test]
    fn accept_times_out_on_a_silent_peer() {
        for net in [Net::Uds, Net::Tcp] {
            let dir = fresh_dir(&format!("silent-{}", net.label()));
            let (listener, entry) = bind_root(net, &dir);
            let deadline = Instant::now() + Duration::from_secs(1);
            let _silent = dial(net, &entry, &dir, deadline).unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut conns: Vec<Option<Conn>> = (0..2).map(|_| None).collect();
                let _ = tx.send(listener.accept_higher(0, &mut conns, deadline).map(|_| ()));
            });
            let result = rx.recv_timeout(Duration::from_secs(5));
            let err = result.unwrap().expect_err("a silent peer is refused");
            assert_eq!(err.kind(), TimedOut, "{net:?}: {err}");
            assert!(err.to_string().contains("awaiting Hellos"), "{err}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn accept_refuses_duplicate_and_out_of_range_hellos() {
        for net in [Net::Uds, Net::Tcp] {
            let refuses = |rank, hellos: &[(u32, &str)]| {
                let err = accept_hellos(net, rank, hellos).expect_err("a bad Hello is refused");
                assert_eq!(
                    err.kind(),
                    InvalidData,
                    "{net:?} rank {rank} {hellos:?}: {err}"
                );
            };
            // Rank 0 accepts ranks 1..4 once each.
            refuses(0, &[(1, "a"), (1, "b")]);
            refuses(0, &[(4, "a")]);
            refuses(0, &[(0, "a")]);
            // A higher rank accepts only the ranks above it, once each.
            refuses(1, &[(2, ""), (2, "")]);
            refuses(1, &[(1, "")]);
            refuses(1, &[(0, "")]);
            refuses(1, &[(4, "")]);
            // No label may split the address table.
            refuses(0, &[(1, "a,b")]);
            let labels = accept_hellos(net, 1, &[(3, "c"), (2, "b")]).unwrap();
            assert_eq!(labels, ["", "", "b", "c"], "{net:?}: labels by rank");
        }
    }

    #[test]
    fn failure_reports_round_trip() {
        let cases: Vec<RankFailure> = vec![
            RankFailure::Killed { rank: 2, op: 17 },
            RankFailure::PeerDead {
                rank: 1,
                dead: vec![0, 3],
            },
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
