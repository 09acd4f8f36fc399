//! TCP socket backend: one process per rank over a full TCP mesh, so a
//! training job can span machines.
//!
//! # Rendezvous
//!
//! Rank 0 listens on `CGNN_SOCKET_ADDR` (the spawner binds
//! `127.0.0.1:0` and exports the resolved address to its children; a
//! manual multi-machine launch sets it to a routable `host:port`). Every
//! other rank dials that address, binds its own *mesh* listener on the
//! interface the rendezvous connection uses, and introduces itself with a
//! `Hello` frame carrying its mesh address. Once all ranks have checked
//! in, rank 0 broadcasts the address table; rank `r` then dials every
//! rank below it (rank 0's links *are* the rendezvous connections) and
//! accepts every rank above it — a full mesh with exactly one connection
//! per pair, `TCP_NODELAY` everywhere.
//!
//! The framing on the mesh is the shared checksummed `CGNW` format (see
//! `wire` module): length-prefixed little-endian `f64` frames
//! with a trailing FNV-1a digest — the same hand-rolled
//! length-prefix-then-verify discipline `cgnn-serve` uses on its client
//! sockets. Matching and liveness are the shared `engine`'s, so tagged
//! point-to-point traffic is FIFO per peer (post `k` matches arrival
//! `k`), exactly as in process.
//!
//! # Launch model
//!
//! Identical to the `proc` backend (same env handshake, same replay rule,
//! same failure reports — see the `proc` module); only the transport
//! differs. A manual launch runs the same binary on each machine with
//! `CGNN_RANK`, `CGNN_WORLD`, and `CGNN_SOCKET_ADDR` set.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::backend::engine::{Frame, KIND_HELLO};
use crate::backend::proc::{launch_stream, ProcTransport};
use crate::backend::wire::{self, Conn};
use crate::comm::Comm;
use crate::fault::FaultPlan;
use crate::knob::CGNN_SOCKET_ADDR;

/// How long rendezvous and mesh dialing retry before giving up.
const CONNECT_DEADLINE: Duration = Duration::from_secs(60);

fn required_addr() -> io::Result<String> {
    CGNN_SOCKET_ADDR.lookup().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "CGNN_SOCKET_ADDR must name the rank-0 rendezvous address",
        )
    })
}

fn dial(addr: &str, deadline: Instant) -> io::Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(e),
        }
    }
}

fn bad_frame(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("rendezvous: {what}"))
}

pub(crate) struct TcpTransport {
    /// Bound by the spawner in `prepare`, consumed by rank 0's `connect`.
    rendezvous: Option<TcpListener>,
}

impl TcpTransport {
    pub(crate) fn new() -> TcpTransport {
        TcpTransport { rendezvous: None }
    }
}

impl ProcTransport for TcpTransport {
    fn label(&self) -> &'static str {
        "socket"
    }

    fn prepare(&mut self, _dir: &Path, size: usize) -> io::Result<Vec<(&'static str, String)>> {
        if size == 1 {
            return Ok(Vec::new());
        }
        let addr = CGNN_SOCKET_ADDR.string_or("127.0.0.1:0");
        let listener = TcpListener::bind(&addr)?;
        let resolved = listener.local_addr()?.to_string();
        self.rendezvous = Some(listener);
        Ok(vec![(CGNN_SOCKET_ADDR.name, resolved)])
    }

    fn connect(&mut self, rank: usize, size: usize, _dir: &Path) -> io::Result<Vec<Option<Conn>>> {
        let mut conns: Vec<Option<Conn>> = (0..size).map(|_| None).collect();
        if size == 1 {
            return Ok(conns);
        }
        let deadline = Instant::now() + CONNECT_DEADLINE;
        if rank == 0 {
            let listener = match self.rendezvous.take() {
                Some(l) => l,
                // Manual launch: rank 0 binds the advertised address.
                None => TcpListener::bind(required_addr()?)?,
            };
            let mut table = vec![String::new(); size];
            listener.set_nonblocking(true)?;
            let mut pending = size - 1;
            while pending > 0 {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false)?;
                        s.set_nodelay(true)?;
                        let hello = wire::read_frame(&mut (&s))?
                            .ok_or_else(|| bad_frame("peer closed before Hello"))?;
                        let src = hello.src as usize;
                        if hello.kind != KIND_HELLO || src == 0 || src >= size {
                            return Err(bad_frame("Hello from an impossible rank"));
                        }
                        if conns[src].is_some() {
                            return Err(bad_frame("duplicate Hello for one rank"));
                        }
                        table[src] = hello.label.into_owned();
                        conns[src] = Some(Conn::Tcp(s));
                        pending -= 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "rendezvous: not every rank checked in",
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => return Err(e),
                }
            }
            // Broadcast the mesh address table; rank 0's own links are
            // these rendezvous connections.
            let joined = table.join(",");
            for conn in conns.iter().flatten() {
                let Conn::Tcp(s) = conn else { continue };
                wire::write_frame(
                    &mut (&*s),
                    &Frame {
                        kind: KIND_HELLO,
                        src: 0,
                        tag: 0,
                        label: joined.clone().into(),
                        data: Vec::new(),
                    },
                )?;
            }
            return Ok(conns);
        }

        // Check in with rank 0 and learn the mesh table.
        let stream = dial(&required_addr()?, deadline)?;
        let ip = stream.local_addr()?.ip();
        let mesh = TcpListener::bind((ip, 0))?;
        wire::write_frame(
            &mut (&stream),
            &Frame {
                kind: KIND_HELLO,
                src: rank as u32,
                tag: 0,
                label: mesh.local_addr()?.to_string().into(),
                data: Vec::new(),
            },
        )?;
        let reply = wire::read_frame(&mut (&stream))?
            .ok_or_else(|| bad_frame("rank 0 closed before the address table"))?;
        if reply.kind != KIND_HELLO || reply.src != 0 {
            return Err(bad_frame("expected the address table from rank 0"));
        }
        let table: Vec<&str> = reply.label.split(',').collect();
        if table.len() != size {
            return Err(bad_frame("address table size does not match the world"));
        }
        conns[0] = Some(Conn::Tcp(stream));

        // Dial every lower mesh rank, accept every higher one.
        for peer in 1..rank {
            let s = dial(table[peer], deadline)?;
            wire::write_frame(&mut (&s), &Frame::control(KIND_HELLO, rank as u32, 0))?;
            conns[peer] = Some(Conn::Tcp(s));
        }
        mesh.set_nonblocking(true)?;
        let mut pending = size - 1 - rank;
        while pending > 0 {
            match mesh.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    s.set_nodelay(true)?;
                    let hello = wire::read_frame(&mut (&s))?
                        .ok_or_else(|| bad_frame("mesh peer closed before Hello"))?;
                    let src = hello.src as usize;
                    if hello.kind != KIND_HELLO || src <= rank || src >= size {
                        return Err(bad_frame("mesh Hello from an impossible rank"));
                    }
                    conns[src] = Some(Conn::Tcp(s));
                    pending -= 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "mesh accept: not every higher rank dialed in",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(conns)
    }
}

/// Launch `f` on `size` single-process ranks over a full TCP mesh;
/// returns rank 0's result only (`vec[0]`).
pub(crate) fn launch<T, F>(size: usize, f: F, plan: &FaultPlan, attempt: u32) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    launch_stream(TcpTransport::new(), size, f, plan, attempt)
}
