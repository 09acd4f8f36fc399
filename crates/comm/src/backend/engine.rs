//! The one matching engine under every transport.
//!
//! Every in-tree world — threads, serial, proc, socket, and the
//! single-rank loopback — is the same [`Engine`]: a per-rank [`Mailbox`]
//! of arrivals (FIFO per peer), one blocking primitive
//! ([`Mailbox::wait_on`]) and one router ([`Mailbox::dispatch`]). What
//! differs between transports is two small plug-ins:
//!
//! * a [`Carrier`] — "hand this [`Frame`] to peer `p`". In memory that is
//!   a direct `dispatch` into the destination rank's mailbox; across
//!   processes it is the `wire` module's stream carrier over a
//!   `UnixStream` or `TcpStream`: the posting thread writes the frame,
//!   and one reader thread per peer decodes arrivals. A world of one
//!   rank has no carrier.
//! * a [`Park`] policy — what a rank does while a wait cannot complete:
//!   sleep on the mailbox condvar until its mailbox changes ([`Sleep`]),
//!   or yield the serial scheduler's baton.
//!
//! # Ordering and matching
//!
//! A carrier delivers each peer's frames in send order. Collectives need
//! no extra synchronization: barrier, all-gather and all-to-all are one
//! labelled round ([`Engine::round`]) — post one frame to every peer, pop
//! one from every peer's collective queue — so the `k`-th collective frame
//! popped from a peer belongs to the `k`-th collective this rank performs,
//! and a label that differs from this rank's own is a diverged schedule,
//! failed loudly as a `collective mismatch`. Point-to-point matching is
//! [`PostQueue`]: post `k` claims arrival `k`.
//!
//! # Sends do not wait on the peer's program
//!
//! Every post — a send, a collective round's frames, `Bye`, `Dead` —
//! hands its frame to the carrier on the posting thread. In memory that
//! is one `dispatch`. Over a stream the posting thread writes the frame
//! itself and blocks while the peer's socket buffer is full, yet it
//! cannot deadlock, for two reasons:
//!
//! * a send can wait only for the peer's reader thread, and that thread
//!   never waits on its rank's program: it reads, decodes, and takes the
//!   mailbox lock for one `dispatch`;
//! * no post runs while the mailbox lock is held, so a rank blocked in a
//!   send never holds the lock its own reader needs to drain what the
//!   peer is sending it meanwhile.
//!
//! So ranks may post every send before any receive (the Send-Recv and
//! Ovl-SR exchanges do), however large the frames.
//!
//! # Liveness
//!
//! A rank that finishes cleanly announces `Bye` to every peer; a rank
//! that unwinds, or is killed by fault injection, announces `Dead` (and
//! a stream carrier reports EOF without `Bye` as a death). A wait whose
//! probe fails re-checks the peer table before parking and unwinds with
//! [`RankFailure::PeerDead`] when any rank is `Dead`, or when a peer the
//! wait depends on has said `Bye` — it finished its program, so the data
//! can never arrive (a diverged schedule). The session recovery loop
//! catches that typed panic and rebuilds the world at the surviving size.
//!
//! A parked rank wakes only when its mailbox changes, and every status
//! change notifies: [`Mailbox::dispatch`] (`Dead`, `Bye`) and
//! [`Mailbox::hangup`] (a carrier's EOF, corrupt frame or failed write).
//! Nothing yet bounds a wait on a peer that is alive but silent.
//!
//! # Fault injection
//!
//! A launch arms each rank's engine from its [`FaultPlan`]: the one kill
//! scripted for `(attempt, rank)`, if any ([`ArmedFault`]). The engine
//! strikes at the start of every comm op, before any frame is posted, so
//! a kill at a barrier's index dies inside that barrier. A rank with no
//! armed fault carries no fault state and counts nothing.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::fault::{ArmedFault, FaultPlan, RankFailure};
use crate::stats::StatsSnapshot;

/// Frame kinds. `Hello` belongs to the stream rendezvous, before a world
/// exists; the engine routes the rest.
pub(crate) const KIND_HELLO: u8 = 0;
pub(crate) const KIND_P2P: u8 = 1;
pub(crate) const KIND_COLLECTIVE: u8 = 2;
pub(crate) const KIND_DEAD: u8 = 3;
pub(crate) const KIND_BYE: u8 = 4;

/// Message on a point-to-point channel: `(tag, payload)`.
pub(crate) type P2pMsg = (u32, Vec<f64>);

/// The unit a [`Carrier`] moves between ranks (and the `wire` module
/// serializes).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Frame {
    pub kind: u8,
    pub src: u32,
    /// P2p tag or dead-rank id, depending on `kind`.
    pub tag: u64,
    /// Collective label or rendezvous address payload (`Hello`).
    pub label: Cow<'static, str>,
    pub data: Vec<f64>,
}

impl Frame {
    /// A frame with empty label and payload.
    pub(crate) fn control(kind: u8, src: u32, tag: u64) -> Frame {
        Frame {
            kind,
            src,
            tag,
            label: Cow::Borrowed(""),
            data: Vec::new(),
        }
    }
}

/// How frames reach a peer's mailbox.
pub(crate) trait Carrier: Send + Sync {
    /// Hand `frame` to rank `dst` without waiting on `dst`'s program;
    /// frames to one peer arrive in the order they were handed over.
    fn deliver(&self, dst: usize, frame: Frame);
}

/// What a rank does while a wait on its mailbox cannot complete.
pub(crate) trait Park: Send + Sync {
    /// Suspend the rank owning `mailbox` until its arrivals may have
    /// changed; takes the arrival lock and hands it back. By default,
    /// sleep on the mailbox condvar: an arrival, an announcement or a
    /// hang-up wakes it, and nothing else does.
    fn park<'a>(&self, mailbox: &'a Mailbox, arrivals: Arrivals<'a>) -> Arrivals<'a> {
        mailbox
            .cv
            .wait(arrivals)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A wait completed.
    fn progressed(&self) {}

    /// `rank` is about to run its SPMD closure.
    fn rank_started(&self, _rank: usize) {}

    /// `rank`'s closure returned or unwound (its `Bye`/`Dead` is out).
    fn rank_finished(&self, _rank: usize) {}
}

/// Parking for worlds with real concurrency: a parked rank sleeps on its
/// mailbox condvar until the mailbox changes.
pub(crate) struct Sleep;

impl Park for Sleep {}

/// FIFO matcher between posted receives and arrived messages for one
/// `(receiver, source)` pair: post seq `k` matches the `k`-th message to
/// arrive, regardless of the order in which requests are completed.
#[derive(Default, Debug)]
pub(crate) struct PostQueue {
    next_post: u64,
    next_arrival: u64,
    #[expect(
        clippy::disallowed_types,
        reason = "keyed by arrival sequence; inserted and removed by key, never iterated"
    )]
    arrived: std::collections::HashMap<u64, P2pMsg>,
}

impl PostQueue {
    /// Register a posted receive; returns its matching sequence number.
    fn post(&mut self) -> u64 {
        let seq = self.next_post;
        self.next_post += 1;
        seq
    }

    /// Record an arrived message (in transport arrival order).
    fn deliver(&mut self, msg: P2pMsg) {
        self.arrived.insert(self.next_arrival, msg);
        self.next_arrival += 1;
    }

    /// Take the message matching post `seq`, if it has arrived.
    fn claim(&mut self, seq: u64) -> Option<P2pMsg> {
        self.arrived.remove(&seq)
    }
}

/// What this rank last heard from a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerStatus {
    Alive,
    /// Clean protocol finish: its remaining queued data is still valid,
    /// but waiting for *new* data from it can never complete.
    Bye,
    /// Crash: explicit `Dead` frame, EOF without `Bye`, or a write error.
    Dead,
}

/// Everything one peer has sent this rank and this rank has not consumed.
pub(crate) struct PeerState {
    /// Collective frames in arrival order: `(label, payload)`.
    collectives: VecDeque<(Cow<'static, str>, Vec<f64>)>,
    posts: PostQueue,
    status: PeerStatus,
}

/// The locked arrival table of a [`Mailbox`], indexed by peer rank.
pub(crate) type Arrivals<'a> = MutexGuard<'a, Vec<PeerState>>;

/// One rank's receive side: per-peer arrival state behind one mutex,
/// the condvar arrivals signal, and the park policy for blocked waits.
pub(crate) struct Mailbox {
    rank: usize,
    size: usize,
    peers: Mutex<Vec<PeerState>>,
    cv: Condvar,
    park: Arc<dyn Park>,
}

impl Mailbox {
    pub(crate) fn new(rank: usize, size: usize, park: Arc<dyn Park>) -> Arc<Mailbox> {
        assert!(rank < size, "rank {rank} outside a world of {size}");
        Arc::new(Mailbox {
            rank,
            size,
            peers: Mutex::new(
                (0..size)
                    .map(|_| PeerState {
                        collectives: VecDeque::new(),
                        posts: PostQueue::default(),
                        status: PeerStatus::Alive,
                    })
                    .collect(),
            ),
            cv: Condvar::new(),
            park,
        })
    }

    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    pub(crate) fn lock(&self) -> Arrivals<'_> {
        self.peers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Route one frame that arrived from `peer`.
    pub(crate) fn dispatch(&self, peer: usize, frame: Frame) {
        let mut g = self.lock();
        match frame.kind {
            KIND_P2P => g[peer].posts.deliver((frame.tag as u32, frame.data)),
            KIND_COLLECTIVE => g[peer].collectives.push_back((frame.label, frame.data)),
            KIND_DEAD => {
                let d = frame.tag as usize;
                if d < self.size && d != self.rank {
                    g[d].status = PeerStatus::Dead;
                }
            }
            KIND_BYE if g[peer].status == PeerStatus::Alive => g[peer].status = PeerStatus::Bye,
            // Hello frames belong to rendezvous, before the world exists;
            // anything unknown from a checksummed stream is ignored so a
            // newer peer version cannot wedge an older one.
            _ => {}
        }
        drop(g);
        self.cv.notify_all();
    }

    /// A carrier lost its link to `peer`: without a prior `Bye` (or with
    /// an unclean end) the peer crashed.
    pub(crate) fn hangup(&self, peer: usize, clean: bool) {
        let mut g = self.lock();
        if !(clean && g[peer].status == PeerStatus::Bye) {
            g[peer].status = PeerStatus::Dead;
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Block until `probe` yields. `deps` are the peers this wait cannot
    /// complete without.
    ///
    /// # Panics
    ///
    /// With [`RankFailure::PeerDead`] when the probe fails and any rank
    /// is `Dead` or a dep has said `Bye`: the wait can never complete, so
    /// unwinding (into the session recovery loop) is the liveness
    /// mechanism itself.
    fn wait_on<T>(
        &self,
        deps: &[usize],
        mut probe: impl FnMut(&mut [PeerState]) -> Option<T>,
    ) -> T {
        let mut g = self.lock();
        loop {
            if let Some(v) = probe(&mut g) {
                drop(g);
                self.park.progressed();
                return v;
            }
            let dead: Vec<usize> = (0..self.size)
                .filter(|&p| {
                    g[p].status == PeerStatus::Dead
                        || (g[p].status == PeerStatus::Bye && deps.contains(&p))
                })
                .collect();
            if !dead.is_empty() {
                drop(g);
                #[expect(
                    clippy::panic,
                    reason = "liveness abort: unwinding into the recovery loop is how peers escape a dead world"
                )]
                std::panic::panic_any(RankFailure::PeerDead {
                    rank: self.rank,
                    dead,
                });
            }
            g = self.park.park(self, g);
        }
    }
}

/// The in-memory carrier: every rank's mailbox is one `Arc` away.
struct Memory(Vec<Arc<Mailbox>>);

impl Carrier for Memory {
    fn deliver(&self, dst: usize, frame: Frame) {
        self.0[dst].dispatch(frame.src as usize, frame);
    }
}

/// One rank of an SPMD world: the raw transport primitives
/// [`Comm`](crate::Comm) layers its arithmetic and accounting over.
pub(crate) struct Engine {
    label: &'static str,
    mailbox: Arc<Mailbox>,
    /// `None` in a world of one rank (nothing ever leaves it).
    carrier: Option<Arc<dyn Carrier>>,
    /// Traffic counters; only the rank's own thread locks them, so the
    /// lock is never contended.
    stats: Mutex<StatsSnapshot>,
    /// The kill the launch's plan scripts for this rank, if any.
    fault: Option<ArmedFault>,
}

impl Engine {
    /// Rank `mailbox.rank()` of a world, armed with whatever `plan`
    /// scripts for it on `attempt`.
    pub(crate) fn new(
        label: &'static str,
        mailbox: Arc<Mailbox>,
        carrier: Option<Arc<dyn Carrier>>,
        plan: &FaultPlan,
        attempt: u32,
    ) -> Arc<Engine> {
        let fault = plan.armed_for(attempt, mailbox.rank).map(ArmedFault::new);
        Arc::new(Engine {
            label,
            mailbox,
            carrier,
            stats: Mutex::default(),
            fault,
        })
    }

    /// `size` ranks wired to each other through the in-memory carrier.
    pub(crate) fn memory_world(
        size: usize,
        label: &'static str,
        park: Arc<dyn Park>,
        plan: &FaultPlan,
        attempt: u32,
    ) -> Vec<Arc<Engine>> {
        assert!(size > 0, "world size must be positive");
        let mailboxes: Vec<Arc<Mailbox>> = (0..size)
            .map(|rank| Mailbox::new(rank, size, Arc::clone(&park)))
            .collect();
        let carrier: Arc<dyn Carrier> = Arc::new(Memory(mailboxes.clone()));
        mailboxes
            .into_iter()
            .map(|mailbox| Engine::new(label, mailbox, Some(Arc::clone(&carrier)), plan, attempt))
            .collect()
    }

    /// # Panics
    ///
    /// In a world of one rank: there is no peer to address.
    #[expect(
        clippy::expect_used,
        reason = "only peers are posted to, and a one-rank world has none; `# Panics` says so"
    )]
    fn post(&self, dst: usize, kind: u8, tag: u64, label: &'static str, data: Vec<f64>) {
        let frame = Frame {
            kind,
            src: self.mailbox.rank as u32,
            tag,
            label: Cow::Borrowed(label),
            data,
        };
        self.carrier
            .as_ref()
            .expect("no peers in a single-rank world")
            .deliver(dst, frame);
    }

    fn others(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.mailbox.size).filter(move |&p| p != self.mailbox.rank)
    }

    /// Count one comm op against the armed fault.
    ///
    /// # Panics
    ///
    /// With [`RankFailure::Killed`] when the armed kill is due: the rank
    /// declares itself dead and unwinds, and the session recovery loop
    /// catches the `RankFailure`.
    fn strike(&self) {
        if let Some(op) = self.fault.as_ref().and_then(ArmedFault::strike) {
            self.mark_dead();
            #[expect(
                clippy::panic,
                reason = "fault injection: dying is this code's entire purpose"
            )]
            std::panic::panic_any(RankFailure::Killed {
                rank: self.mailbox.rank,
                op,
            });
        }
    }

    pub(crate) fn rank(&self) -> usize {
        self.mailbox.rank
    }

    pub(crate) fn size(&self) -> usize {
        self.mailbox.size
    }

    pub(crate) fn label(&self) -> &'static str {
        self.label
    }

    /// This rank's traffic counters.
    pub(crate) fn stats(&self) -> MutexGuard<'_, StatsSnapshot> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One collective round, the body of every collective: post
    /// `payload(p)` to each peer `p` under `label`, then hand each peer's
    /// frame to `take(p, payload)`, in rank order. Empty payloads still
    /// travel, so every rank pops exactly one frame per peer per round.
    ///
    /// # Panics
    ///
    /// With `collective mismatch` when a peer's frame carries another
    /// label: the ranks' collective schedules have diverged.
    pub(crate) fn round(
        &self,
        label: &'static str,
        mut payload: impl FnMut(usize) -> Vec<f64>,
        mut take: impl FnMut(usize, Vec<f64>),
    ) {
        self.strike();
        for p in self.others() {
            self.post(p, KIND_COLLECTIVE, 0, label, payload(p));
        }
        let me = self.mailbox.rank;
        for p in self.others() {
            let (got, buf) = self
                .mailbox
                .wait_on(&[p], |peers| peers[p].collectives.pop_front());
            assert_eq!(
                got, label,
                "collective mismatch: rank {me} is in `{label}` while rank {p} sent `{got}`"
            );
            take(p, buf);
        }
    }

    /// Block until every rank has entered the barrier.
    pub(crate) fn barrier(&self) {
        self.round("barrier", |_| Vec::new(), |_, _| {});
    }

    /// Gather every rank's `data`, indexed by rank. `label` names the
    /// collective, so ranks in differently labelled gathers fail loudly.
    pub(crate) fn all_gather(&self, label: &'static str, data: Vec<f64>) -> Vec<Vec<f64>> {
        let mut all = vec![Vec::new(); self.mailbox.size];
        self.round(label, |_| data.clone(), |p, buf| all[p] = buf);
        all[self.mailbox.rank] = data;
        all
    }

    /// Exchange `send[dst]` buffers; returns `recv[src]`.
    pub(crate) fn all_to_all(&self, mut send: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let mut recv = vec![Vec::new(); self.mailbox.size];
        self.round(
            "all_to_all",
            |p| std::mem::take(&mut send[p]),
            |p, buf| recv[p] = buf,
        );
        recv[self.mailbox.rank] = std::mem::take(&mut send[self.mailbox.rank]);
        recv
    }

    /// Point-to-point send; returns without waiting on `dst`'s program.
    pub(crate) fn send(&self, dst: usize, tag: u32, data: Vec<f64>) {
        self.strike();
        self.post(dst, KIND_P2P, tag as u64, "", data);
    }

    /// Post a receive for the next unmatched message from `src`; returns
    /// its matching sequence number for [`Engine::take`].
    pub(crate) fn irecv(&self, src: usize) -> u64 {
        self.strike();
        self.mailbox.lock()[src].posts.post()
    }

    /// Block until the message matching post `seq` from `src` arrives.
    ///
    /// # Panics
    ///
    /// With [`RankFailure::PeerDead`] as [`Mailbox::wait_on`].
    pub(crate) fn take(&self, src: usize, seq: u64) -> P2pMsg {
        self.mailbox
            .wait_on(&[src], |peers| peers[src].posts.claim(seq))
    }

    /// Run on the rank's thread before its SPMD closure starts.
    pub(crate) fn on_rank_start(&self) {
        self.mailbox.park.rank_started(self.mailbox.rank);
    }

    /// Run when the SPMD closure returns or (`panicked`) unwinds.
    pub(crate) fn on_rank_finish(&self, panicked: bool) {
        if panicked {
            // Any unwind — injected kill or genuine bug — makes this rank
            // dead to the world, so peers blocked on it fail fast.
            self.mark_dead();
        } else {
            for p in self.others() {
                self.post(p, KIND_BYE, 0, "", Vec::new());
            }
        }
        self.mailbox.park.rank_finished(self.mailbox.rank);
    }

    /// Declare this rank dead to the world.
    pub(crate) fn mark_dead(&self) {
        // This rank's own slot in its own table holds its own status.
        self.mailbox.lock()[self.mailbox.rank].status = PeerStatus::Dead;
        for p in self.others() {
            self.post(p, KIND_DEAD, self.mailbox.rank as u64, "", Vec::new());
        }
    }

    /// Ranks known dead in this world, ascending.
    pub(crate) fn dead_ranks(&self) -> Vec<usize> {
        let g = self.mailbox.lock();
        (0..self.mailbox.size)
            .filter(|&p| g[p].status == PeerStatus::Dead)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_queue_matches_fifo_even_out_of_order() {
        let mut q = PostQueue::default();
        let a = q.post();
        let b = q.post();
        q.deliver((1, vec![1.0]));
        // Second request polled first must not steal the first message.
        assert!(q.claim(b).is_none());
        q.deliver((2, vec![2.0]));
        assert_eq!(q.claim(b), Some((2, vec![2.0])));
        assert_eq!(q.claim(a), Some((1, vec![1.0])));
    }
}
