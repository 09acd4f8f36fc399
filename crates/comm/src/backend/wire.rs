//! The stream carrier: checksummed `CGNW` frames over one byte stream
//! per peer.
//!
//! Both [`Backend::Proc`](crate::Backend::Proc) (Unix-domain sockets) and
//! [`Backend::Socket`](crate::Backend::Socket) (TCP) reduce to the same
//! shape once the `proc` module's handshake has produced a full mesh of
//! connections.
//! [`StreamCarrier`] runs that mesh for the `engine` module with one
//! thread per peer: a reader that decodes frames and `dispatch`es them
//! into this rank's mailbox. A frame is written to the peer's stream on
//! the thread that posts it, under a per-peer lock; when the socket
//! buffer is full the write waits for the peer's reader, which never
//! waits on its rank's program (see the `engine` module docs). Matching,
//! collectives and liveness are the engine's.
//!
//! # Wire format
//!
//! Every frame is `CGNW` magic, a kind byte, `src` (u32 LE), `tag` (u64
//! LE; the p2p tag or dead-rank id), a length-prefixed UTF-8 label
//! (collective label or rendezvous address table), a length-prefixed LE
//! `f64` payload, and a trailing 8-byte digest over everything before it,
//! so a truncated or corrupted stream fails loudly instead of
//! deserializing garbage.
//!
//! The digest is FNV-1a-64 over the bytes up to and including the payload
//! count, as the `CGNC` checkpoint container hashes all of its bytes.
//! The payload is hashed a word at a time: each `f64`'s 64 bits are
//! xor-multiplied (FNV-1a with a word for a byte) into lane `i % 4` of
//! four independent lanes, inside the loops that convert the payload to
//! bytes and back, so hashing costs no pass of its own and four multiply
//! chains run side by side instead of one per byte. The four lanes' bytes
//! are then FNV-1a-folded into the header's state, in lane order. Each
//! step of either hash is a bijection of its state, so any change confined
//! to one byte, or one word, always changes the digest.
//!
//! # Liveness
//!
//! Each connection is a FIFO byte stream, so per-peer frame order equals
//! send order — the one thing the engine asks of a carrier. EOF without a
//! preceding `Bye` frame (a crashed or SIGKILLed process), a corrupt
//! frame, or a failed write is reported to the mailbox as a hang-up,
//! which marks the peer dead.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::backend::engine::{Carrier, Frame, Mailbox, KIND_BYE};

/// FNV-1a-64 offset basis (the `CGNC` checkpoint-container discipline).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Frame magic.
const MAGIC: [u8; 4] = *b"CGNW";
/// Bound on payload element counts (mirrors `MAX_TENSOR_ELEMS`): anything
/// larger is a corrupted length field, not a real message.
const MAX_FRAME_ELEMS: u64 = 1 << 26;
/// Bound on label bytes.
const MAX_LABEL_BYTES: u64 = 1 << 16;
/// Payload bytes asked of the stream per read: the payload grows with
/// the bytes that arrived, never ahead of them from the length field.
const PAYLOAD_CHUNK: usize = 64 * 1024;
// Every chunk but the last holds whole groups of four words, so a chunk
// starts at lane 0.
const _: () = assert!(PAYLOAD_CHUNK.is_multiple_of(32));

fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The payload's four digest lanes before its first word (see the module
/// docs).
const LANES: [u64; 4] = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];

/// One word into one lane: FNV-1a with a 64-bit word for a byte.
#[inline]
fn fnv1a_word(lane: &mut u64, word: u64) {
    *lane = (*lane ^ word).wrapping_mul(FNV_PRIME);
}

/// The frame's digest: the lanes' bytes folded into the header's byte
/// state.
fn fold_lanes(state: u64, lanes: &[u64; 4]) -> u64 {
    lanes.iter().fold(state, |s, l| fnv1a(s, &l.to_le_bytes()))
}

/// Serialize one frame with its trailing digest into `buf`, replacing
/// what it held.
fn encode_into(frame: &Frame, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&MAGIC);
    buf.push(frame.kind);
    buf.extend_from_slice(&frame.src.to_le_bytes());
    buf.extend_from_slice(&frame.tag.to_le_bytes());
    buf.extend_from_slice(&(frame.label.len() as u32).to_le_bytes());
    buf.extend_from_slice(frame.label.as_bytes());
    buf.extend_from_slice(&(frame.data.len() as u64).to_le_bytes());
    let state = fnv1a(FNV_OFFSET, buf);
    let at = buf.len();
    buf.resize(at + frame.data.len() * 8, 0);
    let mut lanes = LANES;
    for (words, out) in frame.data.chunks(4).zip(buf[at..].chunks_mut(32)) {
        for ((lane, v), o) in lanes.iter_mut().zip(words).zip(out.chunks_exact_mut(8)) {
            let word = v.to_bits();
            fnv1a_word(lane, word);
            o.copy_from_slice(&word.to_le_bytes());
        }
    }
    buf.extend_from_slice(&fold_lanes(state, &lanes).to_le_bytes());
}

/// Serialize one frame with its trailing digest.
pub(crate) fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(frame, &mut buf);
    buf
}

/// Write one frame to a stream.
fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

fn read_exact_hashed<R: Read>(r: &mut R, buf: &mut [u8], state: &mut u64) -> io::Result<()> {
    r.read_exact(buf)?;
    *state = fnv1a(*state, buf);
    Ok(())
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt frame: {what}"))
}

/// Read one frame from a stream. `Ok(None)` is a clean EOF at a frame
/// boundary; anything else that fails to parse or checksum is an error.
fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    read_frame_with(r, &mut Vec::new())
}

/// [`read_frame`] with `chunk` as the payload's byte buffer, kept by the
/// caller from frame to frame: each chunk of at most [`PAYLOAD_CHUNK`]
/// bytes is read into it and converted (and hashed) into the frame's
/// payload as it arrives.
fn read_frame_with<R: Read>(r: &mut R, chunk: &mut Vec<u8>) -> io::Result<Option<Frame>> {
    let mut magic = [0u8; 4];
    // Only an EOF before the first byte is at a frame boundary: one inside
    // the magic is a truncated frame.
    let first = loop {
        match r.read(&mut magic) {
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut magic[first..])?;
    if magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let mut state = fnv1a(FNV_OFFSET, &magic);
    let mut head = [0u8; 1 + 4 + 8 + 4];
    read_exact_hashed(r, &mut head, &mut state)?;
    let kind = head[0];
    let src = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
    let tag = u64::from_le_bytes([
        head[5], head[6], head[7], head[8], head[9], head[10], head[11], head[12],
    ]);
    let label_len = u32::from_le_bytes([head[13], head[14], head[15], head[16]]) as u64;
    if label_len > MAX_LABEL_BYTES {
        return Err(corrupt("implausible label length"));
    }
    let mut label_bytes = vec![0u8; label_len as usize];
    read_exact_hashed(r, &mut label_bytes, &mut state)?;
    let label = String::from_utf8(label_bytes).map_err(|_| corrupt("label is not UTF-8"))?;
    let mut count_bytes = [0u8; 8];
    read_exact_hashed(r, &mut count_bytes, &mut state)?;
    let count = u64::from_le_bytes(count_bytes);
    if count > MAX_FRAME_ELEMS {
        return Err(corrupt("implausible payload length"));
    }
    let count = count as usize;
    let mut data = Vec::new();
    let mut lanes = LANES;
    while data.len() < count {
        let n = (8 * (count - data.len())).min(PAYLOAD_CHUNK);
        if chunk.len() < n {
            chunk.resize(n, 0);
        }
        let bytes = &mut chunk[..n];
        r.read_exact(bytes)?;
        data.reserve(n / 8);
        for group in bytes.chunks(32) {
            for (lane, b) in lanes.iter_mut().zip(group.chunks_exact(8)) {
                let word = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
                fnv1a_word(lane, word);
                data.push(f64::from_bits(word));
            }
        }
    }
    let mut digest_bytes = [0u8; 8];
    r.read_exact(&mut digest_bytes)?;
    if u64::from_le_bytes(digest_bytes) != fold_lanes(state, &lanes) {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(Some(Frame {
        kind,
        src,
        tag,
        label: label.into(),
        data,
    }))
}

/// One established peer connection, transport-erased into cloneable
/// read/write halves plus a shutdown hook to unblock a parked reader.
pub(crate) enum Conn {
    Uds(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl Conn {
    /// Blocking I/O, and `TCP_NODELAY` on TCP: how every mesh link runs.
    pub(crate) fn tune(&self) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.set_nonblocking(false),
            Conn::Tcp(s) => s.set_nonblocking(false).and_then(|()| s.set_nodelay(true)),
        }
    }

    /// Write one frame straight to the stream: the handshake's I/O,
    /// before a carrier owns the link.
    pub(crate) fn write(&self, frame: &Frame) -> io::Result<()> {
        match self {
            Conn::Uds(s) => write_frame(&mut &*s, frame),
            Conn::Tcp(s) => write_frame(&mut &*s, frame),
        }
    }

    /// Read one frame straight from the stream (see [`Conn::write`]).
    pub(crate) fn read(&self) -> io::Result<Option<Frame>> {
        match self {
            Conn::Uds(s) => read_frame(&mut &*s),
            Conn::Tcp(s) => read_frame(&mut &*s),
        }
    }

    /// Bound how long a [`Conn::read`] blocks; `None` blocks forever.
    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.set_read_timeout(t),
            Conn::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn split(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        match self {
            Conn::Uds(s) => Ok((Box::new(s.try_clone()?), Box::new(s.try_clone()?))),
            Conn::Tcp(s) => Ok((Box::new(s.try_clone()?), Box::new(s.try_clone()?))),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Conn::Uds(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

/// The write half of a peer link and the buffer each frame to the peer
/// is encoded into, kept from frame to frame.
struct Writer {
    stream: Box<dyn Write + Send>,
    frame: Vec<u8>,
}

/// One rank's end of an established full mesh: writes each frame on the
/// thread that posts it, and owns one reader thread per peer until
/// [`StreamCarrier::teardown`].
pub(crate) struct StreamCarrier {
    mailbox: Arc<Mailbox>,
    /// Per peer, the write half of its link, under the lock every send to
    /// it takes; `None` at this rank and once a write to the peer failed.
    writers: Vec<Mutex<Option<Writer>>>,
    /// Reader thread handles, taken by teardown.
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    conns: Vec<Option<Conn>>,
}

impl StreamCarrier {
    /// Wire an established mesh (`conns[p]` for every peer `p`, `None` at
    /// this rank) to `mailbox`: spawns one reader thread per peer.
    pub(crate) fn start(
        mailbox: &Arc<Mailbox>,
        conns: Vec<Option<Conn>>,
    ) -> io::Result<Arc<StreamCarrier>> {
        let halves = conns
            .iter()
            .map(|c| c.as_ref().map(Conn::split).transpose())
            .collect::<io::Result<Vec<_>>>()?;
        let mut writers = Vec::with_capacity(conns.len());
        let mut readers = Vec::new();
        for (p, half) in halves.into_iter().enumerate() {
            let Some((reader, writer)) = half else {
                writers.push(Mutex::new(None));
                continue;
            };
            assert_ne!(p, mailbox.rank(), "no connection to self");
            writers.push(Mutex::new(Some(Writer {
                stream: writer,
                frame: Vec::new(),
            })));
            let mb = Arc::clone(mailbox);
            readers.push(std::thread::spawn(move || reader_loop(&mb, p, reader)));
        }
        Ok(Arc::new(StreamCarrier {
            mailbox: Arc::clone(mailbox),
            writers,
            readers: Mutex::new(readers),
            conns,
        }))
    }

    /// Close the connections and join the readers. Called by the launcher
    /// after the rank closure (and its finish hook, whose `Bye` or `Dead`
    /// frames are written by then) has run; the world is unusable
    /// afterwards.
    pub(crate) fn teardown(&self) {
        // Closing both directions unblocks any reader parked in read()
        // on a peer that never hangs up.
        for conn in self.conns.iter().flatten() {
            conn.shutdown();
        }
        let readers =
            std::mem::take(&mut *self.readers.lock().unwrap_or_else(PoisonError::into_inner));
        for t in readers {
            let _ = t.join();
        }
    }
}

impl Carrier for StreamCarrier {
    /// Write a frame to `dst`'s stream on the calling thread. It waits at
    /// most for `dst`'s reader thread to drain the socket. The first
    /// failed write drops the peer's writer and reports the link as hung
    /// up; later frames to that peer go nowhere.
    fn deliver(&self, dst: usize, frame: Frame) {
        assert_ne!(
            dst,
            self.mailbox.rank(),
            "a stream carrier has no link to self"
        );
        let mut writer = self.writers[dst]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Some(w) = writer.as_mut() else { return };
        encode_into(&frame, &mut w.frame);
        if w.stream.write_all(&w.frame).is_err() {
            *writer = None;
            drop(writer);
            self.mailbox.hangup(dst, false);
        }
    }
}

fn reader_loop(mailbox: &Mailbox, peer: usize, r: Box<dyn Read + Send>) {
    // Buffered: a frame's six fields cost one `read` between them, not
    // one each. Only the carrier buffers: the handshake's unbuffered
    // `Conn::read` cannot have swallowed the first carrier frame.
    let mut r = io::BufReader::new(r);
    let mut chunk = Vec::new();
    loop {
        match read_frame_with(&mut r, &mut chunk) {
            Ok(Some(frame)) => {
                let bye = frame.kind == KIND_BYE;
                mailbox.dispatch(peer, frame);
                if bye {
                    // Nothing meaningful follows a Bye; exit without
                    // waiting for the EOF so teardown joins promptly.
                    return;
                }
            }
            // EOF at a frame boundary is clean; a truncated or corrupt
            // stream means the peer (or the link) is gone, and surfacing
            // it as a death is the only safe reading.
            Ok(None) => return mailbox.hangup(peer, true),
            Err(_) => return mailbox.hangup(peer, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::engine::{Engine, Sleep, KIND_COLLECTIVE, KIND_P2P};
    use crate::fault::FaultPlan;

    #[test]
    fn frame_round_trips_bit_exactly() {
        let frame = Frame {
            kind: KIND_COLLECTIVE,
            src: 3,
            tag: 42,
            label: "all_reduce_sum".into(),
            data: vec![1.5, -0.0, f64::MIN_POSITIVE, 1e300],
        };
        let bytes = encode_frame(&frame);
        let back = read_frame(&mut &bytes[..])
            .expect("valid frame decodes")
            .expect("not EOF");
        assert_eq!(back, frame);
        assert_eq!(
            back.data[1].to_bits(),
            (-0.0f64).to_bits(),
            "signed zero survives the wire"
        );
    }

    #[test]
    fn eof_at_boundary_is_clean_and_mid_frame_is_not() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut &empty[..]).expect("clean EOF").is_none());
        let bytes = encode_frame(&Frame::control(KIND_BYE, 0, 0));
        let truncated = &bytes[..bytes.len() - 3];
        assert!(read_frame(&mut &truncated[..]).is_err());
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let mut bytes = encode_frame(&Frame {
            kind: KIND_P2P,
            src: 1,
            tag: 7,
            label: "".into(),
            data: vec![2.0; 16],
        });
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = read_frame(&mut &bytes[..]).expect_err("flipped bit must not decode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A collective frame with a label and eleven payload words: two
    /// whole lane groups and a ragged third.
    fn labelled_frame() -> Frame {
        Frame {
            kind: KIND_COLLECTIVE,
            src: 2,
            tag: 9,
            label: "all_reduce_sum".into(),
            data: (0..11).map(|i| (i as f64 * 0.37).sin() * 1e3).collect(),
        }
    }

    /// Every single-byte change of an encoded frame — each bit flipped, and
    /// the whole byte inverted — and every truncation of it fails as an
    /// error: none decodes to a frame. (An empty stream is a clean EOF.)
    #[test]
    fn every_byte_flip_and_truncation_fails() {
        let bytes = encode_frame(&labelled_frame());
        for at in 0..bytes.len() {
            for flip in [1, 2, 4, 8, 16, 32, 64, 128, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= flip;
                let got = read_frame(&mut &bad[..]);
                assert!(got.is_err(), "byte {at} ^ {flip:#x}: {got:?}");
            }
        }
        for len in 1..bytes.len() {
            let got = read_frame(&mut &bytes[..len]);
            assert!(got.is_err(), "truncated to {len} bytes: {got:?}");
        }
    }

    /// Swapping two payload words fails the digest, whether they sit in
    /// neighbouring lanes or four apart in the same lane.
    #[test]
    fn swapped_payload_words_fail_the_digest() {
        let frame = labelled_frame();
        let bytes = encode_frame(&frame);
        let payload_at = 4 + 1 + 4 + 8 + 4 + frame.label.len() + 8;
        for (i, j) in [(0, 1), (3, 4), (9, 10), (0, 4), (2, 6), (6, 10)] {
            let mut bad = bytes.clone();
            let (wi, wj) = (payload_at + 8 * i, payload_at + 8 * j);
            let word_i: [u8; 8] = bad[wi..wi + 8].try_into().expect("a word");
            bad.copy_within(wj..wj + 8, wi);
            bad[wj..wj + 8].copy_from_slice(&word_i);
            let err = read_frame(&mut &bad[..]).expect_err("swapped words must not decode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "words {i} and {j}");
        }
    }

    #[test]
    fn implausible_lengths_are_rejected_without_allocating() {
        let mut bytes = encode_frame(&Frame::control(KIND_P2P, 0, 0));
        // Overwrite the payload count field with an absurd value.
        let count_at = 4 + 1 + 4 + 8 + 4; // magic + kind + src + tag + label len (label empty)
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_frame(&mut &bytes[..]).is_err());
    }

    /// A stream that records the largest buffer a read asked it to fill.
    struct Recorded<'a> {
        bytes: &'a [u8],
        largest: usize,
    }

    impl Read for Recorded<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    /// A frame that claims the largest payload allowed and then ends fails
    /// as a truncated stream, having asked for one chunk at a time.
    #[test]
    fn a_claimed_payload_is_read_as_it_arrives() {
        let bytes = encode_frame(&Frame::control(KIND_P2P, 0, 0));
        let count_at = 4 + 1 + 4 + 8 + 4;
        let mut head = bytes[..count_at].to_vec();
        head.extend_from_slice(&MAX_FRAME_ELEMS.to_le_bytes());
        let mut r = Recorded {
            bytes: &head,
            largest: 0,
        };
        let err = read_frame(&mut r).expect_err("a truncated payload must not decode");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.largest <= PAYLOAD_CHUNK, "asked for {} bytes", r.largest);
    }

    /// A failed write kills the link once: the first frame to a peer that
    /// stopped reading marks it dead and drops its writer, and a later
    /// frame to it returns at once, without an error or a panic.
    #[test]
    fn a_failed_write_kills_the_link_once() {
        let (near, far) = std::os::unix::net::UnixStream::pair().expect("socket pair");
        // The far end stops reading but stays open, so only a write can
        // fail: this rank's reader stays parked instead of seeing EOF.
        far.shutdown(std::net::Shutdown::Read)
            .expect("shut the far reads");
        let mailbox = Mailbox::new(0, 2, Arc::new(Sleep));
        let carrier =
            StreamCarrier::start(&mailbox, vec![None, Some(Conn::Uds(near))]).expect("carrier");
        let engine = Engine::new("proc", mailbox, None, &FaultPlan::new(), 0);
        assert!(engine.dead_ranks().is_empty(), "the link starts alive");

        carrier.deliver(1, Frame::control(KIND_P2P, 0, 0));
        assert_eq!(
            engine.dead_ranks(),
            vec![1],
            "the failed write kills the peer"
        );
        assert!(carrier.writers[1].lock().expect("writer lock").is_none());

        carrier.deliver(1, Frame::control(KIND_P2P, 0, 1));
        assert_eq!(engine.dead_ranks(), vec![1]);
        carrier.teardown();
    }
}
