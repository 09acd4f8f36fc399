//! Parameter and training-state checkpointing: a small self-describing
//! binary format for [`ParamSet`]s (and, for exact resume, the Adam
//! optimizer state) so trained models can be saved and restored. Since all
//! ranks hold bit-identical replicas, rank 0 saving once is a complete
//! checkpoint of a distributed run.
//!
//! Two container kinds:
//! * **params** (`write_params`/`read_params`): magic `CGNN`, version u32,
//!   tensor count u32, then per tensor: name length + UTF-8 name, rows
//!   u64, cols u64, little-endian f64 data.
//! * **training checkpoint** (`save_checkpoint`/`load_checkpoint`): magic
//!   `CGNC`, version u32, an embedded params container, then the Adam
//!   state — step count u64, moment count u32, and the first/second moment
//!   tensors (rows u64, cols u64, f64 data each), then a trailing
//!   FNV-1a-64 checksum of every preceding byte. Restoring both makes a
//!   resumed run **bit-identical** to the uninterrupted one. The checksum
//!   stays byte-serial FNV-1a, unlike the word-lane digest of `cgnn-comm`'s
//!   `CGNW` frames: these bytes are an on-disk format that saved
//!   checkpoints already carry, and a save or load is off the step's path.
//!
//! Corruption is a *typed* failure, never a panic: a truncated file
//! surfaces as `UnexpectedEof`, a flipped bit as a checksum mismatch
//! (`InvalidData`), and implausible length fields (a flipped bit in a
//! count) are bounds-checked before any allocation. Only version 2 is
//! read: version-1 training checkpoints (no trailing checksum) are refused
//! as `InvalidData`, so every loaded checkpoint has passed its checksum.

use std::io::{self, Read, Write};
use std::path::Path;

use crate::nn::ParamSet;
use crate::optim::AdamState;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"CGNN";
const VERSION: u32 = 1;
const CKPT_MAGIC: &[u8; 4] = b"CGNC";
const CKPT_VERSION: u32 = 2;

/// Bounds on length fields, enforced *before* allocating: a corrupted
/// count must become an `InvalidData` error, not an OOM abort.
const MAX_TENSOR_ELEMS: u64 = 1 << 26;
/// Elements read (and reserved) per step of [`read_tensor`]: 64 KiB, so a
/// claimed length reserves memory only as its bytes arrive.
const READ_CHUNK_ELEMS: usize = 64 * 1024 / 8;
const MAX_NAME_LEN: u32 = 1 << 16;
const MAX_ITEM_COUNT: u32 = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A writer that FNV-1a-hashes every byte passing through it.
struct HashingWriter<W: Write> {
    inner: W,
    digest: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            digest: FNV_OFFSET,
        }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.digest = fnv1a(self.digest, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader that FNV-1a-hashes every byte passing through it.
struct HashingReader<R: Read> {
    inner: R,
    digest: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader {
            inner,
            digest: FNV_OFFSET,
        }
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest = fnv1a(self.digest, &buf[..n]);
        Ok(n)
    }
}

/// Serialize a parameter set to a writer.
pub fn write_params<W: Write>(params: &ParamSet, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for i in 0..params.len() {
        let id = crate::nn::ParamId(i);
        let name = params.name(id).as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        write_tensor(params.get(id), &mut w)?;
    }
    Ok(())
}

fn write_tensor<W: Write>(t: &Tensor, w: &mut W) -> io::Result<()> {
    w.write_all(&(t.rows() as u64).to_le_bytes())?;
    w.write_all(&(t.cols() as u64).to_le_bytes())?;
    for v in t.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_tensor<R: Read>(r: &mut R) -> io::Result<Tensor> {
    let rows = read_u64(r)?;
    let cols = read_u64(r)?;
    let elems = rows
        .checked_mul(cols)
        .filter(|&n| n <= MAX_TENSOR_ELEMS)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("implausible tensor shape {rows}x{cols} (corrupted checkpoint?)"),
            )
        })?;
    let elems = elems as usize;
    let mut data = Vec::with_capacity(elems.min(READ_CHUNK_ELEMS));
    let mut bytes = vec![0u8; 8 * elems.min(READ_CHUNK_ELEMS)];
    while data.len() < elems {
        let chunk = &mut bytes[..8 * (elems - data.len()).min(READ_CHUNK_ELEMS)];
        r.read_exact(chunk)?;
        data.extend(
            chunk
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])),
        );
    }
    Ok(Tensor::from_vec(rows as usize, cols as usize, data))
}

/// Deserialize a parameter set from a reader.
pub fn read_params<R: Read>(mut r: R) -> io::Result<ParamSet> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a cgnn checkpoint",
        ));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported checkpoint version {version}"),
        ));
    }
    let count = bounded(read_u32(&mut r)?, MAX_ITEM_COUNT, "parameter count")? as usize;
    let mut params = ParamSet::new();
    for _ in 0..count {
        let name_len = bounded(read_u32(&mut r)?, MAX_NAME_LEN, "parameter name length")? as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name =
            String::from_utf8(name).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        params.register(name, read_tensor(&mut r)?);
    }
    Ok(params)
}

/// Serialize a full training checkpoint (parameters + Adam state) to a
/// writer, appending an FNV-1a-64 checksum of every preceding byte so
/// torn writes and flipped bits are detectable at load time.
pub fn write_checkpoint<W: Write>(params: &ParamSet, opt: &AdamState, w: W) -> io::Result<()> {
    if opt.m.len() != opt.v.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "adam state moment count mismatch",
        ));
    }
    let mut w = HashingWriter::new(w);
    w.write_all(CKPT_MAGIC)?;
    w.write_all(&CKPT_VERSION.to_le_bytes())?;
    write_params(params, &mut w)?;
    w.write_all(&opt.t.to_le_bytes())?;
    w.write_all(&(opt.m.len() as u32).to_le_bytes())?;
    for t in opt.m.iter().chain(opt.v.iter()) {
        write_tensor(t, &mut w)?;
    }
    let digest = w.digest;
    w.write_all(&digest.to_le_bytes())?;
    w.flush()
}

/// Deserialize a full training checkpoint from a reader, verifying the
/// trailing checksum. Any corruption — truncation, flipped bits,
/// implausible lengths, a version other than 2 — is an `Err`, never a
/// panic.
pub fn read_checkpoint<R: Read>(r: R) -> io::Result<(ParamSet, AdamState)> {
    let mut r = HashingReader::new(r);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != CKPT_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a cgnn training checkpoint",
        ));
    }
    let version = read_u32(&mut r)?;
    if version != CKPT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported checkpoint version {version}"),
        ));
    }
    let params = read_params(&mut r)?;
    let t = read_u64(&mut r)?;
    let count = bounded(read_u32(&mut r)?, MAX_ITEM_COUNT, "moment count")? as usize;
    let mut moments = Vec::with_capacity(2 * count);
    for _ in 0..2 * count {
        moments.push(read_tensor(&mut r)?);
    }
    let v = moments.split_off(count);
    // Snapshot the digest before consuming the trailer: the checksum covers
    // exactly the bytes that precede it.
    let computed = r.digest;
    let stored = read_u64(&mut r)?;
    if stored != computed {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint checksum mismatch: stored {stored:#018x}, \
                 computed {computed:#018x} (corrupted file)"
            ),
        ));
    }
    Ok((params, AdamState { t, m: moments, v }))
}

/// Reject a length field exceeding `max` with a typed error naming `what`.
fn bounded(value: u32, max: u32, what: &str) -> io::Result<u32> {
    if value > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible {what} {value} (corrupted checkpoint?)"),
        ));
    }
    Ok(value)
}

/// Write `bytes` to `path` atomically: serialize-to-buffer callers stage
/// the payload in a dot-prefixed sibling temp file, then `rename` it over
/// the target. Readers (and concurrent writers producing identical bytes,
/// as replayed rank processes do) never observe a half-written file.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp_name = format!(".{}.tmp{}", name.to_string_lossy(), std::process::id());
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Save a full training checkpoint to a file path, atomically (temp
/// sibling + rename): a crash mid-write leaves the previous checkpoint
/// intact, and concurrent identical writers cannot corrupt each other.
pub fn save_checkpoint(
    params: &ParamSet,
    opt: &AdamState,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let mut buf = Vec::new();
    write_checkpoint(params, opt, &mut buf)?;
    atomic_write(path.as_ref(), &buf)
}

/// Load a full training checkpoint from a file path. The caller is
/// responsible for checking the architecture matches (e.g. via
/// [`restore_into`]).
pub fn load_checkpoint(path: impl AsRef<Path>) -> io::Result<(ParamSet, AdamState)> {
    let file = std::fs::File::open(path)?;
    read_checkpoint(io::BufReader::new(file))
}

/// Restore checkpointed values into an existing (architecture-defining)
/// parameter set, verifying names and shapes match exactly.
pub fn restore_into(target: &mut ParamSet, source: &ParamSet) -> io::Result<()> {
    if target.len() != source.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "parameter count mismatch: {} vs {}",
                target.len(),
                source.len()
            ),
        ));
    }
    for i in 0..target.len() {
        let id = crate::nn::ParamId(i);
        if target.name(id) != source.name(id) || target.get(id).shape() != source.get(id).shape() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "parameter {i} mismatch: {}:{:?} vs {}:{:?}",
                    target.name(id),
                    target.get(id).shape(),
                    source.name(id),
                    source.get(id).shape()
                ),
            ));
        }
    }
    for (t, s) in target.tensors_mut().iter_mut().zip(source.tensors()) {
        t.data_mut().copy_from_slice(s.data());
    }
    Ok(())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_params(seed: u64) -> ParamSet {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = Mlp::new(&mut params, "m", 3, 8, 2, 1, true, &mut rng);
        params
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let params = sample_params(1);
        let mut buf = Vec::new();
        write_params(&params, &mut buf).expect("write");
        let restored = read_params(buf.as_slice()).expect("read");
        assert_eq!(restored.len(), params.len());
        assert_eq!(restored.flatten(), params.flatten());
        for i in 0..params.len() {
            let id = crate::nn::ParamId(i);
            assert_eq!(restored.name(id), params.name(id));
            assert_eq!(restored.get(id).shape(), params.get(id).shape());
        }
    }

    #[test]
    fn restore_into_checks_architecture() {
        let a = sample_params(1);
        let mut b = sample_params(2);
        assert_ne!(a.flatten(), b.flatten());
        restore_into(&mut b, &a).expect("compatible restore");
        assert_eq!(a.flatten(), b.flatten());

        // Mismatched architecture is rejected.
        let mut small = ParamSet::new();
        small.register("x", Tensor::zeros(1, 1));
        assert!(restore_into(&mut small, &a).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_params(&b"NOPE"[..]).is_err());
        assert!(read_params(&b"CG"[..]).is_err());
        assert!(read_checkpoint(&b"NOPE"[..]).is_err());
        // A bare params container is not a training checkpoint.
        let mut buf = Vec::new();
        write_params(&sample_params(1), &mut buf).expect("write");
        assert!(read_checkpoint(buf.as_slice()).is_err());
    }

    #[test]
    fn checkpoint_roundtrip_preserves_params_and_adam_state() {
        use crate::optim::Adam;

        let mut params = sample_params(3);
        let mut opt = Adam::new(0.01);
        for _ in 0..4 {
            let grads = params.flatten(); // grad = theta
            opt.step(&mut params, &grads);
        }
        let mut buf = Vec::new();
        write_checkpoint(&params, &opt.state(), &mut buf).expect("write");
        let (rp, rs) = read_checkpoint(buf.as_slice()).expect("read");
        assert_eq!(rp.flatten(), params.flatten());
        let s = opt.state();
        assert_eq!(rs.t, s.t);
        assert_eq!(rs.m.len(), s.m.len());
        assert_eq!(rs.v.len(), s.v.len());
        for (a, b) in rs.m.iter().zip(s.m.iter()) {
            assert_eq!(a.data(), b.data());
        }
        for (a, b) in rs.v.iter().zip(s.v.iter()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn fresh_optimizer_checkpoint_roundtrips_empty_moments() {
        use crate::optim::Adam;

        let params = sample_params(5);
        let opt = Adam::new(0.01);
        let mut buf = Vec::new();
        write_checkpoint(&params, &opt.state(), &mut buf).expect("write");
        let (_, rs) = read_checkpoint(buf.as_slice()).expect("read");
        assert_eq!(rs.t, 0);
        assert!(rs.m.is_empty() && rs.v.is_empty());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let params = sample_params(11);
        let opt = crate::optim::Adam::new(0.01);
        let mut buf = Vec::new();
        write_checkpoint(&params, &opt.state(), &mut buf).expect("write");
        // Cutting the container anywhere must yield Err, never a panic.
        for cut in (0..buf.len()).step_by(7).chain([buf.len() - 1]) {
            assert!(
                read_checkpoint(&buf[..cut]).is_err(),
                "truncation at {cut}/{} must be rejected",
                buf.len()
            );
        }
        // A tensor that claims the largest shape allowed and ends after one
        // element is a truncated stream too.
        let rows_at = 4 + 4 + 4 + 4 + 4 + 4 + params.name(crate::nn::ParamId(0)).len();
        let mut head = buf[..rows_at].to_vec();
        head.extend_from_slice(&MAX_TENSOR_ELEMS.to_le_bytes());
        head.extend_from_slice(&1u64.to_le_bytes());
        head.extend_from_slice(&1.0f64.to_le_bytes());
        let err = read_checkpoint(head.as_slice()).expect_err("a claimed tensor must not decode");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn every_bit_flip_is_detected_by_the_checksum() {
        let params = sample_params(13);
        let opt = crate::optim::Adam::new(0.01);
        let mut buf = Vec::new();
        write_checkpoint(&params, &opt.state(), &mut buf).expect("write");
        assert!(read_checkpoint(buf.as_slice()).is_ok(), "pristine loads");
        // Flip one bit at a spread of positions, covering the header, the
        // payload, and the trailing checksum itself.
        for pos in (0..buf.len()).step_by(97) {
            let mut evil = buf.clone();
            evil[pos] ^= 0x10;
            assert!(
                read_checkpoint(evil.as_slice()).is_err(),
                "bit flip at byte {pos} must be rejected"
            );
        }
    }

    #[test]
    fn version_1_checkpoints_are_refused() {
        let params = sample_params(17);
        let opt = crate::optim::Adam::new(0.01);
        let mut buf = Vec::new();
        write_checkpoint(&params, &opt.state(), &mut buf).expect("write");
        // Rewrite the version field to 1 and drop the 8-byte trailer:
        // byte-for-byte what a pre-checksum writer produced.
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        buf.truncate(buf.len() - 8);
        let err = read_checkpoint(buf.as_slice()).expect_err("v1 is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unsupported checkpoint version 1"),
            "{err}"
        );
    }

    #[test]
    fn file_roundtrip() {
        let params = sample_params(7);
        let dir = std::env::temp_dir().join(format!("cgnn_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("model.cgnn");
        let opt = crate::optim::Adam::new(0.01);
        save_checkpoint(&params, &opt.state(), &path).expect("save");
        let (loaded, _) = load_checkpoint(&path).expect("load");
        assert_eq!(loaded.flatten(), params.flatten());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
