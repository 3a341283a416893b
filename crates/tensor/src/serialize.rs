//! Binary checkpoint snapshots: the one on-disk format for trained models
//! and full training state.
//!
//! A [`Snapshot`] (`OODS` magic) holds named sections, each carrying
//! tensors, `u64`s and `f32`s — enough to capture *everything* a training
//! run needs to resume bitwise-identically (model parameters and buffers,
//! optimizer moments, RNG state, loss curves, sample weights, …).
//! Snapshots are written atomically (write-tmp + rename) so a crash
//! mid-save never corrupts the previous checkpoint. Reading never trusts a
//! length field for an allocation: memory grows only with bytes actually
//! read, so a hostile or truncated file fails with an `io::Error`.

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const SNAPSHOT_MAGIC: &[u8; 4] = b"OODS";
const SNAPSHOT_VERSION: u8 = 1;

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> io::Result<()> {
    let dims = t.shape().dims();
    w.write_all(&(dims.len() as u32).to_le_bytes())?;
    for &d in dims {
        w.write_all(&(d as u32).to_le_bytes())?;
    }
    for &v in t.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Read `count` little-endian words of `W` bytes each, decoding each with
/// `decode`. The buffer grows only as bytes arrive, so a huge `count` from a
/// hostile file costs no more memory than the file holds; a shortfall is an
/// `UnexpectedEof`.
fn read_array<R: Read, T, const W: usize>(
    r: &mut R,
    count: usize,
    decode: fn([u8; W]) -> T,
) -> io::Result<Vec<T>> {
    let len = count
        .checked_mul(W)
        .ok_or_else(|| invalid("length field overflows"))?;
    let mut bytes = Vec::new();
    r.by_ref().take(len as u64).read_to_end(&mut bytes)?;
    if bytes.len() != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "snapshot truncated",
        ));
    }
    Ok(bytes
        .chunks_exact(W)
        .map(|c| decode(c.try_into().expect("chunks are W bytes")))
        .collect())
}

fn read_tensor<R: Read>(r: &mut R) -> io::Result<Tensor> {
    let rank = read_u32(r)? as usize;
    if rank > 8 {
        return Err(invalid("rank too large"));
    }
    let dims: Vec<usize> = read_array(r, rank, u32::from_le_bytes)?
        .into_iter()
        .map(|d| d as usize)
        .collect();
    let numel = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| invalid("tensor shape overflows"))?;
    let data = read_array(r, numel, f32::from_le_bytes)?;
    Ok(Tensor::from_vec(data, Shape::new(&dims)))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// One named section of a [`Snapshot`]: a tensor list plus integer and
/// float side-channels (step counters, RNG words, curve values, flags).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// Section name (unique within a snapshot by convention).
    pub name: String,
    /// Tensor payload (parameters, optimizer moments, memory groups, …).
    pub tensors: Vec<Tensor>,
    /// Integer payload (epoch counters, RNG state words, indices, flags).
    pub ints: Vec<u64>,
    /// Float payload (loss curves, learned weights, tracker metrics).
    pub floats: Vec<f32>,
}

impl Section {
    /// An empty section with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Section {
            name: name.into(),
            ..Default::default()
        }
    }
}

/// A multi-section training-state checkpoint (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Sections, in insertion order.
    pub sections: Vec<Section>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Append a section.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Look up a section by name (first match).
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Serialize to a writer (`OODS` magic, version byte, section count,
    /// then each section as name / tensors / ints / floats).
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(SNAPSHOT_MAGIC)?;
        w.write_all(&[SNAPSHOT_VERSION])?;
        w.write_all(&(self.sections.len() as u32).to_le_bytes())?;
        for s in &self.sections {
            let name = s.name.as_bytes();
            w.write_all(&(name.len() as u32).to_le_bytes())?;
            w.write_all(name)?;
            w.write_all(&(s.tensors.len() as u32).to_le_bytes())?;
            for t in &s.tensors {
                write_tensor(&mut w, t)?;
            }
            w.write_all(&(s.ints.len() as u32).to_le_bytes())?;
            for &v in &s.ints {
                w.write_all(&v.to_le_bytes())?;
            }
            w.write_all(&(s.floats.len() as u32).to_le_bytes())?;
            for &v in &s.floats {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserialize from a reader.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Snapshot> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != SNAPSHOT_MAGIC {
            return Err(invalid("bad snapshot magic"));
        }
        let mut version = [0u8; 1];
        r.read_exact(&mut version)?;
        if version[0] != SNAPSHOT_VERSION {
            return Err(invalid(&format!(
                "unsupported snapshot version {}",
                version[0]
            )));
        }
        let n_sections = read_u32(&mut r)? as usize;
        let mut sections = Vec::new();
        for _ in 0..n_sections {
            let name_len = read_u32(&mut r)? as usize;
            if name_len > 4096 {
                return Err(invalid("section name too long"));
            }
            let mut name = vec![0u8; name_len];
            r.read_exact(&mut name)?;
            let name = String::from_utf8(name)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let n_tensors = read_u32(&mut r)? as usize;
            let mut tensors = Vec::new();
            for _ in 0..n_tensors {
                tensors.push(read_tensor(&mut r)?);
            }
            let n_ints = read_u32(&mut r)? as usize;
            let ints = read_array(&mut r, n_ints, u64::from_le_bytes)?;
            let n_floats = read_u32(&mut r)? as usize;
            let floats = read_array(&mut r, n_floats, f32::from_le_bytes)?;
            sections.push(Section {
                name,
                tensors,
                ints,
                floats,
            });
        }
        Ok(Snapshot { sections })
    }

    /// Atomically save to `path`: the snapshot is written to a sibling
    /// `.tmp` file, flushed, and renamed over the target, so a crash
    /// mid-save leaves any previous checkpoint intact.
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let file = std::fs::File::create(&tmp)?;
            let mut w = io::BufWriter::new(file);
            self.write_to(&mut w)?;
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Load a snapshot saved with [`Snapshot::save_atomic`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Snapshot> {
        let file = std::fs::File::open(path)?;
        Snapshot::read_from(io::BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn snapshot_roundtrip_in_memory() {
        let mut rng = Rng::seed_from(5);
        let mut snap = Snapshot::new();
        let mut model = Section::new("model");
        model.tensors.push(Tensor::randn([3, 2], &mut rng));
        model.tensors.push(Tensor::randn([2], &mut rng));
        snap.push(model);
        let mut meta = Section::new("meta");
        meta.ints = vec![1, 42, u64::MAX];
        meta.floats = vec![0.5, -1.25, f32::MIN_POSITIVE];
        snap.push(meta);
        snap.push(Section::new("empty"));
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        let back = Snapshot::read_from(&buf[..]).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.section("meta").unwrap().ints[1], 42);
        assert!(back.section("missing").is_none());
    }

    #[test]
    fn snapshot_rejects_bad_magic() {
        let buf = b"NOPE\x01\x00\x00\x00\x00".to_vec();
        assert!(Snapshot::read_from(&buf[..]).is_err());
    }

    #[test]
    fn snapshot_save_atomic_replaces_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("oods_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.snap");
        let mut first = Snapshot::new();
        let mut s = Section::new("meta");
        s.ints = vec![1];
        first.push(s);
        first.save_atomic(&path).unwrap();
        // Overwrite with a second snapshot: rename must replace in place.
        let mut second = Snapshot::new();
        let mut s = Section::new("meta");
        s.ints = vec![2];
        second.push(s);
        second.save_atomic(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.section("meta").unwrap().ints, vec![2]);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_save_atomic_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("oods_nest_{}", std::process::id()));
        let path = dir.join("a/b/run.snap");
        Snapshot::new().save_atomic(&path).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
