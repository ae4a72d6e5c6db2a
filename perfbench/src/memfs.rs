//! An in-memory filesystem behind the sweep cache's `Vfs` seam.
//!
//! `dse-campaign` runs its timed lifecycle on it: the cache's record
//! encoding, CRC, append bookkeeping, open and parse all run as shipped,
//! but no write waits on the host's disk. On a shared host, writes and
//! fsyncs there drifted by a quarter or more between runs minutes apart,
//! which no number of passes in one run averages out. The disk path is
//! measured on its own by the per-layer probes on the real filesystem.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use ena_sweep::Vfs;
use ena_testkit::chaos::VfsFile;

type Contents = Arc<Mutex<Vec<u8>>>;

/// Files by path. Directories are implicit; a handle keeps writing to
/// the contents it opened even after a rename or a re-create, as an open
/// file descriptor does.
#[derive(Debug, Default)]
pub struct MemFs {
    files: Mutex<BTreeMap<PathBuf, Contents>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

struct MemFile(Contents);

impl io::Write for MemFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl VfsFile for MemFile {
    fn sync_all(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Vfs for MemFs {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        let files = lock(&self.files);
        let file = files.get(path).ok_or_else(|| not_found(path))?;
        let bytes = lock(file).clone();
        Ok(bytes)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = lock(&self.files)
            .entry(path.to_path_buf())
            .or_default()
            .clone();
        Ok(Box::new(MemFile(file)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = Contents::default();
        lock(&self.files).insert(path.to_path_buf(), file.clone());
        Ok(Box::new(MemFile(file)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = lock(&self.files);
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        lock(&self.files)
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn appends_renames_and_misses_behave_like_files() {
        let fs = MemFs::default();
        let (a, b) = (Path::new("d/a"), Path::new("d/b"));
        assert_eq!(
            fs.read_bytes(a).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        fs.open_append(a).unwrap().write_all(b"x").unwrap();
        fs.open_append(a).unwrap().write_all(b"y").unwrap();
        assert_eq!(fs.read_bytes(a).unwrap(), b"xy");
        fs.create(b).unwrap().write_all(b"z").unwrap();
        fs.rename(b, a).unwrap();
        assert_eq!(fs.read_bytes(a).unwrap(), b"z");
        assert!(fs.read_bytes(b).is_err());
        fs.remove_file(a).unwrap();
        assert!(fs.remove_file(a).is_err());
    }
}
