//! Crash-ordered artifact writes.
//!
//! Every artifact this workspace persists — campaign reports, trace
//! JSONL, `corpus-index.jsonl`, benchmark records, lint and obs dumps —
//! is consumed by a later stage (triage, CI gates, resume). A process
//! killed mid-`File::create` leaves a torn file under the *final* name,
//! which poisons that consumer silently. [`atomic_write`] closes the
//! window: the bytes land in a same-directory temporary file, are
//! fsynced, and only then renamed over the destination. `rename(2)` is
//! atomic on POSIX filesystems, so at every instant the destination path
//! holds either the complete old bytes or the complete new bytes — never
//! a prefix. The parent directory is fsynced afterwards so the rename
//! itself survives a power cut.
//!
//! The static half of this contract is lint rule D007 (`docs/LINT.md`):
//! bare `File::create` / `fs::write` in artifact paths is a finding, and
//! this helper is the sanctioned replacement. Append-only writers (the
//! obs event log, the result journal) are out of scope by design — they
//! are crash-tolerated by their readers, not replaced atomically.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the destination, fsync the directory. Creates
/// parent directories as needed. After a crash at any point, `path`
/// either does not exist, holds its previous contents, or holds exactly
/// `bytes` — never a torn prefix.
///
/// # Errors
///
/// Propagates filesystem errors; a failed write leaves at worst a
/// `.tmp.<pid>` sibling, never a torn destination.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = parent {
        fs::create_dir_all(dir)?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "atomic_write needs a file name",
            )
        })?
        .to_string_lossy()
        .into_owned();
    // Same-directory temp name (rename must not cross filesystems); the
    // pid suffix keeps concurrent writers from clobbering each other's
    // staging file.
    let tmp = path.with_file_name(format!("{file_name}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut staged = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        staged.write_all(bytes)?;
        // Order matters: the data must be durable before the rename makes
        // it reachable under the final name.
        staged.sync_all()?;
        drop(staged);
        fs::rename(&tmp, path)?;
        // Persist the directory entry; best-effort where directories
        // cannot be opened (the data itself is already safe, and the
        // rename is atomic regardless).
        if let Some(dir) = parent {
            if let Ok(handle) = fs::File::open(dir) {
                let _ = handle.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        // Never leave the staging file behind on failure.
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mls-obs-atomic-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_bytes_and_creates_parents() {
        let dir = temp_dir("parents");
        let path = dir.join("nested/deep/report.json");
        atomic_write(&path, b"{\"ok\":true}\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"ok\":true}\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaces_existing_contents_completely() {
        let dir = temp_dir("replace");
        let path = dir.join("artifact.txt");
        atomic_write(&path, b"first, much longer contents").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leaves_no_staging_file_behind() {
        let dir = temp_dir("staging");
        let path = dir.join("artifact.txt");
        atomic_write(&path, b"bytes").unwrap();
        let siblings: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(siblings, vec!["artifact.txt".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pathless_destination_is_an_error() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
    }
}
