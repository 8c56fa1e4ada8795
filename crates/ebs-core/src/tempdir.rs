//! Unique scratch directories that delete themselves.
//!
//! Tests in one process run concurrently, so a scratch name built from the
//! process id alone collides. [`TempDir::new`] adds a caller tag and a
//! per-process counter, and the directory is removed when dropped.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory under the system temp dir, removed with its contents
/// on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `<temp>/ebs-<tag>-<pid>-<n>`, where `n` counts the calls
    /// made so far in this process.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let n = CALLS.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("ebs-{tag}-{}-{n}", std::process::id()));
        // Left behind by an earlier process that had the same pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_unique_and_removed_on_drop() {
        let a = TempDir::new("tempdir-test").unwrap();
        let b = TempDir::new("tempdir-test").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}
