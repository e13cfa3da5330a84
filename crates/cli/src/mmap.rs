//! Read-only memory-mapped file ingest.
//!
//! `kav stream` and `kav serve` read whole input files as one `&[u8]`:
//! NDJSON through [`kav_history::ndjson::SliceReader`] and binary frames
//! through [`kav_history::frame::FrameReader`]. Mapping the file shares
//! the page cache with the kernel instead of copying the whole file
//! through a userspace buffer first, so ingest starts immediately.
//!
//! The mapping is raw-syscall based (the workspace carries no libc
//! binding) and therefore gated to Linux on x86_64/aarch64; everywhere
//! else — and whenever `mmap` itself fails — [`map_file`] falls back to
//! reading the file into an anonymous buffer, which is semantically
//! identical and only costs the copy.

use std::io;
use std::ops::Deref;

/// The bytes of a file: either a kernel mapping or an owned buffer.
/// Dereferences to `&[u8]` either way; a mapping is unmapped on drop.
pub struct Mapped {
    /// `Some((ptr, len))` for a live `mmap` region, `None` for `buf`.
    map: Option<(*const u8, usize)>,
    buf: Vec<u8>,
}

impl Deref for Mapped {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self.map {
            // SAFETY: the region was mapped with exactly this length,
            // stays mapped until Drop, and is never written through.
            Some((ptr, len)) => unsafe { std::slice::from_raw_parts(ptr, len) },
            None => &self.buf,
        }
    }
}

impl Drop for Mapped {
    fn drop(&mut self) {
        if let Some((ptr, len)) = self.map.take() {
            // SAFETY: ptr/len came from a successful mmap and are
            // unmapped exactly once.
            unsafe { sys::munmap(ptr, len) };
        }
    }
}

/// Maps `path` read-only, falling back to an in-memory read when the
/// platform (or the kernel) declines.
pub fn map_file(path: &str) -> io::Result<Mapped> {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        // An empty file cannot be mapped (mmap rejects length 0); the
        // empty buffer is the same stream.
        if len > 0 {
            if let Ok(len) = usize::try_from(len) {
                // SAFETY: fd is open for reading; PROT_READ +
                // MAP_PRIVATE never aliases writable memory.
                if let Some(ptr) = unsafe { sys::mmap_readonly(file.as_raw_fd(), len) } {
                    return Ok(Mapped { map: Some((ptr, len)), buf: Vec::new() });
                }
            }
        }
    }
    Ok(Mapped { map: None, buf: std::fs::read(path)? })
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    //! Raw `mmap`/`munmap` syscalls — the only two this module needs, so
    //! a libc binding would be overkill. Error returns are the Linux ABI
    //! convention: a value in `[-4095, -1]` is a negated errno.

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    fn is_err(ret: isize) -> bool {
        (-4095..0).contains(&ret)
    }

    /// Maps `len` bytes of `fd` read-only. `None` on any syscall error
    /// (the caller falls back to reading the file).
    ///
    /// # Safety
    ///
    /// `fd` must be open for reading and `len` no larger than the file.
    pub unsafe fn mmap_readonly(fd: i32, len: usize) -> Option<*const u8> {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        std::arch::asm!(
            "syscall",
            inlateout("rax") 9isize => ret, // SYS_mmap
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") PROT_READ,
            in("r10") MAP_PRIVATE,
            in("r8") fd as isize,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        #[cfg(target_arch = "aarch64")]
        std::arch::asm!(
            "svc #0",
            in("x8") 222isize, // SYS_mmap
            inlateout("x0") 0usize => ret,
            in("x1") len,
            in("x2") PROT_READ,
            in("x3") MAP_PRIVATE,
            in("x4") fd as isize,
            in("x5") 0usize,
            options(nostack)
        );
        if is_err(ret) {
            None
        } else {
            Some(ret as *const u8)
        }
    }

    /// Unmaps a region returned by [`mmap_readonly`].
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must denote a live mapping, unmapped exactly once.
    pub unsafe fn munmap(ptr: *const u8, len: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            let ret: isize;
            std::arch::asm!(
                "syscall",
                inlateout("rax") 11isize => ret, // SYS_munmap
                in("rdi") ptr,
                in("rsi") len,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
            debug_assert!(!is_err(ret), "munmap failed");
        }
        #[cfg(target_arch = "aarch64")]
        {
            let ret: isize;
            std::arch::asm!(
                "svc #0",
                in("x8") 215isize, // SYS_munmap
                inlateout("x0") ptr => ret,
                in("x1") len,
                options(nostack)
            );
            debug_assert!(!is_err(ret), "munmap failed");
        }
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod sys {
    //! Stub for platforms without the raw-syscall mapping: `map_file`
    //! never constructs a mapping here, so these are unreachable.

    pub unsafe fn munmap(_ptr: *const u8, _len: usize) {
        unreachable!("no mapping is ever created on this platform");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kav_mmap_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn mapped_bytes_equal_the_file() {
        let path = temp_file("data.bin", b"hello mapped world\n");
        let mapped = map_file(path.to_str().unwrap()).unwrap();
        assert_eq!(&*mapped, b"hello mapped world\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_map_to_empty_slices() {
        let path = temp_file("empty.bin", b"");
        let mapped = map_file(path.to_str().unwrap()).unwrap();
        assert!(mapped.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_files_error() {
        assert!(map_file("/nonexistent/kav/input").is_err());
    }
}
