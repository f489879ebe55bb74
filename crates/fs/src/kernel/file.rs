//! The directory and file-descriptor syscalls: each is a typed method
//! that runs its body through the boundary and hands the read and write
//! work to the io path.

use sleds_sim_core::{index, Errno, SimError, SimResult};

use super::{Kernel, OpenFile};
use crate::inode::{FileKind, FileNode, Ino, InodeBody, Stat};
use crate::payload::Payload;
use crate::syscall::{self as sys, Fd, OpenFlags, Syscall, SyscallRet, Whence};

impl Kernel {
    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> SimResult<()> {
        let make = || Syscall::Mkdir {
            path: path.to_string(),
        };
        self.sys(&sys::MKDIR, [0; 3], make, |k| {
            let (parent, name) = k.resolve_parent(path)?;
            let mount = k.inode(parent)?.mount;
            let parent_dir = k
                .inode(parent)?
                .as_dir()
                .ok_or_else(|| SimError::new(Errno::Enotdir, format!("mkdir({path})")))?;
            if parent_dir.contains_key(name) {
                return Err(SimError::new(Errno::Eexist, format!("mkdir({path})")));
            }
            k.link_new(parent, name, mount, InodeBody::Dir(Default::default()))?;
            Ok(SyscallRet::Unit)
        })
        .map(|_| ())
    }

    /// Lists a directory's entries in name order.
    pub fn readdir(&mut self, path: &str) -> SimResult<Vec<String>> {
        let make = || Syscall::Readdir {
            path: path.to_string(),
        };
        self.sys(&sys::READDIR, [0; 3], make, |k| {
            let ino = k.resolve(path)?;
            let node = k.inode(ino)?;
            let dir = node
                .as_dir()
                .ok_or_else(|| SimError::new(Errno::Enotdir, format!("readdir({path})")))?;
            Ok(SyscallRet::Names(dir.keys().cloned().collect()))
        })?
        .names()
    }

    /// Returns metadata for a path.
    pub fn stat(&mut self, path: &str) -> SimResult<Stat> {
        let make = || Syscall::Stat {
            path: path.to_string(),
        };
        self.sys(&sys::STAT, [0; 3], make, |k| {
            let ino = k.resolve(path)?;
            k.stat_ino(ino).map(SyscallRet::Stat)
        })?
        .stat()
    }

    pub(super) fn stat_ino(&self, ino: Ino) -> SimResult<Stat> {
        let node = self.inode(ino)?;
        Ok(Stat {
            ino,
            kind: node.kind(),
            size: node.as_file().map(|f| f.size()).unwrap_or(0),
            mount: node.mount,
            dev: node.mount.and_then(|m| self.mounts.get(m.0)).map(|m| m.dev),
            mtime: node.mtime,
        })
    }

    /// Returns metadata for an open file.
    pub fn fstat(&mut self, fd: Fd) -> SimResult<Stat> {
        let make = || Syscall::Fstat { fd };
        self.sys(&sys::FSTAT, [0; 3], make, |k| {
            let of = k.openfile(fd)?;
            k.stat_ino(of.ino).map(SyscallRet::Stat)
        })?
        .stat()
    }

    /// Removes a file, dropping its cached pages.
    pub fn unlink(&mut self, path: &str) -> SimResult<()> {
        let make = || Syscall::Unlink {
            path: path.to_string(),
        };
        self.sys(&sys::UNLINK, [0; 3], make, |k| {
            let (parent, name) = k.resolve_parent(path)?;
            let ino = {
                let dir = k
                    .inode(parent)?
                    .as_dir()
                    .ok_or_else(|| SimError::new(Errno::Enotdir, format!("unlink({path})")))?;
                *dir.get(name)
                    .ok_or_else(|| SimError::new(Errno::Enoent, format!("unlink({path})")))?
            };
            if k.inode(ino)?.kind() == FileKind::Dir {
                return Err(SimError::new(Errno::Eisdir, format!("unlink({path})")));
            }
            let name = name.to_string();
            k.dir_of_mut(parent)?.remove(&name);
            k.inodes.remove(ino.0);
            k.cache.remove_file(ino.0);
            Ok(SyscallRet::Unit)
        })
        .map(|_| ())
    }

    /// Opens (and possibly creates) a file.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> SimResult<Fd> {
        let make = || Syscall::Open {
            path: path.to_string(),
            flags,
        };
        self.sys(&sys::OPEN, [0; 3], make, |k| {
            let ino = match k.resolve(path) {
                Ok(i) => {
                    if k.inode(i)?.kind() == FileKind::Dir && (flags.write || flags.truncate) {
                        return Err(SimError::new(Errno::Eisdir, format!("open({path})")));
                    }
                    if flags.truncate {
                        k.check_writable_mount(i, path)?;
                        let node = k.inode_mut(i)?;
                        if let Some(f) = node.as_file_mut() {
                            f.truncate();
                        }
                        k.cache.remove_file(i.0);
                    }
                    i
                }
                Err(e) if e.errno == Errno::Enoent && flags.create => {
                    let (parent, name) = k.resolve_parent(path)?;
                    let mount = k.inode(parent)?.mount.ok_or_else(|| {
                        SimError::new(Errno::Erofs, format!("open({path}): no mount here"))
                    })?;
                    if k.mounts[mount.0].read_only {
                        return Err(SimError::new(Errno::Erofs, format!("open({path})")));
                    }
                    let file = InodeBody::File(FileNode::default());
                    k.link_new(parent, name, Some(mount), file)?
                }
                Err(e) => return Err(e),
            };
            if flags.write {
                k.check_writable_mount(ino, path)?;
            }
            let fd = Fd(k.next_fd);
            k.next_fd += 1;
            k.fds.insert(fd.0, OpenFile { ino, pos: 0, flags });
            Ok(SyscallRet::Fd(fd))
        })?
        .fd()
    }

    fn check_writable_mount(&self, ino: Ino, path: &str) -> SimResult<()> {
        let node = self.inode(ino)?;
        if let Some(m) = node.mount {
            if self.mounts[m.0].read_only {
                return Err(SimError::new(Errno::Erofs, format!("open({path})")));
            }
        }
        Ok(())
    }

    /// Closes a file descriptor.
    pub fn close(&mut self, fd: Fd) -> SimResult<()> {
        let make = || Syscall::Close { fd };
        self.sys(&sys::CLOSE, [fd.0, 0, 0], make, |k| {
            k.fds
                .remove(fd.0)
                .map(|_| SyscallRet::Unit)
                .ok_or_else(|| SimError::new(Errno::Ebadf, format!("close({})", fd.0)))
        })
        .map(|_| ())
    }

    /// Repositions a file offset.
    pub fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> SimResult<u64> {
        let make = || Syscall::Lseek { fd, offset, whence };
        self.sys(&sys::LSEEK, [fd.0, offset as u64, 0], make, |k| {
            let of = k.openfile(fd)?;
            let size = k.inode(of.ino)?.as_file().map(|f| f.size()).unwrap_or(0);
            let base = match whence {
                Whence::Set => 0i64,
                Whence::Cur => of.pos as i64,
                Whence::End => size as i64,
            };
            let new = base
                .checked_add(offset)
                .filter(|&n| n >= 0)
                .ok_or_else(|| SimError::new(Errno::Einval, format!("lseek({}, {offset})", fd.0)))?
                as u64;
            k.openfile_mut(fd)?.pos = new;
            Ok(SyscallRet::Count(new))
        })?
        .count()
    }

    /// Reads up to `len` bytes at the current offset.
    ///
    /// Returns the bytes actually read (shorter at end of file, empty at or
    /// past it), advancing the offset.
    pub fn read(&mut self, fd: Fd, len: usize) -> SimResult<Payload> {
        let make = || Syscall::Read { fd, len };
        self.sys(&sys::READ, [fd.0, len as u64, 0], make, |k| {
            k.do_read_fd(fd, None, len).map(SyscallRet::Bytes)
        })?
        .bytes()
    }

    /// Positioned read: `pread(2)`. Does not move the file offset.
    pub fn pread(&mut self, fd: Fd, pos: u64, len: usize) -> SimResult<Payload> {
        let make = || Syscall::Pread { fd, pos, len };
        self.sys(&sys::PREAD, [fd.0, len as u64, pos], make, |k| {
            k.do_read_fd(fd, Some(pos), len).map(SyscallRet::Bytes)
        })?
        .bytes()
    }

    /// Writes `buf` at the current offset (or the end with `O_APPEND`),
    /// extending the file as needed. Returns bytes written.
    pub fn write(&mut self, fd: Fd, buf: &[u8]) -> SimResult<usize> {
        let make = || Syscall::Write {
            fd,
            data: buf.to_vec(),
        };
        self.sys(&sys::WRITE, [fd.0, buf.len() as u64, 0], make, |k| {
            let of = k.openfile(fd)?;
            if !of.flags.write {
                return Err(SimError::new(Errno::Ebadf, "write on read-only fd"));
            }
            let pos = if of.flags.append {
                k.inode(of.ino)?.as_file().map(|f| f.size()).unwrap_or(0)
            } else {
                of.pos
            };
            k.do_write(of.ino, pos, buf)?;
            k.openfile_mut(fd)?.pos = pos + buf.len() as u64;
            k.ledger.counts.bytes_written += buf.len() as u64;
            Ok(SyscallRet::Count(buf.len() as u64))
        })?
        .count()
        .map(index)
    }

    /// Flushes an open file's dirty pages to its device.
    pub fn fsync(&mut self, fd: Fd) -> SimResult<()> {
        let make = || Syscall::Fsync { fd };
        self.sys(&sys::FSYNC, [fd.0, 0, 0], make, |k| {
            let of = k.openfile(fd)?;
            let dirty = k.cache.dirty_pages_of(of.ino.0);
            for key in dirty {
                k.writeback(key)?;
                k.cache.mark_clean(key);
            }
            Ok(SyscallRet::Unit)
        })
        .map(|_| ())
    }

    /// Drops the entire page cache, writing dirty pages back first. Used by
    /// experiments that need a cold cache.
    pub fn drop_caches(&mut self) -> SimResult<()> {
        self.rec_unsupported("drop_caches");
        // The cache's own dirty set, in (inode, page) order. Every dirty
        // page belongs to a live inode: `unlink` and `O_TRUNC` drop a
        // file's pages when they drop the file.
        for key in self.cache.dirty_pages() {
            self.writeback(key)?;
            self.cache.mark_clean(key);
        }
        self.cache.clear();
        Ok(())
    }
}
