//! Names to inodes: the inode table's accessors and the path walk
//! (`components`, [`Kernel::resolve`], `resolve_parent`). Every syscall that
//! takes a path or an fd lands here first, so nothing in this file
//! allocates on the success path: an inode lookup is an array index, a
//! path is walked as an iterator over its components, and each component
//! is found in its directory's [`Dir`] by integer compares on the name's
//! first eight bytes, touching the name's own bytes only past those eight.

use sleds_sim_core::{Errno, SimError, SimResult};

use super::{Kernel, MountId};
use crate::inode::{Dir, FileNode, Ino, Inode, InodeBody};

/// The components of a path, front to back. A plain byte scan for `/`:
/// a component is a handful of bytes, and `str::split`'s searcher costs
/// more to set up per component than scanning one does.
struct Components<'p> {
    rest: &'p str,
}

impl<'p> Iterator for Components<'p> {
    type Item = &'p str;

    fn next(&mut self) -> Option<&'p str> {
        while !self.rest.is_empty() {
            let (head, tail) = match self.rest.bytes().position(|b| b == b'/') {
                Some(i) => (&self.rest[..i], &self.rest[i + 1..]),
                None => (self.rest, ""),
            };
            self.rest = tail;
            if !head.is_empty() && head != "." {
                return Some(head);
            }
        }
        None
    }
}

impl Kernel {
    pub(super) fn inode(&self, ino: Ino) -> SimResult<&Inode> {
        self.inodes
            .get(ino.0)
            .ok_or_else(|| SimError::new(Errno::Estale, format!("stale inode {ino:?}")))
    }

    pub(super) fn inode_mut(&mut self, ino: Ino) -> SimResult<&mut Inode> {
        self.inodes
            .get_mut(ino.0)
            .ok_or_else(|| SimError::new(Errno::Estale, format!("stale inode {ino:?}")))
    }

    pub(super) fn file_of(&self, ino: Ino) -> SimResult<&FileNode> {
        self.inode(ino)?
            .as_file()
            .ok_or_else(|| SimError::new(Errno::Eisdir, format!("inode {ino:?} is a directory")))
    }

    pub(super) fn file_of_mut(&mut self, ino: Ino) -> SimResult<&mut FileNode> {
        self.inode_mut(ino)?
            .as_file_mut()
            .ok_or_else(|| SimError::new(Errno::Eisdir, format!("inode {ino:?} is a directory")))
    }

    pub(super) fn dir_of_mut(&mut self, ino: Ino) -> SimResult<&mut Dir> {
        self.inode_mut(ino)?.as_dir_mut().ok_or_else(|| {
            SimError::new(Errno::Enotdir, format!("inode {ino:?} is not a directory"))
        })
    }

    /// The components of an absolute path, skipping empty ones and `.`.
    fn components(path: &str) -> SimResult<Components<'_>> {
        if !path.starts_with('/') {
            return Err(SimError::new(
                Errno::Einval,
                format!("path {path:?} must be absolute"),
            ));
        }
        Ok(Components { rest: path })
    }

    /// One step of a walk: the entry `name` of directory `dir`. `op` and
    /// `path` only label the error.
    fn lookup(&self, dir: Ino, name: &str, op: &str, path: &str) -> SimResult<Ino> {
        let names = self
            .inode(dir)?
            .as_dir()
            .ok_or_else(|| SimError::new(Errno::Enotdir, format!("{op}({path})")))?;
        names
            .get(name)
            .ok_or_else(|| SimError::new(Errno::Enoent, format!("{op}({path})")))
    }

    /// Resolves an absolute path to an inode.
    pub fn resolve(&self, path: &str) -> SimResult<Ino> {
        let mut cur = self.root;
        for comp in Self::components(path)? {
            cur = self.lookup(cur, comp, "resolve", path)?;
        }
        Ok(cur)
    }

    /// Resolves all but the last component: the parent directory's inode
    /// and the final name (which need not exist).
    pub(super) fn resolve_parent<'p>(&self, path: &'p str) -> SimResult<(Ino, &'p str)> {
        let mut comps = Self::components(path)?;
        let mut name = comps
            .next()
            .ok_or_else(|| SimError::new(Errno::Einval, format!("resolve_parent({path})")))?;
        let mut cur = self.root;
        for next in comps {
            cur = self.lookup(cur, name, "resolve_parent", path)?;
            name = next;
        }
        Ok((cur, name))
    }

    /// Makes an inode of `body` on `mount`, stamped now, and links it
    /// into directory `parent` as `name`.
    pub(super) fn link_new(
        &mut self,
        parent: Ino,
        name: &str,
        mount: Option<MountId>,
        body: InodeBody,
    ) -> SimResult<Ino> {
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        let mtime = self.now();
        self.inodes.insert(
            ino.0,
            Inode {
                ino,
                mount,
                body,
                mtime,
            },
        );
        self.dir_of_mut(parent)?.insert(name, ino);
        Ok(ino)
    }
}
