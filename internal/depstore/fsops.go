// The store's filesystem seam. Every byte the local tier moves goes
// through the FS interface below, so internal/faultfs can stand in for
// the os package and inject planned read/write/rename/chtimes failures
// and torn temp-file writes — the faultdev discipline applied to our
// own infrastructure instead of the simulated disks. Production pays
// exactly one interface indirection per operation: the default
// implementation is a zero-size wrapper over the os package.

package depstore

import (
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// FS abstracts the filesystem operations the store's local tier
// performs. Implementations must be safe for concurrent use. The
// canonical implementations are OSFS (production) and
// internal/faultfs's fault-injecting shim (tests).
type FS interface {
	// ReadFile reads the named file whole.
	ReadFile(name string) ([]byte, error)
	// MkdirAll creates a directory path (and parents) like os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// CreateTemp creates a new temp file in dir like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// Chtimes updates the named file's access and modification times.
	Chtimes(name string, atime, mtime time.Time) error
	// WalkDir walks the tree rooted at root like filepath.WalkDir.
	WalkDir(root string, fn fs.WalkDirFunc) error
	// SyncDir fsyncs the directory itself, making completed renames and
	// entry creations beneath it durable.
	SyncDir(path string) error
}

// File is the writable temp-file handle CreateTemp returns: enough of
// *os.File for the store's write-sync-close-rename commit sequence. A
// commit calls Sync on a goroutine of its own, after Write returned
// and before Close is called.
type File interface {
	Write(p []byte) (int, error)
	// Sync flushes the file's data to stable storage.
	Sync() error
	Close() error
	// Name returns the file's path, for the Rename/Remove that follows.
	Name() string
}

// OSFS is the production FS: a transparent wrapper over the os
// package.
type OSFS struct{}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// CreateTemp implements FS.
func (OSFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Chtimes implements FS.
func (OSFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

// WalkDir implements FS.
func (OSFS) WalkDir(root string, fn fs.WalkDirFunc) error { return filepath.WalkDir(root, fn) }

// SyncDir implements FS. Directory fsync is how POSIX makes a rename
// or entry creation durable; on filesystems where directories cannot
// be fsynced the error is surfaced to the caller, which reports it
// from the commit like any other failure.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
