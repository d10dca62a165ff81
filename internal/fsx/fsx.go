// Package fsx abstracts the filesystem operations of the durable store
// behind a narrow interface with two implementations: OS, a direct
// passthrough, and Faulty (fault.go), a deterministic, seeded fault
// injector that can fail the Nth fsync, tear writes, break renames,
// return ENOSPC, flip bits on reads, and simulate process death at any
// of those sites.
//
// Every byte the store reads or writes — WAL segments, snapshots, the
// manifest — moves through an FS, so the crash-point harness
// (internal/store) can systematically kill the store at every I/O
// operation and prove recovery is exact or fails loudly. Production
// code pays one interface call per operation; the hot append path
// buffers above the FS, so the overhead is per-flush, not per-record.
package fsx

import (
	"bufio"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the store uses. Writers must call
// Sync before relying on durability, exactly as with the real thing.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface of the durable store. Implementations
// must be safe for concurrent use.
type FS interface {
	// OpenFile opens with the given flags (os.O_CREATE, ...).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens for reading.
	Open(name string) (File, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate resizes the named file.
	Truncate(name string, size int64) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat describes a file.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making renames and creates within it
	// durable.
	SyncDir(dir string) error
}

// OS is the production FS: a direct passthrough to the os package.
type OS struct{}

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// Stat implements FS.
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// SyncDir implements FS.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err == nil {
		err = cerr
	}
	return err
}

// Glob returns the names in the directory of pattern that match its
// base, like filepath.Glob but routed through fs so fault injection
// covers directory listings too.
func Glob(fs FS, pattern string) ([]string, error) {
	dir, base := filepath.Split(pattern)
	if dir == "" {
		dir = "."
	}
	ents, err := fs.ReadDir(filepath.Clean(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		ok, err := filepath.Match(base, e.Name())
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, filepath.Join(filepath.Clean(dir), e.Name()))
		}
	}
	return out, nil
}

// castagnoli is the CRC32-C polynomial, hardware-accelerated on
// amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter accumulates the CRC32-C and size of everything written
// through it, so a file's checksum is computed as it streams out.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	cw.n += int64(n)
	return n, err
}

// WriteAtomic publishes a file so that a crash at any point leaves
// either the old content of path or the new, never a mix: write streams
// the content into path+".tmp", which is fsynced, closed, renamed over
// path, and made durable by an fsync of the directory — in that order,
// every time (the crash-point sweeps enumerate exactly these sites). It
// returns the CRC32-C and size of what was written, for callers that
// record a checksum beside the file. Content reaches the file in chunks
// of up to 1 MiB however finely write streams it. A failure leaves path
// untouched; a *.tmp left behind by a crash is the owner's to sweep.
func WriteAtomic(fs FS, path string, write func(io.Writer) error) (crc uint32, size int64, err error) {
	return writeAtomic(fs, path, func(f io.Writer) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		if err := write(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// WriteFileAtomic is WriteAtomic for content already in memory: the same
// steps, with b written in one call and no staging buffer.
func WriteFileAtomic(fs FS, path string, b []byte) (crc uint32, size int64, err error) {
	return writeAtomic(fs, path, func(f io.Writer) error {
		if len(b) == 0 {
			return nil // as a Flush of nothing: no write call for the crash sweeps to count
		}
		_, err := f.Write(b)
		return err
	})
}

// writeAtomic is WriteAtomic's steps around write, which gets the
// temporary file behind a checksumming writer.
func writeAtomic(fs FS, path string, write func(io.Writer) error) (crc uint32, size int64, err error) {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	cw := &crcWriter{w: f}
	err = write(cw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp) // best effort; Open sweeps what this misses
		return 0, 0, err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return 0, 0, err
	}
	return cw.crc, cw.n, fs.SyncDir(filepath.Dir(path))
}
