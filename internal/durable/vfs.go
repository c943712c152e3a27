package durable

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// VFS is the narrow filesystem seam under FileJournal. Production code
// uses OS(), or Memory() where a node has no disk; fault-injection
// harnesses (internal/nemesis) substitute an implementation that tears
// writes, fails fsync, or dies mid-append to exercise the recovery path
// against hostile disks.
type VFS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadDir returns the sorted base names of the entries in dir.
	ReadDir(dir string) ([]string, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// Create opens name for writing, truncating it if it exists.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// Size returns the length of name in bytes.
	Size(name string) (int64, error)
}

// File is the writable handle a VFS hands out. The journal only ever
// appends, syncs, and closes; reads go through VFS.ReadFile.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS returns the real filesystem.
func OS() VFS { return osVFS{} }

type osVFS struct{}

func (osVFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osVFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osVFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osVFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osVFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (osVFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osVFS) Remove(name string) error { return os.Remove(name) }

func (osVFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osVFS) Size(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Memory returns an empty in-memory filesystem, for a node without a
// disk: a simulated one, or vpnode without -data. It gives what
// FileJournal calls the real filesystem's results (TestVFSContract),
// Sync does nothing, and everything is gone with the process. A handle
// follows its file across Rename and Remove, as an open file does. Safe
// for concurrent use.
func Memory() VFS { return &memFS{files: map[string]*memFile{}} }

// memFS maps each cleaned path to its file, nil for a directory. Every
// operation holds mu, a handle's Write included.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	mu   *sync.Mutex // the filesystem's
	data []byte
}

func notExist(op, name string) error { return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist} }

// isDir reports whether p is a directory; the root of a path always is.
// Callers hold m.mu.
func (m *memFS) isDir(p string) bool {
	f, ok := m.files[p]
	return ok && f == nil || filepath.Dir(p) == p
}

// file runs fn on the file at name under the lock, or reports it missing.
func (m *memFS) file(op, name string, fn func(f *memFile)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[filepath.Clean(name)]
	if f == nil {
		return notExist(op, name)
	}
	fn(f)
	return nil
}

func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.isDir(d); d = filepath.Dir(d) {
		m.files[d] = nil
	}
	return nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dir = filepath.Clean(dir); !m.isDir(dir) {
		return nil, notExist("open", dir)
	}
	names := []string{}
	for p := range m.files {
		if filepath.Dir(p) == dir && p != dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) ReadFile(name string) (data []byte, err error) {
	err = m.file("open", name, func(f *memFile) { data = append([]byte(nil), f.data...) })
	return data, err
}

// open returns name's file, created when absent and emptied when trunc
// is set.
func (m *memFS) open(name string, trunc bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name = filepath.Clean(name); !m.isDir(filepath.Dir(name)) {
		return nil, notExist("open", name)
	}
	f := m.files[name]
	if f == nil {
		f = &memFile{mu: &m.mu}
		m.files[name] = f
	}
	if trunc {
		f.data = nil
	}
	return f, nil
}

func (m *memFS) Create(name string) (File, error) { return m.open(name, true) }

func (m *memFS) OpenAppend(name string) (File, error) { return m.open(name, false) }

func (m *memFS) Rename(oldpath, newpath string) error {
	return m.file("rename", oldpath, func(f *memFile) {
		delete(m.files, filepath.Clean(oldpath))
		m.files[filepath.Clean(newpath)] = f
	})
}

func (m *memFS) Remove(name string) error {
	return m.file("remove", name, func(*memFile) { delete(m.files, filepath.Clean(name)) })
}

func (m *memFS) Truncate(name string, size int64) error {
	return m.file("truncate", name, func(f *memFile) {
		f.data = append(f.data, make([]byte, max(0, size-int64(len(f.data))))...)[:size]
	})
}

func (m *memFS) Size(name string) (n int64, err error) {
	err = m.file("stat", name, func(f *memFile) { n = int64(len(f.data)) })
	return n, err
}

// Write appends, as every handle FileJournal opens does.
func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.data = append(f.data, p...)
	f.mu.Unlock()
	return len(p), nil
}

func (*memFile) Sync() error  { return nil }
func (*memFile) Close() error { return nil }

// IsNotExist reports whether err is a missing-file error, for VFS
// implementations layered over the os package.
func IsNotExist(err error) bool {
	return os.IsNotExist(err) || err == fs.ErrNotExist
}
