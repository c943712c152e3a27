package nemesis

import (
	"errors"
	"math/rand"
	"sync"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
)

// Injected disk-fault errors. They are distinct sentinels so tests can
// tell an injected failure from a real one.
var (
	// ErrFsyncFault is returned by File.Sync while fsync faults are on.
	ErrFsyncFault = errors.New("nemesis: injected fsync failure")
	// ErrTornWrite is returned by the File.Write that was torn; a prefix
	// of the buffer has already reached the file.
	ErrTornWrite = errors.New("nemesis: injected torn write")
	// ErrDiskGone is returned by every operation after Crash.
	ErrDiskGone = errors.New("nemesis: disk gone (crashed)")
)

// DiskFaults is a durable.VFS that wraps another VFS and injects the
// disk half of the fault model: fsync failures (the device lies or
// dies under the group-commit barrier), frozen fsyncs (the device stalls:
// every sync blocks until thawed), torn writes (power loss mid append —
// a prefix of the buffer is persisted, the rest is not), and whole-disk
// crashes (every operation fails, as when the process is killed and the
// harness wants no further writes to escape). Recovery
// code never sees this type; it sees a journal directory with exactly
// the damage a hostile disk would leave.
//
// The crash model: a kill -9 may lose bytes that no completed fsync
// covered, and nothing else. DiskFaults keeps each file's size at its
// last successful Sync (or at open), and LoseUnsynced cuts every file
// back to a seeded point between that mark and its current size.
type DiskFaults struct {
	inner durable.VFS

	mu        sync.Mutex
	failFsync bool
	frozen    chan struct{} // non-nil while frozen; closed by Thaw
	blocked   int           // syncs currently held by the freeze
	tearKeep  int           // bytes of the next write to let through; -1 = no tear armed
	crashed   bool
	torn      int
	syncFails int
	// synced is each file's size at its last successful Sync or open.
	synced map[string]int64
}

// NewDiskFaults wraps inner (durable.OS() if nil) with no faults armed.
func NewDiskFaults(inner durable.VFS) *DiskFaults {
	if inner == nil {
		inner = durable.OS()
	}
	return &DiskFaults{inner: inner, tearKeep: -1, synced: make(map[string]int64)}
}

// FailFsync makes every File.Sync fail with ErrFsyncFault while on.
func (d *DiskFaults) FailFsync(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failFsync = on
}

// Freeze makes every File.Sync block until Thaw: a stalled device, not
// a failed one. Syncs already past the check are unaffected.
func (d *DiskFaults) Freeze() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen == nil {
		d.frozen = make(chan struct{})
	}
}

// Blocked returns how many syncs a freeze is holding right now, so a
// test can wait for a flush to be in flight instead of sleeping.
func (d *DiskFaults) Blocked() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blocked
}

// Thaw releases every sync blocked by Freeze and lets new ones through.
func (d *DiskFaults) Thaw() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen != nil {
		close(d.frozen)
		d.frozen = nil
	}
}

// TearNextWrite arms a one-shot torn write: the next File.Write on any
// file persists only the first keep bytes (clamped to the buffer) and
// returns ErrTornWrite.
func (d *DiskFaults) TearNextWrite(keep int) {
	if keep < 0 {
		keep = 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tearKeep = keep
}

// Crash makes every subsequent operation — including on already-open
// files — fail with ErrDiskGone, freezing the directory contents at
// this instant. Heal undoes it for the next boot.
func (d *DiskFaults) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = true
}

// Heal clears all armed and active faults.
func (d *DiskFaults) Heal() {
	d.Thaw()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failFsync = false
	d.tearKeep = -1
	d.crashed = false
}

// TornWrites returns how many writes were torn.
func (d *DiskFaults) TornWrites() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.torn
}

// FsyncFailures returns how many syncs were failed.
func (d *DiskFaults) FsyncFailures() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncFails
}

func (d *DiskFaults) gone() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

func (d *DiskFaults) MkdirAll(dir string) error {
	if d.gone() {
		return ErrDiskGone
	}
	return d.inner.MkdirAll(dir)
}

func (d *DiskFaults) ReadDir(dir string) ([]string, error) {
	if d.gone() {
		return nil, ErrDiskGone
	}
	return d.inner.ReadDir(dir)
}

func (d *DiskFaults) ReadFile(name string) ([]byte, error) {
	if d.gone() {
		return nil, ErrDiskGone
	}
	return d.inner.ReadFile(name)
}

func (d *DiskFaults) Create(name string) (durable.File, error) {
	if d.gone() {
		return nil, ErrDiskGone
	}
	f, err := d.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return d.track(name, f, 0), nil
}

func (d *DiskFaults) OpenAppend(name string) (durable.File, error) {
	if d.gone() {
		return nil, ErrDiskGone
	}
	f, err := d.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	size, err := d.inner.Size(name)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d.track(name, f, size), nil
}

// track wraps a freshly opened file whose first size bytes count as
// synced.
func (d *DiskFaults) track(name string, f durable.File, size int64) *faultFile {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synced[name] = size
	return &faultFile{d: d, f: f, name: name, size: size}
}

func (d *DiskFaults) Rename(oldpath, newpath string) error {
	if d.gone() {
		return ErrDiskGone
	}
	return d.inner.Rename(oldpath, newpath)
}

func (d *DiskFaults) Remove(name string) error {
	if d.gone() {
		return ErrDiskGone
	}
	return d.inner.Remove(name)
}

func (d *DiskFaults) Truncate(name string, size int64) error {
	if d.gone() {
		return ErrDiskGone
	}
	return d.inner.Truncate(name, size)
}

func (d *DiskFaults) Size(name string) (int64, error) {
	if d.gone() {
		return 0, ErrDiskGone
	}
	return d.inner.Size(name)
}

// LoseUnsynced is the disk half of a kill -9 under the crash model: it
// cuts every file opened through d back to a seeded point between its
// size at the last completed Sync and its current size, so only bytes no
// fsync covered can go; a file since renamed or removed has nothing left
// to lose. It works on a crashed disk and returns how many bytes were
// lost.
func (d *DiskFaults) LoseUnsynced(rng *rand.Rand) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var lost int64
	// One rng draw per file, in a seed-stable order.
	for _, name := range model.SortedKeys(d.synced) {
		size, err := d.inner.Size(name)
		if durable.IsNotExist(err) {
			continue
		}
		if err != nil {
			return lost, err
		}
		mark := d.synced[name]
		if size <= mark {
			continue
		}
		keep := mark + rng.Int63n(size-mark+1)
		if err := d.inner.Truncate(name, keep); err != nil {
			return lost, err
		}
		lost += size - keep
	}
	return lost, nil
}

// faultFile applies the parent's armed faults at write/sync time and
// tracks how much of the file is written and how much of it synced.
type faultFile struct {
	d    *DiskFaults
	f    durable.File
	name string
	size int64 // bytes in the file, guarded by d.mu
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.d.mu.Lock()
	if ff.d.crashed {
		ff.d.mu.Unlock()
		return 0, ErrDiskGone
	}
	keep := ff.d.tearKeep
	if keep >= 0 {
		ff.d.tearKeep = -1
		ff.d.torn++
	}
	ff.d.mu.Unlock()
	torn := keep >= 0
	if !torn || keep > len(p) {
		keep = len(p)
	}
	n, err := ff.f.Write(p[:keep])
	ff.d.mu.Lock()
	ff.size += int64(n)
	ff.d.mu.Unlock()
	if err == nil && torn {
		err = ErrTornWrite
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	ff.d.mu.Lock()
	if frozen := ff.d.frozen; frozen != nil {
		ff.d.blocked++
		ff.d.mu.Unlock()
		<-frozen
		ff.d.mu.Lock()
		ff.d.blocked--
	}
	if ff.d.crashed {
		ff.d.mu.Unlock()
		return ErrDiskGone
	}
	if ff.d.failFsync {
		ff.d.syncFails++
		ff.d.mu.Unlock()
		return ErrFsyncFault
	}
	size := ff.size
	ff.d.mu.Unlock()
	if err := ff.f.Sync(); err != nil {
		return err
	}
	ff.d.mu.Lock()
	defer ff.d.mu.Unlock()
	ff.d.synced[ff.name] = size
	return nil
}

func (ff *faultFile) Close() error {
	if ff.d.gone() {
		// Close the real handle anyway so the harness does not leak
		// file descriptors, but report the disk as gone.
		ff.f.Close()
		return ErrDiskGone
	}
	return ff.f.Close()
}
