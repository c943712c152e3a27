package nemesis

import (
	"errors"
	"sync"

	"github.com/virtualpartitions/vp/internal/durable"
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
}

// NewDiskFaults wraps inner (durable.OS() if nil) with no faults armed.
func NewDiskFaults(inner durable.VFS) *DiskFaults {
	if inner == nil {
		inner = durable.OS()
	}
	return &DiskFaults{inner: inner, tearKeep: -1}
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
	return &faultFile{d: d, f: f}, nil
}

func (d *DiskFaults) OpenAppend(name string) (durable.File, error) {
	if d.gone() {
		return nil, ErrDiskGone
	}
	f, err := d.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{d: d, f: f}, nil
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

// faultFile applies the parent's armed faults at write/sync time.
type faultFile struct {
	d *DiskFaults
	f durable.File
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
	if keep < 0 {
		return ff.f.Write(p)
	}
	if keep > len(p) {
		keep = len(p)
	}
	n, err := ff.f.Write(p[:keep])
	if err != nil {
		return n, err
	}
	return n, ErrTornWrite
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
	ff.d.mu.Unlock()
	return ff.f.Sync()
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
