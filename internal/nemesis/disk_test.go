package nemesis

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
)

func diskVer(p model.ProcID, ctr uint64) model.Version {
	return model.Version{Date: model.VPID{N: 1, P: p}, Ctr: ctr}
}

// TestDiskFaultsTornWrite arms a torn write under a live journal, lets
// the flush fail mid-append, and verifies a clean reopen repairs the
// torn tail and keeps exactly the records that were fully flushed.
func TestDiskFaultsTornWrite(t *testing.T) {
	dir := t.TempDir()
	faults := NewDiskFaults(nil)
	_, j, err := durable.OpenOptions(dir, durable.Options{FS: faults})
	if err != nil {
		t.Fatal(err)
	}
	j.Apply("x", 1, diskVer(1, 1))
	if err := j.Sync(); err != nil {
		t.Fatalf("clean sync: %v", err)
	}

	// Tear the next write a few bytes in: the frame for x=2 must not
	// survive, and the journal must report itself dead.
	faults.TearNextWrite(3)
	j.Apply("x", 2, diskVer(1, 2))
	if err := j.Sync(); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn sync error = %v, want ErrTornWrite", err)
	}
	if err := j.Err(); err == nil {
		t.Fatal("journal not sticky-failed after torn write")
	}
	if got := faults.TornWrites(); got != 1 {
		t.Fatalf("TornWrites = %d, want 1", got)
	}
	j.HardCrash()

	st, j2, err := durable.Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer j2.Close()
	rs := j2.Recovery()
	if !rs.Torn || rs.TornBytes == 0 {
		t.Fatalf("recovery stats = %+v, want repaired torn tail", rs)
	}
	c, ok := st.Copies["x"]
	if !ok || c.Val != 1 {
		t.Fatalf("recovered x = %+v, want the pre-tear value 1", c)
	}
}

// TestDiskFaultsFsync verifies fsync failures surface through Sync,
// stick, and stop counting as durability.
func TestDiskFaultsFsync(t *testing.T) {
	dir := t.TempDir()
	faults := NewDiskFaults(nil)
	_, j, err := durable.OpenOptions(dir, durable.Options{FS: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer j.HardCrash()
	faults.FailFsync(true)
	j.Apply("x", 1, diskVer(1, 1))
	if err := j.Sync(); !errors.Is(err, ErrFsyncFault) {
		t.Fatalf("sync under fsync fault = %v, want ErrFsyncFault", err)
	}
	if faults.FsyncFailures() == 0 {
		t.Fatal("no fsync failures counted")
	}
	faults.FailFsync(false)
	if err := j.Sync(); err == nil {
		t.Fatal("journal recovered from a failed fsync; must stay dead")
	}
}

// TestDiskFaultsCrash freezes the disk mid-run and verifies nothing
// after the crash instant reaches the directory, while everything
// synced before it is recovered.
func TestDiskFaultsCrash(t *testing.T) {
	dir := t.TempDir()
	faults := NewDiskFaults(nil)
	_, j, err := durable.OpenOptions(dir, durable.Options{FS: faults})
	if err != nil {
		t.Fatal(err)
	}
	j.Apply("x", 7, diskVer(1, 1))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	faults.Crash()
	j.Apply("x", 8, diskVer(1, 2))
	if err := j.Sync(); !errors.Is(err, ErrDiskGone) {
		t.Fatalf("sync after crash = %v, want ErrDiskGone", err)
	}
	j.HardCrash()

	st, j2, err := durable.Open(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer j2.Close()
	if c := st.Copies["x"]; c.Val != 7 {
		t.Fatalf("recovered x = %+v, want the pre-crash value 7", c)
	}
}

// TestDiskFaultsLoseOnlyUnsynced holds LoseUnsynced to the crash model:
// the bytes a completed fsync covered always survive, and the bytes
// after the last sync may be lost. At the journal level, a record whose
// barrier flushed survives every seed. It runs over the real filesystem
// and over the memory one.
func TestDiskFaultsLoseOnlyUnsynced(t *testing.T) {
	for _, tc := range []struct {
		name string
		disk func() durable.VFS
	}{
		{"os", durable.OS},
		{"memory", durable.Memory},
	} {
		t.Run(tc.name, func(t *testing.T) { loseOnlyUnsynced(t, tc.disk) })
	}
}

func loseOnlyUnsynced(t *testing.T, newDisk func() durable.VFS) {
	const synced, unsynced = "synced|", "written, never synced"
	lostSome, keptSome := false, false
	for seed := int64(0); seed < 20; seed++ {
		inner := newDisk()
		d := NewDiskFaults(inner)
		dir := t.TempDir()
		if err := inner.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, "f")
		f, err := d.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte(synced))
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Write([]byte(unsynced))
		d.Crash()
		lost, err := d.LoseUnsynced(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		data, err := inner.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(synced)) || int64(len(data)) != int64(len(synced+unsynced))-lost {
			t.Fatalf("seed %d: %d bytes lost left %q", seed, lost, data)
		}
		lostSome = lostSome || lost > 0
		keptSome = keptSome || len(data) > len(synced)
	}
	if !lostSome || !keptSome {
		t.Fatalf("20 seeds: unsynced bytes lost=%v kept=%v, want both", lostSome, keptSome)
	}

	for seed := int64(0); seed < 20; seed++ {
		dir := t.TempDir()
		inner := newDisk()
		d := NewDiskFaults(inner)
		_, j, err := durable.OpenOptions(dir, durable.Options{FS: d})
		if err != nil {
			t.Fatal(err)
		}
		j.Apply("x", 1, diskVer(1, 1))
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		// The next batch reaches the file, but its fsync fails.
		d.FailFsync(true)
		j.Apply("x", 2, diskVer(1, 2))
		if err := j.Sync(); !errors.Is(err, ErrFsyncFault) {
			t.Fatalf("sync = %v, want ErrFsyncFault", err)
		}
		d.Crash()
		j.HardCrash()
		if _, err := d.LoseUnsynced(rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		st, j2, err := durable.OpenOptions(dir, durable.Options{FS: inner})
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		j2.Close()
		if c := st.Copies["x"]; c.Val != 1 && c.Val != 2 {
			t.Fatalf("seed %d: recovered x = %+v, lost the synced write", seed, c)
		}
	}
}
