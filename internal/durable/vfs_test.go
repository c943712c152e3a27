package durable

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestVFSContract runs the operations FileJournal uses against the real
// filesystem and the memory one, and expects the same result from both
// at every step.
func TestVFSContract(t *testing.T) {
	type disk struct {
		fs   VFS
		root string
	}
	at := func(d disk, name string) string { return filepath.Join(d.root, name) }
	// outcome reduces an error to what FileJournal tells apart.
	outcome := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case IsNotExist(err):
			return "not-exist"
		}
		return "error"
	}
	write := func(f File, err error, data string) string {
		if err != nil {
			return outcome(err)
		}
		_, werr := f.Write([]byte(data))
		return fmt.Sprintf("%s %s %s", outcome(werr), outcome(f.Sync()), outcome(f.Close()))
	}
	read := func(d disk, name string) string {
		data, err := d.fs.ReadFile(at(d, name))
		return fmt.Sprintf("%q %s", data, outcome(err))
	}
	list := func(d disk, dir string) string {
		names, err := d.fs.ReadDir(at(d, dir))
		return fmt.Sprint(names, " ", outcome(err))
	}
	size := func(d disk, name string) string {
		n, err := d.fs.Size(at(d, name))
		return fmt.Sprint(n, " ", outcome(err))
	}
	steps := []struct {
		name string
		do   func(d disk) string
	}{
		{"MkdirAll makes parents", func(d disk) string { return outcome(d.fs.MkdirAll(at(d, "a/b"))) }},
		{"MkdirAll again", func(d disk) string { return outcome(d.fs.MkdirAll(at(d, "a"))) }},
		{"Create writes", func(d disk) string {
			f, err := d.fs.Create(at(d, "a/f"))
			return write(f, err, "hello") + " " + read(d, "a/f")
		}},
		{"Create truncates", func(d disk) string {
			f, err := d.fs.Create(at(d, "a/f"))
			return write(f, err, "x") + " " + read(d, "a/f")
		}},
		{"OpenAppend appends", func(d disk) string {
			f, err := d.fs.OpenAppend(at(d, "a/f"))
			return write(f, err, "yz") + " " + read(d, "a/f")
		}},
		{"OpenAppend creates", func(d disk) string {
			f, err := d.fs.OpenAppend(at(d, "a/g"))
			return write(f, err, "g") + " " + read(d, "a/g")
		}},
		{"ReadDir sorted", func(d disk) string { return list(d, "a") }},
		{"ReadDir per directory", func(d disk) string { return list(d, "a/b") + " " + list(d, ".") }},
		{"Rename replaces", func(d disk) string {
			return outcome(d.fs.Rename(at(d, "a/g"), at(d, "a/f"))) + " " + read(d, "a/f") + " " + read(d, "a/g")
		}},
		{"a handle follows Rename", func(d disk) string {
			f, err := d.fs.Create(at(d, "a/h"))
			if err != nil {
				return outcome(err)
			}
			rerr := d.fs.Rename(at(d, "a/h"), at(d, "a/k"))
			return outcome(rerr) + " " + write(f, nil, "k") + " " + read(d, "a/k")
		}},
		{"Truncate and Size", func(d disk) string {
			f, err := d.fs.OpenAppend(at(d, "a/f"))
			w := write(f, err, "hij")
			before := size(d, "a/f")
			terr := d.fs.Truncate(at(d, "a/f"), 2)
			return w + " " + before + " " + outcome(terr) + " " + size(d, "a/f") + " " + read(d, "a/f")
		}},
		{"Remove", func(d disk) string { return outcome(d.fs.Remove(at(d, "a/k"))) + " " + list(d, "a") }},
		{"missing file", func(d disk) string {
			_, cerr := d.fs.Create(at(d, "nodir/f"))
			_, aerr := d.fs.OpenAppend(at(d, "nodir/f"))
			return fmt.Sprintf("%s, %s, %s, %s %s %s %s %s", read(d, "a/nope"), size(d, "a/nope"), list(d, "nodir"),
				outcome(d.fs.Truncate(at(d, "a/nope"), 0)), outcome(d.fs.Remove(at(d, "a/nope"))),
				outcome(d.fs.Rename(at(d, "a/nope"), at(d, "a/f"))), outcome(cerr), outcome(aerr))
		}},
	}
	memDisk := disk{Memory(), "/vfs"}
	osDisk := disk{OS(), t.TempDir()}
	for _, d := range []disk{memDisk, osDisk} {
		if err := d.fs.MkdirAll(d.root); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range steps {
		want, got := s.do(osDisk), s.do(memDisk)
		if got != want {
			t.Errorf("%s: memory %s, want %s", s.name, got, want)
		}
	}
}
