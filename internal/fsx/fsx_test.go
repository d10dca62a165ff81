package fsx

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func writeThrough(t *testing.T, fs FS, path string, data []byte) error {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fs := OS{}
	path := filepath.Join(dir, "a.txt")
	if err := writeThrough(t, fs, path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile: %q, %v", b, err)
	}
	if err := fs.Rename(path, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	matches, err := Glob(fs, filepath.Join(dir, "*.txt"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("Glob: %v, %v", matches, err)
	}
	if fi, err := fs.Stat(matches[0]); err != nil || fi.Size() != 5 {
		t.Fatalf("Stat: %v, %v", fi, err)
	}
	if err := fs.Truncate(matches[0], 2); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(matches[0]); err != nil {
		t.Fatal(err)
	}
	// Glob on a missing directory is empty, not an error (mirrors the
	// store opening a fresh dir).
	if m, err := Glob(fs, filepath.Join(dir, "nope", "*.x")); err != nil || m != nil {
		t.Fatalf("Glob on missing dir: %v, %v", m, err)
	}
}

func TestFaultyNthSync(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaulty(OS{}, 1, Rule{Op: OpSync, Nth: 2})
	if err := writeThrough(t, fs, filepath.Join(dir, "a"), []byte("x")); err != nil {
		t.Fatalf("first sync should pass: %v", err)
	}
	err := writeThrough(t, fs, filepath.Join(dir, "b"), []byte("y"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("second sync: want ErrInjected, got %v", err)
	}
	// Nth rules fire once; the third sync passes again.
	if err := writeThrough(t, fs, filepath.Join(dir, "c"), []byte("z")); err != nil {
		t.Fatalf("third sync should pass: %v", err)
	}
	if fs.Injected() != 1 || fs.Count(OpSync) != 3 {
		t.Fatalf("injected=%d syncs=%d, want 1/3", fs.Injected(), fs.Count(OpSync))
	}
}

func TestFaultyShortWriteAndENOSPC(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaulty(OS{}, 1,
		Rule{Op: OpWrite, Nth: 1, Kind: ShortWrite},
		Rule{Op: OpWrite, Nth: 2, Err: syscall.ENOSPC})
	path := filepath.Join(dir, "torn")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if n != 5 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: n=%d err=%v, want 5/ErrInjected", n, err)
	}
	if _, err := f.Write([]byte("abc")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	f.Close()
	b, _ := os.ReadFile(path)
	if string(b) != "01234" {
		t.Fatalf("on-disk contents %q, want the torn prefix", b)
	}
}

func TestFaultyBitFlipDeterministic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	orig := bytes.Repeat([]byte{0xAA}, 64)
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	read := func(seed int64) []byte {
		fs := NewFaulty(OS{}, seed, Rule{Op: OpRead, Nth: 1, Kind: BitFlip})
		b, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := read(7), read(7)
	if bytes.Equal(a, orig) {
		t.Fatal("bit flip did not corrupt the read")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	if c := read(8); bytes.Equal(a, c) {
		t.Log("different seeds flipped the same bit (unlikely but legal)")
	}
}

func TestFaultyCrashPoisonsEverything(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaulty(OS{}, 1, Rule{Op: OpRename, Nth: 1, Crash: true})
	path := filepath.Join(dir, "f")
	if err := writeThrough(t, fs, path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(path, path+".new"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename: want ErrInjected, got %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("FS not crashed after Crash rule")
	}
	// Every operation on the dead FS fails, including on open files.
	if _, err := fs.ReadFile(path); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ReadFile after crash: %v", err)
	}
	if _, err := fs.OpenFile(path, os.O_RDONLY, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("OpenFile after crash: %v", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("SyncDir after crash: %v", err)
	}
	// The rename never happened: oldpath intact, newpath absent.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("source gone after failed rename: %v", err)
	}
	if _, err := os.Stat(path + ".new"); !os.IsNotExist(err) {
		t.Fatalf("destination exists after failed rename: %v", err)
	}
}

func TestFaultyCrashAfterRename(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaulty(OS{}, 1, Rule{Op: OpRename, Nth: 1, After: true, Crash: true})
	path := filepath.Join(dir, "f")
	if err := writeThrough(t, fs, path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(path, path+".new"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename: want ErrInjected, got %v", err)
	}
	// The rename DID land before the crash.
	if _, err := os.Stat(path + ".new"); err != nil {
		t.Fatalf("destination missing after crash-after rename: %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("FS not crashed")
	}
}

func TestFaultyFsyncgateShape(t *testing.T) {
	// fail-after on sync: the data may be durable, the caller is told it
	// is not, and nothing is crashed — the store must poison itself.
	dir := t.TempDir()
	fs := NewFaulty(OS{}, 1, Rule{Op: OpSync, Nth: 1, After: true})
	err := writeThrough(t, fs, filepath.Join(dir, "f"), []byte("x"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected from fail-after sync, got %v", err)
	}
	if fs.Crashed() {
		t.Fatal("fail-after should not crash the FS")
	}
	if b, _ := os.ReadFile(filepath.Join(dir, "f")); string(b) != "x" {
		t.Fatalf("contents %q: the op should have completed", b)
	}
}

func TestFaultyRateSeeded(t *testing.T) {
	fire := func(seed int64) int {
		dir := t.TempDir()
		fs := NewFaulty(OS{}, seed, Rule{Op: OpSync, Rate: 0.5})
		n := 0
		for i := 0; i < 40; i++ {
			if err := writeThrough(t, fs, filepath.Join(dir, "f"), []byte("x")); err != nil {
				n++
			}
		}
		return n
	}
	a, b := fire(3), fire(3)
	if a != b {
		t.Fatalf("same seed fired %d then %d faults", a, b)
	}
	if a == 0 || a == 40 {
		t.Fatalf("rate 0.5 fired %d/40 times", a)
	}
}

func TestFaultyPathFilter(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaulty(OS{}, 1, Rule{Op: OpSync, Nth: 1, Path: "wal"})
	if err := writeThrough(t, fs, filepath.Join(dir, "snap.ann"), []byte("x")); err != nil {
		t.Fatalf("non-matching path failed: %v", err)
	}
	err := writeThrough(t, fs, filepath.Join(dir, "wal-001.log"), []byte("x"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("matching path: want ErrInjected, got %v", err)
	}
}

func TestParseFaults(t *testing.T) {
	rules, err := ParseFaults("sync:fail@3, write:enospc@5, read:bitflip@2, rename:crash/MANIFEST, sync:fail~0.01, sync:fail-after@7, open:crash-after@2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Op: OpSync, Nth: 3},
		{Op: OpWrite, Nth: 5, Err: syscall.ENOSPC},
		{Op: OpRead, Nth: 2, Kind: BitFlip},
		{Op: OpRename, Nth: 1, Crash: true, Path: "MANIFEST"},
		{Op: OpSync, Rate: 0.01},
		{Op: OpSync, Nth: 7, After: true},
		{Op: OpOpen, Nth: 2, After: true, Crash: true},
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d: got %+v, want %+v", i, rules[i], want[i])
		}
	}
	for _, bad := range []string{"sync", "zap:fail", "sync:zap", "sync:fail@0", "sync:fail~2", "sync:fail@x"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q): want error", bad)
		}
	}
}

// TestWriteAtomic: the published file is the old content or the new,
// whichever single operation dies; the sequence is open, write, sync,
// rename, syncdir, once each; and the returned checksum covers exactly
// the bytes written.
func TestWriteAtomic(t *testing.T) {
	oldContent, newContent := []byte("old"), []byte("new content")
	for _, c := range []struct {
		op      Op
		wantNew bool // the rename happened before the death
	}{{OpOpen, false}, {OpWrite, false}, {OpSync, false}, {OpRename, false}, {OpSyncDir, true}} {
		path := filepath.Join(t.TempDir(), "f.json")
		if err := os.WriteFile(path, oldContent, 0o644); err != nil {
			t.Fatal(err)
		}
		fs := NewFaulty(OS{}, 1, Rule{Op: c.op, Nth: 1, Crash: true})
		if _, _, err := WriteFileAtomic(fs, path, newContent); err == nil {
			t.Fatalf("death at %v not reported", c.op)
		}
		want := oldContent
		if c.wantNew {
			want = newContent
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("death at %v left %q, want %q", c.op, got, want)
		}
	}

	path := filepath.Join(t.TempDir(), "f.json")
	fs := NewFaulty(OS{}, 1)
	crc, n, err := WriteAtomic(fs, path, func(w io.Writer) error {
		for _, b := range newContent { // many small writes reach the file as one
			if _, err := w.Write([]byte{b}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || n != int64(len(newContent)) || crc != crc32.Checksum(newContent, crc32.MakeTable(crc32.Castagnoli)) {
		t.Fatalf("WriteAtomic = crc %08x, %d bytes, %v", crc, n, err)
	}
	for _, op := range []Op{OpOpen, OpWrite, OpSync, OpRename, OpSyncDir} {
		if got := fs.Count(op); got != 1 {
			t.Errorf("%v issued %d times, want once", op, got)
		}
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, newContent) {
		t.Fatalf("published %q", got)
	}

	// A failing producer publishes nothing and leaves no temp behind.
	boom := errors.New("boom")
	if _, _, err := WriteAtomic(OS{}, path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("producer error = %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, newContent) {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}
