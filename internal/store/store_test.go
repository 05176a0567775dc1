package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDeleteList(t *testing.T) {
	s := open(t)
	if err := s.Put("models", "mdl_1", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("models", "mdl_2", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("jobs", "job_1", nil); err != nil { // empty payload is legal
		t.Fatal(err)
	}

	got, err := s.Get("models", "mdl_1")
	if err != nil || string(got) != "alpha" {
		t.Fatalf("get: %q, %v", got, err)
	}
	if got, err = s.Get("jobs", "job_1"); err != nil || len(got) != 0 {
		t.Fatalf("empty get: %q, %v", got, err)
	}

	ids, err := s.List("models")
	if err != nil || len(ids) != 2 || ids[0] != "mdl_1" || ids[1] != "mdl_2" {
		t.Fatalf("list: %v, %v", ids, err)
	}
	if ids, err = s.List("nonexistent"); err != nil || len(ids) != 0 {
		t.Fatalf("empty bucket list: %v, %v", ids, err)
	}

	// Overwrite replaces atomically.
	if err := s.Put("models", "mdl_1", []byte("alpha-v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("models", "mdl_1"); string(got) != "alpha-v2" {
		t.Fatalf("overwrite lost: %q", got)
	}

	if err := s.Delete("models", "mdl_1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("models", "mdl_1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after delete, got %v", err)
	}
	if err := s.Delete("models", "mdl_1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: want ErrNotFound, got %v", err)
	}
	if _, err := s.Get("models", "never"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get: want ErrNotFound, got %v", err)
	}
}

// TestModTime pins that blob age is local write time (ordering across
// restarts keys on it) and that missing blobs answer ErrNotFound.
func TestModTime(t *testing.T) {
	s := open(t)
	before := time.Now().Add(-time.Second)
	if err := s.Put("models", "mdl_t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	mt, err := s.ModTime("models", "mdl_t")
	if err != nil {
		t.Fatal(err)
	}
	if mt.Before(before) || mt.After(time.Now().Add(time.Second)) {
		t.Fatalf("mtime %v not near now", mt)
	}
	if _, err := s.ModTime("models", "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing ModTime: %v", err)
	}
}

// TestCorruptionDetected flips one payload byte on disk and expects a
// *CorruptError, never the damaged bytes.
func TestCorruptionDetected(t *testing.T) {
	s := open(t)
	if err := s.Put("models", "mdl_x", bytes.Repeat([]byte("payload"), 100)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "models", "mdl_x.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := s.Get("models", "mdl_x"); !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}

	// Truncation below the envelope header is corruption too.
	if err := os.WriteFile(path, data[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("models", "mdl_x"); !errors.As(err, &ce) {
		t.Fatalf("truncated: want *CorruptError, got %v", err)
	}
}

// TestOpenSweepsTempDebris plants a fake in-flight temp file and expects
// Open to remove it without touching real blobs.
func TestOpenSweepsTempDebris(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("jobs", "job_keep", []byte("x")); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(dir, "jobs", tmpPrefix+"job_dead-12345")
	if err := os.WriteFile(debris, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("temp debris survived Open")
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get("jobs", "job_keep"); err != nil || string(got) != "x" {
		t.Fatalf("real blob lost in sweep: %q, %v", got, err)
	}
	if ids, _ := s2.List("jobs"); len(ids) != 1 {
		t.Fatalf("list sees debris or lost blobs: %v", ids)
	}
}

// TestHostileNamesRejected pins the name validation at the trust boundary.
func TestHostileNamesRejected(t *testing.T) {
	s := open(t)
	for _, name := range []string{"", "..", "../evil", "a/b", ".hidden", "a\x00b", "nul\nbyte"} {
		if err := s.Put("models", name, []byte("x")); err == nil {
			t.Errorf("Put accepted hostile id %q", name)
		}
		if _, err := s.Get(name, "ok"); err == nil {
			t.Errorf("Get accepted hostile bucket %q", name)
		}
	}
}

// TestConcurrentPuts hammers one id and several distinct ids from many
// goroutines: every read afterwards must see one complete value.
func TestConcurrentPuts(t *testing.T) {
	s := open(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + g)}, 1024)
			for i := 0; i < 20; i++ {
				if err := s.Put("models", "shared", payload); err != nil {
					t.Error(err)
					return
				}
				if err := s.Put("models", "own_"+string(rune('a'+g)), payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got, err := s.Get("models", "shared")
	if err != nil || len(got) != 1024 {
		t.Fatalf("shared blob: %d bytes, %v", len(got), err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("shared blob interleaved two writers")
		}
	}
}

// TestWriteFileAtomic: the parts land in order with the requested mode and
// replace the previous file; a write that cannot publish (the path is a
// directory) fails, leaves the directory as it was and removes its temp
// file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, ".w-*", 0o644, []byte("new "), nil, []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new bytes" {
		t.Fatalf("read %q, %v; want %q", got, err, "new bytes")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, %v; want 0644", fi.Mode().Perm(), err)
	}

	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(sub, ".w-*", 0o644, []byte("x")); err == nil {
		t.Fatal("WriteFileAtomic onto a directory succeeded")
	}
	if fi, err := os.Stat(sub); err != nil || !fi.IsDir() {
		t.Fatalf("directory damaged: %v", err)
	}
	if debris, _ := filepath.Glob(filepath.Join(dir, ".w-*")); len(debris) != 0 {
		t.Fatalf("failed write left temp files %v", debris)
	}
}
