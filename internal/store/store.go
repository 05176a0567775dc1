// Package store is a crash-safe on-disk blob store: flat buckets of
// checksummed, atomically-written files. It is the durability layer under
// genclusd's -data-dir — model snapshots and finished-job records go
// through it — but it knows nothing about jobs or models; it stores bytes.
//
// The durability contract, in order of the failure it defends against:
//
//   - torn writes: every Put writes to a hidden temp file in the same
//     directory, fsyncs it, then renames it over the final name and fsyncs
//     the directory — a crash at any point leaves either the old bytes or
//     the new bytes, never a mix;
//   - silent corruption: every blob is wrapped in an envelope carrying its
//     length and CRC-32C; Get verifies both and reports a *CorruptError
//     (errors.As-distinguishable from ErrNotFound) instead of returning
//     damaged bytes;
//   - crash debris: Open sweeps leftover temp files out of every bucket, so
//     an interrupted Put cannot accumulate garbage or be mistaken for data.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// envelope layout: magic (4) | version uint16 LE | reserved uint16 LE |
// payload length uint64 LE | payload CRC-32C uint32 LE | payload bytes.
const (
	envMagic   = "GCBL"
	envVersion = 1
	envHeader  = 4 + 2 + 2 + 8 + 4
	// ext is the on-disk suffix of every blob file; List strips it.
	ext = ".bin"
	// tmpPrefix marks in-flight writes; Open removes leftovers.
	tmpPrefix = ".tmp-"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNotFound reports a Get or Delete of an id with no stored blob.
var ErrNotFound = errors.New("store: not found")

// CorruptError reports a blob whose envelope failed validation — bad magic,
// impossible length, or checksum mismatch. The blob's bytes are never
// returned; callers decide whether to skip (recovery) or surface (serving).
type CorruptError struct {
	Path   string // the damaged file
	Reason string // what failed
}

// Error implements the error interface.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %s: %s", e.Path, e.Reason)
}

// Store is a directory of buckets of checksummed blobs. Methods are safe
// for concurrent use: distinct ids are fully independent, and concurrent
// writes to the same id serialize on the final atomic rename (last writer
// wins with a complete blob).
type Store struct {
	dir string
}

// Open initializes a store rooted at dir, creating it if needed and
// sweeping out temp files any earlier crash left behind.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		bucket := filepath.Join(dir, e.Name())
		files, err := os.ReadDir(bucket)
		if err != nil {
			return nil, fmt.Errorf("store: scan %s: %w", bucket, err)
		}
		for _, f := range files {
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				if err := os.Remove(filepath.Join(bucket, f.Name())); err != nil {
					return nil, fmt.Errorf("store: sweep %s: %w", f.Name(), err)
				}
			}
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the root directory the store was opened at.
func (s *Store) Dir() string { return s.dir }

// Put atomically writes the blob under bucket/id, replacing any previous
// value: envelope to a temp file, fsync, rename, fsync the bucket
// directory. When Put returns nil the bytes are on disk; when it returns an
// error (or the process dies mid-call) the previous value, if any, is
// intact.
func (s *Store) Put(bucket, id string, payload []byte) error {
	if err := validName(bucket); err != nil {
		return err
	}
	if err := validName(id); err != nil {
		return err
	}
	bdir := filepath.Join(s.dir, bucket)
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		return fmt.Errorf("store: create bucket %s: %w", bucket, err)
	}

	var hdr [envHeader]byte
	copy(hdr[:4], envMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], envVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(payload, crcTable))
	return WriteFileAtomic(filepath.Join(bdir, id+ext), tmpPrefix+id+"-*", 0o600, hdr[:], payload)
}

// WriteFileAtomic writes parts, in order, as the file at path, so that a
// crash or an error at any point leaves either the previous file or the
// complete new one: a temp file named by pattern (os.CreateTemp) in path's
// directory, write, fsync, close, rename over path, fsync the directory.
// The file gets mode perm. A failed call removes its temp file.
func WriteFileAtomic(path, pattern string, perm os.FileMode, parts ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return fmt.Errorf("store: temp file for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			return fail(fmt.Errorf("store: write %s: %w", path, err))
		}
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail(fmt.Errorf("store: chmod %s: %w", path, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("store: fsync %s: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: publish %s: %w", path, err)
	}
	return syncDir(dir)
}

// Get returns the blob stored under bucket/id, verifying the envelope.
// Missing blobs are ErrNotFound; damaged ones are *CorruptError.
func (s *Store) Get(bucket, id string) ([]byte, error) {
	if err := validName(bucket); err != nil {
		return nil, err
	}
	if err := validName(id); err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, bucket, id+ext)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: read %s/%s: %w", bucket, id, err)
	}
	if len(data) < envHeader {
		return nil, &CorruptError{Path: path, Reason: "shorter than the envelope header"}
	}
	if string(data[:4]) != envMagic {
		return nil, &CorruptError{Path: path, Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != envVersion {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("unsupported envelope version %d", v)}
	}
	payload := data[envHeader:]
	if n := binary.LittleEndian.Uint64(data[8:16]); n != uint64(len(payload)) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("length %d does not match %d payload bytes", n, len(payload))}
	}
	want := binary.LittleEndian.Uint32(data[16:20])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("checksum mismatch: stored %08x, computed %08x", want, got)}
	}
	return payload, nil
}

// Delete removes the blob under bucket/id (ErrNotFound when absent) and
// fsyncs the bucket so the removal survives a crash.
func (s *Store) Delete(bucket, id string) error {
	if err := validName(bucket); err != nil {
		return err
	}
	if err := validName(id); err != nil {
		return err
	}
	bdir := filepath.Join(s.dir, bucket)
	if err := os.Remove(filepath.Join(bdir, id+ext)); err != nil {
		if os.IsNotExist(err) {
			return ErrNotFound
		}
		return fmt.Errorf("store: delete %s/%s: %w", bucket, id, err)
	}
	return syncDir(bdir)
}

// ModTime returns the local modification time of the blob under bucket/id
// — when it was last Put on THIS machine (ErrNotFound when absent).
// Callers that order blobs by age should prefer it over any timestamp
// embedded in the payload, which may have been written elsewhere.
func (s *Store) ModTime(bucket, id string) (time.Time, error) {
	if err := validName(bucket); err != nil {
		return time.Time{}, err
	}
	if err := validName(id); err != nil {
		return time.Time{}, err
	}
	fi, err := os.Stat(filepath.Join(s.dir, bucket, id+ext))
	if err != nil {
		if os.IsNotExist(err) {
			return time.Time{}, ErrNotFound
		}
		return time.Time{}, fmt.Errorf("store: stat %s/%s: %w", bucket, id, err)
	}
	return fi.ModTime(), nil
}

// List returns the ids stored in bucket, sorted. A bucket that was never
// written lists empty.
func (s *Store) List(bucket string) ([]string, error) {
	if err := validName(bucket); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, bucket))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list %s: %w", bucket, err)
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ext) || strings.HasPrefix(name, tmpPrefix) {
			continue
		}
		out = append(out, strings.TrimSuffix(name, ext))
	}
	sort.Strings(out)
	return out, nil
}

// validName restricts bucket and blob names to a filesystem-safe alphabet:
// ids come off the wire (export/import, recovery scans), so a hostile name
// must not be able to escape the store directory or collide with the
// store's own temp files.
func validName(name string) error {
	if name == "" || len(name) > 200 {
		return fmt.Errorf("store: invalid name %q", name)
	}
	if name[0] == '.' {
		return fmt.Errorf("store: invalid name %q", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return fmt.Errorf("store: invalid name %q", name)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed or just-removed entry is
// durable before the caller reports success.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}
