package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const testMagic = "TESTJRN1"

// collect opens path and returns every replayed record.
func collect(path string) (*Journal, [][]byte, int, error) {
	var recs [][]byte
	j, torn, err := Open(path, testMagic, func(rec []byte) error {
		recs = append(recs, bytes.Clone(rec))
		return nil
	})
	return j, recs, torn, err
}

// writeJournal compacts recs into a fresh journal at path, appends more,
// and returns the file's bytes.
func writeJournal(t *testing.T, path string, recs, more [][]byte) []byte {
	t.Helper()
	j, _, _, err := collect(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(recs); err != nil {
		t.Fatal(err)
	}
	for _, r := range more {
		if err := j.Append(r, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func records(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"record":%d,"pad":"%s"}`, i, strings.Repeat("x", i)))
	}
	return out
}

func TestMissingFileIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, recs, torn, err := collect(path)
	if err != nil || len(recs) != 0 || torn != 0 {
		t.Fatalf("missing file: recs=%d torn=%d err=%v", len(recs), torn, err)
	}
	if err := j.Append([]byte("x"), false); err == nil {
		t.Fatal("append before the first Compact succeeded")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Open created the file")
	}
}

// TestRoundTrip compacts, appends with and without fsync, and replays
// every record in order with matching Stats.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	all := records(5)
	j, _, _, err := collect(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(all[:2]); err != nil {
		t.Fatal(err)
	}
	for i, r := range all[2:] {
		if err := j.Append(r, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	recs, size := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs != 5 || size != fi.Size() {
		t.Fatalf("Stats = %d records / %d bytes, file holds 5 / %d", recs, size, fi.Size())
	}
	_, got, torn, err := collect(path)
	if err != nil || torn != 0 {
		t.Fatalf("replay: torn=%d err=%v", torn, err)
	}
	if len(got) != len(all) {
		t.Fatalf("replayed %d records, want %d", len(got), len(all))
	}
	for i := range all {
		if !bytes.Equal(got[i], all[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], all[i])
		}
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("compaction left its tmp file behind")
	}
}

// TestDamageVerdicts pins which geometry is a torn tail and which stops
// the boot, and that the boot error locates the damage.
func TestDamageVerdicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	raw := writeJournal(t, path, records(2), nil)
	second := len(testMagic) + 8 + len(records(2)[0])
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		torn   int
		errHas string
	}{
		{"empty file", func([]byte) []byte { return nil }, 1, ""},
		{"torn magic", func(b []byte) []byte { return b[:3] }, 1, ""},
		{"torn header", func(b []byte) []byte { return b[:second+5] }, 1, ""},
		{"torn payload", func(b []byte) []byte { return b[:len(b)-1] }, 1, ""},
		{"foreign magic", func(b []byte) []byte { b[0] = 'X'; return b }, 0, "bad magic"},
		{"short foreign file", func([]byte) []byte { return []byte("hey") }, 0, "bad magic"},
		{"flipped crc", func(b []byte) []byte { b[second+4] ^= 1; return b }, 0, "record 1 (offset " + fmt.Sprint(second) + "): checksum mismatch"},
		{"huge length", func(b []byte) []byte { b[second+3] = 0xff; return b }, 0, "implausible length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(bytes.Clone(raw))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, torn, err := collect(path)
			if tc.errHas == "" {
				if err != nil || torn != tc.torn {
					t.Fatalf("torn=%d err=%v, want torn=%d", torn, err, tc.torn)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.errHas) || !strings.Contains(err.Error(), path) ||
				!strings.Contains(err.Error(), "move it aside") {
				t.Fatalf("err = %v, want one naming %s and containing %q", err, path, tc.errHas)
			}
		})
	}
}

// TestDecodeErrorStopsBoot: a record with a valid checksum that the
// caller cannot decode is corruption, not a record to skip.
func TestDecodeErrorStopsBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeJournal(t, path, records(3), nil)
	_, _, err := Open(path, testMagic, func(rec []byte) error {
		if bytes.Contains(rec, []byte(`"record":1`)) {
			return errors.New("bad operator")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "record 1") || !strings.Contains(err.Error(), "bad operator") {
		t.Fatalf("err = %v, want an undecodable record 1", err)
	}
}

// TestCompactReopenFailureClosesForGood fails the reopen that follows
// the rename: the journal must refuse every later append (the old handle
// points at an orphaned inode) while the compacted file stays intact.
func TestCompactReopenFailureClosesForGood(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, _, err := collect(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(records(1)); err != nil {
		t.Fatal(err)
	}
	defer func(orig func(string) (*os.File, error)) { openAppend = orig }(openAppend)
	openAppend = func(string) (*os.File, error) { return nil, errors.New("injected reopen failure") }
	if err := j.Compact(records(2)); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Compact = %v, want the reopen failure", err)
	}
	if err := j.Append([]byte("lost"), true); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("append after a failed reopen = %v, want a closed journal", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, torn, err := collect(path)
	if err != nil || torn != 0 || len(got) != 2 {
		t.Fatalf("compacted file: %d records torn=%d err=%v, want the 2 compacted records", len(got), torn, err)
	}
}

// TestAppendRejectsOversizedRecord: Append enforces the bound Open
// applies, so every acknowledged record replays.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, _, err := collect(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(nil); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	big := make([]byte, MaxRecord+1)
	if err := j.Append(big, false); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append = %v, want ErrTooLarge", err)
	}
	if err := j.Compact([][]byte{big}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized compaction = %v, want ErrTooLarge", err)
	}
	if recs, size := j.Stats(); recs != 0 || size != int64(len(testMagic)) {
		t.Fatalf("rejected records changed Stats: %d / %d", recs, size)
	}
	if err := j.Append([]byte("ok"), false); err != nil {
		t.Fatalf("append after a rejected one: %v", err)
	}
}

// FuzzJournalOpen feeds arbitrary bytes to the one reader. It must never
// panic, and an N-byte file must never make it allocate more than O(N):
// a length prefix is checked against the bytes left before anything is
// sized by it.
func FuzzJournalOpen(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "j")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := 0
		_, _, err := Open(path, testMagic, func(rec []byte) error {
			n++
			if bytes.HasPrefix(rec, []byte("bad")) {
				return errors.New("undecodable")
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil && !strings.Contains(err.Error(), path) {
			t.Fatalf("error does not name the file: %v", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(4*len(data))+1<<20 {
			t.Fatalf("a %d-byte file allocated %d bytes", len(data), alloc)
		}
	})
}
