package journal_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"analogacc/internal/journal"
	"analogacc/internal/journal/journaltest"
)

// TestDamageTable is the shared fault-injection table run against the
// bare journal: every truncation and every single-byte flip of a
// 4-record file either replays exactly the records before a torn tail or
// fails Open naming the file and leaving its bytes unchanged.
func TestDamageTable(t *testing.T) {
	const magic = "TESTJRN1"
	path := filepath.Join(t.TempDir(), "j")
	var all [][]byte
	for i := 0; i < 4; i++ {
		all = append(all, []byte(fmt.Sprintf(`{"record":%d}`, i)))
	}
	open := func() (*journal.Journal, [][]byte, error) {
		var got [][]byte
		j, _, err := journal.Open(path, magic, func(rec []byte) error {
			got = append(got, bytes.Clone(rec))
			return nil
		})
		return j, got, err
	}
	j, _, err := open()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(all[:2]); err != nil {
		t.Fatal(err)
	}
	for _, rec := range all[2:] {
		if err := j.Append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	journaltest.Run(t, path, raw, len(magic), func(t *testing.T, intact int) error {
		_, got, err := open()
		if err != nil {
			return err
		}
		if len(got) != intact {
			t.Fatalf("replayed %d records, want the %d before the damage", len(got), intact)
		}
		for i := range got {
			if !bytes.Equal(got[i], all[i]) {
				t.Fatalf("record %d replayed as %q", i, got[i])
			}
		}
		return nil
	})
}
