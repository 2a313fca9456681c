package jobs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"analogacc/internal/journal/journaltest"
)

func testConfig(t *testing.T, path string) Config {
	t.Helper()
	return Config{Path: path, LeaseTTL: time.Second, Clock: time.Now}
}

func mustOpen(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func mustSubmit(t *testing.T, q *Queue, tenant string, fp uint64, payload string) *Job {
	t.Helper()
	j, err := q.Submit(tenant, "solve", fp, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestWALRoundTripAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	j1 := mustSubmit(t, q, "a", 1, "p1")
	j2 := mustSubmit(t, q, "b", 2, "p2")
	// Complete j1, leave j2 queued.
	leased := q.Lease("w0")
	if leased == nil || leased.ID != j1.ID {
		t.Fatalf("leased %+v, want %s", leased, j1.ID)
	}
	if err := q.Start(j1.ID, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(j1.ID, "w0", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := mustOpen(t, testConfig(t, path))
	g1, ok := q2.Get(j1.ID)
	if !ok || g1.State != StateDone || string(g1.Result) != "r1" {
		t.Fatalf("j1 after restart: %+v", g1)
	}
	g2, ok := q2.Get(j2.ID)
	if !ok || g2.State != StateQueued || string(g2.Payload) != "p2" {
		t.Fatalf("j2 after restart: %+v", g2)
	}
	if s := q2.Stats(); s.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", s.Replayed)
	}
}

func TestWALTornTailRecordDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	j1 := mustSubmit(t, q, "a", 1, "p1")
	mustSubmit(t, q, "a", 2, "p2")
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last record mid-payload, simulating a
	// crash during an append.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	q2 := mustOpen(t, testConfig(t, path))
	s := q2.Stats()
	if s.TornDropped != 1 {
		t.Fatalf("torn dropped = %d, want 1", s.TornDropped)
	}
	// The first job survives; the second's submit record was the torn
	// tail, so it is gone — an unacknowledged submit, not lost state.
	if _, ok := q2.Get(j1.ID); !ok {
		t.Fatal("first job lost with the torn tail")
	}
	if s.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", s.Replayed)
	}
}

func TestWALChecksumMismatchAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	mustSubmit(t, q, "a", 1, "p1")
	mustSubmit(t, q, "a", 2, "p2")
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the FIRST record's payload: mid-file
	// corruption, not a torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(walMagic)+12] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(testConfig(t, path))
	if err == nil {
		t.Fatal("corrupt journal replayed without error")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("error %q does not name the checksum mismatch", err)
	}
}

func TestWALBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL0 some garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testConfig(t, path)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad-magic journal opened: err=%v", err)
	}
}

func TestWALBootCompactionBoundsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	// Ten full lifecycles = ~40 records.
	for i := 0; i < 10; i++ {
		j := mustSubmit(t, q, "a", uint64(100+i), "p")
		if got := q.Lease("w0"); got == nil || got.ID != j.ID {
			t.Fatalf("lease %d: %+v", i, got)
		}
		if err := q.Start(j.ID, "w0"); err != nil {
			t.Fatal(err)
		}
		if err := q.Complete(j.ID, "w0", []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Reopen compacts: 10 snap records + meta, far fewer bytes than the
	// transition-by-transition history.
	q2 := mustOpen(t, testConfig(t, path))
	if s := q2.Stats(); s.Compactions != 1 || s.Done != 10 {
		t.Fatalf("stats after compaction: %+v", s)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= grown.Size() {
		t.Fatalf("compaction did not shrink the journal: %d → %d bytes", grown.Size(), compacted.Size())
	}

	// And the compacted journal replays identically.
	q3 := mustOpen(t, testConfig(t, path))
	if s := q3.Stats(); s.Done != 10 || s.Queued != 0 {
		t.Fatalf("state after double restart: %+v", s)
	}
}

// TestWALDamageTable runs the shared journal fault-injection table
// through Open: a 3-record journal (meta + two submits) truncated at
// every byte and with every byte flipped must either replay exactly the
// jobs before the damage or fail Open with the file untouched.
func TestWALDamageTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	jobs := []*Job{mustSubmit(t, q, "a", 1, "p1"), mustSubmit(t, q, "b", 2, "p2")}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	journaltest.Run(t, path, raw, len(walMagic), func(t *testing.T, intact int) error {
		q, err := Open(testConfig(t, path))
		if err != nil {
			return err
		}
		defer q.Close()
		want := max(intact-1, 0) // record 0 is the meta record
		if s := q.Stats(); s.Replayed != int64(want) {
			t.Fatalf("replayed %d jobs, want the %d before the damage", s.Replayed, want)
		}
		for _, j := range jobs[:want] {
			if g, ok := q.Get(j.ID); !ok || string(g.Payload) != string(j.Payload) {
				t.Fatalf("job %s replayed as %+v", j.ID, g)
			}
		}
		return nil
	})
}

// TestWALReplaysFormatFixture replays testdata/aladwal1.wal, a journal
// written before the framing moved into internal/journal (transition by
// transition, never compacted): the on-disk format must not change.
func TestWALReplaysFormatFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/aladwal1.wal")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	q := mustOpen(t, testConfig(t, path))
	for _, want := range []Job{
		{ID: "j-00000000", Tenant: "a", Fingerprint: 1, Payload: []byte("p1"), State: StateDone, Attempts: 1, Result: []byte("r1")},
		{ID: "j-00000004", Tenant: "b", Fingerprint: 2, Payload: []byte("p2"), State: StateFailed, Attempts: 1, ErrCode: "bad_request", ErrMsg: "boom"},
		{ID: "j-00000008", Tenant: "a", Fingerprint: 3, Payload: []byte("p3"), State: StateCancelled, ErrCode: "cancelled", ErrMsg: "cancelled before execution"},
		// Leased when the journal was closed: reclaimed to queued.
		{ID: "j-0000000a", Tenant: "b", Fingerprint: 4, Payload: []byte("p4"), State: StateQueued, Attempts: 1},
		{ID: "j-0000000c", Tenant: "a", Fingerprint: 5, Payload: []byte("p5"), State: StateQueued},
	} {
		g, ok := q.Get(want.ID)
		if !ok {
			t.Fatalf("job %s missing from the replayed fixture", want.ID)
		}
		if g.Tenant != want.Tenant || g.Fingerprint != want.Fingerprint || string(g.Payload) != string(want.Payload) || g.State != want.State ||
			g.Attempts != want.Attempts || string(g.Result) != string(want.Result) ||
			g.ErrCode != want.ErrCode || g.ErrMsg != want.ErrMsg {
			t.Fatalf("job %s replayed as %+v, want %+v", want.ID, g, want)
		}
	}
	if s := q.Stats(); s.Replayed != 5 || s.LeaseExpired != 1 || s.TornDropped != 0 {
		t.Fatalf("fixture replay stats: %+v", s)
	}
}
