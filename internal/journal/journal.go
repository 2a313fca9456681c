// Package journal is the one on-disk log format behind alad's durable
// state — the job WAL ("ALADWAL1") and the operator registry journal
// ("ALADOPS1"):
//
//	magic      8 bytes, names the store
//	repeat:
//	  uint32 LE  payload length
//	  uint32 LE  CRC-32 (IEEE) of payload
//	  payload    opaque bytes (both stores write JSON)
//
// Open applies one damage rule. A missing file is an empty journal; a
// strict prefix of the magic, or a file ending inside a record header or
// payload, has a torn tail (an append cut short), which is dropped and
// counted. Anything else — a foreign magic, a length over MaxRecord, a
// checksum mismatch, a record the caller cannot decode — fails Open with
// an error naming the file, the record index and its byte offset, and
// leaves the file untouched: guessing at state is worse than stopping.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// MaxRecord bounds one record's payload. A job payload can carry a full
// request body, so it tracks the serve body cap with slack. Append
// refuses anything larger, so a length prefix beyond it on disk is
// corruption, never a big record.
const MaxRecord = 64 << 20

const headerSize = 8

// ErrTooLarge is returned (wrapped) by Append for a record over
// MaxRecord.
var ErrTooLarge = errors.New("journal: record exceeds the size bound")

// openAppend opens the compacted file for appends; tests swap it to fail
// the reopen that follows a rename.
var openAppend = func(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// Journal is an open log. It is not safe for concurrent use: both stores
// call it under their own lock.
type Journal struct {
	path    string
	magic   string
	f       *os.File // nil until the first Compact, after Close, or after a failed reopen
	err     error    // why f is nil after a failed reopen
	records int64
	bytes   int64
}

// Open reads the journal at path, calling decode on every intact record
// in file order, and returns the journal and the number of torn records
// dropped. The journal accepts appends after its first Compact — every
// store compacts right after replay, so appends never follow a torn
// tail.
func Open(path, magic string, decode func(rec []byte) error) (*Journal, int, error) {
	j := &Journal{path: path, magic: magic}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return j, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if len(raw) < len(magic) && bytes.HasPrefix([]byte(magic), raw) {
		return j, 1, nil // torn while the magic was being written
	}
	if !bytes.HasPrefix(raw, []byte(magic)) {
		head := raw[:min(len(raw), len(magic))]
		return nil, 0, j.corrupt(-1, 0, fmt.Errorf("bad magic %q, want %q", head, magic))
	}
	off := len(magic)
	for i := 0; off < len(raw); i++ {
		left := len(raw) - off
		if left < headerSize {
			return j, 1, nil // torn inside a header
		}
		length := binary.LittleEndian.Uint32(raw[off:])
		sum := binary.LittleEndian.Uint32(raw[off+4:])
		if length > MaxRecord {
			return nil, 0, j.corrupt(i, off, fmt.Errorf("implausible length %d (bound %d)", length, MaxRecord))
		}
		if int64(length) > int64(left-headerSize) {
			return j, 1, nil // torn inside a payload
		}
		payload := raw[off+headerSize : off+headerSize+int(length)]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, 0, j.corrupt(i, off, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", sum, got))
		}
		if err := decode(payload); err != nil {
			return nil, 0, j.corrupt(i, off, fmt.Errorf("undecodable record with a valid checksum: %w", err))
		}
		off += headerSize + int(length)
	}
	return j, 0, nil
}

// corrupt formats a boot-stopping damage report. Record -1 is the magic.
func (j *Journal) corrupt(rec, off int, err error) error {
	where := "magic"
	if rec >= 0 {
		where = fmt.Sprintf("record %d", rec)
	}
	return fmt.Errorf("journal %s: %s (offset %d): %w — refusing to replay; the file is untouched, move it aside to start this store empty",
		j.path, where, off, err)
}

// appendFrame appends rec's frame to dst.
func appendFrame(dst, rec []byte) ([]byte, error) {
	if len(rec) > MaxRecord {
		return dst, fmt.Errorf("%w: %d bytes, bound %d", ErrTooLarge, len(rec), MaxRecord)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(rec))
	return append(dst, rec...), nil
}

// Append writes one record as a single write call, fsyncing when sync
// is set.
func (j *Journal) Append(rec []byte, sync bool) error {
	if j.f == nil {
		if j.err != nil {
			return fmt.Errorf("journal %s is closed: %w", j.path, j.err)
		}
		return fmt.Errorf("journal %s is not open for appends", j.path)
	}
	buf, err := appendFrame(make([]byte, 0, headerSize+len(rec)), rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal %s: append: %w", j.path, err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal %s: fsync: %w", j.path, err)
		}
	}
	j.records++
	j.bytes += int64(len(buf))
	return nil
}

// Compact atomically replaces the journal with recs (tmp → fsync →
// rename → directory fsync) and reopens it for appends. A failure before
// the rename leaves the old file and its appender in place. A failure to
// reopen after the rename closes the journal for good: the old handle
// points at an orphaned inode, and an append there would report success
// for a record no replay will see.
func (j *Journal) Compact(recs [][]byte) error {
	buf := []byte(j.magic)
	var err error
	for _, rec := range recs {
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
	}
	tmp := j.path + ".tmp"
	if err = writeSynced(tmp, buf); err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal %s: compacting: %w", j.path, err)
	}
	if d, err := os.Open(filepath.Dir(j.path)); err == nil {
		d.Sync() // best-effort: some filesystems reject directory fsync
		d.Close()
	}
	if j.f != nil {
		j.f.Close()
	}
	if j.f, err = openAppend(j.path); err != nil {
		j.err = err
		return fmt.Errorf("journal %s: reopening after compaction (closed for appends): %w", j.path, err)
	}
	j.records, j.bytes = int64(len(recs)), int64(len(buf))
	return nil
}

func writeSynced(path string, buf []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats reports the records and bytes (magic included) in the file since
// the last Compact.
func (j *Journal) Stats() (records, bytes int64) { return j.records, j.bytes }

// Close fsyncs and closes the journal. Closing twice is a no-op.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
