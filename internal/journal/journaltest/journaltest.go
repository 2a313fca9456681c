// Package journaltest is the single-fault damage table that every
// journal-backed store runs against its own boot path: a valid
// multi-record journal truncated at every byte offset, and with every
// byte flipped in turn. A torn tail must boot holding exactly the
// records before the damage; any other damage must refuse to boot and
// leave the file's bytes unchanged on disk.
package journaltest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"analogacc/internal/journal"
)

// damage is one damaged copy of a journal.
type damage struct {
	name string
	data []byte
	// intact counts the whole records that precede the damage.
	intact int
	// torn marks damage the journal must read as a torn tail: a cut
	// file, or a flipped length that now points past the end of the file
	// (indistinguishable from an append cut short).
	torn bool
}

// cases builds the truncation and byte-flip table for raw, a valid
// journal whose magic is magicLen bytes long.
func cases(raw []byte, magicLen int) []damage {
	var starts, ends []int // each record's first byte and the byte just past it
	for off := magicLen; off+8 <= len(raw); {
		starts = append(starts, off)
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		ends = append(ends, off)
	}
	intact := func(pos int) int {
		n := 0
		for n < len(ends) && ends[n] <= pos {
			n++
		}
		return n
	}
	var out []damage
	for cut := 0; cut <= len(raw); cut++ {
		out = append(out, damage{
			name: fmt.Sprintf("truncate@%d", cut), data: raw[:cut:cut],
			intact: intact(cut), torn: true,
		})
	}
	for pos := range raw {
		data := bytes.Clone(raw)
		data[pos] ^= 0xff
		n := intact(pos)
		torn := false
		if n < len(starts) && pos < starts[n]+4 {
			length := binary.LittleEndian.Uint32(data[starts[n]:])
			torn = length <= journal.MaxRecord && starts[n]+8+int(length) > len(data)
		}
		out = append(out, damage{name: fmt.Sprintf("flip@%d", pos), data: data, intact: n, torn: torn})
	}
	return out
}

// Run writes every case of raw to path and boots the store through open.
// When the boot succeeds, open must check that the store holds exactly
// the first intact records (failing t otherwise) and release the store;
// it returns the boot error, if any.
func Run(t *testing.T, path string, raw []byte, magicLen int, open func(t *testing.T, intact int) error) {
	t.Helper()
	for _, c := range cases(raw, magicLen) {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			err := open(t, c.intact)
			if c.torn {
				if err != nil {
					t.Fatalf("a torn tail must boot, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("damage before the tail booted instead of stopping")
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("boot error %q does not name the file", err)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(got, c.data) {
				t.Fatalf("boot refused (%v) but rewrote the file", err)
			}
		})
	}
}
