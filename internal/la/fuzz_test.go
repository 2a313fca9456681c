package la

import (
	"bytes"
	"runtime"
	"testing"
)

// boundedAlloc runs decode on data and fails if it allocated more than
// O(len(data)): a header-declared size must never be trusted before the
// input has shown it can back it. Honest parsing costs under 100 bytes
// per input byte (a 6-byte symmetric entry line becomes two 24-byte
// triplets, their sorted copy and the CSR arrays); the constant term
// covers the 1 MiB line buffer both decoders scan with.
func boundedAlloc(t *testing.T, data []byte, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(256*len(data))+4<<20 {
		t.Fatalf("a %d-byte input allocated %d bytes", len(data), alloc)
	}
}

// FuzzReadMatrixMarket feeds arbitrary bytes to the MatrixMarket reader
// (reachable through /v1/solve's matrix_market field). It must never
// panic, never allocate more than O(input), and any matrix it accepts
// must be square with every entry in range.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 4\n3 2 -1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		boundedAlloc(t, data, func() {
			a, err := ReadMatrixMarket(bytes.NewReader(data))
			if err != nil {
				return
			}
			if a.Dim() <= 0 || a.Dim() > len(data) {
				t.Fatalf("accepted an order-%d matrix from %d bytes", a.Dim(), len(data))
			}
		})
	})
}

// FuzzReadSystem is FuzzReadMatrixMarket for the triplet system format
// (the /v1/solve system field and alasolve's default input).
func FuzzReadSystem(f *testing.F) {
	f.Add([]byte("n 2\na 0 0 0.8\na 0 1 0.2\na 1 0 0.2\na 1 1 0.6\nb 0 0.5\nb 1 0.3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		boundedAlloc(t, data, func() {
			a, b, err := ReadSystem(bytes.NewReader(data))
			if err != nil {
				return
			}
			if a.Dim() <= 0 || a.Dim() > len(data) || len(b) != a.Dim() {
				t.Fatalf("accepted order %d with |b|=%d from %d bytes", a.Dim(), len(b), len(data))
			}
		})
	})
}
