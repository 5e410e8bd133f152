package gateway

import (
	"math"
	"testing"
)

// TestClampRange pins how a peer-supplied read range resolves against the
// object size. Offset and count come straight off the wire, so hostile
// values — negative, past the end, or large enough to overflow off+n —
// must still yield a range inside [0, size].
func TestClampRange(t *testing.T) {
	const size = 1000
	for _, tc := range []struct {
		name           string
		off, n         int64
		wantOff, wantE int64
	}{
		{"whole", 0, size, 0, size},
		{"inner", 100, 50, 100, 150},
		{"zero count", 100, 0, 100, 100},
		{"to end", 100, -1, 100, size},
		{"negative count", 100, math.MinInt64, 100, size},
		{"count past end", 900, 500, 900, size},
		{"huge count", 100, 1 << 62, 100, size},
		{"max count", 100, math.MaxInt64, 100, size},
		{"max count at end", size, math.MaxInt64, size, size},
		{"negative offset", -50, 10, 0, 10},
		{"min offset", math.MinInt64, math.MaxInt64, 0, size},
		{"offset past end", 5000, 10, size, size},
		{"max offset", math.MaxInt64, math.MaxInt64, size, size},
	} {
		off, end := clampRange(tc.off, tc.n, size)
		if off != tc.wantOff || end != tc.wantE {
			t.Errorf("%s: clampRange(%d, %d, %d) = [%d, %d), want [%d, %d)",
				tc.name, tc.off, tc.n, size, off, end, tc.wantOff, tc.wantE)
		}
		if off < 0 || end < off || end > size {
			t.Errorf("%s: [%d, %d) escapes [0, %d]", tc.name, off, end, size)
		}
	}
	// An empty object serves nothing whatever the request.
	if off, end := clampRange(10, math.MaxInt64, 0); off != 0 || end != 0 {
		t.Errorf("empty object: [%d, %d), want [0, 0)", off, end)
	}
}
