package relock

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzCompareBytes feeds arbitrary pairs of files to the comparator
// behind cmd/semdiff and the idle half of the step-path proof: no pair
// may panic it, and any input compared with itself must report OK —
// whole (the byte-identity shortcut) and line by line through the
// tokenizer and the per-token rule. The committed corpus under
// testdata/fuzz/FuzzCompareBytes holds the shapes the unit tests pin:
// scientific notation, negatives, identifiers with digits and JSONL
// floats.
func FuzzCompareBytes(f *testing.F) {
	f.Add([]byte("energy 123.456 J\n"), []byte("energy 123.457 J\n"))
	f.Add([]byte("savings 35.1%\n"), []byte("savings 35.3%\n"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		compareBytes(a, b, Options{})
		compareBytes(b, a, Options{})
		if r := compareBytes(a, a, Options{}); !r.OK() || !r.Identical {
			t.Fatalf("input compared with itself: %+v", r)
		}
		sc := bufio.NewScanner(bytes.NewReader(a))
		sc.Buffer(nil, 1<<24)
		var r FileReport
		for sc.Scan() {
			if err := compareLine(sc.Text(), sc.Text(), Options{}, &r); err != "" {
				t.Fatalf("line %q compared with itself: %s", sc.Text(), err)
			}
		}
	})
}
