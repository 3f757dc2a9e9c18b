package pkg_test

import (
	"testing"

	"ecldb/internal/lint/testdata/src/loader/pkg"
)

func TestDouble(t *testing.T) {
	if got := pkg.Double(2); got != 4 {
		t.Fatalf("Double(2) = %d, want 4", got)
	}
}
