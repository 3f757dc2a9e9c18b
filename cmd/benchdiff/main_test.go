package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"text/tabwriter"
)

func writeSnapshot(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldSnap = `{
  "date": "2026-08-07",
  "go": "go1.24.0",
  "benchtime": "100ms",
  "benchmarks": [
    {"name": "BenchmarkA", "iterations": 100, "ns_per_op": 1000, "bytes_per_op": 64, "allocs_per_op": 2},
    {"name": "BenchmarkB", "iterations": 100, "ns_per_op": 2000},
    {"name": "BenchmarkGone", "iterations": 100, "ns_per_op": 5}
  ]
}`

const newSnap = `{
  "date": "2026-08-08",
  "go": "go1.24.0",
  "benchtime": "100ms",
  "benchmarks": [
    {"name": "BenchmarkA", "iterations": 100, "ns_per_op": 1500, "bytes_per_op": 64, "allocs_per_op": 0},
    {"name": "BenchmarkB", "iterations": 100, "ns_per_op": 1000},
    {"name": "BenchmarkNew", "iterations": 100, "ns_per_op": 7}
  ]
}`

// TestDiffTable pins the delta computation: a regression shows its
// percentage and feeds the worst-regression return, an improvement is
// negative, added and removed benchmarks are labeled, and an allocs/op
// transition is spelled out.
func TestDiffTable(t *testing.T) {
	dir := t.TempDir()
	oldS, err := load(writeSnapshot(t, dir, "old.json", oldSnap))
	if err != nil {
		t.Fatal(err)
	}
	newS, err := load(writeSnapshot(t, dir, "new.json", newSnap))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := tabwriter.NewWriter(&buf, 0, 4, 2, ' ', 0)
	worst := diff(w, oldS, newS)
	w.Flush()
	out := buf.String()

	if worst != 50 {
		t.Errorf("worst regression = %.1f, want 50 (BenchmarkA 1000 -> 1500)", worst)
	}
	for _, want := range []string{"+50.0%", "-50.0%", "2 -> 0", "new", "removed"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestDiffBenchtimeChange asserts that snapshots taken under different
// benchtimes do not report regressions: single-shot and amortized
// numbers are not comparable, so the worst-regression signal must stay
// quiet and the rows must carry the annotation.
func TestDiffBenchtimeChange(t *testing.T) {
	dir := t.TempDir()
	oldS, err := load(writeSnapshot(t, dir, "old.json", strings.Replace(oldSnap, `"100ms"`, `"1x"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	newS, err := load(writeSnapshot(t, dir, "new.json", newSnap))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := tabwriter.NewWriter(&buf, 0, 4, 2, ' ', 0)
	worst := diff(w, oldS, newS)
	w.Flush()
	if worst != 0 {
		t.Errorf("worst regression = %.1f across a benchtime change, want 0", worst)
	}
	if !strings.Contains(buf.String(), "benchtime changed") {
		t.Errorf("table missing the benchtime-change annotation:\n%s", buf.String())
	}
}

// TestDiffHostChange asserts a host change heads the table, naming both
// hosts (a snapshot from before bench.sh recorded the host reads as
// unrecorded), and that one host on both sides prints no such line.
func TestDiffHostChange(t *testing.T) {
	withHost := func(snap, host string) *snapshot {
		t.Helper()
		body := strings.Replace(snap, `"benchtime"`, `"host_cpu": "`+host+`", "benchtime"`, 1)
		s, err := load(writeSnapshot(t, t.TempDir(), "s.json", body))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	render := func(oldS, newS *snapshot) string {
		var buf bytes.Buffer
		w := tabwriter.NewWriter(&buf, 0, 4, 2, ' ', 0)
		diff(w, oldS, newS)
		w.Flush()
		return buf.String()
	}

	out := render(withHost(oldSnap, "Xeon A, nproc 2"), withHost(newSnap, "EPYC B, nproc 4"))
	if !strings.HasPrefix(out, "host changed: Xeon A, nproc 2 -> EPYC B, nproc 4") {
		t.Errorf("host change not reported first:\n%s", out)
	}
	legacy, err := load(writeSnapshot(t, t.TempDir(), "old.json", oldSnap))
	if err != nil {
		t.Fatal(err)
	}
	if out := render(legacy, withHost(newSnap, "EPYC B, nproc 4")); !strings.Contains(out, "host changed: (unrecorded) -> EPYC B") {
		t.Errorf("unrecorded old host not reported:\n%s", out)
	}
	if out := render(withHost(oldSnap, "Xeon A, nproc 2"), withHost(newSnap, "Xeon A, nproc 2")); strings.Contains(out, "host changed") {
		t.Errorf("same host reported as a change:\n%s", out)
	}
}

// TestPickNewestTwo asserts the stamped names sort chronologically and
// the newest two win — bare dates, timestamped names, and the two mixed,
// where a bare date sorts before the same day's timestamps — and that
// fewer than two snapshots is a clean nothing-to-diff.
func TestPickNewestTwo(t *testing.T) {
	for _, c := range []struct {
		files        []string
		older, newer string
	}{
		{[]string{"BENCH_2026-07-30.json", "BENCH_2026-08-07.json", "BENCH_2026-08-08.json"},
			"BENCH_2026-08-07.json", "BENCH_2026-08-08.json"},
		{[]string{"BENCH_2026-08-08.json", "BENCH_2026-08-08T140501Z_1a2b3c4.json", "BENCH_2026-08-08T091500Z_9f8e7d6.json"},
			"BENCH_2026-08-08T091500Z_9f8e7d6.json", "BENCH_2026-08-08T140501Z_1a2b3c4.json"},
		{[]string{"BENCH_2026-08-07T235959Z_1a2b3c4.json", "BENCH_2026-08-08.json", "BENCH_2026-08-08T000001Z_9f8e7d6-dirty.json"},
			"BENCH_2026-08-08.json", "BENCH_2026-08-08T000001Z_9f8e7d6-dirty.json"},
		{[]string{"BENCH_2026-08-08T120000Z_1a2b3c4.json", "BENCH_2026-08-09.json", "BENCH_2026-08-07.json"},
			"BENCH_2026-08-08T120000Z_1a2b3c4.json", "BENCH_2026-08-09.json"},
	} {
		dir := t.TempDir()
		for _, f := range c.files {
			writeSnapshot(t, dir, f, oldSnap)
		}
		gotOld, gotNew, err := pick(dir)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(gotOld) != c.older || filepath.Base(gotNew) != c.newer {
			t.Errorf("pick over %v = (%s, %s), want (%s, %s)", c.files, gotOld, gotNew, c.older, c.newer)
		}
	}

	solo := t.TempDir()
	writeSnapshot(t, solo, "BENCH_2026-08-08.json", newSnap)
	gotOld, gotNew, err := pick(solo)
	if err != nil {
		t.Fatal(err)
	}
	if gotOld != "" || gotNew != "" {
		t.Errorf("pick with one snapshot = (%s, %s), want empty", gotOld, gotNew)
	}
}

// TestPickByAncestry asserts the predecessor is the newest earlier
// snapshot whose commit is an ancestor of the newest snapshot's — a newer
// snapshot from a side branch and one with no commit are passed over —
// and that pick falls back to the lexical order when ancestry cannot be
// told, whether for every commit (no git) or for the newest one's.
func TestPickByAncestry(t *testing.T) {
	dir := t.TempDir()
	files := []string{
		"BENCH_2026-08-07T100000Z_aaaaaaa.json",       // mainline ancestor
		"BENCH_2026-08-07T120000Z_bbbbbbb-dirty.json", // side branch
		"BENCH_2026-08-07T130000Z_ccccccc.json",       // unknown to git
		"BENCH_2026-08-08.json",                       // no commit
		"BENCH_2026-08-08T090000Z_ddddddd-dirty.json", // newest
	}
	for _, f := range files {
		writeSnapshot(t, dir, f, oldSnap)
	}
	mainline := map[string]bool{"aaaaaaa": true, "ddddddd": true}
	ancestry := func(a, b string) (bool, bool) {
		if a == "ccccccc" || b == "ccccccc" {
			return false, false
		}
		if b != "ddddddd" {
			t.Fatalf("ancestry asked of %s, want the newest snapshot's commit", b)
		}
		return mainline[a], true
	}
	for _, c := range []struct {
		name     string
		oracle   func(a, b string) (bool, bool)
		wantPrev string
	}{
		{"ancestry", ancestry, files[0]},
		{"no git", func(a, b string) (bool, bool) { return false, false }, files[3]},
		{"no ancestor", func(a, b string) (bool, bool) { return a == b, true }, files[3]},
	} {
		older, newer, err := pickBy(dir, c.oracle)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(older) != c.wantPrev || filepath.Base(newer) != files[4] {
			t.Errorf("%s: pickBy = (%s, %s), want (%s, %s)", c.name, filepath.Base(older), filepath.Base(newer), c.wantPrev, files[4])
		}
	}
	if got := snapshotCommit("BENCH_2026-08-08T090000Z_ddddddd-dirty.json"); got != "ddddddd" {
		t.Errorf("snapshotCommit = %q", got)
	}
	if got := snapshotCommit("BENCH_2026-08-08.json"); got != "" {
		t.Errorf("snapshotCommit of a bare date = %q, want empty", got)
	}
}

// TestParseRejectsUncomparableSnapshots pins each rule parse enforces:
// every input below would otherwise load and reach diff.
func TestParseRejectsUncomparableSnapshots(t *testing.T) {
	for _, c := range []struct{ name, bench, want string }{
		{"zero ns/op", `{"name": "BenchmarkA", "iterations": 1, "ns_per_op": 0}`, "ns_per_op"},
		{"negative ns/op", `{"name": "BenchmarkA", "iterations": 1, "ns_per_op": -5}`, "ns_per_op"},
		{"zero iterations", `{"name": "BenchmarkA", "iterations": 0, "ns_per_op": 5}`, "iterations"},
		{"negative iterations", `{"name": "BenchmarkA", "iterations": -1, "ns_per_op": 5}`, "iterations"},
		{"negative bytes/op", `{"name": "BenchmarkA", "iterations": 1, "ns_per_op": 5, "bytes_per_op": -1}`, "bytes_per_op"},
		{"negative allocs/op", `{"name": "BenchmarkA", "iterations": 1, "ns_per_op": 5, "allocs_per_op": -1}`, "allocs_per_op"},
		{"duplicate name", `{"name": "BenchmarkA", "iterations": 1, "ns_per_op": 5},
			{"name": "BenchmarkA", "iterations": 1, "ns_per_op": 9}`, "twice"},
	} {
		_, err := parse([]byte(`{"benchmarks": [` + c.bench + `]}`))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: parse error = %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, err := parse([]byte(oldSnap)); err != nil {
		t.Errorf("a valid snapshot was rejected: %v", err)
	}
}

// TestCommittedSnapshotsLoad asserts every BENCH_*.json at the repository
// root passes parse's rules, so benchdiff can compare any two of them.
func TestCommittedSnapshotsLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed snapshots found")
	}
	for _, p := range paths {
		if _, err := load(p); err != nil {
			t.Error(err)
		}
	}
}

// FuzzLoadSnapshot asserts parse returns an error or a snapshot that diff
// can compare, never a panic: an accepted snapshot compared with itself
// renders without panicking and reports no regression, and it encodes to
// JSON that parse accepts again.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add([]byte(oldSnap))
	f.Add([]byte(newSnap))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parse(data)
		if err != nil {
			return
		}
		w := tabwriter.NewWriter(io.Discard, 0, 4, 2, ' ', 0)
		if worst := diff(w, s, s); worst != 0 {
			t.Fatalf("snapshot compared with itself regressed by %g%%", worst)
		}
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parse(again); err != nil {
			t.Fatalf("accepted snapshot rejected after a round trip: %v", err)
		}
	})
}
