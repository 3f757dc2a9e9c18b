// benchdiff compares the two newest benchmark snapshots written by
// scripts/bench.sh (BENCH_<UTC timestamp>_<commit>.json, or the older
// BENCH_<date>.json) and prints a per-benchmark delta table: ns/op, and
// — when both snapshots carry them — bytes/op and allocs/op. A "host
// changed" line heads the table when the snapshots record different
// host CPUs. It is a trend-spotting aid, not a gate: CI runs it
// non-blocking after the snapshot step, so a noisy runner can never fail
// the build, but a regression is visible in the log the day it lands.
//
// Usage:
//
//	benchdiff [-dir .] [-fail-over pct] [old.json new.json]
//
// With explicit file arguments the two snapshots are compared in the
// given order. Without them, the tool globs dir for BENCH_*.json and
// compares the lexically-newest snapshot (the date- and timestamp-stamped
// names sort chronologically; a bare date sorts before the same day's
// timestamps) with its predecessor: the newest earlier snapshot whose
// commit is an ancestor of the newest one's, so a snapshot taken on a
// side branch is never the baseline of the mainline. When git, the
// newest snapshot's commit, or any ancestor snapshot is unavailable, the
// predecessor is the lexically-second-newest. Fewer than two snapshots
// is a clean no-op — the first CI run after a snapshot-schema change has
// nothing to diff.
//
// A snapshot that cannot be compared is an error (exit 2), never a
// panic: a benchmark with a non-positive ns/op or iteration count, a
// negative bytes/op or allocs/op, or a name that appears twice.
//
// -fail-over N exits nonzero when any benchmark's ns/op regressed by
// more than N percent; the default 0 never fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

type snapshot struct {
	Date       string      `json:"date"`
	Go         string      `json:"go"`
	Commit     string      `json:"commit"`
	HostCPU    string      `json:"host_cpu"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []benchmark `json:"benchmarks"`
}

// label names a snapshot for the header line: its date plus, when the
// snapshot records one (bench.sh stamps git rev-parse since PR 9), the
// commit it was taken at.
func (s *snapshot) label() string {
	if s.Commit == "" {
		return s.Date
	}
	return s.Date + " @" + s.Commit
}

type benchmark struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

func load(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parse decodes a snapshot and rejects one that diff cannot compare: a
// benchmark with a non-positive ns/op (which would invert a delta's sign
// or divide by zero) or iteration count, a negative bytes/op or
// allocs/op, or a name that appears twice (the second would silently
// replace the first).
func parse(data []byte) (*snapshot, error) {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		switch {
		case seen[b.Name]:
			return nil, fmt.Errorf("benchmark %q appears twice", b.Name)
		case b.NsPerOp <= 0:
			return nil, fmt.Errorf("benchmark %q: ns_per_op %g is not positive", b.Name, b.NsPerOp)
		case b.Iterations <= 0:
			return nil, fmt.Errorf("benchmark %q: iterations %d is not positive", b.Name, b.Iterations)
		case b.BytesPerOp != nil && *b.BytesPerOp < 0:
			return nil, fmt.Errorf("benchmark %q: bytes_per_op %g is negative", b.Name, *b.BytesPerOp)
		case b.AllocsPerOp != nil && *b.AllocsPerOp < 0:
			return nil, fmt.Errorf("benchmark %q: allocs_per_op %g is negative", b.Name, *b.AllocsPerOp)
		}
		seen[b.Name] = true
	}
	return &s, nil
}

// pick returns the snapshots to compare in dir as (older, newer): the
// lexically-newest BENCH_*.json file and its predecessor by commit
// ancestry in the git repository holding dir (see pickBy).
func pick(dir string) (older, newer string, err error) {
	return pickBy(dir, gitAncestor(dir))
}

// pickBy returns the lexically-newest BENCH_*.json file in dir as newer
// and, as older, the newest earlier snapshot whose commit isAncestor
// reports as an ancestor of (or equal to) newer's. isAncestor's ok is
// false when it cannot tell: a snapshot whose commit is unknown is
// skipped, and when newer's own commit is unknown — or no earlier
// snapshot qualifies — older falls back to the lexically-second-newest
// file. The date-stamped names sort chronologically.
func pickBy(dir string, isAncestor func(a, b string) (is, ok bool)) (older, newer string, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", "", err
	}
	if len(matches) < 2 {
		return "", "", nil
	}
	sort.Strings(matches)
	newer = matches[len(matches)-1]
	lexical := matches[len(matches)-2]
	head := snapshotCommit(newer)
	if head == "" {
		return lexical, newer, nil
	}
	if _, ok := isAncestor(head, head); !ok {
		return lexical, newer, nil
	}
	for i := len(matches) - 2; i >= 0; i-- {
		c := snapshotCommit(matches[i])
		if c == "" {
			continue
		}
		if is, ok := isAncestor(c, head); ok && is {
			return matches[i], newer, nil
		}
	}
	return lexical, newer, nil
}

// snapshotCommit returns the commit a BENCH_<timestamp>_<commit>.json
// name records, without bench.sh's "-dirty" suffix, or "" for the older
// BENCH_<date>.json names.
func snapshotCommit(path string) string {
	name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
	_, commit, ok := strings.Cut(name, "_")
	if !ok {
		return ""
	}
	return strings.TrimSuffix(commit, "-dirty")
}

// gitAncestor returns an ancestry oracle over the git repository holding
// dir: is reports whether commit a is an ancestor of (or equal to)
// commit b, and ok is false when git is missing, dir is not in a
// repository, or either commit is unknown.
func gitAncestor(dir string) func(a, b string) (is, ok bool) {
	return func(a, b string) (bool, bool) {
		err := exec.Command("git", "-C", dir, "merge-base", "--is-ancestor", a, b).Run()
		if err == nil {
			return true, true
		}
		// Exit status 1 is git's "not an ancestor"; anything else is a
		// failure to answer.
		var exit *exec.ExitError
		if errors.As(err, &exit) && exit.ExitCode() == 1 {
			return false, true
		}
		return false, false
	}
}

// pct returns the relative change from old to new in percent.
func pct(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}

// diff renders the comparison table and returns the worst ns/op
// regression in percent (0 when nothing regressed).
func diff(w *tabwriter.Writer, oldS, newS *snapshot) float64 {
	oldBy := make(map[string]benchmark, len(oldS.Benchmarks))
	for _, b := range oldS.Benchmarks {
		oldBy[b.Name] = b
	}
	if oldS.HostCPU != newS.HostCPU {
		fmt.Fprintf(w, "host changed: %s -> %s; ns/op deltas include the host\n", hostCPU(oldS), hostCPU(newS))
	}
	sameTime := oldS.Benchtime == newS.Benchtime
	fmt.Fprintf(w, "benchmark\told ns/op\tnew ns/op\tdelta\tallocs/op\n")
	worst := 0.0
	for _, nb := range newS.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%s\t-\t%.0f\tnew\t%s\n", nb.Name, nb.NsPerOp, allocsCell(nil, nb.AllocsPerOp))
			continue
		}
		delete(oldBy, nb.Name)
		d := pct(ob.NsPerOp, nb.NsPerOp)
		note := ""
		if !sameTime {
			// A benchtime change reshapes single-shot vs amortized
			// numbers; flag the delta as not comparable rather than
			// reporting a phantom regression.
			note = " (benchtime changed)"
		} else if d > worst {
			worst = d
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%+.1f%%%s\t%s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, d, note, allocsCell(ob.AllocsPerOp, nb.AllocsPerOp))
	}
	gone := make([]string, 0, len(oldBy))
	for name := range oldBy {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "%s\t%.0f\t-\tremoved\t\n", name, oldBy[name].NsPerOp)
	}
	return worst
}

// hostCPU names a snapshot's host for the host-change line.
func hostCPU(s *snapshot) string {
	if s.HostCPU == "" {
		return "(unrecorded)"
	}
	return s.HostCPU
}

// allocsCell formats the allocs/op transition for one benchmark row.
func allocsCell(oldA, newA *float64) string {
	switch {
	case oldA == nil && newA == nil:
		return ""
	case oldA == nil:
		return fmt.Sprintf("%.0f", *newA)
	case newA == nil:
		return fmt.Sprintf("%.0f -> ?", *oldA)
	case *oldA == *newA:
		return fmt.Sprintf("%.0f", *newA)
	default:
		return fmt.Sprintf("%.0f -> %.0f", *oldA, *newA)
	}
}

func main() {
	dir := flag.String("dir", ".", "directory holding BENCH_*.json snapshots")
	failOver := flag.Float64("fail-over", 0, "exit nonzero when any ns/op regression exceeds this percentage (0 never fails)")
	flag.Parse()

	var oldPath, newPath string
	switch flag.NArg() {
	case 0:
		var err error
		oldPath, newPath, err = pick(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if oldPath == "" {
			fmt.Println("benchdiff: fewer than two BENCH_*.json snapshots; nothing to diff")
			return
		}
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-dir .] [-fail-over pct] [old.json new.json]")
		os.Exit(2)
	}

	oldS, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newS, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	fmt.Printf("benchdiff: %s (%s) -> %s (%s)\n", oldPath, oldS.label(), newPath, newS.label())
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	worst := diff(w, oldS, newS)
	w.Flush()
	if *failOver > 0 && worst > *failOver {
		fmt.Fprintf(os.Stderr, "benchdiff: worst regression %.1f%% exceeds -fail-over %.1f%%\n", worst, *failOver)
		os.Exit(1)
	}
}
