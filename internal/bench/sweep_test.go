package bench

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ecldb/internal/obs"
	"ecldb/internal/workload"
)

// Results come back in submission order at every pool size.
func TestSweepNOrderPreserved(t *testing.T) {
	const n = 8
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) { return i, nil }
	}
	for _, workers := range []int{1, 2, 4, n + 10} {
		got, err := SweepN(workers, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

// Adversarial scheduling: with one worker per job, a chain of channels
// forces the jobs to COMPLETE in strictly reverse submission order (job i
// blocks until job i+1 is done). The merge must still hand back result i
// at index i.
func TestSweepNOrderPreservedReverseCompletion(t *testing.T) {
	const n = 6
	done := make([]chan struct{}, n+1)
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n]) // the last job runs free
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			<-done[i+1]
			close(done[i])
			return i, nil
		}
	}
	got, err := SweepN(n, jobs) // every job gets a worker, so the chain cannot deadlock
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("result[%d] = %d despite reverse completion", i, v)
		}
	}
}

// The returned error is the lowest-index failure, and results of the
// other jobs are still returned positionally.
func TestSweepNLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	jobs := []Job[string]{
		func() (string, error) { return "a", nil },
		func() (string, error) { return "", errLow },
		func() (string, error) { return "c", nil },
		func() (string, error) { return "", errHigh },
	}
	for _, workers := range []int{1, 4} {
		got, err := SweepN(workers, jobs)
		if err != errLow {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
		if got[0] != "a" || got[2] != "c" {
			t.Fatalf("workers=%d: successful results dropped: %q", workers, got)
		}
	}
}

func TestSweepNEmpty(t *testing.T) {
	got, err := SweepN[int](4, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: %v, %v", got, err)
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(5)
	if got := Parallelism(); got != 5 {
		t.Fatalf("Parallelism() = %d, want 5", got)
	}
	SetParallelism(0)
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Parallelism() after reset = %d, want GOMAXPROCS %d", got, want)
	}
}

// The acceptance criterion of the orchestrator: a figure regenerated with
// a multi-worker pool is byte-identical to the sequential regeneration —
// same rendered table, same JSONL decision-event stream, same metrics
// exposition. Run under -race by scripts/check.sh, so the parallel leg
// also proves the fan-out is race-free.
func TestParallelSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sim byte-identity comparison")
	}
	defer SetParallelism(0)

	type capture struct {
		table   string
		events  []byte
		metrics []byte
	}
	regenerate := func(workers int) capture {
		SetParallelism(workers)
		ob := obs.New(0)
		r, err := Figure13(4*time.Second, ob)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var ev, mx bytes.Buffer
		if err := ob.Log.WriteJSONL(&ev); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := ob.Metrics.WriteProm(&mx); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return capture{table: r.Render(), events: ev.Bytes(), metrics: mx.Bytes()}
	}

	seq := regenerate(1)
	for _, workers := range []int{2, 4} {
		par := regenerate(workers)
		if par.table != seq.table {
			t.Errorf("workers=%d: rendered table differs\n--- sequential ---\n%s--- parallel ---\n%s",
				workers, seq.table, par.table)
		}
		if !bytes.Equal(par.events, seq.events) {
			t.Errorf("workers=%d: JSONL event stream differs (%d vs %d bytes)",
				workers, len(par.events), len(seq.events))
		}
		if !bytes.Equal(par.metrics, seq.metrics) {
			t.Errorf("workers=%d: metrics exposition differs", workers)
		}
	}
}

// Same (workload, seed) must hit the memo without a second measurement;
// a different seed or workload must miss.
func TestMeasureCapacityMemo(t *testing.T) {
	resetCapacityMemo()
	orig := measureCapacityFn
	defer func() { measureCapacityFn = orig; resetCapacityMemo() }()

	runs := 0
	measureCapacityFn = func(wl workload.Workload, seed int64) (float64, error) {
		runs++
		return 1000 + float64(seed), nil
	}

	kv := workload.NewKV(false)
	v1, err := MeasureCapacity(kv, 7)
	if err != nil || v1 != 1007 {
		t.Fatalf("first: %v, %v", v1, err)
	}
	v2, err := MeasureCapacity(workload.NewKV(false), 7)
	if err != nil || v2 != v1 {
		t.Fatalf("memo hit returned %v, %v (want %v)", v2, err, v1)
	}
	if runs != 1 {
		t.Fatalf("same key measured %d times, want 1", runs)
	}
	if _, err := MeasureCapacity(kv, 8); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("different seed did not re-measure: %d runs", runs)
	}
	if _, err := MeasureCapacity(workload.NewTATP(true), 7); err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("different workload did not re-measure: %d runs", runs)
	}
}

// Errors are memoized too: a failed measurement is not retried, and every
// caller of the key observes the same error.
func TestMeasureCapacityMemoError(t *testing.T) {
	resetCapacityMemo()
	orig := measureCapacityFn
	defer func() { measureCapacityFn = orig; resetCapacityMemo() }()

	runs := 0
	sentinel := errors.New("saturation failed")
	measureCapacityFn = func(wl workload.Workload, seed int64) (float64, error) {
		runs++
		return 0, sentinel
	}
	kv := workload.NewKV(false)
	for i := 0; i < 2; i++ {
		if _, err := MeasureCapacity(kv, 3); err != sentinel {
			t.Fatalf("call %d: err = %v, want sentinel", i, err)
		}
	}
	if runs != 1 {
		t.Fatalf("failed key measured %d times, want 1", runs)
	}
}

// The memo is safe under the orchestrator: concurrent first requests for
// one key run the measurement exactly once.
func TestMeasureCapacityMemoConcurrent(t *testing.T) {
	resetCapacityMemo()
	orig := measureCapacityFn
	defer func() { measureCapacityFn = orig; resetCapacityMemo() }()

	runs := 0
	measureCapacityFn = func(wl workload.Workload, seed int64) (float64, error) {
		runs++ // guarded by the entry's Once
		return 42, nil
	}
	// A barrier holds every job until all eight are in flight, so the
	// memo really sees eight concurrent first requests for one key.
	var barrier sync.WaitGroup
	barrier.Add(8)
	jobs := make([]Job[float64], 8)
	for i := range jobs {
		jobs[i] = func() (float64, error) {
			barrier.Done()
			barrier.Wait()
			return MeasureCapacity(workload.NewKV(false), 5)
		}
	}
	got, err := SweepN(8, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("result[%d] = %v", i, v)
		}
	}
	if runs != 1 {
		t.Fatalf("concurrent first requests measured %d times, want 1", runs)
	}
}

// Example-shaped smoke test: a sweep of trivial jobs through the default
// pool (whatever GOMAXPROCS is on the host).
func TestSweepDefaultPool(t *testing.T) {
	jobs := make([]Job[string], 5)
	for i := range jobs {
		i := i
		jobs[i] = func() (string, error) { return fmt.Sprintf("job-%d", i), nil }
	}
	got, err := Sweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := fmt.Sprintf("job-%d", i); v != want {
			t.Fatalf("result[%d] = %q, want %q", i, v, want)
		}
	}
}
