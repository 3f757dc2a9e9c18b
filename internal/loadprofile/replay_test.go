package loadprofile

import (
	"math"
	"strings"
	"testing"
	"time"

	"ecldb/internal/trace"
)

func TestReplayInterpolation(t *testing.T) {
	// A 2-hour trace replayed in 2 minutes: 60x compression.
	r, err := NewReplay("trace",
		[]time.Duration{0, time.Hour, 2 * time.Hour},
		[]float64{100, 300, 100},
		2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Compression(); got != 60 {
		t.Errorf("Compression = %v, want 60", got)
	}
	if got := r.QPS(0); got != 100 {
		t.Errorf("QPS(0) = %v", got)
	}
	// Playback midpoint maps to the trace's 1 h peak.
	if got := r.QPS(time.Minute); got != 300 {
		t.Errorf("QPS(mid) = %v, want 300", got)
	}
	// Quarter point interpolates linearly.
	if got := r.QPS(30 * time.Second); got != 200 {
		t.Errorf("QPS(quarter) = %v, want 200", got)
	}
	if r.QPS(-1) != 0 || r.QPS(3*time.Minute) != 0 {
		t.Error("out-of-range QPS should be 0")
	}
	if r.Duration() != 2*time.Minute {
		t.Errorf("Duration = %v", r.Duration())
	}
	if !strings.HasPrefix(r.Name(), "replay:") {
		t.Errorf("Name = %q", r.Name())
	}
}

// TestReplayRoundTripsRecordedTrace closes the record/replay loop: a
// load series recorded by trace.Recorder, exported with WriteCSV, and
// loaded back through LoadReplayCSV must reproduce the recorded qps at
// every sample instant. This is the workflow eclsim supports with
// -csv on one run and -load replay -trace on the next.
func TestReplayRoundTripsRecordedTrace(t *testing.T) {
	rec := trace.NewRecorder()
	times := []time.Duration{0, 250 * time.Millisecond, time.Second,
		1750 * time.Millisecond, 3 * time.Second, 5 * time.Second}
	qps := []float64{1000, 1250.5, 4000, 2500, 312.25, 800}
	for i, at := range times {
		rec.Add("load_qps", at, qps[i])
	}

	var csv strings.Builder
	if err := rec.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}

	// Playback over the original trace length: no compression, so
	// playback instants map 1:1 onto trace instants.
	rp, err := LoadReplayCSV("roundtrip", strings.NewReader(csv.String()), times[len(times)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.Compression(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Compression = %v, want 1", got)
	}
	for i, at := range times {
		got := rp.QPS(at)
		// WriteCSV prints times with millisecond precision and values
		// with %g, both exact for these samples; allow only float ulp
		// wiggle from the playback time remapping.
		if rel := math.Abs(got-qps[i]) / qps[i]; rel > 1e-6 {
			t.Errorf("QPS(%v) = %v, want %v (rel err %g)", at, got, qps[i], rel)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := NewReplay("x", nil, nil, time.Minute); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := NewReplay("x", []time.Duration{0, 1}, []float64{1}, time.Minute); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewReplay("x", []time.Duration{1, 0}, []float64{1, 2}, time.Minute); err == nil {
		t.Error("descending times should fail")
	}
	if _, err := NewReplay("x", []time.Duration{0, 1}, []float64{1, -2}, time.Minute); err == nil {
		t.Error("negative qps should fail")
	}
	if _, err := NewReplay("x", []time.Duration{0, 1}, []float64{1, 2}, 0); err == nil {
		t.Error("zero playback should fail")
	}
}

func TestLoadReplayCSV(t *testing.T) {
	trace := "t_seconds,qps\n0,100\n3600,300\n7200,100\n"
	r, err := LoadReplayCSV("csv", strings.NewReader(trace), 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.QPS(time.Minute); got != 300 {
		t.Errorf("QPS(mid) = %v, want 300", got)
	}
	// Alternative column name and extra columns.
	trace2 := "t_seconds,power,load_qps\n0,1,50\n10,2,150\n"
	r2, err := LoadReplayCSV("csv2", strings.NewReader(trace2), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.QPS(30 * time.Second); got != 100 {
		t.Errorf("QPS(mid) = %v, want 100", got)
	}
}

func TestLoadReplayCSVErrors(t *testing.T) {
	if _, err := LoadReplayCSV("x", strings.NewReader(""), time.Minute); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := LoadReplayCSV("x", strings.NewReader("a,b\n1,2\n"), time.Minute); err == nil {
		t.Error("missing columns should fail")
	}
	if _, err := LoadReplayCSV("x", strings.NewReader("t_seconds,qps\nnope,2\n"), time.Minute); err == nil {
		t.Error("non-numeric time should fail")
	}
	if _, err := LoadReplayCSV("x", strings.NewReader("t_seconds,qps\n1,nope\n"), time.Minute); err == nil {
		t.Error("non-numeric qps should fail")
	}
}

// Each case once loaded: a non-finite rate made QPS return NaN
// everywhere, negative times played back only the last sample, and a
// time beyond time.Duration's range wrapped to a negative Duration and
// was reported as "not ascending".
func TestLoadReplayCSVRejectsUnusableSamples(t *testing.T) {
	for _, tc := range []struct {
		name, trace, row string
	}{
		{"nan qps", "t_seconds,qps\n0,1\n1,NaN\n", "row 2"},
		{"inf qps", "t_seconds,qps\n0,+Inf\n1,5\n", "row 1"},
		{"negative times", "t_seconds,qps\n-5,1\n-1,5\n", "row 1"},
		{"time beyond Duration", "t_seconds,qps\n0,1\n1e10,5\n", "row 2"},
		{"nan time", "t_seconds,qps\n0,1\nNaN,5\n", "row 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadReplayCSV("x", strings.NewReader(tc.trace), time.Minute)
			if err == nil {
				t.Fatal("trace loaded")
			}
			if !strings.Contains(err.Error(), tc.row) {
				t.Errorf("error %q does not name %s", err, tc.row)
			}
		})
	}
}

func TestNewReplayRejectsUnusableSamples(t *testing.T) {
	for _, tc := range []struct {
		name  string
		times []time.Duration
		qps   []float64
	}{
		{"nan qps", []time.Duration{0, 1}, []float64{1, math.NaN()}},
		{"inf qps", []time.Duration{0, 1}, []float64{math.Inf(1), 1}},
		{"negative time", []time.Duration{-5 * time.Second, -time.Second}, []float64{1, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewReplay("x", tc.times, tc.qps, time.Minute); err == nil {
				t.Fatal("samples accepted")
			} else if !strings.Contains(err.Error(), "sample") {
				t.Errorf("error %q does not name the sample", err)
			}
		})
	}
}
