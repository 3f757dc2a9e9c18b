package loadprofile

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// Replay plays back a recorded load trace — the mechanism behind the
// paper's "we replayed a 2 hours load profile within 3 minutes": a trace
// is loaded from CSV and compressed onto an arbitrary duration.
type Replay struct {
	name    string
	times   []time.Duration // original trace timestamps, ascending
	qps     []float64
	length  time.Duration // playback duration (compressed or stretched)
	traceTo time.Duration // original trace end
}

// NewReplay builds a replay profile from parallel time/qps samples,
// played back over the given duration. Samples must start at or after
// time 0, ascend in time and carry finite, non-negative rates.
func NewReplay(name string, times []time.Duration, qps []float64, playback time.Duration) (*Replay, error) {
	if len(times) == 0 || len(times) != len(qps) {
		return nil, fmt.Errorf("loadprofile: replay needs equal-length, non-empty samples")
	}
	for i := range times {
		if err := sampleErr(times, qps, i); err != nil {
			return nil, fmt.Errorf("loadprofile: replay sample %d: %w", i, err)
		}
	}
	if playback <= 0 {
		return nil, fmt.Errorf("loadprofile: playback duration must be positive")
	}
	end := times[len(times)-1]
	if end == 0 {
		end = time.Second
	}
	return &Replay{name: name, times: times, qps: qps, length: playback, traceTo: end}, nil
}

// sampleErr reports why sample i of a trace is unusable, or nil.
func sampleErr(times []time.Duration, qps []float64, i int) error {
	switch t, q := times[i], qps[i]; {
	case t < 0:
		return fmt.Errorf("negative time %v", t)
	case i > 0 && t < times[i-1]:
		return fmt.Errorf("time %v before the previous sample's %v (not ascending)", t, times[i-1])
	case math.IsNaN(q) || math.IsInf(q, 0):
		return fmt.Errorf("non-finite qps %v", q)
	case q < 0:
		return fmt.Errorf("negative qps %v", q)
	}
	return nil
}

// LoadReplayCSV reads a trace with header "t_seconds,qps" (extra columns
// ignored) and plays it back over the given duration.
func LoadReplayCSV(name string, r io.Reader, playback time.Duration) (*Replay, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("loadprofile: reading trace: %w", err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("loadprofile: trace has no samples")
	}
	tCol, qCol := -1, -1
	for i, h := range rows[0] {
		switch h {
		case "t_seconds":
			tCol = i
		case "qps", "load_qps":
			qCol = i
		}
	}
	if tCol < 0 || qCol < 0 {
		return nil, fmt.Errorf("loadprofile: trace needs t_seconds and qps columns, got %v", rows[0])
	}
	var times []time.Duration
	var qps []float64
	for i, row := range rows[1:] {
		ts, err := strconv.ParseFloat(row[tCol], 64)
		if err != nil {
			return nil, fmt.Errorf("loadprofile: row %d: %w", i+1, err)
		}
		q, err := strconv.ParseFloat(row[qCol], 64)
		if err != nil {
			return nil, fmt.Errorf("loadprofile: row %d: %w", i+1, err)
		}
		// A float outside int64's range has no defined Duration
		// conversion; it must not wrap into a plausible-looking time.
		ns := ts * float64(time.Second)
		if math.IsNaN(ns) || ns >= 1<<63 || ns < -(1<<63) {
			return nil, fmt.Errorf("loadprofile: row %d: t_seconds %v outside the representable range", i+1, ts)
		}
		times = append(times, time.Duration(ns))
		qps = append(qps, q)
		if err := sampleErr(times, qps, i); err != nil {
			return nil, fmt.Errorf("loadprofile: row %d: %w", i+1, err)
		}
	}
	return NewReplay(name, times, qps, playback)
}

// Name implements Profile.
func (r *Replay) Name() string { return "replay:" + r.name }

// QPS implements Profile: the playback time maps linearly onto the trace
// timeline; between samples the rate interpolates linearly.
func (r *Replay) QPS(t time.Duration) float64 {
	if t < 0 || t > r.length {
		return 0
	}
	// Map playback instant onto the original trace.
	traceT := time.Duration(float64(r.traceTo) * float64(t) / float64(r.length))
	i := sort.Search(len(r.times), func(i int) bool { return r.times[i] >= traceT })
	if i == 0 {
		return r.qps[0]
	}
	if i >= len(r.times) {
		return r.qps[len(r.qps)-1]
	}
	t0, t1 := r.times[i-1], r.times[i]
	if t1 == t0 {
		return r.qps[i]
	}
	frac := float64(traceT-t0) / float64(t1-t0)
	return r.qps[i-1] + frac*(r.qps[i]-r.qps[i-1])
}

// Duration implements Profile.
func (r *Replay) Duration() time.Duration { return r.length }

// Compression returns the speed-up factor of the playback (e.g. a 2 h
// trace replayed in 3 minutes compresses 40x).
func (r *Replay) Compression() float64 {
	return float64(r.traceTo) / float64(r.length)
}
