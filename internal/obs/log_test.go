package obs

import (
	"bytes"
	"testing"
	"time"

	"ecldb/internal/units"
)

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	if l.Enabled() {
		t.Fatal("nil log reports enabled")
	}
	l.Emit(Event{Type: EvDemandUpdate})
	l.SetSampling(EvQueryAdmit, 10)
	if l.Len() != 0 || l.Count(EvDemandUpdate) != 0 || l.Total() != 0 || l.Dropped() != 0 {
		t.Fatal("nil log not empty")
	}
	if got := l.Events(); got != nil {
		t.Fatalf("nil log Events = %v", got)
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil log WriteJSONL wrote %q err %v", buf.String(), err)
	}
	if Report(l) != "" {
		t.Fatal("nil log Report non-empty")
	}
}

func TestLogCountsAndOrder(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 5; i++ {
		l.Emit(Event{At: units.Virtual(time.Duration(i) * time.Second), Type: EvDemandUpdate, Socket: 0})
	}
	l.Emit(Event{At: units.Virtual(5 * time.Second), Type: EvSafetyValve, Socket: 1, A: 3})
	if l.Len() != 6 || l.Total() != 6 {
		t.Fatalf("len=%d total=%d", l.Len(), l.Total())
	}
	if l.Count(EvDemandUpdate) != 5 || l.Count(EvSafetyValve) != 1 {
		t.Fatalf("counts %d %d", l.Count(EvDemandUpdate), l.Count(EvSafetyValve))
	}
	ev := l.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestLogRingEviction(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 7; i++ {
		l.Emit(Event{At: units.Virtual(time.Duration(i)), Type: EvQueryAdmit, A: float64(i)})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if l.Count(EvQueryAdmit) != 7 {
		t.Fatalf("count = %d, want 7 (counters stay exact under eviction)", l.Count(EvQueryAdmit))
	}
	if l.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", l.Dropped())
	}
	ev := l.Events()
	want := []float64{4, 5, 6}
	for i, e := range ev {
		if e.A != want[i] {
			t.Fatalf("event %d A = %g, want %g", i, e.A, want[i])
		}
	}
}

func TestLogSampling(t *testing.T) {
	l := NewLog(0)
	l.SetSampling(EvQueryAdmit, 4)
	for i := 0; i < 10; i++ {
		l.Emit(Event{Type: EvQueryAdmit})
		l.Emit(Event{Type: EvQueryComplete})
	}
	if l.Count(EvQueryAdmit) != 10 {
		t.Fatalf("sampled counter = %d, want exact 10", l.Count(EvQueryAdmit))
	}
	admits := 0
	for _, e := range l.Events() {
		if e.Type == EvQueryAdmit {
			admits++
		}
	}
	if admits != 2 { // every 4th of 10
		t.Fatalf("buffered admits = %d, want 2", admits)
	}
	if l.Count(EvQueryComplete) != 10 {
		t.Fatalf("unsampled type affected: %d", l.Count(EvQueryComplete))
	}
}

func TestWriteJSONLFormat(t *testing.T) {
	l := NewLog(0)
	l.Emit(Event{At: units.Virtual(1500 * time.Millisecond), Type: EvConfigApply, Socket: 1, A: 1e-05, B: 16, S: `c8"x`})
	l.Emit(Event{At: units.Virtual(2 * time.Second), Type: EvTTVBroadcast, Socket: -1, A: -1})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t_ns":1500000000,"type":"ConfigApply","socket":1,"a":1e-05,"b":16,"c":0,"s":"c8\"x"}
{"t_ns":2000000000,"type":"TTVBroadcast","socket":-1,"a":-1,"b":0,"c":0}
`
	if buf.String() != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	build := func() string {
		l := NewLog(0)
		for i := 0; i < 100; i++ {
			l.Emit(Event{At: units.Virtual(time.Duration(i) * time.Millisecond), Type: Type(i % numTypes),
				Socket: i % 2, A: float64(i) * 0.1, B: float64(i) * 0.01, S: "k"})
		}
		var buf bytes.Buffer
		if err := l.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatal("same event sequence produced different JSONL bytes")
	}
}

func TestTypeStrings(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < numTypes; i++ {
		s := Type(i).String()
		if s == "" || s == "Unknown" {
			t.Fatalf("type %d has no name", i)
		}
		if seen[s] {
			t.Fatalf("duplicate type name %q", s)
		}
		seen[s] = true
	}
	if Type(200).String() != "Unknown" {
		t.Fatal("out-of-range type not Unknown")
	}
}
