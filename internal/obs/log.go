package obs

import (
	"io"
	"strconv"
)

// Log is the decision event sink: an optionally bounded ring buffer plus
// exact per-type counters. A nil *Log accepts all operations as no-ops,
// so instrumentation sites need no enabled/disabled branching beyond the
// cheap guard Enabled() provides for payloads that are expensive to
// build (configuration keys, mode strings).
//
// The counters are always exact even when the ring evicts old events or
// a sampling rate drops some: analysis that only needs totals (the
// explain report's summary lines, the facade's Events map) never loses
// information to capacity limits.
type Log struct {
	events []Event
	// start indexes the oldest event once the ring has wrapped.
	start   int
	wrapped bool
	cap     int
	counts  [numTypes]uint64
	dropped uint64
	// buffered counts events ever stored in the buffer — ring overwrites
	// included, sampling drops excluded — monotonically. Consumers that
	// stream the log incrementally (the serving layer) use it as a delta
	// cursor that survives ring eviction, which Len() does not.
	buffered uint64
	// sampleEvery[t] > 1 keeps only every Nth event of type t in the
	// buffer (counters still count all). sampleSeen is the deterministic
	// modulo state.
	sampleEvery [numTypes]uint32
	sampleSeen  [numTypes]uint32
}

// NewLog returns an enabled event log. capacity > 0 bounds the buffer to
// the most recent capacity events (older ones are evicted and counted in
// Dropped); capacity <= 0 keeps every event.
func NewLog(capacity int) *Log {
	if capacity < 0 {
		capacity = 0
	}
	return &Log{cap: capacity}
}

// Enabled reports whether the log records events. Instrumentation sites
// use it to skip building allocation-heavy payloads (strings) when no
// observer is attached.
func (l *Log) Enabled() bool { return l != nil }

// SetSampling keeps only every nth event of type t in the buffer; the
// per-type counter still counts every emission. n <= 1 disables sampling
// for the type. Deterministic: the modulo state advances per emission.
func (l *Log) SetSampling(t Type, n uint32) {
	if l == nil || int(t) >= numTypes {
		return
	}
	if n <= 1 {
		n = 0
	}
	l.sampleEvery[t] = n
	l.sampleSeen[t] = 0
}

// Emit records an event. Nil-safe and allocation-free on the disabled
// path; on the enabled path the only allocations are the amortized ring
// growth.
//
//ecllint:hotpath called for every instrumented event, enabled or not
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	t := int(e.Type)
	if t >= numTypes {
		return
	}
	l.counts[t]++
	if n := l.sampleEvery[t]; n > 1 {
		l.sampleSeen[t]++
		if l.sampleSeen[t]%n != 0 {
			l.dropped++
			return
		}
	}
	l.buffered++
	if l.cap > 0 && len(l.events) >= l.cap {
		// Overwrite the oldest slot.
		l.events[l.start] = e
		l.start++
		if l.start == l.cap {
			l.start = 0
		}
		l.wrapped = true
		l.dropped++
		return
	}
	//ecllint:allow hotpath amortized ring growth, bounded by the configured capacity
	l.events = append(l.events, e)
}

// Len returns the number of buffered events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// Count returns the exact number of emissions of type t, independent of
// buffer capacity and sampling.
func (l *Log) Count(t Type) uint64 {
	if l == nil || int(t) >= numTypes {
		return 0
	}
	return l.counts[t]
}

// Total returns the exact number of emissions across all types.
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	var n uint64
	for i := 0; i < numTypes; i++ {
		n += l.counts[i]
	}
	return n
}

// Buffered returns how many events were ever stored in the buffer,
// including ones the ring has since evicted. The sequence is monotonic,
// so two snapshots' Buffered values bound exactly how many of the newer
// snapshot's Events() are unseen: the last Buffered(new)-Buffered(old)
// of them (clamped to Len when eviction outran the consumer).
func (l *Log) Buffered() uint64 {
	if l == nil {
		return 0
	}
	return l.buffered
}

// Dropped returns how many emissions were not buffered (ring eviction or
// sampling).
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Events returns the buffered events oldest-first. The returned slice is
// freshly allocated; mutating it does not affect the log.
func (l *Log) Events() []Event {
	if l == nil || len(l.events) == 0 {
		return nil
	}
	out := make([]Event, 0, len(l.events))
	if l.wrapped {
		out = append(out, l.events[l.start:]...)
		out = append(out, l.events[:l.start]...)
	} else {
		out = append(out, l.events...)
	}
	return out
}

// WriteJSONL writes the buffered events oldest-first, one JSON object per
// line. The encoding is hand-rolled with strconv so the byte stream is a
// pure function of the event sequence: field order is fixed, floats use
// Go's shortest-round-trip formatting, and the optional string payload is
// emitted only when present.
func (l *Log) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	buf := make([]byte, 0, 128)
	writeOne := func(e Event) error {
		buf = buf[:0]
		buf = append(buf, `{"t_ns":`...)
		buf = strconv.AppendInt(buf, e.At.Nanos(), 10)
		buf = append(buf, `,"type":"`...)
		buf = append(buf, e.Type.String()...)
		buf = append(buf, `","socket":`...)
		buf = strconv.AppendInt(buf, int64(e.Socket), 10)
		buf = append(buf, `,"a":`...)
		buf = appendJSONFloat(buf, e.A)
		buf = append(buf, `,"b":`...)
		buf = appendJSONFloat(buf, e.B)
		buf = append(buf, `,"c":`...)
		buf = appendJSONFloat(buf, e.C)
		if e.S != "" {
			buf = append(buf, `,"s":`...)
			buf = strconv.AppendQuote(buf, e.S)
		}
		buf = append(buf, "}\n"...)
		_, err := w.Write(buf)
		return err
	}
	if l.wrapped {
		for _, e := range l.events[l.start:] {
			if err := writeOne(e); err != nil {
				return err
			}
		}
		for _, e := range l.events[:l.start] {
			if err := writeOne(e); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range l.events {
		if err := writeOne(e); err != nil {
			return err
		}
	}
	return nil
}

// appendJSONFloat appends a JSON-legal rendering of f: shortest
// round-trip decimal, with non-finite values (never produced by the
// instrumentation, but JSON has no encoding for them) mapped to null.
func appendJSONFloat(buf []byte, f float64) []byte {
	if f != f || f > maxFinite || f < -maxFinite {
		return append(buf, "null"...)
	}
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}

const maxFinite = 1.7976931348623157e308
