// Tests for the live serving surface. These run with -race in check.sh:
// the snapshot handoff between the simulated "sim thread" and the HTTP
// handlers is exactly the boundary the race detector must find clean.
//
// The test package imports internal/sim to drive real runs; the layering
// analyzer exempts test files, so this does not widen sim's restricted
// import set.
package serve_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/trace"
	"ecldb/internal/serve"
	"ecldb/internal/sim"
	"ecldb/internal/workload"
)

// newObserver builds the observer configuration both halves of the
// neutrality proof share: a bounded event ring (the serving default) and
// 1-in-3 query tracing.
func newObserver() *obs.Observer {
	ob := obs.New(4096)
	ob.Trace = trace.New(3)
	return ob
}

// simOptions is the shared short-run configuration.
func simOptions(ob *obs.Observer) sim.Options {
	return sim.Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: 6000, Len: 6 * time.Second},
		Governor: sim.GovernorECL,
		Prewarm:  true,
		Seed:     42,
		Obs:      ob,
	}
}

// digest folds every exported observable of a finished run into one hash:
// the recorded time series CSV, the decision-event JSONL, the Prometheus
// exposition, the explain report, and the Perfetto trace. Identical bytes
// here mean the runs are indistinguishable to every consumer the repo has.
func digest(t *testing.T, res *sim.Result, ob *obs.Observer) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := res.Rec.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(h, res.EnergyJ.Joules(), res.PSUEnergyJ.Joules(), res.Completed, res.Submitted, res.Violations)
	if err := ob.Log.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	if err := ob.Metrics.WriteProm(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(h, ob.Explain())
	if err := ob.Trace.WritePerfetto(h); err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func runSim(t *testing.T, opts sim.Options) *sim.Result {
	t.Helper()
	s, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sseFrame is one parsed frame of the /events stream.
type sseFrame struct {
	Event string
	Data  []byte
}

// readFrames consumes the SSE stream until the done frame (or EOF),
// returning every frame in order. Comment keepalives are skipped.
func readFrames(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
				if cur.Event == "done" {
					return frames
				}
				cur = sseFrame{}
			}
		}
	}
	return frames
}

// TestServeMetricsGolden pins the Prometheus endpoint byte for byte:
// Content-Type of the text exposition format, bytewise-sorted metric
// families, label handling, and HELP escaping — all through a real HTTP
// round trip over the snapshot path.
func TestServeMetricsGolden(t *testing.T) {
	ob := obs.New(0)
	// Register deliberately out of sorted order.
	ob.Metrics.Gauge("z_last").Set(9)
	ob.Metrics.Counter("a_total").Add(3)
	ob.Metrics.Gauge(`m_mid{socket="1"}`).Set(2)
	ob.Metrics.Gauge(`m_mid{socket="0"}`).Set(1)
	ob.Metrics.SetHelp("m_mid", "help with \n newline and \\ backslash")

	srv := serve.NewServer(serve.Meta{Title: "golden"})
	ch := make(chan *serve.Snapshot, 1)
	ch <- &serve.Snapshot{Seq: 1, At: time.Second, Done: true, Obs: ob.Snapshot()}
	close(ch)
	srv.Run(ch)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4"; got != want {
		t.Errorf("Content-Type = %q, want %q", got, want)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a_total counter\n" +
		"a_total 3\n" +
		"# HELP m_mid help with \\n newline and \\\\ backslash\n" +
		"# TYPE m_mid gauge\n" +
		"m_mid{socket=\"0\"} 1\n" +
		"m_mid{socket=\"1\"} 2\n" +
		"# TYPE z_last gauge\n" +
		"z_last 9\n"
	if string(body) != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestServeMetricsBeforeFirstSnapshot: a scrape before the sim publishes
// anything is a healthy, empty exposition — not an error.
func TestServeMetricsBeforeFirstSnapshot(t *testing.T) {
	ts := httptest.NewServer(serve.NewServer(serve.Meta{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Errorf("empty server scrape: status %d body %q", resp.StatusCode, body)
	}
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4"; got != want {
		t.Errorf("Content-Type = %q, want %q", got, want)
	}
}

// TestServeEndToEnd is the serving smoke test: a real (short) ECL run
// with the publisher attached, the dashboard, /metrics, and /events all
// exercised over HTTP while the simulation is in flight. It asserts the
// stream carries a hello frame first, at least one sample and one typed
// decision event, spans from the attached tracer, and a final done frame.
func TestServeEndToEnd(t *testing.T) {
	ob := newObserver()
	opts := simOptions(ob)
	runLen := 4 * time.Second
	opts.Load = loadprofile.Constant{Qps: 6000, Len: runLen}

	pub := serve.NewPublisher(ob, 0)
	opts.Hook = pub
	srv := serve.NewServer(serve.Meta{
		Title: "e2e", Workload: "kv", Level: "full",
		Sockets: 2, Threads: 48,
		DurationNs: runLen.Nanoseconds(), Seed: 42, QTraceEvery: 3,
	})
	go srv.Run(pub.Snapshots())

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Subscribe before the run starts so no frame can be missed.
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("/events Content-Type = %q", got)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // scrape /metrics while the run is live (race-detector food)
		defer wg.Done()
		for i := 0; i < 20; i++ {
			r, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, r.Body)
			r.Body.Close()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	done := make(chan *sim.Result, 1)
	go func() {
		s, err := sim.New(opts)
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		res, err := s.Run()
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	frames := readFrames(t, resp.Body)
	wg.Wait()
	if res := <-done; res == nil {
		t.Fatal("simulation did not finish")
	}

	if len(frames) == 0 || frames[0].Event != "hello" {
		t.Fatalf("first frame = %+v, want hello", frames)
	}
	var hello struct {
		Meta serve.Meta `json:"meta"`
	}
	if err := json.Unmarshal(frames[0].Data, &hello); err != nil {
		t.Fatalf("hello payload: %v", err)
	}
	if hello.Meta.Title != "e2e" || hello.Meta.Sockets != 2 {
		t.Errorf("hello meta = %+v", hello.Meta)
	}

	counts := map[string]int{}
	decisionEvents := 0
	spanCount := 0
	for _, f := range frames {
		counts[f.Event]++
		switch f.Event {
		case "decisions":
			var d struct {
				Events []struct {
					Type string `json:"type"`
				} `json:"events"`
			}
			if err := json.Unmarshal(f.Data, &d); err != nil {
				t.Fatalf("decisions payload: %v", err)
			}
			for _, e := range d.Events {
				if e.Type == "" {
					t.Error("decision event with empty type")
				}
				if e.Type == "QueryAdmit" || e.Type == "QueryComplete" {
					t.Errorf("decision stream leaked load event %s", e.Type)
				}
			}
			decisionEvents += len(d.Events)
		case "spans":
			var s struct {
				Queries []json.RawMessage `json:"queries"`
			}
			if err := json.Unmarshal(f.Data, &s); err != nil {
				t.Fatalf("spans payload: %v", err)
			}
			spanCount += len(s.Queries)
		}
	}
	if counts["sample"] == 0 {
		t.Error("no sample frames streamed")
	}
	if decisionEvents == 0 {
		t.Error("no decision events streamed")
	}
	if spanCount == 0 {
		t.Error("no query spans streamed")
	}
	if counts["done"] != 1 {
		t.Errorf("done frames = %d, want 1", counts["done"])
	}

	// The final exposition must now be the run's full metric surface.
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, name := range []string{"hw_power_rapl_w", "hw_core_mhz{socket=\"0\"}", "dodb_latency_p99_ms"} {
		if !bytes.Contains(body, []byte(name)) {
			t.Errorf("final /metrics missing %s", name)
		}
	}

	// And the dashboard serves from the same binary.
	r, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("/ Content-Type = %q", ct)
	}
	if !bytes.Contains(page, []byte("Zone residency")) || !bytes.Contains(page, []byte("EventSource")) {
		t.Error("embedded dashboard looks wrong")
	}

	// A late subscriber still gets the full picture: hello with history,
	// then an immediate done.
	resp2, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	late := readFrames(t, resp2.Body)
	if len(late) != 2 || late[0].Event != "hello" || late[1].Event != "done" {
		t.Fatalf("late subscription frames = %+v, want [hello done]", late)
	}
	var lateHello struct {
		Done    bool              `json:"done"`
		History []json.RawMessage `json:"history"`
	}
	if err := json.Unmarshal(late[0].Data, &lateHello); err != nil {
		t.Fatal(err)
	}
	if !lateHello.Done || len(lateHello.History) == 0 {
		t.Errorf("late hello: done=%v history=%d", lateHello.Done, len(lateHello.History))
	}
}

// TestServingBehaviorNeutral is the tentpole's acceptance proof: a run
// with the full serving stack attached — publisher hook, HTTP server,
// live /metrics scrapes and an SSE subscriber — produces a byte-identical
// determinism digest to a headless run, in both unpaced and paced modes.
// Under -race this also proves the snapshot handoff shares no memory.
func TestServingBehaviorNeutral(t *testing.T) {
	headlessOb := newObserver()
	headless := digest(t, runSim(t, simOptions(headlessOb)), headlessOb)

	for _, tc := range []struct {
		name string
		pace float64
	}{
		{"unpaced", 0},
		// 6 virtual seconds at 600x is ~10ms of wall sleep: enough to
		// exercise the pacing arithmetic without slowing the suite.
		{"paced", 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ob := newObserver()
			opts := simOptions(ob)
			pub := serve.NewPublisher(ob, tc.pace)
			opts.Hook = pub
			srv := serve.NewServer(serve.Meta{Title: "neutrality", Sockets: 2})
			go srv.Run(pub.Snapshots())
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // SSE subscriber for the whole run
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/events")
				if err != nil {
					return
				}
				defer resp.Body.Close()
				readFrames(t, resp.Body)
			}()
			go func() { // concurrent scraper
				defer wg.Done()
				for i := 0; i < 30; i++ {
					r, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						return
					}
					_, _ = io.Copy(io.Discard, r.Body)
					r.Body.Close()
					time.Sleep(2 * time.Millisecond)
				}
			}()

			served := digest(t, runSim(t, opts), ob)
			wg.Wait()
			if served != headless {
				t.Errorf("served run digest %x != headless digest %x: serving perturbed the simulation", served, headless)
			}
		})
	}
}
