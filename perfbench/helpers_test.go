package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/statespace"
	"repro/internal/throttle"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // unsorted on purpose
	}
	v, pct, ok := tail(samples, tailMinBeyond)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v (p%v, ok=%v), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, s := range samples {
		if s > v {
			beyond++
		}
	}
	if beyond != tailMinBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailMinBeyond)
	}

	if _, _, ok := tail(samples[:tailMinBeyond], tailMinBeyond); ok {
		t.Fatal("tail of 10 samples must not exist: none can have 10 beyond it")
	}
	v, pct, ok = tail([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}, tailMinBeyond)
	if !ok || v != 1 || pct != 100.0/11 {
		t.Fatalf("tail of 11 samples = %v (p%v, ok=%v), want the minimum", v, pct, ok)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.99); got != 198 {
		t.Fatalf("p99 of 1..200 = %v, want 198", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, interval: 25 * time.Millisecond}
	if got := s.due(4); !got.Equal(start.Add(100 * time.Millisecond)) {
		t.Fatalf("due(4) = %v", got)
	}
	// Request 1 was due at 25ms, but its host was busy until 60ms with a
	// slow request 0; it finished at 62ms. Its latency counts the wait.
	due := s.due(1)
	if got := sinceDue(due, start.Add(62*time.Millisecond)); got != 37*time.Millisecond {
		t.Fatalf("latency %v, want 37ms", got)
	}
	// The generator dispatched it 3ms late.
	if got := sinceDue(due, start.Add(28*time.Millisecond)); got != 3*time.Millisecond {
		t.Fatalf("lag %v, want 3ms", got)
	}
	// A dispatch a tick early (timer granularity) is not negative lag.
	if got := sinceDue(due, due.Add(-time.Microsecond)); got != 0 {
		t.Fatalf("early dispatch lag %v, want 0", got)
	}
}

func TestParseResidentReadsKiB(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\nThreads:\t5\n"
	rss, hwm, err := parseResident(bufio.NewScanner(strings.NewReader(status)))
	if err != nil || rss != 1024<<10 || hwm != 2048<<10 {
		t.Fatalf("rss %d hwm %d err %v, want %d and %d", rss, hwm, err, 1024<<10, 2048<<10)
	}
	if _, _, err := parseResident(bufio.NewScanner(strings.NewReader("VmRSS:\t1 kB\n"))); err == nil {
		t.Fatal("missing VmHWM accepted")
	}
}

// TestPeakGaugeSeesDroppedAllocation is the case a reading between periods
// misses: memory allocated, touched and dropped again before the reading.
func TestPeakGaugeSeesDroppedAllocation(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status")
	}
	g, err := startPeakGauge()
	if err != nil {
		t.Fatal(err)
	}
	const size = 64 << 20
	buf := make([]byte, size)
	for i := 0; i < size; i += 4096 {
		buf[i] = 1
	}
	runtime.KeepAlive(buf)
	buf = nil
	runtime.GC()
	peak, err := g.peak()
	if err != nil {
		t.Fatal(err)
	}
	if peak < size*9/10 {
		t.Fatalf("peak %d bytes above the base, want at least %d", peak, size*9/10)
	}
}

func TestEpisodeCountDependsOnRunLengthOnly(t *testing.T) {
	w := hostWorkload{episodeSeconds: 2.5}
	for _, c := range []struct {
		seconds time.Duration
		want    int
	}{{20 * time.Second, 8}, {21 * time.Second, 8}, {time.Second, 1}, {0, 1}} {
		if got := w.episodes(c.seconds); got != c.want {
			t.Errorf("episodes(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

func TestStopRecordsTheFailedCheck(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{errors.New("open ledger: denied"), "set-up"},
		{&checkError{"periods", errors.New("period 3: boom")}, "periods"},
		{fmt.Errorf("unprotected reference: %w", &checkError{"ledger released", errors.New("x")}), "ledger released"},
	} {
		o := (&outcome{attempted: 5}).stop(c.err)
		if o.attempted != 6 || o.failed != 1 {
			t.Errorf("%v: attempted %d failed %d, want 6 and 1", c.err, o.attempted, o.failed)
		}
		if len(o.checks) != 1 || o.checks[0].name != c.want || o.checks[0].ok {
			t.Errorf("%v: checks %+v, want one failed %q", c.err, o.checks, c.want)
		}
	}
}

// TestHostWorkloadErrorIsAFailedCheck runs the host runner on a workload
// whose build fails: the run must end with a failed check, not an abort.
func TestHostWorkloadErrorIsAFailedCheck(t *testing.T) {
	w := hostWorkload{warmup: 1, periods: 1, episodeSeconds: 1,
		build: func(int64, bool, *tracer, string) (*hostRig, error) { return nil, errors.New("no host") }}
	dir := t.TempDir()
	o := runHost(w, runConfig{name: "broken", seed: 1, seconds: time.Second, out: dir, work: dir}, false)
	if o.failed != 1 || len(o.checks) != 1 || o.checks[0].ok || o.checks[0].name != "set-up" {
		t.Fatalf("failed %d checks %+v, want one failed set-up check", o.failed, o.checks)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "core.period", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "env.collect", Start: 10 * ms, End: 30 * ms},
		// Overlaps the first child: the overlap counts once.
		{ID: 3, Parent: 1, Name: "throttle.actuate", Start: 20 * ms, End: 50 * ms},
		// Runs past the parent's end: only the part inside counts.
		{ID: 4, Parent: 1, Name: "throttle.actuate", Start: 90 * ms, End: 120 * ms},
		// A grandchild covers part of its own parent only.
		{ID: 5, Parent: 3, Name: "sim.actuate", Start: 25 * ms, End: 35 * ms},
	}
	got := selfTimes(spans)
	if p := got["core.period"]; p.Count != 1 || p.Total != 100*ms || p.Self != 50*ms {
		t.Fatalf("core.period = %+v, want self 50ms of 100ms", p)
	}
	if a := got["throttle.actuate"]; a.Count != 2 || a.Total != 60*ms || a.Self != 50*ms {
		t.Fatalf("throttle.actuate = %+v, want self 50ms of 60ms", a)
	}
	if m := got["throttle.actuate"].meanSelfMS(); m != 25 {
		t.Fatalf("mean self = %vms, want 25", m)
	}
}

func TestTracerNestsHostLoopSpans(t *testing.T) {
	var nilTracer *tracer
	nilTracer.leave(nilTracer.enter("x")) // untraced runs: no-ops
	nilTracer.setOp(1)
	if nilTracer.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}

	tr := newTracer()
	tr.setOp(7)
	outer := tr.enter("core.period")
	inner := tr.enter("env.collect")
	tr.leave(inner)
	sibling := tr.enter("throttle.actuate")
	tr.leave(sibling)
	tr.leave(outer)
	tr.begin("never.closed", 0, 0)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d closed spans, want 3", len(spans))
	}
	for _, s := range spans[1:] {
		if s.Parent != outer || s.Op != 7 {
			t.Fatalf("span %+v: want parent %d and op 7", s, outer)
		}
	}
	if spans[0].Parent != 0 || tr.cur != 0 {
		t.Fatalf("root span parent %d, current %d after leaving all", spans[0].Parent, tr.cur)
	}
}

// plainActuator implements only throttle.Actuator.
type plainActuator struct{ pauses int }

func (p *plainActuator) Pause([]string) error  { p.pauses++; return nil }
func (p *plainActuator) Resume([]string) error { return nil }

func TestActuatorWrapperForwardsGrading(t *testing.T) {
	tr := newTracer()
	plain := &plainActuator{}
	w, probe := wrapActuator(plain, "throttle.actuate", tr)
	if _, graded := w.(throttle.GradedActuator); graded {
		t.Fatal("wrapper over a non-graded actuator claims to be graded")
	}
	if err := w.Pause([]string{"b"}); err != nil || plain.pauses != 1 || probe.calls != 1 {
		t.Fatalf("pause not forwarded: err %v pauses %d calls %d", err, plain.pauses, probe.calls)
	}

	rec := throttle.NewRecordingActuator()
	w, probe = wrapActuator(rec, "throttle.actuate", tr)
	g, graded := w.(throttle.GradedActuator)
	if !graded {
		t.Fatal("wrapper over a graded actuator hides SetLevel")
	}
	if err := g.SetLevel([]string{"b"}, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := rec.Level("b"); got != 0.25 || probe.calls != 1 {
		t.Fatalf("SetLevel not forwarded: level %v calls %d", got, probe.calls)
	}
	if times := selfTimes(tr.snapshot()); times["throttle.actuate"].Count != 2 {
		t.Fatalf("want one span per actuation, got %+v", times)
	}
}

// fakeStore is an in-memory fleet.Store that answers every call empty.
type fakeStore struct{ puts int }

func (f *fakeStore) Put(string, *statespace.Template) (*registry.Entry, error) {
	f.puts++
	return &registry.Entry{}, nil
}
func (f *fakeStore) Get(string, string) (*registry.Entry, bool) { return nil, false }
func (f *fakeStore) DeltaSince(string, string, int) (*statespace.TemplateDelta, bool) {
	return nil, false
}
func (f *fakeStore) Entries() []*registry.Entry { return nil }
func (f *fakeStore) Len() int                   { return 0 }

func TestTracedStoreParentsToRequestInFlight(t *testing.T) {
	tr := newTracer()
	inner := &fakeStore{}
	sid := tr.begin("fleet.put", 0, 3)
	store := &tracedStore{inner: inner, t: tr, parent: func(host string) int64 {
		if host == "h" {
			return sid
		}
		return 0
	}}
	if _, err := store.Put("h", &statespace.Template{}); err != nil || inner.puts != 1 {
		t.Fatalf("put not forwarded: %v", err)
	}
	tr.end(sid)
	store.DeltaSince("a", "", 1)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].Name != "registry.put" || spans[1].Parent != sid || spans[2].Parent != 0 {
		t.Fatalf("spans %+v: want registry.put under the request, delta_since a root", spans)
	}
}

// closingTransport records CloseIdleConnections and serves fixed bodies.
type closingTransport struct {
	closed atomic.Bool
	body   string
}

func (c *closingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader(c.body)), Request: req}, nil
}

func (c *closingTransport) CloseIdleConnections() { c.closed.Store(true) }

func TestCountingTransportCountsAndForwards(t *testing.T) {
	inner := &closingTransport{body: "0123456789"}
	ct := &countingTransport{inner: inner}
	client := &http.Client{Transport: ct}

	put, _ := http.NewRequest(http.MethodPut, "http://x/v1/templates/a", strings.NewReader("abcd"))
	resp, err := client.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	for _, path := range []string{"/v1/templates/a/delta", "/v1/templates/a"} {
		resp, err := client.Get("http://x" + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if ct.putBytes.Load() != 4 || ct.deltaBytes.Load() != 10 {
		t.Fatalf("counted put %d delta %d bytes, want 4 and 10", ct.putBytes.Load(), ct.deltaBytes.Load())
	}
	client.CloseIdleConnections()
	if !inner.closed.Load() {
		t.Fatal("CloseIdleConnections not forwarded to the inner transport")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workloads and metric tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Unit string
	}
	var bench struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names, gated []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !byHand[name] {
			gated = append(gated, name)
		}
	}
	sort.Strings(names)
	sort.Strings(gated)
	if got, want := strings.Join(names, ", "), strings.Join(gated, ", "); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program's gated workloads %s", got, want)
	}
	for _, c := range []struct {
		section string
		json    []named
		defs    []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", c.section, len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.section, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestStartFleetSeedsReplicaThroughStream(t *testing.T) {
	in := newFleetInputs(3)
	p, err := startFleet(in, t.TempDir(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	if got := p.hub.Stats().Active; got != 1 {
		t.Fatalf("%d subscribers attached, want 1", got)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, app := range in.apps {
		if p.replicaAt[app] != 1 || len(p.replica[app].States) != len(in.base[app].States) {
			t.Fatalf("%s: replica at revision %d, want the seed (revision 1)", app, p.replicaAt[app])
		}
	}
}

func TestTailLabelTellsThePercentileFrom100(t *testing.T) {
	for _, c := range []struct {
		pct  float64
		n    int
		want string
	}{{98.9, 912, "p98.9 of 912"}, {99.5, 2000, "p99.50 of 2000"}, {100 * 261453.0 / 261464, 261464, "p99.9958 of 261464"}} {
		if got := tailLabel(c.pct, c.n); got != c.want {
			t.Errorf("tailLabel(%v, %d) = %q, want %q", c.pct, c.n, got, c.want)
		}
	}
}
