package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/statespace"
	"repro/internal/stream"
	"repro/internal/throttle"
)

// hostStep scripts one period of the fake host: the shared batch load,
// whether the sensitive applications report a violation, and whether
// every workload has exited.
type hostStep struct {
	batchCPU  float64
	violation bool
	exited    bool
}

// rampScript ramps the batch load into a violation, backs off, and
// ramps again: a lane learns the violation on the first ramp and
// throttles ahead of it on the second.
func rampScript() []hostStep {
	var script []hostStep
	for cpu := 40.0; cpu <= 360; cpu += 40 {
		script = append(script, hostStep{batchCPU: cpu})
	}
	script = append(script, hostStep{batchCPU: 390, violation: true})
	for cpu := 360.0; cpu >= 40; cpu -= 40 {
		script = append(script, hostStep{batchCPU: cpu})
	}
	for cpu := 40.0; cpu <= 390; cpu += 40 {
		script = append(script, hostStep{batchCPU: cpu})
	}
	return script
}

// testHost is a fake host and the loop's lane hook at once: every
// sensitive group it collects reports the same load next to batch
// container "b1", and every lane reads the scripted violation. Groups
// in failAdd cannot be collected. It is only touched from the loop's
// goroutine while the loop runs.
type testHost struct {
	script  []hostStep
	cur     hostStep
	periods int
	groups  map[string]bool
	failAdd map[string]bool
	// panicAt makes QoSViolation panic from that period on (0 = never).
	panicAt int
}

func (h *testHost) Collect() []metrics.Sample {
	if h.periods < len(h.script) {
		h.cur = h.script[h.periods]
	}
	h.periods++
	out := []metrics.Sample{metrics.NewSample("b1", map[metrics.Metric]float64{
		metrics.MetricCPU: h.cur.batchCPU, metrics.MetricMemory: 500,
	})}
	for g := range h.groups {
		out = append(out, metrics.NewSample(g, map[metrics.Metric]float64{
			metrics.MetricCPU: 150, metrics.MetricMemory: 500,
		}))
	}
	metrics.SortSamples(out)
	return out
}

func (h *testHost) BatchRunning() bool { return !h.cur.exited }
func (h *testHost) BatchActive() bool  { return !h.cur.exited }

func (h *testHost) AddGroup(group string) error {
	if h.failAdd[group] || h.groups[group] {
		return fmt.Errorf("cannot collect group %q", group)
	}
	h.groups[group] = true
	return nil
}

func (h *testHost) RemoveGroup(group string) { delete(h.groups, group) }

func (h *testHost) Signals(group, _ string) (core.LaneSignals, error) {
	if !h.groups[group] {
		return nil, fmt.Errorf("group %q is not collected", group)
	}
	return testSignals{h}, nil
}

// testSignals reads one lane's signals off the fake host.
type testSignals struct{ h *testHost }

func (s testSignals) QoSViolation() bool {
	if s.h.panicAt > 0 && s.h.periods >= s.h.panicAt {
		panic("injected QoS fault")
	}
	return s.h.cur.violation
}

func (s testSignals) SensitiveRunning() bool { return !s.h.cur.exited }

var (
	_ core.HostEnvironment = (*testHost)(nil)
	_ LaneHook             = (*testHost)(nil)
)

// lockedBuffer is a log sink the loop and the watchdog may share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// fixture is a loop over a fake host, a recording actuator and a counted
// release.
type fixture struct {
	env      *testHost
	act      *throttle.RecordingActuator
	host     *core.HostRuntime
	loop     *Loop
	releases atomic.Int32
	out, err lockedBuffer
}

func testRanges() map[metrics.Metric]metrics.Range {
	return metrics.DefaultRanges(4, 4096, 200, 1000)
}

// testLaneConfig is the fixture's core.Config factory. An application
// named "broken" gets a config the host rejects.
func testLaneConfig(group, app string) core.Config {
	cfg := core.DefaultConfig(group, []string{"b1"}, testRanges())
	cfg.SensitiveApp = app
	if app == "broken" {
		cfg.Ranges = nil
	}
	return cfg
}

// newFixture builds a loop with one lane per app, protecting cgroup
// "s/<app>", over script.
func newFixture(t *testing.T, script []hostStep, apps ...string) *fixture {
	t.Helper()
	f := &fixture{
		env: &testHost{script: script, groups: map[string]bool{}, failAdd: map[string]bool{}},
		act: throttle.NewRecordingActuator(),
	}
	host, err := core.NewHost(f.env, f.act)
	if err != nil {
		t.Fatal(err)
	}
	f.host = host
	f.loop = &Loop{
		Host: host,
		Env:  f.env,
		Release: func() error {
			f.releases.Add(1)
			return host.Release()
		},
		Board:      NewBoard(),
		Hook:       f.env,
		LaneConfig: testLaneConfig,
		Out:        &f.out,
		Err:        &f.err,
	}
	for _, app := range apps {
		if _, err := f.loop.addLane(LaneDef{App: app, SensitiveCgroup: "s/" + app, QoSFile: app + ".qos"}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// running is a loop started on a hand-driven tick channel.
type running struct {
	t      *testing.T
	ticks  chan time.Time
	cancel context.CancelFunc
	done   chan error
}

func (f *fixture) start(t *testing.T) *running {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{t: t, ticks: make(chan time.Time), cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- f.loop.Run(ctx, r.ticks) }()
	t.Cleanup(cancel)
	return r
}

// step sends n ticks. The loop receives a tick only once the previous
// period is over, so afterwards every period but the last is complete.
func (r *running) step(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		select {
		case r.ticks <- time.Time{}:
		case err := <-r.done:
			r.t.Fatalf("loop exited early at tick %d: %v", i, err)
		}
	}
}

// wait returns Run's result.
func (r *running) wait() error {
	r.t.Helper()
	select {
	case err := <-r.done:
		return err
	case <-time.After(10 * time.Second):
		r.t.Fatal("loop did not exit")
		return nil
	}
}

// stop cancels the loop and returns Run's result.
func (r *running) stop() error {
	r.cancel()
	return r.wait()
}

func TestLoopRunRequiresWiring(t *testing.T) {
	if err := (&Loop{}).Run(context.Background(), make(chan time.Time)); err == nil {
		t.Error("a loop without a host ran")
	}
}

func TestLoopRunRequiresClock(t *testing.T) {
	f := newFixture(t, rampScript(), "web")
	if err := f.loop.Run(context.Background(), nil); err == nil {
		t.Error("a loop without a tick channel ran")
	}
	f.loop.WatchdogGrace = 3 // with no period to count in
	if err := f.loop.Run(context.Background(), make(chan time.Time)); err == nil {
		t.Error("a watchdog without a period ran")
	}
	if n := f.releases.Load(); n != 0 {
		t.Errorf("a rejected loop ran the final release %d times", n)
	}
}

func TestLoopRunsOnePeriodPerTick(t *testing.T) {
	f := newFixture(t, rampScript(), "web")
	lane := f.loop.Lanes[0].Core
	r := f.start(t)
	r.step(10)
	close(r.ticks)
	if err := r.wait(); err != nil {
		t.Fatal(err)
	}
	if got := lane.Report().Periods; got != 10 {
		t.Errorf("lane ran %d periods for 10 ticks", got)
	}
	if got := f.host.Periods(); got != 10 {
		t.Errorf("host ran %d periods for 10 ticks", got)
	}
	if s := f.loop.Board.Snapshot(); s.Periods != 10 || s.Ready {
		t.Errorf("board after exit = %d periods, ready %v; want 10, not ready", s.Periods, s.Ready)
	}
	if !strings.Contains(f.out.String(), "periods=10 ") {
		t.Errorf("exit report missing:\n%s", f.out.String())
	}
}

func TestLoopCadencesDefaultToThirtyPeriods(t *testing.T) {
	reg := newTestRegistry(t)
	f := newFixture(t, rampScript(), "web")
	f.loop.Lanes[0].Syncer = reg.hostSyncer(t).Lane("web")
	r := f.start(t)
	close(r.ticks)
	if err := r.wait(); err != nil {
		t.Fatal(err)
	}
	if f.loop.SyncEvery != 30 || f.loop.CheckpointEvery != 30 {
		t.Errorf("cadences default to %d/%d periods, want 30/30", f.loop.SyncEvery, f.loop.CheckpointEvery)
	}
}

// TestLoopStopsOnContextCancel: a cancelled context stops a loop that
// is idle between ticks, and no period runs after it.
func TestLoopStopsOnContextCancel(t *testing.T) {
	f := newFixture(t, rampScript(), "web")
	r := f.start(t)
	r.step(3)
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	if got := f.host.Periods(); got != 3 {
		t.Errorf("host ran %d periods for 3 ticks before the cancel", got)
	}
	select {
	case r.ticks <- time.Time{}:
		t.Error("a stopped loop took another tick")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestLoopReleasesOnEveryExit checks each exit path: the final release
// runs exactly once before Run returns and nothing stays frozen; a clean
// exit also drains every lane out of the host.
func TestLoopReleasesOnEveryExit(t *testing.T) {
	exitAt := rampScript()[:24]
	exitAt[23].exited = true
	for _, tc := range []struct {
		name   string
		script []hostStep
		// drive runs the loop into its exit and returns Run's result.
		drive   func(r *running) error
		panicAt int
	}{
		{"context-cancel", rampScript(), func(r *running) error { r.step(24); return r.stop() }, 0},
		{"tick-close", rampScript(), func(r *running) error { r.step(24); close(r.ticks); return r.wait() }, 0},
		{"workloads-exited", exitAt, func(r *running) error { r.step(24); return r.wait() }, 0},
		{"panic", rampScript(), func(r *running) error { r.step(24); return r.wait() }, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, tc.script, "web")
			f.env.panicAt = tc.panicAt
			err := tc.drive(f.start(t))
			if tc.panicAt > 0 {
				if err == nil || !strings.Contains(err.Error(), "panic") {
					t.Fatalf("Run = %v, want the absorbed panic", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if n := f.releases.Load(); n != 1 {
				t.Errorf("final release ran %d times, want 1", n)
			}
			if frozen := f.act.Paused(); len(frozen) != 0 {
				t.Errorf("still frozen after Run returned: %v", frozen)
			}
			paused := false
			for _, ev := range f.act.Events() {
				paused = paused || ev.Action == throttle.ActionPause
			}
			if !paused {
				t.Error("the ramp never throttled; the release had nothing to prove")
			}
			// The drain goes through the arbiter on a clean exit only.
			if drained := len(f.host.Apps()) == 0; drained == (tc.panicAt > 0) {
				t.Errorf("lanes left in the host: %v", f.host.Apps())
			}
			if f.loop.Board.Snapshot().Ready {
				t.Error("board still ready after exit")
			}
			announced := strings.Contains(f.out.String(), "all monitored workloads exited")
			if announced != (tc.name == "workloads-exited") {
				t.Errorf("workload exit announced: %v\n%s", announced, f.out.String())
			}
		})
	}
}

func TestLoopAbsorbsPanicWithoutFinalCheckpointOrPush(t *testing.T) {
	reg := newTestRegistry(t)
	f := newFixture(t, rampScript(), "web")
	f.env.panicAt = 5
	ln := f.loop.Lanes[0]
	ln.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	ln.Syncer = reg.hostSyncer(t).Lane("web")
	// Neither cadence fires before the panic: only an exit flush could.
	f.loop.SyncEvery, f.loop.CheckpointEvery = 1000, 1000
	r := f.start(t)
	r.step(5)
	if err := r.wait(); err == nil || !strings.Contains(err.Error(), "injected QoS fault") {
		t.Fatalf("Run = %v, want the absorbed panic", err)
	}
	if f.releases.Load() != 1 {
		t.Error("fail-safe release skipped after a panic")
	}
	if _, err := os.Stat(ln.CheckpointPath); !os.IsNotExist(err) {
		t.Errorf("checkpoint written after a panic (stat err %v)", err)
	}
	if n := reg.puts.Load(); n != 0 {
		t.Errorf("%d pushes after a panic", n)
	}
}

func TestLoopCheckpointCadenceAndFinalCheckpoint(t *testing.T) {
	f := newFixture(t, rampScript(), "web")
	ln := f.loop.Lanes[0]
	ln.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	f.loop.CheckpointEvery = 5
	periodsOnDisk := func() int {
		t.Helper()
		ck, err := resilience.LoadCheckpoint(ln.CheckpointPath)
		if err != nil || ck == nil {
			t.Fatalf("checkpoint = %v, %v", ck, err)
		}
		return ck.Periods
	}
	r := f.start(t)
	r.step(7)
	if got := periodsOnDisk(); got != 5 {
		t.Errorf("checkpoint after 6 periods holds %d, want the one from period 5", got)
	}
	r.step(5)
	if got := periodsOnDisk(); got != 10 {
		t.Errorf("checkpoint after 11 periods holds %d, want the one from period 10", got)
	}
	r.step(16)
	close(r.ticks)
	if err := r.wait(); err != nil {
		t.Fatal(err)
	}
	if got := periodsOnDisk(); got != 28 {
		t.Errorf("final checkpoint holds %d periods, want 28", got)
	}
}

// TestLoopCheckpointRestoresLearnedState: a restarted lane restoring the
// loop's final checkpoint keeps the learned map and β, so it throttles
// the second ramp ahead of the cold learning violation at period 9.
func TestLoopCheckpointRestoresLearnedState(t *testing.T) {
	f := newFixture(t, rampScript(), "web")
	ln := f.loop.Lanes[0]
	ln.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	r := f.start(t)
	r.step(28)
	close(r.ticks)
	if err := r.wait(); err != nil {
		t.Fatal(err)
	}
	ck, err := resilience.LoadCheckpoint(ln.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	g := newFixture(t, rampScript(), "web")
	lane := g.loop.Lanes[0].Core
	if err := lane.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if !lane.Space().HasViolations() || lane.Beta() != ln.Core.Beta() {
		t.Fatalf("restore lost the violation states or β (%v vs %v)", lane.Beta(), ln.Core.Beta())
	}
	for i := 0; i < 9; i++ {
		evs, err := g.host.Period()
		if err != nil {
			t.Fatal(err)
		}
		if evs[0].Action == throttle.ActionPause {
			return
		}
	}
	t.Error("restored lane did not throttle before the learning violation")
}

// testRegistry is a loopback fleet registry with an outage switch and
// counts of the accepted pushes and heartbeats.
type testRegistry struct {
	url        string
	reg        *registry.Registry
	down       atomic.Bool
	puts       atomic.Int32
	mu         sync.Mutex
	heartbeats []fleet.Heartbeat
}

func newTestRegistry(t *testing.T) *testRegistry {
	t.Helper()
	hub := stream.NewHub(stream.HubConfig{Epoch: 1})
	t.Cleanup(hub.Close)
	reg, err := registry.Open(registry.Config{OnPut: fleet.PublishHook(hub)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{Registry: reg, Hub: hub, StreamHeartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tr := &testRegistry{reg: reg}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tr.down.Load() {
			http.Error(w, "registry down", http.StatusServiceUnavailable)
			return
		}
		switch {
		case r.Method == http.MethodPut:
			tr.puts.Add(1)
		case r.URL.Path == "/v1/heartbeat":
			data, _ := io.ReadAll(r.Body)
			var hb fleet.Heartbeat
			if json.Unmarshal(data, &hb) == nil {
				tr.mu.Lock()
				tr.heartbeats = append(tr.heartbeats, hb)
				tr.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(data))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	tr.url = ts.URL
	return tr
}

func (tr *testRegistry) hostSyncer(t *testing.T) *fleet.HostSyncer {
	t.Helper()
	c, err := fleet.NewClient(fleet.ClientConfig{BaseURL: tr.url, Retry: fleet.RetryConfig{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return fleet.NewHostSyncer(c, "host-a")
}

func (tr *testRegistry) heartbeatCount() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.heartbeats)
}

// newSyncedFixture is a two-lane loop whose lanes and heartbeats sync
// with reg every five periods.
func newSyncedFixture(t *testing.T, reg *testRegistry) (*fixture, *fleet.HostSyncer) {
	t.Helper()
	f := newFixture(t, rampScript(), "web", "kv")
	hs := reg.hostSyncer(t)
	f.loop.Fleet = hs
	f.loop.MetricsFile = filepath.Join(t.TempDir(), "fleet.prom")
	for _, ln := range f.loop.Lanes {
		ln.Syncer = hs.Lane(ln.App)
	}
	f.loop.SyncEvery = 5
	return f, hs
}

// TestLoopPushesTemplateOnCadence: pushes and heartbeats land every
// SyncEvery periods and once more on exit, and each lane heartbeats its
// own application and its own state.
func TestLoopPushesTemplateOnCadence(t *testing.T) {
	reg := newTestRegistry(t)
	f, _ := newSyncedFixture(t, reg)
	r := f.start(t)
	r.step(7) // period 5 syncs both lanes
	if n := reg.puts.Load(); n != 2 {
		t.Fatalf("%d pushes after one sync point of two lanes, want 2", n)
	}
	r.step(5) // period 10 syncs both lanes
	if n := reg.puts.Load(); n != 4 {
		t.Errorf("%d pushes after two sync points, want 4", n)
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	if n := reg.puts.Load(); n != 6 {
		t.Errorf("%d pushes after the exit flush, want 6", n)
	}
	if _, err := os.Stat(f.loop.MetricsFile); err != nil {
		t.Errorf("metrics file: %v", err)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	apps := map[string]int{}
	for _, hb := range reg.heartbeats {
		apps[hb.App]++
		if hb.Periods == 0 {
			t.Errorf("heartbeat %+v reports no periods", hb)
		}
	}
	if apps["web"] != 3 || apps["kv"] != 3 {
		t.Errorf("heartbeats per app = %v, want 3 each", apps)
	}
}

// TestLoopPushSurvivesRegistryOutage: while the registry is down the
// loop keeps running periods, and the first sync point after recovery
// pushes again.
func TestLoopPushSurvivesRegistryOutage(t *testing.T) {
	reg := newTestRegistry(t)
	f, hs := newSyncedFixture(t, reg)
	r := f.start(t)
	r.step(7) // period 5 syncs both lanes
	if n := reg.puts.Load(); n != 2 {
		t.Fatalf("%d pushes after one sync point of two lanes, want 2", n)
	}
	reg.down.Store(true)
	r.step(5) // period 10 fails to sync
	if s := f.loop.Board.Snapshot(); s.Periods < 11 || !s.Ready {
		t.Fatalf("loop stalled during the outage: %d periods, ready %v", s.Periods, s.Ready)
	}
	if degraded, _ := hs.Lane("web").Degraded(); !degraded {
		t.Error("outage not reflected in the syncer")
	}
	reg.down.Store(false)
	r.step(4) // period 15 syncs again
	if n := reg.puts.Load(); n != 4 {
		t.Errorf("%d pushes after recovery, want 4", n)
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	if n := reg.puts.Load(); n != 6 {
		t.Errorf("%d pushes after the exit flush, want 6", n)
	}
	if len(hs.Degraded()) != 0 {
		t.Errorf("still degraded after recovery: %v", hs.Degraded())
	}
	if !strings.Contains(f.err.String(), "registry push failed") {
		t.Errorf("failed push not logged:\n%s", f.err.String())
	}
	if n := reg.heartbeatCount(); n != 6 {
		t.Errorf("%d heartbeats accepted around the outage, want 6", n)
	}
}

func TestLoopSkipsPushWhileMapEmpty(t *testing.T) {
	reg := newTestRegistry(t)
	f := newFixture(t, rampScript(), "web")
	f.loop.Lanes[0].Syncer = reg.hostSyncer(t).Lane("web")
	// The loop exits before any period: the exit flush finds an empty
	// map and must not push a stateless template.
	if err := f.start(t).stop(); err != nil {
		t.Fatal(err)
	}
	if n := reg.puts.Load(); n != 0 {
		t.Errorf("pushed %d empty maps", n)
	}
	if reg.heartbeatCount() != 1 {
		t.Errorf("heartbeats = %d, want the exit heartbeat", reg.heartbeatCount())
	}
}

// TestLoopAdoptsStreamDeltasBetweenPeriods: a delta the stream stashes
// waits for the next tick, merges before that period, and advances the
// cursor; a delta the lane rejects leaves the cursor where it was.
func TestLoopAdoptsStreamDeltasBetweenPeriods(t *testing.T) {
	reg := newTestRegistry(t)
	hs := reg.hostSyncer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); hs.Wait() }()
	ss, err := hs.StartStream(ctx, "web", fleet.StreamSyncerConfig{
		ReconnectMin: 5 * time.Millisecond, ReconnectMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, rampScript(), "web")
	f.loop.Lanes[0].Stream = ss
	f.loop.SyncEvery = 1000
	eventually(t, "stream connected", ss.Streaming)

	// A map of the same application over more VM slots.
	wide := testLaneConfig("s/web", "web")
	wide.BatchIDs, wide.DisableBatchAggregation = []string{"b1", "b2"}, true
	if _, err := reg.reg.Put("host-x", learnedTemplate(t, wide, rampScript())); err != nil {
		t.Fatal(err)
	}
	eventually(t, "bad delta stashed", func() bool { return ss.Stats().Events >= 1 })
	r := f.start(t)
	r.step(2)
	if ss.Revision() != 0 {
		t.Errorf("rejected delta moved the cursor to %d", ss.Revision())
	}
	if !strings.Contains(f.err.String(), "fleet delta rejected") {
		t.Errorf("rejection not logged:\n%s", f.err.String())
	}

	// A map of the same schema, learned under heavier load, merges at
	// the next boundary. Once the second period is over, the loop is past
	// its last boundary.
	eventually(t, "second period", func() bool { return f.loop.Board.Snapshot().Periods == 2 })
	heavy := []hostStep{{batchCPU: 700, violation: true}, {batchCPU: 600}}
	entry, err := reg.reg.Put("host-x", learnedTemplate(t, testLaneConfig("s/web", "web"), heavy))
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "good delta stashed", func() bool { return ss.Stats().Events >= 2 })
	// Stashed, yet untouched until the loop's next period boundary.
	time.Sleep(20 * time.Millisecond)
	if ss.Revision() != 0 {
		t.Fatalf("delta applied without a tick (cursor %d)", ss.Revision())
	}
	r.step(2)
	if ss.Revision() != entry.Revision {
		t.Errorf("cursor = %d after adoption, want revision %d", ss.Revision(), entry.Revision)
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	if ln := f.loop.Lanes[0]; ln.merges != 1 || ln.merged.Added == 0 {
		t.Errorf("merges = %d (%+v), want one merge adding states", ln.merges, ln.merged)
	}
	if !strings.Contains(f.out.String(), "fleet stream: 1 merges") {
		t.Errorf("exit report lacks the stream line:\n%s", f.out.String())
	}
}

// learnedTemplate runs a one-lane host with cfg over script and exports
// the lane's map.
func learnedTemplate(t *testing.T, cfg core.Config, script []hostStep) *statespace.Template {
	t.Helper()
	env := &testHost{script: script, groups: map[string]bool{cfg.SensitiveID: true}}
	host, err := core.NewHost(env, throttle.NewRecordingActuator())
	if err != nil {
		t.Fatal(err)
	}
	lane, err := host.AddLane(cfg, testSignals{env})
	if err != nil {
		t.Fatal(err)
	}
	for range script {
		if _, err := host.Period(); err != nil {
			t.Fatal(err)
		}
	}
	return lane.ExportTemplate(cfg.SensitiveApp)
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for: %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLoopBeatsWatchdogPerPeriod(t *testing.T) {
	f := newFixture(t, rampScript(), "web")
	f.loop.Period, f.loop.WatchdogGrace = time.Hour, 3
	f.loop.Out, f.loop.Err = nil, nil // discarded
	r := f.start(t)
	r.step(6)
	close(r.ticks)
	if err := r.wait(); err != nil {
		t.Fatal(err)
	}
	if _, _, beats, _ := f.loop.wd.Status(); beats != 6 {
		t.Errorf("watchdog beats = %d after 6 periods", beats)
	}
}

func TestLoopWatchdogThawsStalledLoop(t *testing.T) {
	f := newFixture(t, rampScript(), "web")
	f.loop.Period, f.loop.WatchdogGrace = 5*time.Millisecond, 2
	r := f.start(t)
	// No tick arrives: the loop looks wedged.
	eventually(t, "watchdog stall", func() bool { return f.loop.Board.Snapshot().WatchdogStalled })
	if f.releases.Load() == 0 {
		t.Error("stall did not thaw")
	}
	if !strings.Contains(f.err.String(), "watchdog: no completed period") {
		t.Errorf("stall not logged:\n%s", f.err.String())
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
}

// reloadFixture is a fixture in lanes-file mode.
func reloadFixture(t *testing.T, defs ...LaneDef) (*fixture, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "lanes.json")
	writeLaneDefs(t, path, defs...)
	f := newFixture(t, rampScript())
	f.loop.StateDir = dir
	for _, d := range defs {
		ln, err := f.loop.addLane(d)
		if err != nil {
			t.Fatal(err)
		}
		ln.CheckpointPath = resilience.LaneCheckpointPath(dir, ln.App)
	}
	f.loop.Reloader = NewReloader(path, defs, []string{"b1"})
	return f, path
}

func writeLaneDefs(t *testing.T, path string, defs ...LaneDef) {
	t.Helper()
	data, err := json.Marshal(LanesFile{Version: LanesVersion, Lanes: defs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reload rewrites the lanes file, queues it and runs two ticks: the first
// applies it, the second finishes the first's period.
func reload(t *testing.T, f *fixture, r *running, path string, defs ...LaneDef) {
	t.Helper()
	writeLaneDefs(t, path, defs...)
	if err := f.loop.QueueReload("test"); err != nil {
		t.Fatal(err)
	}
	r.step(2)
}

func laneApps(s Status) []string {
	var out []string
	for _, lh := range s.Lanes {
		out = append(out, lh.App)
	}
	sort.Strings(out)
	return out
}

// TestLoopReloadRenameKeepsCgroupProtected renames the only lane while
// keeping its cgroup: the diff is "add web, remove vlc", and the add can
// only succeed once vlc has released the cgroup.
func TestLoopReloadRenameKeepsCgroupProtected(t *testing.T) {
	vlc := LaneDef{App: "vlc", SensitiveCgroup: "s/vlc", QoSFile: "vlc.qos"}
	f, path := reloadFixture(t, vlc)
	r := f.start(t)
	r.step(4)
	reload(t, f, r, path, LaneDef{App: "web", SensitiveCgroup: "s/vlc", QoSFile: "vlc.qos"})
	s := f.loop.Board.Snapshot()
	if got := laneApps(s); len(got) != 1 || got[0] != "web" || !s.Ready {
		t.Fatalf("after rename: lanes %v, ready %v; want [web], ready", got, s.Ready)
	}
	if s.Reload.Applied != 1 || len(s.Reload.Lanes) != 1 || s.Reload.Lanes[0].App != "web" {
		t.Errorf("reload status = %+v", s.Reload)
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	// The departing lane flushed its learning.
	if _, err := os.Stat(resilience.LaneCheckpointPath(f.loop.StateDir, "vlc")); err != nil {
		t.Errorf("renamed-away lane left no checkpoint: %v", err)
	}
	if f.host.Periods() != 6 {
		t.Errorf("host ran %d periods, want all 6", f.host.Periods())
	}
}

// TestLoopReloadRenameKeepsOldLaneWhenSuccessorFails: when the renamed
// lane cannot start, the old lane comes back on its cgroup with its
// learning, and the reload status shows the drift.
func TestLoopReloadRenameKeepsOldLaneWhenSuccessorFails(t *testing.T) {
	vlc := LaneDef{App: "vlc", SensitiveCgroup: "s/vlc", QoSFile: "vlc.qos"}
	f, path := reloadFixture(t, vlc)
	r := f.start(t)
	r.step(4)
	reload(t, f, r, path, LaneDef{App: "broken", SensitiveCgroup: "s/vlc", QoSFile: "vlc.qos"})
	s := f.loop.Board.Snapshot()
	if got := laneApps(s); len(got) != 1 || got[0] != "vlc" || !s.Ready {
		t.Fatalf("after failed rename: lanes %v, ready %v; want [vlc], ready", got, s.Ready)
	}
	if s.Lanes[0].States == 0 || !strings.Contains(f.out.String(), "vlc: restored checkpoint") {
		t.Errorf("restored lane lost its learning: %+v", s.Lanes[0])
	}
	if len(s.Reload.Lanes) != 1 || s.Reload.Lanes[0] != vlc {
		t.Errorf("committed lanes = %+v, want the old lane", s.Reload.Lanes)
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.out.String(), "kept lane vlc") {
		t.Errorf("fallback not logged:\n%s", f.out.String())
	}
}

// TestLoopFailedPeriodTurnsReadinessOff: a reload whose only add fails
// leaves no lanes, so every period fails; readiness must drop until a
// later reload brings a lane back and a period succeeds.
func TestLoopFailedPeriodTurnsReadinessOff(t *testing.T) {
	f, path := reloadFixture(t, LaneDef{App: "a", SensitiveCgroup: "s/a", QoSFile: "a.qos"})
	f.env.failAdd["s/bad"] = true
	f.loop.Metrics = stream.NewMetricSet()
	r := f.start(t)
	r.step(3)
	if !f.loop.Board.Snapshot().Ready {
		t.Fatal("not ready after healthy periods")
	}
	reload(t, f, r, path, LaneDef{App: "b", SensitiveCgroup: "s/bad", QoSFile: "b.qos"})
	if s := f.loop.Board.Snapshot(); s.Ready || len(s.Lanes) != 0 {
		t.Fatalf("failing periods still ready: %+v", s)
	}
	if !strings.Contains(f.err.String(), "stayawayd: period:") {
		t.Errorf("failed period not logged:\n%s", f.err.String())
	}
	reload(t, f, r, path, LaneDef{App: "c", SensitiveCgroup: "s/c", QoSFile: "c.qos"})
	if s := f.loop.Board.Snapshot(); !s.Ready || len(s.Lanes) != 1 {
		t.Errorf("successful period did not restore readiness: %+v", s)
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	// Of the 7 ticks at least one failed, and is no completed period.
	var metricsText strings.Builder
	f.loop.Metrics.WriteTo(&metricsText)
	completed := fmt.Sprintf("%s %d\n", metricPeriods, f.host.Periods())
	if f.host.Periods() >= 7 || !strings.Contains(metricsText.String(), completed) {
		t.Errorf("host completed %d periods; metrics:\n%s", f.host.Periods(), metricsText.String())
	}
}

// TestLoopReloadLifecycle walks adds, in-place and moving changes, a
// rejected change, removes, a rejected file and an empty diff through
// the loop, each picked up by the lanes-file watcher, with the registry,
// the admin hub and metrics attached.
func TestLoopReloadLifecycle(t *testing.T) {
	vlc := LaneDef{App: "vlc", SensitiveCgroup: "s/vlc", QoSFile: "vlc.qos"}
	f, path := reloadFixture(t, vlc)
	f.env.failAdd["s/bad"] = true
	f.loop.Watcher = NewWatcher(path)
	reg := newTestRegistry(t)
	f.loop.Fleet, f.loop.Verbose = reg.hostSyncer(t), true
	f.loop.Hub = stream.NewHub(stream.HubConfig{QueueLen: 1024})
	defer f.loop.Hub.Close()
	sub, _ := f.loop.Hub.Subscribe("")
	f.loop.Metrics = stream.NewMetricSet()
	r := f.start(t)
	r.step(3)
	// edit replaces the lanes file for the watcher to pick up, with its
	// own mtime, in one rename: the last tick may still be checking.
	edits := 0
	edit := func(content []byte) {
		t.Helper()
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, content, 0o644); err != nil {
			t.Fatal(err)
		}
		edits++
		mtime := time.Now().Add(time.Duration(edits) * time.Hour)
		if err := os.Chtimes(tmp, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
		r.step(2)
	}
	lanes := func(defs ...LaneDef) []byte {
		data, err := json.Marshal(LanesFile{Version: LanesVersion, Lanes: defs})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Grow: change vlc's QoS file in place and add kv.
	vlc2 := LaneDef{App: "vlc", SensitiveCgroup: "s/vlc", QoSFile: "vlc2.qos"}
	kv := LaneDef{App: "kv", SensitiveCgroup: "s/kv", QoSFile: "kv.qos"}
	edit(lanes(vlc2, kv))
	if got := laneApps(f.loop.Board.Snapshot()); len(got) != 2 {
		t.Fatalf("lanes after grow = %v", got)
	}
	// Move vlc to another cgroup, drop kv.
	moved := LaneDef{App: "vlc", SensitiveCgroup: "s/vlc-new", QoSFile: "vlc2.qos"}
	edit(lanes(moved))
	if got := laneApps(f.loop.Board.Snapshot()); len(got) != 1 || got[0] != "vlc" {
		t.Fatalf("lanes after move = %v", got)
	}
	if f.env.groups["s/vlc"] || f.env.groups["s/kv"] || !f.env.groups["s/vlc-new"] {
		t.Errorf("collected groups = %v", f.env.groups)
	}
	// The departing lane shared its map before it went.
	if reg.puts.Load() != 1 {
		t.Errorf("departing pushes = %d, want kv's", reg.puts.Load())
	}
	// A change whose cgroup cannot be collected keeps the old lane.
	edit(lanes(LaneDef{App: "vlc", SensitiveCgroup: "s/bad", QoSFile: "vlc2.qos"}))
	if !strings.Contains(f.err.String(), "change vlc rejected") || !f.env.groups["s/vlc-new"] {
		t.Errorf("rejected change not contained:\n%s", f.err.String())
	}
	// A bad file is rejected at queue time; the running set commits
	// again as an empty diff.
	edit([]byte(`{"version":9,"lanes":[]}`))
	edit(lanes(moved))
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	rs := f.loop.Reloader.Status()
	if rs.Generation != 4 || rs.Applied != 4 || len(rs.Lanes) != 1 || rs.Lanes[0] != moved {
		t.Errorf("reload status = %+v", rs)
	}
	if !strings.Contains(f.err.String(), "reload (watch) rejected") {
		t.Errorf("bad file not rejected:\n%s", f.err.String())
	}

	kinds := map[string]int{}
	for done := false; !done; {
		select {
		case ev := <-sub.C:
			kinds[ev.Type]++
		default:
			done = true
		}
	}
	if kinds[TypeLane] != 5 || kinds[TypeReload] != 4 || kinds[TypePeriod] == 0 {
		t.Errorf("hub events by type = %v", kinds)
	}
	var metricsText strings.Builder
	f.loop.Metrics.WriteTo(&metricsText)
	for _, want := range []string{`result="applied"} 3`, `result="rejected"} 1`, metricLanes + " 1"} {
		if !strings.Contains(metricsText.String(), want) {
			t.Errorf("metrics lack %q:\n%s", want, metricsText.String())
		}
	}
}

func TestLoopQueueReloadWithoutLanesFile(t *testing.T) {
	f := newFixture(t, rampScript(), "web")
	if err := f.loop.QueueReload("SIGHUP"); err == nil {
		t.Error("reload without a lanes file accepted")
	}
	if !strings.Contains(f.err.String(), "SIGHUP") {
		t.Errorf("ignored reload not logged: %q", f.err.String())
	}
}
