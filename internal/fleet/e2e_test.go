// The end-to-end acceptance scenarios live in an external test package:
// they drive the simulated substrate through internal/experiments, which
// itself links against fleet (for the convergence harness), so an
// in-package test would be an import cycle.
package fleet_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/throttle"
)

// newE2EServer and newE2EClient mirror the in-package test fixtures using
// only the exported API (this package cannot reach them).
func newE2EServer(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.Open(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{Registry: reg, Now: func() time.Time { return time.Unix(1700000000, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func newE2EClient(t *testing.T, baseURL string) *fleet.Client {
	t.Helper()
	c, err := fleet.NewClient(fleet.ClientConfig{
		BaseURL: baseURL,
		Retry:   fleet.RetryConfig{Attempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// e2eGatedTransport fails every request while down — a registry outage
// switch, same as the in-package gatedTransport.
type e2eGatedTransport struct {
	mu    sync.Mutex
	down  bool
	inner http.RoundTripper
}

func (g *e2eGatedTransport) setDown(down bool) {
	g.mu.Lock()
	g.down = down
	g.mu.Unlock()
}

func (g *e2eGatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	down := g.down
	g.mu.Unlock()
	if down {
		return nil, fmt.Errorf("registry unreachable (simulated outage)")
	}
	return g.inner.RoundTrip(req)
}

// The acceptance scenario for the fleet control plane: host A learns a
// state-space map against CPUBomb and pushes it to the registry; host B —
// a different machine running the same sensitive application against a
// co-runner A never saw (Soplex) — pulls the map and skips the
// learning-phase QoS violations a cold start would have suffered. This is
// the paper's Fig 17→18 template story, across hosts instead of across
// runs.
func TestE2ETemplateSharedAcrossHosts(t *testing.T) {
	ts, _ := newE2EServer(t)
	ctx := context.Background()

	vlc := func(rng *rand.Rand) sim.QoSApp {
		return apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rng)
	}
	soplex := func(rng *rand.Rand) sim.App {
		cfg := apps.DefaultSoplexConfig()
		cfg.TotalWork = 0
		return apps.NewSoplex(cfg, rng)
	}

	// Host A: learn against CPUBomb with Stay-Away active, then push.
	learn, err := experiments.Run(experiments.Scenario{
		Name:        "fleet-host-a-learn",
		SensitiveID: "vlc",
		Sensitive:   vlc,
		Batch: []experiments.Placement{{ID: "batch", StartTick: 20, App: func(*rand.Rand) sim.App {
			return apps.NewCPUBomb(apps.DefaultCPUBombConfig())
		}}},
		Ticks:    250,
		Seed:     42,
		StayAway: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	clientA := newE2EClient(t, ts.URL)
	pushed, err := clientA.PushTemplate(ctx, "host-a", "vlc-stream",
		learn.Runtime.ExportTemplate("vlc-stream"))
	if err != nil {
		t.Fatal(err)
	}
	if pushed.Revision != 1 || pushed.ViolationStates == 0 {
		t.Fatalf("host A push = %+v; need violation states to share", pushed)
	}

	// Host B: pull the consensus map — no template learned locally.
	clientB := newE2EClient(t, ts.URL)
	tpl, rev, err := clientB.PullTemplate(ctx, "vlc-stream", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rev != pushed.Revision || len(tpl.States) == 0 {
		t.Fatalf("host B pulled rev=%d states=%d", rev, len(tpl.States))
	}

	// Host B runs VLC against Soplex twice: cold (no template) and
	// bootstrapped from the registry. Identical seeds, identical
	// co-location; only the starting map differs.
	run := func(name string, seeded bool) *experiments.RunResult {
		sc := experiments.Scenario{
			Name:        name,
			SensitiveID: "vlc",
			Sensitive:   vlc,
			Batch:       []experiments.Placement{{ID: "batch", StartTick: 20, App: soplex}},
			Ticks:       250,
			Seed:        43,
			StayAway:    true,
		}
		if seeded {
			sc.Template = tpl
		}
		res, err := experiments.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run("fleet-host-b-cold", false)
	seeded := run("fleet-host-b-seeded", true)

	firstThrottle := func(res *experiments.RunResult) int {
		for _, r := range res.Records {
			if r.Throttled {
				return r.Tick
			}
		}
		return len(res.Records)
	}
	// Learning-phase window: from batch arrival until the cold run first
	// learned to throttle, plus slack — the ticks where the cold host is
	// still paying for knowledge the fleet already has.
	coldStart, seededStart := firstThrottle(cold), firstThrottle(seeded)
	if seededStart > coldStart {
		t.Errorf("bootstrapped host engaged protection at tick %d, cold at %d — template gave no head start",
			seededStart, coldStart)
	}
	window := coldStart + 20
	countViolationsUpTo := func(res *experiments.RunResult, tick int) int {
		n := 0
		for _, r := range res.Records {
			if r.Tick <= tick && r.Violation {
				n++
			}
		}
		return n
	}
	coldV, seededV := countViolationsUpTo(cold, window), countViolationsUpTo(seeded, window)
	t.Logf("first throttle: cold %d seeded %d; violations ≤ tick %d: cold %d seeded %d; full run: cold %d seeded %d",
		coldStart, seededStart, window, coldV, seededV, cold.Report.Violations, seeded.Report.Violations)
	if seededV > coldV {
		t.Errorf("learning-phase violations: seeded %d > cold %d — sharing the map made things worse",
			seededV, coldV)
	}

	// Host B's own learning flows back: its push merges into revision 2
	// and the consensus accumulates both hosts' contributions.
	resp, err := clientB.PushTemplate(ctx, "host-b", "vlc-stream",
		seeded.Runtime.ExportTemplate("vlc-stream"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Revision != 2 || resp.Hosts != 2 {
		t.Errorf("host B merge = %+v, want revision 2 from 2 hosts", resp)
	}
	status, err := clientB.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Templates) != 1 || status.Templates[0].Hosts != 2 {
		t.Errorf("status templates = %+v", status.Templates)
	}
}

// e2eEnv scripts a minimal one-lane host (core.HostEnvironment and
// core.LaneSignals): a sensitive container under
// growing batch pressure, violating QoS above a CPU threshold.
type e2eEnv struct {
	tick int
}

func (e *e2eEnv) Collect() []metrics.Sample {
	e.tick++
	batch := float64((e.tick * 37) % 400)
	return []metrics.Sample{
		metrics.NewSample("web", map[metrics.Metric]float64{
			metrics.MetricCPU:    100,
			metrics.MetricMemory: 500,
		}),
		metrics.NewSample("b1", map[metrics.Metric]float64{
			metrics.MetricCPU: batch,
		}),
	}
}

func (e *e2eEnv) QoSViolation() bool     { return (e.tick*37)%400 > 300 }
func (e *e2eEnv) SensitiveRunning() bool { return true }
func (e *e2eEnv) BatchRunning() bool     { return true }
func (e *e2eEnv) BatchActive() bool      { return true }

// The degraded-mode half of the acceptance scenario: a registry outage in
// the middle of a run must not interrupt the control loop — the daemon
// keeps protecting from its local map, records the sync failures, and the
// first periodic push after recovery resyncs the registry.
func TestE2ERegistryOutageMidRun(t *testing.T) {
	ts, reg := newE2EServer(t)
	gate := &e2eGatedTransport{inner: http.DefaultTransport}
	client, err := fleet.NewClient(fleet.ClientConfig{
		BaseURL:   ts.URL,
		Transport: gate,
		Retry: fleet.RetryConfig{
			Attempts: 2,
			Sleep:    func(context.Context, time.Duration) error { return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	syncer := fleet.NewSyncer(client, "host-a", "web")

	cfg := core.DefaultConfig("web", []string{"b1"}, metrics.DefaultRanges(4, 4096, 200, 1000))
	env := &e2eEnv{}
	host, err := core.NewHost(env, throttle.NewRecordingActuator())
	if err != nil {
		t.Fatal(err)
	}
	lane, err := host.AddLane(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	board := daemon.NewBoard()
	loop := &daemon.Loop{
		Config:  daemon.Config{SyncEvery: 5},
		Host:    host,
		Env:     env,
		Release: host.Release,
		Board:   board,
		Lanes:   []*daemon.Lane{{App: "web", Group: "web", Core: lane, Signals: env, Syncer: syncer}},
	}
	ticks := make(chan time.Time)
	done := make(chan error, 1)
	go func() { done <- loop.Run(context.Background(), ticks) }()
	// A tick is received only once the previous period has finished, so
	// after step(n) every period but the last one sent is complete.
	step := func(n int) {
		for i := 0; i < n; i++ {
			ticks <- time.Time{}
		}
	}

	// Healthy phase: two sync points (periods 5 and 10) pass; period 12
	// is still running when the gate flips, and it syncs nothing.
	step(12)
	// Outage strikes mid-run: pushes at periods 15 and 20 fail.
	gate.setDown(true)
	step(10)
	if s := board.Snapshot(); s.Periods < 21 || !s.Ready {
		t.Fatalf("loop did not keep controlling through the outage: periods=%d ready=%v", s.Periods, s.Ready)
	}
	if degraded, lastErr := syncer.Degraded(); !degraded || lastErr == nil {
		t.Error("outage not reflected in syncer state")
	}

	// Recovery: the push at period 25 resyncs without any intervention,
	// and shutdown flushes one final snapshot.
	gate.setDown(false)
	step(3)
	close(ticks)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if degraded, _ := syncer.Degraded(); degraded {
		t.Error("syncer still degraded after recovery")
	}
	// Each failed sync point failed both its push and its heartbeat.
	if pushes, failures := syncer.Stats(); pushes < 3 || failures != 4 {
		t.Errorf("syncer stats = %d ok / %d failed, want ≥3 ok, 4 failed", pushes, failures)
	}
	entry, ok := reg.Get("web", "")
	if !ok {
		t.Fatal("registry never received the host's map")
	}
	if entry.Revision < 3 {
		t.Errorf("registry revision = %d, want ≥3 (healthy pushes + resync)", entry.Revision)
	}
	if len(entry.Template.States) == 0 {
		t.Error("registry holds an empty map")
	}
	if lane.Report().Periods != 25 {
		t.Errorf("lane periods = %d, want 25", lane.Report().Periods)
	}
}
