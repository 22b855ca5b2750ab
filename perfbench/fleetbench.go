package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/statespace"
	"repro/internal/stream"
)

// The fleet-sync workload: one process runs the control plane the way
// cmd/stayawayreg does (fleet.Server over a 4-shard registry persisted to
// disk, with a stream.Hub fed by the registry's put hook) and drives it
// over loopback HTTP with a fixed-rate open loop from 16 simulated hosts.
// Each host has its own connection and sends its requests in order, as a
// real host would; different hosts' requests overlap, so a slow write
// delays only the host that sent it, and the sharded registry sees
// concurrent access.
const (
	fleetHosts       = 16
	fleetApps        = 4
	fleetShards      = 4
	fleetBaseStates  = 500
	fleetNewPerPush  = 2
	fleetRate        = 20 // requests per second
	fleetSetups      = 21
	fleetSyncTimeout = 10 * time.Second
)

// revKey names one consensus revision of one application.
type revKey struct {
	app string
	rev int
}

// fleetInputs are the generated inputs: per-app base templates, which
// every host starts from, and the RNG that draws the request mix and the
// states each push adds.
type fleetInputs struct {
	apps []string
	base map[string]*statespace.Template
	rng  *rand.Rand
	key  []byte
}

func newFleetInputs(seed int64) *fleetInputs {
	root := rand.New(rand.NewSource(seed))
	in := &fleetInputs{base: map[string]*statespace.Template{}, key: make([]byte, 32)}
	root.Read(in.key)
	ranges := metrics.DefaultRanges(4, 4096, 200, 1000)
	for a := 0; a < fleetApps; a++ {
		app := fmt.Sprintf("app-%d", a)
		tpl := syntheticTemplate(rand.New(rand.NewSource(root.Int63())), fleetBaseStates, ranges)
		tpl.SensitiveApp = app
		in.apps = append(in.apps, app)
		in.base[app] = tpl
	}
	in.rng = rand.New(rand.NewSource(root.Int63()))
	return in
}

// fleetPlane is one running control plane with its client and the
// stream-fed replica.
type fleetPlane struct {
	t   *tracer
	srv *http.Server
	hub *stream.Hub
	// client seeds, subscribes and makes the final pulls; hosts[h] is
	// simulated host h's client, each over its own counting transport.
	client   *fleet.Client
	hosts    []*fleet.Client
	counters []*countingTransport
	cancel   context.CancelFunc
	done     chan struct{} // closed when the server and subscriber have exited
	inflight inflight

	mu        sync.Mutex
	replica   map[string]*statespace.Template
	replicaAt map[string]int
	applied   map[revKey]time.Time
	received  map[revKey]time.Time
	published map[revKey]time.Time
	applyMS   []float64
	streamErr error
	gaps      int
}

// startFleet opens the registry under dir, starts the server on a
// loopback port, subscribes the replica to the event stream and seeds one
// base template per application. It returns once the replica has applied
// every seed.
func startFleet(in *fleetInputs, dir string, t *tracer, epoch int64) (*fleetPlane, error) {
	p := &fleetPlane{
		t:         t,
		replica:   map[string]*statespace.Template{},
		replicaAt: map[string]int{},
		applied:   map[revKey]time.Time{},
		received:  map[revKey]time.Time{},
		published: map[revKey]time.Time{},
		done:      make(chan struct{}),
	}
	p.hub = stream.NewHub(stream.HubConfig{Epoch: epoch})
	publish := fleet.PublishHook(p.hub)
	hook := func(e *registry.Entry, d *statespace.TemplateDelta) {
		id := t.begin("stream.publish", 0, int64(e.Revision))
		publish(e, d)
		t.end(id)
		if t != nil {
			p.mu.Lock()
			p.published[revKey{e.Key.App, e.Revision}] = time.Now()
			p.mu.Unlock()
		}
	}
	reg, err := registry.OpenSharded(registry.Config{Dir: dir, OnPut: hook}, fleetShards)
	if err != nil {
		p.hub.Close()
		return nil, err
	}
	var store fleet.Store = reg
	if t != nil {
		store = &tracedStore{inner: reg, t: t, parent: p.inflight.get}
	}
	fs, err := fleet.NewServer(fleet.ServerConfig{Registry: store, Hub: p.hub, Key: in.key})
	if err != nil {
		p.hub.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.hub.Close()
		return nil, err
	}
	p.srv = &http.Server{Handler: fs.Handler(), ReadHeaderTimeout: 10 * time.Second}
	for h := 0; h <= fleetHosts; h++ {
		ct := &countingTransport{inner: &http.Transport{MaxIdleConnsPerHost: 2}}
		c, err := fleet.NewClient(fleet.ClientConfig{
			BaseURL:   "http://" + ln.Addr().String(),
			Transport: ct,
			Retry:     fleet.RetryConfig{Attempts: 1}, // a failed request counts as failed, not retried
			Key:       in.key,
		})
		if err != nil {
			ln.Close()
			p.hub.Close()
			return nil, err
		}
		p.counters = append(p.counters, ct)
		if h == fleetHosts {
			p.client = c
		} else {
			p.hosts = append(p.hosts, c)
		}
	}

	var ctx context.Context
	ctx, p.cancel = context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := p.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			p.setStreamErr(fmt.Errorf("serve: %w", err))
		}
	}()
	go func() {
		defer wg.Done()
		_, err := p.client.StreamEvents(ctx, "", "", p.onEvent)
		if err != nil && ctx.Err() == nil {
			p.setStreamErr(fmt.Errorf("event stream: %w", err))
		}
	}()
	go func() {
		wg.Wait()
		close(p.done)
	}()

	// A fresh subscription gets no replay, so a seed pushed before the
	// subscriber is attached would never reach the replica.
	if err := p.waitSubscribed(); err != nil {
		p.stop()
		return nil, err
	}
	want := map[string]int{}
	for _, app := range in.apps {
		resp, err := p.client.PushTemplate(ctx, "seed", app, in.base[app])
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("seed %s: %w", app, err)
		}
		want[app] = resp.Revision
	}
	if err := p.waitReplica(want); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// onEvent applies one streamed delta to the local replica.
func (p *fleetPlane) onEvent(ev stream.Event, up *fleet.StreamUpdate) error {
	if up == nil || up.Delta == nil {
		return nil
	}
	recv := time.Now()
	k := revKey{up.App, up.Revision}
	p.mu.Lock()
	defer p.mu.Unlock()
	local, at := p.replica[up.App], p.replicaAt[up.App]
	if up.Revision <= at {
		return nil
	}
	if !up.Delta.Full && up.Delta.FromRevision != at {
		p.gaps++
	}
	id := p.t.begin("statespace.apply_delta", 0, int64(up.Revision))
	start := time.Now()
	next, err := statespace.ApplyDelta(local, up.Delta, registry.DefaultMergeEpsilon)
	d := time.Since(start)
	p.t.end(id)
	if err != nil {
		return fmt.Errorf("apply %s revision %d: %w", up.App, up.Revision, err)
	}
	p.replica[up.App], p.replicaAt[up.App] = next, up.Revision
	p.applied[k] = time.Now()
	p.received[k] = recv
	p.applyMS = append(p.applyMS, ms(d))
	return nil
}

func (p *fleetPlane) setStreamErr(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.streamErr == nil {
		p.streamErr = err
	}
}

// waitSubscribed waits until the replica's event stream is attached to
// the hub, so that every later publish reaches it.
func (p *fleetPlane) waitSubscribed() error {
	deadline := time.Now().Add(fleetSyncTimeout)
	for p.hub.Stats().Active == 0 {
		p.mu.Lock()
		err := p.streamErr
		p.mu.Unlock()
		switch {
		case err != nil:
			return err
		case time.Now().After(deadline):
			return fmt.Errorf("event stream not attached after %v", fleetSyncTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// waitReplica waits until the replica holds at least the wanted revision
// of every application.
func (p *fleetPlane) waitReplica(want map[string]int) error {
	deadline := time.Now().Add(fleetSyncTimeout)
	for {
		p.mu.Lock()
		behind, err := "", p.streamErr
		for app, rev := range want {
			if p.replicaAt[app] < rev {
				behind = fmt.Sprintf("%s at revision %d of %d", app, p.replicaAt[app], rev)
			}
		}
		p.mu.Unlock()
		switch {
		case err != nil:
			return err
		case behind == "":
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("replica behind after %v: %s", fleetSyncTimeout, behind)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the plane down and waits for its goroutines.
func (p *fleetPlane) stop() {
	p.cancel()
	p.hub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.srv.Shutdown(ctx); err != nil {
		p.srv.Close()
	}
	<-p.done
	for _, ct := range p.counters {
		ct.CloseIdleConnections()
	}
}

// inflight maps each simulated host to the span of its request in flight,
// so registry spans, which see the uploading host, can name their parent.
type inflight struct {
	mu   sync.Mutex
	span map[string]int64
}

func (f *inflight) set(host string, id int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.span == nil {
		f.span = map[string]int64{}
	}
	f.span[host] = id
}

func (f *inflight) get(host string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.span[host]
}

// fleetStats is one measured open-loop window.
type fleetStats struct {
	setup                time.Duration
	lat, putLat, pullLat []float64
	lagMS, propagationMS []float64
	pushLagMS, applyMS   []float64
	attempted, failed    int
	pulls, notModified   int
	puts                 int
	putBytes, deltaBytes int64
	cpu, wall            time.Duration
	consensusStates      int
	checks               []check
}

// runFleetWindow sets up a plane and, for a positive length, drives the
// open loop for that long and checks the replica against the registry.
func runFleetWindow(in *fleetInputs, c runConfig, t *tracer, length time.Duration, epoch int64) (*fleetStats, error) {
	dir, err := os.MkdirTemp(c.work, "registry-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st := &fleetStats{}
	begin := time.Now()
	p, err := startFleet(in, dir, t, epoch)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	st.setup = time.Since(begin)
	if length <= 0 {
		return st, nil
	}

	var mu sync.Mutex // guards st and putDue, written by the host workers
	putDue := map[revKey]time.Time{}
	want := map[string]int{}
	ctx := context.Background()
	jobs := make([]chan fleetJob, fleetHosts)
	var wg sync.WaitGroup
	for h := range jobs {
		// Room for every request a host could be sent during a long
		// stall, so the generator never waits on one slow host.
		jobs[h] = make(chan fleetJob, int(length.Seconds()*fleetRate)+1)
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			host := fmt.Sprintf("host-%02d", h)
			rev := make([]int, fleetApps)
			tpls := make([]*statespace.Template, fleetApps)
			for a, app := range in.apps {
				rev[a], tpls[a] = 1, statespace.CloneTemplate(in.base[app])
			}
			for job := range jobs[h] {
				app := in.apps[job.app]
				name := "fleet.pull"
				if job.put {
					name = "fleet.put"
				}
				sid := t.begin(name, 0, int64(job.i))
				p.inflight.set(host, sid)
				var got int
				var notModified bool
				var err error
				if job.put {
					tpls[job.app].States = append(tpls[job.app].States, job.grow...)
					var resp fleet.PutTemplateResponse
					resp, err = p.hosts[h].PushTemplate(ctx, host, app, tpls[job.app])
					got = resp.Revision
				} else {
					var d *statespace.TemplateDelta
					d, got, err = p.hosts[h].PullDelta(ctx, app, "", rev[job.app])
					notModified = err == nil && d == nil
				}
				done := time.Now()
				p.inflight.set(host, 0)
				t.end(sid)

				latency := sinceDue(job.due, done)
				mu.Lock()
				st.lat = append(st.lat, ms(latency))
				switch {
				case err != nil:
					st.failed++
				case job.put:
					st.puts++
					st.putLat = append(st.putLat, ms(latency))
					putDue[revKey{app, got}] = job.due
					want[app] = max(want[app], got)
				default:
					rev[job.app] = got
					st.pulls++
					st.pullLat = append(st.pullLat, ms(latency))
					if notModified {
						st.notModified++
					}
				}
				mu.Unlock()
			}
		}(h)
	}

	// Exactly one request in every putEvery is a put, at a random place,
	// so every run has the same write share.
	const putEvery = 4
	putAt := -1
	sched := schedule{start: time.Now(), interval: time.Second / fleetRate}
	cpu0 := cpuTime()
	for i := 0; ; i++ {
		due := sched.due(i)
		if due.Sub(sched.start) >= length {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if i%putEvery == 0 {
			putAt = i + in.rng.Intn(putEvery)
		}
		job := fleetJob{i: i, due: due, app: in.rng.Intn(fleetApps), put: i == putAt}
		h := in.rng.Intn(fleetHosts)
		if job.put {
			job.grow = newStates(in.rng, in.base[in.apps[job.app]].Dim, fleetNewPerPush)
		}
		st.lagMS = append(st.lagMS, ms(sinceDue(due, time.Now())))
		st.attempted++
		jobs[h] <- job
	}
	for _, ch := range jobs {
		close(ch)
	}
	wg.Wait()
	st.wall = time.Since(sched.start)
	st.cpu = cpuTime() - cpu0
	for _, ct := range p.counters {
		st.putBytes += ct.putBytes.Load()
		st.deltaBytes += ct.deltaBytes.Load()
	}

	syncErr := p.waitReplica(want)
	st.checks = append(st.checks, check{"replica in sync", syncErr == nil, fmt.Sprintf("stream-fed replica reached every pushed revision: %v", syncErr)})
	p.mu.Lock()
	for k, at := range putDue {
		if applied, ok := p.applied[k]; ok {
			st.propagationMS = append(st.propagationMS, ms(applied.Sub(at)))
		}
		if pub, ok := p.published[k]; ok {
			st.pushLagMS = append(st.pushLagMS, ms(p.received[k].Sub(pub)))
		}
	}
	st.applyMS = append(st.applyMS, p.applyMS...)
	gaps, streamErr := p.gaps, p.streamErr
	replica := map[string]*statespace.Template{}
	replicaAt := map[string]int{}
	for app := range p.replica {
		replica[app], replicaAt[app] = p.replica[app], p.replicaAt[app]
	}
	p.mu.Unlock()
	st.checks = append(st.checks,
		check{"stream", gaps == 0 && streamErr == nil, fmt.Sprintf("%d revision gaps, stream error %v", gaps, streamErr)},
		check{"propagated", len(st.propagationMS) == len(putDue), fmt.Sprintf("%d of %d pushes applied by the subscriber", len(st.propagationMS), len(putDue))})

	for _, app := range in.apps {
		full, rev, err := p.client.PullTemplate(ctx, app, "", 0)
		if err != nil {
			return nil, &checkError{"replica matches registry", fmt.Errorf("final PullTemplate %s: %w", app, err)}
		}
		st.consensusStates += len(full.States)
		local := replica[app]
		ok := local != nil && len(local.States) == len(full.States) && replicaAt[app] == rev
		detail := fmt.Sprintf("%s: registry revision %d with %d states", app, rev, len(full.States))
		if local != nil {
			detail += fmt.Sprintf(", replica revision %d with %d states", replicaAt[app], len(local.States))
		}
		st.checks = append(st.checks, check{"replica matches registry", ok, detail})
	}
	return st, nil
}

// fleetJob is one request the generator hands to a host's worker.
type fleetJob struct {
	i   int
	due time.Time
	app int
	put bool
	// grow are the states a put adds to the host's template, drawn by
	// the generator so the inputs depend only on the seed.
	grow []statespace.TemplateState
}

// newStates draws n fresh random states, as if a host had learned them
// since its last push.
func newStates(rng *rand.Rand, dim, n int) []statespace.TemplateState {
	var out []statespace.TemplateState
	for i := 0; i < n; i++ {
		vec := make([]float64, dim)
		for d := range vec {
			vec[d] = rng.Float64()
		}
		label := statespace.Safe.String()
		if rng.Intn(10) == 0 {
			label = statespace.Violation.String()
		}
		out = append(out, statespace.TemplateState{
			X: rng.Float64(), Y: rng.Float64(), Label: label, Weight: 1, Vector: vec,
		})
	}
	return out
}

// runFleet sets the plane up several times for the set-up median and
// measures the open loop on one of them. Half of the extra set-ups come
// before the open loop and half after, so the median does not hang on the
// machine's state at the start of the run. A traced run measures an
// untraced window first, as the baseline of the tracing overhead. An error
// ends the workload as a failed check.
func runFleet(c runConfig) *outcome {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	gauge, err := startPeakGauge()
	if err != nil {
		return o.stop(err)
	}
	var setups []float64
	setUp := func(from, to int) error {
		for i := from; i < to; i++ {
			st, err := runFleetWindow(newFleetInputs(c.seed), c, nil, 0, int64(i))
			if err != nil {
				return err
			}
			setups = append(setups, st.setup.Seconds())
		}
		return nil
	}
	if err := setUp(0, fleetSetups/2); err != nil {
		return o.stop(err)
	}
	length := c.seconds
	var baseline *fleetStats
	if c.trace {
		length = c.seconds / 2
		st, err := runFleetWindow(newFleetInputs(c.seed), c, nil, length, fleetSetups)
		if err != nil {
			return o.stop(err)
		}
		baseline = st
	}
	var t *tracer
	if c.trace {
		t = newTracer()
	}
	st, err := runFleetWindow(newFleetInputs(c.seed), c, t, length, fleetSetups+1)
	if err != nil {
		return o.stop(err)
	}
	setups = append(setups, st.setup.Seconds())
	if err := setUp(fleetSetups/2, fleetSetups-1); err != nil {
		return o.stop(err)
	}
	peak, err := gauge.peak()
	if err != nil {
		return o.stop(err)
	}

	o.attempted, o.failed = st.attempted, st.failed
	o.checks = append(o.checks, check{"requests", st.failed == 0,
		fmt.Sprintf("%d of %d requests failed (error or non-2xx/304 status)", st.failed, st.attempted)})
	o.checks = append(o.checks, st.checks...)

	tailV, tailPct, _ := tail(st.lat, tailMinBeyond)
	putTail, putPct, _ := tail(st.putLat, tailMinBeyond)
	o.e2e["setup_s"] = median(setups)
	o.e2e["op_p50_ms"] = median(st.lat)
	o.e2e["cpu_overhead_pct"] = 100 * st.cpu.Seconds() / st.wall.Seconds()
	o.e2e["heap_peak_mb"] = float64(peak) / 1e6
	deltaPerPull := float64(st.deltaBytes) / float64(max(st.pulls, 1))

	o.note("setup_samples", float64(len(setups)), "count", fmt.Sprintf("min %.4g s, max %.4g s", slices.Min(setups), slices.Max(setups)))
	o.note("request_p50_ms", median(st.lat), "ms", fmt.Sprintf("%d requests at %d/s from %d hosts, timed from due time", st.attempted, fleetRate, fleetHosts))
	o.note("request_tail_ms", tailV, "ms", tailLabel(tailPct, len(st.lat)))
	o.note("fail_frac", float64(st.failed)/float64(max(st.attempted, 1)), "1", "")
	o.note("put_p50_ms", median(st.putLat), "ms", fmt.Sprintf("%d puts", len(st.putLat)))
	o.note("put_tail_ms", putTail, "ms", tailLabel(putPct, len(st.putLat)))
	o.note("pull_p50_ms", median(st.pullLat), "ms", fmt.Sprintf("%d pulls", len(st.pullLat)))
	o.note("propagation_p50_ms", median(st.propagationMS), "ms", "PUT due time → subscriber applied the delta")
	o.note("delta_bytes_per_pull", deltaPerPull, "B", "")

	if !c.trace {
		return o
	}
	o.spans = t.snapshot()
	times := selfTimes(o.spans)
	l := o.layers
	l["statespace.apply_delta_ms"] = mean(st.applyMS)
	l["registry.put_ms"] = times["registry.put"].meanMS()
	l["registry.delta_since_ms"] = times["registry.delta_since"].meanMS()
	l["registry.consensus_states"] = float64(st.consensusStates)
	l["fleet.put_p50_ms"] = median(st.putLat)
	l["fleet.put_tail_ms"] = putTail
	l["fleet.pull_p50_ms"] = median(st.pullLat)
	l["fleet.put_overhead_ms"] = times["fleet.put"].meanSelfMS()
	l["fleet.put_bytes"] = float64(st.putBytes) / float64(max(st.puts, 1))
	l["fleet.delta_bytes_per_pull"] = deltaPerPull
	l["fleet.not_modified_ratio"] = float64(st.notModified) / float64(max(st.pulls, 1))
	l["stream.publish_ms"] = times["stream.publish"].meanMS()
	l["stream.push_lag_ms"] = median(st.pushLagMS)
	l["stream.propagation_p50_ms"] = median(st.propagationMS)
	l["bench.op_tail_ms"] = tailV
	l["bench.generator_lag_p99_ms"] = percentile(st.lagMS, 0.99)
	base := median(baseline.lat)
	l["bench.trace_overhead_pct"] = 100 * (median(st.lat) - base) / base
	return o
}
