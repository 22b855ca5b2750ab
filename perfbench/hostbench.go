package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/throttle"
	"repro/internal/workload"
)

// periodBudget is stayawayd's default -period: a control period that
// takes longer has left the sensitive application unprotected.
const periodBudget = time.Second

// hostWorkload is a control-loop workload: fixed-length episodes, each a
// fresh simulated host driven period by period through the shipped
// core.HostRuntime. An episode's simulated outcomes depend on its seed
// alone, so they must repeat bit for bit whenever the seed runs again.
type hostWorkload struct {
	// warmup periods run before measurement and count as set-up.
	warmup int
	// periods are measured per episode.
	periods int
	// episodeSeconds is one episode's wall time on a 2-vCPU Xeon virtual
	// machine. It sizes the fixed number of episodes a run of a given
	// length measures, so the inputs depend on --seed and --seconds alone,
	// never on how fast the loop happens to run.
	episodeSeconds float64
	// build assembles one episode's host. With protect false it runs the
	// same co-location without Stay-Away (the unprotected reference).
	build func(seed int64, protect bool, t *tracer, dir string) (*hostRig, error)
}

// laneRig is one protected application on the simulated host.
type laneRig struct {
	app, id string
	start   int
	build   func(*rand.Rand) sim.QoSApp
	rng     *rand.Rand
	sig     *simSignals
}

// batchRig schedules one batch container.
type batchRig struct {
	id    string
	start int
	build func(*rand.Rand) sim.App
	rng   *rand.Rand
}

// hostRig is one episode: the simulator, the shipped host loop over it
// (nil when unprotected) and the actuation chain's probes.
type hostRig struct {
	sim    *sim.Simulator
	host   *core.HostRuntime
	lanes  []*laneRig
	batch  []*batchRig
	ledger *resilience.Ledger
	// outer sits between the arbiter and the ledger (or the simulator
	// when there is no ledger); inner sits under the ledger. Both are nil
	// in untraced runs.
	outer, inner *tracedActuator
}

// simHostEnv is the simulator seen as core.HostEnvironment.
type simHostEnv struct {
	sim      *sim.Simulator
	batchIDs []string
}

func (e *simHostEnv) Collect() []metrics.Sample { return e.sim.Samples() }

func (e *simHostEnv) BatchRunning() bool {
	for _, id := range e.batchIDs {
		if c, err := e.sim.Container(id); err == nil && c.Running() {
			return true
		}
	}
	return false
}

func (e *simHostEnv) BatchActive() bool {
	for _, id := range e.batchIDs {
		if c, err := e.sim.Container(id); err == nil && c.Active() {
			return true
		}
	}
	return false
}

// simSignals is one lane's QoS report, bound when its container starts.
type simSignals struct {
	sim *sim.Simulator
	id  string
	qos sim.QoSApp
}

func (s *simSignals) QoSViolation() bool {
	if s.qos == nil || !s.SensitiveRunning() {
		return false
	}
	v, thr := s.qos.QoS()
	return v < thr
}

func (s *simSignals) SensitiveRunning() bool {
	c, err := s.sim.Container(s.id)
	return err == nil && c.Running()
}

// newHostRig wires lanes and batch containers onto a fresh simulator and,
// when protect is set, the shipped loop: core.NewHost over the simulator
// with actuation arbiter → [throttle.actuate probe] → [ledger →
// sim.actuate probe] → simulator. tune adjusts each lane's config.
func newHostRig(hc sim.HostConfig, lanes []*laneRig, batch []*batchRig, protect, ledger bool,
	t *tracer, dir string, tune func(*core.Config)) (*hostRig, error) {
	s, err := sim.NewSimulator(hc)
	if err != nil {
		return nil, err
	}
	rig := &hostRig{sim: s, lanes: lanes, batch: batch}
	batchIDs := make([]string, len(batch))
	for i, b := range batch {
		batchIDs[i] = b.id
	}
	for _, l := range lanes {
		l.sig = &simSignals{sim: s, id: l.id}
	}
	if !protect {
		return rig, nil
	}

	var act throttle.Actuator = experiments.NewSimActuator(s)
	if ledger {
		if t != nil {
			act, rig.inner = wrapActuator(act, "sim.actuate", t)
		}
		l, err := resilience.OpenLedger(filepath.Join(dir, "ledger.json"))
		if err != nil {
			return nil, fmt.Errorf("open ledger: %w", err)
		}
		rig.ledger = l
		if act, err = resilience.NewLedgeredActuator(act, l); err != nil {
			return nil, err
		}
	}
	if t != nil {
		act, rig.outer = wrapActuator(act, "throttle.actuate", t)
	}
	var env core.HostEnvironment = &simHostEnv{sim: s, batchIDs: batchIDs}
	if t != nil {
		env = &tracedEnv{inner: env, t: t}
	}
	if rig.host, err = core.NewHost(env, act); err != nil {
		return nil, err
	}
	ranges := metrics.DefaultRanges(hc.Cores, hc.MemoryMB, hc.DiskMBps, hc.NetMbps)
	for _, l := range lanes {
		cfg := core.DefaultConfig(l.id, batchIDs, ranges)
		cfg.SensitiveApp = l.app
		cfg.Seed = l.rng.Int63()
		if tune != nil {
			tune(&cfg)
		}
		if _, err := rig.host.AddLane(cfg, l.sig); err != nil {
			return nil, fmt.Errorf("lane %q: %w", l.app, err)
		}
	}
	return rig, nil
}

// schedule starts the containers due at tick.
func (r *hostRig) schedule(tick int) error {
	for _, l := range r.lanes {
		if tick == l.start {
			app := l.build(l.rng)
			if _, err := r.sim.AddContainer(l.id, app); err != nil {
				return err
			}
			l.sig.qos = app
		}
	}
	for _, b := range r.batch {
		if tick == b.start {
			if _, err := r.sim.AddContainer(b.id, b.build(b.rng)); err != nil {
				return err
			}
		}
	}
	return nil
}

// simOutcome is what part of an episode did in simulated terms. It
// depends only on the seed, so it must repeat bit for bit.
type simOutcome struct {
	ViolationRate float64
	BatchCores    float64
	Precision     float64
	Recall        float64
	Predicted     int
	States        int
	NewStates     int
	Refreshes     int
	Discs         int
	Stress        float64
	LanePeriods   int
}

// counters are an episode's running simulated totals.
type counters struct {
	violations, lanePeriods, states, refreshes int
	batchWork                                  float64
}

func (r *hostRig) counters(lanes []*core.Lane, c counters) counters {
	c.batchWork = batchWork(r)
	c.states, c.refreshes = totalStates(lanes), totalRefreshes(lanes)
	return c
}

// summarize describes the periods between two counter readings.
func summarize(lanes []*core.Lane, from, to counters, periods int) simOutcome {
	out := simOutcome{
		LanePeriods: to.lanePeriods - from.lanePeriods,
		NewStates:   to.states - from.states,
		Refreshes:   to.refreshes - from.refreshes,
		States:      to.states,
	}
	if out.LanePeriods > 0 {
		out.ViolationRate = float64(to.violations-from.violations) / float64(out.LanePeriods)
	}
	if periods > 0 {
		out.BatchCores = (to.batchWork - from.batchWork) / float64(periods) / 100
	}
	for _, l := range lanes {
		rep := l.Report()
		out.Precision += rep.Precision / float64(len(lanes))
		out.Recall += rep.Recall / float64(len(lanes))
		out.Predicted += rep.PredictedViolations
		out.Stress += rep.LastStress
		out.Discs += len(l.Space().ViolationRanges())
	}
	return out
}

// minSetups is how many set-ups a host run times at least: each episode
// sets up once, and replays of the episodes' warm-ups make up the rest.
const minSetups = 5

// episodes is the number of episodes a run of the given length measures.
func (w hostWorkload) episodes(seconds time.Duration) int {
	return max(1, int(math.Round(seconds.Seconds()/w.episodeSeconds)))
}

// episodeStats accumulates the measured side of an episode.
type episodeStats struct {
	setup    time.Duration
	lat      []float64
	overruns int
	cpu      time.Duration
	// warm describes the warm-up, outcome the measured periods.
	warm, outcome simOutcome
	// Traced episodes only: period latency by kind (a refresh ran; a new
	// state was created; every lane revisited a known state), probe
	// timings and simulator steps.
	refreshLat, newStateLat, revisitLat []float64
	refreshProbeMS, rangesProbeMS       []float64
	stepMS                              []float64
	actuateCalls                        int
	// outstanding is the ledger's outstanding entries after the final
	// Release.
	outstanding int
}

// runEpisode builds one episode, warms it up (set-up), then measures
// periods back-to-back periods. Simulator steps are not timed as periods.
// With a tracer, probes time the mapping layers' public functions on the
// live state space between periods. A period error, a period count that
// does not match, or a failed release is returned as a *checkError.
func runEpisode(w hostWorkload, periods int, seed int64, protect bool, t *tracer, dir string) (*episodeStats, error) {
	st := &episodeStats{}
	// Earlier episodes' garbage is collected before the clock starts, so
	// no episode pays for another's.
	runtime.GC()
	begin := time.Now()
	rig, err := w.build(seed, protect, t, dir)
	if err != nil {
		return nil, err
	}
	var lanes []*core.Lane
	if rig.host != nil {
		lanes = rig.host.Lanes()
	}
	var c, warm counters
	for tick := 0; tick < w.warmup+periods; tick++ {
		measured := tick >= w.warmup
		if tick == w.warmup {
			st.setup = time.Since(begin)
			warm = rig.counters(lanes, c)
			st.warm = summarize(lanes, counters{}, warm, w.warmup)
		}
		if err := rig.schedule(tick); err != nil {
			return nil, err
		}
		sid := t.begin("sim.step", 0, int64(tick))
		stepStart := time.Now()
		rig.sim.Step()
		stepDur := time.Since(stepStart)
		t.end(sid)
		if measured && t != nil {
			st.stepMS = append(st.stepMS, ms(stepDur))
		}
		for _, l := range rig.lanes {
			if l.sig.SensitiveRunning() {
				c.lanePeriods++
				if l.sig.QoSViolation() {
					c.violations++
				}
			}
		}
		if rig.host == nil {
			continue
		}

		var refreshesBefore int
		if t != nil {
			refreshesBefore = totalRefreshes(lanes)
		}
		t.setOp(int64(tick))
		cpu0 := cpuTime()
		pid := t.enter("core.period")
		start := time.Now()
		evs, err := rig.host.Period()
		d := time.Since(start)
		t.leave(pid)
		cpu := cpuTime() - cpu0
		if err != nil {
			return nil, &checkError{"periods", fmt.Errorf("period %d: %w", tick, err)}
		}
		if !measured {
			continue
		}
		st.lat = append(st.lat, ms(d))
		st.cpu += cpu
		if d > periodBudget {
			st.overruns++
		}
		if t == nil {
			continue
		}
		newState := false
		for _, ev := range evs {
			newState = newState || ev.NewState
		}
		switch {
		case totalRefreshes(lanes) > refreshesBefore:
			st.refreshLat = append(st.refreshLat, ms(d))
			for _, l := range lanes {
				st.refreshProbeMS = append(st.refreshProbeMS, probeRefresh(l.Space()))
			}
		case newState:
			st.newStateLat = append(st.newStateLat, ms(d))
		default:
			st.revisitLat = append(st.revisitLat, ms(d))
		}
		for _, l := range lanes {
			pStart := time.Now()
			l.Space().ViolationRanges()
			st.rangesProbeMS = append(st.rangesProbeMS, ms(time.Since(pStart)))
		}
	}
	if periods == 0 {
		st.setup = time.Since(begin)
		warm = rig.counters(lanes, c)
		st.warm = summarize(lanes, counters{}, warm, w.warmup)
	}

	st.outcome = summarize(lanes, warm, rig.counters(lanes, c), periods)
	for _, l := range lanes {
		if n := l.Report().Periods; n != w.warmup+periods {
			return nil, &checkError{"periods", fmt.Errorf("lane %s: Report().Periods = %d after %d periods", l.App(), n, w.warmup+periods)}
		}
	}
	if rig.outer != nil {
		st.actuateCalls = rig.outer.calls
	}
	if rig.host != nil {
		if err := rig.host.Release(); err != nil {
			return nil, &checkError{"ledger released", fmt.Errorf("HostRuntime.Release: %w", err)}
		}
	}
	if rig.ledger != nil {
		st.outstanding = len(rig.ledger.Outstanding())
	}
	return st, nil
}

func totalStates(lanes []*core.Lane) int {
	n := 0
	for _, l := range lanes {
		n += l.Space().Len()
	}
	return n
}

func totalRefreshes(lanes []*core.Lane) int {
	n := 0
	for _, l := range lanes {
		n += l.Report().Refreshes
	}
	return n
}

// batchWork is the effective CPU the batch containers have performed.
func batchWork(r *hostRig) float64 {
	var w float64
	for _, b := range r.batch {
		if c, err := r.sim.Container(b.id); err == nil {
			w += c.TotalEffectiveCPU()
		}
	}
	return w
}

// probeRefresh times the embedding refresh the lane just ran, re-solved
// on a copy of the live vectors the way core's map stage solves it:
// landmark MDS above the threshold, distance matrix plus SMACOF at or
// below it. It uses its own RNG so the lane's is untouched.
func probeRefresh(space *statespace.Space) float64 {
	vectors := space.Vectors()
	opts := mds.DefaultOptions(rand.New(rand.NewSource(1)))
	start := time.Now()
	if len(vectors) > landmarkThreshold {
		if _, err := mds.LandmarkMDSVectors(vectors, landmarkThreshold, opts); err != nil {
			return 0
		}
	} else {
		delta, err := mds.DistanceMatrix(vectors)
		if err == nil {
			_, _ = mds.SMACOF(delta, opts)
		}
	}
	return ms(time.Since(start))
}

// landmarkThreshold is BenchmarkPeriodScaling's LandmarkThreshold, used by
// map-growth; host-colocation keeps the paper default (0, exact).
const landmarkThreshold = 256

// mapWorkload is the single-lane VLC-vs-Twitter host of
// BenchmarkPeriodScaling with an imported synthetic map of n states and
// dedup off, so every period adds a state.
func mapWorkload(n, warmup, periods int, episodeSeconds float64) hostWorkload {
	return hostWorkload{
		warmup:         warmup,
		periods:        periods,
		episodeSeconds: episodeSeconds,
		build: func(seed int64, protect bool, t *tracer, dir string) (*hostRig, error) {
			root := rand.New(rand.NewSource(seed))
			hc := sim.DefaultHostConfig()
			ranges := metrics.DefaultRanges(hc.Cores, hc.MemoryMB, hc.DiskMBps, hc.NetMbps)
			tpl := syntheticTemplate(rand.New(rand.NewSource(root.Int63())), n, ranges)
			lanes := []*laneRig{{
				app: "vlc", id: "vlc",
				build: func(rng *rand.Rand) sim.QoSApp {
					return apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rng)
				},
				rng: rand.New(rand.NewSource(root.Int63())),
			}}
			batch := []*batchRig{{
				id: "tw",
				build: func(rng *rand.Rand) sim.App {
					cfg := apps.DefaultTwitterConfig()
					cfg.TotalWork = 0
					return apps.NewTwitterAnalysis(cfg, rng)
				},
				rng: rand.New(rand.NewSource(root.Int63())),
			}}
			rig, err := newHostRig(hc, lanes, batch, protect, false, t, dir, func(c *core.Config) {
				c.DedupEpsilon = -1
				c.LandmarkThreshold = landmarkThreshold
			})
			if err != nil || rig.host == nil {
				return rig, err
			}
			return rig, rig.host.Lane("vlc").ImportTemplate(tpl)
		},
	}
}

// syntheticTemplate fabricates a learned 8-D map of n states, one in ten a
// violation state, spread over the unit measurement cube.
func syntheticTemplate(rng *rand.Rand, n int, ranges map[metrics.Metric]metrics.Range) *statespace.Template {
	t := &statespace.Template{
		Version:      1, // dim-only compatibility: schema fields omitted
		SensitiveApp: "vlc",
		Dim:          8,
		Ranges:       ranges,
	}
	for i := 0; i < n; i++ {
		vec := make([]float64, t.Dim)
		for d := range vec {
			vec[d] = rng.Float64()
		}
		label := statespace.Safe.String()
		if i%10 == 9 {
			label = statespace.Violation.String()
		}
		t.States = append(t.States, statespace.TemplateState{
			X: rng.Float64(), Y: rng.Float64(), Label: label, Weight: 1, Vector: vec,
		})
	}
	return t
}

// colocationWorkload is two lanes learned from scratch on an 8-core host:
// the transcoding VLC of experiments.ConflictScenario and an open-loop
// CPU-intensive web service under Poisson-thinned diurnal arrivals, over a
// CPU bomb from tick 40 and a memory bomb from tick 60, actuated through
// the write-ahead ledger.
func colocationWorkload(periods int, episodeSeconds float64) hostWorkload {
	return hostWorkload{
		warmup:         40,
		periods:        periods,
		episodeSeconds: episodeSeconds,
		build: func(seed int64, protect bool, t *tracer, dir string) (*hostRig, error) {
			sc := experiments.ConflictScenario(seed)
			var vlcBuild func(*rand.Rand) sim.QoSApp
			for _, sp := range sc.Sensitives {
				if sp.ID == "vlc" {
					vlcBuild = sp.Build
				}
			}
			if vlcBuild == nil {
				return nil, fmt.Errorf("conflict scenario has no vlc lane")
			}
			root := rand.New(rand.NewSource(seed))
			lanes := []*laneRig{
				{app: "vlc-transcode", id: "vlc", build: vlcBuild, rng: rand.New(rand.NewSource(root.Int63()))},
				{app: "web", id: "web", build: openLoopWeb, rng: rand.New(rand.NewSource(root.Int63()))},
			}
			batch := []*batchRig{
				{id: "cpubomb", start: 40, rng: rand.New(rand.NewSource(root.Int63())),
					build: func(*rand.Rand) sim.App { return apps.NewCPUBomb(apps.DefaultCPUBombConfig()) }},
				{id: "membomb", start: 60, rng: rand.New(rand.NewSource(root.Int63())),
					build: func(rng *rand.Rand) sim.App { return apps.NewMemoryBomb(apps.DefaultMemoryBombConfig(), rng) }},
			}
			return newHostRig(sc.Host, lanes, batch, protect, true, t, dir, nil)
		},
	}
}

// openLoopWeb is the CPU-intensive open-loop service under a Poisson-thinned
// diurnal day of 144 ticks around 70 requests per tick.
func openLoopWeb(rng *rand.Rand) sim.QoSApp {
	svc, err := apps.NewOpenLoopService(apps.DefaultOpenLoopConfig(apps.CPUIntensive,
		workload.NewPoisson(workload.Diurnal{Base: 70, Amplitude: 0.6, PeriodTicks: 144, PeakTick: 72}, rng)))
	if err != nil {
		// The default config with a non-nil process always validates.
		panic(err)
	}
	return svc
}

// runHost runs the workload's fixed number of episodes for the run length.
// Each episode draws its own seed from --seed, so one run averages over
// several inputs. In a traced run every episode seed runs twice, untraced
// (the baseline of the tracing overhead) and then traced, and per-layer
// metrics come from the traced twins. Warm-ups are then replayed until at
// least minSetups set-ups have been timed (always at least one replay), and
// each replay must repeat its episode's warm-up bit for bit; every
// episode's simulated outcome is also checked against earlier runs of the
// same seed. An error ends the workload as a failed check.
func runHost(w hostWorkload, c runConfig, reference bool) *outcome {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	gauge, err := startPeakGauge()
	if err != nil {
		return o.stop(err)
	}
	var t *tracer
	if c.trace {
		t = newTracer()
	}
	seeds := rand.New(rand.NewSource(c.seed))
	epSeeds := make([]int64, w.episodes(c.seconds))
	for i := range epSeeds {
		epSeeds[i] = seeds.Int63()
	}
	var untraced, measured []*episodeStats
	identical := true
	for _, seed := range epSeeds {
		st, err := runEpisodeIn(w, w.periods, seed, c.work, true, nil)
		if err != nil {
			return o.stop(err)
		}
		o.attempted += len(st.lat)
		untraced = append(untraced, st)
		if !c.trace {
			measured = append(measured, st)
			continue
		}
		twin, err := runEpisodeIn(w, w.periods, seed, c.work, true, t)
		if err != nil {
			return o.stop(err)
		}
		o.attempted += len(twin.lat)
		identical = identical && twin.warm == st.warm && twin.outcome == st.outcome
		measured = append(measured, twin)
	}
	var setups []float64
	var outcomes []simOutcome
	outstanding := 0
	for _, st := range untraced {
		setups = append(setups, st.setup.Seconds())
		outcomes = append(outcomes, st.outcome)
		outstanding = max(outstanding, st.outstanding)
	}
	replays := 0
	for ; replays == 0 || len(setups) < minSetups; replays++ {
		i := replays % len(epSeeds)
		rep, err := runEpisodeIn(w, 0, epSeeds[i], c.work, true, nil)
		if err != nil {
			return o.stop(err)
		}
		identical = identical && rep.warm == untraced[i].warm
		setups = append(setups, rep.setup.Seconds())
	}
	peak, err := gauge.peak()
	if err != nil {
		return o.stop(err)
	}

	first := untraced[0].outcome
	var lat []float64
	var cpu time.Duration
	overruns := 0
	for _, st := range measured {
		outstanding = max(outstanding, st.outstanding)
		lat = append(lat, st.lat...)
		cpu += st.cpu
		overruns += st.overruns
	}
	runs := len(epSeeds)
	if c.trace {
		runs *= 2
	}
	o.check("periods", o.attempted == runs*w.periods, "%d of %d measured periods ran in %d episodes of %d warm-up and %d measured periods (traced twins: %t) and %d warm-up replays; every HostRuntime.Period returned without error and Report().Periods matched",
		o.attempted, runs*w.periods, len(epSeeds), w.warmup, w.periods, c.trace, replays)
	o.check("deterministic", identical, "traced twins and the warm-up replays repeat their episodes bit for bit; first episode: warm-up %+v, measured %+v", untraced[0].warm, first)
	o.check("ledger released", outstanding == 0, "%d outstanding ledger entries after HostRuntime.Release", outstanding)

	tailV, tailPct, _ := tail(lat, tailMinBeyond)
	o.e2e["setup_s"] = median(setups)
	o.e2e["op_p50_ms"] = median(lat)
	o.e2e["cpu_overhead_pct"] = 100 * cpu.Seconds() / (float64(len(lat)) * periodBudget.Seconds())
	o.e2e["heap_peak_mb"] = float64(peak) / 1e6

	o.note("setup_samples", float64(len(setups)), "count", fmt.Sprintf("min %.4g s, max %.4g s", slices.Min(setups), slices.Max(setups)))
	o.note("period_p50_ms", median(lat), "ms", fmt.Sprintf("%d periods", len(lat)))
	o.note("period_tail_ms", tailV, "ms", tailLabel(tailPct, len(lat)))
	o.note("fail_frac", float64(overruns)/float64(len(lat)), "1", fmt.Sprintf("%d periods over the %v budget", overruns, periodBudget))
	o.note("violation_rate", first.ViolationRate, "1", fmt.Sprintf("%d lane-periods", first.LanePeriods))
	o.note("batch_cores", first.BatchCores, "cores", "")
	o.note("prediction_precision", first.Precision, "1", "")
	o.note("prediction_recall", first.Recall, "1", "")

	var unprot simOutcome
	if reference {
		st, err := runEpisodeIn(w, w.periods, epSeeds[0], c.work, false, nil)
		if err != nil {
			return o.stop(fmt.Errorf("unprotected reference: %w", err))
		}
		unprot = st.outcome
		o.note("violation_rate_unprotected", unprot.ViolationRate, "1", "same seed without Stay-Away")
		o.note("batch_cores_unprotected", unprot.BatchCores, "cores", "same seed without Stay-Away")
		o.check("protection", first.ViolationRate < unprot.ViolationRate && first.BatchCores > 0,
			"violation rate %.4f protected < %.4f unprotected, batch cores %.4f > 0",
			first.ViolationRate, unprot.ViolationRate, first.BatchCores)
	}
	fingerprint(o, c, struct{ Warm, Unprotected simOutcome }{untraced[0].warm, unprot}, outcomes)

	if !c.trace {
		return o
	}
	o.spans = t.snapshot()
	times := selfTimes(o.spans)
	var refreshLat, newStateLat, revisitLat, refreshProbe, rangesProbe, steps []float64
	calls := 0
	for _, st := range measured {
		refreshLat = append(refreshLat, st.refreshLat...)
		newStateLat = append(newStateLat, st.newStateLat...)
		revisitLat = append(revisitLat, st.revisitLat...)
		refreshProbe = append(refreshProbe, st.refreshProbeMS...)
		rangesProbe = append(rangesProbe, st.rangesProbeMS...)
		steps = append(steps, st.stepMS...)
		calls += st.actuateCalls
	}
	l := o.layers
	l["core.period_refresh_ms"] = mean(refreshLat)
	l["core.period_newstate_ms"] = mean(newStateLat)
	l["core.period_revisit_ms"] = mean(revisitLat)
	l["core.pipeline_self_ms"] = times["core.period"].meanSelfMS()
	l["core.refreshes"] = float64(first.Refreshes)
	l["core.new_states"] = float64(first.NewStates)
	l["core.overruns"] = float64(overruns)
	l["mds.refresh_probe_ms"] = mean(refreshProbe)
	l["mds.refresh_stress"] = first.Stress
	l["statespace.ranges_probe_ms"] = mean(rangesProbe)
	l["statespace.discs"] = float64(first.Discs)
	l["statespace.states"] = float64(first.States)
	l["env.collect_ms"] = times["env.collect"].meanMS()
	l["throttle.actuate_calls"] = float64(calls) / float64(len(measured))
	l["throttle.actuate_ms"] = times["throttle.actuate"].meanMS()
	if times["sim.actuate"].Count > 0 {
		// The ledger's share: the outer actuation span minus the
		// simulator actuation nested under the ledger.
		l["resilience.ledger_ms"] = times["throttle.actuate"].meanSelfMS()
	}
	l["resilience.outstanding_after_release"] = float64(outstanding)
	l["predictor.predicted"] = float64(first.Predicted)
	l["predictor.precision"] = first.Precision
	l["predictor.recall"] = first.Recall
	l["sim.step_ms"] = mean(steps)
	l["sim.violation_rate"] = first.ViolationRate
	l["sim.batch_cores"] = first.BatchCores
	l["sim.violation_rate_unprotected"] = unprot.ViolationRate
	l["sim.batch_cores_unprotected"] = unprot.BatchCores
	l["bench.op_tail_ms"] = tailV
	var baseLat []float64
	for _, st := range untraced {
		baseLat = append(baseLat, st.lat...)
	}
	base := median(baseLat)
	l["bench.trace_overhead_pct"] = 100 * (median(lat) - base) / base
	return o
}

// runEpisodeIn runs one episode in its own scratch directory under work.
func runEpisodeIn(w hostWorkload, periods int, seed int64, work string, protect bool, t *tracer) (*episodeStats, error) {
	dir, err := os.MkdirTemp(work, "episode-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return runEpisode(w, periods, seed, protect, t, dir)
}
