package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fsatomic"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/throttle"
)

// The daemon's own admin metrics, distinct from the fleet sync counters
// written by -metrics-file.
const (
	metricReloads   = "stayaway_daemon_reloads_total"
	helpReloads     = "Hot reload attempts by result."
	metricPeriods   = "stayaway_daemon_periods_total"
	helpPeriods     = "Completed control periods."
	metricLanes     = "stayaway_daemon_lanes"
	helpLanes       = "Protection lanes currently running."
	metricLaneLevel = "stayaway_daemon_lane_level"
	helpLaneLevel   = "Lane's current batch allowance (1 free, 0 frozen)."
)

// Config holds the stayawayd flag values the control loop honours.
type Config struct {
	// Period is the control period (-period); the watchdog counts missed
	// periods in it.
	Period time.Duration
	// SyncEvery is the registry push and heartbeat cadence in periods
	// (-sync-every); 0 means 30.
	SyncEvery int
	// CheckpointEvery is the learned-state checkpoint cadence in periods
	// (-checkpoint-every); 0 means 30.
	CheckpointEvery int
	// WatchdogGrace is how many periods may pass without a completed one
	// before the watchdog thaws everything (-watchdog-grace); 0 runs no
	// watchdog.
	WatchdogGrace int
	// Verbose prints every period event and every healthy sync (-v).
	Verbose bool
}

// LaneHook is the host-specific half of adding or removing a lane live:
// stayawayd backs it with its cgroup collector and QoS report files,
// tests with fakes.
type LaneHook interface {
	// AddGroup starts collecting telemetry for a sensitive cgroup.
	AddGroup(group string) error
	// RemoveGroup stops collecting it.
	RemoveGroup(group string)
	// Signals builds a lane's QoS and run-state source over a collected
	// group and the QoS report file the application rewrites.
	Signals(group, qosFile string) (core.LaneSignals, error)
}

// Lane is one protected application as the loop drives it: the pipeline
// lane plus its daemon-side wiring and counters.
type Lane struct {
	// App is the fleet-wide application name (the lane's key).
	App string
	// Group is the collector group (core.Config.SensitiveID).
	Group string
	// Def is the lane's declarative source (lanes-file mode only).
	Def LaneDef
	// Core is the pipeline lane; it outlives its removal from the host
	// so exit paths can still checkpoint, report and export it.
	Core *core.Lane
	// Signals is the lane's QoS and run-state source.
	Signals core.LaneSignals
	// CheckpointPath is the learned-state checkpoint ("" = no crash
	// safety).
	CheckpointPath string
	// Syncer pushes the lane's map to the registry (nil = standalone);
	// Stream delivers fleet deltas (nil unless -stream).
	Syncer *fleet.Syncer
	Stream *fleet.StreamSyncer

	seq     uint64 // EventsSince cursor for the report drain
	hubSeq  uint64 // independent cursor for the admin SSE publisher
	periods int
	viols   int
	merges  int // fleet deltas folded into the live map
	merged  core.MergeStats
}

// Loop is stayawayd's control loop: one Mapping → Prediction → Action
// period per tick over a HostRuntime, with everything a long-running host
// needs around it — hot reload at period boundaries, fleet delta adoption,
// a watchdog, the admin surface, registry sync and checkpoints — and an
// exit path that never leaves batch work throttled.
//
// Each tick runs, in order: reload apply, stream-delta adopt,
// HostRuntime.Period, watchdog beat, event drain and board/hub/metrics
// publish, the push/heartbeat cadence, the checkpoint cadence, and the
// all-workloads-exited check. The runtime is touched only from the
// goroutine calling Run.
type Loop struct {
	Config

	// Host is the runtime the loop drives; Env is the environment it was
	// built over (its BatchActive decides the exit check). Required.
	Host *core.HostRuntime
	Env  core.HostEnvironment
	// Release is the final fail-safe: lift every restriction, bypassing
	// the lanes' beliefs. It runs on every exit and from the watchdog.
	// Required.
	Release func() error
	// Lanes is the running lane set, in host order. The loop adds and
	// removes entries on reload; after Run it holds the final set.
	Lanes []*Lane
	// Board receives the loop's status after every period. Required.
	Board *Board

	// Reloader, when set, is drained at every period boundary; Hook and
	// LaneConfig then build the lanes it adds or changes, and Watcher
	// (optional) queues a reload whenever the lanes file changes.
	Reloader   *Reloader
	Watcher    *Watcher
	Hook       LaneHook
	LaneConfig func(group, app string) core.Config
	// StateDir gives lanes added live their checkpoint files ("" = none).
	StateDir string
	// Fleet gives lanes added live their registry syncer (nil =
	// standalone); MetricsFile, when set, receives its sync metrics after
	// every sync round and on exit.
	Fleet       *fleet.HostSyncer
	MetricsFile string
	// Hub and Metrics, when set, receive period and lifecycle events and
	// the admin metric set.
	Hub     *stream.Hub
	Metrics *stream.MetricSet
	// Out and Err receive the loop's log (nil discards).
	Out, Err io.Writer

	periods int
	wd      *resilience.Watchdog
}

// Run drives one period per tick until ctx is done, ticks closes, or
// every monitored workload has exited. The exit path absorbs a panic,
// drains each lane through the arbiter (skipped after a panic: mid-period
// invariants cannot be trusted), runs Release, and — only when no panic
// occurred — writes the final checkpoints, pushes the final maps and
// prints each lane's report. The returned error is the absorbed panic.
func (l *Loop) Run(ctx context.Context, ticks <-chan time.Time) error {
	if l.Host == nil || l.Env == nil || l.Release == nil || l.Board == nil {
		return errors.New("daemon: loop needs a host runtime, its environment, a release and a status board")
	}
	if ticks == nil {
		return errors.New("daemon: loop needs a tick channel")
	}
	if l.Out == nil {
		l.Out = io.Discard
	}
	if l.Err == nil {
		l.Err = io.Discard
	}
	if l.SyncEvery <= 0 {
		l.SyncEvery = 30
	}
	if l.CheckpointEvery <= 0 {
		l.CheckpointEvery = 30
	}
	if l.WatchdogGrace > 0 {
		wd, err := resilience.NewWatchdog(resilience.WatchdogConfig{
			Period: l.Period, Grace: l.WatchdogGrace, OnStall: l.stalled,
		})
		if err != nil {
			return err
		}
		l.wd = wd
		wdCtx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go wd.Run(wdCtx)
	}

	loopErr := l.control(ctx, ticks)
	if loopErr == nil {
		// Graceful drain: each lane leaves through the arbiter's merge —
		// the fail-safe path a live removal uses — so every departing
		// restriction is released exactly once and the release below is
		// a backstop, not the primary thaw.
		for _, ln := range l.Lanes {
			if _, err := l.Host.RemoveLane(ln.App); err != nil {
				fmt.Fprintf(l.Err, "stayawayd: drain %s: %v\n", ln.App, err)
			}
		}
	}
	// Never leave batch workloads throttled on exit, panic included.
	if err := l.Release(); err != nil {
		fmt.Fprintln(l.Err, "stayawayd: final release:", err)
	}
	l.Board.Update(func(s *Status) { s.Ready = false })
	if loopErr != nil {
		// No final checkpoint or push after a panic: a snapshot of
		// corrupt state is worse than a stale one.
		return loopErr
	}
	l.checkpoint()
	l.drain()
	multi := len(l.Lanes) > 1
	for _, ln := range l.Lanes {
		// Share the freshest map with the fleet before exiting.
		l.sync(ln, false)
		if multi {
			fmt.Fprintf(l.Out, "--- %s ---\n", ln.App)
		}
		fmt.Fprintln(l.Out, ln.Core.Report())
		if ln.Stream != nil {
			st := ln.Stream.Stats()
			fmt.Fprintf(l.Out, "fleet stream: %d merges (%d states adopted, %d upgraded, %d matched), "+
				"%d events, %d reconnects, %d fallback polls\n",
				ln.merges, ln.merged.Added, ln.merged.Upgraded, ln.merged.Matched,
				st.Events, st.Reconnects, st.Polls)
		}
	}
	l.writeMetrics()
	if l.Fleet != nil {
		for app, err := range l.Fleet.Degraded() {
			fmt.Fprintf(l.Err, "stayawayd: %s: exiting out of sync with the registry: %v\n", app, err)
		}
	}
	return nil
}

// control runs ticks until an exit condition, converting a panic into
// the returned error.
func (l *Loop) control(ctx context.Context, ticks <-chan time.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("control loop panic: %v", r)
		}
	}()
	for {
		select {
		case <-ctx.Done():
			return nil
		case _, ok := <-ticks:
			if !ok || l.tick() {
				return nil
			}
		}
	}
}

// tick runs one period boundary and period, reporting whether every
// monitored workload has exited.
func (l *Loop) tick() (exited bool) {
	if l.Watcher != nil && l.Watcher.Changed() {
		l.QueueReload("watch")
	}
	l.applyReload()
	l.adopt()
	evs, err := l.Host.Period()
	if err != nil {
		fmt.Fprintln(l.Err, "stayawayd: period:", err)
		// A failed period protects nothing: readiness must say so.
		l.publish(false)
		return false
	}
	if l.wd != nil {
		l.wd.Beat()
	}
	l.periods++
	l.drain()
	l.publish(true)
	if l.periods%l.SyncEvery == 0 {
		throttled := make(map[string]bool, len(evs))
		for _, ev := range evs {
			throttled[ev.App] = ev.Throttled
		}
		for _, ln := range l.Lanes {
			l.sync(ln, throttled[ln.App])
		}
		l.writeMetrics()
	}
	if l.periods%l.CheckpointEvery == 0 {
		l.checkpoint()
	}
	for _, ln := range l.Lanes {
		if ln.Signals.SensitiveRunning() {
			return false
		}
	}
	if l.Env.BatchActive() {
		return false
	}
	fmt.Fprintln(l.Out, "stayawayd: all monitored workloads exited")
	return true
}

// stalled is the watchdog's action, run from its own goroutine: the
// stalled loop cannot publish its own bad news or thaw anything.
func (l *Loop) stalled(since time.Duration) {
	fmt.Fprintf(l.Err, "stayawayd: watchdog: no completed period for %v, thawing everything\n", since)
	l.Board.Update(func(s *Status) {
		s.WatchdogStalled = true
		s.WatchdogStalls++
	})
	if err := l.Release(); err != nil {
		fmt.Fprintln(l.Err, "stayawayd: watchdog release:", err)
	}
}

// QueueReload is phase one of a hot reload, shared by SIGHUP, the watcher
// and POST /v1/reload: validate and stage for the next period boundary,
// or reject with the running set untouched. Safe from any goroutine.
func (l *Loop) QueueReload(source string) error {
	if l.Reloader == nil {
		fmt.Fprintf(l.Err, "stayawayd: reload (%s) ignored: hot reload needs -lanes-file\n", source)
		return errors.New("daemon: hot reload needs a lanes file")
	}
	if err := l.Reloader.Queue(); err != nil {
		fmt.Fprintf(l.Err, "stayawayd: reload (%s) rejected, keeping running config: %v\n", source, err)
		if l.Metrics != nil {
			l.Metrics.Counter(metricReloads, helpReloads, "result", "rejected").Add(1)
		}
		if l.Hub != nil {
			l.Hub.Publish(ReloadEvent(ReloadOutcome{Rejected: err.Error()}))
		}
		return err
	}
	fmt.Fprintf(l.Out, "stayawayd: reload (%s) validated, applying at next period boundary\n", source)
	return nil
}

// applyReload is phase two of a hot reload: take the staged config, diff
// it against what is running, apply adds before changes before removes —
// the shared pool is never left less protected than both configs agree
// on — and commit the set actually running afterwards, so a failed add
// surfaces as drift in ReloadStatus instead of being papered over.
func (l *Loop) applyReload() {
	if l.Reloader == nil {
		return
	}
	desired, gen, ok := l.Reloader.TakePending()
	if !ok {
		return
	}
	diff := l.Reloader.Diff(desired)
	if diff.Empty() {
		l.Reloader.Commit(gen, desired)
		return
	}
	fmt.Fprintf(l.Out, "stayawayd: reload gen %d: applying %s\n", gen, diff)
	byApp := make(map[string]*Lane, len(l.Lanes))
	byGroup := make(map[string]*Lane, len(l.Lanes))
	for _, ln := range l.Lanes {
		byApp[ln.App] = ln
		byGroup[ln.Group] = ln
	}
	leaving := make(map[string]bool, len(diff.Remove))
	for _, name := range diff.Remove {
		leaving[name] = true
	}
	for _, d := range diff.Add {
		// A rename keeps the cgroup under a new application name. A cgroup
		// belongs to one lane, so the old lane leaves first, and comes
		// back if its successor cannot start.
		old := byGroup[d.SensitiveCgroup]
		if old != nil && leaving[old.App] {
			l.reloadRemove(old)
			delete(leaving, old.App)
		} else {
			old = nil
		}
		ln, err := l.addLane(d)
		if err != nil {
			fmt.Fprintf(l.Err, "stayawayd: reload: add %s: %v\n", d.Name(), err)
			l.publishLane(LaneChange{Op: "add", App: d.Name(), Error: err.Error()})
			if old != nil {
				if _, err := l.addLane(old.Def); err != nil {
					fmt.Fprintf(l.Err, "stayawayd: reload: restore %s: %v\n", old.App, err)
				} else {
					fmt.Fprintf(l.Out, "stayawayd: reload: kept lane %s on cgroup %s\n", old.App, old.Group)
				}
			}
			continue
		}
		byApp[ln.App] = ln
		fmt.Fprintf(l.Out, "stayawayd: reload: added lane %s (cgroup %s)\n", ln.App, d.SensitiveCgroup)
		l.publishLane(LaneChange{Op: "add", App: ln.App})
	}
	for _, d := range diff.Change {
		ln := byApp[d.Name()]
		if ln == nil {
			continue
		}
		carried, err := l.changeLane(ln, d)
		if err != nil {
			fmt.Fprintf(l.Err, "stayawayd: reload: change %s rejected, lane keeps its old config: %v\n", d.Name(), err)
			l.publishLane(LaneChange{Op: "change", App: d.Name(), Error: err.Error()})
			continue
		}
		fmt.Fprintf(l.Out, "stayawayd: reload: reconfigured lane %s (state carried: %v)\n", ln.App, carried)
		l.publishLane(LaneChange{Op: "change", App: ln.App, Carried: carried})
	}
	for _, name := range diff.Remove {
		if ln := byApp[name]; ln != nil && leaving[name] {
			l.reloadRemove(ln)
		}
	}
	applied := make([]LaneDef, 0, len(l.Lanes))
	for _, ln := range l.Lanes {
		applied = append(applied, ln.Def)
	}
	l.Reloader.Commit(gen, applied)
	if l.Metrics != nil {
		l.Metrics.Counter(metricReloads, helpReloads, "result", "applied").Add(1)
	}
	if l.Hub != nil {
		l.Hub.Publish(ReloadEvent(ReloadOutcome{Generation: gen, Diff: diff.String()}))
	}
}

func (l *Loop) publishLane(c LaneChange) {
	if l.Hub != nil {
		l.Hub.Publish(LaneEvent(c))
	}
}

// reloadRemove removes a lane for a reload and reports the outcome.
func (l *Loop) reloadRemove(ln *Lane) {
	errStr := ""
	if err := l.removeLane(ln); err != nil {
		fmt.Fprintf(l.Err, "stayawayd: reload: remove %s: %v\n", ln.App, err)
		errStr = err.Error()
	} else {
		fmt.Fprintf(l.Out, "stayawayd: reload: removed lane %s\n", ln.App)
	}
	l.publishLane(LaneChange{Op: "remove", App: ln.App, Error: errStr})
}

// addLane starts a lane declared by d at a period boundary: telemetry
// group first, so the lane's first collection sees its real source.
func (l *Loop) addLane(d LaneDef) (*Lane, error) {
	group := d.SensitiveCgroup
	if err := l.Hook.AddGroup(group); err != nil {
		return nil, err
	}
	sig, err := l.Hook.Signals(group, d.QoSFile)
	if err != nil {
		l.Hook.RemoveGroup(group)
		return nil, err
	}
	lane, err := l.Host.AddLane(l.LaneConfig(group, d.Name()), sig)
	if err != nil {
		l.Hook.RemoveGroup(group)
		return nil, err
	}
	ln := &Lane{App: d.Name(), Group: group, Def: d, Core: lane, Signals: sig}
	if l.StateDir != "" {
		ln.CheckpointPath = resilience.LaneCheckpointPath(l.StateDir, ln.App)
		// A lane removed earlier and re-added resumes its learning.
		if ck, err := resilience.LoadCheckpoint(ln.CheckpointPath); err == nil && ck != nil {
			if err := lane.RestoreCheckpoint(ck); err == nil {
				fmt.Fprintf(l.Out, "stayawayd: %s: restored checkpoint (%d periods of learning)\n", ln.App, ck.Periods)
			}
		}
	}
	if l.Fleet != nil {
		ln.Syncer = l.Fleet.Lane(ln.App)
	}
	l.Lanes = append(l.Lanes, ln)
	return ln, nil
}

// changeLane reconfigures a running lane in place (same application
// name), carrying its learned state when the schema still matches.
func (l *Loop) changeLane(ln *Lane, d LaneDef) (carried bool, err error) {
	group := d.SensitiveCgroup
	moved := group != ln.Group
	if moved {
		// Register the new telemetry group first so the replacement
		// lane's first collection sees its real source.
		if err := l.Hook.AddGroup(group); err != nil {
			return false, err
		}
	}
	sig, err := l.Hook.Signals(group, d.QoSFile)
	if err == nil {
		var lane *core.Lane
		if lane, carried, err = l.Host.ReconfigureLane(l.LaneConfig(group, d.Name()), sig); err == nil {
			if moved {
				l.Hook.RemoveGroup(ln.Group)
			}
			ln.Group, ln.Signals, ln.Core, ln.Def = group, sig, lane, d
			// The replacement lane's event ring restarts at sequence 0.
			ln.seq, ln.hubSeq = 0, 0
			return carried, nil
		}
	}
	if moved {
		l.Hook.RemoveGroup(group) // roll back; the old lane runs on
	}
	return false, err
}

// removeLane drains a lane out of the host, flushing its learned state
// to its checkpoint and the registry first.
func (l *Loop) removeLane(ln *Lane) error {
	lane, err := l.Host.RemoveLane(ln.App)
	// The lane is out of the arbiter's merge even on error (removal is
	// fail-safe); what follows is best-effort bookkeeping.
	if lane != nil && lane.Space().Len() > 0 {
		if ln.CheckpointPath != "" {
			if ckErr := resilience.SaveCheckpoint(ln.CheckpointPath, lane.Checkpoint()); ckErr != nil {
				fmt.Fprintf(l.Err, "stayawayd: %s: departing checkpoint: %v\n", ln.App, ckErr)
			}
		}
		if ln.Syncer != nil {
			// Share the freshest map before the lane disappears.
			if pushErr := ln.Syncer.PushTemplate(lane.ExportTemplate(ln.App)); pushErr != nil {
				fmt.Fprintf(l.Err, "stayawayd: %s: departing push: %v\n", ln.App, pushErr)
			}
		}
	}
	l.Hook.RemoveGroup(ln.Group)
	for i, cur := range l.Lanes {
		if cur == ln {
			l.Lanes = append(l.Lanes[:i], l.Lanes[i+1:]...)
			break
		}
	}
	return err
}

// adopt folds the deltas the stream goroutines stashed into each lane's
// live map, between periods. A rejected merge (schema drift, corrupt
// patch) is logged and skipped: the revision cursor stays put, so the
// next poll re-fetches an authoritative delta instead of silently losing
// fleet state.
func (l *Loop) adopt() {
	for _, ln := range l.Lanes {
		if ln.Stream == nil {
			continue
		}
		d := ln.Stream.TakeUpdate()
		if d == nil {
			continue
		}
		stats, err := ln.Core.MergeTemplate(d.Patch)
		if err != nil {
			fmt.Fprintf(l.Err, "stayawayd: %s: fleet delta rejected: %v\n", ln.App, err)
			continue
		}
		ln.Stream.MarkApplied(d.ToRevision)
		ln.merges++
		ln.merged.Added += stats.Added
		ln.merged.Upgraded += stats.Upgraded
		ln.merged.Matched += stats.Matched
		if l.Verbose || stats.Upgraded > 0 || stats.Added > 0 {
			fmt.Fprintf(l.Out, "stayawayd: %s: merged fleet revision %d (+%d states, %d upgraded, %d matched)\n",
				ln.App, d.ToRevision, stats.Added, stats.Upgraded, stats.Matched)
		}
	}
}

// drain reads each lane's new events out of its bounded ring through the
// since-sequence cursor, so a slow reporting path can never make the
// daemon's memory grow with uptime.
func (l *Loop) drain() {
	multi := len(l.Lanes) > 1
	for _, ln := range l.Lanes {
		var evs []core.Event
		evs, ln.seq = ln.Core.EventsSince(ln.seq)
		for _, ev := range evs {
			ln.periods++
			if ev.Violation {
				ln.viols++
			}
			if l.Verbose || ev.Violation || ev.Action != throttle.ActionNone {
				if multi {
					fmt.Fprintf(l.Out, "[%s] %s\n", ln.App, ev)
				} else {
					fmt.Fprintln(l.Out, ev)
				}
			}
		}
	}
}

// publish pushes a period's outcome to the admin surface: the status
// board for /readyz, the hub for /v1/events subscribers (through each
// lane's own hubSeq cursor, so the report drain and the SSE feed never
// share one), and the admin metric set. ok is false for a failed period,
// which turns readiness off until a period succeeds again.
func (l *Loop) publish(ok bool) {
	if l.Hub != nil {
		for _, ln := range l.Lanes {
			var evs []core.Event
			evs, ln.hubSeq = ln.Core.EventsSince(ln.hubSeq)
			for _, ev := range evs {
				l.Hub.Publish(PeriodEvent(ev))
			}
		}
	}
	health := l.Host.Health()
	var wdStalled bool
	var wdStalls int
	if l.wd != nil {
		wdStalled, wdStalls, _, _ = l.wd.Status()
	}
	var rs ReloadStatus
	if l.Reloader != nil {
		rs = l.Reloader.Status()
	}
	l.Board.Update(func(s *Status) {
		s.Ready = ok
		s.Periods = l.periods
		s.Lanes = health
		s.WatchdogStalled = wdStalled
		s.WatchdogStalls = wdStalls
		s.Reload = rs
	})
	if l.Metrics != nil {
		if ok {
			l.Metrics.Counter(metricPeriods, helpPeriods).Add(1)
		}
		l.Metrics.Gauge(metricLanes, helpLanes).Set(float64(len(l.Lanes)))
		for _, lh := range health {
			l.Metrics.Gauge(metricLaneLevel, helpLaneLevel, "app", lh.App).Set(lh.Level)
		}
	}
}

// sync pushes a lane's map (never an empty one) and heartbeats its
// status. Failures only mark the syncer degraded: losing the registry
// must not cost the host its protection.
func (l *Loop) sync(ln *Lane, throttled bool) {
	if ln.Syncer == nil {
		return
	}
	if ln.Core.Space().Len() > 0 {
		if err := ln.Syncer.PushTemplate(ln.Core.ExportTemplate(ln.App)); err != nil {
			fmt.Fprintln(l.Err, "stayawayd: registry push failed (degraded, continuing):", err)
		}
	}
	if err := ln.Syncer.Heartbeat(fleet.Heartbeat{
		Periods: ln.periods, Violations: ln.viols, Throttled: throttled,
	}); err == nil {
		if degraded, _ := ln.Syncer.Degraded(); !degraded && l.Verbose {
			fmt.Fprintf(l.Out, "stayawayd: %s: registry sync ok, revision %d\n", ln.App, ln.Syncer.LastRevision())
		}
	}
}

// checkpoint snapshots every lane's learned state atomically.
func (l *Loop) checkpoint() {
	for _, ln := range l.Lanes {
		if ln.CheckpointPath == "" || ln.Core.Space().Len() == 0 {
			continue
		}
		if err := resilience.SaveCheckpoint(ln.CheckpointPath, ln.Core.Checkpoint()); err != nil {
			fmt.Fprintf(l.Err, "stayawayd: %s: checkpoint: %v\n", ln.App, err)
		}
	}
}

func (l *Loop) writeMetrics() {
	if l.MetricsFile == "" || l.Fleet == nil {
		return
	}
	if err := fsatomic.WriteFileFunc(l.MetricsFile, 0o644, l.Fleet.WriteMetrics); err != nil {
		fmt.Fprintf(l.Err, "stayawayd: metrics-file: %v\n", err)
	}
}
