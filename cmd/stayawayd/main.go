// Command stayawayd runs the Stay-Away middleware against real Linux
// workloads. QoS violations are read from a report file the sensitive
// application rewrites each period ("<value> <threshold>"). Two
// actuation/telemetry modes are available:
//
// PID mode (the paper's prototype): per-PID resource usage is sampled
// from /proc and batch processes are throttled with SIGSTOP/SIGCONT.
//
//	stayawayd -sensitive-pids 1234 -batch-pids 5678,5679 \
//	          -qos-file /run/vlc.qos -period 1s [-cores 4] [-v]
//
// cgroup mode: usage is read from cgroup v2 accounting files (cpu.stat,
// memory.current, io.stat) and batch cgroups are throttled through
// cgroup.freeze — or, with -graded, stepped cpu.max quotas that escalate
// to a freeze as the predicted violation proximity grows. If a control
// file turns out to be unwritable the actuator degrades to signalling the
// cgroup's member processes; a cgroup that vanishes mid-run is treated as
// finished work, never an error.
//
//	stayawayd -sensitive-cgroup stayaway/vlc -batch-cgroups stayaway/b1,stayaway/b2 \
//	          -qos-file /run/vlc.qos [-cgroup-root /sys/fs/cgroup] [-graded] \
//	          [-memory-high-mb 512]
//
// -sensitive-cgroup, -qos-file and -app are repeatable: giving them N
// times protects N sensitive applications on one host, each with its own
// pipeline lane (state space, trajectory models, learned β, checkpoint),
// all sharing the batch cgroups. The lanes' throttle decisions are merged
// by an actuation arbiter: freeze is a union, graded quotas take the most
// severe request, and the shared pool is released only when every
// restricting lane has satisfied its own resume condition.
//
//	stayawayd -sensitive-cgroup s/vlc -qos-file /run/vlc.qos -app vlc \
//	          -sensitive-cgroup s/kv  -qos-file /run/kv.qos  -app kv \
//	          -batch-cgroups s/b1,s/b2
//
// The two modes are mutually exclusive. The daemon runs until SIGINT/
// SIGTERM; on shutdown it releases any throttled batch workloads and
// prints the final report. A learned map can be exported with
// -template-out (written atomically: temp file + rename); with several
// lanes each writes its own app-suffixed file.
//
// With -registry the daemon joins a fleet: each lane pulls the consensus
// template for its -app at startup (skipping the learning phase when
// another host has already mapped the application), pushes its own map
// every -sync-every periods plus once on shutdown, and heartbeats its
// status. Registry outages never interrupt control — the daemon degrades
// to its local maps and resyncs when the registry returns. Adding -stream
// subscribes each lane to the registry's push stream: violations learned
// on other hosts arrive as template deltas and are merged into the live
// map at the next period boundary, with automatic fallback to conditional
// delta polling whenever the stream is down. -fleet-key/-fleet-key-file
// HMAC-sign every registry request when the registry requires it, and
// -metrics-file periodically writes the host's sync and stream counters
// in Prometheus text format (atomically, for a node-exporter textfile
// collector to pick up).
//
// With -state-dir the daemon becomes crash-safe: every restrictive
// actuation is recorded in an on-disk ledger BEFORE it is applied, each
// lane's learned state (template, trajectory histograms, β) is
// checkpointed atomically every -checkpoint-every periods (one lane:
// checkpoint.json; several: checkpoint-<app>.json), and at boot the
// daemon replays the ledger — thawing every cgroup a previous incarnation
// may have left frozen (after a SIGKILL, an OOM kill, a panic) — then
// restores the checkpoints so no learning is lost. The arbiter sits above
// the ledger, so the single write-ahead log covers every lane's merged
// actuations. -recover-only performs just the ledger replay and exits,
// for init containers and manual incident response. A watchdog (disable
// with -watchdog-grace 0) runs beside the control loop and thaws
// everything if the loop stops beating — e.g. blocked on a hung cgroupfs
// read. A corrupt ledger or checkpoint is logged and ignored, never
// fatal: the daemon starts cold rather than refusing to protect.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cgroup"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/fsatomic"
	"repro/internal/metrics"
	"repro/internal/procenv"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/throttle"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stayawayd:", err)
		os.Exit(1)
	}
}

func parsePIDs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pid, err := strconv.Atoi(part)
		if err != nil || pid <= 0 {
			return nil, fmt.Errorf("invalid PID %q", part)
		}
		out = append(out, pid)
	}
	return out, nil
}

func parseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// listFlag is a repeatable string flag: every occurrence appends.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }

func (l *listFlag) Set(v string) error {
	if v = strings.TrimSpace(v); v != "" {
		*l = append(*l, v)
	}
	return nil
}

// options is everything validateOptions needs to decide whether the flag
// set describes a coherent deployment.
type options struct {
	sensitivePIDs []int
	batchPIDs     []int
	sensCgroups   []string
	batchCgroups  []string
	qosFiles      []string
	apps          []string
	graded        bool
	memoryHighMB  float64
	recoverOnly   bool
	lanesFile     string
	reloadWatch   bool
	eventWindow   int
}

// validate enforces the daemon's startup contract up front, before
// anything touches /proc or cgroupfs: a QoS source per sensitive
// application is mandatory (without the violation signal Stay-Away cannot
// learn anything), PID mode and cgroup mode are mutually exclusive, each
// mode needs both its sensitive and batch side, the PID sets must not
// overlap (throttling the sensitive app defeats the purpose), graded
// throttling requires the cgroup actuator (SIGSTOP has no intermediate
// levels), and multi-tenant runs (several -sensitive-cgroup) need
// positionally aligned -qos-file/-app lists. ALL problems are reported at
// once (errors.Join), so a misconfigured deployment is fixed in one
// edit-run cycle instead of one flag per attempt.
func (o options) validate() (cgroupMode bool, err error) {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if len(o.qosFiles) == 0 && !o.recoverOnly {
		fail("-qos-file required: the application's QoS report is the violation signal (§3.1)")
	}
	pidMode := len(o.sensitivePIDs) > 0 || len(o.batchPIDs) > 0
	cgroupMode = len(o.sensCgroups) > 0 || len(o.batchCgroups) > 0
	switch {
	case pidMode && cgroupMode:
		fail("PID flags (-sensitive-pids/-batch-pids) and cgroup flags " +
			"(-sensitive-cgroup/-batch-cgroups) are mutually exclusive; pick one mode")
	case !pidMode && !cgroupMode:
		fail("no workloads given: use -sensitive-pids/-batch-pids (PID mode) " +
			"or -sensitive-cgroup/-batch-cgroups (cgroup mode)")
	case pidMode:
		if len(o.sensitivePIDs) == 0 {
			fail("-sensitive-pids required in PID mode")
		}
		if len(o.batchPIDs) == 0 {
			fail("-batch-pids required in PID mode")
		}
		sens := make(map[int]bool, len(o.sensitivePIDs))
		for _, pid := range o.sensitivePIDs {
			sens[pid] = true
		}
		for _, pid := range o.batchPIDs {
			if sens[pid] {
				fail("PID %d is listed as both sensitive and batch; "+
					"throttling the sensitive application defeats the purpose", pid)
			}
		}
		if o.graded {
			fail("-graded requires cgroup mode: SIGSTOP has no intermediate levels")
		}
		if o.memoryHighMB > 0 {
			fail("-memory-high-mb requires cgroup mode")
		}
		if len(o.qosFiles) > 1 {
			fail("PID mode protects one sensitive application; got %d -qos-file flags", len(o.qosFiles))
		}
		if len(o.apps) > 1 {
			fail("PID mode protects one sensitive application; got %d -app flags", len(o.apps))
		}
	default: // cgroup mode
		if len(o.sensCgroups) == 0 && !o.recoverOnly {
			// Recovery replays the ledger against the batch cgroups only;
			// the operator of a dead daemon shouldn't need its full config.
			fail("-sensitive-cgroup required in cgroup mode")
		}
		if len(o.batchCgroups) == 0 {
			fail("-batch-cgroups required in cgroup mode")
		}
		seen := map[string]bool{}
		for _, cg := range o.sensCgroups {
			if seen[cg] {
				fail("cgroup %q listed twice (or as both sensitive and batch)", cg)
			}
			seen[cg] = true
		}
		for _, cg := range o.batchCgroups {
			if seen[cg] {
				fail("cgroup %q listed twice (or as both sensitive and batch)", cg)
			}
			seen[cg] = true
		}
		if n := len(o.sensCgroups); n > 0 && !o.recoverOnly && len(o.qosFiles) != n {
			fail("%d -sensitive-cgroup flags need %d -qos-file flags (one QoS report per "+
				"protected application), got %d", n, n, len(o.qosFiles))
		}
		if n := len(o.sensCgroups); len(o.apps) > 0 && len(o.apps) != n {
			fail("-app given %d times but -sensitive-cgroup %d times; "+
				"give one -app per sensitive cgroup or none", len(o.apps), n)
		}
	}
	appSeen := map[string]bool{}
	for _, app := range o.apps {
		if appSeen[app] {
			fail("application name %q given twice; lanes need distinct -app names", app)
		}
		appSeen[app] = true
	}
	if o.memoryHighMB < 0 {
		fail("-memory-high-mb must be non-negative, got %v", o.memoryHighMB)
	}
	// In lanes-file mode the sensitive/qos/app lists arrive pre-populated
	// from the file (run() enforces the file-vs-flags exclusivity before
	// conversion); only the mode conflict is checkable here.
	if o.lanesFile != "" && pidMode {
		fail("-lanes-file requires cgroup mode: PID lanes cannot be reconfigured live")
	}
	if o.reloadWatch && o.lanesFile == "" {
		fail("-reload-watch requires -lanes-file (there is nothing else to watch)")
	}
	// 0 follows core.Config's contract: default window (4096).
	if o.eventWindow < -1 {
		fail("-event-window must be positive (events retained per lane), 0 for the default, or -1 for unbounded, got %d", o.eventWindow)
	}
	return cgroupMode, errors.Join(errs...)
}

// templateOutPath derives the per-lane export path: a single lane writes
// base verbatim; several write base with "-<app>" before the extension.
func templateOutPath(base, app string, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + app + ext
}

// cgroupLanes is the loop's lane hook in cgroup mode: a lane's sensitive
// cgroup becomes a collector group (named after its path) and its QoS
// report is a file.
type cgroupLanes struct {
	collector *cgroup.Collector
	env       *procenv.HostEnv
}

func (c cgroupLanes) AddGroup(group string) error {
	return c.collector.AddGroup(cgroup.Group{Name: group, Path: group})
}

func (c cgroupLanes) RemoveGroup(group string) { c.collector.RemoveGroup(group) }

func (c cgroupLanes) Signals(group, qosFile string) (core.LaneSignals, error) {
	sig, err := c.env.Signals(group, procenv.FileQoS{Path: qosFile})
	if err != nil {
		return nil, err
	}
	return sig, nil
}

func run() error {
	var sensCgroups, qosFiles, apps listFlag
	sensitivePIDs := flag.String("sensitive-pids", "", "comma-separated PIDs of the sensitive application (PID mode)")
	batchPIDs := flag.String("batch-pids", "", "comma-separated PIDs of the batch applications (PID mode)")
	flag.Var(&sensCgroups, "sensitive-cgroup", "sensitive application's cgroup, relative to -cgroup-root (cgroup mode; repeatable: one lane per use)")
	batchCgroups := flag.String("batch-cgroups", "", "comma-separated batch cgroups, relative to -cgroup-root, shared by every lane (cgroup mode)")
	cgroupRoot := flag.String("cgroup-root", "/sys/fs/cgroup", "cgroup v2 hierarchy mount point")
	graded := flag.Bool("graded", false, "graded throttling: step cpu.max quotas before freezing (cgroup mode only)")
	memoryHighMB := flag.Float64("memory-high-mb", 0, "memory.high soft limit applied to throttled batch cgroups (0 = off)")
	flag.Var(&qosFiles, "qos-file", "file the sensitive app rewrites with \"<value> <threshold>\" (repeatable, aligned with -sensitive-cgroup)")
	period := flag.Duration("period", time.Second, "monitoring period")
	cores := flag.Int("cores", runtime.NumCPU(), "host cores (CPU normalization range)")
	memoryMB := flag.Float64("memory-mb", 4096, "host memory (normalization range)")
	diskMBps := flag.Float64("disk-mbps", 200, "disk capacity (normalization range)")
	templateOut := flag.String("template-out", "", "write the learned template JSON on exit (several lanes: app-suffixed files)")
	stateDir := flag.String("state-dir", "", "directory for the actuation ledger and learned-state checkpoints (empty = no crash safety)")
	recoverOnly := flag.Bool("recover-only", false, "replay the ledger (thaw everything a dead daemon left throttled) and exit; requires -state-dir")
	checkpointEvery := flag.Int("checkpoint-every", 30, "periods between learned-state checkpoints (requires -state-dir)")
	watchdogGrace := flag.Int("watchdog-grace", 3, "missed periods before the watchdog thaws everything (0 = no watchdog)")
	registryURL := flag.String("registry", "", "fleet registry base URL (empty = standalone)")
	flag.Var(&apps, "app", "fleet-wide application name for template sharing (repeatable, aligned with -sensitive-cgroup)")
	hostID := flag.String("host-id", "", "host identity reported to the registry (default: hostname)")
	syncEvery := flag.Int("sync-every", 30, "periods between registry pushes")
	streamMode := flag.Bool("stream", false, "subscribe to the registry's push stream: fleet violations merge into the live map within one period (requires -registry)")
	fleetKey := flag.String("fleet-key", "", "shared fleet key; when set, registry requests are HMAC-signed")
	fleetKeyFile := flag.String("fleet-key-file", "", "file holding the shared fleet key (preferred over -fleet-key: argv leaks via ps)")
	metricsFile := flag.String("metrics-file", "", "write fleet sync metrics (Prometheus text) here every -sync-every periods, atomically (requires -registry)")
	lanesFile := flag.String("lanes-file", "", "declarative lane config (lanes.json); reloaded live on SIGHUP or POST /v1/reload without restarting or dropping restrictions (cgroup mode only, replaces -sensitive-cgroup/-qos-file/-app)")
	reloadWatch := flag.Bool("reload-watch", false, "poll -lanes-file for mtime/size changes every period and reload automatically")
	adminAddr := flag.String("admin-addr", "", "HTTP admin surface listen address (/healthz, /readyz, /metrics, /v1/events SSE, /v1/reload); empty = disabled")
	eventWindow := flag.Int("event-window", 4096, "per-period events retained per lane; memory is bounded by this times the Event size (~200B), so 4096 ≈ 800KB per lane; -1 retains everything (unbounded memory on long runs)")
	verbose := flag.Bool("v", false, "print every period event")
	flag.Parse()

	// Lanes-file mode: the file is the single source of truth for the
	// protected applications; converting it into the positional lists up
	// front lets every later stage treat both modes identically.
	var lanesDecl []daemon.LaneDef
	if *lanesFile != "" {
		if len(sensCgroups) > 0 || len(qosFiles) > 0 || len(apps) > 0 {
			return fmt.Errorf("-lanes-file is the declarative twin of -sensitive-cgroup/-qos-file/-app; give one or the other, not both")
		}
		lf, err := daemon.LoadLanes(*lanesFile)
		if err == nil {
			err = lf.Validate(parseList(*batchCgroups))
		}
		if err != nil {
			return fmt.Errorf("-lanes-file: %w", err)
		}
		lanesDecl = lf.Lanes
		for _, d := range lanesDecl {
			sensCgroups = append(sensCgroups, d.SensitiveCgroup)
			qosFiles = append(qosFiles, d.QoSFile)
			apps = append(apps, d.Name())
		}
	}

	sens, err := parsePIDs(*sensitivePIDs)
	if err != nil {
		return fmt.Errorf("-sensitive-pids: %v", err)
	}
	batch, err := parsePIDs(*batchPIDs)
	if err != nil {
		return fmt.Errorf("-batch-pids: %v", err)
	}
	opts := options{
		sensitivePIDs: sens,
		batchPIDs:     batch,
		sensCgroups:   sensCgroups,
		batchCgroups:  parseList(*batchCgroups),
		qosFiles:      qosFiles,
		apps:          apps,
		graded:        *graded,
		memoryHighMB:  *memoryHighMB,
		recoverOnly:   *recoverOnly,
		lanesFile:     *lanesFile,
		reloadWatch:   *reloadWatch,
		eventWindow:   *eventWindow,
	}
	cgroupMode, err := opts.validate()
	if err != nil {
		return err
	}
	if *recoverOnly && *stateDir == "" {
		return fmt.Errorf("-recover-only requires -state-dir (the ledger to replay)")
	}
	if *streamMode && *registryURL == "" {
		return fmt.Errorf("-stream requires -registry (the push stream is the registry's)")
	}
	if *metricsFile != "" && *registryURL == "" {
		return fmt.Errorf("-metrics-file requires -registry (it reports fleet sync state)")
	}
	fleetKeyBytes, err := fleet.ResolveKey(*fleetKey, *fleetKeyFile)
	if err != nil {
		return err
	}

	// Resolve the lane list: group names, application names and QoS
	// sources, positionally aligned. A single sensitive keeps the legacy
	// group name "sensitive" (checkpoint/template schema compatibility);
	// several use their cgroup paths as group names.
	var lanes []*daemon.Lane
	var qosSources []procenv.QoSSource
	if cgroupMode {
		// Lanes-file mode always uses cgroup-path group names, even with a
		// single lane: the set can grow live, and a mid-run switch from the
		// legacy "sensitive" name would break the measurement schema.
		multi := len(opts.sensCgroups) > 1 || lanesDecl != nil
		for i, cg := range opts.sensCgroups {
			ln := &daemon.Lane{Group: "sensitive", App: "sensitive"}
			if multi {
				ln.Group = cg
				ln.App = cg
			}
			if len(opts.apps) > i {
				ln.App = opts.apps[i]
			}
			if lanesDecl != nil {
				ln.Def = lanesDecl[i]
			}
			// Recover-only gives no QoS files: nothing is learned, and a
			// static non-violating source satisfies the contract.
			qos := procenv.QoSSource(procenv.StaticQoS{Value: 1, Threshold: 0})
			if len(opts.qosFiles) > i {
				qos = procenv.FileQoS{Path: opts.qosFiles[i]}
			}
			lanes = append(lanes, ln)
			qosSources = append(qosSources, qos)
		}
	} else if !opts.recoverOnly {
		ln := &daemon.Lane{Group: "sensitive", App: "sensitive"}
		if len(opts.apps) > 0 {
			ln.App = opts.apps[0]
		}
		lanes = append(lanes, ln)
		qosSources = append(qosSources, procenv.FileQoS{Path: opts.qosFiles[0]})
	}

	var (
		henv     *procenv.HostEnv
		batchIDs []string // the IDs the throttle controller actuates
		act      throttle.Actuator
		release  func() error // final cleanup: never leave batch work throttled
		watching string
		laneHook daemon.LaneHook // cgroup mode only: hot reload adds/removes groups
	)

	if cgroupMode {
		cfs := cgroup.DirFS{Root: *cgroupRoot}
		actuator, err := cgroup.NewActuator(cfs, cgroup.ActuatorConfig{
			MaxCPU:          float64(*cores),
			MemoryHighBytes: int64(opts.memoryHighMB * (1 << 20)),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "stayawayd: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		batchIDs = opts.batchCgroups
		act = actuator
		//lint:stayaway-ignore ledgeredactuation final fail-safe thaw deliberately bypasses the ledger: over-thaw is the safe direction and must work even when the ledger cannot be written
		release = func() error { return actuator.Resume(opts.batchCgroups) }
		// Recovery replays the ledger against the actuator alone; the
		// telemetry side is only assembled for a real control run.
		if !opts.recoverOnly {
			var groups []cgroup.Group
			for _, ln := range lanes {
				groups = append(groups, cgroup.Group{Name: ln.Group, Path: ln.Group})
			}
			if len(lanes) == 1 && lanesDecl == nil {
				// Legacy layout: group "sensitive" at the configured path.
				groups[0].Path = opts.sensCgroups[0]
			}
			for _, cg := range opts.batchCgroups {
				groups = append(groups, cgroup.Group{Name: cg, Path: cg})
			}
			collector, err := cgroup.NewCollector(cfs, groups)
			if err != nil {
				return err
			}
			henv, err = procenv.NewHostEnv(collector, opts.batchCgroups)
			if err != nil {
				return err
			}
			laneHook = cgroupLanes{collector: collector, env: henv}
			// Probe up front so the operator learns at startup — not mid-
			// incident — whether actuation will use cgroup controls or degrade
			// to signals.
			for _, cg := range opts.batchCgroups {
				if err := actuator.Probe(cg); err != nil {
					fmt.Fprintf(os.Stderr, "stayawayd: warning: %v; actuation for %q will degrade to SIGSTOP/SIGCONT\n", err, cg)
				}
			}
			for _, cg := range opts.sensCgroups {
				if !cfs.Exists(cg) {
					fmt.Fprintf(os.Stderr, "stayawayd: warning: sensitive cgroup %q not found (yet)\n", cg)
				}
			}
		}
		watching = fmt.Sprintf("sensitive=%v batch=%v (cgroup mode, root=%s)",
			opts.sensCgroups, opts.batchCgroups, *cgroupRoot)
	} else {
		// The runtime throttles the logical "batch" VM; the actuator
		// translates that into signals to the concrete PIDs behind it.
		actuator := &throttle.ProcessActuator{}
		batchStrings := make([]string, len(batch))
		for i, pid := range batch {
			batchStrings[i] = strconv.Itoa(pid)
		}
		batchIDs = []string{"batch"}
		act = throttle.FuncActuator{
			//lint:stayaway-ignore ledgeredactuation ID-translation adapter below the ledger: the FuncActuator itself is what gets wrapped in LedgeredActuator
			PauseFn: func([]string) error { return actuator.Pause(batchStrings) },
			//lint:stayaway-ignore ledgeredactuation ID-translation adapter below the ledger: the FuncActuator itself is what gets wrapped in LedgeredActuator
			ResumeFn: func([]string) error { return actuator.Resume(batchStrings) },
		}
		//lint:stayaway-ignore ledgeredactuation final fail-safe thaw deliberately bypasses the ledger: over-thaw is the safe direction and must work even when the ledger cannot be written
		release = func() error { return actuator.Resume(batchStrings) }
		if !opts.recoverOnly {
			collector, err := procenv.NewCollector("/proc", 100, []procenv.Group{
				{Name: "sensitive", PIDs: sens},
				{Name: "batch", PIDs: batch},
			})
			if err != nil {
				return err
			}
			henv, err = procenv.NewHostEnv(collector, []string{"batch"})
			if err != nil {
				return err
			}
		}
		watching = fmt.Sprintf("sensitive=%v batch=%v (PID mode)", sens, batch)
	}

	// Crash safety: replay the previous incarnation's actuation ledger
	// before anything else — if a dead daemon left cgroups frozen, thawing
	// them outranks every other startup step. The ledger is an upper bound
	// on applied throttling (restrictions are recorded before actuation,
	// releases after), so replay can only over-thaw, which is idempotent.
	// One ledger serves every lane: the arbiter merges per-lane decisions
	// BEFORE they reach the ledgered actuator, so the write-ahead log holds
	// exactly the effective actuations on the shared pool.
	var ledger *resilience.Ledger
	var ledgerRecovered int
	var ledgerRecoveryErr string
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			return fmt.Errorf("-state-dir: %v", err)
		}
		for _, ln := range lanes {
			ln.CheckpointPath = resilience.LaneCheckpointPath(*stateDir, ln.App)
		}
		if len(lanes) == 1 && lanesDecl == nil {
			// Legacy single-tenant layout.
			lanes[0].CheckpointPath = filepath.Join(*stateDir, "checkpoint.json")
		}
		ledger, err = resilience.OpenLedger(filepath.Join(*stateDir, "ledger.json"))
		if err != nil {
			// A corrupt ledger cannot tell us what was throttled, so assume
			// the worst: recovery below thaws every configured batch ID.
			fmt.Fprintf(os.Stderr, "stayawayd: ledger unreadable, assuming everything throttled: %v\n", err)
		}
		thawed, err := resilience.Recover(ledger, act, batchIDs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stayawayd: ledger recovery: %v\n", err)
			ledgerRecoveryErr = err.Error()
		}
		ledgerRecovered = len(thawed)
		if len(thawed) > 0 {
			fmt.Printf("stayawayd: recovered: thawed %v\n", thawed)
		}
		if *recoverOnly {
			if err != nil {
				return fmt.Errorf("recovery incomplete: %w", err)
			}
			fmt.Println("stayawayd: recovery complete")
			return nil
		}
		// From here on, every restrictive actuation hits the ledger first.
		la, err := resilience.NewLedgeredActuator(act, ledger)
		if err != nil {
			return err
		}
		act = la
		innerRelease := release
		release = func() error {
			// Recover rather than plain Resume: it also clears graded
			// quotas and resets the ledger so the next boot is clean.
			if _, err := resilience.Recover(ledger, act, batchIDs); err != nil {
				return err
			}
			return innerRelease()
		}
	}

	// Assemble the host runtime: one lane per protected application over
	// the shared batch pool, decisions merged by the actuation arbiter.
	host, err := core.NewHost(henv, act)
	if err != nil {
		return err
	}
	ranges := metrics.DefaultRanges(*cores, *memoryMB, *diskMBps, 1000)
	seed := time.Now().UnixNano()
	laneSeq := 0
	if *eventWindow == -1 {
		fmt.Fprintln(os.Stderr, "stayawayd: warning: -event-window -1 retains every period event; memory grows unboundedly with uptime")
	}
	// laneConfig builds one lane's pipeline config; shared between the
	// startup loop and hot-reload adds so both produce identical lanes.
	laneConfig := func(group, app string) core.Config {
		cfg := core.DefaultConfig(group, batchIDs, ranges)
		cfg.Seed = seed + int64(laneSeq)
		laneSeq++
		cfg.SensitiveApp = app
		cfg.EventWindow = *eventWindow
		if *graded {
			cfg.Throttle.Policy = throttle.PolicyGraded
		}
		return cfg
	}
	for i, ln := range lanes {
		sig, err := henv.Signals(ln.Group, qosSources[i])
		if err != nil {
			return err
		}
		ln.Signals = sig
		if ln.Core, err = host.AddLane(laneConfig(ln.Group, ln.App), sig); err != nil {
			return err
		}
	}
	hostRelease := release
	release = func() error {
		// The arbiter's lane desires must be cleared alongside the
		// downstream thaw, or surviving controllers would re-merge stale
		// restrictions on the next period.
		err := host.Release()
		if rerr := hostRelease(); err == nil {
			err = rerr
		}
		return err
	}

	// Restore each lane's learned-state checkpoint before the first
	// period. A missing checkpoint is a cold start; a corrupt or
	// incompatible one is logged and ignored — losing learned state is
	// recoverable, refusing to start is not.
	restored := make(map[string]bool)
	for _, ln := range lanes {
		if ln.CheckpointPath == "" {
			continue
		}
		switch ck, err := resilience.LoadCheckpoint(ln.CheckpointPath); {
		case err != nil:
			fmt.Fprintf(os.Stderr, "stayawayd: %s: checkpoint unreadable, starting cold: %v\n", ln.App, err)
		case ck != nil:
			if err := ln.Core.RestoreCheckpoint(ck); err != nil {
				fmt.Fprintf(os.Stderr, "stayawayd: %s: checkpoint rejected, starting cold: %v\n", ln.App, err)
			} else {
				restored[ln.App] = true
				fmt.Printf("stayawayd: %s: restored checkpoint (%d periods of learning, %d states)\n",
					ln.App, ck.Periods, len(ck.Template.States))
			}
		}
	}

	// Fleet wiring: each lane pulls its application's consensus map before
	// the first period; a cold or unreachable registry never blocks
	// startup.
	var hostSync *fleet.HostSyncer
	var streamCancel context.CancelFunc
	if *registryURL != "" {
		client, err := fleet.NewClient(fleet.ClientConfig{BaseURL: *registryURL, Key: fleetKeyBytes})
		if err != nil {
			return err
		}
		hostName := *hostID
		if hostName == "" {
			if hostName, err = os.Hostname(); err != nil {
				hostName = "unknown-host"
			}
		}
		hostSync = fleet.NewHostSyncer(client, hostName)
		for _, ln := range lanes {
			ln.Syncer = hostSync.Lane(ln.App)
			if restored[ln.App] {
				// The local checkpoint is this host's own learned map;
				// adopting the fleet template would discard it. Keep the
				// local state and let the periodic pushes reconcile.
				fmt.Printf("stayawayd: %s: checkpoint restored; skipping fleet bootstrap\n", ln.App)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			tpl, rev, err := ln.Syncer.Bootstrap(ctx)
			cancel()
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "stayawayd: %s: registry bootstrap failed, starting cold: %v\n", ln.App, err)
			case tpl == nil:
				fmt.Printf("stayawayd: registry has no template for %q yet, learning from scratch\n", ln.App)
			default:
				if err := ln.Core.ImportTemplate(tpl); err != nil {
					fmt.Fprintf(os.Stderr, "stayawayd: %s: fleet template rejected, starting cold: %v\n", ln.App, err)
				} else {
					fmt.Printf("stayawayd: bootstrapped %q from fleet revision %d (%d states)\n",
						ln.App, rev, len(tpl.States))
				}
			}
		}
		// Streaming mode: each lane follows the registry's push stream so a
		// violation learned on another host reaches this one within a
		// control period — instead of at -sync-every cadence. The stream
		// goroutines only STASH deltas; the loop takes and merges them at
		// period boundaries, so the live map is never touched mid-period.
		if *streamMode {
			var streamCtx context.Context
			streamCtx, streamCancel = context.WithCancel(context.Background())
			defer streamCancel()
			for _, ln := range lanes {
				ss, err := hostSync.StartStream(streamCtx, ln.App, fleet.StreamSyncerConfig{
					Logf: func(format string, args ...any) {
						if *verbose {
							fmt.Fprintf(os.Stderr, "stayawayd: "+format+"\n", args...)
						}
					},
				})
				if err != nil {
					return err
				}
				// The bootstrap pull (if any) already applied this revision;
				// the stream must not re-deliver it.
				ss.MarkApplied(ln.Syncer.LastRevision())
				ln.Stream = ss
			}
			fmt.Printf("stayawayd: streaming fleet updates for %d lane(s)\n", len(lanes))
		}
	}

	// Live operations: the status board the loop publishes to, the admin
	// event hub, the two-phase reloader and the lanes-file watcher.
	board := daemon.NewBoard()
	board.Update(func(s *daemon.Status) {
		s.LedgerRecovered = ledgerRecovered
		s.LedgerRecoveryError = ledgerRecoveryErr
	})
	loop := &daemon.Loop{
		Config: daemon.Config{
			Period:          *period,
			SyncEvery:       *syncEvery,
			CheckpointEvery: *checkpointEvery,
			WatchdogGrace:   *watchdogGrace,
			Verbose:         *verbose,
		},
		Host:        host,
		Env:         henv,
		Release:     release,
		Lanes:       lanes,
		Board:       board,
		Hook:        laneHook,
		LaneConfig:  laneConfig,
		StateDir:    *stateDir,
		Fleet:       hostSync,
		MetricsFile: *metricsFile,
		Out:         os.Stdout,
		Err:         os.Stderr,
	}
	if *lanesFile != "" {
		loop.Reloader = daemon.NewReloader(*lanesFile, lanesDecl, opts.batchCgroups)
		if *reloadWatch {
			loop.Watcher = daemon.NewWatcher(*lanesFile)
		}
	}
	var adminSrv *http.Server
	if *adminAddr != "" {
		loop.Hub = stream.NewHub(stream.HubConfig{Epoch: time.Now().UnixNano()})
		defer loop.Hub.Close()
		loop.Metrics = stream.NewMetricSet()
		var reloadHook func() error
		if loop.Reloader != nil {
			reloadHook = func() error { return loop.QueueReload("POST /v1/reload") }
		}
		admin, err := daemon.NewAdmin(daemon.AdminConfig{
			Board:   board,
			Hub:     loop.Hub,
			Metrics: loop.Metrics,
			Reload:  reloadHook,
			Key:     fleetKeyBytes,
			Logf: func(format string, args ...any) {
				if *verbose {
					fmt.Fprintf(os.Stderr, "stayawayd: "+format+"\n", args...)
				}
			},
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("-admin-addr: %w", err)
		}
		adminSrv = &http.Server{Handler: admin.Handler()}
		go func() {
			if err := adminSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "stayawayd: admin server: %v\n", err)
			}
		}()
		fmt.Printf("stayawayd: admin surface on http://%s\n", ln.Addr())
	}

	// SIGINT/SIGTERM end the loop; SIGHUP queues a hot reload.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				loop.QueueReload("SIGHUP")
			}
		}
	}()
	ticker := time.NewTicker(*period)
	defer ticker.Stop()

	fmt.Printf("stayawayd: monitoring %s every %v (%d lane(s))\n", watching, *period, len(lanes))
	loopErr := loop.Run(ctx, ticker.C)

	if adminSrv != nil {
		// Closing the hub first unblocks SSE handlers so Shutdown can
		// finish within its grace window.
		loop.Hub.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := adminSrv.Shutdown(ctx); err != nil {
			adminSrv.Close()
		}
		cancel()
	}
	if streamCancel != nil {
		streamCancel()
		hostSync.Wait()
	}
	if loopErr != nil {
		return loopErr
	}
	if *templateOut != "" {
		multi := len(loop.Lanes) > 1
		for _, ln := range loop.Lanes {
			path := templateOutPath(*templateOut, ln.App, multi)
			err := fsatomic.WriteFileFunc(path, 0o644, func(w io.Writer) error {
				_, err := ln.Core.ExportTemplate(ln.App).WriteTo(w)
				return err
			})
			if err != nil {
				return err
			}
			fmt.Printf("template written to %s\n", path)
		}
	}
	return nil
}
