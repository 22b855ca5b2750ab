// Command perfbench is the repository's benchmark. It drives the shipped
// host control loop (core.NewHost → HostRuntime.Period) over the simulator
// and the fleet control plane (fleet.Server over registry.OpenSharded and
// a stream.Hub) over loopback HTTP, checks their outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON result. See README.md for the workloads and metrics. Build and run
// it from the repository root with
//
//	python3 perfbench/run.py --workload host-colocation --seed 1 --seconds 40 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of untraced runs: what a user of the system
// sees, defined on every workload. The operation is a control period on
// the host workloads and a request on fleet-sync. Tails are printed as
// workload figures and reported per layer, not bounded: on a shared
// two-CPU machine the ten slowest operations of a run spread across runs
// by more than any usable bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_overhead_pct", "%"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics of traced runs. A layer that a workload does
// not run reports 0 there.
var perLayer = []metricDef{
	{"core.period_refresh_ms", "ms"},
	{"core.period_newstate_ms", "ms"},
	{"core.period_revisit_ms", "ms"},
	{"core.pipeline_self_ms", "ms"},
	{"core.refreshes", "count"},
	{"core.new_states", "count"},
	{"core.overruns", "count"},
	{"mds.refresh_probe_ms", "ms"},
	{"mds.refresh_stress", "1"},
	{"statespace.ranges_probe_ms", "ms"},
	{"statespace.discs", "count"},
	{"statespace.states", "count"},
	{"statespace.apply_delta_ms", "ms"},
	{"env.collect_ms", "ms"},
	{"throttle.actuate_calls", "count"},
	{"throttle.actuate_ms", "ms"},
	{"resilience.ledger_ms", "ms"},
	{"resilience.outstanding_after_release", "count"},
	{"predictor.predicted", "count"},
	{"predictor.precision", "1"},
	{"predictor.recall", "1"},
	{"sim.step_ms", "ms"},
	{"sim.violation_rate", "1"},
	{"sim.violation_rate_unprotected", "1"},
	{"sim.batch_cores", "cores"},
	{"sim.batch_cores_unprotected", "cores"},
	{"registry.put_ms", "ms"},
	{"registry.delta_since_ms", "ms"},
	{"registry.consensus_states", "count"},
	{"fleet.put_p50_ms", "ms"},
	{"fleet.put_tail_ms", "ms"},
	{"fleet.pull_p50_ms", "ms"},
	{"fleet.put_overhead_ms", "ms"},
	{"fleet.put_bytes", "B"},
	{"fleet.delta_bytes_per_pull", "B"},
	{"fleet.not_modified_ratio", "1"},
	{"stream.publish_ms", "ms"},
	{"stream.push_lag_ms", "ms"},
	{"stream.propagation_p50_ms", "ms"},
	{"bench.op_tail_ms", "ms"},
	{"bench.generator_lag_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	// out keeps result, span and outcome files; work is a scratch
	// directory under it for ledgers and registry data, removed when the
	// run ends.
	out, work string
}

// infoMetric is a workload-specific figure printed for people (and kept
// in the result file) but not part of the JSON result line.
type infoMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

// check is one output check; a failed check makes the run incorrect.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	checks            []check
	e2e               map[string]float64
	info              []infoMetric
	layers            map[string]float64
	spans             []span
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// checkError is an error that a named output check reports.
type checkError struct {
	check string
	err   error
}

func (e *checkError) Error() string { return e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

// stop ends the workload on err: the operation it hit counts as attempted
// and failed, and err is recorded as a failed check, under its own name
// for a *checkError and as "set-up" otherwise. The run still prints its
// result, with "correct": false.
func (o *outcome) stop(err error) *outcome {
	name := "set-up"
	var ce *checkError
	if errors.As(err, &ce) {
		name = ce.check
	}
	o.attempted++
	o.failed++
	o.check(name, false, "%v", err)
	return o
}

func (o *outcome) note(name string, value float64, unit, note string) {
	o.info = append(o.info, infoMetric{name: name, value: value, unit: unit, note: note})
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) *outcome{
	"map-growth":      func(c runConfig) *outcome { return runHost(mapWorkload(1000, 12, 32, 2.5), c, false) },
	"host-colocation": func(c runConfig) *outcome { return runHost(colocationWorkload(392, 0.05), c, true) },
	"fleet-sync":      runFleet,
}

// byHand are the workloads BENCHMARK.json leaves out: they run on request
// but are not gated, because on a shared machine their figures follow the
// host's speed more than the code's (README.md gives the measurements).
var byHand = map[string]bool{"map-growth": true}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: map-growth, host-colocation or fleet-sync")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 40, "measured run length in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and span files")
	flag.Parse()

	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	env := environment(*seed, *seconds, *traceFlag == 1)
	fmt.Printf("# perfbench workload=%s %s\n", *name, env)
	o := runner(runConfig{
		name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, out: *out, work: work,
	})

	res := jsonResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, c := range o.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			res.Correct = false
		}
		fmt.Printf("# check %s %s: %s\n", status, c.name, c.detail)
	}
	defs, values := endToEnd, o.e2e
	if *traceFlag == 1 {
		defs, values = perLayer, o.layers
	}
	for _, m := range o.info {
		fmt.Printf("%-32s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, d := range defs {
		res.Metrics[d.name] = jsonMetric{Value: values[d.name], Unit: d.unit}
		fmt.Printf("%-32s %14.6g %s\n", d.name, values[d.name], d.unit)
	}

	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceFlag))
	if err := writeResultFile(base+".json", *name, env, o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *traceFlag == 1 {
		if err := writeSpans(base+".spans.jsonl", o.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// runEnv is what a result was measured on.
type runEnv struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func environment(seed int64, seconds int, trace bool) runEnv {
	return runEnv{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

func (e runEnv) String() string {
	return fmt.Sprintf("seed=%d seconds=%d trace=%t go=%s gomaxprocs=%d nproc=%d cpu=%q",
		e.Seed, e.Seconds, e.Trace, e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPUModel)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeResultFile keeps the full record of a run: environment, checks,
// workload-specific figures and the result line.
func writeResultFile(path, workload string, env runEnv, o *outcome, res jsonResult) error {
	type jsonInfo struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Note  string  `json:"note,omitempty"`
	}
	type jsonCheck struct {
		Name   string `json:"name"`
		OK     bool   `json:"ok"`
		Detail string `json:"detail"`
	}
	rec := struct {
		Workload string              `json:"workload"`
		Env      runEnv              `json:"env"`
		Checks   []jsonCheck         `json:"checks"`
		Info     map[string]jsonInfo `json:"info"`
		Result   jsonResult          `json:"result"`
	}{Workload: workload, Env: env, Info: map[string]jsonInfo{}, Result: res}
	for _, c := range o.checks {
		rec.Checks = append(rec.Checks, jsonCheck{c.name, c.ok, c.detail})
	}
	for _, m := range o.info {
		rec.Info[m.name] = jsonInfo{m.value, m.unit, m.note}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
