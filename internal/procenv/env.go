package procenv

import (
	"os"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// QoSSource reports the sensitive application's most recent QoS value and
// threshold, mirroring §3.1: "Stay-Away relies on the application to
// report whenever a QoS violation happens."
type QoSSource interface {
	// QoS returns (value, threshold, ok); ok is false when no fresh report
	// is available, in which case the period counts as non-violating.
	QoS() (value, threshold float64, ok bool)
}

// FileQoS reads QoS reports from a file the application rewrites each
// period, containing one line: "<value> <threshold>". This is the
// lightest possible reporting channel for instrumented applications (the
// paper instrumented VLC 2.0.5 the same way).
type FileQoS struct {
	// Path is the report file's location.
	Path string
}

var _ QoSSource = FileQoS{}

// QoS implements QoSSource.
func (f FileQoS) QoS() (float64, float64, bool) {
	data, err := os.ReadFile(f.Path)
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, 0, false
	}
	v, err1 := strconv.ParseFloat(fields[0], 64)
	t, err2 := strconv.ParseFloat(fields[1], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return v, t, true
}

// StaticQoS always reports the same value; useful for tests and dry runs.
type StaticQoS struct {
	Value, Threshold float64
}

var _ QoSSource = StaticQoS{}

// QoS implements QoSSource.
func (s StaticQoS) QoS() (float64, float64, bool) { return s.Value, s.Threshold, true }

// Sampler is the measurement source a HostEnv observes: the procfs
// Collector in PID mode, or cgroup.Collector in cgroup mode. Group names
// are the metrics.Sample VM names.
type Sampler interface {
	// Sample reads the current usage of every group.
	Sample() []metrics.Sample
	// GroupRunning reports whether the named group is actively executing
	// (exists and is not stopped/frozen).
	GroupRunning(name string) bool
	// GroupActive reports whether the named group still has work (running
	// or stopped, not gone).
	GroupActive(name string) bool
	// GroupNames returns the configured group names in order.
	GroupNames() []string
}

var _ Sampler = (*Collector)(nil)
