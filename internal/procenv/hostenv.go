package procenv

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
)

// HostEnv adapts one shared Sampler to core.HostEnvironment: a
// multi-tenant host samples every co-located group ONCE per period and
// the HostRuntime fans the slice out to its lanes. Per-application
// signals (QoS report, run state) come from Signals handles over the
// same sampler.
type HostEnv struct {
	collector Sampler
	batch     []string
}

var _ core.HostEnvironment = (*HostEnv)(nil)

// NewHostEnv builds the shared side of a multi-tenant environment. The
// batch group names must all exist in the collector; sensitive groups
// are bound later, one Signals handle each.
func NewHostEnv(c Sampler, batchGroups []string) (*HostEnv, error) {
	if c == nil {
		return nil, fmt.Errorf("procenv: nil collector")
	}
	known := map[string]bool{}
	for _, name := range c.GroupNames() {
		known[name] = true
	}
	for _, b := range batchGroups {
		if !known[b] {
			return nil, fmt.Errorf("procenv: batch group %q not in collector", b)
		}
	}
	return &HostEnv{
		collector: c,
		batch:     append([]string(nil), batchGroups...),
	}, nil
}

// Collect implements core.HostEnvironment: one sample pass over every
// group on the host.
func (e *HostEnv) Collect() []metrics.Sample { return e.collector.Sample() }

// BatchRunning implements core.HostEnvironment.
func (e *HostEnv) BatchRunning() bool {
	for _, b := range e.batch {
		if e.collector.GroupRunning(b) {
			return true
		}
	}
	return false
}

// BatchActive implements core.HostEnvironment.
func (e *HostEnv) BatchActive() bool {
	for _, b := range e.batch {
		if e.collector.GroupActive(b) {
			return true
		}
	}
	return false
}

// Signals binds one protected application's lane signals: its group in
// the shared collector plus its own QoS source. The handle implements
// core.LaneSignals and core.QoSFreshness.
func (e *HostEnv) Signals(sensitiveGroup string, qos QoSSource) (*AppSignals, error) {
	if qos == nil {
		return nil, fmt.Errorf("procenv: nil QoS source")
	}
	found := false
	for _, name := range e.collector.GroupNames() {
		if name == sensitiveGroup {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("procenv: sensitive group %q not in collector", sensitiveGroup)
	}
	return &AppSignals{collector: e.collector, group: sensitiveGroup, qos: qos, qosFresh: true}, nil
}

// AppSignals is one application's view of the shared host: its own run
// state and QoS channel. A missing or unparsable report is remembered as
// silence (core.QoSFreshness), so the lane can treat a prolonged quiet
// stretch as a stale signal rather than a healthy application.
type AppSignals struct {
	collector Sampler
	group     string
	qos       QoSSource
	qosFresh  bool
}

var (
	_ core.LaneSignals  = (*AppSignals)(nil)
	_ core.QoSFreshness = (*AppSignals)(nil)
)

// QoSViolation implements core.LaneSignals.
func (s *AppSignals) QoSViolation() bool {
	if !s.SensitiveRunning() {
		// No sensitive application means no reports are expected; that is
		// not the reporting channel going silent.
		s.qosFresh = true
		return false
	}
	v, t, ok := s.qos.QoS()
	s.qosFresh = ok
	return ok && v < t
}

// SensitiveRunning implements core.LaneSignals.
func (s *AppSignals) SensitiveRunning() bool { return s.collector.GroupRunning(s.group) }

// QoSFresh implements core.QoSFreshness.
func (s *AppSignals) QoSFresh() bool { return s.qosFresh }
