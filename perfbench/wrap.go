package main

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/statespace"
	"repro/internal/throttle"
)

// The wrappers below time calls into one layer's public interface from
// outside it. Each one forwards every optional interface its consumer
// type-asserts for (throttle.GradedActuator on actuators, the idle-
// connection closer on transports), so wrapping never changes the code
// path being measured.

// tracedEnv times HostEnvironment.Collect as span "env.collect".
type tracedEnv struct {
	inner core.HostEnvironment
	t     *tracer
}

var _ core.HostEnvironment = (*tracedEnv)(nil)

func (e *tracedEnv) Collect() []metrics.Sample {
	id := e.t.enter("env.collect")
	defer e.t.leave(id)
	return e.inner.Collect()
}

func (e *tracedEnv) BatchRunning() bool { return e.inner.BatchRunning() }
func (e *tracedEnv) BatchActive() bool  { return e.inner.BatchActive() }

// tracedActuator times every actuation under one span name and counts
// calls.
type tracedActuator struct {
	inner throttle.Actuator
	name  string
	t     *tracer
	calls int
}

// gradedTracedActuator is a tracedActuator over a graded inner actuator.
type gradedTracedActuator struct {
	*tracedActuator
	graded throttle.GradedActuator
}

// wrapActuator returns a timing wrapper that is a GradedActuator exactly
// when inner is one, and the wrapper itself for reading the call count.
func wrapActuator(inner throttle.Actuator, name string, t *tracer) (throttle.Actuator, *tracedActuator) {
	ta := &tracedActuator{inner: inner, name: name, t: t}
	if g, ok := inner.(throttle.GradedActuator); ok {
		return &gradedTracedActuator{tracedActuator: ta, graded: g}, ta
	}
	return ta, ta
}

func (a *tracedActuator) call(f func() error) error {
	a.calls++
	id := a.t.enter(a.name)
	defer a.t.leave(id)
	return f()
}

func (a *tracedActuator) Pause(ids []string) error {
	return a.call(func() error { return a.inner.Pause(ids) })
}

func (a *tracedActuator) Resume(ids []string) error {
	return a.call(func() error { return a.inner.Resume(ids) })
}

func (a *gradedTracedActuator) SetLevel(ids []string, level float64) error {
	return a.call(func() error { return a.graded.SetLevel(ids, level) })
}

// tracedStore times the registry behind fleet.Server. A put's span is a
// child of the uploading host's request in flight, as parent reports it;
// reads do not say which host asked, so their spans are roots.
type tracedStore struct {
	inner  fleet.Store
	t      *tracer
	parent func(host string) int64
}

var _ fleet.Store = (*tracedStore)(nil)

func (s *tracedStore) Put(host string, t *statespace.Template) (*registry.Entry, error) {
	id := s.t.begin("registry.put", s.parent(host), 0)
	defer s.t.end(id)
	return s.inner.Put(host, t)
}

func (s *tracedStore) Get(app, schema string) (*registry.Entry, bool) {
	return s.inner.Get(app, schema)
}

func (s *tracedStore) DeltaSince(app, schema string, since int) (*statespace.TemplateDelta, bool) {
	id := s.t.begin("registry.delta_since", 0, 0)
	defer s.t.end(id)
	return s.inner.DeltaSince(app, schema, since)
}

func (s *tracedStore) Entries() []*registry.Entry { return s.inner.Entries() }
func (s *tracedStore) Len() int                   { return s.inner.Len() }

// countingTransport counts the bytes of template PUT bodies and of delta
// response bodies as the client reads them.
type countingTransport struct {
	inner      http.RoundTripper
	putBytes   atomic.Int64
	deltaBytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && req.ContentLength > 0 {
		c.putBytes.Add(req.ContentLength)
	}
	resp, err := c.inner.RoundTrip(req)
	if err == nil && req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/delta") {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.deltaBytes}
	}
	return resp, err
}

// CloseIdleConnections forwards to the inner transport, which
// http.Client.CloseIdleConnections looks for.
func (c *countingTransport) CloseIdleConnections() {
	if ci, ok := c.inner.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// countingBody counts the bytes the client reads from a response body.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
