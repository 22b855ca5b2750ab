package procenv

import (
	"os"
	"path/filepath"
	"testing"
)

func newTestEnv(t *testing.T, qos QoSSource) (*HostEnv, *AppSignals, string) {
	t.Helper()
	root := t.TempDir()
	writeFakeProc(t, root, 100, "sensitive", 'R', 0, 0, 1024, 0, 0)
	writeFakeProc(t, root, 200, "batch", 'R', 0, 0, 2048, 0, 0)
	c, err := NewCollector(root, 100, []Group{
		{Name: "svc", PIDs: []int{100}},
		{Name: "jobs", PIDs: []int{200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewHostEnv(c, []string{"jobs"})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := env.Signals("svc", qos)
	if err != nil {
		t.Fatal(err)
	}
	return env, sig, root
}

func TestNewHostEnvValidation(t *testing.T) {
	root := t.TempDir()
	c, err := NewCollector(root, 100, []Group{{Name: "svc"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHostEnv(nil, nil); err == nil {
		t.Error("nil collector should error")
	}
	if _, err := NewHostEnv(c, []string{"ghost"}); err == nil {
		t.Error("unknown batch group should error")
	}
	env, err := NewHostEnv(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Signals("svc", nil); err == nil {
		t.Error("nil QoS source should error")
	}
	if _, err := env.Signals("ghost", StaticQoS{}); err == nil {
		t.Error("unknown sensitive group should error")
	}
}

func TestEnvironmentRoles(t *testing.T) {
	env, sig, root := newTestEnv(t, StaticQoS{Value: 1, Threshold: 0.9})
	if !sig.SensitiveRunning() || !env.BatchRunning() || !env.BatchActive() {
		t.Error("both groups should be running")
	}
	if sig.QoSViolation() {
		t.Error("value 1 ≥ threshold 0.9: no violation")
	}
	samples := env.Collect()
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}

	// SIGSTOP the batch process (state T): not running, still active.
	writeFakeProc(t, root, 200, "batch", 'T', 0, 0, 2048, 0, 0)
	if env.BatchRunning() {
		t.Error("stopped batch should not be running")
	}
	if !env.BatchActive() {
		t.Error("stopped batch still has work")
	}
}

func TestEnvironmentViolation(t *testing.T) {
	_, sig, root := newTestEnv(t, StaticQoS{Value: 0.5, Threshold: 0.9})
	if !sig.QoSViolation() {
		t.Error("value 0.5 < threshold 0.9: violation expected")
	}
	// A dead sensitive process never violates (there is nothing to protect).
	if err := os.RemoveAll(filepath.Join(root, "100")); err != nil {
		t.Fatal(err)
	}
	if sig.QoSViolation() || !sig.QoSFresh() {
		t.Error("no sensitive process: no violation, and no silent report channel")
	}
}

func TestFileQoS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qos")
	f := FileQoS{Path: path}
	if _, _, ok := f.QoS(); ok {
		t.Error("missing file should report not-ok")
	}
	if err := os.WriteFile(path, []byte("0.87 0.9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, th, ok := f.QoS()
	if !ok || v != 0.87 || th != 0.9 {
		t.Errorf("qos = %v %v %v", v, th, ok)
	}
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := f.QoS(); ok {
		t.Error("malformed report should report not-ok")
	}
	if err := os.WriteFile(path, []byte("0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := f.QoS(); ok {
		t.Error("single-field report should report not-ok")
	}
}
