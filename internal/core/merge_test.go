package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/statespace"
)

// tplMetricsMismatch is a single-metric schema no baseConfig runtime uses.
func tplMetricsMismatch() []metrics.Metric {
	return []metrics.Metric{metrics.MetricCPU}
}

// runScript builds a runtime and drives it through the scripted periods,
// returning it with whatever map it learned.
func runScript(t *testing.T, steps []envStep) *Runtime {
	t.Helper()
	r, _ := newTestRuntime(t, baseConfig(), &fakeEnv{script: steps})
	for i := range steps {
		if _, err := r.Period(); err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
	}
	return r
}

func active(sensCPU, batchCPU float64, violation bool) envStep {
	return envStep{
		sensitiveCPU: sensCPU, batchCPU: batchCPU, violation: violation,
		sensRunning: true, batchRunning: true, batchActive: true,
	}
}

func TestMergeTemplateAddsFleetStates(t *testing.T) {
	// Host 1 learns three distinct states, one a violation.
	rt1 := runScript(t, []envStep{
		active(50, 50, false),
		active(150, 390, true),
		active(380, 100, false),
	})
	tpl := rt1.ExportTemplate("web-app")
	if len(tpl.States) < 2 {
		t.Fatalf("exported %d states, need a real map to merge", len(tpl.States))
	}

	// Host 2 never ran a period: the whole fleet map is news to it.
	rt2, _ := newTestRuntime(t, baseConfig(), &fakeEnv{})
	stats, err := rt2.MergeTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != len(tpl.States) || stats.Matched != 0 || stats.Upgraded != 0 {
		t.Fatalf("fresh merge stats = %+v, want Added=%d", stats, len(tpl.States))
	}
	if got := rt2.Space().Len(); got != len(tpl.States) {
		t.Fatalf("space holds %d states after merge, want %d", got, len(tpl.States))
	}
	if len(rt2.Space().ViolationIDs()) == 0 {
		t.Fatal("merged violation state lost its label")
	}

	// Re-merging the same template is a no-op: everything matches.
	stats, err = rt2.MergeTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 0 || stats.Matched != len(tpl.States) || stats.Upgraded != 0 {
		t.Fatalf("re-merge stats = %+v, want all Matched", stats)
	}
}

func TestMergeTemplateUpgradesLabel(t *testing.T) {
	// This host only ever saw the state as safe.
	rt := runScript(t, []envStep{
		active(50, 50, false),
		active(150, 390, false),
	})
	if len(rt.Space().ViolationIDs()) != 0 {
		t.Fatal("precondition: no local violations")
	}
	tpl := rt.ExportTemplate("web-app")

	// The fleet saw a violation at one of those states: merging upgrades
	// the local label (sticky — never the other direction).
	up := statespace.CloneTemplate(tpl)
	up.States[len(up.States)-1].Label = statespace.Violation.String()
	stats, err := rt.MergeTemplate(up)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Upgraded != 1 || stats.Added != 0 || stats.Matched != len(tpl.States) {
		t.Fatalf("upgrade merge stats = %+v, want 1 Upgraded, all Matched", stats)
	}
	if len(rt.Space().ViolationIDs()) != 1 {
		t.Fatalf("violation IDs = %v after upgrade", rt.Space().ViolationIDs())
	}

	// A safe fleet label never downgrades the local violation.
	stats, err = rt.MergeTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Upgraded != 0 || len(rt.Space().ViolationIDs()) != 1 {
		t.Fatalf("safe re-merge downgraded the label: stats %+v, violations %v",
			stats, rt.Space().ViolationIDs())
	}
}

func TestMergeTemplateRejectsSchemaMismatch(t *testing.T) {
	rt, _ := newTestRuntime(t, baseConfig(), &fakeEnv{})
	bad := &statespace.Template{
		Version: 2, SensitiveApp: "web-app", Dim: 1,
		SchemaVMs: []string{"other"}, SchemaMetrics: tplMetricsMismatch(),
		States: []statespace.TemplateState{{Label: statespace.Safe.String(), Weight: 1, Vector: []float64{0.5}}},
	}
	if _, err := rt.MergeTemplate(bad); err == nil {
		t.Fatal("schema-mismatched template merged")
	}
	if rt.Space().Len() != 0 {
		t.Fatalf("rejected merge still added %d states", rt.Space().Len())
	}
}
