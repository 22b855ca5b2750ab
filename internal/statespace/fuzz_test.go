package statespace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadTemplate: template parsing must never panic, and anything it
// accepts must survive Import (or be rejected by Import's validation) —
// never corrupt a Space.
func FuzzReadTemplate(f *testing.F) {
	f.Add(`{"version":1,"sensitive_app":"vlc","dim":2,"states":[{"x":1,"y":2,"label":"safe","weight":1,"vector":[0.1,0.2]}],"ranges":{}}`)
	f.Add(`{"version":1,"states":[{"label":"violation","vector":[]}]}`)
	f.Add(`{}`)
	f.Add(`{"version":99}`)
	f.Add(`not json`)
	f.Add(`{"version":1,"dim":3,"states":[{"vector":[1]}]}`)
	f.Add(`{"version":2,"sensitive_app":"vlc","dim":2,"schema_vms":["vlc"],"schema_metrics":["cpu","memory"],"states":[{"x":1,"y":2,"label":"violation","weight":3,"vector":[0.4,0.5]}],"ranges":{"cpu":{"max":400}}}`)
	f.Add(`{"version":2,"dim":2,"schema_vms":["vlc"]}`)
	f.Add(`{"version":2,"dim":4,"schema_vms":["a"],"schema_metrics":["cpu","cpu","io","net"]}`)
	f.Add(`{"version":2,"sensitive_app":"vlc","dim":1,"states":[{"vector":[0.1]`)
	f.Add(`{"version":2,"dim":0,"states":[]}trailing`)
	f.Add(`{"version":2,"states":[{"label":"safe","weight":-1,"vector":[]}]}`)
	f.Add(`{"version":2,"ranges":{"cpu":{"max":-1}}}`)
	f.Fuzz(func(t *testing.T, input string) {
		tpl, err := ReadTemplate(strings.NewReader(input))
		if err != nil {
			return
		}
		space, err := Import(tpl)
		if err != nil {
			return
		}
		// An imported space must be internally consistent.
		if space.Len() != len(tpl.States) {
			t.Fatalf("states %d vs template %d", space.Len(), len(tpl.States))
		}
		for _, id := range space.ViolationIDs() {
			st, err := space.State(id)
			if err != nil {
				t.Fatalf("violation id %d invalid: %v", id, err)
			}
			if st.Label != Violation {
				t.Fatalf("violation id %d labelled %v", id, st.Label)
			}
		}
		// Violation ranges must respect the R < d invariant where defined.
		for _, d := range space.ViolationRanges() {
			if d.Radius < 0 {
				t.Fatalf("negative radius %v", d.Radius)
			}
		}
	})
}

// FuzzApplyDelta drives the network-facing apply path a stream replica
// runs: a delta that decodes must either fail to apply or yield a template
// that passes Validate — never panic.
func FuzzApplyDelta(f *testing.F) {
	var buf bytes.Buffer
	base := mergeTestTemplate(rand.New(rand.NewSource(51)), 20, 400)
	patch := incomingFrom(rand.New(rand.NewSource(52)), base, 3, 650)
	for _, d := range []*TemplateDelta{
		{FromRevision: 3, ToRevision: 4, Patch: patch},
		{ToRevision: 4, Full: true, Patch: patch},
		{FromRevision: 4, ToRevision: 4, Patch: &Template{Version: 2, SensitiveApp: "vlc", Dim: 8,
			SchemaVMs: base.SchemaVMs, SchemaMetrics: base.SchemaMetrics, States: []TemplateState{}}},
	} {
		buf.Reset()
		if _, err := d.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add(`{"from_revision":1,"to_revision":2,"patch":{"version":2,"sensitive_app":"vlc","dim":8,"schema_vms":["sensitive","batch"],"schema_metrics":["cpu","memory","io","network"],"states":[{"x":1e308,"y":-1e308,"label":"violation","weight":1,"vector":[0,0,0,0,0,0,0,0]}],"ranges":{"cpu":{"max":0}}}}`)
	// Two matched states with coordinates far apart make the alignment
	// overflow; the fresh third state would carry NaN coordinates.
	big := CloneTemplate(base)
	big.States = big.States[:3]
	big.States[0].X, big.States[0].Y = 1e308, -1e308
	big.States[1].X, big.States[1].Y = -1e308, 1e308
	big.States[2].Vector = []float64{9, 9, 9, 9, 9, 9, 9, 9}
	// A matched state whose weight overflows the accumulated sum.
	heavy := CloneTemplate(base)
	heavy.States = heavy.States[:1]
	heavy.States[0].Weight = math.MaxInt
	for _, p := range []*Template{big, heavy} {
		buf.Reset()
		if _, err := (&TemplateDelta{FromRevision: 1, ToRevision: 2, Patch: p}).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add(`{"from_revision":1,"to_revision":2,"patch":{"version":1,"sensitive_app":"vlc","dim":0,"states":[{"label":"safe","vector":[1]},{"label":"safe","vector":[1,2]}]}}`)
	f.Add(`{"from_revision":2,"to_revision":1,"patch":{"version":2}}`)
	f.Add(`{"patch":null}`)
	f.Add(`{"from_revision":1,"to_revision":2,"patch":{"version":2,"sensitive_app":"vlc","dim":8`)
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadTemplateDelta(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, local := range []*Template{base, nil} {
			out, err := ApplyDelta(local, d, 0.05)
			if err != nil {
				continue
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("applied delta fails validation: %v", err)
			}
		}
	})
}
