package registry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/statespace"
)

// hostUpload derives one host's push from the consensus: some known states
// revisited (a few now seen violating) plus fresh states.
func hostUpload(rng *rand.Rand, consensus *statespace.Template, fresh int) *statespace.Template {
	t := benchTemplate(rng, consensus.SensitiveApp, fresh)
	for _, st := range consensus.States {
		if rng.Intn(3) != 0 {
			continue
		}
		st.Vector = append([]float64(nil), st.Vector...)
		if rng.Intn(3) == 0 {
			st.Label = statespace.Violation.String()
		}
		t.States = append(t.States, st)
	}
	return t
}

// labelledVectors projects a template onto what delta sync must agree on:
// vectors and labels, in order (weights and coordinates may differ).
func labelledVectors(t *statespace.Template) []statespace.TemplateState {
	out := make([]statespace.TemplateState, len(t.States))
	for i, st := range t.States {
		out[i] = statespace.TemplateState{Label: st.Label, Vector: st.Vector}
	}
	return out
}

// TestDeltaChainsCompose: applying r→r+1 then r+1→r+2 lands on the same
// vectors and labels as applying r→r+2 in one step, and both match the
// registry's consensus at r+2.
func TestDeltaChainsCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reg, err := Open(Config{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	delta := func(since int) *statespace.TemplateDelta {
		t.Helper()
		d, ok := reg.DeltaSince("vlc", "", since)
		if !ok {
			t.Fatal("no entry")
		}
		return d
	}
	apply := func(local *statespace.Template, d *statespace.TemplateDelta) *statespace.Template {
		t.Helper()
		out, err := statespace.ApplyDelta(local, d, DefaultMergeEpsilon)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	put := func(host string) *Entry {
		t.Helper()
		cur, _ := reg.Get("vlc", "")
		base := benchTemplate(rng, "vlc", 0)
		if cur != nil {
			base = cur.Template
		}
		e, err := reg.Put(host, hostUpload(rng, base, 30))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := put("host-a")
	for round := 0; round < 4; round++ {
		r := e.Revision
		local := apply(nil, delta(0))
		put("host-b")
		d1 := delta(r)
		e = put("host-c")
		d2, d12 := delta(r+1), delta(r)
		if d1.Full || d2.Full || d12.Full {
			t.Fatalf("revision %d: ranges unchanged, yet a full delta was served", r)
		}
		stepwise := apply(apply(local, d1), d2)
		oneStep := apply(local, d12)
		if !reflect.DeepEqual(labelledVectors(stepwise), labelledVectors(oneStep)) {
			t.Fatalf("revision %d: r→r+1→r+2 and r→r+2 disagree", r)
		}
		if !reflect.DeepEqual(labelledVectors(oneStep), labelledVectors(e.Template)) {
			t.Fatalf("revision %d: applied deltas differ from the consensus at revision %d", r, e.Revision)
		}
	}
}

// TestIndentedEntryFilesStillLoad: a registry directory persisted as
// indented JSON (the format before entries were written compact) reopens
// with the same entries, revisions and version vectors.
func TestIndentedEntryFilesStillLoad(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(Config{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for _, app := range []string{"vlc", "kv"} {
		cur := benchTemplate(rng, app, 20)
		for i := 0; i < 3; i++ {
			e, err := reg.Put("host-a", hostUpload(rng, cur, 5))
			if err != nil {
				t.Fatal(err)
			}
			cur = e.Template
		}
	}
	want := reg.Entries()

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("entry files = %v, %v", files, err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Count(data, []byte("\n")) != 1 {
			t.Fatalf("%s is not compact one-line JSON", filepath.Base(path))
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := Open(Config{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	got := reopened.Entries()
	if len(got) != len(want) {
		t.Fatalf("reopened %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].UpdatedAt.Equal(want[i].UpdatedAt) {
			t.Fatalf("%s: updated at %v, want %v", want[i].Key, got[i].UpdatedAt, want[i].UpdatedAt)
		}
		got[i].UpdatedAt, want[i].UpdatedAt = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: reopened entry differs:\n got %+v\nwant %+v", want[i].Key, got[i], want[i])
		}
		gd, _ := reopened.DeltaSince(want[i].Key.App, want[i].Key.Schema, 2)
		wd, _ := reg.DeltaSince(want[i].Key.App, want[i].Key.Schema, 2)
		if gd.Full || !reflect.DeepEqual(gd, wd) {
			t.Fatalf("%s: delta since 2 after reopen differs", want[i].Key)
		}
	}
}
