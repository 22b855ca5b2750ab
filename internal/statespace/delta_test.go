package statespace

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// TestWriteToIsCompactAndRoundTrips: templates and deltas go out as one
// line of compact JSON, read back unchanged, and the indented layout older
// builds wrote still reads.
func TestWriteToIsCompactAndRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tpl := mergeTestTemplate(rng, 20, 400)
	delta := &TemplateDelta{FromRevision: 3, ToRevision: 5, Patch: mergeTestTemplate(rng, 4, 650)}
	for _, tc := range []struct {
		name  string
		value io.WriterTo
		read  func(io.Reader) (any, error)
	}{
		{"template", tpl, func(r io.Reader) (any, error) { return ReadTemplate(r) }},
		{"delta", delta, func(r io.Reader) (any, error) { return ReadTemplateDelta(r) }},
	} {
		var buf bytes.Buffer
		if _, err := tc.value.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Count(buf.Bytes(), []byte("\n")) != 1 {
			t.Fatalf("%s: WriteTo is not one line of compact JSON", tc.name)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, buf.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		for _, layout := range []*bytes.Buffer{&buf, &indented} {
			got, err := tc.read(layout)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !reflect.DeepEqual(got, tc.value) {
				t.Fatalf("%s: read back %+v, want %+v", tc.name, got, tc.value)
			}
		}
	}
}
