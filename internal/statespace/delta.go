package statespace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Delta encoding of template states (§6 scaled to a streaming fleet).
// Whole-template polling ships every state on every pull; a fleet of
// thousands of hosts polling a consensus map that changes by one or two
// states per control period wastes almost all of that bandwidth. A
// TemplateDelta instead carries only the states that changed after a known
// revision — new states and label upgrades — as a patch template the
// receiver merges onto its local map with the same Procrustes-consistent
// alignment the registry uses (ApplyDelta).

// ErrDeltaBase marks an incremental delta applied without a local base
// template to merge onto: the receiver must fetch a full template first
// (or request the delta from revision 0, which is served full).
var ErrDeltaBase = errors.New("statespace: incremental delta without base template")

// TemplateDelta is the wire format of one template update.
type TemplateDelta struct {
	// FromRevision and ToRevision bound the update: the patch carries
	// every state changed in (FromRevision, ToRevision]. FromRevision 0
	// means "from nothing" — the patch is the whole template.
	FromRevision int `json:"from_revision"`
	ToRevision   int `json:"to_revision"`
	// Full marks a patch that replaces the receiver's template instead of
	// merging into it. Served when the requester's revision is unusable:
	// zero, ahead of the store (the store lost history), predating a
	// normalization-range rescale (every vector changed), or predating the
	// store's per-state version tracking.
	Full bool `json:"full,omitempty"`
	// Patch is a well-formed template carrying only the changed states
	// (all states when Full), plus the current schema and normalization
	// ranges the receiver needs to merge them.
	Patch *Template `json:"patch"`
}

// Validate checks structural consistency; the embedded patch is validated
// with the full template rules.
func (d *TemplateDelta) Validate() error {
	if d == nil {
		return fmt.Errorf("statespace: nil delta")
	}
	if d.Patch == nil {
		return fmt.Errorf("statespace: delta without patch: %w", ErrCorruptTemplate)
	}
	if d.ToRevision < 0 || d.FromRevision < 0 || d.ToRevision < d.FromRevision {
		return fmt.Errorf("statespace: delta revisions %d..%d: %w",
			d.FromRevision, d.ToRevision, ErrCorruptTemplate)
	}
	if d.Full && d.FromRevision != 0 {
		return fmt.Errorf("statespace: full delta from revision %d: %w",
			d.FromRevision, ErrCorruptTemplate)
	}
	return d.Patch.Validate()
}

// Empty reports whether the delta carries no state changes — the "you are
// already current" reply to a conditional sync.
func (d *TemplateDelta) Empty() bool {
	return !d.Full && len(d.Patch.States) == 0
}

// WriteTo serializes the delta as compact JSON on one line.
func (d *TemplateDelta) WriteTo(w io.Writer) (int64, error) {
	data, err := json.Marshal(d)
	if err != nil {
		return 0, fmt.Errorf("statespace: marshal delta: %w", err)
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ReadTemplateDelta parses and validates a delta from JSON with the same
// hardening as ReadTemplate: truncation surfaces as io.ErrUnexpectedEOF,
// trailing garbage is rejected, and a structurally invalid patch fails
// here rather than corrupting a later apply.
func ReadTemplateDelta(r io.Reader) (*TemplateDelta, error) {
	var d TemplateDelta
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("statespace: decode delta: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("statespace: trailing data after delta: %w", ErrCorruptTemplate)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// ApplyDelta folds a delta into the receiver's local template and returns
// the updated template (neither input is mutated). A Full delta replaces
// local wholesale (local may then be nil); an incremental delta merges the
// patch states onto local with Procrustes-consistent alignment, exactly as
// the registry merges host uploads — so a host applying the stream and a
// host re-pulling the whole template converge on the same violation set.
// eps is the state-dedup radius (same value the registry merged under).
func ApplyDelta(local *Template, d *TemplateDelta, eps float64) (*Template, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Full {
		return CloneTemplate(d.Patch), nil
	}
	if local == nil {
		return nil, ErrDeltaBase
	}
	if d.Empty() {
		return CloneTemplate(local), nil
	}
	return MergeTemplates(local, d.Patch, eps)
}
