package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// fingerprint compares a run's simulated outcomes with what earlier runs
// of the same binary recorded for the same workload, seed and run length,
// and records them. head covers the whole run and episodes are per
// episode, in seed order. The episodes a run measures depend only on the
// seed and the run length, so the records must be equal; any difference
// is a determinism failure.
func fingerprint(o *outcome, c runConfig, head any, episodes []simOutcome) {
	const name = "same-seed runs agree"
	cur, err := json.Marshal(struct {
		Head     any          `json:"head"`
		Episodes []simOutcome `json:"episodes"`
	}{head, episodes})
	if err != nil {
		o.check(name, false, "encode outcomes: %v", err)
		return
	}
	id, err := binaryID()
	if err != nil {
		o.check(name, false, "identify binary: %v", err)
		return
	}
	dir := filepath.Join(c.out, "outcomes")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%ds-%s.json", c.name, c.seed, int(c.seconds.Seconds()), id))
	if prev, err := os.ReadFile(path); err == nil {
		o.check(name, bytes.Equal(prev, cur), "outcomes of %d episodes against the earlier run recorded in %s", len(episodes), path)
		return
	}
	err = os.MkdirAll(dir, 0o755)
	if err == nil {
		err = os.WriteFile(path+".tmp", cur, 0o644)
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		o.check(name, false, "record outcomes: %v", err)
		return
	}
	o.check(name, true, "first run of this binary with seed %d for %v; recorded in %s", c.seed, c.seconds, path)
}

// binaryID is a short hash of the running executable, so outcomes recorded
// by a different build are never compared.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
