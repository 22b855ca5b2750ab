package registry

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fsatomic"
	"repro/internal/statespace"
)

// Sharding. A single Registry serializes every Put, and the merge it pays,
// behind one mutex — fine for a rack, a bottleneck for a cluster-scale
// fleet where thousands of hosts push learned maps for many sensitive
// applications. Sharded splits the store into N independent registries
// routed by sensitive-app key: templates for different applications never
// contend on a lock, never share a merge, and persist under separate
// directories. Routing is a stable hash of the app name, so every server
// instance — and every restart — sends the same app to the same shard; the
// shard count is pinned in a marker file because changing it would
// re-route apps to shards that cannot see their history.

// shardMarker is the shard-count pin, one per persistence directory.
const shardMarker = "shards.json"

// Sharded is a consensus-template store split across independent
// registry shards by sensitive-app key. Safe for concurrent use; it
// implements the same store surface as Registry.
type Sharded struct {
	shards []*Registry
}

// OpenSharded creates a store with n shards (n < 1 means 1). With a
// persistence directory, each shard lives in Dir/shard-NN and the shard
// count is pinned in Dir/shards.json on first open; reopening with a
// different n fails rather than silently re-routing apps away from their
// stored history. cfg.OnPut, when set, is shared by every shard.
func OpenSharded(cfg Config, n int) (*Sharded, error) {
	if n < 1 {
		n = 1
	}
	if cfg.Dir != "" {
		if err := pinShardCount(cfg.Dir, n); err != nil {
			return nil, err
		}
	}
	s := &Sharded{shards: make([]*Registry, n)}
	for i := range s.shards {
		shardCfg := cfg
		if cfg.Dir != "" {
			shardCfg.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%02d", i))
		}
		r, err := Open(shardCfg)
		if err != nil {
			return nil, fmt.Errorf("registry: shard %d: %w", i, err)
		}
		s.shards[i] = r
	}
	return s, nil
}

// shardCountFile is the marker's JSON shape.
type shardCountFile struct {
	Shards int `json:"shards"`
}

// pinShardCount creates or verifies the shard-count marker under dir.
func pinShardCount(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("registry: create dir: %w", err)
	}
	path := filepath.Join(dir, shardMarker)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		body, err := json.Marshal(shardCountFile{Shards: n})
		if err != nil {
			return fmt.Errorf("registry: marshal shard marker: %w", err)
		}
		body = append(body, '\n')
		if err := fsatomic.WriteFile(path, body, 0o644); err != nil {
			return fmt.Errorf("registry: pin shard count: %w", err)
		}
		return nil
	case err != nil:
		return fmt.Errorf("registry: read shard marker: %w", err)
	}
	var pinned shardCountFile
	if err := json.Unmarshal(data, &pinned); err != nil {
		return fmt.Errorf("registry: parse %s: %w", shardMarker, err)
	}
	if pinned.Shards != n {
		return fmt.Errorf("registry: store %s was created with %d shards, reopened with %d; "+
			"shard count is part of the routing function and cannot change",
			dir, pinned.Shards, n)
	}
	return nil
}

// ShardFor returns the shard index app routes to: an FNV-1a hash of the
// app name modulo the shard count. Every template operation for one
// sensitive application lands on one shard.
func (s *Sharded) ShardFor(app string) int {
	h := fnv.New32a()
	h.Write([]byte(app))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Put routes the template to its application's shard; see Registry.Put.
func (s *Sharded) Put(host string, t *statespace.Template) (*Entry, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.SensitiveApp == "" {
		return nil, fmt.Errorf("registry: template has no sensitive app name")
	}
	return s.shards[s.ShardFor(t.SensitiveApp)].Put(host, t)
}

// Get routes to app's shard; see Registry.Get.
func (s *Sharded) Get(app, schema string) (*Entry, bool) {
	return s.shards[s.ShardFor(app)].Get(app, schema)
}

// DeltaSince routes to app's shard; see Registry.DeltaSince.
func (s *Sharded) DeltaSince(app, schema string, since int) (*statespace.TemplateDelta, bool) {
	return s.shards[s.ShardFor(app)].DeltaSince(app, schema, since)
}

// Entries returns every entry across all shards, ordered by key for
// deterministic listings.
func (s *Sharded) Entries() []*Entry {
	var out []*Entry
	for _, shard := range s.shards {
		out = append(out, shard.Entries()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// Len reports the total number of stored entries.
func (s *Sharded) Len() int {
	n := 0
	for _, shard := range s.shards {
		n += shard.Len()
	}
	return n
}
