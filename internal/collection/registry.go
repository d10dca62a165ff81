package collection

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/hnsw"
	"repro/internal/store"
)

// freeze applies the collection's frozen serving mode after the durable
// store is in place — the store snapshots plain HNSW graphs, so the
// flat layout is rebuilt on every open rather than persisted.
func freeze(d *store.Durable, cfg Config) error {
	if !cfg.Frozen {
		return nil
	}
	return d.Engine().Freeze(hnsw.FreezeOptions{SQ8: cfg.SQ8, RerankK: cfg.RerankK})
}

const configName = "collection.json"

// storeOptions specializes the registry-wide store options for one
// collection: a lexical collection's store must know the BM25
// configuration before it restores the text sidecar or replays text
// records, since tokenization happens at indexing time.
func storeOptions(base store.Options, cfg Config) store.Options {
	base.Lexical = cfg.lexicalConfig()
	return base
}

// Options tunes the registry.
type Options struct {
	// Store configures every collection's durability layer (WAL fsync
	// policy, compaction, fault-injection FS).
	Store store.Options
	// Logf, when non-nil, receives lifecycle progress.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Registry maps collection names to live collections under one root
// directory and owns their lifecycle.
type Registry struct {
	root string
	opts Options

	mu     sync.RWMutex
	cols   map[string]*Collection
	closed bool
}

// ValidateName checks a collection name: 1–64 characters from
// [A-Za-z0-9_.-], not starting with a dot or dash. The charset keeps
// names safe as directory names and URL path segments.
func ValidateName(name string) error {
	if len(name) == 0 || len(name) > 64 {
		return fmt.Errorf("%w: %q (need 1-64 chars)", ErrBadName, name)
	}
	for i := 0; i < len(name); i++ {
		b := name[i]
		ok := b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' ||
			b == '_' || b == '-' || b == '.'
		if !ok {
			return fmt.Errorf("%w: %q (allowed: letters, digits, _ - .)", ErrBadName, name)
		}
	}
	if name[0] == '.' || name[0] == '-' {
		return fmt.Errorf("%w: %q (must not start with . or -)", ErrBadName, name)
	}
	return nil
}

// Open loads every collection under root (creating root if needed): a
// subdirectory with a collection.json is a collection and is recovered
// through its durable store (snapshot + WAL replay, tags included).
func Open(root string, opts Options) (*Registry, error) {
	opts.fill()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	r := &Registry{root: root, opts: opts, cols: make(map[string]*Collection)}
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		cfgPath := filepath.Join(root, name, configName)
		b, err := os.ReadFile(cfgPath)
		if err != nil {
			if os.IsNotExist(err) {
				continue // not a collection directory
			}
			return nil, r.closeWith(fmt.Errorf("collection: reading %s: %w", cfgPath, err))
		}
		var cfg Config
		if err := json.Unmarshal(b, &cfg); err != nil {
			return nil, r.closeWith(fmt.Errorf("collection: parsing %s: %w", cfgPath, err))
		}
		if err := cfg.fill(); err != nil {
			return nil, r.closeWith(fmt.Errorf("collection: %s: %w", cfgPath, err))
		}
		d, err := store.Open(filepath.Join(root, name, "data"), storeOptions(opts.Store, cfg))
		if err != nil {
			return nil, r.closeWith(fmt.Errorf("collection: opening %q: %w", name, err))
		}
		if err := freeze(d, cfg); err != nil {
			d.Close()
			return nil, r.closeWith(fmt.Errorf("collection: freezing %q: %w", name, err))
		}
		r.cols[name] = &Collection{name: name, cfg: cfg, dur: d}
		opts.Logf("collection: opened %q (dim %d, metric %s, %d points)",
			name, cfg.Dim, cfg.Metric, d.Engine().Len())
	}
	return r, nil
}

// closeWith tears down already-opened collections after a failed Open.
func (r *Registry) closeWith(err error) error {
	for _, c := range r.cols {
		c.dur.Close()
	}
	return err
}

// Create makes a new empty collection: engine, store directory, and
// config file. The config write is atomic and durable (fsx.WriteAtomic),
// and it happens LAST — a crash mid-create leaves a directory without
// collection.json, which the next Open skips (and a re-Create of the
// same name replaces).
func (r *Registry) Create(name string, cfg Config) (*Collection, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrDraining
	}
	if _, ok := r.cols[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	dir := filepath.Join(r.root, name)
	if _, err := os.Stat(filepath.Join(dir, configName)); err == nil {
		return nil, fmt.Errorf("%w: %q (directory present on disk)", ErrExists, name)
	}
	ecfg, err := cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	e, err := core.NewEmptyEngine(cfg.Dim, ecfg)
	if err != nil {
		return nil, err
	}
	if cfg.EfSearch > 0 {
		e.SetEfSearch(cfg.EfSearch)
	}
	dataDir := filepath.Join(dir, "data")
	// A half-created data dir from a crashed earlier Create would make
	// store.Create fail with "already holds a store"; clear it.
	os.RemoveAll(dataDir)
	d, err := store.Create(dataDir, e, storeOptions(r.opts.Store, cfg))
	if err != nil {
		return nil, err
	}
	if err := freeze(d, cfg); err != nil {
		d.Close()
		return nil, err
	}
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		d.Close()
		return nil, err
	}
	fs := r.opts.Store.FS // the drills' fault injector covers the config publish too
	if fs == nil {
		fs = fsx.OS{}
	}
	if _, _, err := fsx.WriteFileAtomic(fs, filepath.Join(dir, configName), append(b, '\n')); err != nil {
		d.Close()
		return nil, err
	}
	c := &Collection{name: name, cfg: cfg, dur: d}
	r.cols[name] = c
	r.opts.Logf("collection: created %q (dim %d, metric %s)", name, cfg.Dim, cfg.Metric)
	return c, nil
}

// Get resolves a name.
func (r *Registry) Get(name string) (*Collection, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrDraining
	}
	c, ok := r.cols[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return c, nil
}

// Names returns the registered collection names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.cols))
	for n := range r.cols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Drop removes a collection: unregisters it (new requests get
// ErrUnknown immediately), drains in-flight ones, closes the store,
// and deletes the directory.
func (r *Registry) Drop(ctx context.Context, name string) error {
	r.mu.Lock()
	c, ok := r.cols[name]
	if ok {
		delete(r.cols, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	if err := c.Drain(ctx); err != nil {
		return err
	}
	if err := c.dur.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(r.root, name)); err != nil {
		return err
	}
	r.opts.Logf("collection: dropped %q", name)
	return nil
}

// Close drains and closes every collection. The registry is unusable
// afterwards.
func (r *Registry) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	cols := make([]*Collection, 0, len(r.cols))
	for _, c := range r.cols {
		cols = append(cols, c)
	}
	r.mu.Unlock()
	var first error
	for _, c := range cols {
		if err := c.Drain(ctx); err != nil && first == nil {
			first = err
		}
		if err := c.dur.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
