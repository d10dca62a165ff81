package core

import (
	"fmt"

	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/lexical"
	"repro/internal/vptree"
)

// NewEmptyEngine builds an engine with no vectors: a single-leaf
// routing tree over one empty HNSW partition, ready to receive Add /
// AddAt traffic. This is how a freshly created collection starts —
// vptree.BuildPartitions needs at least one point per partition, so an
// empty engine always has exactly one partition regardless of
// cfg.Partitions.
func NewEmptyEngine(dim int, cfg Config) (*Engine, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("core: non-positive dimension %d", dim)
	}
	cfg.Partitions = 1
	if cfg.LocalIndex != "" && cfg.LocalIndex != "hnsw" {
		return nil, fmt.Errorf("core: empty engines require the hnsw local index, got %q", cfg.LocalIndex)
	}
	if err := cfg.fill(dim); err != nil {
		return nil, err
	}
	hcfg := cfg.HNSW
	hcfg.Seed = cfg.Seed
	g, err := hnsw.New(dim, hcfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		dim:   dim,
		tree:  vptree.NewPartitionTree(dim, cfg.Metric, &vptree.PNode{Leaf: 0}),
		parts: []index.Local{index.WrapHNSW(g)},
		tags:  newTagStore(),
		lex:   lexical.NewIndex(lexical.Config{}),
	}
	if cfg.Frozen {
		if err := e.Freeze(hnsw.FreezeOptions{SQ8: cfg.SQ8, RerankK: cfg.RerankK}); err != nil {
			return nil, err
		}
	}
	return e, nil
}
