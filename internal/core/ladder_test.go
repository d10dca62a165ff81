package core

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/topk"
	"repro/internal/vec"
)

// The selectivity ladder: one corpus tagged so that filter "<key>=1"
// admits a known fraction of it, searched in every serving mode under
// every routing mode. TestFilteredLadderOracle (planner_test.go) holds
// the engine against it; this file is the part that also compiles on
// the commit before the planner, where the beam's golden was captured:
//
//	go test ./internal/core -run TestCaptureLadderGolden -capture-ladder-golden
//
// writes testdata/ladder_beam_golden.json from whatever code is checked
// out. The committed file was written by the parent of the planner
// commit, so every cell in it is a beam answer.

var captureLadderGolden = flag.Bool("capture-ladder-golden", false, "rewrite testdata/ladder_beam_golden.json from this checkout")

const (
	ladderN      = 8000
	ladderDim    = 16
	ladderParts  = 8
	ladderK      = 10
	ladderGolden = "testdata/ladder_beam_golden.json"
)

// ladderRungs: key=1 is carried by the IDs divisible by mod.
var ladderRungs = []struct {
	key string
	mod int64
}{
	{"p0.1", 1000}, {"p1", 100}, {"p5", 20}, {"p10", 10}, {"p25", 4}, {"p50", 2}, {"p100", 1},
}

func ladderTags(id int64) map[string]string {
	tags := make(map[string]string, len(ladderRungs))
	for _, r := range ladderRungs {
		if id%r.mod == 0 {
			tags[r.key] = "1"
		}
	}
	return tags
}

var ladderModes = []struct {
	name   string
	mutate func(*Config)
}{
	{"dynamic", func(*Config) {}},
	{"frozen", func(c *Config) { c.Frozen = true; c.RerankK = -1 }},
	{"frozen_sq8", func(c *Config) { c.Frozen = true; c.SQ8 = true }},
}

var ladderRoutings = []struct {
	name  string
	apply func(*Engine)
}{
	{"top2", func(e *Engine) { e.cfg.Routing = RouteTop; e.SetNProbe(2) }},
	{"all", func(e *Engine) { e.cfg.Routing = RouteTop; e.SetNProbe(ladderParts) }},
	{"adaptive", func(e *Engine) { e.cfg.Routing = RouteAdaptive }},
}

func ladderEngine(t testing.TB, ds *vec.Dataset, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig(ladderParts)
	mutate(&cfg)
	e, err := NewEngine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < int64(ds.Len()); id++ {
		e.SetTags(id, ladderTags(id))
	}
	return e
}

func ladderQueries(ds *vec.Dataset, n int) [][]float32 {
	rng := rand.New(rand.NewSource(11))
	qs := make([][]float32, n)
	for i := range qs {
		q := append([]float32(nil), ds.At(rng.Intn(ds.Len()))...)
		for j := range q {
			q[j] += float32(rng.NormFloat64()) * 0.05
		}
		qs[i] = q
	}
	return qs
}

// answerHash folds one query's results and work counters into h.
func answerHash(rs []topk.Result, st index.Stats) string {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(rs)))
	for _, r := range rs {
		put(uint64(r.ID))
		put(uint64(math.Float32bits(r.Dist)))
	}
	put(uint64(st.DistComps))
	put(uint64(st.Hops))
	put(uint64(st.QuantComps))
	put(uint64(st.Reranked))
	return fmt.Sprintf("%016x", h.Sum64())
}

func ladderCell(mode, routing, rung string, q int) string {
	return fmt.Sprintf("%s/%s/%s/q%d", mode, routing, rung, q)
}

func TestCaptureLadderGolden(t *testing.T) {
	if !*captureLadderGolden {
		t.Skip("run with -capture-ladder-golden on the commit whose beam is the reference")
	}
	ds := clustered(t, ladderN, ladderDim, 10, 21)
	qs := ladderQueries(ds, 6)
	golden := map[string]string{}
	for _, mode := range ladderModes {
		e := ladderEngine(t, ds, mode.mutate)
		for _, routing := range ladderRoutings {
			routing.apply(e)
			for _, rung := range ladderRungs {
				f := filter.MustParse(rung.key + "=1")
				for qi, q := range qs {
					rs, st, err := e.SearchFilteredStats(q, ladderK, f)
					if err != nil {
						t.Fatal(err)
					}
					golden[ladderCell(mode.name, routing.name, rung.key, qi)] = answerHash(rs, st)
				}
			}
		}
	}
	b, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ladderGolden, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
