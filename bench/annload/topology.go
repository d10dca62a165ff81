package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/hnsw"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	partitions = 8
	filter01   = "t1=1"
)

// workload is one topology plus one traffic mix.
type workload struct {
	name string
	// conns is the closed-loop client count (never above nproc).
	conns int
	// frozen serves from Freeze{SQ8:true}; tagged and lexical load tags
	// and texts; durable puts the engine behind store.Create.
	frozen, tagged, lexical, durable bool
	// cacheSize is ServerConfig.CacheSize: 0 off, -1 the default 4096.
	cacheSize int
	// path is the search route; batch is the queries per search POST.
	path  string
	batch int
	// recallFloor fails the run when verification recall falls below it.
	// Floors sit well under the measured values (see bench/README.md):
	// they catch a broken path, the bound on recall_at_10 catches drift.
	recallFloor float64
}

var workloads = []workload{
	{
		name: "batch_search", conns: 1, frozen: true, path: "/v1/search", batch: 64, recallFloor: 0.60,
	},
	{
		name: "filtered", conns: 2, tagged: true, path: "/v1/search", batch: 1, recallFloor: 0.25,
	},
	{
		name: "hybrid", conns: 2, lexical: true, path: "/v1/hybrid", batch: 1, recallFloor: 0.60,
	},
	{
		name: "mixed_rw", conns: 2, durable: true, cacheSize: -1, path: "/v1/search", batch: 1, recallFloor: 0.70,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupTimes splits one set-up for the traced run's layer metrics.
type setupTimes struct {
	total, texts time.Duration
	textHeapMB   float64 // heap growth across the text load (traced runs)
}

// topology is a built workload: engine, optional store, and the real
// serve.Server listening on loopback.
type topology struct {
	w       workload
	eng     *core.Engine
	dur     *store.Durable
	dir     string
	backend *serve.EngineBackend
	cfg     serve.ServerConfig
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	addr    string
	times   setupTimes
}

// setup builds the workload's topology; its wall time is setup_s. With
// probeAll (traced runs) every engine also gets tags and texts so the
// layer probes can exercise every read path on it.
func setup(w workload, c *corpus, outDir string, probeAll bool) (*topology, error) {
	t0 := time.Now()
	t := &topology{w: w}
	cfg := core.DefaultConfig(partitions)
	cfg.Seed = corpusSeed
	eng, err := core.NewEngine(c.ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	t.eng = eng

	if w.tagged || probeAll {
		for i := 0; i < c.ds.Len(); i++ {
			id := c.ds.ID(i)
			eng.SetTags(id, tagsFor(id))
		}
	}
	if w.lexical || probeAll {
		var heap0 uint64
		if probeAll {
			heap0 = heapAlloc()
		}
		t1 := time.Now()
		for i, text := range c.texts {
			eng.SetText(c.ds.ID(i), text, c.ds.At(i))
		}
		t.times.texts = time.Since(t1)
		if probeAll {
			t.times.textHeapMB = (float64(heapAlloc()) - float64(heap0)) / (1 << 20)
		}
	}
	if w.frozen {
		if err := eng.Freeze(hnsw.FreezeOptions{SQ8: true}); err != nil {
			return nil, fmt.Errorf("freeze: %w", err)
		}
	}
	if w.durable {
		dir, err := os.MkdirTemp(outDir, "store-")
		if err != nil {
			return nil, err
		}
		t.dir = dir
		d, err := store.Create(filepath.Join(dir, "data"), eng, store.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("store: %w", err)
		}
		t.dur = d
	}

	t.backend = &serve.EngineBackend{Engine: eng, Store: t.dur, Lexical: w.lexical}
	t.cfg = serve.ServerConfig{CacheSize: w.cacheSize}
	t.srv = serve.NewServer(t.backend, t.cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.addr = ln.Addr().String()
	t.hs = &http.Server{Handler: t.srv.Handler()}
	t.served = make(chan error, 1)
	go func() { t.served <- t.hs.Serve(ln) }()
	t.times.total = time.Since(t0)
	return t, nil
}

// stopServing shuts the listener and drains the batchers; the store, if
// any, stays open for the reopen check.
func (t *topology) stopServing() error {
	if t.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if t.hs != nil {
		err = t.hs.Shutdown(ctx)
		<-t.served
	}
	if derr := t.srv.Drain(ctx); err == nil {
		err = derr
	}
	t.srv = nil
	return err
}

// close releases everything and removes the temp store.
func (t *topology) close() error {
	err := t.stopServing()
	if t.dur != nil {
		if cerr := t.dur.Close(); err == nil {
			err = cerr
		}
		t.dur = nil
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
		t.dir = ""
	}
	return err
}
