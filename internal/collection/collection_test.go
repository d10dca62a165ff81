package collection

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/fsx"
	"repro/internal/store"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(context.Background()) })
	return r
}

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"a", "docs", "my-coll_2.v1", "A0"} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", ok, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".hidden", "-x", "a/b", "a b", "ü", string(long)} {
		if err := ValidateName(bad); !errors.Is(err, ErrBadName) {
			t.Errorf("ValidateName(%q) = %v, want ErrBadName", bad, err)
		}
	}
}

func TestLifecycle(t *testing.T) {
	root := t.TempDir()
	r, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Create("docs", Config{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("docs", Config{Dim: 8}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create = %v, want ErrExists", err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown get = %v, want ErrUnknown", err)
	}
	if _, err := r.Create("bad name", Config{Dim: 8}); !errors.Is(err, ErrBadName) {
		t.Fatalf("bad name create = %v, want ErrBadName", err)
	}
	if _, err := r.Create("nodim", Config{}); err == nil {
		t.Fatal("created a collection without a dim")
	}

	rng := rand.New(rand.NewSource(1))
	for id := int64(0); id < 100; id++ {
		tags := map[string]string{"lang": []string{"en", "de"}[id%2]}
		if err := c.Upsert(randVec(rng, 8), id, store.Attrs{Tags: tags}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Upsert(randVec(rng, 4), 999, store.Attrs{}); err == nil {
		t.Fatal("upsert with wrong dim succeeded")
	}
	rs, err := c.SearchFiltered(randVec(rng, 8), 5, filter.MustParse("lang=en"))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rs {
		if res.ID%2 != 0 {
			t.Fatalf("lang=en returned odd id %d", res.ID)
		}
	}

	// Reopen: config, vectors and tags must all come back, also from a
	// collection.json that still names the partition count collections
	// once carried.
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(root, "docs", configName)
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte("{"), []byte("{\n  \"partitions\": 8,"), 1)
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(context.Background())
	c2, err := r2.Get("docs")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c2.Config(), c.Config()) {
		t.Fatalf("reopened config = %+v, want %+v", c2.Config(), c.Config())
	}
	if got := c2.Engine().Len(); got != 100 {
		t.Fatalf("reopened Len = %d, want 100", got)
	}
	if tags := c2.Engine().Tags(3); tags["lang"] != "de" {
		t.Fatalf("reopened tags(3) = %v", tags)
	}

	// Drop: gone from the registry and from disk.
	if err := r2.Drop(context.Background(), "docs"); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Get("docs"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("dropped get = %v, want ErrUnknown", err)
	}
	r3, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close(context.Background())
	if n := r3.Names(); len(n) != 0 {
		t.Fatalf("dropped collection resurfaced on reopen: %v", n)
	}
}

func TestQuota(t *testing.T) {
	r := testRegistry(t)
	c, err := r.Create("small", Config{Dim: 4, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the quota by holding admissions open manually.
	if err := c.acquire(); err != nil {
		t.Fatal(err)
	}
	if err := c.acquire(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(make([]float32, 4), 3); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota search = %v, want ErrQuota", err)
	}
	c.release()
	if _, err := c.Search(make([]float32, 4), 3); err != nil {
		t.Fatalf("search after release = %v", err)
	}
	c.release()
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after all released", got)
	}
}

func TestDrain(t *testing.T) {
	r := testRegistry(t)
	c, err := r.Create("d", Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A held admission stalls the drain until released.
	if err := c.acquire(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Drain(ctx); err == nil {
		t.Fatal("drain returned with a request in flight")
	}
	c.release()
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(make([]float32, 4), 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain search = %v, want ErrDraining", err)
	}
}

// TestTwoCollectionsConcurrentIsolation is the acceptance property: two
// collections with different dims and metrics serve concurrent mutating
// traffic with zero cross-collection leakage. Run under -race.
func TestTwoCollectionsConcurrentIsolation(t *testing.T) {
	r := testRegistry(t)
	ca, err := r.Create("alpha", Config{Dim: 8, Metric: "l2"})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := r.Create("beta", Config{Dim: 12, Metric: "cosine"})
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint ID ranges: any crossover in results is leakage.
	const aBase, bBase = 1000, 2_000_000

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	writer := func(c *Collection, base int64, dim int, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := int64(0); !stop.Load(); i++ {
			id := base + i
			tags := map[string]string{"col": c.Name(), "par": fmt.Sprintf("%d", i%2)}
			if err := c.Upsert(randVec(rng, dim), id, store.Attrs{Tags: tags}); err != nil {
				fail(fmt.Errorf("%s upsert: %w", c.Name(), err))
				return
			}
			if i%7 == 0 {
				if err := c.Delete(base + rng.Int63n(i+1)); err != nil {
					fail(fmt.Errorf("%s delete: %w", c.Name(), err))
					return
				}
			}
		}
	}
	reader := func(c *Collection, lo, hi int64, dim int, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		f := filter.MustParse("par=0")
		for !stop.Load() {
			q := randVec(rng, dim)
			rs, err := c.Search(q, 5)
			if err != nil {
				fail(fmt.Errorf("%s search: %w", c.Name(), err))
				return
			}
			frs, err := c.SearchFiltered(q, 5, f)
			if err != nil {
				fail(fmt.Errorf("%s filtered search: %w", c.Name(), err))
				return
			}
			for _, res := range append(rs, frs...) {
				if res.ID < lo || res.ID >= hi {
					fail(fmt.Errorf("%s returned foreign id %d (want [%d,%d))", c.Name(), res.ID, lo, hi))
					return
				}
			}
			for _, res := range frs {
				if tags := c.Engine().Tags(res.ID); tags["col"] != c.Name() {
					fail(fmt.Errorf("%s: id %d carries tags %v from another collection", c.Name(), res.ID, tags))
					return
				}
			}
		}
	}

	wg.Add(6)
	go writer(ca, aBase, 8, 1)
	go writer(cb, bBase, 12, 2)
	go reader(ca, aBase, bBase, 8, 3)
	go reader(ca, aBase, bBase, 8, 4)
	go reader(cb, bBase, bBase*10, 12, 5)
	go reader(cb, bBase, bBase*10, 12, 6)

	deadline := time.After(400 * time.Millisecond)
loop:
	for {
		select {
		case err := <-errs:
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		case <-deadline:
			break loop
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if ca.Engine().Len() == 0 || cb.Engine().Len() == 0 {
		t.Fatal("writers inserted nothing; test proved nothing")
	}
}

func TestFrozenCollection(t *testing.T) {
	r := testRegistry(t)
	c, err := r.Create("fr", Config{Dim: 8, Frozen: true, SQ8: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for id := int64(0); id < 300; id++ {
		if err := c.Upsert(randVec(rng, 8), id, store.Attrs{Tags: map[string]string{"m": fmt.Sprintf("%d", id%3)}}); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := c.SearchFiltered(randVec(rng, 8), 5, filter.MustParse("m=1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results from frozen collection")
	}
	for _, res := range rs {
		if res.ID%3 != 1 {
			t.Fatalf("m=1 returned id %d", res.ID)
		}
	}
}

// TestCreateConfigPublishFailure: collection.json is published last,
// through the registry's FS with fsx.WriteAtomic — so it is fsynced
// before the rename. A publish that dies at either step fails Create,
// the next Open finds no collection there, and the name can be created
// again.
func TestCreateConfigPublishFailure(t *testing.T) {
	for _, op := range []fsx.Op{fsx.OpSync, fsx.OpRename} {
		root := t.TempDir()
		fs := fsx.NewFaulty(fsx.OS{}, 1, fsx.Rule{Op: op, Nth: 1, Path: configName})
		opts := Options{Store: store.Options{FS: fs, CompactRatio: -1}}
		r, err := Open(root, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Create("c", Config{Dim: 4}); !errors.Is(err, fsx.ErrInjected) {
			t.Fatalf("Create with collection.json's %v failing = %v, want the injected fault", op, err)
		}
		if _, err := r.Get("c"); !errors.Is(err, ErrUnknown) {
			t.Fatalf("half-created collection is registered: %v", err)
		}
		if err := r.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		r2, err := Open(root, opts)
		if err != nil {
			t.Fatal(err)
		}
		if names := r2.Names(); len(names) != 0 {
			t.Fatalf("reopen found %v after a failed create", names)
		}
		if _, err := r2.Create("c", Config{Dim: 4}); err != nil {
			t.Fatalf("re-create after a failed create: %v", err)
		}
		r2.Close(context.Background())
	}
}
