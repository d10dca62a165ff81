package index

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/hnsw"
	"repro/internal/vec"
)

func randDS(rng *rand.Rand, n, dim int) *vec.Dataset {
	ds := vec.NewDataset(dim, n)
	v := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64() * 2)
		}
		ds.Append(v, int64(i))
	}
	return ds
}

func TestBuilderForNames(t *testing.T) {
	for _, name := range Names() {
		if _, err := BuilderFor(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := BuilderFor(""); err != nil {
		t.Error("empty name should default to hnsw")
	}
	if _, err := BuilderFor("nope"); err == nil {
		t.Error("want error for unknown kind")
	}
}

func TestExactLocalsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := randDS(rng, 800, 10)
	for _, kind := range []string{"vp", "kd", "flat"} {
		b, _ := BuilderFor(kind)
		l, err := b(ds, vec.L2, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if l.Kind() != kind || l.Len() != ds.Len() {
			t.Fatalf("%s: kind/len wrong", kind)
		}
		for trial := 0; trial < 15; trial++ {
			q := randDS(rng, 1, 10).At(0)
			got, st, err := l.SearchFiltered(q, 5, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.DistComps == 0 {
				t.Fatalf("%s: no stats", kind)
			}
			want := bruteforce.Search(ds, q, 5, vec.L2)
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("%s trial %d rank %d: %+v vs %+v", kind, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestHNSWLocalApproximates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := randDS(rng, 1500, 12)
	b := NewHNSWBuilder(hnsw.Config{})
	l, err := b(ds, vec.L2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Kind() != "hnsw" {
		t.Fatalf("kind %q", l.Kind())
	}
	g, ok := HNSWGraph(l)
	if !ok || g.Len() != ds.Len() {
		t.Fatal("unwrap failed")
	}
	hits := 0
	for trial := 0; trial < 20; trial++ {
		q := ds.At(rng.Intn(ds.Len()))
		got, _, err := l.SearchFiltered(q, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteforce.Search(ds, q, 1, vec.L2)
		if len(got) > 0 && got[0].ID == want[0].ID {
			hits++
		}
	}
	if hits < 17 {
		t.Errorf("self-query top-1 hits %d/20", hits)
	}
}

func TestWrapHNSW(t *testing.T) {
	g, err := hnsw.New(4, hnsw.DefaultConfig(vec.L2))
	if err != nil {
		t.Fatal(err)
	}
	g.Add([]float32{1, 2, 3, 4}, 7)
	l := WrapHNSW(g)
	rs, _, err := l.SearchFiltered([]float32{1, 2, 3, 4}, 1, nil, nil)
	if err != nil || len(rs) != 1 || rs[0].ID != 7 {
		t.Fatalf("%v %v", rs, err)
	}
	if _, ok := HNSWGraph(l); !ok {
		t.Error("HNSWGraph should unwrap")
	}
}

func TestEmptyPartitions(t *testing.T) {
	empty := vec.NewDataset(4, 0)
	for _, kind := range []string{"vp", "kd", "flat"} {
		b, _ := BuilderFor(kind)
		l, err := b(empty, vec.L2, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		rs, _, err := l.SearchFiltered(make([]float32, 4), 3, nil, nil)
		if err != nil || len(rs) != 0 {
			t.Errorf("%s: empty search gave %v %v", kind, rs, err)
		}
		if l.Len() != 0 {
			t.Errorf("%s: Len %d", kind, l.Len())
		}
	}
}

func TestHNSWEmptySearchIsNotError(t *testing.T) {
	b := NewHNSWBuilder(hnsw.Config{})
	l, err := b(vec.NewDataset(4, 0), vec.L2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := l.SearchFiltered(make([]float32, 4), 3, nil, nil)
	if err != nil || len(rs) != 0 {
		t.Errorf("empty hnsw search: %v %v", rs, err)
	}
}

func TestKDRejectsNonL2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randDS(rng, 50, 4)
	b, _ := BuilderFor("kd")
	if _, err := b(ds, vec.L1, 1); err == nil {
		t.Error("kd should reject L1")
	}
}

func TestFlatNonL2Metric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := randDS(rng, 200, 6)
	b, _ := BuilderFor("flat")
	l, err := b(ds, vec.L1, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := randDS(rng, 1, 6).At(0)
	got, _, _ := l.SearchFiltered(q, 3, nil, nil)
	want := bruteforce.Search(ds, q, 3, vec.L1)
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("L1 flat rank %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
