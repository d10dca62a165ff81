package hnsw

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topk"
	"repro/internal/vec"
)

func clusteredData(rng *rand.Rand, n, dim, clusters int) *vec.Dataset {
	centers := make([][]float32, clusters)
	for c := range centers {
		centers[c] = make([]float32, dim)
		for j := range centers[c] {
			centers[c][j] = float32(rng.NormFloat64() * 10)
		}
	}
	ds := vec.NewDataset(dim, n)
	v := make([]float32, dim)
	for i := 0; i < n; i++ {
		c := centers[i%clusters]
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64())
		}
		ds.Append(v, int64(i))
	}
	return ds
}

func bruteKNN(ds *vec.Dataset, q []float32, k int) []topk.Result {
	c := topk.New(k)
	for i := 0; i < ds.Len(); i++ {
		c.Push(ds.ID(i), vec.L2Distance(q, ds.At(i)))
	}
	return c.Results()
}

func recallOf(got, want []topk.Result) float64 {
	truth := make(map[int64]bool, len(want))
	for _, r := range want {
		truth[r.ID] = true
	}
	hit := 0
	for _, r := range got {
		if truth[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func TestEmptyAndErrors(t *testing.T) {
	g, err := New(4, DefaultConfig(vec.L2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Search(make([]float32, 4), 3); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	if _, err := g.Add(make([]float32, 3), 0); err == nil {
		t.Error("want dim error on Add")
	}
	if _, err := g.Add(make([]float32, 4), 0); err != nil {
		t.Error(err)
	}
	if _, _, err := g.Search(make([]float32, 3), 1); err == nil {
		t.Error("want dim error on Search")
	}
	if _, err := New(4, Config{M: 1}); err == nil {
		t.Error("want config error for M=1")
	}
}

func TestSingleAndFewPoints(t *testing.T) {
	g, _ := New(2, DefaultConfig(vec.L2))
	g.Add([]float32{0, 0}, 42)
	rs, _, err := g.Search([]float32{1, 1}, 5)
	if err != nil || len(rs) != 1 || rs[0].ID != 42 {
		t.Fatalf("rs=%v err=%v", rs, err)
	}
	g.Add([]float32{10, 10}, 43)
	rs, _, _ = g.Search([]float32{9, 9}, 1)
	if rs[0].ID != 43 {
		t.Errorf("nearest = %+v, want 43", rs[0])
	}
}

func TestExactOnSmallSet(t *testing.T) {
	// With ef >= n the beam search degenerates to exhaustive search and
	// must return the exact answer.
	rng := rand.New(rand.NewSource(7))
	ds := clusteredData(rng, 200, 16, 4)
	g, _, err := Build(ds, DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := ds.At(rng.Intn(ds.Len()))
		got, _, _ := g.SearchEf(q, 5, 400)
		want := bruteKNN(ds, q, 5)
		if r := recallOf(got, want); r < 0.999 {
			t.Fatalf("trial %d recall %v\n got %v\nwant %v", trial, r, got, want)
		}
	}
}

func TestRecallFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := clusteredData(rng, 3000, 32, 8)
	g, _, err := Build(ds, DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	trials := 50
	for i := 0; i < trials; i++ {
		q := make([]float32, 32)
		base := ds.At(rng.Intn(ds.Len()))
		for j := range q {
			q[j] = base[j] + float32(rng.NormFloat64()*0.1)
		}
		got, _, _ := g.SearchEf(q, 10, 128)
		sum += recallOf(got, bruteKNN(ds, q, 10))
	}
	if avg := sum / float64(trials); avg < 0.9 {
		t.Errorf("average recall %v < 0.9", avg)
	}
}

func TestDistancesAreTrueL2(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := clusteredData(rng, 100, 8, 2)
	g, _, _ := Build(ds, DefaultConfig(vec.L2), 1)
	q := ds.At(0)
	got, _, _ := g.SearchEf(q, 3, 100)
	for _, r := range got {
		// find the row and check the reported distance
		for i := 0; i < ds.Len(); i++ {
			if ds.ID(i) == r.ID {
				want := vec.L2Distance(q, ds.At(i))
				if diff := want - r.Dist; diff > 1e-4 || diff < -1e-4 {
					t.Errorf("dist %v want %v", r.Dist, want)
				}
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ds := clusteredData(rng, 500, 16, 4)
	g, bst, _ := Build(ds, DefaultConfig(vec.L2), 1)
	if bst.DistComps == 0 {
		t.Error("build stats should record distance computations")
	}
	_, st, _ := g.Search(ds.At(0), 5)
	if st.DistComps == 0 || st.Hops == 0 {
		t.Errorf("search stats empty: %+v", st)
	}
	if got := (Stats{1, 2, 5, 7}).Add(Stats{3, 4, 6, 8}); got != (Stats{4, 6, 11, 15}) {
		t.Errorf("Stats.Add = %+v", got)
	}
}

func TestConcurrentBuildMatchesQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := clusteredData(rng, 2000, 24, 6)
	g, _, err := Build(ds, DefaultConfig(vec.L2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != ds.Len() {
		t.Fatalf("Len = %d want %d", g.Len(), ds.Len())
	}
	sum := 0.0
	for i := 0; i < 30; i++ {
		q := ds.At(rng.Intn(ds.Len()))
		got, _, _ := g.SearchEf(q, 10, 128)
		sum += recallOf(got, bruteKNN(ds, q, 10))
	}
	if avg := sum / 30; avg < 0.85 {
		t.Errorf("concurrent-build recall %v < 0.85", avg)
	}
}

func TestConcurrentSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ds := clusteredData(rng, 1000, 16, 4)
	g, _, _ := Build(ds, DefaultConfig(vec.L2), 2)
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				q := ds.At(r.Intn(ds.Len()))
				if _, _, err := g.Search(q, 5); err != nil {
					t.Error(err)
				}
			}
			done <- true
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestSearchDuringInsertSeesLinkedNodes: a search that runs while a node
// is being inserted near its query must still return the query's
// nearest neighbors. The insert links the node layer by layer from the
// top; were it reachable on an upper layer before its layer-0 links
// exist, a descent landing on it would beam from a dead end and return
// the new node alone.
func TestSearchDuringInsertSeesLinkedNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ds := clusteredData(rng, 1500, 12, 4)
	g, _, err := Build(ds, DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.At(3)
	pinned := bruteKNN(ds, q, 3)
	stop := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < 3; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, _, err := g.Search(q, 8)
				if err != nil {
					t.Error(err)
					return
				}
				if recallOf(rs, pinned) != 1 {
					t.Errorf("search during an insert returned %v, without %v", rs, pinned)
					return
				}
			}
		}()
	}
	// Upper-layer nodes right at the query are where descents land.
	v := make([]float32, ds.Dim)
	for i := 0; i < 300 && !t.Failed(); i++ {
		for j := range v {
			v[j] = q[j] + 2 + float32(rng.NormFloat64())*0.1
		}
		if _, err := g.AddAtLevel(v, int64(10000+i), 1+i%2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for w := 0; w < 3; w++ {
		<-done
	}
}

func TestDegreeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := clusteredData(rng, 1500, 16, 3)
	cfg := DefaultConfig(vec.L2)
	cfg.M = 8
	g, _, _ := Build(ds, cfg, 1)
	for i, n := range g.nodes {
		for l, ls := range n.links {
			bound := g.cfg.Mmax
			if l == 0 {
				bound = g.cfg.Mmax0
			}
			if len(ls) > bound {
				t.Fatalf("node %d layer %d degree %d > bound %d", i, l, len(ls), bound)
			}
			for _, to := range ls {
				if int(to) >= g.Len() {
					t.Fatalf("node %d layer %d dangling link %d", i, l, to)
				}
			}
		}
	}
}

// Property: every search result ID is a real dataset ID and results are
// sorted ascending by distance.
func TestSearchInvariantsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ds := clusteredData(rng, 400, 8, 4)
	g, _, _ := Build(ds, DefaultConfig(vec.L2), 1)
	valid := make(map[int64]bool)
	for i := 0; i < ds.Len(); i++ {
		valid[ds.ID(i)] = true
	}
	err := quick.Check(func(qx [8]float32, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		rs, _, err := g.Search(qx[:], k)
		if err != nil || len(rs) > k {
			return false
		}
		for i, r := range rs {
			if !valid[r.ID] {
				return false
			}
			if i > 0 && r.Dist < rs[i-1].Dist {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ds := clusteredData(rng, 600, 16, 4)
	g, _, _ := Build(ds, DefaultConfig(vec.L2), 1)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() || g2.MaxLevel() != g.MaxLevel() {
		t.Fatalf("shape: %d/%d vs %d/%d", g2.Len(), g2.MaxLevel(), g.Len(), g.MaxLevel())
	}
	// identical graphs must answer identically
	for i := 0; i < 20; i++ {
		q := ds.At(rng.Intn(ds.Len()))
		a, _, _ := g.SearchEf(q, 5, 64)
		b, _, _ := g2.SearchEf(q, 5, 64)
		if len(a) != len(b) {
			t.Fatalf("result count differs")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("result %d differs: %+v vs %+v", j, a[j], b[j])
			}
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("want error for bad magic")
	}
	if _, err := ReadFrom(bytes.NewReader([]byte("HNSW\xff\xff\xff\xff"))); err == nil {
		t.Error("want error for bad version")
	}
}

func TestStructureStats(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ds := clusteredData(rng, 800, 16, 4)
	g, _, _ := Build(ds, DefaultConfig(vec.L2), 1)
	s := g.Structure()
	if s.Nodes != 800 || s.Edges == 0 || s.AvgDegree <= 0 {
		t.Errorf("structure: %+v", s)
	}
}

func TestHeuristicVsSimpleSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := clusteredData(rng, 1200, 24, 6)
	for _, heuristic := range []bool{true, false} {
		cfg := DefaultConfig(vec.L2)
		cfg.Heuristic = heuristic
		g, _, err := Build(ds, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := 0; i < 20; i++ {
			q := ds.At(rng.Intn(ds.Len()))
			got, _, _ := g.SearchEf(q, 10, 100)
			sum += recallOf(got, bruteKNN(ds, q, 10))
		}
		if avg := sum / 20; avg < 0.8 {
			t.Errorf("heuristic=%v recall %v < 0.8", heuristic, avg)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	g, _ := New(2, DefaultConfig(vec.L2))
	for i := 0; i < 50; i++ {
		if _, err := g.Add([]float32{1, 1}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rs, _, err := g.SearchEf([]float32{1, 1}, 10, 64)
	if err != nil || len(rs) != 10 {
		t.Fatalf("rs=%d err=%v", len(rs), err)
	}
	for _, r := range rs {
		if r.Dist != 0 {
			t.Errorf("duplicate point distance %v != 0", r.Dist)
		}
	}
}

func TestSetEfSearch(t *testing.T) {
	g, _ := New(2, DefaultConfig(vec.L2))
	g.SetEfSearch(99)
	if g.Config().EfSearch != 99 {
		t.Error("SetEfSearch ignored")
	}
	g.SetEfSearch(-1)
	if g.Config().EfSearch != 99 {
		t.Error("negative ef should be ignored")
	}
}

func TestAddAllDimMismatch(t *testing.T) {
	g, _ := New(4, DefaultConfig(vec.L2))
	bad := vec.NewDataset(3, 1)
	bad.Append([]float32{1, 2, 3}, 0)
	if _, err := g.AddAll(bad, 1); err == nil {
		t.Error("want dim error")
	}
}

func BenchmarkBuild1kDim32(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	ds := clusteredData(rng, 1000, 32, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(ds, DefaultConfig(vec.L2), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchDim128(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	ds := clusteredData(rng, 10000, 128, 8)
	g, _, _ := Build(ds, DefaultConfig(vec.L2), 4)
	q := ds.At(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Search(q, 10)
	}
}

// NSW mode (Flat=true) must stay a correct approximate index while
// spending more hops at scale — the motivation for the hierarchy.
func TestFlatNSWRecallAndHopGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	build := func(n int, flat bool) *Graph {
		ds := clusteredData(rng, n, 24, 6)
		cfg := DefaultConfig(vec.L2)
		cfg.Flat = flat
		g, _, err := Build(ds, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := build(2000, true)
	if g.MaxLevel() != 0 {
		t.Fatalf("flat graph has %d levels", g.MaxLevel())
	}
	sum := 0.0
	ds := g.Data()
	for i := 0; i < 30; i++ {
		q := ds.At(rng.Intn(ds.Len()))
		got, _, _ := g.SearchEf(q, 10, 128)
		sum += recallOf(got, bruteKNN(ds, q, 10))
	}
	if avg := sum / 30; avg < 0.85 {
		t.Errorf("flat NSW recall %v", avg)
	}
}

func TestHierarchyReducesDescentWork(t *testing.T) {
	// On the same data, HNSW's upper-layer descent should not cost more
	// total hops than flat NSW's long greedy walk from a random-ish
	// entry point; measure layer-0-equivalent hops on a far query.
	rng := rand.New(rand.NewSource(31))
	ds := clusteredData(rng, 6000, 16, 1)
	flatCfg := DefaultConfig(vec.L2)
	flatCfg.Flat = true
	gFlat, _, _ := Build(ds, flatCfg, 1)
	gHier, _, _ := Build(ds, DefaultConfig(vec.L2), 1)
	var flatHops, hierHops int64
	for i := 0; i < 40; i++ {
		q := ds.At(rng.Intn(ds.Len()))
		_, sf, _ := gFlat.SearchEf(q, 10, 32)
		_, sh, _ := gHier.SearchEf(q, 10, 32)
		flatHops += sf.Hops
		hierHops += sh.Hops
	}
	// the hierarchy should not be substantially worse; typically better
	if hierHops > flatHops*2 {
		t.Errorf("hierarchy hops %d >> flat hops %d", hierHops, flatHops)
	}
}
