package vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randDataset(rng *rand.Rand, n, dim int, lo, hi float32) *Dataset {
	ds := NewDataset(dim, n)
	v := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = lo + rng.Float32()*(hi-lo)
		}
		ds.Append(v, int64(i))
	}
	return ds
}

// TestSQ8RoundTripBound pins the codec's headline contract: for any
// in-range input, decode(encode(v)) is within Scale_j/2 per dimension.
func TestSQ8RoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := randDataset(rng, 500, 24, -3, 7)
	s, err := TrainSQ8(ds)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 24 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	code := make([]uint8, ds.Dim)
	dec := make([]float32, ds.Dim)
	for i := 0; i < ds.Len(); i++ {
		v := ds.At(i)
		if err := s.Encode(v, code); err != nil {
			t.Fatal(err)
		}
		s.Decode(code, dec)
		for j := range v {
			bound := s.Scale[j]/2 + 1e-4
			if d := float32(math.Abs(float64(dec[j] - v[j]))); d > bound {
				t.Fatalf("row %d dim %d: reconstruction error %v > Scale/2 = %v", i, j, d, bound)
			}
		}
	}
}

// TestSQ8DegenerateDimension: a constant dimension gets Scale 0 and
// every code 0, and decoding returns the constant exactly.
func TestSQ8DegenerateDimension(t *testing.T) {
	ds := NewDataset(2, 4)
	for i := 0; i < 4; i++ {
		ds.Append([]float32{42, float32(i)}, int64(i))
	}
	s, err := TrainSQ8(ds)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale[0] != 0 {
		t.Fatalf("constant dim scale = %v", s.Scale[0])
	}
	code := make([]uint8, 2)
	dec := make([]float32, 2)
	if err := s.Encode([]float32{42, 2}, code); err != nil {
		t.Fatal(err)
	}
	if code[0] != 0 {
		t.Fatalf("constant dim code = %d", code[0])
	}
	if s.Decode(code, dec); dec[0] != 42 {
		t.Fatalf("constant dim decodes to %v", dec[0])
	}
}

// TestSQ8RejectsNonFinite: NaN/Inf anywhere must fail training and
// encoding — one poisoned row must not silently zero the codec's
// resolution.
func TestSQ8RejectsNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, bad := range []float32{nan, inf, -inf} {
		ds := NewDataset(2, 2)
		ds.Append([]float32{1, 2}, 0)
		ds.Append([]float32{bad, 3}, 1)
		if _, err := TrainSQ8(ds); err == nil {
			t.Errorf("TrainSQ8 accepted %v", bad)
		}
	}
	ds := NewDataset(2, 2)
	ds.Append([]float32{0, 0}, 0)
	ds.Append([]float32{1, 1}, 1)
	s, err := TrainSQ8(ds)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]uint8, 2)
	for _, bad := range []float32{nan, inf, -inf} {
		if err := s.Encode([]float32{bad, 0}, code); err == nil {
			t.Errorf("Encode accepted %v", bad)
		}
	}
	if _, err := TrainSQ8(NewDataset(3, 0)); err == nil {
		t.Error("TrainSQ8 accepted an empty dataset")
	}
}

// TestSQ8OutOfRangeClamps: values beyond the trained range clamp to the
// edge codes rather than wrapping.
func TestSQ8OutOfRangeClamps(t *testing.T) {
	ds := NewDataset(1, 2)
	ds.Append([]float32{0}, 0)
	ds.Append([]float32{10}, 1)
	s, err := TrainSQ8(ds)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]uint8, 1)
	if s.Encode([]float32{-100}, code); code[0] != 0 {
		t.Errorf("below-range code = %d, want 0", code[0])
	}
	if s.Encode([]float32{100}, code); code[0] != 255 {
		t.Errorf("above-range code = %d, want 255", code[0])
	}
}

// TestSQ8EncodeAllLayout: the slab is row-major and matches per-row
// encoding.
func TestSQ8EncodeAllLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := randDataset(rng, 50, 7, 0, 1)
	s, err := TrainSQ8(ds)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := s.EncodeAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(slab) != ds.Len()*ds.Dim {
		t.Fatalf("slab len %d", len(slab))
	}
	row := make([]uint8, ds.Dim)
	for i := 0; i < ds.Len(); i++ {
		if err := s.Encode(ds.At(i), row); err != nil {
			t.Fatal(err)
		}
		for j, c := range row {
			if slab[i*ds.Dim+j] != c {
				t.Fatalf("row %d dim %d: slab %d != encode %d", i, j, slab[i*ds.Dim+j], c)
			}
		}
	}
}

// TestSquaredL2BytesExact: the kernel is exactly the naive sum for all
// lengths around the unroll width.
func TestSquaredL2BytesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 64, 129} {
		a := make([]uint8, n)
		b := make([]uint8, n)
		for i := range a {
			a[i] = uint8(rng.Intn(256))
			b[i] = uint8(rng.Intn(256))
		}
		want := naiveL2Bytes(a, b)
		if got := SquaredL2Bytes(a, b); got != want {
			t.Errorf("n=%d: SquaredL2Bytes = %d, want %d", n, got, want)
		}
	}
}

// l2BytesPairs returns the operand pairs of length n the vector kernel is
// checked on: random bytes, and the two extreme pairs whose every
// difference is ±255 (the largest squares, the lane sums' worst case).
func l2BytesPairs(rng *rand.Rand, n int) [][2][]uint8 {
	rnd := [2][]uint8{make([]uint8, n), make([]uint8, n)}
	rng.Read(rnd[0])
	rng.Read(rnd[1])
	zeros, ones := make([]uint8, n), make([]uint8, n)
	for i := range ones {
		ones[i] = 255
	}
	return [][2][]uint8{rnd, {ones, zeros}, {zeros, ones}}
}

func naiveL2Bytes(a, b []uint8) uint32 {
	var s uint32
	for i := range a {
		d := int32(a[i]) - int32(b[i])
		s += uint32(d * d)
	}
	return s
}

// TestSquaredL2BytesMatchesGeneric: for every length up to 600 — whole
// 32- and 16-byte blocks and every scalar tail after them — and for one
// length past dim 66049, where the sums wrap mod 2³², the generic kernel
// equals the naive sum and the kernel SquaredL2Bytes dispatches to
// equals the generic one. Without AVX2 the dispatched kernel is the
// generic one, and the test skips that half, saying so.
func TestSquaredL2BytesMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pairs [][2][]uint8
	for n := 0; n <= 600; n++ {
		pairs = append(pairs, l2BytesPairs(rng, n)...)
	}
	pairs = append(pairs, l2BytesPairs(rng, 70000)...)
	for _, p := range pairs {
		if got, want := squaredL2BytesGeneric(p[0], p[1]), naiveL2Bytes(p[0], p[1]); got != want {
			t.Fatalf("n=%d: squaredL2BytesGeneric = %d, naive %d", len(p[0]), got, want)
		}
	}
	if !hasAVX2 {
		t.Skip("no AVX2 on this CPU or architecture: SquaredL2Bytes runs squaredL2BytesGeneric itself")
	}
	for _, p := range pairs {
		if got, want := SquaredL2Bytes(p[0], p[1]), squaredL2BytesGeneric(p[0], p[1]); got != want {
			t.Fatalf("n=%d: SquaredL2Bytes = %d, generic %d", len(p[0]), got, want)
		}
	}
}

func TestSquaredL2BytesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dimension mismatch")
		}
	}()
	SquaredL2Bytes(make([]uint8, 3), make([]uint8, 4))
}

var benchSinkU32 uint32

func BenchmarkSquaredL2BytesDim128(b *testing.B) {
	p := l2BytesPairs(rand.New(rand.NewSource(8)), 128)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkU32 = SquaredL2Bytes(p[0], p[1])
	}
}

// TestSQ8RankCorrelation: byte-domain distances must rank candidates
// nearly like float32 distances when dimensions share a scale — the
// property the quantized first pass rides on. Top-10-by-bytes must
// recover almost all of top-10-by-float.
func TestSQ8RankCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, dim, k = 2000, 32, 10
	ds := randDataset(rng, n, dim, 0, 1)
	s, err := TrainSQ8(ds)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := s.EncodeAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	var overlap, total int
	qc := make([]uint8, dim)
	for qi := 0; qi < 20; qi++ {
		q := ds.At(rng.Intn(n))
		if err := s.Encode(q, qc); err != nil {
			t.Fatal(err)
		}
		type scored struct {
			i int
			f float32
			b uint32
		}
		all := make([]scored, n)
		for i := 0; i < n; i++ {
			all[i] = scored{i, SquaredL2Distance(q, ds.At(i)), SquaredL2Bytes(qc, slab[i*dim:(i+1)*dim])}
		}
		byF := append([]scored(nil), all...)
		sort.Slice(byF, func(a, b int) bool { return byF[a].f < byF[b].f })
		byB := append([]scored(nil), all...)
		sort.Slice(byB, func(a, b int) bool { return byB[a].b < byB[b].b })
		top := make(map[int]bool, k)
		for _, sc := range byF[:k] {
			top[sc.i] = true
		}
		for _, sc := range byB[:k] {
			if top[sc.i] {
				overlap++
			}
		}
		total += k
	}
	if frac := float64(overlap) / float64(total); frac < 0.9 {
		t.Errorf("byte-domain top-%d recovers only %.2f of float top-%d", k, frac, k)
	}
}
