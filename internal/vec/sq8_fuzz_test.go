package vec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSquaredL2Bytes splits each input into two equal halves (an odd
// last byte is dropped) and scores them as one pair of codes: the
// generic kernel must return the naive sum, and the kernel
// SquaredL2Bytes dispatches to the same value.
func FuzzSquaredL2Bytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 255})
	f.Add(make([]byte, 64))
	f.Add(append(make([]byte, 33), bytes.Repeat([]byte{255}, 33)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 2
		a, b := data[:n], data[n:2*n]
		want := naiveL2Bytes(a, b)
		if got := squaredL2BytesGeneric(a, b); got != want {
			t.Fatalf("n=%d: squaredL2BytesGeneric = %d, naive %d", n, got, want)
		}
		if got := SquaredL2Bytes(a, b); got != want {
			t.Fatalf("n=%d: SquaredL2Bytes = %d, naive %d", n, got, want)
		}
	})
}

// FuzzSQ8Codec throws arbitrary float32 data at the SQ8 codec. The
// contract under fuzzing:
//
//   - training and encoding never panic;
//   - any NaN/±Inf anywhere in the input is rejected by TrainSQ8 (and
//     by Encode for finite-trained codecs) — corrupt rows never encode;
//   - for finite inputs, every code round-trips within Scale/2 per
//     dimension and re-encoding the decoded vector is stable (codes move
//     at most one cell, the float-rounding tolerance).
func FuzzSQ8Codec(f *testing.F) {
	mk := func(vals ...float32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	f.Add(mk(0, 1, 2, 3, 4, 5))
	f.Add(mk(42, 42, 42, 42))                                       // degenerate range
	f.Add(mk(float32(math.NaN()), 1, 2, 3))                         // NaN row
	f.Add(mk(float32(math.Inf(1)), 0, float32(math.Inf(-1)), 0))    // ±Inf
	f.Add(mk(-math.MaxFloat32, math.MaxFloat32, 0, 1))              // extreme range
	f.Add(mk(1e-38, -1e-38, 0, 0))                                  // denormal-ish
	f.Add(mk(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 2, 3)) // 3 rows of 4

	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		// Frame the values as a dataset of up to 4-dim rows; whatever
		// does not fill a row is dropped.
		dim := 4
		if len(vals) < dim {
			dim = len(vals)
		}
		if dim == 0 {
			return
		}
		n := len(vals) / dim
		ds := NewDataset(dim, n)
		bad := false
		for i := 0; i < n; i++ {
			row := vals[i*dim : (i+1)*dim]
			for _, x := range row {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					bad = true
				}
			}
			ds.Append(row, int64(i))
		}
		s, err := TrainSQ8(ds)
		if bad {
			if err == nil {
				t.Fatalf("TrainSQ8 accepted non-finite input %v", vals)
			}
			return
		}
		if err != nil {
			t.Fatalf("TrainSQ8 rejected finite input %v: %v", vals, err)
		}
		// The trained range itself may overflow to +Inf scale for
		// extreme spreads; codes must still land in range and decode
		// finitely when the scale is finite.
		code := make([]uint8, dim)
		dec := make([]float32, dim)
		re := make([]uint8, dim)
		for i := 0; i < n; i++ {
			v := ds.At(i)
			if err := s.Encode(v, code); err != nil {
				t.Fatalf("Encode rejected trained row %v: %v", v, err)
			}
			s.Decode(code, dec)
			for j := range v {
				sc := float64(s.Scale[j])
				if math.IsInf(sc, 0) {
					continue // range overflow: reconstruction bound is void
				}
				d := math.Abs(float64(dec[j]) - float64(v[j]))
				// Float32 rounding in encode ((x-Min)/Scale) and decode
				// (Min + c*Scale) is proportional to the full quantized
				// range, not just |v| — the slack term must cover
				// |Min| + 255*Scale or huge-range rows flake the bound.
				slack := 1e-6 * (1 + math.Abs(float64(v[j])) + math.Abs(float64(s.Min[j])) + 256*sc)
				if bound := sc/2 + slack; d > bound && !math.IsInf(d, 0) {
					t.Fatalf("row %d dim %d: |decode-encode| = %v > Scale/2 = %v (v=%v)", i, j, d, bound, v[j])
				}
			}
			finite := true
			for _, x := range dec { // any dim's range may have overflowed, not just dim 0
				finite = finite && !math.IsInf(float64(x), 0) && !math.IsNaN(float64(x))
			}
			if !finite {
				continue
			}
			if err := s.Encode(dec, re); err != nil {
				t.Fatalf("re-encoding decoded row failed: %v", err)
			}
			for j := range re {
				d := int(re[j]) - int(code[j])
				if d < -1 || d > 1 {
					t.Fatalf("row %d dim %d: code unstable across round-trip: %d -> %d", i, j, code[j], re[j])
				}
			}
		}
	})
}
