package vec

import (
	"fmt"
	"math"
)

// SQ8 is a per-dimension scalar quantizer mapping float32 vectors onto
// one byte per dimension: code_i = round((v_i - Min_i) / Scale_i),
// clamped to [0,255]. It is the compressed first-pass representation of
// the frozen hot path (DESIGN.md §9): candidate generation scans these
// codes with integer kernels at 1/4 the memory traffic of float32, and
// the top candidates are re-ranked against the full-precision rows.
//
// Per-dimension training follows the classic SQ8 recipe (faiss
// ScalarQuantizer QT_8bit): each dimension gets its own [min,max] range,
// so dimensions with different spreads keep their resolution. Distances
// between codes are computed in the byte domain (symmetric: the query is
// quantized too), which weights every dimension by 1/Scale_i² relative
// to true L2 — exact ranking is restored by the float32 re-rank stage.
type SQ8 struct {
	// Min[i] is the lower bound of dimension i's quantization range.
	Min []float32
	// Scale[i] is the quantization step of dimension i; 0 marks a
	// degenerate (constant) dimension whose codes are always 0.
	Scale []float32
}

// Dim returns the dimensionality the codec was trained for.
func (s *SQ8) Dim() int { return len(s.Min) }

// Bytes returns the codec's own memory footprint.
func (s *SQ8) Bytes() int64 { return int64(len(s.Min)+len(s.Scale)) * 4 }

// TrainSQ8 fits per-dimension [min,max] ranges over every row of ds.
// Vectors containing NaN or ±Inf are rejected: a single poisoned row
// would stretch a dimension's range to garbage and silently zero the
// resolution of every other row.
func TrainSQ8(ds *Dataset) (*SQ8, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("vec: TrainSQ8 on empty dataset")
	}
	dim := ds.Dim
	lo := make([]float32, dim)
	hi := make([]float32, dim)
	copy(lo, ds.At(0))
	copy(hi, ds.At(0))
	for i := 0; i < ds.Len(); i++ {
		v := ds.At(i)
		for j, x := range v {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return nil, fmt.Errorf("vec: TrainSQ8: row %d dim %d is %v", i, j, x)
			}
			if x < lo[j] {
				lo[j] = x
			}
			if x > hi[j] {
				hi[j] = x
			}
		}
	}
	s := &SQ8{Min: lo, Scale: make([]float32, dim)}
	for j := range s.Scale {
		s.Scale[j] = (hi[j] - lo[j]) / 255
	}
	return s, nil
}

// Encode quantizes v into dst (len == Dim). Out-of-range values clamp to
// the trained range; NaN/Inf are rejected so corrupt inputs cannot
// silently encode as 0 or 255.
func (s *SQ8) Encode(v []float32, dst []uint8) error {
	if len(v) != len(s.Min) || len(dst) != len(s.Min) {
		return fmt.Errorf("vec: SQ8 encode dim %d/%d, codec dim %d", len(v), len(dst), len(s.Min))
	}
	for j, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("vec: SQ8 encode: dim %d is %v", j, x)
		}
		if s.Scale[j] == 0 {
			dst[j] = 0
			continue
		}
		q := (x - s.Min[j]) / s.Scale[j]
		if q <= 0 {
			dst[j] = 0
		} else if q >= 255 {
			dst[j] = 255
		} else {
			dst[j] = uint8(q + 0.5)
		}
	}
	return nil
}

// EncodeAll quantizes every row of ds into one contiguous code slab
// (row i at codes[i*dim : (i+1)*dim]).
func (s *SQ8) EncodeAll(ds *Dataset) ([]uint8, error) {
	if ds.Dim != s.Dim() {
		return nil, fmt.Errorf("vec: SQ8 EncodeAll dim %d, codec dim %d", ds.Dim, s.Dim())
	}
	out := make([]uint8, ds.Len()*ds.Dim)
	for i := 0; i < ds.Len(); i++ {
		if err := s.Encode(ds.At(i), out[i*ds.Dim:(i+1)*ds.Dim]); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return out, nil
}

// Decode reconstructs the midpoint value of each code cell into dst and
// returns it. The reconstruction error per dimension is at most
// Scale_i/2 for in-range inputs (see TestSQ8RoundTripBound).
func (s *SQ8) Decode(code []uint8, dst []float32) []float32 {
	for j, c := range code {
		dst[j] = s.Min[j] + float32(c)*s.Scale[j]
	}
	return dst
}

// SquaredL2Bytes returns sum_i (a_i-b_i)² over uint8 codes — the
// quantized first-pass kernel of the frozen hot path. The result is
// exact in uint32 for dim ≤ 66049 (255²·66049 < 2³²); beyond that it
// wraps mod 2³². On amd64 CPUs with AVX2 it runs a vector body
// (sq8_amd64.s), elsewhere squaredL2BytesGeneric. Integer sums are exact
// in any order, so both return the same value for every input.
func SquaredL2Bytes(a, b []uint8) uint32 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	return squaredL2Bytes(a, b)
}

// squaredL2BytesGeneric is SquaredL2Bytes with an 8-way unrolled scalar
// loop: the only path off amd64 or without AVX2, and the oracle the
// vector body is tested against.
func squaredL2BytesGeneric(a, b []uint8) uint32 {
	var s0, s1, s2, s3 uint32
	n := len(a)
	i := 0
	for ; i+8 <= n; i += 8 {
		d0 := int32(a[i]) - int32(b[i])
		d1 := int32(a[i+1]) - int32(b[i+1])
		d2 := int32(a[i+2]) - int32(b[i+2])
		d3 := int32(a[i+3]) - int32(b[i+3])
		d4 := int32(a[i+4]) - int32(b[i+4])
		d5 := int32(a[i+5]) - int32(b[i+5])
		d6 := int32(a[i+6]) - int32(b[i+6])
		d7 := int32(a[i+7]) - int32(b[i+7])
		s0 += uint32(d0*d0) + uint32(d4*d4)
		s1 += uint32(d1*d1) + uint32(d5*d5)
		s2 += uint32(d2*d2) + uint32(d6*d6)
		s3 += uint32(d3*d3) + uint32(d7*d7)
	}
	for ; i < n; i++ {
		d := int32(a[i]) - int32(b[i])
		s0 += uint32(d * d)
	}
	return s0 + s1 + s2 + s3
}
