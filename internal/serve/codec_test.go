package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/topk"
)

// benchShapes are request bodies shaped like the four annload
// workloads' — 128-d perturbed SIFT-like rows written the way the load
// generator writes them (shortest float32 'g', keys in its order) — built
// here so the test does not depend on the benchmark's code.
func benchShapes(tb testing.TB) []struct {
	name string
	body []byte
	into func() any
} {
	tb.Helper()
	ds, err := dataset.Named("sift", 2000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	qs := dataset.PerturbedQueries(ds, 64, 4, 2)
	vector := func(b []byte, i int) []byte {
		b = append(b, '[')
		for j, x := range qs.At(i) {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
		}
		return append(b, ']')
	}
	batch := []byte(`{"k":10,"queries":[`)
	for i := 0; i < qs.Len(); i++ {
		if i > 0 {
			batch = append(batch, ',')
		}
		batch = vector(batch, i)
	}
	batch = append(batch, "]}"...)
	search := func() any { return new(searchRequest) }
	return []struct {
		name string
		body []byte
		into func() any
	}{
		{"batch_search", batch, search},
		{"filtered", append(vector([]byte(`{"k":10,"query":`), 1), `,"filter":"t1=1"}`...), search},
		{"hybrid", append(vector([]byte(`{"k":10,"text":"amber quartz","query":`), 2), '}'), func() any { return new(hybridRequest) }},
		{"hybrid_needle", append(vector([]byte(`{"k":10,"text":"needle1035","query":`), 3), '}'), func() any { return new(hybridRequest) }},
		{"single", append(vector([]byte(`{"k":10,"query":`), 4), '}'), search},
	}
}

// TestFastDecodeTakesBenchShapes: the benchmark's bodies are read by the
// fast path itself — not handed to encoding/json — and decode to the
// very struct encoding/json makes, every float bit for bit. Without it
// a fast path that always gave up would pass every differential check.
func TestFastDecodeTakesBenchShapes(t *testing.T) {
	for _, tc := range benchShapes(t) {
		got, want := tc.into(), tc.into()
		if !decodeFast(tc.body, got) {
			t.Errorf("%s: the fast path gave up on the benchmark's own body shape", tc.name)
			continue
		}
		if err := json.NewDecoder(bytes.NewReader(tc.body)).Decode(want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !sameFloatBits(got, want) {
			t.Errorf("%s: fast path %+v, encoding/json %+v", tc.name, got, want)
		}
	}
}

// sameFloatBits compares the vectors of two decoded requests bit for
// bit (reflect.DeepEqual takes -0 for 0).
func sameFloatBits(a, b any) bool {
	rows := func(v any) [][]float32 {
		switch r := v.(type) {
		case *searchRequest:
			return append([][]float32{r.Query}, r.Queries...)
		case *hybridRequest:
			return [][]float32{r.Query}
		}
		return nil
	}
	ra, rb := rows(a), rows(b)
	for i := range ra {
		for j := range ra[i] {
			if math.Float32bits(ra[i][j]) != math.Float32bits(rb[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestFloat32MatchesStrconv: the one-pass float reader returns the bits
// strconv.ParseFloat(lit, 32) returns — which is what encoding/json
// stores in a float32 — on shortest float32 forms, random decimals,
// decimals within a rounding of a float32 midpoint, and the edges.
func TestFloat32MatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lits := []string{
		"0", "-0", "0.0", "-0.0", "0e-400", "1e-45", "1.4e-45", "7e-46", "1e-46", "1.17549435e-38",
		"16777215", "16777216", "16777217", "16777218", "16777219", "33554433", "9007199254740993",
		"3.4028235e38", "3.4028236e38", "3.5e38", "1e38", "1e39", "-3.5e38", "1e-7", "1e21", "1e22",
		"1e23", "12345678901234567890", "0.12345678901234567890", "123456789012345678901234567890e-20",
		"0.1", "0.2", "0.3", "1.5", "2.5", "1e10", "1e-10", "9999999999999999e22", "1E5", "1e+5",
	}
	for i := 0; i < 100000; i++ {
		// The shortest form of a random float32: what clients send.
		f := math.Float32frombits(rng.Uint32())
		if !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
			lits = append(lits, strconv.FormatFloat(float64(f), 'g', -1, 32))
		}
		// A plain decimal of 1–17 digits with a point and an exponent.
		digits := make([]byte, 1+rng.Intn(17))
		for j := range digits {
			digits[j] = byte('0' + rng.Intn(10))
		}
		if digits[0] == '0' && len(digits) > 1 {
			digits[0] = '1'
		}
		lit := string(digits)
		if p := rng.Intn(len(digits) + 1); p > 0 && p < len(digits) {
			lit = lit[:p] + "." + lit[p:]
		}
		lits = append(lits, lit+"e"+strconv.Itoa(rng.Intn(61)-30))
		// 15 digits of the midpoint between two adjacent normal float32s:
		// their float64 product or quotient can land on the midpoint.
		lo := math.Float32frombits(rng.Uint32() & 0x7effffff)
		mid := (float64(lo) + float64(math.Nextafter32(lo, float32(math.Inf(1))))) / 2
		lits = append(lits, strconv.FormatFloat(mid, 'e', 14, 64), strconv.FormatFloat(mid, 'e', 8, 64))
	}
	for _, lit := range lits {
		for _, s := range []string{lit, "-" + lit} {
			want, err := strconv.ParseFloat(s, 32)
			r := jsonReader{b: []byte(s)}
			var got float32
			ok := r.float32(&got)
			if ok != (err == nil) || ok && math.Float32bits(got) != math.Float32bits(float32(want)) {
				t.Fatalf("%s: fast %v (%08x, ok %v), strconv %v (%08x, %v)",
					s, got, math.Float32bits(got), ok, want, math.Float32bits(float32(want)), err)
			}
		}
	}
}

// searchResponse is the search 200 body as a client decodes it, and
// the struct whose encoding/json bytes appendSearchResponse is held to.
type searchResponse struct {
	K                int            `json:"k"`
	TookUS           int64          `json:"took_us"`
	Degraded         bool           `json:"degraded,omitempty"`
	FailedPartitions []int          `json:"failed_partitions,omitempty"`
	Results          []searchResult `json:"results"`
}

// searchResult is one query's answer on the wire.
type searchResult struct {
	IDs    []int64   `json:"ids"`
	Dists  []float32 `json:"dists"`
	Cached bool      `json:"cached,omitempty"`
}

// wire is the response a reply stands for: one result per row, the
// results, IDs and distances never nil.
func wire(r *searchReply) searchResponse {
	w := searchResponse{K: r.K, TookUS: r.TookUS, Degraded: r.Degraded, FailedPartitions: r.FailedPartitions,
		Results: make([]searchResult, len(r.Rows))}
	for i, row := range r.Rows {
		res := &w.Results[i]
		res.IDs, res.Dists, res.Cached = make([]int64, len(row)), make([]float32, len(row)), r.Cached[i]
		for j, x := range row {
			res.IDs[j], res.Dists[j] = x.ID, x.Dist
		}
	}
	return w
}

// FuzzResponseEncode holds the search reply's append encoder to
// encoding/json: for a reply built from fuzz bytes (IDs, distances with
// any float bits — NaN, ±Inf, subnormals —, nil and empty rows and
// partition lists, the cached and degraded flags) it writes exactly
// json.Marshal's bytes for the response the reply stands for plus
// json.Encoder's newline, or both refuse with the same error.
func FuzzResponseEncode(f *testing.F) {
	f32 := func(xs ...float32) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		return b
	}
	f.Add(10, int64(123), uint8(0), []byte{}, []byte{})
	f.Add(3, int64(0), uint8(7), []byte{1, 2, 3}, []byte{0x13, 1, 2, 3})
	f.Add(2, int64(9), uint8(4), []byte{}, append([]byte{0x10}, f32(0, 1e-7, 1e21, -0.0)...))
	f.Add(1, int64(-1), uint8(1), []byte{0}, append([]byte{0x08}, f32(float32(math.NaN()))...))
	f.Add(1, int64(5), uint8(0), []byte{}, append([]byte{0x08}, f32(float32(math.Inf(1)))...))
	f.Add(1, int64(5), uint8(0), []byte{}, append([]byte{0x18}, f32(math.SmallestNonzeroFloat32, math.MaxFloat32, 9.999999e-7)...))
	f.Add(0, int64(0), uint8(2), []byte{255}, []byte{0x03, 0x04, 0x08})

	f.Fuzz(func(t *testing.T, k int, took int64, flags uint8, parts, data []byte) {
		resp := searchReply{K: k, TookUS: took, Degraded: flags&1 != 0}
		if flags&2 != 0 {
			resp.FailedPartitions = []int{}
			for _, p := range parts {
				resp.FailedPartitions = append(resp.FailedPartitions, int(p)-8)
			}
		}
		if flags&4 == 0 {
			resp.Rows = [][]topk.Result{}
		}
		// Each row: a header byte (bit 0 a nil row, bit 2 cached, the
		// rest a length), then that many results, an ID and a distance
		// from each 4 bytes, as long as the bytes last.
		for len(data) > 0 {
			h := data[0]
			data = data[1:]
			var row []topk.Result
			if h&1 == 0 {
				row = []topk.Result{}
			}
			for i := 0; i < int(h>>3) && len(data) >= 4; i++ {
				x := binary.LittleEndian.Uint32(data)
				row = append(row, topk.Result{ID: int64(x) - 1<<31, Dist: math.Float32frombits(x)})
				data = data[4:]
			}
			resp.Rows = append(resp.Rows, row)
			resp.Cached = append(resp.Cached, h&4 != 0)
		}

		want, wantErr := json.Marshal(wire(&resp))
		got, err := appendSearchResponse(nil, &resp)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("append encoder error %v, json.Marshal %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("append encoder refuses with %q, json.Marshal with %q", err, wantErr)
			}
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("append encoder\n%s\njson.Encoder\n%s", got, want)
		}
	})
}

// BenchmarkDecode reads the 64-query body of batch_search through the
// fast path and through encoding/json alone.
func BenchmarkDecode(b *testing.B) {
	body := benchShapes(b)[0].body
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if !decodeFast(body, new(searchRequest)) {
				b.Fatal("fast path gave up")
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(new(searchRequest)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncode writes a 64-result, k=10 search reply with the append
// encoder and, as the response it stands for, with json.Encoder.
func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	resp := &searchReply{K: 10, TookUS: 5123, Rows: make([][]topk.Result, 64), Cached: make([]bool, 64)}
	for i := range resp.Rows {
		for j := 0; j < 10; j++ {
			resp.Rows[i] = append(resp.Rows[i], topk.Result{ID: rng.Int63n(1_000_000), Dist: rng.Float32() * 1e5})
		}
	}
	c := new(codecBuf)
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.b = c.b[:0]
			if err := encodeJSON(c, resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	w := wire(resp)
	b.Run("encoding_json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.b = c.b[:0]
			if err := json.NewEncoder(c).Encode(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}
