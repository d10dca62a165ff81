package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// The gateway's JSON fast path. encoding/json defines the wire format;
// the two bodies that carry vectors in bulk are read and written here
// without reflection, and held byte-equal to encoding/json by
// FuzzRequestDecode and FuzzResponseEncode:
//
//   - decodeFast reads a searchRequest or hybridRequest. It knows one
//     spelling of each: an object with the exact lower-case field names,
//     each at most once; integers; float arrays; strings of printable
//     ASCII without escapes. Anything else — an escape, a control or
//     non-ASCII byte, null, an unknown, repeated or differently-cased
//     key, a number of the wrong kind or out of range, hybrid's fusion
//     weights — and it gives up, and the same bytes go to json.Decoder,
//     which then decides, error message included. Like json.Decoder it
//     stops after the first value.
//   - appendSearchResponse writes a search reply from its result rows:
//     exactly the bytes json.Encoder writes for the response they stand
//     for, trailing newline included, or the error json.Marshal returns
//     for a non-finite float.
//
// Every other body goes through encoding/json as it is.

// codecBuf is one request's working buffer: the body read once, and
// later the response encoded before it is written. Decoded values never
// alias it.
type codecBuf struct {
	b []byte
	// r is json.Decoder's source when the fast path gives up.
	r bytes.Reader
}

// Write appends to b: json.Encoder's sink for the responses without a
// fast path.
func (c *codecBuf) Write(p []byte) (int, error) {
	c.b = append(c.b, p...)
	return len(p), nil
}

var codecBufs = sync.Pool{New: func() any { return new(codecBuf) }}

// maxPooledBuf keeps an occasional large upsert body from staying pinned
// in the pool; a 64-query search body is ~80 KB.
const maxPooledBuf = 1 << 20

func getCodecBuf() *codecBuf { return codecBufs.Get().(*codecBuf) }

func putCodecBuf(c *codecBuf) {
	if cap(c.b) > maxPooledBuf {
		return
	}
	c.b = c.b[:0]
	c.r.Reset(nil)
	codecBufs.Put(c)
}

// readBody appends everything r yields to b, presized for size bytes
// (Content-Length, when the client sent one) plus the read that sees EOF.
func readBody(b []byte, r io.Reader, size int64) ([]byte, error) {
	if size > 0 && int64(cap(b)-len(b)) <= size {
		b = append(make([]byte, 0, int64(len(b))+size+1), b...)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decodeFast decodes body into v when v is a request type with a fast
// path and the body is in the subset it reads; v is untouched otherwise.
func decodeFast(body []byte, v any) bool {
	r := jsonReader{b: body}
	if !r.eat('{') {
		return false
	}
	var seen uint // one bit per field read, to refuse a repeated key
	switch v := v.(type) {
	case *searchRequest:
		var req searchRequest
		for first := true; ; first = false {
			key, done, ok := r.next(first)
			if done {
				*v = req
				return true
			}
			var bit uint
			switch string(key) {
			case "query":
				bit, ok = 1, ok && r.floats(&req.Query)
			case "queries":
				bit, ok = 2, ok && r.rows(&req.Queries)
			case "k":
				bit, ok = 4, ok && r.int(&req.K)
			case "filter":
				bit, ok = 8, ok && r.str(&req.Filter)
			case "timeout_ms":
				bit, ok = 16, ok && r.int(&req.TimeoutMS)
			default:
				return false
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
		}
	case *hybridRequest:
		var req hybridRequest
		for first := true; ; first = false {
			key, done, ok := r.next(first)
			if done {
				*v = req
				return true
			}
			var bit uint
			switch string(key) {
			case "query":
				bit, ok = 1, ok && r.floats(&req.Query)
			case "text":
				bit, ok = 2, ok && r.str(&req.Text)
			case "k":
				bit, ok = 4, ok && r.int(&req.K)
			case "fusion":
				bit, ok = 8, ok && r.str(&req.Fusion)
			case "filter":
				bit, ok = 16, ok && r.str(&req.Filter)
			case "timeout_ms":
				bit, ok = 32, ok && r.int(&req.TimeoutMS)
			default:
				return false
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
		}
	}
	return false
}

// jsonReader is the fast path's cursor over one body. Every method
// returns false, leaving the cursor wherever it stopped, on input outside
// the subset it reads; the caller then abandons the whole body.
type jsonReader struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (r *jsonReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (r *jsonReader) eat(c byte) bool {
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// next steps to the next member of the object whose '{' was read: its
// key, with the cursor on the value, or done at the closing brace. The
// body's first value ends there, and so does the read: what follows is
// not looked at, as json.Decoder does not look either.
func (r *jsonReader) next(first bool) (key []byte, done, ok bool) {
	if r.eat('}') {
		return nil, true, true
	}
	if !first && !r.eat(',') {
		return nil, false, false
	}
	key, ok = r.plain()
	return key, false, ok && r.eat(':')
}

// plain reads a string of printable ASCII without escapes and returns its
// bytes, aliasing the body.
func (r *jsonReader) plain() ([]byte, bool) {
	if !r.eat('"') {
		return nil, false
	}
	for j := r.i; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			s := r.b[r.i:j]
			r.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str reads a plain string into a fresh Go string.
func (r *jsonReader) str(dst *string) bool {
	s, ok := r.plain()
	if ok {
		*dst = string(s)
	}
	return ok
}

// maxMant is the largest mantissa number can still append a digit to
// and stay below 2^53, the integers a float64 holds exactly.
const maxMant = (1<<53 - 10) / 10

// number reads one JSON number literal,
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
// In the same pass it accumulates the decimal mantissa and exponent:
// exact reports that mant holds every digit, so the value is
// mant × 10^exp, negated when neg.
func (r *jsonReader) number() (lit []byte, mant uint64, exp int, neg, exact bool) {
	r.ws()
	b, i := r.b, r.i
	start := i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	exact = true
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if mant > maxMant {
				exact = false
			} else {
				mant = mant*10 + uint64(b[i]-'0')
			}
		}
	default:
		return nil, 0, 0, false, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, 0, 0, false, false
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if mant > maxMant {
				exact = false
			} else {
				mant = mant*10 + uint64(b[i]-'0')
				exp--
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, 0, 0, false, false
		}
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1000 { // past this only "not exact" matters
				e = e*10 + int(b[i]-'0')
			}
		}
		exp += esign * e
	}
	r.i = i
	return b[start:i], mant, exp, neg, exact
}

// int reads an integer as encoding/json does for an int field:
// strconv.ParseInt of the literal, which refuses fractions, exponents
// and out-of-range values.
func (r *jsonReader) int(dst *int) bool {
	lit, _, _, _, _ := r.number()
	if lit == nil {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 0)
	*dst = int(n)
	return err == nil
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float32 reads a number as encoding/json does for a float32 field, bit
// for bit strconv.ParseFloat(lit, 32), in the same pass that checks the
// grammar. When the literal is mant × 10^exp with mant < 2^53 and
// |exp| ≤ 22, both operands are exact float64s and one multiplication or
// division rounds the value correctly to float64. Rounding that on to
// float32 is then correct too, unless it landed exactly on the midpoint
// between two float32s (double rounding could pick the wrong side), and
// the values it can reach, 1e-22 to 9e37 in magnitude, are all normal
// float32s. Everything else — midpoints, long mantissas, far exponents,
// overflow — is strconv's.
func (r *jsonReader) float32(dst *float32) bool {
	lit, mant, exp, neg, exact := r.number()
	if lit == nil {
		return false
	}
	if exact && -22 <= exp && exp <= 22 {
		f := float64(mant)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		// The 29 low mantissa bits are what float32 drops: exactly half
		// its last place is a midpoint.
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if neg {
				f = -f
			}
			*dst = float32(f)
			return true
		}
	}
	f, err := strconv.ParseFloat(string(lit), 32)
	*dst = float32(f)
	return err == nil
}

// maxRowHint bounds the elements a row is presized for from a count of
// its commas.
const maxRowHint = 1 << 14

// floats reads an array of numbers into a fresh slice, presized to the
// array's own length. An empty array is an empty slice, not nil, as
// encoding/json makes it.
func (r *jsonReader) floats(dst *[]float32) (ok bool) {
	*dst, ok = r.appendFloats(make([]float32, 0, r.arrayHint()))
	return ok
}

// arrayHint is the number of elements of the number array the cursor is
// in or before, counted from its commas: a number array holds no
// brackets, so its first ']' closes it. The cap keeps a body of bare commas from
// reserving 4 bytes per byte; a longer row grows by append.
func (r *jsonReader) arrayHint() int {
	end := max(bytes.IndexByte(r.b[r.i:], ']'), 0)
	return min(1+bytes.Count(r.b[r.i:r.i+end], []byte{','}), maxRowHint)
}

// appendFloats reads a number array, appending its elements to out.
func (r *jsonReader) appendFloats(out []float32) ([]float32, bool) {
	if !r.eat('[') {
		return out, false
	}
	if r.eat(']') {
		return out, true
	}
	for {
		var f float32
		if !r.float32(&f) {
			return out, false
		}
		out = append(out, f)
		if r.eat(']') {
			return out, true
		}
		if !r.eat(',') {
			return out, false
		}
	}
}

// rows reads an array of number arrays into a few backing slices rather
// than one per row: the rows are appended to one slice, presized from the
// first row's length, and each row is cut from it with its capacity at
// its length; a row that outgrows the slice moves on to a new one, and
// the rows before it keep the old.
func (r *jsonReader) rows(dst *[][]float32) bool {
	if !r.eat('[') {
		return false
	}
	if *dst = [][]float32{}; r.eat(']') {
		return true
	}
	flat := make([]float32, 0, r.arrayHint())
	for {
		start, ok := len(flat), false
		if flat, ok = r.appendFloats(flat); !ok {
			return false
		}
		*dst = append(*dst, flat[start:len(flat):len(flat)])
		if r.eat(']') {
			return true
		}
		if !r.eat(',') {
			return false
		}
	}
}

// encodeJSON appends v's JSON encoding to c.b: a search reply by
// appendSearchResponse, anything else through json.Encoder (HTML
// escaping on, trailing newline), as every response was before.
func encodeJSON(c *codecBuf, v any) error {
	if resp, ok := v.(*searchReply); ok {
		b, err := appendSearchResponse(c.b, resp)
		c.b = b
		return err
	}
	return json.NewEncoder(c).Encode(v)
}

// appendSearchResponse appends the bytes json.Encoder writes for the
// search response resp stands for: {"k","took_us"}, "degraded" and
// "failed_partitions" only when set, then "results" with one
// {"ids","dists"} object per row, none of them ever null, and
// "cached":true on the rows Cached marks; then the newline.
func appendSearchResponse(b []byte, resp *searchReply) ([]byte, error) {
	b = append(b, `{"k":`...)
	b = strconv.AppendInt(b, int64(resp.K), 10)
	b = append(b, `,"took_us":`...)
	b = strconv.AppendInt(b, resp.TookUS, 10)
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if len(resp.FailedPartitions) > 0 {
		b = append(b, `,"failed_partitions":[`...)
		for i, p := range resp.FailedPartitions {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"results":[`...)
	for i, row := range resp.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ids":[`...)
		for j, r := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, r.ID, 10)
		}
		b = append(b, `],"dists":[`...)
		for j, r := range row {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat32(b, r.Dist); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
		if resp.Cached[i] {
			b = append(b, `,"cached":true`...)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// appendFloat32 is encoding/json's float32 encoder: shortest 'f' form,
// 'e' below 1e-6 and from 1e21 with a one-digit negative exponent
// unpadded (e-07 → e-7), and the json.Marshal error for NaN and ±Inf.
func appendFloat32(b []byte, f float32) ([]byte, error) {
	x := float64(f)
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(x, 'g', -1, 32)}
	}
	format := byte('f')
	if abs := float32(math.Abs(x)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 32)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}
