package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fuzzTags builds a tag map from "k=v;k=v" and a stretch selector that
// pushes the first pair (or the pair count) past what a tag block can
// frame: 1 an over-long key, 2 an over-long value, 3 too many pairs.
func fuzzTags(spec string, stretch uint8) map[string]string {
	tags := map[string]string{}
	if spec != "" {
		for i, pair := range strings.Split(spec, ";") {
			k, v, _ := strings.Cut(pair, "=")
			if i == 0 && stretch%4 == 1 {
				k = strings.Repeat(k+"k", 1<<16)
			}
			if i == 0 && stretch%4 == 2 {
				v = strings.Repeat(v+"v", 1<<16)
			}
			tags[k] = v
		}
	}
	if stretch%4 == 3 {
		for i := 0; i <= maxTagsPerRecord; i++ {
			tags[fmt.Sprintf("many%d", i)] = ""
		}
	}
	return tags
}

// FuzzTextRecord fuzzes the one upsert record (it began as the fuzz of
// the text kind, and CI knows it by that name): every upsert kind, with
// fuzzed tag pairs — empty and over-long keys included — text and
// vector. The writer's validation must accept exactly what the reader
// accepts:
//
//   - a record validate accepts encodes → decodes to equal fields, and
//     the decoded record re-encodes byte-for-byte (the crash-recovery
//     exactness argument leans on replay seeing precisely what was
//     written); a truncated or padded payload is rejected, because every
//     kind's length is exact, not a minimum;
//   - a record validate refuses would NOT have come back from the log —
//     so the refusal is no stricter than the reader — and Durable
//     refuses it with ErrInvalidUpsert before a byte is appended.
func FuzzTextRecord(f *testing.F) {
	f.Add(uint64(1), int64(42), 2, uint8(1), uint8(2), "", uint8(0), "hello bm25 world", []byte{0, 0, 128, 63})
	f.Add(uint64(9), int64(-7), 0, uint8(0), uint8(2), "", uint8(0), "", []byte{})
	f.Add(uint64(1<<40), int64(math.MaxInt64), 65535, uint8(255), uint8(2), "", uint8(0), "ünïcode Ω 帽子\x00\xff", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(2), int64(1), 1, uint8(0), uint8(0), "ignored=yes", uint8(0), "ignored", []byte{0, 0, 128, 63})
	f.Add(uint64(3), int64(2), 1, uint8(0), uint8(1), "lang=en;tier=hot", uint8(0), "", []byte{0, 0, 128, 63})
	f.Add(uint64(4), int64(3), 1, uint8(0), uint8(1), "", uint8(0), "", []byte{0, 0, 128, 63}) // zero pairs: clears
	f.Add(uint64(5), int64(4), 3, uint8(2), uint8(3), "lang=en;tier=hot", uint8(0), "tags and text", []byte{0, 0, 128, 63})
	f.Add(uint64(6), int64(5), 0, uint8(0), uint8(1), "=x", uint8(0), "", []byte{})      // empty key
	f.Add(uint64(7), int64(6), 0, uint8(0), uint8(3), "a=1;=x", uint8(0), "t", []byte{}) // empty key, second pair
	f.Add(uint64(8), int64(7), 0, uint8(0), uint8(1), "k=v", uint8(1), "", []byte{})     // over-long key
	f.Add(uint64(9), int64(8), 0, uint8(0), uint8(3), "k=v", uint8(2), "t", []byte{})    // over-long value
	f.Add(uint64(10), int64(9), 0, uint8(0), uint8(1), "k=v", uint8(3), "", []byte{})    // too many pairs
	f.Add(uint64(11), int64(10), 0, uint8(0), uint8(2), "", uint8(0), strings.Repeat("x", MaxTextBytes+1), []byte{})

	e, _ := smallEngine(f, 300, 3)
	d, err := Create(f.TempDir(), e, Options{SyncInterval: -1, CompactRatio: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Close() })

	f.Fuzz(func(t *testing.T, seq uint64, id int64, part int, level uint8, kind uint8, tagSpec string, stretch uint8, text string, vecBytes []byte) {
		vec := make([]float32, len(vecBytes)/4)
		for i := range vec {
			vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(vecBytes[4*i:]))
		}
		var a Attrs
		if kind&1 != 0 {
			a.Tags = fuzzTags(tagSpec, stretch)
		}
		if kind&2 != 0 {
			a.Text = &text
		}
		r := a.record(vec, id)
		r.Seq, r.Part, r.Level = seq, part&0xFFFF, int(level)
		frame := encodeRecord(r)
		got, derr := decodePayload(frame[8:])
		back := derr == nil && got.Seq == r.Seq && got.Type == r.Type && got.Part == r.Part &&
			got.Level == r.Level && got.ID == r.ID && got.Text == r.Text && len(got.Vec) == len(r.Vec) &&
			(len(got.Tags) == 0 && len(r.Tags) == 0 || reflect.DeepEqual(got.Tags, r.Tags))

		verr := r.validate()
		if (verr == nil) != back {
			t.Fatalf("validate = %v, but the record round-trips through the log = %v (decode: %v)", verr, back, derr)
		}
		if verr != nil {
			if !errors.Is(verr, ErrInvalidUpsert) {
				t.Fatalf("refusal is not ErrInvalidUpsert: %v", verr)
			}
			before := d.Stats()
			if err := d.UpsertWith(vec, id, a); !errors.Is(err, ErrInvalidUpsert) {
				t.Fatalf("Durable took what validate refuses: %v", err)
			}
			if after := d.Stats(); after.LastSeq != before.LastSeq || after.WALBytes != before.WALBytes {
				t.Fatalf("refused upsert reached the log: seq %d→%d, bytes %d→%d",
					before.LastSeq, after.LastSeq, before.WALBytes, after.WALBytes)
			}
			return
		}

		for i := range r.Vec {
			if math.Float32bits(got.Vec[i]) != math.Float32bits(r.Vec[i]) {
				t.Fatalf("vec[%d] bits %08x -> %08x", i,
					math.Float32bits(r.Vec[i]), math.Float32bits(got.Vec[i]))
			}
		}
		if again := encodeRecord(got); !bytes.Equal(again, frame) {
			t.Fatal("re-encode of decoded record is not byte-identical")
		}
		if _, err := decodePayload(frame[8 : len(frame)-1]); err == nil {
			t.Fatal("truncated payload decoded without error")
		}
		padded := append(append([]byte(nil), frame[8:]...), 0)
		if _, err := decodePayload(padded); err == nil {
			t.Fatal("padded payload decoded without error")
		}
	})
}
