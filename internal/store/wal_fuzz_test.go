package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// fuzzSegment frames recs into a valid in-memory WAL segment.
func fuzzSegment(recs ...Record) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, walHeaderLen)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	buf.Write(hdr)
	for _, r := range recs {
		buf.Write(encodeRecord(r))
	}
	return buf.Bytes()
}

// FuzzReadRecord throws arbitrary bytes at the WAL record scanner. The
// framing contract under fuzzing:
//
//   - never panic, never allocate unboundedly (the length sanity cap);
//   - never deliver a record whose payload fails its CRC — every record
//     handed to the callback must re-encode to the exact frame bytes at
//     its offset, CRC included;
//   - the reported end offset is a valid truncation point: rescanning
//     the prefix up to it is clean and yields the same records
//     (truncate-repair is idempotent).
func FuzzReadRecord(f *testing.F) {
	valid := fuzzSegment(
		Record{Seq: 1, Type: RecordUpsert, Part: 2, Level: 1, ID: 42, Vec: []float32{1, 2, 3, 4}},
		Record{Seq: 2, Type: RecordDelete, ID: 7},
		Record{Seq: 3, Type: RecordUpsert, Part: 0, Level: 0, ID: -9, Vec: []float32{0.5}},
		Record{Seq: 4, Type: RecordUpsertTagged, Part: 1, Level: 0, ID: 11, Vec: []float32{1, 2},
			Tags: map[string]string{"lang": "en", "bucket": "hot"}},
		Record{Seq: 5, Type: RecordUpsertTagged, Part: 0, Level: 1, ID: 12, Vec: []float32{3}},
		Record{Seq: 6, Type: RecordUpsertText, Part: 1, Level: 0, ID: 13, Vec: []float32{4}, Text: "some text"},
		Record{Seq: 7, Type: RecordUpsertTaggedText, Part: 1, Level: 0, ID: 14, Vec: []float32{5, 6},
			Tags: map[string]string{"lang": "de"}, Text: "tags and text"},
	)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn payload
	f.Add(valid[:walHeaderLen+4])         // torn frame header
	f.Add(valid[:walHeaderLen])           // empty segment
	f.Add([]byte("ANNW"))                 // short header
	f.Add([]byte("XXXX\x01\x00\x00\x00")) // bad magic
	crcBroken := append([]byte(nil), valid...)
	crcBroken[walHeaderLen+9] ^= 0xFF // flip a payload byte under an intact CRC
	f.Add(crcBroken)
	lenBomb := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(lenBomb[walHeaderLen:], 1<<31) // implausible length
	f.Add(lenBomb)

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		off, err := scanRecords(bufio.NewReader(bytes.NewReader(data)), "fuzz", func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("scan error is not a *CorruptError: %v", err)
			}
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("end offset %d outside data of %d bytes", off, len(data))
		}

		// Every delivered record must re-encode to the exact bytes of its
		// frame — in particular its CRC must verify.
		cursor := int64(walHeaderLen)
		for i, r := range recs {
			frame := encodeRecord(r)
			end := cursor + int64(len(frame))
			if end > int64(len(data)) || !bytes.Equal(frame, data[cursor:end]) {
				t.Fatalf("record %d does not round-trip to its frame bytes at offset %d", i, cursor)
			}
			crc := binary.LittleEndian.Uint32(frame[4:])
			if got := crc32.Checksum(frame[8:], crcTable); got != crc {
				t.Fatalf("record %d delivered with failing CRC: frame %08x, payload %08x", i, crc, got)
			}
			cursor = end
		}
		if len(recs) > 0 && cursor != off && err == nil {
			t.Fatalf("clean scan ended at %d but records cover through %d", off, cursor)
		}

		// Truncation-repair idempotence: a rescan of data[:off] is clean
		// and yields the same records.
		if err != nil && off >= walHeaderLen {
			var again []Record
			off2, err2 := scanRecords(bufio.NewReader(bytes.NewReader(data[:off])), "fuzz", func(r Record) error {
				again = append(again, r)
				return nil
			})
			if err2 != nil {
				t.Fatalf("rescan of repaired prefix still corrupt: %v", err2)
			}
			if off2 != off || len(again) != len(recs) {
				t.Fatalf("repair not idempotent: offset %d→%d, records %d→%d", off, off2, len(recs), len(again))
			}
		}
	})
}
