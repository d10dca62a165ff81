package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzManifest fuzzes the MANIFEST reader: the checksummed envelope, the
// legacy plain-JSON manifest, and the generations either carries —
// per-partition dead rows, or the tombstoned IDs parent generations
// recorded. No input may panic it or fail it with anything but a
// *CorruptError, and what it accepts must survive the writer: encoding
// the parsed manifest and parsing that again gives the same bytes, so a
// checkpoint never rewrites a generation into something else.
func FuzzManifest(f *testing.F) {
	env := func(payload string) []byte {
		var m manifest
		if err := json.Unmarshal([]byte(payload), &m); err != nil {
			f.Fatal(err)
		}
		b, err := encodeManifest(m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(env(`{"generations":[{"snapshot":"snap-00000000000000000009.ann","watermark":9,"crc32c":7,"bytes":100,"dead":{"0":[1,5,64],"3":[75]},"inserted":4,"tags":"tags-00000000000000000009.json","tags_crc32c":3,"tags_bytes":46},{"snapshot":"snap-00000000000000000000.ann","watermark":0}]}`))
	f.Add(env(`{"generations":[{"snapshot":"snap-00000000000000000004.ann","watermark":4,"tombstones":[900001],"inserted":3}]}`))
	f.Add([]byte(`{"snapshot":"snap-00000000000000000004.ann","watermark":4,"tombstones":[1,2],"inserted":3}`))
	f.Add([]byte(`{"payload":{"generations":[]},"crc32c":0}`))
	f.Add([]byte(`{"payload":{"generations":[{"dead":{"x":[1]}}]},"crc32c":1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := parseManifest("MANIFEST", b)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("refused with %T %v, want a *CorruptError", err, err)
			}
			return
		}
		enc, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		m2, err := parseManifest("MANIFEST", enc)
		if err != nil {
			t.Fatalf("the writer's own encoding is refused: %v\n%s", err, enc)
		}
		if again, err := encodeManifest(m2); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable (%v):\n%s\n%s", err, enc, again)
		}
	})
}
