package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/fsx"
	"repro/internal/lexical"
)

// Crash recovery of the lexical subsystem: document text rides
// RecordUpsertText WAL records and the text-<seq>.json checkpoint
// sidecar; recovery must rebuild the BM25 inverted index exactly — the
// canonical postings dump and fused hybrid rankings (IDs, order,
// scores) all byte-identical to the pre-crash state.

// fixedText derives a deterministic document from an integer: a few
// shared terms (real BM25 competition) plus a unique token per id.
func fixedText(i int) string {
	return fmt.Sprintf("shared alpha beta%d group%d unique%d", i%3, i%4, i)
}

// withText is the attribute set of an upsert carrying document text.
func withText(s string) Attrs { return Attrs{Text: &s} }

// hybridQueries is the fixed query set every equality check uses.
func hybridQueries() ([][]float32, []string) {
	qs := make([][]float32, 4)
	for i := range qs {
		qs[i] = fixedVec(2000+i, 8)
	}
	texts := []string{"shared", "alpha group1", "unique5 shared", "beta0 beta1 unique12"}
	return qs, texts
}

// hybridResults runs the fixed hybrid queries in both fusion modes, each
// unfiltered and under the filter only taggedDoc matches.
func hybridResults(t testing.TB, e *core.Engine) [][]core.HybridResult {
	t.Helper()
	onlyTagged, err := filter.Parse("lang=en")
	if err != nil {
		t.Fatal(err)
	}
	qs, texts := hybridQueries()
	var out [][]core.HybridResult
	for i := range qs {
		for _, mode := range []string{core.FusionRRF, core.FusionWeighted} {
			for _, f := range []*filter.Expr{nil, onlyTagged} {
				rs, err := e.SearchHybrid(qs[i], texts[i], 5, core.HybridOptions{Fusion: mode, Filter: f})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, rs)
			}
		}
	}
	return out
}

// taggedDoc is the one point of the text workloads that carries tags AND
// text — a kind the log could not hold before — so a filtered hybrid
// query has something to find.
const taggedDocID = 700050

func upsertTaggedDoc(d *Durable) error {
	a := withText("shared alpha tagged50")
	a.Tags = map[string]string{"lang": "en"}
	return d.UpsertWith(fixedVec(50, 8), taggedDocID, a)
}

// checkTaggedDoc: recovery restores both attributes of taggedDoc or
// neither, and with both the filtered hybrid query finds it.
func checkTaggedDoc(t testing.TB, e *core.Engine, mustExist bool) {
	t.Helper()
	tags := e.Tags(taggedDocID)
	_, hasText := e.Text(taggedDocID)
	if (tags != nil) != hasText {
		t.Fatalf("tagged doc recovered half: tags %v, text present %v", tags, hasText)
	}
	if mustExist && !hasText {
		t.Fatal("tagged doc lost: neither tags nor text recovered")
	}
	if hasText {
		f, _ := filter.Parse("lang=en")
		rs, err := e.SearchHybrid(fixedVec(50, 8), "tagged50", 5, core.HybridOptions{Filter: f})
		if err != nil || len(rs) != 1 || rs[0].ID != taggedDocID {
			t.Fatalf("filtered hybrid query = %v (%v), want exactly the tagged doc", rs, err)
		}
	}
}

// postingsDump returns the canonical live-postings dump.
func postingsDump(t testing.TB, e *core.Engine) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := e.LexicalDump(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTextRecordRoundTrip pins the text WAL record encoding: byte-exact
// re-encode, strict length validation.
func TestTextRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{Seq: 7, Type: RecordUpsertText, Part: 1, Level: 2, ID: 42,
			Vec: []float32{0.5, -1.25, 3}, Text: "Hello, BM25 world!"},
		{Seq: 8, Type: RecordUpsertText, ID: -9, Vec: nil, Text: ""},
		{Seq: 9, Type: RecordUpsertText, ID: 1, Vec: []float32{1}, Text: "ünïcode Ω 帽子"},
	}
	for _, r := range cases {
		buf := encodeRecord(r)
		got, err := decodePayload(buf[8:])
		if err != nil {
			t.Fatalf("decode %+v: %v", r, err)
		}
		if got.Seq != r.Seq || got.Type != r.Type || got.Part != r.Part ||
			got.Level != r.Level || got.ID != r.ID || got.Text != r.Text {
			t.Fatalf("round-trip %+v -> %+v", r, got)
		}
		if len(got.Vec) != len(r.Vec) {
			t.Fatalf("vec round-trip: %v -> %v", r.Vec, got.Vec)
		}
		if !bytes.Equal(encodeRecord(got), buf) {
			t.Fatalf("re-encode not byte-exact for %+v", r)
		}
	}
	// A truncated text block must be rejected, not silently shortened.
	r := cases[0]
	buf := encodeRecord(r)
	if _, err := decodePayload(buf[8 : len(buf)-3]); err == nil {
		t.Fatal("truncated text payload decoded without error")
	}
}

func TestUpsertTextRejectsOversize(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 300, 3)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	huge := strings.Repeat("x", MaxTextBytes+1)
	if err := d.UpsertWith(fixedVec(1, 8), 1, withText(huge)); err == nil {
		t.Fatal("oversized text accepted")
	}
}

// TestTextCrashRecoveryWAL kills the process with documents living only
// in the WAL tail: replay must rebuild text, postings, and hybrid
// rankings exactly.
func TestTextCrashRecoveryWAL(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 3)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		if err := d.UpsertWith(randVec(rng, 8), int64(700000+i), withText(fixedText(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites leave stale postings in the live index; the rebuilt
	// index has none — the canonical dump must agree anyway.
	if err := d.UpsertWith(randVec(rng, 8), 700000, withText("rewritten gamma")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(700001); err != nil {
		t.Fatal(err)
	}
	wantHy := hybridResults(t, d.Engine())
	wantDump := postingsDump(t, d.Engine())
	if err := d.Close(); err != nil { // crash: no checkpoint, WAL only
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	e2 := d2.Engine()
	if got, _ := e2.Text(700000); got != "rewritten gamma" {
		t.Fatalf("overwritten doc text = %q after replay", got)
	}
	for i := 2; i < 40; i++ {
		if got, ok := e2.Text(int64(700000 + i)); !ok || got != fixedText(i) {
			t.Fatalf("doc %d text = %q, %v after replay", i, got, ok)
		}
	}
	if got := hybridResults(t, e2); !reflect.DeepEqual(got, wantHy) {
		t.Fatal("hybrid rankings diverge after WAL replay")
	}
	if got := postingsDump(t, e2); !bytes.Equal(got, wantDump) {
		t.Fatalf("postings dump diverges after WAL replay:\n%s\n---\n%s", got, wantDump)
	}
}

// TestTextCrashRecoverySnapshot checkpoints (folding documents into the
// text sidecar, truncating their WAL records), appends a tail, crashes:
// documents must come back from sidecar + tail with identical rankings.
func TestTextCrashRecoverySnapshot(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 5)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 30; i++ {
		if err := d.UpsertWith(randVec(rng, 8), int64(700000+i), withText(fixedText(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := upsertTaggedDoc(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"text-*.json", "tags-*.json"} {
		if sidecars, _ := filepath.Glob(filepath.Join(dir, pattern)); len(sidecars) == 0 {
			t.Fatalf("checkpoint wrote no %s sidecar", pattern)
		}
	}
	for i := 30; i < 38; i++ {
		if err := d.UpsertWith(randVec(rng, 8), int64(700000+i), withText(fixedText(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.UpsertWith(randVec(rng, 8), 700003, withText("rewritten after checkpoint")); err != nil {
		t.Fatal(err)
	}
	wantHy := hybridResults(t, d.Engine())
	wantDump := postingsDump(t, d.Engine())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	e2 := d2.Engine()
	if got, _ := e2.Text(700003); got != "rewritten after checkpoint" {
		t.Fatalf("tail rewrite lost: %q", got)
	}
	if got := e2.TextCount(); got != 39 {
		t.Fatalf("TextCount = %d, want 39", got)
	}
	checkTaggedDoc(t, e2, true)
	if got := hybridResults(t, e2); !reflect.DeepEqual(got, wantHy) {
		t.Fatal("hybrid rankings diverge after sidecar + tail recovery")
	}
	if got := postingsDump(t, e2); !bytes.Equal(got, wantDump) {
		t.Fatal("postings dump diverges after sidecar + tail recovery")
	}
}

// TestTextSidecarCorruptionFallsBack flips a byte in the newest
// generation's text sidecar: Open must quarantine the whole generation
// and rebuild the index identically from the previous generation plus a
// full WAL replay.
func TestTextSidecarCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 9)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 25; i++ {
		if err := d.UpsertWith(randVec(rng, 8), int64(700000+i), withText(fixedText(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantHy := hybridResults(t, d.Engine())
	wantDump := postingsDump(t, d.Engine())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	sidecars, _ := filepath.Glob(filepath.Join(dir, "text-*.json"))
	if len(sidecars) != 1 {
		t.Fatalf("expected 1 text sidecar, found %v", sidecars)
	}
	b, err := os.ReadFile(sidecars[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(sidecars[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Stats().Quarantined; got != 1 {
		t.Errorf("quarantined %d generations, want 1", got)
	}
	e2 := d2.Engine()
	if got := hybridResults(t, e2); !reflect.DeepEqual(got, wantHy) {
		t.Fatal("hybrid rankings diverge after quarantine fallback")
	}
	if got := postingsDump(t, e2); !bytes.Equal(got, wantDump) {
		t.Fatal("postings dump diverges after quarantine fallback")
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "text-*"+corruptSuffix)); len(q) != 1 {
		t.Fatalf("corrupt text sidecar not quarantined: %v", q)
	}
}

// --- Text crash-point sweep ----------------------------------------------
//
// textChaosRun is the lexical twin of chaosRun: a fixed text workload
// (upserts with text, a delete, one upsert with tags and text, a
// checkpoint that writes both sidecars, more upserts including an
// overwrite) against a filesystem
// that dies at a scripted operation. Recovery with a clean FS must
// restore identical BM25 state: same fused hybrid top-k in the same
// order with the same scores, and a byte-identical canonical postings
// dump — with at most the single unacknowledged in-flight record as
// slack.

func textChaosRun(t *testing.T, base []byte, rule *fsx.Rule) chaosOutcome {
	t.Helper()
	dir := t.TempDir()

	preEng := loadEngineBytes(t, base)
	d0, err := Create(dir, preEng, chaosOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d0.UpsertWith(fixedVec(i, 8), int64(700000+i), withText(fixedText(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d0.Close(); err != nil {
		t.Fatal(err)
	}
	ackSeq := uint64(3)

	var rules []fsx.Rule
	if rule != nil {
		rules = append(rules, *rule)
	}
	fs := fsx.NewFaulty(fsx.OS{}, 1, rules...)
	out := chaosOutcome{}
	d, err := Open(dir, chaosOpts(fs))
	if err != nil {
		out.openFailed, out.crashed = true, true
	} else {
		preEng = d.Engine()
		step := func(fn func() error) bool {
			if out.crashed {
				return false
			}
			if err := fn(); err != nil {
				out.crashed = true
				return false
			}
			return true
		}
		mut := func(fn func() error) {
			if step(fn) {
				ackSeq++
			}
		}
		for i := 3; i < 7; i++ {
			i := i
			mut(func() error { return d.UpsertWith(fixedVec(i, 8), int64(700000+i), withText(fixedText(i))) })
		}
		mut(func() error { return d.Delete(700001) })
		mut(func() error { return upsertTaggedDoc(d) })
		step(d.Checkpoint) // writes the text sidecar, and the tags one
		for i := 7; i < 9; i++ {
			i := i
			mut(func() error { return d.UpsertWith(fixedVec(i, 8), int64(700000+i), withText(fixedText(i))) })
		}
		// Overwrite: stale postings live-side, none after rebuild.
		mut(func() error { return d.UpsertWith(fixedVec(42, 8), 700002, withText("rewritten delta")) })
		d.Close()
	}

	wantHy := hybridResults(t, preEng)
	wantDump := postingsDump(t, preEng)

	d2, err := Open(dir, chaosOpts(nil))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer d2.Close()

	var extras []Record
	err = ScanWAL(dir, func(r Record) error {
		if r.Seq > ackSeq {
			extras = append(extras, r)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning recovered WAL: %v", err)
	}
	if len(extras) > 1 {
		t.Fatalf("%d unacknowledged records survived, want at most 1", len(extras))
	}
	gotHy := hybridResults(t, d2.Engine())
	gotDump := postingsDump(t, d2.Engine())
	if !reflect.DeepEqual(gotHy, wantHy) || !bytes.Equal(gotDump, wantDump) {
		// Fold the in-flight record into the oracle; then the match must
		// be exact.
		for _, r := range extras {
			applyDirect(t, preEng, r)
		}
		wantHy = hybridResults(t, preEng)
		wantDump = postingsDump(t, preEng)
		if !reflect.DeepEqual(gotHy, wantHy) {
			t.Fatalf("recovered hybrid rankings diverge from acked state (+%d in-flight)", len(extras))
		}
		if !bytes.Equal(gotDump, wantDump) {
			t.Fatalf("recovered postings dump diverges from acked state (+%d in-flight):\n%s\n---\n%s",
				len(extras), gotDump, wantDump)
		}
	}
	return out
}

// TestTextCrashPointSweep discovers every filesystem operation the text
// workload issues — including the text sidecar's write/sync/rename
// sites inside checkpoint — and kills the store at each one.
func TestTextCrashPointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point sweep is slow; skipping under -short")
	}
	base := engineBytes(t, 300, 67)

	counter := fsx.NewFaulty(fsx.OS{}, 1)
	discover := func() map[fsx.Op]int {
		dir := t.TempDir()
		d0, err := Create(dir, loadEngineBytes(t, base), chaosOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := d0.UpsertWith(fixedVec(i, 8), int64(700000+i), withText(fixedText(i))); err != nil {
				t.Fatal(err)
			}
		}
		d0.Close()
		d, err := Open(dir, chaosOpts(counter))
		if err != nil {
			t.Fatal(err)
		}
		for i := 3; i < 7; i++ {
			if err := d.UpsertWith(fixedVec(i, 8), int64(700000+i), withText(fixedText(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Delete(700001); err != nil {
			t.Fatal(err)
		}
		if err := upsertTaggedDoc(d); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 7; i < 9; i++ {
			if err := d.UpsertWith(fixedVec(i, 8), int64(700000+i), withText(fixedText(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.UpsertWith(fixedVec(42, 8), 700002, withText("rewritten delta")); err != nil {
			t.Fatal(err)
		}
		d.Close()
		counts := map[fsx.Op]int{}
		for op := fsx.OpOpen; op <= fsx.OpSyncDir; op++ {
			counts[op] = counter.Count(op)
		}
		return counts
	}
	counts := discover()

	afterOps := map[fsx.Op]bool{fsx.OpWrite: true, fsx.OpSync: true, fsx.OpRename: true}
	sites, crashedSomewhere := 0, 0
	var names []string
	for op, n := range counts {
		if n == 0 {
			continue
		}
		names = append(names, fmt.Sprintf("%v×%d", op, n))
		for nth := 1; nth <= n; nth++ {
			variants := []bool{false}
			if afterOps[op] {
				variants = append(variants, true)
			}
			for _, after := range variants {
				rule := fsx.Rule{Op: op, Nth: nth, After: after, Crash: true}
				out := textChaosRun(t, base, &rule)
				sites++
				if out.crashed {
					crashedSomewhere++
				}
			}
		}
	}
	sort.Strings(names)
	t.Logf("text crash sweep: %d sites over ops {%s}; %d observed the crash in-workload",
		sites, strings.Join(names, " "), crashedSomewhere)
	if sites < 30 {
		t.Fatalf("only %d crash sites discovered; the workload should issue far more I/O", sites)
	}
	if crashedSomewhere == 0 {
		t.Fatal("no run observed its injected crash")
	}
}

// TestTextSidecarParamsFromOptions: Options.Lexical must configure the
// BM25 index (stopwords change tokenization) before restore and replay.
func TestTextSidecarParamsFromOptions(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 300, 11)
	lc := lexical.Config{Stopwords: []string{"the"}}
	opts := Options{SyncEvery: 1, CompactRatio: -1, Lexical: &lc}
	d, err := Create(dir, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.UpsertWith(fixedVec(1, 8), 1, withText("the quick fox")); err != nil {
		t.Fatal(err)
	}
	if got := d.Engine().SearchLexical("the", 5, nil); got != nil {
		t.Fatalf("stopword scored before crash: %v", got)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.UpsertWith(fixedVec(2, 8), 2, withText("the lazy dog")); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Engine().SearchLexical("the", 5, nil); got != nil {
		t.Fatalf("stopword scored after recovery: %v", got)
	}
	if got := d2.Engine().SearchLexical("quick fox", 5, nil); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("sidecar-restored doc missing: %v", got)
	}
	if got := d2.Engine().SearchLexical("lazy", 5, nil); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("tail-replayed doc missing: %v", got)
	}
}
