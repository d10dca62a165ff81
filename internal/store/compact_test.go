package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/fsx"
	"repro/internal/metrics"
	"repro/internal/vec"
)

// liveSubset returns ds without the rows whose ids are in dead.
func liveSubset(ds *vec.Dataset, dead map[int64]bool) *vec.Dataset {
	out := vec.NewDataset(ds.Dim, 0)
	for i := 0; i < ds.Len(); i++ {
		if !dead[ds.ID(i)] {
			out.Append(ds.At(i), ds.ID(i))
		}
	}
	return out
}

func queryDataset(rng *rand.Rand, n, dim int) *vec.Dataset {
	qs := vec.NewDataset(dim, n)
	for i := 0; i < n; i++ {
		qs.Append(randVec(rng, dim), int64(i))
	}
	return qs
}

// engineRecall measures mean recall@k of the engine against exact truth
// over the given reference set.
func engineRecall(t *testing.T, d *Durable, ref, qs *vec.Dataset, k int) float64 {
	t.Helper()
	truth := bruteforce.GroundTruth(ref, qs, k, vec.L2)
	rows := queryResults(t, d.Engine(), toSlices(qs), k)
	return metrics.MeanRecall(rows, truth)
}

func toSlices(qs *vec.Dataset) [][]float32 {
	out := make([][]float32, qs.Len())
	for i := range out {
		out[i] = qs.At(i)
	}
	return out
}

// TestCompactionRecallAndFootprint churns deletes through the store,
// compacts every qualifying partition, and checks that (a) recall on a
// fixed query set is no worse than before the churn and (b) the
// in-memory and on-disk footprints actually shrank.
func TestCompactionRecallAndFootprint(t *testing.T) {
	dir := t.TempDir()
	e, ds := smallEngine(t, 2000, 17)
	d, err := Create(dir, e, Options{SyncEvery: 16, SegmentBytes: 8192, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(31))
	const k = 10
	qs := queryDataset(rng, 30, 8)
	preRecall := engineRecall(t, d, ds, qs, k)

	// Churn: tombstone ~30% of the rows.
	dead := make(map[int64]bool)
	for len(dead) < 600 {
		id := int64(rng.Intn(2000))
		if !dead[id] {
			dead[id] = true
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	preLen := d.Engine().Len()
	if got := d.Engine().Tombstones(); got != len(dead) {
		t.Fatalf("tombstones %d, want %d", got, len(dead))
	}

	// Compact every partition that holds dead rows (CompactRatio<0
	// disables the background loop but makes every such partition
	// eligible for a manual pass).
	passes := 0
	for {
		p := d.pickPartition()
		if p < 0 {
			break
		}
		if err := d.CompactPartition(p); err != nil {
			t.Fatal(err)
		}
		passes++
		if passes > d.Engine().Partitions() {
			t.Fatal("compaction did not converge")
		}
	}
	if passes == 0 {
		t.Fatal("no partition qualified for compaction")
	}

	// In-memory footprint: dead rows are really gone.
	if got := d.Engine().Len(); got != preLen-len(dead) {
		t.Errorf("engine holds %d rows after compaction, want %d", got, preLen-len(dead))
	}
	if got := d.Engine().Tombstones(); got != 0 {
		t.Errorf("%d tombstones left after compacting all partitions", got)
	}

	// On-disk footprint: the post-compaction checkpoint covers the whole
	// WAL, so only the empty active segment remains.
	st := d.Stats()
	if st.Watermark != st.LastSeq {
		t.Errorf("watermark %d lags last seq %d after compaction checkpoint", st.Watermark, st.LastSeq)
	}
	if st.WALSegments != 1 {
		t.Errorf("%d WAL segments left, want only the active one", st.WALSegments)
	}
	if st.Compactions != int64(passes) || st.Folded != int64(len(dead)) {
		t.Errorf("stats compactions=%d folded=%d, want %d/%d", st.Compactions, st.Folded, passes, len(dead))
	}
	segs, _ := listSegments(fsx.OS{}, filepath.Join(dir, "wal"))
	if len(segs) != 1 {
		t.Errorf("on disk: %d segments, want 1", len(segs))
	}

	// Recall against the live set is no worse than the pre-churn
	// baseline (rebuilt graphs index fewer rows, so it typically rises).
	postRecall := engineRecall(t, d, liveSubset(ds, dead), qs, k)
	if postRecall < preRecall-0.01 {
		t.Errorf("recall dropped after compaction: pre=%.4f post=%.4f", preRecall, postRecall)
	}
	t.Logf("recall pre=%.4f post=%.4f, %d compaction passes", preRecall, postRecall, passes)
}

// TestCompactionConcurrentSearches hammers the engine with searches
// while a compaction swap happens underneath; every result must be
// well-formed and free of tombstoned ids.
func TestCompactionConcurrentSearches(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 1500, 23)
	d, err := Create(dir, e, Options{SyncEvery: 64, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(41))
	dead := make(map[int64]bool)
	for len(dead) < 450 {
		id := int64(rng.Intn(1500))
		if !dead[id] {
			dead[id] = true
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := d.Engine().Search(randVec(r, 8), 10)
				if err != nil {
					errc <- err
					return
				}
				seen := make(map[int64]bool, len(rs))
				for _, res := range rs {
					if dead[res.ID] {
						errc <- &CorruptError{Reason: "tombstoned id in results"}
						return
					}
					if seen[res.ID] {
						errc <- &CorruptError{Reason: "duplicate id in results"}
						return
					}
					seen[res.ID] = true
				}
			}
		}(int64(100 + w))
	}

	// Interleave upserts with the compaction passes to exercise the
	// sidelog catch-up path too.
	upserts := 0
	for {
		p := d.pickPartition()
		if p < 0 {
			break
		}
		done := make(chan error, 1)
		go func() { done <- d.CompactPartition(p) }()
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			default:
				if err := d.Upsert(randVec(rng, 8), int64(500000+upserts)); err != nil {
					t.Fatal(err)
				}
				upserts++
				time.Sleep(100 * time.Microsecond)
				continue
			}
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent search failed during swap: %v", err)
	default:
	}
	if got := d.Stats().CaughtUp; upserts > 0 && got == 0 {
		t.Logf("note: no sidelog catch-up exercised (%d upserts, all landed outside compacting partitions)", upserts)
	}
	// Every interleaved upsert must have survived the swaps.
	if got := d.Engine().Inserted(); got != int64(upserts) {
		t.Errorf("engine inserted=%d, want %d", got, upserts)
	}
}

// TestAutoCompaction checks the background trigger: past CompactRatio
// the scan loop rebuilds the partition without manual intervention.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 1000, 29)
	d, err := Create(dir, e, Options{
		SyncEvery:       64,
		CompactRatio:    0.2,
		CompactInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(53))
	dead := make(map[int64]bool)
	for len(dead) < 400 {
		id := int64(rng.Intn(1000))
		if !dead[id] {
			dead[id] = true
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if d.Stats().Compactions == 0 {
		t.Fatal("background compactor never fired")
	}
}

// TestCompactionForgetsFoldedText: the fold that drops a deleted ID's
// rows drops its document too, so neither the lexical index nor the
// checkpoint that recovery loads holds it afterwards. Before the fold
// forgot text, the document came back in SearchLexical as soon as its
// tombstone was folded.
func TestCompactionForgetsFoldedText(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 19)
	opts := Options{SyncEvery: 1, CompactRatio: -1}
	d, err := Create(dir, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	const doomed, kept = 900001, 900002
	v := fixedVec(50, 8)
	for _, id := range []int64{doomed, kept} {
		if err := d.UpsertWith(v, id, withText(fmt.Sprintf("shared doc%d", id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete(doomed); err != nil {
		t.Fatal(err)
	}
	p, err := e.Home(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CompactPartition(p); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	e2 := d2.Engine()
	docs := e2.TextsSnapshot()
	if _, ok := docs[doomed]; ok {
		t.Error("TextsSnapshot still holds the folded document")
	}
	if _, ok := docs[kept]; !ok {
		t.Error("TextsSnapshot lost the live document")
	}
	if dump := postingsDump(t, e2); bytes.Contains(dump, []byte(fmt.Sprintf("\t%d\t", doomed))) {
		t.Errorf("LexicalDump still holds the folded document:\n%s", dump)
	}
	for _, s := range e2.SearchLexical(fmt.Sprintf("doc%d", doomed), 5, nil) {
		t.Errorf("SearchLexical returned %d for the folded document's own token", s.ID)
	}
}

// TestCompactionFoldsOnlyTheDead runs a compaction's first phase, then
// the writes a rebuild can race with, then the rest: of three IDs
// deleted before the compaction, the one nobody touched is folded, the
// one re-upserted with tags and text keeps both, and the one re-upserted
// and deleted again stays hidden: the new graph holds its row dead, and
// with no live row left its text and tags are folded too.
func TestCompactionFoldsOnlyTheDead(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 19)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const folded, revived, redeleted = 900001, 900002, 900003
	v := fixedVec(50, 8)
	for _, id := range []int64{folded, revived, redeleted} {
		a := withText(fmt.Sprintf("old doc%d", id))
		a.Tags = map[string]string{"era": "old"}
		if err := d.UpsertWith(v, id, a); err != nil {
			t.Fatal(err)
		}
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	p, err := e.Home(v)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.beginCompaction(p)
	if err != nil {
		t.Fatal(err)
	}
	a := withText("new text")
	a.Tags = map[string]string{"era": "new"}
	if err := d.UpsertWith(v, revived, a); err != nil {
		t.Fatal(err)
	}
	if err := d.UpsertWith(v, redeleted, withText("new text")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(redeleted); err != nil {
		t.Fatal(err)
	}
	if err := d.finishCompaction(c); err != nil {
		t.Fatal(err)
	}

	if e.Tags(folded) != nil {
		t.Error("the untouched ID was not folded")
	}
	if _, ok := e.Text(folded); ok {
		t.Error("the folded ID kept its text")
	}
	if tags := e.Tags(revived); tags["era"] != "new" {
		t.Errorf("the re-upserted ID has tags %v, want era=new", tags)
	}
	if text, _ := e.Text(revived); text != "new text" {
		t.Errorf("the re-upserted ID has text %q", text)
	}
	if _, ok := e.Text(redeleted); ok || e.Tags(redeleted) != nil {
		t.Error("the ID deleted again kept its text or tags without a live row")
	}
	rs, err := e.Search(v, 10)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[int64]bool, len(rs))
	for _, r := range rs {
		ids[r.ID] = true
	}
	if !ids[revived] || ids[redeleted] || ids[folded] {
		t.Errorf("Search at the shared vector returned %v: want %d and neither %d nor %d", rs, revived, redeleted, folded)
	}
	for _, s := range e.SearchLexical("new text", 5, nil) {
		if s.ID != revived {
			t.Errorf("SearchLexical returned %d", s.ID)
		}
	}
}
