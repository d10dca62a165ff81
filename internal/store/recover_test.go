package store

import (
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fsx"
	"repro/internal/topk"
	"repro/internal/vec"
)

// smallEngine builds a 4-partition engine over clustered data.
func smallEngine(t testing.TB, n int, seed int64) (*core.Engine, *vec.Dataset) {
	t.Helper()
	g, err := dataset.GenerateClusters(dataset.ClusterConfig{
		N: n, Dim: 8, Clusters: 4, Outliers: n / 100, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(4)
	e, err := core.NewEngine(g.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, g.Data
}

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// queryResults answers qs against e and returns exact (ID, Dist) rows.
func queryResults(t testing.TB, e *core.Engine, qs [][]float32, k int) [][]topk.Result {
	t.Helper()
	out := make([][]topk.Result, len(qs))
	for i, q := range qs {
		rs, err := e.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rs
	}
	return out
}

func sameResults(a, b [][]topk.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].ID != b[i][j].ID || a[i][j].Dist != b[i][j].Dist {
				return false
			}
		}
	}
	return true
}

// TestCrashRecoveryExact is the acceptance test: N upserts + M deletes,
// process dies without a snapshot, reopen, and the recovered engine
// answers a fixed query set identically to the never-crashed one.
func TestCrashRecoveryExact(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 1200, 7)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	const nUp, nDel = 120, 60
	for i := 0; i < nUp; i++ {
		if err := d.Upsert(randVec(rng, 8), int64(100000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nDel; i++ {
		// delete a mix of original rows and fresh inserts
		id := int64(rng.Intn(1200))
		if i%3 == 0 {
			id = int64(100000 + rng.Intn(nUp))
		}
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	qs := make([][]float32, 20)
	for i := range qs {
		qs[i] = randVec(rng, 8)
	}
	want := queryResults(t, d.Engine(), qs, 10)

	// "Kill" the process: no checkpoint is written, the WAL is all that
	// survives. Close only releases file handles (SyncEvery=1 made every
	// record durable already).
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Stats().Replayed; got != nUp+nDel {
		t.Errorf("replayed %d records, want %d", got, nUp+nDel)
	}
	got := queryResults(t, d2.Engine(), qs, 10)
	if !sameResults(want, got) {
		t.Fatal("recovered search results differ from the never-crashed engine")
	}
	if d2.Engine().Tombstones() != e.Tombstones() {
		t.Errorf("tombstones %d != %d", d2.Engine().Tombstones(), e.Tombstones())
	}
}

// TestCrashRecoveryTornTail kills the process mid-append: the final WAL
// record is torn and must be dropped, recovering exactly the state as
// of the last whole record.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 11)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		if err := d.Upsert(randVec(rng, 8), int64(200000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := d.Delete(int64(rng.Intn(800))); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([][]float32, 16)
	for i := range qs {
		qs[i] = randVec(rng, 8)
	}
	// Reference state: everything up to (not including) the final op.
	want := queryResults(t, d.Engine(), qs, 10)
	if err := d.Upsert(randVec(rng, 8), 999999); err != nil { // this record will be torn
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record mid-frame.
	segs, err := listSegments(fsx.OS{}, filepath.Join(dir, "wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %d", err, len(segs))
	}
	last := segs[len(segs)-1].path
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Stats().Replayed; got != 50 {
		t.Errorf("replayed %d records, want 50 (torn 51st dropped)", got)
	}
	got := queryResults(t, d2.Engine(), qs, 10)
	if !sameResults(want, got) {
		t.Fatal("torn-tail recovery differs from the state at the last whole record")
	}
	// The store keeps working after repair: the torn sequence number is
	// reused by the next mutation.
	if err := d2.Upsert(randVec(rng, 8), 424242); err != nil {
		t.Fatal(err)
	}
	if d2.Stats().LastSeq != 51 {
		t.Errorf("post-repair seq %d, want 51", d2.Stats().LastSeq)
	}
}

// TestRecoveryAfterCheckpoint verifies the watermark path: records
// folded into a snapshot are not replayed again, and the WAL sheds
// covered segments.
func TestRecoveryAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 13)
	d, err := Create(dir, e, Options{SyncEvery: 1, SegmentBytes: 2048, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 50; i++ {
		if err := d.Upsert(randVec(rng, 8), int64(300000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes BEFORE the checkpoint: their WAL records are truncated
	// with it, so the tombstones must survive via the snapshot (the image
	// holds its dead rows; TestRestoresManifestDeadRows covers the manifest).
	for i := 0; i < 15; i++ {
		if err := d.Delete(int64(rng.Intn(800))); err != nil {
			t.Fatal(err)
		}
	}
	preTombs := d.Engine().Tombstones()
	preInserted := d.Engine().Inserted()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Two-generation retention: the first checkpoint keeps the WAL back
	// to the previous generation's watermark (the empty initial
	// snapshot), so nothing is shed yet — that tail is what a corrupt-
	// snapshot fallback would replay. A second checkpoint retires the
	// initial generation and sheds the segments it was holding.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := listSegments(fsx.OS{}, filepath.Join(dir, "wal"))
	if len(segsAfter) != 1 {
		t.Errorf("second checkpoint left %d WAL segments, want 1", len(segsAfter))
	}
	for i := 0; i < 10; i++ {
		if err := d.Upsert(randVec(rng, 8), int64(400000+i)); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([][]float32, 12)
	for i := range qs {
		qs[i] = randVec(rng, 8)
	}
	want := queryResults(t, d.Engine(), qs, 10)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Stats().Replayed; got != 10 {
		t.Errorf("replayed %d records, want only the 10 past the watermark", got)
	}
	if got := d2.Engine().Tombstones(); got != preTombs {
		t.Errorf("tombstones did not survive the checkpoint: %d, want %d", got, preTombs)
	}
	if got := d2.Engine().Inserted(); got != preInserted+10 {
		t.Errorf("inserted counter %d after recovery, want %d", got, preInserted+10)
	}
	if got := queryResults(t, d2.Engine(), qs, 10); !sameResults(want, got) {
		t.Fatal("post-checkpoint recovery differs")
	}
}

// TestRestoresManifestDeadRows: a generation whose image predates the
// image's dead-row section keeps its deleted and replaced rows dead
// through the manifest's "dead" alone.
func TestRestoresManifestDeadRows(t *testing.T) {
	dir := t.TempDir()
	e, ds := smallEngine(t, 600, 29)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	gone := []int{3, 40, 77, 150, 321, 8, 90, 200} // deleted, then replaced
	for _, i := range gone[:5] {
		if err := d.Delete(ds.ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	far := []float32{100, 100, 100, 100, 100, 100, 100, 100}
	for _, i := range gone[5:] {
		if err := d.Upsert(far, ds.ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := readManifest(fsx.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	g := &m.Generations[0]
	if n := len(g.Dead); n == 0 {
		t.Fatal("the manifest names no dead rows")
	}
	path := filepath.Join(dir, g.Snapshot)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img := imageWithoutDead(t, loadEngineBytes(t, b))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	g.CRC, g.Bytes = crc32.Checksum(img, crcTable), int64(len(img))
	if err := writeManifest(fsx.OS{}, dir, m); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st := d2.Stats(); st.Replayed != 0 || st.Quarantined != 0 {
		t.Fatalf("replayed %d records (%d quarantined), want the checkpoint alone", st.Replayed, st.Quarantined)
	}
	if got := d2.Engine().Tombstones(); got != len(gone) {
		t.Errorf("Tombstones() = %d, want %d", got, len(gone))
	}
	for _, i := range gone {
		rs, err := d2.Engine().Search(ds.At(i), 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.ID == ds.ID(i) {
				t.Errorf("ID %d found at its dead row's vector: %v", r.ID, rs)
			}
		}
	}
}

func TestOpenOrCreate(t *testing.T) {
	dir := t.TempDir()
	builds := 0
	build := func() (*core.Engine, error) {
		builds++
		e, _ := smallEngine(t, 600, 3)
		return e, nil
	}
	d, err := OpenOrCreate(dir, build, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("first OpenOrCreate built %d times", builds)
	}
	if err := d.Upsert(make([]float32, 8), 777); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenOrCreate(dir, build, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if builds != 1 {
		t.Errorf("second OpenOrCreate rebuilt (%d builds); should have recovered", builds)
	}
	if d2.Engine().Inserted() != 1 {
		t.Errorf("recovered inserted=%d, want 1", d2.Engine().Inserted())
	}
	// Create on an initialised dir must refuse.
	e3, _ := smallEngine(t, 600, 4)
	if _, err := Create(dir, e3, Options{}); err == nil {
		t.Error("Create over an existing store: want error")
	}
}
