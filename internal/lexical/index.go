package lexical

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// BM25 defaults (the standard Robertson/Walker settings).
const (
	DefaultK1 = 1.2
	DefaultB  = 0.75
)

// postingBytes is the in-memory footprint of one posting entry,
// reported under /varz so operators can see what the lexical index
// costs.
const postingBytes = int64(unsafe.Sizeof(posting{}))

// Config parameterizes an Index. Zero values select the defaults
// (K1=1.2, B=0.75, no stopwords); B is clamped to [0,1].
type Config struct {
	K1        float64
	B         float64
	Stopwords []string
}

func (c Config) withDefaults() Config {
	if c.K1 <= 0 {
		c.K1 = DefaultK1
	}
	if c.B <= 0 {
		c.B = 0
	}
	if c.B > 1 {
		c.B = 1
	}
	if c.B == 0 {
		c.B = DefaultB
	}
	return c
}

// Doc is the durable unit the store persists per document: the raw text
// (the index is rebuilt by re-tokenizing it) and a copy of the vector it
// was upserted with, kept so fused candidates can be re-scored with
// exact float32 distances regardless of which approximate leg produced
// them.
type Doc struct {
	Text string    `json:"t"`
	Vec  []float32 `json:"v,omitempty"`
}

// Scored is one BM25 hit, higher score = better match.
type Scored struct {
	ID    int64
	Score float64
}

// posting records that the document at ordinal ord contained a term tf
// times at a given document version. Postings are append-only;
// superseded versions stay in place and scoring skips any entry whose
// version no longer matches the document's current version.
type posting struct {
	ver uint64
	ord uint32
	tf  uint32
}

// postingList is the immutable published view of one term's postings.
// Writers may append into spare capacity beyond the published length
// (readers never index past their header's len) and then publish a new
// header, so growth is amortized without copying the whole list.
type postingList struct {
	entries []posting
}

// docEntry is the current state of one document. Entries are immutable
// once published.
type docEntry struct {
	id     int64
	ver    uint64
	tokens int
	text   string
	vec    []float32
}

// docSlot is one row of the document table: the current entry of the
// document that owns the ordinal, nil while that document is deleted.
type docSlot = atomic.Pointer[docEntry]

// Stats is a point-in-time summary for /varz.
type Stats struct {
	Docs          int   `json:"docs"`
	Terms         int   `json:"terms"`
	PostingsBytes int64 `json:"postings_bytes"`
	Searches      int64 `json:"searches"`
	// PostingsScanned is the leg's work counter: posting entries read
	// by all searches so far, stale ones included.
	PostingsScanned int64   `json:"postings_scanned"`
	AvgDocLen       float64 `json:"avg_doc_len"`
	K1              float64 `json:"k1"`
	B               float64 `json:"b"`
}

// Index is the BM25 inverted index. Reads (Search, Text, Vector, Stats)
// are lock-free; writes (Set, Delete, Restore) are serialized by an
// internal mutex.
//
// A document ID keeps the ordinal it was given at its first Set until
// the next Restore, through replaces and deletes alike, so one ordinal
// never names two documents. Postings carry the ordinal, and the
// document table turns it into the document's current entry with one
// array index.
type Index struct {
	cfg  Config
	stop map[string]struct{}

	mu   sync.Mutex // serializes writers
	ver  uint64     // last assigned document version (mu-guarded)
	next uint32     // next unassigned ordinal (mu-guarded)

	postings sync.Map // string -> *postingList
	ords     sync.Map // int64 -> uint32 ordinal; entries outlive Delete
	// table is the document table, indexed by ordinal; slots from next
	// on are still nil. When it is full the writer copies it into one
	// twice the size and publishes that, so a reader that loaded the
	// smaller table keeps a view of the index as of the copy.
	table atomic.Pointer[[]docSlot]

	scratch sync.Pool // *scratch

	ndocs    atomic.Int64
	totalTok atomic.Int64
	terms    atomic.Int64
	pbytes   atomic.Int64
	searches atomic.Int64
	scanned  atomic.Int64
}

// NewIndex returns an empty index with cfg's BM25 parameters and
// stopword set.
func NewIndex(cfg Config) *Index {
	cfg = cfg.withDefaults()
	return &Index{cfg: cfg, stop: stopSet(cfg.Stopwords)}
}

// Params returns the effective BM25 parameters.
func (x *Index) Params() (k1, b float64) { return x.cfg.K1, x.cfg.B }

// tokenize applies the index's stopword filter on top of Tokenize.
func (x *Index) tokenize(s string) []string {
	toks := Tokenize(s)
	if x.stop == nil {
		return toks
	}
	kept := toks[:0]
	for _, t := range toks {
		if _, drop := x.stop[t]; !drop {
			kept = append(kept, t)
		}
	}
	return kept
}

// slots returns the published document table (nil before the first Set).
func (x *Index) slots() []docSlot {
	if t := x.table.Load(); t != nil {
		return *t
	}
	return nil
}

// live returns the entry p still describes: the document at p.ord if
// its current version is p's, else nil.
func live(slots []docSlot, p posting) *docEntry {
	if int(p.ord) >= len(slots) {
		return nil // ordinal assigned after slots was loaded
	}
	if e := slots[p.ord].Load(); e != nil && e.ver == p.ver {
		return e
	}
	return nil
}

// entry returns id's current entry, nil when id has no live document.
func (x *Index) entry(id int64) *docEntry {
	v, ok := x.ords.Load(id)
	if !ok {
		return nil
	}
	slots := x.slots()
	if ord := v.(uint32); int(ord) < len(slots) {
		// A Restore between the two loads renumbers; the ID check
		// keeps that from answering with another document.
		if e := slots[ord].Load(); e != nil && e.id == id {
			return e
		}
	}
	return nil
}

// slot returns id's row of the document table, assigning id the next
// ordinal on first sight. Must hold mu.
func (x *Index) slot(id int64) (*docSlot, uint32) {
	slots := x.slots()
	if v, ok := x.ords.Load(id); ok {
		ord := v.(uint32)
		return &slots[ord], ord
	}
	ord := x.next
	x.next++
	if int(ord) == len(slots) {
		grown := make([]docSlot, max(64, 2*len(slots)))
		for i := range slots {
			grown[i].Store(slots[i].Load())
		}
		slots = grown
		x.table.Store(&grown)
	}
	// Published after the table that holds ord, so whoever finds ord
	// here finds its slot.
	x.ords.Store(id, ord)
	return &slots[ord], ord
}

// Set indexes text under id, replacing any previous document. The
// vector is copied and retained for exact re-scoring of fused results.
func (x *Index) Set(id int64, text string, vec []float32) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.setLocked(id, text, vec)
}

func (x *Index) setLocked(id int64, text string, vec []float32) {
	toks := x.tokenize(text)
	x.ver++
	ver := x.ver
	slot, ord := x.slot(id)

	// Term frequencies in first-occurrence order so postings append
	// deterministically for a given document text.
	tf := make(map[string]uint32, len(toks))
	order := make([]string, 0, len(toks))
	for _, t := range toks {
		if tf[t] == 0 {
			order = append(order, t)
		}
		tf[t]++
	}
	for _, t := range order {
		x.appendPosting(t, posting{ver: ver, ord: ord, tf: tf[t]})
	}

	// The entry goes in after its postings: a reader that finds ver in
	// the table finds every posting of ver in the lists (see Search).
	old := slot.Load()
	vcp := append([]float32(nil), vec...)
	slot.Store(&docEntry{id: id, ver: ver, tokens: len(toks), text: text, vec: vcp})
	if old == nil {
		x.ndocs.Add(1)
	} else {
		x.totalTok.Add(-int64(old.tokens))
	}
	x.totalTok.Add(int64(len(toks)))
}

// SetVector replaces the vector id's document retains, keeping its text,
// postings and version: the ID was upserted without text. A no-op when
// id has no document.
func (x *Index) SetVector(id int64, vec []float32) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if e := x.entry(id); e != nil {
		slot, _ := x.slot(id)
		slot.Store(&docEntry{id: id, ver: e.ver, tokens: e.tokens, text: e.text, vec: append([]float32(nil), vec...)})
	}
}

// appendPosting publishes term's list with p appended. Must hold mu.
func (x *Index) appendPosting(term string, p posting) {
	var entries []posting
	if v, ok := x.postings.Load(term); ok {
		entries = v.(*postingList).entries
	} else {
		x.terms.Add(1)
	}
	// append may write into spare capacity past the published length;
	// concurrent readers hold the old header and never index that far.
	entries = append(entries, p)
	x.postings.Store(term, &postingList{entries: entries})
	x.pbytes.Add(postingBytes)
}

// Delete removes id's document. Its postings stay behind as stale
// versions that scoring skips, and id keeps its ordinal.
func (x *Index) Delete(id int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	e := x.entry(id)
	if e == nil {
		return
	}
	slot, _ := x.slot(id)
	slot.Store(nil)
	x.ndocs.Add(-1)
	x.totalTok.Add(-int64(e.tokens))
}

// Text returns id's stored raw text.
func (x *Index) Text(id int64) (string, bool) {
	e := x.entry(id)
	if e == nil {
		return "", false
	}
	return e.text, true
}

// Vector returns the vector id was last upserted with. The slice is
// shared and must not be mutated.
func (x *Index) Vector(id int64) ([]float32, bool) {
	e := x.entry(id)
	if e == nil {
		return nil, false
	}
	return e.vec, true
}

// Docs returns the number of live documents.
func (x *Index) Docs() int { return int(x.ndocs.Load()) }

// Stats summarizes the index for /varz.
func (x *Index) Stats() Stats {
	n := x.ndocs.Load()
	avg := 0.0
	if n > 0 {
		avg = float64(x.totalTok.Load()) / float64(n)
	}
	return Stats{
		Docs:            int(n),
		Terms:           int(x.terms.Load()),
		PostingsBytes:   x.pbytes.Load(),
		Searches:        x.searches.Load(),
		PostingsScanned: x.scanned.Load(),
		AvgDocLen:       avg,
		K1:              x.cfg.K1,
		B:               x.cfg.B,
	}
}

// hit is one posting of the term being scored that passed the version
// and allow checks.
type hit struct {
	ord uint32
	tf  uint32
	dl  float64
}

// scratch is one search's working memory, pooled per index. docs and
// scores are indexed by ordinal and all-zero between searches; touched
// lists the ordinals a search wrote so that only those are reset.
type scratch struct {
	docs    []*docEntry // what the search resolved an ordinal to: nil = not seen yet
	scores  []float64
	touched []uint32
	hits    []hit
}

// denied stands in scratch.docs for a document the allow predicate
// refused. Versions start at 1, so no posting matches it.
var denied = new(docEntry)

func (x *Index) getScratch(n int) *scratch {
	s, _ := x.scratch.Get().(*scratch)
	if s == nil {
		s = new(scratch)
	}
	if len(s.docs) < n {
		s.docs, s.scores = make([]*docEntry, n), make([]float64, n)
	}
	return s
}

func (x *Index) putScratch(s *scratch) {
	for _, ord := range s.touched {
		s.docs[ord], s.scores[ord] = nil, 0
	}
	s.touched = s.touched[:0]
	x.scratch.Put(s)
}

// Search scores the live corpus with BM25 and returns the top k,
// best-first. allow (optional) restricts the candidate set — hybrid
// search passes liveness + filter predicates through it, and document
// frequencies are computed over the allowed live set so scores describe
// the corpus actually being searched; it is asked at most once per
// document. Ties break on ascending ID, and score accumulation order is
// fixed (query-term order), so rankings are bit-reproducible for equal
// index contents — in particular before and after crash recovery.
//
// A search racing a replace of a document scores one version of it: the
// first version it finds current is the one it keeps for every later
// posting and term. It cannot miss the document either. Set appends a
// version's postings before it puts the version in the table, so when a
// posting turns out superseded, its successor's posting is already in
// the list; each list is therefore re-read until it has stopped growing.
func (x *Index) Search(query string, k int, allow func(int64) bool) []Scored {
	x.searches.Add(1)
	if k <= 0 {
		return nil
	}
	toks := x.tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(toks))
	terms := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	n := float64(x.ndocs.Load())
	if n == 0 {
		return nil
	}
	avgdl := float64(x.totalTok.Load()) / n
	if avgdl <= 0 {
		avgdl = 1
	}

	slots := x.slots()
	s := x.getScratch(len(slots))
	scanned := 0
	for _, t := range terms {
		s.hits = s.hits[:0]
		for from := 0; ; {
			v, ok := x.postings.Load(t)
			if !ok {
				break
			}
			entries := v.(*postingList).entries
			if from == len(entries) {
				break
			}
			for _, p := range entries[from:] {
				if int(p.ord) >= len(slots) {
					continue // ordinal assigned after slots was loaded
				}
				d := s.docs[p.ord]
				if d == nil {
					if d = live(slots, p); d == nil {
						continue
					}
					if allow != nil && !allow(d.id) {
						d = denied
					}
					s.docs[p.ord] = d
					s.touched = append(s.touched, p.ord)
				}
				if d.ver != p.ver {
					continue
				}
				s.hits = append(s.hits, hit{ord: p.ord, tf: p.tf, dl: float64(d.tokens)})
			}
			scanned += len(entries) - from
			from = len(entries)
		}
		df := float64(len(s.hits))
		if df == 0 {
			continue
		}
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, h := range s.hits {
			tf := float64(h.tf)
			norm := tf * (x.cfg.K1 + 1) / (tf + x.cfg.K1*(1-x.cfg.B+x.cfg.B*h.dl/avgdl))
			s.scores[h.ord] += idf * norm
		}
	}
	x.scanned.Add(int64(scanned))

	// Every touched document that was not denied matched a posting and
	// has a score. Keep the k best in a heap with the worst on top,
	// then pop the heap into best-first order.
	k = min(k, len(s.touched))
	out := make([]Scored, 0, k)
	for _, ord := range s.touched {
		d := s.docs[ord]
		if d == denied {
			continue
		}
		c := Scored{ID: d.id, Score: s.scores[ord]}
		if len(out) < k {
			out = append(out, c)
			siftUp(out, len(out)-1)
		} else if worse(out[0], c) {
			out[0] = c
			siftDown(out, 0)
		}
	}
	x.putScratch(s)
	for end := len(out) - 1; end > 0; end-- {
		out[0], out[end] = out[end], out[0]
		siftDown(out[:end], 0)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// worse orders hits for the top-k heap: lower score, then higher ID.
func worse(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

func siftUp(h []Scored, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []Scored, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && worse(h[c+1], h[c]) {
			c++
		}
		if !worse(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Snapshot returns a point-in-time view of every live document; the
// durability layer persists it alongside each engine snapshot. Vec
// slices are shared and must not be mutated.
func (x *Index) Snapshot() map[int64]Doc {
	out := make(map[int64]Doc, x.Docs())
	slots := x.slots()
	for i := range slots {
		if e := slots[i].Load(); e != nil {
			out[e.id] = Doc{Text: e.text, Vec: e.vec}
		}
	}
	return out
}

// Restore replaces the whole index with docs — the recovery half of
// Snapshot, called after LoadEngine before WAL tail replay. Documents
// are re-tokenized in ascending ID order, so two restores of equal
// contents produce identical indexes. The index is emptied in place
// (the Index pointer is never reassigned), matching the tagStore
// recovery discipline. Versions keep counting up, so a posting from
// before the Restore matches no document after it.
func (x *Index) Restore(docs map[int64]Doc) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ords.Range(func(k, _ any) bool {
		x.ords.Delete(k)
		return true
	})
	x.postings.Range(func(k, _ any) bool {
		x.postings.Delete(k)
		return true
	})
	x.table.Store(nil)
	x.next = 0
	x.ndocs.Store(0)
	x.totalTok.Store(0)
	x.terms.Store(0)
	x.pbytes.Store(0)
	ids := make([]int64, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d := docs[id]
		x.setLocked(id, d.Text, d.Vec)
	}
}

// DumpPostings writes the live index in a canonical text form: a header
// with corpus totals, then one line per live posting sorted by (term,
// ID). Stale entries are excluded, so any two indexes holding the same
// live documents dump identical bytes regardless of construction
// history — full WAL replay, sidecar restore, or live writes. The
// crash-recovery tests diff this against an oracle.
func (x *Index) DumpPostings(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "docs=%d tokens=%d k1=%g b=%g\n", x.ndocs.Load(), x.totalTok.Load(), x.cfg.K1, x.cfg.B)
	var terms []string
	x.postings.Range(func(k, _ any) bool {
		terms = append(terms, k.(string))
		return true
	})
	sort.Strings(terms)
	type row struct {
		id int64
		tf uint32
		dl int
	}
	slots := x.slots()
	for _, t := range terms {
		v, ok := x.postings.Load(t)
		if !ok {
			continue
		}
		var rows []row
		for _, p := range v.(*postingList).entries {
			if d := live(slots, p); d != nil {
				rows = append(rows, row{id: d.id, tf: p.tf, dl: d.tokens})
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
		for _, r := range rows {
			fmt.Fprintf(bw, "%s\t%d\t%d\t%d\n", t, r.id, r.tf, r.dl)
		}
	}
	return bw.Flush()
}
