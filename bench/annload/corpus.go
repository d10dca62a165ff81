package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/lexical"
	"repro/internal/vec"
)

// Every input the server sees is generated here from the seed: the
// corpus, the query pool, tags, document texts and query texts. The tag
// and text rules mirror exp.tagsFor / exp.buildHybridTexts /
// exp.hybridTruth, which are unexported; they are re-implemented rather
// than exported so the benchmark changes no file outside bench/.

const (
	dim = 128
	// topK is the neighbour count of every request.
	topK = 10
	// legK is the per-leg depth core.HybridOptions defaults to (4k).
	legK = 4 * topK
	// verifyQueries is the verification sample: the head of the query
	// pool, scored against exact truth. Like the corpus it is the same for
	// every --seed, so on the read-only workloads recall_at_10 is a
	// function of the code alone and any change in it is a real one.
	verifyQueries = 512
	// hotQueries is mixed_rw's hot set.
	hotQueries = 32
	// corpusSeed generates the corpus and the verification sample and
	// builds the index, whatever --seed says: they are the benchmark's
	// dataset files. --seed draws everything else sent to the server. Recall here is set by which
	// partitions the routing reaches, and on a re-drawn corpus it swings
	// by 7-13% of its value, which would force a bound on recall_at_10
	// too wide to catch a regression.
	corpusSeed = 1
)

// corpus is one run's generated input. seed is --seed.
type corpus struct {
	seed    int64
	ds      *vec.Dataset
	queries *vec.Dataset
	// texts (by dataset position) and qtexts (by query position) are set
	// when the topology indexes text.
	texts  []string
	qtexts []string
}

func newCorpus(points, poolQueries int, seed int64, withText bool) (*corpus, error) {
	ds, err := dataset.Named("sift", points, corpusSeed)
	if err != nil {
		return nil, err
	}
	queries := dataset.PerturbedQueries(ds, verifyQueries, 4, corpusSeed+1)
	queries.AppendAll(dataset.PerturbedQueries(ds, poolQueries-verifyQueries, 4, seed+1))
	c := &corpus{seed: seed, ds: ds, queries: queries}
	if withText {
		c.buildTexts()
	}
	return c, nil
}

// selTier is one filter selectivity: every point carries t100, every
// 10th t10, every 100th t1.
type selTier struct {
	name   string
	filter string
	match  func(id int64) bool
}

var selTiers = []selTier{
	{"s01", "t1=1", func(id int64) bool { return id%100 == 0 }},
	{"s10", "t10=1", func(id int64) bool { return id%10 == 0 }},
	{"s100", "t100=1", func(int64) bool { return true }},
}

func tagsFor(id int64) map[string]string {
	t := map[string]string{"t100": "1"}
	if id%10 == 0 {
		t["t10"] = "1"
	}
	if id%100 == 0 {
		t["t1"] = "1"
	}
	return t
}

var vocab = []string{
	"amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet",
	"harbor", "indigo", "juniper", "krill", "lumen", "marble", "nectar",
	"onyx", "pumice", "quartz", "raven", "slate", "tundra", "umber",
	"violet", "willow", "xenon", "yarrow", "zephyr",
}

// buildTexts gives every document 4–8 common words and every query a
// text: one query in five asks for a unique needle token planted on a
// vector-unrelated document, the rest ask for two common words.
func (c *corpus) buildTexts() {
	n, nq := c.ds.Len(), c.queries.Len()
	rng := rand.New(rand.NewSource(corpusSeed + 97))
	c.texts = make([]string, n)
	c.qtexts = make([]string, nq)
	for i := range c.texts {
		words := 4 + rng.Intn(5)
		b := make([]byte, 0, 64)
		for j := 0; j < words; j++ {
			if j > 0 {
				b = append(b, ' ')
			}
			b = append(b, vocab[rng.Intn(len(vocab))]...)
		}
		c.texts[i] = string(b)
	}
	for i := range c.qtexts {
		if i == verifyQueries {
			rng = rand.New(rand.NewSource(c.seed + 97))
		}
		if i%5 == 0 {
			pos := int((int64(i)*2654435761 + 12345) % int64(n))
			if pos == i%n {
				pos = (pos + n/2) % n
			}
			token := "needle" + strconv.Itoa(i)
			c.texts[pos] += " " + token
			c.qtexts[i] = token
		} else {
			c.qtexts[i] = vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
		}
	}
}

// verifySet is the verification sample.
func (c *corpus) verifySet() *vec.Dataset { return c.queries.Slice(0, verifyQueries) }

// plainTruth is exact top-k over live, a dataset holding the points a
// correct server may return.
func plainTruth(live, queries *vec.Dataset) [][]int32 {
	return bruteforce.GroundTruth(live, queries, topK, vec.L2)
}

// filteredTruth is exact top-k restricted to the tier's matching points.
func (c *corpus) filteredTruth(tier selTier, queries *vec.Dataset) [][]int32 {
	var idx []int
	for i := 0; i < c.ds.Len(); i++ {
		if tier.match(c.ds.ID(i)) {
			idx = append(idx, i)
		}
	}
	return bruteforce.GroundTruth(c.ds.Select(idx), queries, topK, vec.L2)
}

// hybridTruth fuses the exact legs — brute-force vector top-legK and
// exact BM25 top-legK from an index of the generator's own texts — with
// the RRF the engine defaults to.
func (c *corpus) hybridTruth(queries *vec.Dataset) [][]int32 {
	idx := lexical.NewIndex(lexical.Config{})
	for i, t := range c.texts {
		idx.Set(c.ds.ID(i), t, nil)
	}
	vecLegs := bruteforce.SearchBatch(c.ds, queries, legK, vec.L2)
	out := make([][]int32, queries.Len())
	for i := range out {
		vl := make([]fusion.Candidate, len(vecLegs[i]))
		for j, r := range vecLegs[i] {
			vl[j] = fusion.Candidate{ID: r.ID, Score: -float64(r.Dist)}
		}
		fusion.Sort(vl)
		scored := idx.Search(c.qtexts[i], legK, nil)
		ll := make([]fusion.Candidate, len(scored))
		for j, s := range scored {
			ll[j] = fusion.Candidate{ID: s.ID, Score: s.Score}
		}
		fused := fusion.RRF(0, topK, vl, ll)
		row := make([]int32, len(fused))
		for j, f := range fused {
			row[j] = int32(f.ID)
		}
		out[i] = row
	}
	return out
}

// postingsPerQuery is Σ df of a query's terms, averaged over the given
// queries, counted from the generator's texts (each document counts
// once per distinct term).
func (c *corpus) postingsPerQuery(nq int) float64 {
	df := map[string]int{}
	for _, t := range c.texts {
		seen := map[string]bool{}
		for _, tok := range lexical.Tokenize(t) {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	total := 0
	for i := 0; i < nq; i++ {
		seen := map[string]bool{}
		for _, tok := range lexical.Tokenize(c.qtexts[i]) {
			if !seen[tok] {
				seen[tok] = true
				total += df[tok]
			}
		}
	}
	return float64(total) / float64(nq)
}

// Request-body encoding. Bodies are built once, before set-up, so the
// measured phase only writes bytes.

func appendVector(b []byte, v []float32) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
	}
	return append(b, ']')
}

func searchBody(q []float32, filter string) []byte {
	b := append(make([]byte, 0, 1536), `{"k":10,"query":`...)
	b = appendVector(b, q)
	if filter != "" {
		b = append(b, `,"filter":`...)
		b = strconv.AppendQuote(b, filter)
	}
	return append(b, '}')
}

func batchBody(queries *vec.Dataset, lo, hi int) []byte {
	b := append(make([]byte, 0, (hi-lo)*1536), `{"k":10,"queries":[`...)
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		b = appendVector(b, queries.At(i))
	}
	return append(b, "]}"...)
}

func hybridBody(q []float32, text string) []byte {
	b := append(make([]byte, 0, 1536), `{"k":10,"text":`...)
	b = strconv.AppendQuote(b, text)
	b = append(b, `,"query":`...)
	b = appendVector(b, q)
	return append(b, '}')
}

// upsertPoint is one point of an upsert POST.
type upsertPoint struct {
	id   int64
	vec  []float32
	tags map[string]string
	text string
}

func upsertBody(b []byte, pts []upsertPoint) []byte {
	b = append(b[:0], `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, p.id, 10)
		b = append(b, `,"vector":`...)
		b = appendVector(b, p.vec)
		if len(p.tags) > 0 {
			b = append(b, `,"tags":{`...)
			first := true
			for _, k := range []string{"t1", "t10", "t100"} {
				if v, ok := p.tags[k]; ok {
					if !first {
						b = append(b, ',')
					}
					first = false
					b = strconv.AppendQuote(b, k)
					b = append(b, ':')
					b = strconv.AppendQuote(b, v)
				}
			}
			b = append(b, '}')
		}
		if p.text != "" {
			b = append(b, `,"text":`...)
			b = strconv.AppendQuote(b, p.text)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

func deleteBody(b []byte, ids []int64) []byte {
	b = append(b[:0], `{"ids":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, id, 10)
	}
	return append(b, "]}"...)
}

// httpRequest frames body as a keep-alive HTTP/1.1 POST.
func httpRequest(b []byte, path string, body []byte) []byte {
	b = append(b[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: annload\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// newPointVector derives the vector of a point written during the run:
// a perturbed copy of a corpus row, like the queries.
func (c *corpus) newPointVector(rng *rand.Rand, dst []float32) []float32 {
	base := c.ds.At(rng.Intn(c.ds.Len()))
	dst = dst[:0]
	for _, x := range base {
		dst = append(dst, x+float32(rng.NormFloat64()*4))
	}
	return dst
}

func (c *corpus) String() string {
	return fmt.Sprintf("sift-like %d×%d (corpus seed %d), %d pool queries", c.ds.Len(), dim, corpusSeed, c.queries.Len())
}
