package serve

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/collection"
	"repro/internal/hnsw"
)

func keysOf(t *testing.T, v any) []string {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("not a /varz section: %v", v)
	}
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestVarzSectionsAgree: the single-engine gateway and a collection
// report an engine's occupancy, lexical and frozen keys from one
// builder. The collection's frozen section used to carry 3 of the 11
// keys and its lexical section lacked searches / postings_scanned.
func TestVarzSectionsAgree(t *testing.T) {
	e := testEngine(t)
	if err := e.Freeze(hnsw.FreezeOptions{SQ8: true}); err != nil {
		t.Fatal(err)
	}
	single := (&EngineBackend{Engine: e, Lexical: true}).Varz()

	_, _, reg := testCollectionServer(t, ServerConfig{})
	col, err := reg.Create("frozen-docs", collection.Config{Dim: 8, Lexical: true, Frozen: true, SQ8: true})
	if err != nil {
		t.Fatal(err)
	}
	tenant := col.Varz()

	for _, section := range []string{"frozen", "lexical"} {
		got, want := keysOf(t, tenant[section]), keysOf(t, single[section])
		if section == "lexical" { // the per-collection fusion counters ride along
			want = append(want, "hybrid_rrf", "hybrid_weighted")
			sort.Strings(want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("collection %s keys %v, single-engine %v", section, got, want)
		}
	}
	for _, k := range keysOf(t, single["engine"]) {
		if _, ok := tenant[k]; !ok && k != "local" {
			t.Errorf("collection section lacks the engine key %q", k)
		}
	}
}
