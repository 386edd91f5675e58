package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"uniask/internal/index"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

// doc builds a minimal chunk document.
func doc(id, parent, title, content string) index.Document {
	return index.Document{
		ID:       id,
		ParentID: parent,
		Fields:   map[string]string{"title": title, "content": content},
	}
}

// fill adds n synthetic chunks (two chunks per parent) and returns their ids.
func fill(t *testing.T, s *shard.Sharded, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc%03d#%d", i/2, i%2)
		parent := fmt.Sprintf("doc%03d", i/2)
		if err := s.Add(doc(id, parent, fmt.Sprintf("titolo %d", i), fmt.Sprintf("contenuto numero %d carta", i))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestRoutingIsStableAndExhaustive(t *testing.T) {
	s := shard.New(shard.Config{Shards: 4})
	ids := fill(t, s, 40)
	perShard := 0
	for i := 0; i < s.NumShards(); i++ {
		perShard += s.Shard(i).Len()
	}
	if perShard != len(ids) || s.Len() != len(ids) {
		t.Fatalf("shards hold %d docs, facade says %d, want %d", perShard, s.Len(), len(ids))
	}
	for _, id := range ids {
		want := s.ShardFor(id)
		if got := s.ShardFor(id); got != want {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", id, want, got)
		}
		if _, ok := s.Shard(want).DocByID(id); !ok {
			t.Fatalf("doc %q not on its routed shard %d", id, want)
		}
		if _, ok := s.DocByID(id); !ok {
			t.Fatalf("facade DocByID(%q) missed", id)
		}
	}
	// With 40 ids over 4 shards, FNV should not collapse onto one shard.
	occupied := 0
	for i := 0; i < s.NumShards(); i++ {
		if s.Shard(i).Len() > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Fatalf("routing collapsed onto %d shard(s)", occupied)
	}
}

func TestDeleteRoutesAndParentFansOut(t *testing.T) {
	s := shard.New(shard.Config{Shards: 4})
	ids := fill(t, s, 20)

	if !s.Delete(ids[0]) {
		t.Fatal("Delete on existing chunk returned false")
	}
	if s.Delete(ids[0]) {
		t.Fatal("second Delete on same chunk returned true")
	}
	if s.Tombstones() != 1 || s.LiveLen() != len(ids)-1 {
		t.Fatalf("tombstones=%d live=%d after one delete", s.Tombstones(), s.LiveLen())
	}

	// doc003 has two chunks which may live on different shards; the parent
	// delete must reach both.
	if p, err := s.HasParents([]string{"doc003", "nodoc"}); err != nil || !p[0] || p[1] {
		t.Fatalf("HasParents(doc003, nodoc) = %v, %v before delete", p, err)
	}
	if n := s.DeleteParent("doc003"); n != 2 {
		t.Fatalf("DeleteParent removed %d chunks, want 2", n)
	}
	if p, err := s.HasParents([]string{"doc003"}); err != nil || p[0] {
		t.Fatalf("HasParents(doc003) = %v, %v after DeleteParent", p, err)
	}
	if s.LiveLen() != len(ids)-3 {
		t.Fatalf("live=%d, want %d", s.LiveLen(), len(ids)-3)
	}
}

func TestAddBulkMatchesSequentialAdds(t *testing.T) {
	docs := make([]index.Document, 30)
	for i := range docs {
		docs[i] = doc(fmt.Sprintf("b%03d#0", i), fmt.Sprintf("b%03d", i),
			fmt.Sprintf("titolo %d", i), fmt.Sprintf("contenuto carta %d", i))
	}
	seq := shard.New(shard.Config{Shards: 4})
	for _, d := range docs {
		if err := seq.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	bulk := shard.New(shard.Config{Shards: 4})
	if err := bulk.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if a, b := seq.Shard(i).Len(), bulk.Shard(i).Len(); a != b {
			t.Fatalf("shard %d: sequential=%d bulk=%d docs", i, a, b)
		}
	}
	a := fmt.Sprintf("%#v", seq.SearchText("contenuto carta", 10, index.TextOptions{}))
	b := fmt.Sprintf("%#v", bulk.SearchText("contenuto carta", 10, index.TextOptions{}))
	if a != b {
		t.Fatalf("bulk-built facade ranks differently:\nseq:  %s\nbulk: %s", a, b)
	}
}

func TestShardStatsCountQueries(t *testing.T) {
	s := shard.New(shard.Config{Shards: 2})
	fill(t, s, 10)
	s.SearchText("contenuto carta", 5, index.TextOptions{})
	s.SearchVector("contentVector", vector.Vector{}, 5, nil) // no vector field: still counts per-shard calls
	stats := s.ShardStats()
	if len(stats) != 2 {
		t.Fatalf("ShardStats returned %d rows, want 2", len(stats))
	}
	var queries uint64
	docs := 0
	for i, st := range stats {
		if st.Shard != i {
			t.Fatalf("row %d has Shard=%d", i, st.Shard)
		}
		queries += st.Queries
		docs += st.Docs
	}
	if queries == 0 {
		t.Fatal("no per-shard queries recorded")
	}
	if docs != 10 {
		t.Fatalf("gauge docs sum %d, want 10", docs)
	}
}

func TestSingleShardFacadeMatchesIndex(t *testing.T) {
	plain := index.New(index.Config{})
	facade := shard.New(shard.Config{Shards: 1})
	for i := 0; i < 10; i++ {
		d := doc(fmt.Sprintf("s%02d#0", i), fmt.Sprintf("s%02d", i),
			fmt.Sprintf("titolo %d", i), fmt.Sprintf("contenuto carta %d", i))
		if err := plain.Add(d); err != nil {
			t.Fatal(err)
		}
		if err := facade.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	a := fmt.Sprintf("%#v", plain.SearchText("contenuto carta", 5, index.TextOptions{}))
	b := fmt.Sprintf("%#v", facade.SearchText("contenuto carta", 5, index.TextOptions{}))
	if a != b {
		t.Fatalf("single-shard facade diverged:\nindex:  %s\nfacade: %s", a, b)
	}
}

// idsOnShards returns two chunk ids the facade routes to different shards.
func idsOnShards(s *shard.Sharded) (a, b string) {
	a = "v000#0"
	for i := 1; ; i++ {
		b = fmt.Sprintf("v%03d#0", i)
		if s.ShardFor(b) != s.ShardFor(a) {
			return a, b
		}
	}
}

// vecDoc is a chunk carrying one contentVector.
func vecDoc(id string, v vector.Vector) index.Document {
	d := doc(id, id, "titolo", "contenuto")
	d.Vectors = map[string]vector.Vector{"contentVector": v}
	return d
}

// TestRejectedDuplicateKeepsTieOrder: re-adding a live chunk id is refused
// and must not move that chunk in vector ties. The facade used to stamp the
// arrival sequence before the shard refused the duplicate, so A tied
// behind B on two shards while one index ranks A first.
func TestRejectedDuplicateKeepsTieOrder(t *testing.T) {
	exact := index.Config{VectorIndex: func(string) vector.Index { return vector.NewExhaustive() }}
	s := shard.New(shard.Config{Shards: 2, Index: exact})
	mono := index.New(exact)
	a, b := idsOnShards(s)
	v := vector.Vector{1, 0, 0, 0}
	for _, r := range []index.Repository{s, mono} {
		for _, id := range []string{a, b} {
			if err := r.Add(vecDoc(id, v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Add(vecDoc(a, v)); !errors.Is(err, index.ErrDuplicateID) {
			t.Fatalf("re-adding %s: err = %v, want ErrDuplicateID", a, err)
		}
	}
	ids := func(hits []index.Hit) (out []string) {
		for _, h := range hits {
			out = append(out, h.ID)
		}
		return out
	}
	want := fmt.Sprint(ids(mono.SearchVector("contentVector", v, 2, nil)))
	if got := fmt.Sprint(ids(s.SearchVector("contentVector", v, 2, nil))); got != want {
		t.Fatalf("sharded ties = %s, monolithic %s", got, want)
	}
}

// TestRejectedDuplicateInBulkKeepsTieOrder is the bulk counterpart: a batch
// adds a new chunk C and then re-adds the live A, which its shard refuses.
// Only C may be stamped. The facade used to stamp every document of a batch
// before routing it, so A moved behind B and C in vector ties while one
// index keeps A, B, C.
func TestRejectedDuplicateInBulkKeepsTieOrder(t *testing.T) {
	exact := index.Config{VectorIndex: func(string) vector.Index { return vector.NewExhaustive() }}
	s := shard.New(shard.Config{Shards: 2, Index: exact})
	mono := index.New(exact)
	a, b := idsOnShards(s)
	c := "v999#0"
	v := vector.Vector{1, 0, 0, 0}
	for _, r := range []index.Repository{s, mono} {
		if err := r.AddBulk([]index.Document{vecDoc(a, v), vecDoc(b, v)}); err != nil {
			t.Fatal(err)
		}
		if err := r.AddBulk([]index.Document{vecDoc(c, v), vecDoc(a, v)}); !errors.Is(err, index.ErrDuplicateID) {
			t.Fatalf("re-adding %s in a batch: err = %v, want ErrDuplicateID", a, err)
		}
	}
	ids := func(hits []index.Hit) (out []string) {
		for _, h := range hits {
			out = append(out, h.ID)
		}
		return out
	}
	want := fmt.Sprint(ids(mono.SearchVector("contentVector", v, 3, nil)))
	if got := fmt.Sprint(ids(s.SearchVector("contentVector", v, 3, nil))); got != want {
		t.Fatalf("sharded ties = %s, monolithic %s", got, want)
	}
}

// TestFacadeRefusesEmptyVector: a 0-length vector is refused before routing,
// by Add and AddBulk. The facade used to take it as the field's dimension
// (0, so none), the owning shard then took the next real vector too, and
// its graph panicked striding it past the empty slot.
func TestFacadeRefusesEmptyVector(t *testing.T) {
	s := shard.New(shard.Config{Shards: 2})
	a, b := idsOnShards(s)
	if err := s.Add(vecDoc(a, vector.Vector{})); !errors.Is(err, vector.ErrDimensionMismatch) {
		t.Fatalf("empty vector: err = %v, want ErrDimensionMismatch", err)
	}
	four := vector.Vector{1, 0, 0, 0}
	err := s.AddBulk([]index.Document{vecDoc(a, four), vecDoc(b, vector.Vector{}), vecDoc("v999#0", four)})
	if !errors.Is(err, vector.ErrDimensionMismatch) {
		t.Fatalf("AddBulk real, empty, real: err = %v, want ErrDimensionMismatch", err)
	}
	if s.Len() != 1 {
		t.Fatalf("AddBulk stored %d chunks, want the 1 before the refused one", s.Len())
	}
	if err := s.Add(vecDoc(b, vector.Vector{0, 1, 0, 0})); err != nil {
		t.Fatal(err)
	}
	if hits := s.SearchVector("contentVector", four, 5, nil); len(hits) != 2 || hits[0].ID != a {
		t.Fatalf("4-d search = %+v, want %s first of 2", hits, a)
	}
}

// TestFacadeRefusesOtherDimension: a field's dimension holds across shards.
// A 3-d chunk routed to a shard that has no vector yet used to be taken
// there, and a 4-d query then panicked inside the fan-out. Add, AddBulk and
// a reloaded facade refuse it before routing.
func TestFacadeRefusesOtherDimension(t *testing.T) {
	s := shard.New(shard.Config{Shards: 2})
	a, b := idsOnShards(s)
	four := vector.Vector{1, 0, 0, 0}
	if err := s.Add(vecDoc(a, four)); err != nil {
		t.Fatal(err)
	}
	refused := func(f *shard.Sharded, when string) {
		t.Helper()
		if err := f.Add(vecDoc(b, vector.Vector{0, 1, 0})); !errors.Is(err, vector.ErrDimensionMismatch) {
			t.Fatalf("%s: 3-d Add: err = %v, want ErrDimensionMismatch", when, err)
		}
		if f.Len() != 1 {
			t.Fatalf("%s: the refused chunk was stored (%d chunks)", when, f.Len())
		}
		if hits := f.SearchVector("contentVector", four, 5, nil); len(hits) != 1 || hits[0].ID != a {
			t.Fatalf("%s: 4-d search = %+v, want [%s]", when, hits, a)
		}
	}
	refused(s, "live")
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Load(&buf, shard.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	refused(loaded, "reloaded")

	bulk := shard.New(shard.Config{Shards: 2})
	c := "v999#0"
	err = bulk.AddBulk([]index.Document{vecDoc(b, vector.Vector{0, 1, 0}), vecDoc(c, vector.Vector{0, 0, 1}), vecDoc(a, four)})
	if !errors.Is(err, vector.ErrDimensionMismatch) {
		t.Fatalf("AddBulk 3-d, 3-d, 4-d: err = %v, want ErrDimensionMismatch", err)
	}
	if bulk.Len() != 2 {
		t.Fatalf("AddBulk stored %d chunks, want the 2 before the refused one", bulk.Len())
	}
}
