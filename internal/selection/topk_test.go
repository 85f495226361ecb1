package selection

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/topology"
)

// TestSelectTopIsPrefixOfSelect is the bounded-selection property: over
// seeded random catalogues (the axiom pools: exact score ties, paths that
// never answered and so score +Inf), under random requests (all four
// objectives, exclusion and performance filters, minimum samples), on a
// plain and an owner-filtered engine, Select equals the uncached oracle and
// SelectTop(k) equals its first min(k, n) elements — below, at and beyond
// the pool size.
//
//lint:deterministic fixed seeds; every pool and request derives from the loop seed
func TestSelectTopIsPrefixOfSelect(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for seed := int64(1); seed <= 60; seed++ {
		pool := newAxiomPool(t, seed)
		engines := map[string]*Engine{
			"plain": pool.engine(t, nil),
			"owned": pool.engine(t, nil, WithServerOwner(func(id int) bool { return id == pool.sid })),
		}
		excl := buildPool(t, engines["plain"], []int{pool.sid})
		r := rand.New(rand.NewSource(seed))
		for round := 0; round < 12; round++ {
			req := Request{Objective: axiomObjectives[round%len(axiomObjectives)]}
			if round >= len(axiomObjectives) { // first pass: every objective unfiltered
				obj := req.Objective
				req = randomRequest(r, excl)
				req.Objective = obj
			}
			want, err := engines["plain"].selectUncached(ctx, pool.sid, req)
			if err != nil {
				t.Fatal(err)
			}
			n := len(want)
			for name, e := range engines {
				full, err := e.Select(ctx, pool.sid, req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(full, want) {
					t.Fatalf("seed %d %s req %+v:\nSelect %+v\noracle %+v", seed, name, req, full, want)
				}
				for _, k := range []int{1, 2, 5, n - 1, n, n + 7} {
					if k < 1 {
						continue
					}
					got, err := e.SelectTop(ctx, pool.sid, req, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[:min(k, n)]) {
						t.Fatalf("seed %d %s req %+v k=%d:\nSelectTop %+v\nprefix    %+v",
							seed, name, req, k, got, want[:min(k, n)])
					}
				}
			}
		}
	}
}

// TestSelectTopAllocations guards the point of bounded selection: a top-5
// request over a 10³-candidate destination allocates about a kilobyte —
// the heap and five Candidates — and the same number of objects whatever
// the catalogue size.
func TestSelectTopAllocations(t *testing.T) {
	ctx := context.Background()
	allocs := func(cands int) (objects float64, bytes uint64) {
		db := docdb.MustOpen()
		topo := topology.DefaultWorld()
		sid := syntheticCatalogue(t, topo, db, cands, 2, 7)
		e := New(db, topo)
		top := func() {
			if got, err := e.SelectTop(ctx, sid, Request{}, 5); err != nil || len(got) != 5 {
				t.Fatalf("SelectTop = %d candidates, %v", len(got), err)
			}
		}
		top() // builds the snapshot
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			top()
		}
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(runs, top), (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallObjs, _ := allocs(100)
	objs, bytes := allocs(1000)
	if bytes >= 8<<10 {
		t.Errorf("SelectTop(5) over 1000 candidates allocates %d B/op, want < 8 KB", bytes)
	}
	if objs != smallObjs {
		t.Errorf("SelectTop(5) allocates %.0f objects at 1000 candidates, %.0f at 100: not independent of catalogue size",
			objs, smallObjs)
	}
	t.Logf("SelectTop(5) at 1000 candidates: %d B/op, %.0f allocs/op", bytes, objs)
}
