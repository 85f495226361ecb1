package selection

// BenchmarkMultipath* is the multipath serving trajectory recorded in
// BENCH_multipath.json by cmd/benchjson (docs/SELECTION.md "Reading
// BENCH_multipath.json"): SelectSet at the measured-campaign candidate
// count (ases=35, the default world) and at the generated-world scale
// (ases=1000), across set sizes. The interesting comparison is against
// BenchmarkServingSelect at the same candidate counts — the greedy
// assembly and penalty probes are the only extra work, since the overlap
// keys were already paid for at snapshot rebuild time.

import (
	"context"
	"fmt"
	"testing"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/topology"
)

func BenchmarkMultipathSelectSet(b *testing.B) {
	for _, ases := range []int{35, 1000} {
		spec := topology.GenerateSpec{
			Seed: int64(ases), ISDs: 2, CoresPerISD: 2, NonCorePerISD: 15,
			MaxChildren: 4, CoreDegree: 2,
		}
		if ases == 1000 {
			spec = topology.GenerateSpec{
				Seed: 1000, ISDs: 20, CoresPerISD: 2, NonCorePerISD: 48,
				MaxChildren: 8, CoreDegree: 4,
			}
		}
		topo, err := topology.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		db := docdb.MustOpen()
		sid := syntheticCatalogue(b, topo, db, ases, 3, 7)
		e := New(db, topo)
		ctx := context.Background()
		for _, k := range []int{2, 4} {
			b.Run(fmt.Sprintf("ases=%d/k=%d", ases, k), func(b *testing.B) {
				req := SetRequest{K: k}
				if _, err := e.SelectSet(ctx, sid, req); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.SelectSet(ctx, sid, req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMultipathSelectSetCands is BenchmarkServingSelectTop's twin:
// SelectSet at 10³ and 5·10³ candidates on one topology, so the only
// variable is the pool the greedy scans.
func BenchmarkMultipathSelectSetCands(b *testing.B) {
	for _, cands := range []int{1000, 5000} {
		e, sid := candsEngine(b, cands)
		ctx := context.Background()
		for _, k := range []int{2, 4} {
			b.Run(fmt.Sprintf("cands=%d/k=%d", cands, k), func(b *testing.B) {
				req := SetRequest{K: k}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := e.SelectSet(ctx, sid, req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
