package docdb

// BenchmarkDocDB* is the query-engine benchmark suite behind the repo's
// benchmark trajectory (BENCH_docdb.json, written by cmd/benchjson). The
// workload mirrors the paths_stats collection the paper's architecture
// accumulates: one document per (path, iteration) measurement with a
// monotonically increasing timestamp, a per-path identifier, and numeric
// latency/loss statistics. Sizes: 10k documents is one long campaign on the
// 35-AS SCIONLab world; 100k is the production-scale regime the ROADMAP
// targets.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// benchSizes are the collection sizes every benchmark runs at.
var benchSizes = []int{10_000, 100_000}

// ensureBenchIndexes installs the indexes the measurement layer maintains
// on paths_stats (kept in one place so the before/after trajectory runs the
// same setup).
func ensureBenchIndexes(col *Collection) {
	col.EnsureIndex("path_id")
	col.EnsureSortedIndex("avg_latency_ms")
	col.EnsureSortedIndex("timestamp_ms")
}

// benchDocs builds a deterministic measurement-shaped workload: n stats
// documents over n/200 distinct paths across 25 servers.
func benchDocs(n int) []Document {
	docs := make([]Document, 0, n)
	paths := n / 200
	if paths < 10 {
		paths = 10
	}
	for i := 0; i < n; i++ {
		docs = append(docs, Document{
			"_id":            fmt.Sprintf("s%d", i),
			"path_id":        fmt.Sprintf("2_%d", i%paths),
			"server_id":      i%25 + 1,
			"hops":           i%5 + 4,
			"timestamp_ms":   int64(i * 100),
			"avg_latency_ms": float64((i*7919)%2000)/10 + 5,
			"loss_pct":       float64(i % 101),
		})
	}
	return docs
}

// benchCollection loads n documents and installs the indexes the
// measurement layer maintains on paths_stats.
func benchCollection(b *testing.B, n int) *Collection {
	b.Helper()
	db := MustOpen()
	col := db.Collection("paths_stats")
	docs := benchDocs(n)
	for lo := 0; lo < len(docs); lo += 1000 {
		hi := lo + 1000
		if hi > len(docs) {
			hi = len(docs)
		}
		if err := col.InsertMany(docs[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	ensureBenchIndexes(col)
	return col
}

func sizeName(n int) string { return fmt.Sprintf("n=%dk", n/1000) }

// benchBackends are the persistent storage backends the backend-labeled
// benchmarks compare. cmd/benchjson parses the "backend=<name>" path
// element into the trajectory's backend label.
var benchBackends = []string{BackendJSONL, BackendSegment}

// openBenchDB opens a fresh persistent database for one benchmark
// iteration.
func openBenchDB(b *testing.B, backend string, opts ...Option) *DB {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.db")
	db, err := Open(append([]Option{WithPath(path), WithBackend(backend)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// insertBatches loads docs in the measurement runner's 1000-document
// batches.
func insertBatches(b *testing.B, col *Collection, docs []Document) {
	b.Helper()
	for lo := 0; lo < len(docs); lo += 1000 {
		hi := lo + 1000
		if hi > len(docs) {
			hi = len(docs)
		}
		if err := col.InsertMany(docs[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDocDBInsert measures batched insertion (the §4.2.2 multi-insert
// path) of 1000-document batches into an indexed collection. The unlabeled
// sub-runs keep the historical in-memory trajectory; the backend= sub-runs
// measure the same workload journaled through each storage backend,
// including the closing Flush (the runner's per-batch durability point).
func BenchmarkDocDBInsert(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			docs := benchDocs(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := MustOpen()
				col := db.Collection("paths_stats")
				ensureBenchIndexes(col)
				b.StartTimer()
				insertBatches(b, col, docs)
			}
		})
	}
	for _, backend := range benchBackends {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("backend=%s/%s", backend, sizeName(n)), func(b *testing.B) {
				docs := benchDocs(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					db := openBenchDB(b, backend)
					col := db.Collection("paths_stats")
					ensureBenchIndexes(col)
					b.StartTimer()
					insertBatches(b, col, docs)
					if err := db.Flush(); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := db.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkDocDBLoad measures cold open + full replay of an n-document log
// — the monitor-restart path, and the headline number of the storage
// redesign: binary frame decoding (segment) versus per-line JSON decoding
// (jsonl) over identical document streams.
func BenchmarkDocDBLoad(b *testing.B) {
	for _, backend := range benchBackends {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("backend=%s/%s", backend, sizeName(n)), func(b *testing.B) {
				path := filepath.Join(b.TempDir(), "bench.db")
				db, err := Open(WithPath(path), WithBackend(backend))
				if err != nil {
					b.Fatal(err)
				}
				insertBatches(b, db.Collection("paths_stats"), benchDocs(n))
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					db, err := Open(WithPath(path), WithBackend(backend))
					if err != nil {
						b.Fatal(err)
					}
					if db.Collection("paths_stats").Count() != n {
						b.Fatal("short replay")
					}
					b.StopTimer()
					if err := db.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkDocDBShardedInsert measures concurrent batch writers spread over
// four collections — the workload the segment backend shards per collection
// while jsonl serializes every writer on one journal lock.
func BenchmarkDocDBShardedInsert(b *testing.B) {
	const collections, perCollection = 4, 4000
	for _, backend := range benchBackends {
		b.Run(fmt.Sprintf("backend=%s", backend), func(b *testing.B) {
			docs := benchDocs(perCollection)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := openBenchDB(b, backend)
				b.StartTimer()
				var wg sync.WaitGroup
				for w := 0; w < collections; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						insertBatches(b, db.Collection(fmt.Sprintf("shard%d", w)), docs)
					}(w)
				}
				wg.Wait()
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDocDBGroupCommit measures synchronous-durability writers: every
// batch fsynced before it returns, concurrent batches coalescing into
// shared group-commit rounds.
func BenchmarkDocDBGroupCommit(b *testing.B) {
	const writers, batches, batchSize = 4, 10, 50
	docs := benchDocs(writers * batches * batchSize)
	for _, backend := range benchBackends {
		b.Run(fmt.Sprintf("backend=%s", backend), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := openBenchDB(b, backend, WithSyncPolicy(SyncGroupCommit))
				b.StartTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						col := db.Collection("paths_stats")
						base := w * batches * batchSize
						for k := 0; k < batches; k++ {
							lo := base + k*batchSize
							if err := col.InsertMany(docs[lo : lo+batchSize]); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDocDBFindEq measures an indexed equality query: all samples of
// one path (the selection engine's per-path aggregation fetch).
func BenchmarkDocDBFindEq(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			col := benchCollection(b, n)
			f := Eq("path_id", "2_7")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := col.Find(Query{Filter: f}); len(got) != 200 {
					b.Fatalf("got %d", len(got))
				}
			}
		})
	}
}

// BenchmarkDocDBFindRange measures a numeric range query on the latency
// field (an SLA-style filter: every measurement under 25 ms).
func BenchmarkDocDBFindRange(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			col := benchCollection(b, n)
			f := And(Gte("avg_latency_ms", 5.0), Lt("avg_latency_ms", 25.0))
			want := 0
			for _, d := range benchDocs(n) {
				v := d["avg_latency_ms"].(float64)
				if v >= 5.0 && v < 25.0 {
					want++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := col.Find(Query{Filter: f}); len(got) != want {
					b.Fatalf("got %d, want %d", len(got), want)
				}
			}
		})
	}
}

// BenchmarkDocDBTopK measures the sorted+limited query every latency
// dashboard runs: the 10 best (lowest mean latency) recent measurements.
func BenchmarkDocDBTopK(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			col := benchCollection(b, n)
			q := Query{SortBy: "avg_latency_ms", Limit: 10}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := col.Find(q); len(got) != 10 {
					b.Fatalf("got %d", len(got))
				}
			}
		})
	}
}

// BenchmarkDocDBTopKFiltered measures top-K under a server filter, the
// "best paths to this destination" query of the selection engine.
func BenchmarkDocDBTopKFiltered(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			col := benchCollection(b, n)
			q := Query{
				Filter: Eq("server_id", 3),
				SortBy: "avg_latency_ms", SortDesc: true, Limit: 10,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := col.Find(q); len(got) != 10 {
					b.Fatalf("got %d", len(got))
				}
			}
		})
	}
}

// BenchmarkDocDBAggregate measures the mean-per-path aggregation the
// selection engine and the figure pipelines are built on.
func BenchmarkDocDBAggregate(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			col := benchCollection(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := col.Aggregate(nil, "path_id", "avg_latency_ms")
				if len(res) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

// deleteBenchDocs is the paths collection a repeat collect works on: n
// documents stored destination by destination, match consecutive ones per
// server_id.
func deleteBenchDocs(n, match int) []Document {
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = Document{
			"_id":            fmt.Sprintf("%d_%d", i/match, i%match),
			"server_id":      i / match,
			"path_index":     i % match,
			"hops":           i%5 + 4,
			"hop_predicates": "17-ffaa:1:1#1 17-ffaa:0:1107#3,2 16-ffaa:0:1002#4",
		}
	}
	return docs
}

// BenchmarkDocDBDelete measures one destination's Delete(Eq(server_id)) on
// a 30 000-document paths collection — with the hash index the collect
// stage ensures, and as the scan it was before. The removed documents go
// back in (untimed) at the tail, as a repeat collect re-inserts them, so
// tombstones accumulate and the amortised compaction is part of the number.
func BenchmarkDocDBDelete(b *testing.B) {
	const n, match = 30000, 32
	for _, indexed := range []bool{true, false} {
		plan := "scan"
		if indexed {
			plan = "indexed"
		}
		b.Run(fmt.Sprintf("docs=%d/match=%d/%s", n, match, plan), func(b *testing.B) {
			docs := deleteBenchDocs(n, match)
			col := MustOpen().Collection("paths")
			if indexed {
				col.EnsureIndex("server_id")
			}
			insertBatches(b, col, docs)
			groups := n / match
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := i % groups
				if got := col.Delete(Eq("server_id", g)); got != match {
					b.Fatalf("deleted %d documents, want %d", got, match)
				}
				b.StopTimer()
				if err := col.InsertMany(docs[g*match : (g+1)*match]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDocDBReplayDeletes measures re-opening a database whose log
// holds one full repeat paths collection: 30 000 documents inserted, then
// every destination's documents deleted and inserted again — 30 000 delete
// records for replay to apply.
func BenchmarkDocDBReplayDeletes(b *testing.B) {
	const n, match = 30000, 32
	for _, backend := range benchBackends {
		b.Run(fmt.Sprintf("backend=%s", backend), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.db")
			db, err := Open(WithPath(path), WithBackend(backend))
			if err != nil {
				b.Fatal(err)
			}
			docs := deleteBenchDocs(n, match)
			col := db.Collection("paths")
			col.EnsureIndex("server_id")
			insertBatches(b, col, docs)
			for lo := 0; lo < n; lo += match {
				hi := min(lo+match, n)
				col.Delete(Eq("server_id", lo/match))
				if err := col.InsertMany(docs[lo:hi]); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := Open(WithPath(path), WithBackend(backend))
				if err != nil {
					b.Fatal(err)
				}
				if db.Collection("paths").Count() != n {
					b.Fatal("short replay")
				}
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
