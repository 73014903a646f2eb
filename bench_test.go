// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), plus ablations of the design choices ARCHITECTURE.md
// calls out. One b.N iteration = one complete (reduced-scale)
// experiment; use cmd/datacase-bench for full-scale sweeps and readable
// tables.
package datacase_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/datacase/datacase"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/storage/lsm"
	"github.com/datacase/datacase/internal/wal"
)

// benchScale keeps one iteration around tens of milliseconds.
const (
	benchRecords = 2000
	benchTxns    = 1000
)

// BenchmarkTable1ErasureProperties regenerates Table 1: build a fresh
// scenario per interpretation, erase, and measure IR/II/Inv.
func BenchmarkTable1ErasureProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := datacase.Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Conforms {
				b.Fatalf("%v does not conform", r.Interpretation)
			}
		}
	}
}

// BenchmarkFig3Timeline drives a unit through the Figure-3 erasure
// timeline with the scheduler.
func BenchmarkFig3Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := datacase.Fig3Timeline(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aErasure measures each erasure strategy on the WCus mix
// (one Figure-4(a) cell per sub-benchmark).
func BenchmarkFig4aErasure(b *testing.B) {
	for _, strat := range datacase.EraseStrategies() {
		b.Run(string(strat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datacase.RunEraseStrategy(strat, benchRecords, benchTxns, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4bProfiles measures each profile × workload cell of
// Figure 4(b).
func BenchmarkFig4bProfiles(b *testing.B) {
	for _, p := range datacase.Profiles() {
		for _, w := range []datacase.GDPRWorkload{datacase.WPro, datacase.WCon, datacase.WCus} {
			b.Run(fmt.Sprintf("%s/%s", p.Name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := datacase.RunGDPRBench(p, w, benchRecords, benchTxns, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("%s/YCSB-C", p.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datacase.RunYCSB(p, datacase.YCSBC, benchRecords, benchTxns, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4cScalability measures WCus completion time at growing
// record counts (Figure 4(c)'s lines) for the cheapest and costliest
// profiles.
func BenchmarkFig4cScalability(b *testing.B) {
	for _, p := range []datacase.Profile{datacase.PBase(), datacase.PSYS()} {
		for _, mult := range []int{1, 3, 5} {
			records := benchRecords * mult
			b.Run(fmt.Sprintf("%s/records-%d", p.Name, records), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := datacase.RunGDPRBench(p, datacase.WCus, records, benchTxns, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable2Space loads + runs each profile and computes the
// Table-2 space report.
func BenchmarkTable2Space(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, err := datacase.Table2(datacase.Scale{Records: benchRecords, Txns: benchTxns / 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != 3 {
			b.Fatal("missing reports")
		}
	}
}

// BenchmarkDeleteOnlyFootnote measures the paper's footnote case: on a
// 100%-delete stream, plain DELETE beats DELETE+VACUUM.
func BenchmarkDeleteOnlyFootnote(b *testing.B) {
	for _, strat := range []datacase.EraseStrategy{datacase.StratDelete, datacase.StratVacuum} {
		b.Run(string(strat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datacase.RunDeleteOnlyWorkload(strat, benchRecords, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardScaling measures the subject-sharded engine at growing
// shard counts: concurrent WCus, batched right-to-be-forgotten erasure,
// and the global parallel audit. On a multi-core box each workload's
// time drops monotonically from 1 → 4 → 16 shards; shards-1 is the
// single-lock baseline.
func BenchmarkShardScaling(b *testing.B) {
	clients := 8
	for _, shards := range datacase.DefaultShardSweep() {
		b.Run(fmt.Sprintf("WCus/shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datacase.RunShardedGDPRBench(datacase.PBase(), datacase.WCus,
					benchRecords, benchTxns, shards, clients, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("EraseBatch/shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datacase.RunShardedErasureBatch(datacase.PBase(),
					benchRecords, shards, clients, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Audit/shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datacase.RunShardedAudit(datacase.PBase(),
					benchRecords, shards, clients, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadgen runs the closed-loop driver at 1/4/16 concurrent
// clients against a 16-shard deployment on the controller workload (the
// write-heaviest mix, where WAL commit cost shows). On a multi-core box
// ops/sec (reported as the ops/s metric) rises with the client count.
func BenchmarkLoadgen(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("WCon/clients-%d", clients), func(b *testing.B) {
			var opsPerSec float64
			for i := 0; i < b.N; i++ {
				res, err := datacase.RunLoadgen(datacase.LoadgenConfig{
					Workload: datacase.WCon,
					Records:  benchRecords,
					Ops:      benchTxns,
					Clients:  clients,
					Shards:   16,
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Validate(); err != nil {
					b.Fatal(err)
				}
				opsPerSec = res.OpsPerSec
			}
			b.ReportMetric(opsPerSec, "ops/s")
		})
	}
}

// walWConStream derives the WAL append traffic a controller-workload
// run generates: creates log inserts, erasures log deletes, metadata
// updates log updates. The stream is deterministic for the seed.
func walWConStream(n int) []wal.Record {
	gen, err := gdprbench.NewGenerator(gdprbench.Controller, 1000, 1)
	if err != nil {
		panic(err)
	}
	out := make([]wal.Record, 0, n)
	for _, op := range gen.Ops(n) {
		switch op.Kind {
		case gdprbench.OpCreate:
			out = append(out, wal.Record{Type: wal.RecInsert, Key: []byte(op.Key), Payload: op.Payload})
		case gdprbench.OpDeleteData:
			out = append(out, wal.Record{Type: wal.RecDelete, Key: []byte(op.Key)})
		default: // OpUpdateMeta
			out = append(out, wal.Record{Type: wal.RecUpdate, Key: []byte(op.Key), Payload: []byte("meta")})
		}
	}
	return out
}

// BenchmarkWALCommitProtocol replays the WCon-derived WAL append stream
// with 16 concurrent appenders through both commit protocols. Group
// commit amortizes lock acquisitions and syncs across batches, so at 16
// clients it beats per-append locking; at 1 client the two converge.
func BenchmarkWALCommitProtocol(b *testing.B) {
	const streamLen = 4096
	stream := walWConStream(streamLen)
	for _, mode := range []struct {
		name string
		mk   func() *wal.Log
	}{
		{"group-commit", wal.New},
		{"per-append-lock", wal.NewSerial},
	} {
		for _, clients := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/clients-%d", mode.name, clients), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l := mode.mk()
					chunk := (streamLen + clients - 1) / clients
					var wg sync.WaitGroup
					for c := 0; c < clients; c++ {
						lo := min(c*chunk, streamLen)
						hi := min(lo+chunk, streamLen)
						wg.Add(1)
						go func(recs []wal.Record) {
							defer wg.Done()
							for _, r := range recs {
								l.Append(r.Type, r.Key, r.Payload)
							}
						}(stream[lo:hi])
					}
					wg.Wait()
					if l.Len() != streamLen {
						b.Fatalf("Len = %d", l.Len())
					}
				}
				b.ReportMetric(float64(streamLen*b.N)/b.Elapsed().Seconds(), "appends/s")
			})
		}
	}
}

// ---- Ablations (groundings: ARCHITECTURE.md §1; vacuum and engines: §5) ----

// BenchmarkAblationVacuumThreshold sweeps the autovacuum dead-ratio
// threshold of P_Base on WCus: too eager wastes vacuum passes, too lazy
// lets scans degrade.
func BenchmarkAblationVacuumThreshold(b *testing.B) {
	for _, threshold := range []float64{0.05, 0.2, 0.5} {
		b.Run(fmt.Sprintf("threshold-%.2f", threshold), func(b *testing.B) {
			p := datacase.PBase()
			p.VacuumThreshold = threshold
			for i := 0; i < b.N; i++ {
				if _, err := datacase.RunGDPRBench(p, datacase.WCus, benchRecords, benchTxns, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGCGrace compares LSM read cost after deletes with a
// short versus effectively-infinite tombstone GC grace: long grace keeps
// shadowed data resident and reads slower — the paper's illegal-retention
// hazard has a performance face too.
func BenchmarkAblationGCGrace(b *testing.B) {
	build := func(grace int64) *lsm.Store {
		s := lsm.New(lsm.Options{
			MemtableFlushEntries: 512,
			CompactionFanIn:      4,
			GCGraceSeqs:          grace,
		})
		for i := 0; i < benchRecords; i++ {
			s.Put([]byte(gdprbench.KeyFor(i)), []byte("payload"))
		}
		for i := 0; i < benchRecords/2; i++ {
			s.Delete([]byte(gdprbench.KeyFor(i)))
		}
		s.Compact()
		return s
	}
	for _, cfg := range []struct {
		name  string
		grace int64
	}{{"grace-1", 1}, {"grace-inf", 1 << 62}} {
		b.Run(cfg.name, func(b *testing.B) {
			s := build(cfg.grace)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				s.Scan(func(_, _ []byte) bool {
					n++
					return true
				})
			}
		})
	}
}

// BenchmarkAblationLoggerGrounding compares the per-operation cost of
// the three history groundings at the DB level (same profile except the
// logger).
func BenchmarkAblationLoggerGrounding(b *testing.B) {
	bases := map[string]datacase.Profile{
		"csv-logs":       datacase.PBase(),
		"encrypted-logs": datacase.PSYS(),
	}
	for name, p := range bases {
		b.Run(name, func(b *testing.B) {
			db, err := datacase.OpenProfile(p)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				rec := datacase.Record{
					Key:        gdprbench.KeyFor(i),
					Subject:    "person-1",
					Payload:    []byte("payload-observation"),
					Purposes:   []string{"billing", "analytics"},
					TTL:        1 << 40,
					Processors: []string{"processor-a"},
				}
				if err := db.Create(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.ReadData(compliance.EntityController, compliance.PurposeService,
					gdprbench.KeyFor(i%1000)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPolicyGrounding compares adjudication through the
// three policy engines at the DB level on a keyed-read stream.
func BenchmarkAblationPolicyGrounding(b *testing.B) {
	for _, p := range datacase.Profiles() {
		b.Run(p.Name, func(b *testing.B) {
			db, err := datacase.OpenProfile(p)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				rec := datacase.Record{
					Key:        gdprbench.KeyFor(i),
					Subject:    "person-1",
					Payload:    []byte("payload-observation"),
					Purposes:   []string{"billing", "analytics"},
					TTL:        1 << 40,
					Processors: []string{"processor-a"},
				}
				if err := db.Create(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.ReadData(compliance.EntityController, compliance.PurposeService,
					gdprbench.KeyFor(i%1000)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
