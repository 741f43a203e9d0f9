// Benchmarks regenerating the repository's experiment tables (one
// benchmark family per experiment of DESIGN.md §4) plus
// micro-benchmarks of the lock manager. Run:
//
//	go test -bench=. -benchmem
//
// Throughput benchmarks report committed transactions as the unit of
// work (b.N transactions per run) and attach protocol counters as
// custom metrics. The full sweep tables are produced by
// cmd/semcc-bench; these benchmarks cover representative points so the
// comparison is reproducible through the standard Go tooling.
package semcc_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"semcc"
	"semcc/adts"
	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/workload"
)

// benchWorkload runs b.N transactions of the given configuration.
func benchWorkload(b *testing.B, cfg workload.Config) {
	b.Helper()
	cfg.TxPerClient = b.N/cfg.Clients + 1
	cfg.Validate = false
	b.ResetTimer()
	m, err := workload.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(m.Throughput, "tx/s")
	b.ReportMetric(float64(m.Engine.Blocks)/float64(m.Committed+1), "blocks/tx")
	b.ReportMetric(float64(m.Engine.RootWaits)/float64(m.Committed+1), "rootwaits/tx")
	b.ReportMetric(float64(m.Engine.Deadlocks), "deadlocks")
}

// BenchmarkE1 — throughput vs protocol at a contended MPL (items=4,
// MPL=8, standard mix). Regenerates representative E1 rows.
func BenchmarkE1(b *testing.B) {
	for _, p := range core.Protocols() {
		b.Run(p.String(), func(b *testing.B) {
			benchWorkload(b, workload.Config{Options: oodb.Options{Protocol: p}, Items: 4, Clients: 8, Seed: 42})
		})
	}
}

// BenchmarkE2 — contention sweep for the semantic protocol vs
// 2pl-object (items = 2 hot … 32 cool, MPL=8).
func BenchmarkE2(b *testing.B) {
	for _, items := range []int{2, 8, 32} {
		for _, p := range []core.ProtocolKind{core.Semantic, core.TwoPLObject} {
			b.Run(fmt.Sprintf("%s/items=%d", p, items), func(b *testing.B) {
				benchWorkload(b, workload.Config{Options: oodb.Options{Protocol: p}, Items: items, Clients: 8, Seed: 42})
			})
		}
	}
}

// BenchmarkE3 — mix sweep (update-only vs read-heavy), semantic vs
// 2pl-object.
func BenchmarkE3(b *testing.B) {
	mixes := map[string]workload.Mix{
		"update": workload.UpdateOnlyMix(),
		"reads":  workload.ReadHeavyMix(),
	}
	for name, mix := range mixes {
		for _, p := range []core.ProtocolKind{core.Semantic, core.TwoPLObject} {
			b.Run(fmt.Sprintf("%s/%s", p, name), func(b *testing.B) {
				benchWorkload(b, workload.Config{Options: oodb.Options{Protocol: p}, Items: 4, Clients: 8, Seed: 42, Mix: mix})
			})
		}
	}
}

// BenchmarkE4 — the conventional special case: pure-bypass workload,
// where the semantic protocol must match strict 2PL.
func BenchmarkE4(b *testing.B) {
	for _, p := range []core.ProtocolKind{core.Semantic, core.TwoPLObject, core.TwoPLPage} {
		b.Run(p.String(), func(b *testing.B) {
			benchWorkload(b, workload.Config{Options: oodb.Options{Protocol: p}, Items: 4, Clients: 8, Seed: 42,
				Mix: workload.BypassOnlyMix()})
		})
	}
}

// BenchmarkE5 — ablation: the Fig. 9 commutative-ancestor relief on
// vs off, read-heavy mix.
func BenchmarkE5(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "relief-on"
		if off {
			name = "relief-off"
		}
		b.Run(name, func(b *testing.B) {
			benchWorkload(b, workload.Config{Options: oodb.Options{Protocol: core.Semantic, NoAncestorRelief: off},
				Items: 4, Clients: 8, Seed: 42, Mix: workload.ReadHeavyMix()})
		})
	}
}

// BenchmarkE6 — Zipf-skewed access.
func BenchmarkE6(b *testing.B) {
	for _, p := range []core.ProtocolKind{core.Semantic, core.TwoPLObject} {
		b.Run(p.String(), func(b *testing.B) {
			benchWorkload(b, workload.Config{Options: oodb.Options{Protocol: p}, Items: 32, Clients: 8, Seed: 42, ZipfS: 1.4})
		})
	}
}

// BenchmarkMethodInvocation — cost of one uncontended method
// invocation tree (ShipOrder: 6 lock acquisitions, 2 writes) per
// protocol.
func BenchmarkMethodInvocation(b *testing.B) {
	for _, p := range core.Protocols() {
		b.Run(p.String(), func(b *testing.B) {
			db := oodb.Open(oodb.Options{Protocol: p})
			app, err := orderentry.Setup(db, orderentry.Config{
				Items: 1, OrdersPerItem: b.N + 1, InitialQOH: int64(b.N + 1), Price: 10, OrderQuantity: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			item, err := app.Item(1)
			if err != nil {
				b.Fatal(err)
			}
			nos, err := app.OrderNosOf(1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin()
				if _, err := tx.Call(item, orderentry.MShipOrder, semcc.Int(nos[i])); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLockAcquireRelease — raw engine cost of a begin/lock/
// complete/commit cycle with a single leaf write.
func BenchmarkLockAcquireRelease(b *testing.B) {
	db := oodb.Open(oodb.Options{Protocol: core.Semantic})
	a, err := db.Store().NewAtomic(semcc.Int(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if err := tx.Put(a, semcc.Int(int64(i))); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockAcquireReleaseParallel — the lock-table scaling
// benchmark: concurrent begin/lock/commit cycles on disjoint atoms,
// where the only shared state is the lock table itself, so it should
// scale with GOMAXPROCS.
func BenchmarkLockAcquireReleaseParallel(b *testing.B) {
	db := oodb.Open(oodb.Options{Protocol: core.Semantic})
	const nAtoms = 512
	atoms := make([]semcc.OID, nAtoms)
	for i := range atoms {
		a, err := db.Store().NewAtomic(semcc.Int(0))
		if err != nil {
			b.Fatal(err)
		}
		atoms[i] = a
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each worker owns a distinct atom: no protocol-level
		// conflicts, only lock-table contention.
		a := atoms[int(next.Add(1)-1)%nAtoms]
		var i int64
		for pb.Next() {
			tx := db.Begin()
			if err := tx.Put(a, semcc.Int(i)); err != nil {
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkObsOverheadParallel — the observability overhead
// criterion: the same disjoint-atom parallel cycle as
// BenchmarkLockAcquireReleaseParallel with no Obs (the DB's private
// disabled handle), with an Obs attached but disabled (the production
// configuration — one nil check plus one atomic load per site), and
// with it enabled (full span trees plus gated histograms). none vs
// disabled is the regression the acceptance criterion bounds.
func BenchmarkObsOverheadParallel(b *testing.B) {
	for _, mode := range []string{"none", "disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			var o *semcc.Obs
			if mode != "none" {
				o = semcc.NewObs(semcc.ObsConfig{})
				o.SetEnabled(mode == "enabled")
			}
			db := oodb.Open(oodb.Options{Protocol: core.Semantic, Obs: o})
			const nAtoms = 512
			atoms := make([]semcc.OID, nAtoms)
			for i := range atoms {
				a, err := db.Store().NewAtomic(semcc.Int(0))
				if err != nil {
					b.Fatal(err)
				}
				atoms[i] = a
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				a := atoms[int(next.Add(1)-1)%nAtoms]
				var i int64
				for pb.Next() {
					tx := db.Begin()
					if err := tx.Put(a, semcc.Int(i)); err != nil {
						b.Error(err)
						return
					}
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkMethodInvocationParallel — parallel variant of
// BenchmarkMethodInvocation over disjoint objects: each worker drives
// method invocations (Counter.Inc: method lock + leaf write) on its own
// counter.
func BenchmarkMethodInvocationParallel(b *testing.B) {
	db := oodb.Open(oodb.Options{Protocol: core.Semantic})
	if err := adts.RegisterTypes(db); err != nil {
		b.Fatal(err)
	}
	const nCtrs = 256
	ctrs := make([]semcc.OID, nCtrs)
	for i := range ctrs {
		c, err := adts.NewCounter(db, 0)
		if err != nil {
			b.Fatal(err)
		}
		ctrs[i] = c
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := ctrs[int(next.Add(1)-1)%nCtrs]
		for pb.Next() {
			tx := db.Begin()
			if _, err := tx.Call(c, adts.CInc, semcc.Int(1)); err != nil {
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkMethodInvocationParallelWAL — the same disjoint-object
// parallel method workload as BenchmarkMethodInvocationParallel, but
// sweeping the journal durability mode: no journal, the per-record
// synchronous log, the group-commit pipeline, and async durability.
// The journal modes run on a simulated device charging a fixed 20µs
// per flush (an optimistic fsync): sync serialises every journal
// record on it (~4 records per transaction here), group commit
// coalesces racing commits into shared batches (the recs/flush
// metric), async never flushes on the commit path. The group-vs-sync
// gap is the group-commit win and grows with GOMAXPROCS >= 8.
func BenchmarkMethodInvocationParallelWAL(b *testing.B) {
	const dev = 20 * time.Microsecond
	modes := []struct {
		name string
		cfg  *semcc.WALConfig
	}{
		{"none", nil},
		{"sync", &semcc.WALConfig{Mode: semcc.WALSync, FlushDelay: dev}},
		{"group", &semcc.WALConfig{Mode: semcc.WALGroup, FlushDelay: dev}},
		{"async", &semcc.WALConfig{Mode: semcc.WALAsync, FlushDelay: dev}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var j semcc.Journal
			opts := oodb.Options{Protocol: core.Semantic}
			if m.cfg != nil {
				j = semcc.NewJournal(*m.cfg)
				defer j.Close()
				opts.Journal = j
			}
			db := oodb.Open(opts)
			if err := adts.RegisterTypes(db); err != nil {
				b.Fatal(err)
			}
			const nCtrs = 256
			ctrs := make([]semcc.OID, nCtrs)
			for i := range ctrs {
				c, err := adts.NewCounter(db, 0)
				if err != nil {
					b.Fatal(err)
				}
				ctrs[i] = c
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := ctrs[int(next.Add(1)-1)%nCtrs]
				for pb.Next() {
					tx := db.Begin()
					if _, err := tx.Call(c, adts.CInc, semcc.Int(1)); err != nil {
						b.Error(err)
						return
					}
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if j != nil {
				if st := j.Stats(); st.Flushes > 0 {
					b.ReportMetric(float64(st.Durable)/float64(st.Flushes), "recs/flush")
				}
			}
		})
	}
}

// BenchmarkConflictTestDepth — cost of the Fig. 9 ancestor-pair
// search as tree depth grows: a retained conflicting lock whose
// commutative ancestor sits at increasing depth.
func BenchmarkConflictTestDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			db := oodb.Open(oodb.Options{Protocol: core.Semantic})
			if err := adts.RegisterTypes(db); err != nil {
				b.Fatal(err)
			}
			c, err := adts.NewCounter(db, 0)
			if err != nil {
				b.Fatal(err)
			}
			// Hold a retained Inc (with its leaf Put) in an open
			// transaction.
			hold := db.Begin()
			if _, err := hold.Call(c, adts.CInc, semcc.Int(1)); err != nil {
				b.Fatal(err)
			}
			probeTx := db.Begin()
			nAtom, err := db.Component(c, "N")
			if err != nil {
				b.Fatal(err)
			}
			// Probe a conflicting leaf write from a commuting method
			// context; the engine walks both ancestor chains.
			node := probeTx.Root()
			dec, _ := adts.CounterMatrix().ID(adts.CDec)
			for d := 0; d < depth; d++ {
				n, err := db.Engine().BeginChild(node, semcc.Invocation{Object: c, Method: dec, Args: []semcc.Value{semcc.Int(1)}})
				if err != nil {
					b.Fatal(err)
				}
				node = n
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Engine().ProbeConflicts(node, semcc.Invocation{Object: nAtom, Method: compat.OpPut, Args: []semcc.Value{semcc.Int(1)}})
			}
			b.StopTimer()
			_ = probeTx.Abort()
			_ = hold.Commit()
		})
	}
}

// BenchmarkCompensation — abort cost with k committed actions to
// compensate.
func BenchmarkCompensation(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("actions=%d", k), func(b *testing.B) {
			db := oodb.Open(oodb.Options{Protocol: core.Semantic})
			if err := adts.RegisterTypes(db); err != nil {
				b.Fatal(err)
			}
			c, err := adts.NewCounter(db, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin()
				for j := 0; j < k; j++ {
					if _, err := tx.Call(c, adts.CInc, semcc.Int(1)); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Abort(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStorage — page/record layer micro-costs.
func BenchmarkStorage(b *testing.B) {
	b.Run("atomic-read", func(b *testing.B) {
		db := oodb.Open(oodb.Options{})
		a, _ := db.Store().NewAtomic(semcc.Int(7))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Store().ReadAtomic(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("atomic-write", func(b *testing.B) {
		db := oodb.Open(oodb.Options{})
		a, _ := db.Store().NewAtomic(semcc.Int(7))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Store().WriteAtomic(a, semcc.Int(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
