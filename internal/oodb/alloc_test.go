package oodb

import (
	"runtime"
	"strings"
	"testing"

	"semcc/internal/obs"
	"semcc/internal/val"
)

// callAllocBudget bounds the heap allocations of one tx.Call of a
// two-leaf method (Reg.AddN: navigate, Get, Put) with an Obs attached
// but disabled, the benchmark's configuration. Measured: 19. Each of
// the three subtransactions costs its Tx and its done channel; each
// object's granted list takes the lock (which itself lives in the Tx);
// the rest is the method's Ctx, the value read, the two inverses with
// their argument slices, and the parent's children and undo lists
// growing. The invocation is not copied for the journal: a JBegin
// record carries none (it was 23 while it did). Raise the budget only
// with a reason: 760 allocations per root were 64% garbage from two
// sites nobody was watching.
const callAllocBudget = 20

func newAllocDB() *DB {
	o := obs.New(obs.Config{})
	o.SetEnabled(false)
	return Open(Options{Obs: o})
}

// TestCallAllocBudget pins the allocation count of one method
// invocation and checks that none of it is formatting: with span
// collection off nothing on the invocation path may render a label, a
// number or an error string.
func TestCallAllocBudget(t *testing.T) {
	db := newAllocDB()
	registerPair(t, db)
	r := newReg(t, db, 0)
	tx := db.Begin()
	call := func() {
		if _, err := tx.Call(r, "AddN", val.OfInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		call() // grow the root's children and undo slices out of the way
	}
	if n := testing.AllocsPerRun(200, call); n > callAllocBudget {
		t.Errorf("one Call of a two-leaf method: %v allocs, budget %d", n, callAllocBudget)
	} else {
		t.Logf("one Call of a two-leaf method: %v allocs (budget %d)", n, callAllocBudget)
	}

	// Every allocation of the next calls, by call stack.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	profiledCalls(call)
	runtime.GC() // publishes the allocations made since the last cycle
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 4096)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatalf("memory profile has %d records, buffer %d", n, len(recs))
	}
	sites := 0
	for _, rec := range recs[:n] {
		var stack []string
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		trace := strings.Join(stack, "\n\t")
		if !strings.Contains(trace, "oodb.profiledCalls") {
			continue
		}
		sites++
		for _, fn := range stack {
			if strings.HasPrefix(fn, "fmt.") || strings.HasPrefix(fn, "strconv.") {
				t.Errorf("formatting on the invocation path: %d allocations through\n\t%s", rec.AllocObjects, trace)
				break
			}
		}
	}
	if sites == 0 {
		t.Fatal("memory profile shows no allocation under profiledCalls: the check saw nothing")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// profiledCalls exists to be found in the profile's stacks.
//
//go:noinline
func profiledCalls(call func()) {
	for i := 0; i < 32; i++ {
		call()
	}
}

// BenchmarkInvokeGetPut is one root making one method invocation with
// two leaves (navigate, Get, Put), Obs attached but disabled: the
// engine's cost per subtransaction and per lock with no journal, no
// contention and nothing else in the way.
func BenchmarkInvokeGetPut(b *testing.B) {
	db := newAllocDB()
	registerPair(b, db)
	r := newReg(b, db, 0)
	one := val.OfInt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Call(r, "AddN", one); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
