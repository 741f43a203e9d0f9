package adts

import (
	"errors"
	"sync"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/val"
)

func newDB(t *testing.T) *oodb.DB {
	t.Helper()
	db := oodb.Open(oodb.Options{Protocol: core.Semantic})
	if err := RegisterTypes(db); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueueFIFO(t *testing.T) {
	db := newDB(t)
	q, err := NewQueue(db)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := int64(1); i <= 3; i++ {
		if _, err := tx.Call(q, QEnqueue, val.OfInt(i*100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 3; i++ {
		v, err := tx.Call(q, QDequeue)
		if err != nil {
			t.Fatal(err)
		}
		if v.Int() != i*100 {
			t.Errorf("dequeue %d = %d, want %d", i, v.Int(), i*100)
		}
	}
	if _, err := tx.Call(q, QDequeue); !errors.Is(err, ErrEmptyQueue) {
		t.Errorf("empty dequeue err = %v", err)
	}
	// The failed Dequeue aborted as a subtransaction only; the
	// transaction continues.
	if _, err := tx.Call(q, QEnqueue, val.OfStr("after")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentEnqueuesDoNotBlock(t *testing.T) {
	db := newDB(t)
	q, _ := NewQueue(db)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			tx := db.Begin()
			if _, err := tx.Call(q, QEnqueue, val.OfInt(i)); err != nil {
				t.Error(err)
				_ = tx.Abort()
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}(int64(i))
	}
	wg.Wait()
	if st := db.Engine().Stats(); st.RootWaits != 0 || st.Deadlocks != 0 {
		t.Errorf("enqueues blocked: rootwaits=%d deadlocks=%d", st.RootWaits, st.Deadlocks)
	}
	tx := db.Begin()
	n, err := tx.Call(q, QSize)
	if err != nil {
		t.Fatal(err)
	}
	if n.Int() != 32 {
		t.Errorf("size = %d, want 32", n.Int())
	}
	_ = tx.Commit()
}

func TestEnqueueCompensation(t *testing.T) {
	db := newDB(t)
	q, _ := NewQueue(db)

	tx := db.Begin()
	if _, err := tx.Call(q, QEnqueue, val.OfInt(7)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Enqueue then abort: Unenqueue removes the element; the committed
	// one is untouched; dequeue still sees FIFO order across the hole.
	tx = db.Begin()
	if _, err := tx.Call(q, QEnqueue, val.OfInt(8)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin()
	if _, err := tx.Call(q, QEnqueue, val.OfInt(9)); err != nil {
		t.Fatal(err)
	}
	v1, err := tx.Call(q, QDequeue)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tx.Call(q, QDequeue) // must skip the hole left by 8
	if err != nil {
		t.Fatal(err)
	}
	if v1.Int() != 7 || v2.Int() != 9 {
		t.Errorf("dequeued %d,%d, want 7,9", v1.Int(), v2.Int())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDequeueAbortRestoresQueue(t *testing.T) {
	db := newDB(t)
	q, _ := NewQueue(db)
	tx := db.Begin()
	_, _ = tx.Call(q, QEnqueue, val.OfInt(1))
	_, _ = tx.Call(q, QEnqueue, val.OfInt(2))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin()
	v, err := tx.Call(q, QDequeue)
	if err != nil || v.Int() != 1 {
		t.Fatalf("dequeue = %v, %v", v, err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	// The dequeued element is back at the front.
	tx = db.Begin()
	v, err = tx.Call(q, QDequeue)
	if err != nil || v.Int() != 1 {
		t.Fatalf("after abort, dequeue = %v, %v (want 1)", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCounterConcurrentUpdates(t *testing.T) {
	db := newDB(t)
	c, _ := NewCounter(db, 0)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := db.Begin()
			method := CInc
			if i%2 == 1 {
				method = CDec
			}
			if _, err := tx.Call(c, method, val.OfInt(3)); err != nil {
				t.Error(err)
				_ = tx.Abort()
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	tx := db.Begin()
	v, err := tx.Call(c, CValue)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 0 { // 10 incs and 10 decs of 3
		t.Errorf("counter = %d, want 0", v.Int())
	}
	_ = tx.Commit()
	if st := db.Engine().Stats(); st.RootWaits != 0 || st.Deadlocks != 0 {
		t.Errorf("commuting counter updates blocked: rootwaits=%d deadlocks=%d", st.RootWaits, st.Deadlocks)
	}
}

func TestCounterCompensation(t *testing.T) {
	db := newDB(t)
	c, _ := NewCounter(db, 100)
	tx := db.Begin()
	_, _ = tx.Call(c, CInc, val.OfInt(5))
	_, _ = tx.Call(c, CDec, val.OfInt(2))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	v, _ := tx.Call(c, CValue)
	if v.Int() != 100 {
		t.Errorf("after abort = %d, want 100", v.Int())
	}
	_ = tx.Commit()
}

func TestAccountWithdrawFloor(t *testing.T) {
	db := newDB(t)
	a, _ := NewAccount(db, 50)
	tx := db.Begin()
	if _, err := tx.Call(a, AWithdraw, val.OfInt(80)); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v, want ErrInsufficientFunds", err)
	}
	if _, err := tx.Call(a, AWithdraw, val.OfInt(30)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	b, _ := tx.Call(a, ABalance)
	if b.Int() != 20 {
		t.Errorf("balance = %d, want 20", b.Int())
	}
	_ = tx.Commit()
}

func TestAccountCompensationConservesMoney(t *testing.T) {
	db := newDB(t)
	a, _ := NewAccount(db, 100)
	b, _ := NewAccount(db, 100)

	// A transfer that fails at the second step aborts entirely.
	tx := db.Begin()
	if _, err := tx.Call(a, AWithdraw, val.OfInt(60)); err != nil {
		t.Fatal(err)
	}
	// Simulated business failure → abort; Withdraw is compensated by
	// its inverse Deposit.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin()
	ba, _ := tx.Call(a, ABalance)
	bb, _ := tx.Call(b, ABalance)
	_ = tx.Commit()
	if ba.Int() != 100 || bb.Int() != 100 {
		t.Errorf("balances = %d,%d, want 100,100", ba.Int(), bb.Int())
	}
}

func TestConcurrentDepositsCommute(t *testing.T) {
	db := newDB(t)
	a, _ := NewAccount(db, 0)
	var wg sync.WaitGroup
	for i := 0; i < 25; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := db.Begin()
			if _, err := tx.Call(a, ADeposit, val.OfInt(4)); err != nil {
				t.Error(err)
				_ = tx.Abort()
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	tx := db.Begin()
	b, _ := tx.Call(a, ABalance)
	_ = tx.Commit()
	if b.Int() != 100 {
		t.Errorf("balance = %d, want 100", b.Int())
	}
	if st := db.Engine().Stats(); st.RootWaits != 0 || st.Deadlocks != 0 {
		t.Errorf("deposits blocked: rootwaits=%d deadlocks=%d", st.RootWaits, st.Deadlocks)
	}
}

func TestBalanceConflictsWithUpdates(t *testing.T) {
	db := newDB(t)
	a, _ := NewAccount(db, 10)
	tx1 := db.Begin()
	if _, err := tx1.Call(a, ADeposit, val.OfInt(1)); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	balance, _ := AccountMatrix().ID(ABalance)
	waits := db.Engine().ProbeConflicts(tx2.Root(), compat.Inv(a, balance))
	if len(waits) != 1 || waits[0] != tx1.Root() {
		t.Fatalf("Balance vs Deposit waits = %v, want [tx1]", waits)
	}
	_ = tx2.Abort()
	_ = tx1.Commit()
}

func TestArgumentValidation(t *testing.T) {
	db := newDB(t)
	a, _ := NewAccount(db, 10)
	q, _ := NewQueue(db)
	c, _ := NewCounter(db, 0)
	tx := db.Begin()
	if _, err := tx.Call(a, ADeposit, val.OfInt(-5)); err == nil {
		t.Error("negative deposit accepted")
	}
	if _, err := tx.Call(a, AWithdraw); err == nil {
		t.Error("withdraw without amount accepted")
	}
	if _, err := tx.Call(q, QEnqueue); err == nil {
		t.Error("enqueue without value accepted")
	}
	if _, err := tx.Call(c, CInc); err == nil {
		t.Error("inc without amount accepted")
	}
	_ = tx.Abort()
}
