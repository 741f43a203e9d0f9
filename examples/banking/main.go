// Banking: accounts where deposits commute with everything and
// withdrawals carry an insufficient-funds floor, so two withdrawals
// from one account conflict.
// Demonstrates (1) commuting updates on one hot account, (2) transfer
// transactions with deadlock retry, and (3) compensation — an aborted
// transfer's committed Withdraw is undone by its inverse Deposit.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"

	"semcc"
	"semcc/adts"
)

func main() {
	db := semcc.Open(semcc.Options{Protocol: semcc.Semantic})
	if err := adts.RegisterTypes(db); err != nil {
		log.Fatal(err)
	}

	const accounts = 4
	var acct [accounts]semcc.OID
	for i := range acct {
		a, err := adts.NewAccount(db, 1000)
		if err != nil {
			log.Fatal(err)
		}
		acct[i] = a
	}

	// 1) Hot-account deposits: all commute, no waiting.
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := db.Begin()
			if _, err := tx.Call(acct[0], adts.ADeposit, semcc.Int(10)); err != nil {
				log.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("after 32 concurrent deposits: top-level waits = %d\n", db.Engine().Stats().RootWaits)

	// 2) Concurrent transfers between account pairs, with deadlock
	// retry (withdrawals conflict, so blocking and deadlocks happen).
	transfer := func(from, to semcc.OID, amount int64) error {
		for attempt := 0; attempt < 20; attempt++ {
			tx := db.Begin()
			_, err := tx.Call(from, adts.AWithdraw, semcc.Int(amount))
			if err == nil {
				_, err = tx.Call(to, adts.ADeposit, semcc.Int(amount))
			}
			if err == nil {
				return tx.Commit()
			}
			if aerr := tx.Abort(); aerr != nil {
				return aerr
			}
			if errors.Is(err, semcc.ErrDeadlock) {
				continue
			}
			return err
		}
		return fmt.Errorf("transfer: too many deadlock retries")
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := transfer(acct[i%accounts], acct[(i+1)%accounts], 50); err != nil {
				log.Fatal(err)
			}
		}(i)
	}
	wg.Wait()

	// 3) Compensation: abort a transfer after its Withdraw committed.
	tx := db.Begin()
	if _, err := tx.Call(acct[1], adts.AWithdraw, semcc.Int(500)); err != nil {
		log.Fatal(err)
	}
	if err := tx.Abort(); err != nil { // inverse Deposit(500) runs
		log.Fatal(err)
	}

	var sum int64
	tx = db.Begin()
	for i, a := range acct {
		b, err := tx.Call(a, adts.ABalance)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("account %d: %d\n", i, b.Int())
		sum += b.Int()
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	st := db.Engine().Stats()
	fmt.Printf("total = %d (expected %d: money conserved through transfers, aborts, compensation)\n",
		sum, int64(accounts*1000+32*10))
	fmt.Printf("compensations run = %d, deadlock victims = %d\n", st.Compensations, st.Deadlocks)
}
