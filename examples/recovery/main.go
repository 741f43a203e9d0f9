// Crash recovery: the engine journals every subtransaction commit with
// its compensating inverse (write-ahead logging at the semantic
// level). This example crashes the database with a transaction in
// flight and shows restart recovery rolling the loser back logically —
// the multilevel-recovery discipline the paper's §5 points to.
package main

import (
	"fmt"
	"log"

	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/val"
	"semcc/internal/wal"
)

func main() {
	journal := wal.NewLog()
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: journal})
	app, err := orderentry.Setup(db, orderentry.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	item1, _ := app.Item(1)
	item2, _ := app.Item(2)
	nos1, _ := app.OrderNosOf(1)
	nos2, _ := app.OrderNosOf(2)

	// A committed transaction (winner).
	tx := db.Begin()
	if _, err := tx.Call(item1, orderentry.MShipOrder, val.OfInt(nos1[0])); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}

	// A transaction still running at crash time (loser): it shipped
	// an order on item 2 and paid one on item 1, but never committed.
	loser := db.Begin()
	if _, err := loser.Call(item2, orderentry.MShipOrder, val.OfInt(nos2[0])); err != nil {
		log.Fatal(err)
	}
	if _, err := loser.Call(item1, orderentry.MPayOrder, val.OfInt(nos1[0])); err != nil {
		log.Fatal(err)
	}

	fmt.Println("―― crash ――")
	// Restart: volatile state is gone; the store and the journal
	// survive (the journal via its serialised form).
	recovered, err := wal.Unmarshal(journal.Marshal())
	if err != nil {
		log.Fatal(err)
	}
	db2 := oodb.Reopen(db, oodb.Options{Protocol: core.Semantic})
	analysis, err := wal.Recover(db2, recovered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("winners: %v\n", analysis.Committed)
	for _, l := range analysis.Losers {
		fmt.Printf("loser tx %d: %d pending compensations:\n", l.Root, len(l.Pending))
		for _, inv := range l.Pending {
			fmt.Printf("  %s\n", inv.Format(db2.Engine().Table().Name(inv)))
		}
	}

	app2, err := orderentry.Attach(db2)
	if err != nil {
		log.Fatal(err)
	}
	states, err := app2.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	if err := orderentry.CheckConservation(states, 1000); err != nil {
		log.Fatal(err)
	}
	for _, is := range states[:2] {
		fmt.Printf("item %d: QOH=%d", is.ItemNo, is.QOH)
		for _, os := range is.Orders {
			fmt.Printf("  order %d shipped=%t paid=%t", os.OrderNo, os.Shipped, os.Paid)
		}
		fmt.Println()
	}
	fmt.Println("the winner's shipment survived; the loser's work was compensated away")
}
