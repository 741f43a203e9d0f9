// The paper's running example (§2): the order-entry application with
// transaction types T1–T5, run concurrently under the semantic
// protocol and under conventional record-level 2PL. The semantic
// protocol commits the same work with far fewer top-level waits and
// deadlocks.
package main

import (
	"fmt"
	"log"

	"semcc"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/workload"
)

func main() {
	for _, p := range []semcc.Protocol{semcc.Semantic, semcc.TwoPLObject} {
		opts := oodb.Options{Protocol: p}
		db := oodb.Open(opts)
		app, err := orderentry.Setup(db, orderentry.Config{
			Items: 4, OrdersPerItem: 600, InitialQOH: 5000, Price: 10, OrderQuantity: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		m, err := workload.RunOn(app, workload.Config{
			Options: opts, Items: 4, Clients: 8, TxPerClient: 200, Seed: 7,
			OrdersPerItem: 600, InitialQOH: 5000, Validate: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s  committed=%4d  tps=%7.0f  blocked=%4d  top-level waits=%4d  deadlock retries=%3d\n",
			p, m.Committed, m.Throughput, m.Engine.Blocks, m.Engine.RootWaits, m.Retries)
	}
	fmt.Println()
	fmt.Println("The order-entry invariants (QOH conservation, status sanity) were")
	fmt.Println("validated after both runs; the semantic protocol's advantage is pure")
	fmt.Println("concurrency, not weakened correctness.")
}
