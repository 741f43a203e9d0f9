// Command semcc-sh is an interactive shell over the DML of
// internal/dml, running against a freshly populated order-entry
// database. It demonstrates the paper's "conventional transactions":
// generic GET/PUT/SELECT/SCAN access that bypasses object
// encapsulation, coexisting with CALLs to encapsulated methods —
// all under the semantic locking protocol. An order's Status atom
// packs its event counts into one integer (paid in the low 32 bits,
// shipped in the high 32), so one shipment reads 4294967296.
//
//	$ semcc-sh
//	semcc> BEGIN
//	semcc> CALL Items[1].ShipOrder(1)
//	semcc> GET Items[1].Orders[1].Status
//	4294967296
//	semcc> COMMIT
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"semcc/internal/core"
	"semcc/internal/dml"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
)

func main() {
	protocol := flag.String("protocol", "semantic", "semantic|open-noretain|closed-nested|2pl-object|2pl-page")
	items := flag.Int("items", 4, "number of items to populate")
	orders := flag.Int("orders", 3, "orders per item")
	flag.Parse()

	var kind core.ProtocolKind
	switch *protocol {
	case "semantic":
		kind = core.Semantic
	case "open-noretain":
		kind = core.OpenNoRetain
	case "closed-nested":
		kind = core.ClosedNested
	case "2pl-object":
		kind = core.TwoPLObject
	case "2pl-page":
		kind = core.TwoPLPage
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *protocol)
		os.Exit(2)
	}

	db := oodb.Open(oodb.Options{Protocol: kind})
	if _, err := orderentry.Setup(db, orderentry.Config{
		Items: *items, OrdersPerItem: *orders, InitialQOH: 1000, Price: 10, OrderQuantity: 1,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	in := dml.New(db)

	fmt.Printf("semcc shell — protocol %s, %d items × %d orders; statements:\n", kind, *items, *orders)
	fmt.Println("  BEGIN | COMMIT | ABORT | GET p | PUT p = v | CALL p.M(a,…) | SELECT p | SCAN p | SHOW NAMES|STATS")
	sc := bufio.NewScanner(os.Stdin)
	for {
		if in.InTx() {
			fmt.Print("semcc*> ")
		} else {
			fmt.Print("semcc> ")
		}
		if !sc.Scan() {
			break
		}
		out, err := in.Exec(sc.Text())
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if out != "" {
			fmt.Println(out)
		}
	}
}
