// Banking: multi-key transfer transactions with invariant checking
// across aborts and a crash, written against the typed executor — a
// schema with named columns, transactional closures, typed point reads,
// column updates and typed scans — instead of raw byte-slice point ops.
// The invariant — total balance is conserved — must hold (a) during
// normal operation, (b) after explicit aborts roll transfers back, and
// (c) after crash recovery rolls back the transfer in flight at the
// crash.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"logrec"
)

const (
	accounts       = 2_000
	initialBalance = 1_000
)

// accountSchema shapes an account row: who owns it and what it holds.
var accountSchema = logrec.MustSchema(
	logrec.Column{Name: "owner", Type: logrec.TString},
	logrec.Column{Name: "balance", Type: logrec.TInt64},
)

// errInsufficient aborts a transfer from inside the transactional
// closure; Executor.Txn rolls the debit back and returns it.
var errInsufficient = errors.New("insufficient funds")

func totalBalance(ex *logrec.Executor) int64 {
	var total int64
	err := ex.ScanAll().Project("balance").Each(func(r logrec.ExecRow) error {
		total += r.Cols[0].(int64)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return total
}

// transfer moves amount between two accounts in one transaction: both
// balances are read, then the debit and credit land as column updates.
// Returning an error from the closure aborts the whole transfer.
func transfer(ex *logrec.Executor, from, to uint64, amount int64) error {
	return ex.Txn(func() error {
		fromRow, okFrom, err := ex.Get(from)
		if err != nil {
			return err
		}
		toRow, okTo, err := ex.Get(to)
		if err != nil {
			return err
		}
		if !okFrom || !okTo {
			return logrec.ErrKeyNotFound
		}
		fromBal := fromRow[1].(int64)
		// Debit first — then discover insufficient funds and bail,
		// exercising transactional rollback through the DC.
		if err := ex.UpdateCol(from, "balance", fromBal-amount); err != nil {
			return err
		}
		if amount > fromBal {
			return errInsufficient
		}
		return ex.UpdateCol(to, "balance", toRow[1].(int64)+amount)
	})
}

func main() {
	cfg := logrec.DefaultConfig()
	cfg.CachePages = 256
	eng, err := logrec.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Load(accounts, func(k uint64) []byte {
		row, err := accountSchema.Encode(fmt.Sprintf("acct-%04d", k), int64(initialBalance))
		if err != nil {
			log.Fatal(err)
		}
		return row
	}); err != nil {
		log.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)
	ex := logrec.NewExecutor(mgr.NewSession(), cfg.TableID, accountSchema)
	const want = int64(accounts * initialBalance)
	fmt.Printf("opened %d accounts, total balance %d\n", accounts, want)

	rng := rand.New(rand.NewSource(2026))
	commits, aborts := 0, 0
	for i := 0; i < 500; i++ {
		from := uint64(rng.Intn(accounts))
		to := uint64(rng.Intn(accounts))
		if from == to {
			continue
		}
		amount := int64(rng.Intn(2 * initialBalance)) // sometimes too much
		switch err := transfer(ex, from, to, amount); {
		case err == nil:
			commits++
			if commits%100 == 0 {
				if err := mgr.Checkpoint(); err != nil {
					log.Fatal(err)
				}
			}
		case errors.Is(err, errInsufficient):
			aborts++
		default:
			log.Fatal(err)
		}
	}
	fmt.Printf("ran %d transfers (%d aborted for insufficient funds)\n", commits+aborts, aborts)
	if got := totalBalance(ex); got != want {
		log.Fatalf("conservation violated before crash: total %d, want %d", got, want)
	}
	fmt.Println("invariant holds after aborts: total balance conserved")

	// Crash mid-transfer: debited but not yet credited. The executor
	// joins the session's open transaction, which the crash strands.
	if err := ex.Session().Begin(); err != nil {
		log.Fatal(err)
	}
	bal, _, err := ex.GetCol(7, "balance")
	if err != nil {
		log.Fatal(err)
	}
	if err := ex.UpdateCol(7, "balance", bal.(int64)-500); err != nil {
		log.Fatal(err)
	}
	eng.TC.SendEOSL()
	crash := eng.Crash()
	fmt.Println("crashed mid-transfer (debit logged, credit never happened)")

	for _, m := range logrec.Methods() {
		recovered, met, err := logrec.Recover(crash, m, logrec.DefaultOptions(cfg))
		if err != nil {
			log.Fatalf("%v: %v", m, err)
		}
		rex := logrec.NewExecutor(recovered.NewSessionManager(0).NewSession(), cfg.TableID, accountSchema)
		got := totalBalance(rex)
		status := "OK"
		if got != want {
			status = "VIOLATED"
		}
		fmt.Printf("%-4v: total %d (%s), losers undone %d, redo %v\n",
			m, got, status, met.LosersUndone, met.RedoTotal)
		if got != want {
			log.Fatalf("%v lost money", m)
		}
	}
	fmt.Println("all five recovery methods conserve the total balance")
}
