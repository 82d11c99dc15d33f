// Bank: a payment ledger replicated with Predis-on-PBFT (P-PBFT). Each
// transaction encodes a transfer between accounts derived from its
// identity; every replica applies committed transfers to its own balance
// table, and the program verifies at the end that all four replicas
// computed identical balances — the state-machine-replication guarantee
// built on Theorem 3.3 (identical candidate blocks).
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"os"
	"time"

	"predis/internal/crypto"
	"predis/internal/harness"
	"predis/internal/types"
)

const accounts = 16

// ledger is one replica's application state.
type ledger struct {
	balances [accounts]int64
	applied  int
}

// apply executes one transaction as a transfer: the payer, payee, and
// amount are derived deterministically from the transaction identity, so
// every replica computes the same transition without any payload parsing.
func (l *ledger) apply(tx *types.Transaction) {
	h := tx.Hash()
	payer := int(h[0]) % accounts
	payee := int(h[1]) % accounts
	amount := int64(h[2]%9) + 1
	l.balances[payer] -= amount
	l.balances[payee] += amount
	l.applied++
}

// digest summarizes the balance table for cross-replica comparison.
func (l *ledger) digest() crypto.Hash {
	e := make([]byte, 0, accounts*8)
	for _, b := range l.balances {
		v := uint64(b)
		e = append(e, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return crypto.HashBytes(e)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bank:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		nc       = 4
		duration = 3 * time.Second
	)
	ledgers := make([]*ledger, nc)
	for i := range ledgers {
		ledgers[i] = &ledger{}
	}
	dep, err := harness.Build(harness.Deployment{
		System:      harness.SysPPBFT,
		Seed:        7,
		Suite:       crypto.NewEd25519Suite(nc, 99),
		ViewTimeout: time.Second,
		Clients:     2, ClientBase: 200, Offered: 800,
		Stop: duration,
		Apply: func(node int, txs []*types.Transaction) {
			for _, tx := range txs {
				ledgers[node].apply(tx)
			}
		},
	})
	if err != nil {
		return err
	}

	fmt.Println("bank: replicating transfers over P-PBFT…")
	dep.Run(duration + 2*time.Second)

	ref := ledgers[0].digest()
	for i := 1; i < nc; i++ {
		if ledgers[i].applied != ledgers[0].applied {
			return fmt.Errorf("replica %d applied %d transfers, replica 0 applied %d",
				i, ledgers[i].applied, ledgers[0].applied)
		}
		if ledgers[i].digest() != ref {
			return fmt.Errorf("replica %d diverged from replica 0", i)
		}
	}
	fmt.Printf("all %d replicas applied %d transfers and agree (state digest %s)\n",
		nc, ledgers[0].applied, ref.Short())
	fmt.Println("sample balances at replica 0:")
	for a := 0; a < 4; a++ {
		fmt.Printf("  account %2d: %+d\n", a, ledgers[0].balances[a])
	}
	if ledgers[0].applied == 0 {
		return fmt.Errorf("nothing committed")
	}
	return nil
}
