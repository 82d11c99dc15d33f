package main

import (
	"fmt"
	"sort"
	"time"

	"predis/internal/crypto"
	"predis/internal/exec"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// book keeps the run's ledger of outcomes as the deployment reports
// them through its hooks: every host commit with the state root its
// executor produced, every full-node block completion, and every client
// confirmation seen on the wire. It aborts the run on the first host
// disagreement and accounts full-node and client failures at the end.
type book struct {
	// col is the workload package's own collector; its confirmed count
	// and p50/p99 must match the book's, which checks the wire-level
	// confirmation rule below against the client's.
	col *workload.Collector
	// warm and genStop bound the window committed throughput counts in;
	// confirmations count from warm to the end of the run.
	warm, genStop time.Time
	// crashAt, when set, is when the view-0 leader crashed.
	crashAt time.Time

	heights  map[uint64]*heightRec
	hostExec []exec.Result // last executed block per host
	hostHead []uint64
	bad      error

	// Observer host (the last one, which never crashes).
	obsTxs, obsBlocks int        // commits inside [warm, genStop)
	execRes           exec.Stats // its execution counters, whole run
	// firstServed is when the first transaction submitted after the
	// crash was confirmed: the end of the outage clients see.
	firstServed time.Time

	fullExec []exec.Result
	full     []map[uint64]fullRec

	// Wire-level client bookkeeping: submission time and distinct
	// repliers per transaction.
	txs        map[uint64]txRec
	latencies  []time.Duration
	confirmed  int
	unknownAck int
}

type heightRec struct {
	txs     int
	root    crypto.Hash
	firstAt time.Time
}

type fullRec struct {
	txs  int
	root crypto.Hash
	at   time.Time
}

type txRec struct {
	submitted int64
	repliers  uint32 // bit per consensus node
	done      bool
}

func newBook(hosts, fulls int, warm, genStop, end time.Time) *book {
	b := &book{
		col:      workload.NewCollector(warm, end),
		warm:     warm,
		genStop:  genStop,
		heights:  make(map[uint64]*heightRec),
		hostExec: make([]exec.Result, hosts),
		hostHead: make([]uint64, hosts),
		fullExec: make([]exec.Result, fulls),
		full:     make([]map[uint64]fullRec, fulls),
		txs:      make(map[uint64]txRec),
	}
	for i := range b.full {
		b.full[i] = make(map[uint64]fullRec)
	}
	return b
}

func (b *book) fail(format string, args ...any) {
	if b.bad == nil {
		b.bad = fmt.Errorf(format, args...)
	}
}

func (b *book) err() error { return b.bad }

func (b *book) hostExecuted(i int, r exec.Result) {
	b.hostExec[i] = r
	if i == len(b.hostExec)-1 {
		b.execRes.Blocks++
		b.execRes.Txs += r.Txs
		b.execRes.Aborted += r.Aborted
		b.execRes.Levels += r.Levels
	}
}

// hostCommitted checks host i's block at height against the first
// host that committed it: same transaction count, same state root.
func (b *book) hostCommitted(i int, height uint64, txs int, at time.Time) {
	r := b.hostExec[i]
	if r.Height != height {
		b.fail("host %d committed height %d but last executed %d", i, height, r.Height)
		return
	}
	if rec, ok := b.heights[height]; ok {
		if rec.txs != txs || rec.root != r.StateRoot {
			b.fail("hosts disagree at height %d: host %d has %d txs root %x, first commit had %d txs root %x",
				height, i, txs, r.StateRoot[:4], rec.txs, rec.root[:4])
		}
		if at.Before(rec.firstAt) {
			rec.firstAt = at
		}
	} else {
		b.heights[height] = &heightRec{txs: txs, root: r.StateRoot, firstAt: at}
	}
	if height > b.hostHead[i] {
		b.hostHead[i] = height
	}
	if i == len(b.hostHead)-1 && !at.Before(b.warm) && at.Before(b.genStop) {
		b.obsTxs += txs
		b.obsBlocks++
	}
}

func (b *book) fullExecuted(slot int, r exec.Result) { b.fullExec[slot] = r }

func (b *book) fullCompleted(slot int, height uint64, txs int, at time.Time) {
	rec := fullRec{txs: txs, at: at}
	if r := b.fullExec[slot]; r.Height == height {
		rec.root = r.StateRoot
	}
	b.full[slot][height] = rec
}

// observe is a simnet delivery hook: it records each transaction's
// submission time from the first SubmitTx that arrives and applies the
// client's f+1 distinct-replies rule to BlockReply deliveries.
func (b *book) observe(from, to wire.NodeID, m wire.Message, at time.Time) {
	switch msg := m.(type) {
	case *types.SubmitTx:
		key := obs.TxKey(msg.Tx.Client, msg.Tx.Seq)
		if _, ok := b.txs[key]; !ok {
			b.txs[key] = txRec{submitted: msg.Tx.Submitted}
		}
	case *types.BlockReply:
		for _, seq := range msg.Seqs {
			key := obs.TxKey(to, seq)
			rec, ok := b.txs[key]
			if !ok {
				b.unknownAck++
				continue
			}
			if rec.done {
				continue
			}
			rec.repliers |= 1 << uint(msg.Replica)
			if popcount(rec.repliers) >= f+1 {
				rec.done = true
				sub := simnet.Epoch.Add(time.Duration(rec.submitted))
				if !b.crashAt.IsZero() && b.firstServed.IsZero() && sub.After(b.crashAt) {
					b.firstServed = at
				}
				if !at.Before(b.warm) {
					b.confirmed++
					b.latencies = append(b.latencies, at.Sub(sub))
				}
			}
			b.txs[key] = rec
		}
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// fullAccount counts (full node, height) pairs over every height the
// hosts committed at least settle before end: pairs the node never
// completed, or completed with a different transaction count or state
// root. lag holds completion minus first host commit for the pairs
// that were delivered.
type fullAccount struct {
	pairs, missing, wrongRoot, wrongTxs int
	lag                                 []time.Duration
}

func (b *book) accountFull(end time.Time) fullAccount {
	var a fullAccount
	cutoff := end.Add(-settle)
	for h, rec := range b.heights {
		if rec.firstAt.After(cutoff) {
			continue
		}
		for _, got := range b.full {
			a.pairs++
			fr, ok := got[h]
			switch {
			case !ok:
				a.missing++
			case fr.root != rec.root:
				a.wrongRoot++
			case fr.txs != rec.txs:
				a.wrongTxs++
			default:
				a.lag = append(a.lag, fr.at.Sub(rec.firstAt))
			}
		}
	}
	sort.Slice(a.lag, func(i, j int) bool { return a.lag[i] < a.lag[j] })
	return a
}

// tail holds the percentiles of one latency sample, by nearest rank.
type tail struct {
	N              int
	P50, P99, P999 time.Duration
}

// minP999Sample is the smallest sample with ten values beyond p99.9.
const minP999Sample = 10000

// percentiles sorts sample in place and reads p50, p99 and p99.9 by
// nearest rank. p99.9 is left zero when fewer than ten samples lie
// beyond it.
func percentiles(sample []time.Duration) tail {
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	t := tail{N: len(sample), P50: stats.Percentile(sample, 50), P99: stats.Percentile(sample, 99)}
	if len(sample) >= minP999Sample {
		t.P999 = stats.Percentile(sample, 99.9)
	}
	return t
}
