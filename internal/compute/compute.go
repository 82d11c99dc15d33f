// Package compute is an inert compute-pool handle. Every digest, proof,
// erasure and execution kernel runs inline on the simulator's event
// loop; nothing here starts a goroutine or runs a task.
//
// The package is kept only because the benchmark module (perfbench/)
// compiles against it: its handler wrapper forwards ComputePool and its
// tests check that a pool set on simnet.Config reaches a handler through
// PoolOf. Remove it together with that forwarder.
package compute

// PoolProvider is implemented by runtime contexts (simnet's per-node
// env.Context) that carry a pool handle.
type PoolProvider interface {
	ComputePool() *Pool
}

// PoolOf extracts the pool from a context-like value. It returns nil
// when the value does not provide one.
func PoolOf(v any) *Pool {
	if pp, ok := v.(PoolProvider); ok {
		return pp.ComputePool()
	}
	return nil
}

// Pool is an opaque handle. A nil *Pool is valid. The blank field
// gives it a size, so distinct handles are distinct pointers.
type Pool struct{ _ byte }

// NewPool returns a handle for the given worker count: nil for
// workers <= 0, non-nil otherwise. It starts nothing.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		return nil
	}
	return &Pool{}
}

// Close does nothing; it is safe on a nil pool.
func (p *Pool) Close() {}
