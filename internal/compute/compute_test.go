package compute

import "testing"

func TestNewPoolZeroWorkersIsNil(t *testing.T) {
	if p := NewPool(0); p != nil {
		t.Fatal("NewPool(0) must return the nil pool")
	}
	if p := NewPool(-3); p != nil {
		t.Fatal("NewPool(-3) must return the nil pool")
	}
	p := NewPool(2)
	if p == nil {
		t.Fatal("NewPool(2) must return a non-nil handle")
	}
	p.Close()
	var nilPool *Pool
	nilPool.Close() // nil-safe
}

type provider struct{ p *Pool }

func (pp provider) ComputePool() *Pool { return pp.p }

func TestPoolOf(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if got := PoolOf(provider{p}); got != p {
		t.Fatal("PoolOf did not extract the provided pool")
	}
	if got := PoolOf(struct{}{}); got != nil {
		t.Fatal("PoolOf on a non-provider must be nil")
	}
}
