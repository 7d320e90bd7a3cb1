package vm

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"macs/internal/asm"
)

// poolTestSrc exercises scalar code, strided vector memory (bank
// conflicts + refresh), chaining and a reduction.
const poolTestSrc = `
.data a 4096
.data b 4096
	mov #256,vs
	mov #128,s2
	mov s2,vl
	mov #4,s0
L1:
	ld.l a(a0),v0
	add.d v0,v1,v2
	mul.d v2,v0,v3
	st.l v3,b(a0)
	sum.d v2,s5
	add.w #8,a0
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`

// runPooled loads poolTestSrc on c, primes its input and runs it.
func runPooled(c *CPU) (Stats, error) {
	p, err := asm.Parse(poolTestSrc)
	if err != nil {
		return Stats{}, err
	}
	if err := c.Load(p); err != nil {
		return Stats{}, err
	}
	m := c.Memory()
	base, _ := m.SymbolAddr("a")
	for k := 0; k < 256; k++ {
		if err := m.WriteF64(base+int64(k*8), 1.5+float64(k)); err != nil {
			return Stats{}, err
		}
	}
	return c.Run()
}

// TestPoolConcurrent hammers one pool from many goroutines under -race:
// every run must match the single-threaded reference exactly, and Get
// never hands back a CPU that already ran a program.
func TestPoolConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	want, err := runPooled(New(cfg))
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool(cfg)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev *CPU
			for i := 0; i < 8; i++ {
				c := pool.Get()
				if c == prev {
					errs <- errors.New("Get returned a CPU that already ran a program")
					return
				}
				st, err := runPooled(c)
				if err != nil {
					errs <- err
					return
				}
				pool.Put(c)
				prev = c
				if !reflect.DeepEqual(st, want) {
					errs <- errors.New("pooled run stats diverge from fresh reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
