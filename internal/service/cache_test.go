package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"macs"
)

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	c.Get("b") // miss
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 2 misses, 1 entry", s)
	}
	if got, want := s.HitRate, 1.0/3.0; got != want {
		t.Fatalf("hit rate = %v; want %v", got, want)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Touch "a" so "b" is now the least recently used.
	c.Get("a")
	c.Put("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; want LRU evicted")
	}
	for _, k := range []Key{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted; want resident", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 3 {
		t.Fatalf("stats = %+v; want 1 eviction, 3 entries", s)
	}
}

func TestCachePutExistingRefreshes(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert
	c.Put("c", 3)  // evicts b, the LRU
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Fatalf("Get(a) = %v, %v; want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; want evicted")
	}
}

// TestKeySensitivity flips every request-relevant configuration field
// and checks each variant hashes to a distinct key.
func TestKeySensitivity(t *testing.T) {
	opts := macs.DefaultCompilerOptions()
	cfg := macs.DefaultVMConfig()
	rules := macs.DefaultRules()
	src := "PROGRAM P\nEND\n"
	mk := func(kind, src string, opts macs.CompilerOptions, cfg macs.VMConfig, rules macs.Rules, iters int64, prime Priming) Key {
		t.Helper()
		k, err := NewKey(kind, src, opts, cfg, rules, iters, prime)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	base := mk("analyze", src, opts, cfg, rules, 0, Priming{})
	variants := map[string]Key{}

	variants["kind"] = mk("bound", src, opts, cfg, rules, 0, Priming{})
	variants["source"] = mk("analyze", src+" ", opts, cfg, rules, 0, Priming{})
	variants["iterations"] = mk("analyze", src, opts, cfg, rules, 7, Priming{})
	variants["prime"] = mk("analyze", src, opts, cfg, rules, 0, Priming{Ints: map[string]int64{"N": 5}})

	o := opts
	o.VL = 64
	variants["compiler.VL"] = mk("analyze", src, o, cfg, rules, 0, Priming{})
	o = opts
	o.FPSlots = 2
	variants["compiler.FPSlots"] = mk("analyze", src, o, cfg, rules, 0, Priming{})
	o = opts
	o.ForceScalar = true
	variants["compiler.ForceScalar"] = mk("analyze", src, o, cfg, rules, 0, Priming{})

	v := cfg
	v.MemSlowdown = 2.0
	variants["vm.MemSlowdown"] = mk("analyze", src, opts, v, rules, 0, Priming{})
	v = cfg
	v.BankConflicts = !v.BankConflicts
	variants["vm.BankConflicts"] = mk("analyze", src, opts, v, rules, 0, Priming{})

	r := rules
	r.Chaining = !r.Chaining
	variants["rules.Chaining"] = mk("analyze", src, opts, cfg, r, 0, Priming{})
	r = rules
	r.Bubbles = !r.Bubbles
	variants["rules.Bubbles"] = mk("analyze", src, opts, cfg, r, 0, Priming{})

	// Priming cases a binary encoding must tell apart.
	two := math.Float64frombits(math.Float64bits(2) ^ 1)
	// Eight-byte names make an array's tail line up with the next name's
	// length and bytes, which only the array's own length tells apart.
	word := func(s string) float64 { return math.Float64frombits(binary.LittleEndian.Uint64([]byte(s))) }
	eight := math.Float64frombits(8)
	for name, p := range map[string]Priming{
		"prime.boundaryEarly": {Arrays: map[string][]float64{"AAAAAAAA": {1}, "BBBBBBBB": {2, eight, word("CCCCCCCC"), 3}}},
		"prime.boundaryLate":  {Arrays: map[string][]float64{"AAAAAAAA": {1, eight, word("BBBBBBBB"), 2}, "CCCCCCCC": {3}}},
		"prime.arrayLastBit":  {Arrays: map[string][]float64{"A": {1, two}}},
		"prime.arrayWhole":    {Arrays: map[string][]float64{"A": {1, 2}}},
		"prime.arraySplit":    {Arrays: map[string][]float64{"A": {1}, "B": {2}}},
		"prime.namePrefix":    {Arrays: map[string][]float64{"A": {1}}},
		"prime.nameLonger":    {Arrays: map[string][]float64{"AB": {1}}},
		"prime.intBits":       {Ints: map[string]int64{"A": int64(math.Float64bits(2.5))}},
		"prime.realBits":      {Reals: map[string]float64{"A": 2.5}},
		"prime.realZero":      {Reals: map[string]float64{"A": 0}},
		"prime.realNegZero":   {Reals: map[string]float64{"A": math.Copysign(0, -1)}},
		"prime.emptyArray":    {Arrays: map[string][]float64{"A": {}}},
	} {
		variants[name] = mk("analyze", src, opts, cfg, rules, 0, p)
	}

	seen := map[Key]string{base: "base"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}

	// Determinism: identical inputs, identical key (maps included).
	p := Priming{Ints: map[string]int64{"N": 1, "M": 2}, Reals: map[string]float64{"A": 1.5}}
	k1 := mk("analyze", src, opts, cfg, rules, 3, p)
	k2 := mk("analyze", src, opts, cfg, rules, 3, p)
	if k1 != k2 {
		t.Fatal("identical requests hashed to different keys")
	}
	// An empty section is no section: omitempty drops both on the wire.
	if mk("analyze", src, opts, cfg, rules, 0, Priming{Ints: map[string]int64{}}) != base {
		t.Fatal("an empty ints map moved the key")
	}
}

// TestCacheRawAliases: an alias answers with its stored bytes and counts
// a hit on its entry; an entry keeps at most maxAliasesPerEntry aliases,
// and eviction or a replaced value takes them all.
func TestCacheRawAliases(t *testing.T) {
	c := NewCache(2)
	rk := func(i int) rawKey { return newRawKey("/v1/bound", "", []byte(fmt.Sprint(i))) }
	c.addAlias("a", rk(0), "bound", []byte("A0"))
	if _, _, ok := c.getRaw(rk(0)); ok {
		t.Fatal("alias registered for an absent entry")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	c.addAlias("a", rk(0), "bound", []byte("A0"))
	c.addAlias("a", rk(0), "bound", []byte("dup"))
	ep, body, ok := c.getRaw(rk(0))
	if !ok || ep != "bound" || string(body) != "A0" {
		t.Fatalf("getRaw = %q, %q, %v; want bound, A0, true", ep, body, ok)
	}
	if _, _, ok := c.getRaw(rk(99)); ok {
		t.Fatal("unknown digest hit")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v; want the alias hit counted and the unknown digest not", st)
	}
	// The alias hit touched "a", so "b" is evicted next.
	c.Put("c", 3)
	if _, ok := c.peek("b"); ok {
		t.Fatal("raw hit did not mark its entry recently used")
	}

	for i := 1; i <= maxAliasesPerEntry; i++ {
		c.addAlias("a", rk(i), "bound", []byte(fmt.Sprint("A", i)))
	}
	if _, _, ok := c.getRaw(rk(0)); ok {
		t.Fatal("oldest alias kept past the per-entry bound")
	}
	if len(c.aliases) != maxAliasesPerEntry {
		t.Fatalf("%d aliases, want %d", len(c.aliases), maxAliasesPerEntry)
	}

	c.Put("a", 10)
	if len(c.aliases) != 0 {
		t.Fatalf("replacing the value left %d aliases", len(c.aliases))
	}
	c.addAlias("c", rk(7), "check", []byte("C"))
	c.Put("d", 4) // evicts "a"
	c.Put("e", 5) // evicts "c" and its alias
	if _, _, ok := c.getRaw(rk(7)); ok || len(c.aliases) != 0 {
		t.Fatalf("alias outlived its entry: %d left", len(c.aliases))
	}
}

// TestCacheConcurrent hammers one cache, raw aliases included, from many
// goroutines under -race; correctness here is "no race, no panic,
// counters consistent, no alias outliving its entry".
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8)
	var rawHits atomic.Int64
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := Key(fmt.Sprintf("k%d", (g+i)%16))
				if _, ok := c.Get(k); !ok {
					c.Put(k, i)
				}
				rk := newRawKey("/v1/bound", fmt.Sprint(i%3), []byte(k))
				if _, body, ok := c.getRaw(rk); ok {
					rawHits.Add(1)
					if string(body) != string(k) {
						t.Errorf("alias of %s answered %q", k, body)
					}
				} else {
					c.addAlias(k, rk, "bound", []byte(k))
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s := c.Stats()
	if s.Entries > 8 {
		t.Fatalf("cache over capacity: %d entries", s.Entries)
	}
	if s.Hits+s.Misses != 8*200+rawHits.Load() {
		t.Fatalf("lookups = %d; want %d", s.Hits+s.Misses, 8*200+rawHits.Load())
	}
	for rk, a := range c.aliases {
		e := a.el.Value.(*cacheEntry)
		if c.items[e.key] != a.el || !slices.Contains(e.aliases, rk) {
			t.Fatalf("alias of %s outlived or left its entry", e.key)
		}
	}
}
