package vm

import (
	"fmt"

	"macs/internal/mem"
)

// Cluster co-simulates up to four C-240 CPUs sharing the 32-bank memory
// (paper §2: "the four processors can request and the 32 memory banks can
// satisfy one memory access per processor per cycle" under no conflicts;
// §4.2 studies what contention does in practice).
//
// Each CPU runs its own program against its own functional memory; the
// banks are shared for timing only, via a common mem.SharedBanks that
// every vector memory stream reserves cycles in. The scheduler always
// advances the CPU with the smallest local clock, so streams enter the
// shared banks in global time order.
type Cluster struct {
	cpus   []*CPU
	shared *mem.SharedBanks
}

// NewCluster builds a cluster of len(cfgs) CPUs sharing one set of
// banks, whose geometry and refresh schedule are the first CPU's
// machine's.
func NewCluster(cfgs []Config) *Cluster {
	bankCfg := mem.DefaultConfig()
	if len(cfgs) > 0 {
		bankCfg = cfgs[0].BankConfig()
	}
	cl := &Cluster{shared: mem.NewSharedBanks(bankCfg)}
	for _, cfg := range cfgs {
		c := New(cfg)
		c.SetSharedBank(cl.shared)
		cl.cpus = append(cl.cpus, c)
	}
	return cl
}

// CPU returns the i-th processor (for loading and priming).
func (cl *Cluster) CPU(i int) *CPU { return cl.cpus[i] }

// Size returns the number of CPUs.
func (cl *Cluster) Size() int { return len(cl.cpus) }

// Run co-simulates all CPUs to completion and returns per-CPU stats.
func (cl *Cluster) Run() ([]Stats, error) {
	if len(cl.cpus) == 0 {
		return nil, fmt.Errorf("vm: empty cluster")
	}
	active := make([]bool, len(cl.cpus))
	remaining := 0
	for i, c := range cl.cpus {
		if c.prog != nil {
			active[i] = true
			remaining++
		}
	}
	if remaining == 0 {
		return nil, fmt.Errorf("vm: no programs loaded in cluster")
	}
	for remaining > 0 {
		// Advance the active CPU whose next memory stream is earliest.
		best := -1
		for i, c := range cl.cpus {
			if !active[i] {
				continue
			}
			if best < 0 || c.horizon() < cl.cpus[best].horizon() {
				best = i
			}
		}
		done, err := cl.cpus[best].Step()
		if err != nil {
			return nil, fmt.Errorf("vm: cluster cpu %d: %w", best, err)
		}
		if done {
			active[best] = false
			remaining--
		}
	}
	out := make([]Stats, len(cl.cpus))
	for i, c := range cl.cpus {
		out[i] = c.Stats()
	}
	return out, nil
}
