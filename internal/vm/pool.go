package vm

// Pool is a deprecated shim kept for the benchmark module's traced
// re-enactment of the service, which still calls NewPool, Get and Put:
// simulators are not pooled, because a fresh CPU costs what its program
// touches. Get returns New(cfg) and Put drops the CPU. ROADMAP item 3,
// which replaces that re-enactment with the service's own spans,
// deletes it.
//
// Deprecated: call New once per run.
type Pool struct{ cfg Config }

// NewPool returns the shim for one configuration.
//
// Deprecated: call New once per run.
func NewPool(cfg Config) *Pool { return &Pool{cfg: cfg} }

// Get returns a fresh CPU.
func (p *Pool) Get() *CPU { return New(p.cfg) }

// Put drops the CPU.
func (p *Pool) Put(*CPU) {}
