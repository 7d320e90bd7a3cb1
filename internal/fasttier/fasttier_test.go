// Golden and differential tests for the predictor.
//
//	TestFastTierGoldenLFK                predicted cycles + attribution vs sim
//	TestFastTierOutOfRangeDifferential   fails exactly when the simulator does
//	TestPredictDataDependent             refuses a float-steered branch
//	TestPredictorConcurrent              one shared Predictor, many goroutines
package fasttier_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"macs/internal/compiler"
	"macs/internal/fasttier"
	"macs/internal/lfk"
	"macs/internal/vm"
)

// fastTierGolden pins, per LFK, the cycle count the simulator measures
// and the predictor predicts. Both run one timing model, so the two must
// agree exactly; any drift in that model shows up here as a cycle-count
// diff.
var fastTierGolden = map[int]int64{
	1:  4573,
	2:  1550,
	3:  2459,
	4:  2667,
	6:  16977,
	7:  11350,
	8:  6531,
	9:  1291,
	10: 2210,
	12: 3293,
}

// compileLFKs compiles the ten case-study kernels at the default options.
func compileLFKs(t testing.TB) []*lfk.Compiled {
	t.Helper()
	var out []*lfk.Compiled
	for _, k := range lfk.All() {
		c, err := lfk.Compile(k, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// TestFastTierGoldenLFK is the predictor's accuracy gate: for all ten
// LFKs the prediction must match the golden cycle count and a live
// primed simulation's CPL, and reproduce the simulator's stall
// attribution lane by lane and bucket by bucket.
func TestFastTierGoldenLFK(t *testing.T) {
	cfg := vm.DefaultConfig()
	pred := fasttier.NewPredictor(cfg)
	for _, c := range compileLFKs(t) {
		k := c.Kernel
		want, ok := fastTierGolden[k.ID]
		if !ok {
			t.Fatalf("lfk%d: no golden entry", k.ID)
		}
		st, _, err := c.Run(cfg)
		if err != nil {
			t.Fatalf("lfk%d sim: %v", k.ID, err)
		}
		measuredCPL := float64(st.Cycles) / float64(k.Elements)
		p, err := pred.Predict(c.Program, int64(k.Elements), k.DataInts())
		if err != nil {
			t.Fatalf("lfk%d predict: %v", k.ID, err)
		}

		if st.Cycles != want {
			t.Errorf("lfk%d: simulator measured %d cycles, golden %d", k.ID, st.Cycles, want)
		}
		if p.Cycles != want {
			t.Errorf("lfk%d: predicted %d cycles, golden %d", k.ID, p.Cycles, want)
		}
		if p.CPL != measuredCPL {
			t.Errorf("lfk%d: predicted CPL %.4f, measured %.4f", k.ID, p.CPL, measuredCPL)
		}
		if !reflect.DeepEqual(p.Attr, st.Attr) {
			t.Errorf("lfk%d: attribution diverges from simulator:\npredicted %+v\nsimulated %+v", k.ID, p.Attr, st.Attr)
		}
		if err := p.Attr.Conserved(p.Cycles); err != nil {
			t.Errorf("lfk%d: %v", k.ID, err)
		}
	}
}

// simulate loads prog on a fresh simulator, primes d_N and runs it.
func simulate(cfg vm.Config, src string, n int64) (vm.Stats, error) {
	prog, err := compiler.Compile(src, compiler.DefaultOptions())
	if err != nil {
		return vm.Stats{}, err
	}
	cpu := vm.New(cfg)
	if err := cpu.Load(prog); err != nil {
		return vm.Stats{}, err
	}
	base, ok := cpu.Memory().SymbolAddr("d_N")
	if !ok {
		return vm.Stats{}, fmt.Errorf("no symbol d_N")
	}
	if err := cpu.Memory().WriteI64(base, n); err != nil {
		return vm.Stats{}, err
	}
	return cpu.Run()
}

// TestFastTierOutOfRangeDifferential: the predictor fails exactly when
// the simulator does, with the same memory error — data that does not
// fit the memory, and a trip count that runs the vector streams off its
// end — and answers the simulator's cycle count when the same kernel
// stays in range. A memory error is never a data-dependence refusal,
// which would send explore to simulate instead of failing.
func TestFastTierOutOfRangeDifferential(t *testing.T) {
	saxpy := func(elems int) string {
		return fmt.Sprintf("PROGRAM SAXPY\nREAL X(%d), Y(%d), A\nINTEGER N, K\nDO K = 1, N\n  Y(K) = Y(K) + A*X(K)\nENDDO\nEND\n", elems, elems)
	}
	cases := []struct {
		name  string
		src   string
		n     int64
		wantE string // the simulator's memory error; "" when it runs
	}{
		{"data-too-big", saxpy(3000000), 1000, `mem: out of memory allocating "d_X" (24000000 bytes)`},
		{"streams-off-the-end", saxpy(2048), 3000000, "mem: access at 16777216 (+8) out of range [0,16777216)"},
		{"in-range", saxpy(2048), 2048, ""},
	}
	cfg := vm.DefaultConfig()
	pred := fasttier.NewPredictor(cfg)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, simErr := simulate(cfg, tc.src, tc.n)
			prog, err := compiler.Compile(tc.src, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			p, predErr := pred.Predict(prog, tc.n, map[string]int64{"d_N": tc.n})
			if tc.wantE == "" {
				if simErr != nil || predErr != nil {
					t.Fatalf("errors: simulator %v, predictor %v", simErr, predErr)
				}
				if p.Cycles != st.Cycles {
					t.Fatalf("predicted %d cycles, simulated %d", p.Cycles, st.Cycles)
				}
				return
			}
			for who, err := range map[string]error{"simulator": simErr, "predictor": predErr} {
				if err == nil || !strings.HasSuffix(err.Error(), tc.wantE) {
					t.Errorf("%s error = %v, want one ending in %q", who, err, tc.wantE)
				}
				if errors.Is(err, fasttier.ErrDataDependent) {
					t.Errorf("%s refused as data-dependent instead of failing", who)
				}
			}
		})
	}
}

// dataDepSrc branches on a floating-point comparison, which the
// predictor does not model.
const dataDepSrc = `
PROGRAM DATADEP
REAL X(128), S
INTEGER N, K
DO K = 1, N
  X(K) = X(K) + S
ENDDO
IF (S .LT. 1.0) GOTO 10
10 CONTINUE
END
`

// TestPredictDataDependent: a branch on floating-point data is refused
// with ErrDataDependent rather than guessed, and the refusal is not
// memoized as an answer.
func TestPredictDataDependent(t *testing.T) {
	prog, err := compiler.Compile(dataDepSrc, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred := fasttier.NewPredictor(vm.DefaultConfig())
	for i := 0; i < 2; i++ {
		if _, err := pred.Predict(prog, 16, map[string]int64{"d_N": 16}); !errors.Is(err, fasttier.ErrDataDependent) {
			t.Fatalf("call %d: error = %v, want ErrDataDependent", i, err)
		}
	}
}

// TestPredictorConcurrent: several goroutines share one Predictor over
// the ten LFKs — each on its own compiles (first sight, so every call
// replays on a pooled interpreter) and on one shared set (memo hits racing
// first sights) — and every answer equals its golden. Run under -race.
func TestPredictorConcurrent(t *testing.T) {
	const goroutines = 4
	shared := compileLFKs(t)
	pred := fasttier.NewPredictor(vm.DefaultConfig())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		own := compileLFKs(t)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range own {
				// Stagger the order so goroutines meet on different kernels.
				j := (i + g*3) % len(own)
				for _, c := range []*lfk.Compiled{own[j], shared[j]} {
					k := c.Kernel
					p, err := pred.Predict(c.Program, int64(k.Elements), k.DataInts())
					if err != nil {
						t.Errorf("goroutine %d lfk%d: %v", g, k.ID, err)
						return
					}
					if p.Cycles != fastTierGolden[k.ID] {
						t.Errorf("goroutine %d lfk%d: predicted %d cycles, golden %d", g, k.ID, p.Cycles, fastTierGolden[k.ID])
					}
					if err := p.Attr.Conserved(p.Cycles); err != nil {
						t.Errorf("goroutine %d lfk%d: %v", g, k.ID, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
