package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"macs/internal/lfk"
	"macs/internal/service"
)

// This file holds what the workloads share about the ten case-study
// kernels: their requests, encoded once, and the accuracy metric.

// lfkPriming is a kernel's paper inputs, as cmd/macsload sends them.
func lfkPriming(k *lfk.Kernel) service.Priming {
	return service.Priming{Ints: k.Ints, Reals: k.Reals, Arrays: k.Arrays}
}

// lfkBodies encodes one analyze request per case-study kernel.
func lfkBodies() ([][]byte, error) {
	var out [][]byte
	for _, k := range lfk.All() {
		b, err := json.Marshal(service.AnalyzeRequest{
			Source:     k.Source,
			Iterations: int64(k.Elements),
			Prime:      lfkPriming(k),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// analyzeAnswer is the part of an analyze answer the checks read.
type analyzeAnswer struct {
	Tier   string `json:"tier"`
	Bounds struct {
		TMA   float64 `json:"t_ma"`
		TMAC  float64 `json:"t_mac"`
		TMACS float64 `json:"t_macs"`
	} `json:"bounds"`
	MeasuredCPL float64          `json:"measured_cpl"`
	Cycles      int64            `json:"cycles"`
	Iterations  int64            `json:"iterations"`
	Attribution map[string]int64 `json:"attribution"`
	Cached      bool             `json:"cached"`
}

// checkAnalyze decodes an analyze answer and checks what every exact
// answer must satisfy: status 200, the exact tier, the expected
// iteration count, a conserved stall ledger (four lanes' worth of cycles),
// and the paper's hierarchy t_MA <= t_MAC <= t_MACS <= measured CPL
// within slack CPL.
func checkAnalyze(status int, body []byte, iterations int64, slack float64) (analyzeAnswer, error) {
	var a analyzeAnswer
	if status != http.StatusOK {
		return a, fmt.Errorf("status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("undecodable answer: %w", err)
	}
	if a.Tier != "exact" {
		return a, fmt.Errorf("tier %q, want exact", a.Tier)
	}
	if a.Iterations != iterations || a.Cycles <= 0 {
		return a, fmt.Errorf("iterations %d cycles %d, want %d iterations", a.Iterations, a.Cycles, iterations)
	}
	var ledger int64
	for _, c := range a.Attribution {
		ledger += c
	}
	if ledger != 4*a.Cycles {
		return a, fmt.Errorf("stall ledger sums to %d, want 4 x %d cycles", ledger, a.Cycles)
	}
	b := a.Bounds
	if b.TMA > b.TMAC || b.TMAC > b.TMACS || b.TMACS > a.MeasuredCPL+slack {
		return a, fmt.Errorf("hierarchy broken: t_MA %.4f t_MAC %.4f t_MACS %.4f measured %.4f (+%g)",
			b.TMA, b.TMAC, b.TMACS, a.MeasuredCPL, slack)
	}
	return a, nil
}

// warmLFK sends the ten case-study analyses through h and returns the
// answers' bodies and cycles; every answer must pass checkAnalyze with
// no slack.
func warmLFK(h http.Handler, bodies [][]byte) ([][]byte, []int64, error) {
	kernels := lfk.All()
	answers := make([][]byte, len(bodies))
	cycles := make([]int64, len(bodies))
	for i, body := range bodies {
		status, ans := serve(h, post("/v1/analyze", body))
		a, err := checkAnalyze(status, ans, int64(kernels[i].Elements), 0)
		if err != nil {
			return nil, nil, fmt.Errorf("lfk%d: %w", kernels[i].ID, err)
		}
		answers[i], cycles[i] = ans, a.Cycles
	}
	return answers, cycles, nil
}

// tpErrPct is the mean |simulated - paper| / paper of t_p in cycles per
// flop over the ten kernels, in percent; cycles are the simulated counts
// in lfk.All order.
func tpErrPct(cycles []int64) float64 {
	var sum float64
	kernels := lfk.All()
	for i, k := range kernels {
		sum += math.Abs(k.CPF(cycles[i])-k.Paper.TP) / k.Paper.TP
	}
	return 100 * sum / float64(len(kernels))
}
