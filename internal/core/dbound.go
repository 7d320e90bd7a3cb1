package core

import (
	"macs/internal/isa"
)

// This file implements the paper's proposed fifth degree of freedom:
// "The peak memory rate could be reduced for nonunit stride accesses by
// defining a fifth degree of freedom, D, after M, A, C and S to bind the
// allocation (decomposition) of the data structures in memory" (§3.1).
//
// The MACS-D bound reads each vector memory operation's stride from the
// compiled code (the mov #...,vs instructions preceding it) and charges
// the bank-limited per-element rate: with NB interleaved banks of cycle
// time BC, a stride of s words revisits a bank every NB/gcd(s,NB)
// accesses, so the sustainable rate is max(Z, BC*gcd(s,NB)/NB) cycles
// per element.

// StrideAnnotation maps the index of each vector memory instruction in a
// loop body to its access stride in bytes.
type StrideAnnotation map[int]int64

// AnnotateStrides statically recovers per-instruction strides from the
// compiled loop body by tracking immediate writes to the VS register.
// Instructions before any VS set use the unit stride.
func AnnotateStrides(body []isa.Instr) StrideAnnotation {
	ann := make(StrideAnnotation)
	cur := int64(isa.WordBytes)
	for i, in := range body {
		if d, ok := in.Dst(); ok && d == isa.VS() && in.Op == isa.OpMov && in.Ops[0].Kind == isa.KindImm {
			cur = in.Ops[0].Imm
			continue
		}
		if in.IsVector() && in.IsMemory() {
			ann[i] = cur
		}
	}
	return ann
}

// BankLimitedZ returns the per-element cycle cost of a memory stream with
// the given byte stride on an interleaved memory: max(1, BC*g/NB) where
// g = gcd(|stride| in words, NB).
func BankLimitedZ(strideBytes int64, banks, bankCycle int) float64 {
	words := strideBytes / isa.WordBytes
	if words < 0 {
		words = -words
	}
	if words == 0 {
		// Stride zero hammers a single bank.
		return float64(bankCycle)
	}
	g := gcdI64(words, int64(banks))
	z := float64(bankCycle) * float64(g) / float64(banks)
	if z < 1 {
		return 1
	}
	return z
}

func gcdI64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// MACSDBound computes t_MACSD: the MACS bound with the memory pipe's
// per-element rate bound by the bank decomposition of each stream. For
// conflict-free strides it equals the MACS bound.
func MACSDBound(body []isa.Instr, vl int, rules Rules) MACSResult {
	return chimeBound(partition(body, rules, AnnotateStrides(body)), vl, rules)
}

// DecompositionPenalty reports how much the data decomposition costs:
// the ratio t_MACSD / t_MACS (1.0 when every stream is conflict-free).
func DecompositionPenalty(body []isa.Instr, vl int, rules Rules) float64 {
	base := MACSBound(body, vl, rules)
	if base.Cycles == 0 {
		return 1
	}
	return MACSDBound(body, vl, rules).Cycles / base.Cycles
}
