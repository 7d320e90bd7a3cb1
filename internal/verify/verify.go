// Package verify is the static checker that runs between codegen (or an
// untrusted assembly upload) and the VM/bounds pipeline. It never executes
// a program; it walks the instruction stream and reports structured
// findings, so a malformed or buggy-codegen program is rejected with a
// diagnosis instead of surfacing as a panic or a silent mis-bound deep in
// internal/vm or internal/core.
//
// Check runs four passes over an asm.Program:
//
//   - structure: every instruction a form isa.Decode admits — the one
//     rule of what the simulator executes (operand counts, kinds and
//     register classes per opcode, register ranges, vector forms with a
//     Table 1 row) — so a verify-clean program loads and runs without a
//     shape error; plus what only the whole program decides: labels and
//     data symbols defined, each data symbol once;
//   - dataflow, read from depgraph's interval fixpoint (value ranges of
//     the a/s registers, VL, VS and the T flag, plus must-defined bits
//     for every register): use before definition over each decoded
//     instruction's read set (isa.Row.Reads: two-operand ALU forms read
//     their destination), vector instructions before VL/VS are set,
//     unreachable code;
//   - static memory bounds: every effective address the intervals
//     resolve (a point interval is a known constant) checked against its
//     DataDef size, vector streams checked over their whole VL×VS span;
//   - resource conflicts on the inner vector loop, found by forming its
//     chimes with core.ChimeBuilder and asking it why an instruction
//     splits: single-memory-port chime splits, register-pair pressure,
//     and bank-conflict strides (stride ≡ 0 mod the 32 memory banks
//     serializes the stream).
//
// Findings are Diagnostics; Must converts error-severity findings into an
// *Error so callers (the macs facade, the service, macs check) can gate.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"macs/internal/asm"
	"macs/internal/isa"
)

// Severity grades a finding.
//
// macsvet:exhaustive
type Severity int

// Severities, least to most severe.
const (
	// SevInfo marks observations that need no action (unreachable code,
	// VL=0 no-ops).
	SevInfo Severity = iota
	// SevWarning marks legal constructs that cost performance or suggest
	// a codegen bug (chime splits, bank-conflict strides).
	SevWarning
	// SevError marks programs the VM or bounds model would reject or
	// mis-analyze; Must refuses them.
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diagnostic is one finding of the checker.
type Diagnostic struct {
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Instr is the index into Program.Instrs the finding anchors to, or
	// -1 for program-level findings.
	Instr int `json:"instr"`
	// Message describes the finding.
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	if d.Instr < 0 {
		return fmt.Sprintf("%s: %s", d.Severity, d.Message)
	}
	return fmt.Sprintf("%s: instr %d: %s", d.Severity, d.Instr, d.Message)
}

// Render formats a diagnostic with the instruction text it anchors to.
func (d Diagnostic) Render(p *asm.Program) string {
	if p != nil && d.Instr >= 0 && d.Instr < len(p.Instrs) {
		return fmt.Sprintf("%s: instr %d (%s): %s", d.Severity, d.Instr, p.Instrs[d.Instr], d.Message)
	}
	return d.String()
}

// Error carries the full diagnostic list of a rejected program. Only
// error-severity findings cause rejection, but the whole list rides along
// so callers can render warnings for context.
type Error struct {
	Diags []Diagnostic
}

func (e *Error) Error() string {
	errs := Errors(e.Diags)
	if len(errs) == 0 {
		return "verify: program rejected"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d error(s): %s", len(errs), errs[0].Message)
	if len(errs) > 1 {
		fmt.Fprintf(&b, " (and %d more)", len(errs)-1)
	}
	return b.String()
}

// Errors filters a diagnostic list down to error severity.
func Errors(ds []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// HasErrors reports whether any finding is error severity.
func HasErrors(ds []Diagnostic) bool { return len(Errors(ds)) > 0 }

// Check runs every pass and returns the findings ordered by instruction
// index (program-level first), most severe first within an instruction.
func Check(p *asm.Program) []Diagnostic {
	ds := structural(p)
	rows, undecoded := decode(p)
	ds = append(ds, undecoded...)
	ds = append(ds, dataflow(p, rows, undecoded)...)
	ds = append(ds, resources(p, rows)...)
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Instr != ds[j].Instr {
			return ds[i].Instr < ds[j].Instr
		}
		return ds[i].Severity > ds[j].Severity
	})
	return dedupe(ds)
}

// decode lowers every instruction once (isa.Decode) for the passes that
// read rows. An instruction Decode refuses gets Decode's message as an
// error finding. Refused for its form alone, it keeps its whole row, so
// the use and resource checks still report what else is wrong with it
// (the interval fixpoint folds only admitted forms: dataflow); refused
// for a register outside its file or more reads than a row holds, it
// gets a zero row (nil Instr), which those passes skip, so no pass reads
// a partial row.
func decode(p *asm.Program) ([]isa.Row, []Diagnostic) {
	var ds []Diagnostic
	rows := make([]isa.Row, len(p.Instrs))
	for i := range p.Instrs {
		r, err := isa.Decode(&p.Instrs[i])
		if err != nil {
			ds = append(ds, Diagnostic{SevError, i, err.Error()})
		}
		rows[i] = r
	}
	return rows, ds
}

// Must gates a program: nil when Check finds no errors, otherwise an
// *Error holding every finding.
func Must(p *asm.Program) error {
	ds := Check(p)
	if HasErrors(ds) {
		return &Error{Diags: ds}
	}
	return nil
}

func dedupe(ds []Diagnostic) []Diagnostic {
	seen := make(map[Diagnostic]bool, len(ds))
	out := ds[:0]
	for _, d := range ds {
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}
