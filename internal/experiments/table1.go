package experiments

import (
	"fmt"

	"repro/internal/m68k"
	"repro/internal/pasm"
	"repro/internal/stats"
)

// Table1Row is one cell block of the paper's Table 1: the raw MIPS of
// one instruction type in one mode.
type Table1Row struct {
	Instruction string
	Mode        string
	Cycles      int64
	Instrs      int64
	MIPS        float64
}

// Table1Result reproduces "Table 1: Prototype raw performance":
// millions of integer instructions per second, measured with repeated
// blocks of straight-line code large enough to make loop-control
// overlap insignificant, for two instruction types in SIMD and MIMD
// modes. SIMD fetches come from the Fetch Unit queue's static RAM (one
// fewer wait state, no refresh), so SIMD MIPS exceeds MIMD MIPS.
type Table1Result struct {
	Rows []Table1Row
	// Obs is the aggregated observability metrics (Options.Observe).
	Obs ObsMetrics
}

const (
	table1Block = 64  // straight-line instructions per block
	table1Loops = 256 // block repetitions
)

// Table1 measures the raw instruction rates; the four (instruction,
// mode) cells each simulate their own machine and fan out across the
// host workers.
func Table1(opts Options) (*Table1Result, error) {
	type cell struct{ name, text, mode string }
	var cells []cell
	for _, instr := range []struct{ name, text string }{
		// Register-to-register: the fetch path dominates entirely, so
		// the SIMD (queue SRAM) vs MIMD (PE DRAM) gap is largest.
		{"add.w dn,dn", "\tadd.w\td1, d0\n"},
		// Memory operand: the data access goes to PE DRAM in both
		// modes, diluting (but not erasing) the SIMD fetch advantage.
		{"move.w (an),dn", "\tmove.w\t(a0), d2\n"},
	} {
		for _, mode := range []string{"SIMD", "MIMD"} {
			cells = append(cells, cell{instr.name, instr.text, mode})
		}
	}
	o := newObserver(opts)
	rows := make([]Table1Row, len(cells))
	err := forEachCell(opts.workers(), len(cells), func(i int) error {
		cfg, rec := o.cell(opts.Config)
		cycles, instrs, err := rawRate(opts, cfg, cells[i].text, cells[i].mode)
		if err != nil {
			return err
		}
		o.done(rec)
		rows[i] = Table1Row{
			Instruction: cells[i].name,
			Mode:        cells[i].mode,
			Cycles:      cycles,
			Instrs:      instrs,
			MIPS:        stats.MIPS(cycles, instrs, opts.Config.ClockHz),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows, Obs: o.metrics()}, nil
}

// rawRate runs a straight-line block of one instruction repeatedly and
// returns the per-PE cycle and instruction counts.
func rawRate(opts Options, cfg pasm.Config, instrText, mode string) (cycles, instrs int64, err error) {
	cfg.PEMemBytes = 1 << 16
	vm, err := pasm.NewVM(cfg, 4)
	if err != nil {
		return 0, 0, err
	}
	if err := vm.EstablishShift(); err != nil {
		return 0, 0, err
	}
	var src string
	body := ""
	for i := 0; i < table1Block; i++ {
		body += instrText
	}
	if mode == "SIMD" {
		src = fmt.Sprintf(`	move.w	#%d, d0
l:	bcast	blk
	dbra	d0, l
	halt
	.block	blk
%s	.endblock
`, table1Loops-1, body)
	} else {
		src = fmt.Sprintf(`	move.w	#%d, d0
l:
%s	dbra	d0, l
	halt
`, table1Loops-1, body)
	}
	prog, err := m68k.Assemble(src)
	if err != nil {
		return 0, 0, err
	}
	var r pasm.RunResult
	if mode == "SIMD" {
		r, err = vm.RunSIMD(prog)
	} else {
		r, err = vm.RunMIMD(prog)
	}
	if err != nil {
		return 0, 0, err
	}
	perPE := r.Instrs / int64(vm.P)
	return r.Cycles, perPE, nil
}

// Render prints the table in the paper's layout.
func (r *Table1Result) Render() string {
	var t table
	t.title("Table 1: Prototype raw performance (MIPS)")
	t.row(fmt.Sprintf("%-14s", "instruction"), fmt.Sprintf("%6s", "SIMD"), fmt.Sprintf("%6s", "MIMD"))
	byInstr := map[string]map[string]float64{}
	order := []string{}
	for _, row := range r.Rows {
		if byInstr[row.Instruction] == nil {
			byInstr[row.Instruction] = map[string]float64{}
			order = append(order, row.Instruction)
		}
		byInstr[row.Instruction][row.Mode] = row.MIPS
	}
	for _, name := range order {
		t.row(fmt.Sprintf("%-14s", name),
			fmt.Sprintf("%6.3f", byInstr[name]["SIMD"]),
			fmt.Sprintf("%6.3f", byInstr[name]["MIMD"]))
	}
	return t.String()
}
