package sim

import (
	"fmt"
	"io"
	"sort"
)

// VCDWriter dumps register and output waveforms in the Value Change Dump
// format (IEEE 1364) so simulations can be inspected in GTKWave & co. It
// snapshots state between Run calls: call Sample after every cycle (or
// batch of cycles) you want recorded.
type VCDWriter struct {
	w      io.Writer
	eng    *Engine
	ids    map[string]string // signal name -> VCD identifier
	widths map[string]int
	names  []string
	last   map[string]string // last emitted value (change detection)
	time   uint64
	opened bool
	err    error
}

// NewVCDWriter creates a writer dumping all registers and outputs of the
// engine's program.
func NewVCDWriter(w io.Writer, eng *Engine) *VCDWriter {
	v := &VCDWriter{
		w: w, eng: eng,
		ids:    map[string]string{},
		widths: map[string]int{},
		last:   map[string]string{},
	}
	p := eng.Program()
	for _, r := range p.Regs {
		v.addSignal(r.Name, r.Width)
	}
	for _, o := range p.Outputs {
		v.addSignal(o.Name, o.Width)
	}
	sort.Strings(v.names)
	return v
}

func (v *VCDWriter) addSignal(name string, width int) {
	if _, dup := v.ids[name]; dup {
		return
	}
	// VCD identifiers: printable ASCII 33..126, base-94 counter.
	n := len(v.ids)
	id := ""
	for {
		id += string(rune(33 + n%94))
		n /= 94
		if n == 0 {
			break
		}
	}
	v.ids[name] = id
	v.widths[name] = width
	v.names = append(v.names, name)
}

// header emits the declaration section.
func (v *VCDWriter) header() {
	v.printf("$version repcut simulator $end\n")
	v.printf("$timescale 1ns $end\n")
	v.printf("$scope module %s $end\n", v.eng.Program().Design)
	for _, name := range v.names {
		v.printf("$var wire %d %s %s $end\n", v.widths[name], v.ids[name], name)
	}
	v.printf("$upscope $end\n$enddefinitions $end\n")
	v.opened = true
}

func (v *VCDWriter) printf(format string, args ...any) {
	if v.err != nil {
		return
	}
	_, v.err = fmt.Fprintf(v.w, format, args...)
}

// value renders a signal's current value in VCD binary notation.
func (v *VCDWriter) value(name string) (string, error) {
	if rs, ok := v.eng.Program().Reg(name); ok {
		val, err := v.eng.PeekReg(name)
		if err != nil {
			return "", err
		}
		return bitsOf(val.Big().Text(2), rs.Width), nil
	}
	val, err := v.eng.PeekOutputVec(name)
	if err != nil {
		return "", err
	}
	return bitsOf(val.Big().Text(2), v.widths[name]), nil
}

func bitsOf(bin string, width int) string {
	for len(bin) < width {
		bin = "0" + bin
	}
	return bin
}

// Sample records the current state at the engine's cycle count, emitting
// only signals that changed since the previous sample. A cycle already
// sampled is not sampled again, so every timestamp appears once.
func (v *VCDWriter) Sample() error {
	if v.err != nil {
		return v.err
	}
	if v.opened && v.time == v.eng.Cycles() {
		return nil
	}
	if !v.opened {
		v.header()
	}
	v.printf("#%d\n", v.eng.Cycles())
	for _, name := range v.names {
		val, err := v.value(name)
		if err != nil {
			return err
		}
		if v.last[name] == val {
			continue
		}
		v.last[name] = val
		if v.widths[name] == 1 {
			v.printf("%s%s\n", val, v.ids[name])
		} else {
			v.printf("b%s %s\n", val, v.ids[name])
		}
	}
	v.time = v.eng.Cycles()
	return v.err
}

// RunSampled advances the engine one cycle at a time for n cycles,
// sampling after each.
func (v *VCDWriter) RunSampled(n int) error {
	if err := v.Sample(); err != nil { // initial values, unless already sampled
		return err
	}
	for i := 0; i < n; i++ {
		v.eng.Run(1)
		if err := v.Sample(); err != nil {
			return err
		}
	}
	return v.err
}
