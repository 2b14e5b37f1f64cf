package main

import (
	"fmt"
	"strings"

	"repro/internal/designs"
	"repro/internal/firrtl"
)

// stimPort is the top-level input the generator adds. The bundled designs
// have no top-level inputs at all (only io_out), so without it a testbench
// could not poke anything; the port is XORed into the system bus register's
// next value, which every core reads one cycle later.
const stimPort = "io_stim"

// Designs the workloads and layer probes are built from.
var (
	rocket = designs.Config{Kind: designs.Rocket, Cores: 1, Scale: 1}
	mega   = designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: 1}
)

// identifier maps a design name onto [A-Za-z_][A-Za-z0-9_]*. The printer
// writes names verbatim and the lexer reads "RocketChip-1C" as an identifier
// followed by the integer -1, so a bundled design's own header does not
// re-parse (README, "Known defects").
func identifier(name string) string {
	id := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, name)
	if id == "" || (id[0] >= '0' && id[0] <= '9') {
		id = "_" + id
	}
	return id
}

// circuit builds cfg's design with the top module (and the circuit, which
// names its top) renamed to an identifier. With stim it also adds stimPort.
func circuit(cfg designs.Config, stim bool) (*firrtl.Circuit, error) {
	c := designs.BuildCircuit(cfg)
	top := c.Main()
	if top == nil {
		return nil, fmt.Errorf("gen: %s has no top module", cfg.Name())
	}
	id := identifier(c.Name)
	if other := c.Module(id); other != nil && other != top {
		return nil, fmt.Errorf("gen: renaming %s to %s collides with a module", c.Name, id)
	}
	top.Name, c.Name = id, id
	if stim {
		if err := addStimulus(top); err != nil {
			return nil, fmt.Errorf("gen: %s: %w", cfg.Name(), err)
		}
	}
	return c, nil
}

// addStimulus adds `input io_stim` and rewrites `bus <= e` to
// `bus <= xor(e, io_stim)`: two more graph vertices (the port and the xor)
// and two more edges than the bundled design, nothing else.
func addStimulus(top *firrtl.Module) error {
	for _, st := range top.Stmts {
		conn, ok := st.(*firrtl.Connect)
		if !ok || conn.Loc != "bus" {
			continue
		}
		typ := conn.Expr.Type()
		top.Ports = append(top.Ports, &firrtl.Port{Name: stimPort, Dir: firrtl.Input, Type: typ})
		conn.Expr = firrtl.Xor(conn.Expr, &firrtl.Ref{Name: stimPort, Typ: typ})
		return nil
	}
	return fmt.Errorf("no connect to the bus register")
}

// designText is the FIRRTL text repcutd is fed for cfg.
func designText(cfg designs.Config) (string, error) {
	c, err := circuit(cfg, true)
	if err != nil {
		return "", err
	}
	return firrtl.Print(c), nil
}

// neverSeen returns text made distinct by a trailing comment, so that its
// content address misses every cache while the design is unchanged.
func neverSeen(text string, seed int64, tag string, i int) string {
	return fmt.Sprintf("%s; %d-%s-%d\n", text, seed, tag, i)
}
