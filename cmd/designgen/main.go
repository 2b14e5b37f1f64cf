// Command designgen emits the synthetic benchmark designs in the textual
// IR format, either one named design or the full Table 1 set.
//
// Usage:
//
//	designgen -design RocketChip-1C > rocket1c.fir
//	designgen -all -out designs/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/designs"
	"repro/internal/firrtl"
)

func main() {
	var (
		designName = flag.String("design", "", "design name, e.g. LargeBOOM-2C")
		all        = flag.Bool("all", false, "emit all 12 Table 1 designs")
		scale      = flag.Float64("scale", 1.0, "design size scale")
		outDir     = flag.String("out", "", "output directory (default stdout for -design)")
		flat       = flag.Bool("flat", false, "emit the flattened single-module form")
	)
	flag.Parse()

	emit := func(cfg designs.Config) error {
		c := designs.BuildCircuit(cfg)
		if *flat {
			fc, err := firrtl.Flatten(c)
			if err != nil {
				return err
			}
			c = fc
		}
		text := firrtl.Print(c)
		if *outDir == "" {
			fmt.Print(text)
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, cfg.Name()+".fir")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", path, len(text))
		return nil
	}

	switch {
	case *all:
		if *outDir == "" {
			fatal(fmt.Errorf("-all requires -out"))
		}
		for _, cfg := range designs.Table1(*scale) {
			if err := emit(cfg); err != nil {
				fatal(err)
			}
		}
	case *designName != "":
		cfg, err := designs.ParseName(*designName)
		if err != nil {
			fatal(err)
		}
		cfg.Scale = *scale
		if err := emit(cfg); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("specify -design <name> or -all"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "designgen:", err)
	os.Exit(1)
}
