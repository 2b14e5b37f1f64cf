package verify

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/verify/tvalid"
)

// validate runs translation validation: the program under verification is
// the optimized artifact; the O0 reference is recompiled from the same
// graph and partition (the compile pipeline lays out slots before
// optimization, so the two programs are layout-identical by construction —
// tvalid double-checks). Divergences become CheckTranslation errors whose
// thread/pc/slot provenance names the defining instruction in the linked
// stream; the full certificate is retained on the report for cache
// accounting and service metadata.
func (v *verifier) validate() {
	g, parts := v.opts.Graph, v.opts.Parts
	if g == nil || len(parts) == 0 {
		v.diag(CheckTranslation, Info, -1, -1, "",
			"translation validation skipped: compile context (graph + partition) not provided")
		return
	}
	ref, err := sim.Compile(g, parts, sim.Config{OptLevel: 0})
	if err != nil {
		v.diag(CheckTranslation, Error, -1, -1, "",
			fmt.Sprintf("cannot recompile the O0 reference: %v", err))
		return
	}
	res := tvalid.Validate(ref, v.p, tvalid.Options{})
	v.rep.Validation = res
	v.rep.Locs += res.Pairs
	for _, d := range res.Divergences {
		v.diag(CheckTranslation, Error, d.Thread, d.OptPC, d.Slot,
			fmt.Sprintf("O0 pc %d (%s) vs linked pc %d (%s): %s",
				d.RefPC, d.RefInstr, d.OptPC, d.OptInstr, d.Detail))
	}
}
