package codegen_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	repcut "repro"
	"repro/internal/cgraph"
	"repro/internal/codegen"
	"repro/internal/designs"
	"repro/internal/genckt"
	"repro/internal/optable"
	"repro/internal/sim"
)

// The coverage programs are sim's TestBatchMatchesEngine circuits: classic
// random circuits and two wide-heavy genckt ones, which together emit every
// opcode but OpNop (TestEmitGolden asserts it).
var (
	classicSeeds = []int64{50, 51, 52, 53, 55, 81, 95}
	gencktSeeds  = []int64{3, 7}
)

// TestEmitGolden pins the SHA-256 of the emitted kernel source. The
// artifact key trusts EmitterVersion to mean "same program, same text",
// and the statements come from internal/optable's templates, so a change
// to a template, to the emitter or to the compiler that alters any kernel
// fails here: undo it, or bump EmitterVersion and record the new hashes.
// A change that moves only a program's Fingerprint, which the header
// prints, already changes that program's key, so it re-records the hash
// without a bump. Nothing is built, so the test runs on every platform.
func TestEmitGolden(t *testing.T) {
	// Recorded with EmitterVersion cg4.
	want := map[string]string{
		"LargeBOOM-1C/k1":  "03317194e235cb5ecbc0e49e43684464abd60e1fc2ceccf2e3a0ae8361882c25",
		"LargeBOOM-1C/k2":  "63c4d208e8432f7a8c7334db71e25899dfaec5328c554d76347a43d1690758c8",
		"LargeBOOM-2C/k1":  "908632b1fb176c916334d49fe0bd780c25be8c28c264909b170d10d02a33c937",
		"LargeBOOM-2C/k2":  "543a52b714bd0acb7cef764bf02132b3ff52b69c6342156d9ac94669b7d05477",
		"LargeBOOM-4C/k1":  "69e5d051f747e8dd09e10c51186eb2c4ee51b2be57133d4076c75ee21dc28634",
		"LargeBOOM-4C/k2":  "74cacde45d1488aa7b0ef4750852f1aa4be6e211c389f7002b4df2f2bc568286",
		"MegaBOOM-1C/k1":   "f384751960361d21a2af2bd51ce43f9b6f963722083ad38b99d79b7755d63c84",
		"MegaBOOM-1C/k2":   "5ac658825742ac13d54ae9a41cb44388535b8057fc160e3dfedbf171f2a0114c",
		"MegaBOOM-2C/k1":   "430813f42107af87d68611c881415c6edc71ef959a20963a1f1c185de9068979",
		"MegaBOOM-2C/k2":   "25e2e424aebf73012a639a937c9526dab8c1ccac651e3a3d2683087dcdf79a8f",
		"MegaBOOM-4C/k1":   "da8314d4e16bb4e1a6db811d251cacc2cc6cc65d8a9e586b1c116eaed76203d2",
		"MegaBOOM-4C/k2":   "2786bc4e17afa44d3fb17d5a754582b463fe33df0245bfbec485b538cf9e4ff8",
		"RocketChip-1C/k1": "c59fc8a54c952807e4ab732079ad8ca58b99fdaf31f0725eca4ab0dfaaf15e52",
		"RocketChip-1C/k2": "5ec8c91802e4dad24044ef8fe305d1fc25ea9615e6572436c6b1d967740b4b61",
		"RocketChip-2C/k1": "9455aeb2b1dd44a28f5f7cf2e19ea56267324acd1237e5a7c0ca48dc9e3e4ca4",
		"RocketChip-2C/k2": "ed592c737d7e9bb78515dfed24fd91a630371f993a5bac9cbd0a1b260e393421",
		"RocketChip-4C/k1": "e9a9455a84b2e2c50a8261b4b1ffdb7723eef71f649c2cace439084353eb0308",
		"RocketChip-4C/k2": "bce0c87beedffd619bfa81c6719ccf5f6729e8cc8d7c801db9821ca02f38d7ab",
		"SmallBOOM-1C/k1":  "0d1f3f096477683f44d948cf6234fffd6179ef2a034937d51a57000c727cadf5",
		"SmallBOOM-1C/k2":  "be613070b24f47b43a9752ce819e315f22c717333915bc6f99fbe3d00232bd23",
		"SmallBOOM-2C/k1":  "a84432434a90c56bd0abed1edfa5ca430ed014fe2927420b1df5efc261e8cd85",
		"SmallBOOM-2C/k2":  "b4e2d8418e4e78413dfc71b2c3bee7b8ae6529c5485cd0865fea427bd37719fe",
		"SmallBOOM-4C/k1":  "7166204370d0d170cd7f5300a5219628f1cb3a39cf635c1d9a6b36090f4993a2",
		"SmallBOOM-4C/k2":  "912c15eac085aa15ecd442e059ab9e2a8260b642af0a46f5321fd7f6339e113a",
		"classic50":        "9a7dd7bd52dc1e065e5891b751f2704a7af3a24bff41f9b0b064315bf05dbbb9",
		"classic51":        "5254d149f37a4c9377bd71d76f8c14b2c1262214e820c0b48d391f76b13320e4",
		"classic52":        "f5388a97a0004f60c66bcf26ac8dc50031a999d302fa4bb689f8f271f4f363d2",
		"classic53":        "d929fd61d3a88f0504175580b69ed940767ba2cfe253730b5d168ead2bcf81af",
		"classic55":        "074eb4540341a192ea9952397217dfcd8531a69ff7e7ba8d7e633a9a17fcf703",
		"classic81":        "59b02017b14ec01e2b6d73bd56570181cecc79c0bce8c9f58f2c8d3c7713b657",
		"classic95":        "201750c396677ccafd5443094f9eae9231e1b77311e5d9ab369f0180b34b8ef0",
		"genckt3":          "4b78a33fd34ff4f9d1b36dd3c471d8c75e16739a30f6bd91e9618c7341f5418f",
		"genckt7":          "93ea56b85133f52ba4fffb7c5beb057a5a225afceb435e26bfa263c4b19ff48c",
	}
	if codegen.EmitterVersion != "cg4" {
		t.Fatalf("EmitterVersion %s: re-record the golden hashes for it", codegen.EmitterVersion)
	}
	got := map[string]string{}
	var ran [len(optable.Table)]int
	for _, np := range goldenPrograms(t) {
		for _, th := range np.p.Threads {
			for _, in := range th.Code {
				ran[in.Op]++
			}
		}
		em, err := codegen.Emit(np.p, codegen.EmitOptions{})
		if err != nil {
			t.Fatalf("%s: %v", np.name, err)
		}
		got[np.name] = fmt.Sprintf("%x", sha256.Sum256(em.Source))
	}
	for op := 1; op < len(ran); op++ {
		if ran[op] == 0 {
			t.Errorf("no golden program emits %v", sim.OpCode(op))
		}
	}
	var diff []string
	for name, h := range got {
		if want[name] != h {
			diff = append(diff, fmt.Sprintf("%q: %q,", name, h))
		}
	}
	if len(diff) > 0 || len(want) != len(got) {
		sort.Strings(diff)
		t.Errorf("emitted source differs from the golden hashes (%d of %d programs):\n%s",
			len(diff), len(got), strings.Join(diff, "\n"))
	}
}

// namedProgram is one golden program and its TestEmitGolden name.
type namedProgram struct {
	name string
	p    *sim.Program
}

// goldenPrograms are the 12 bundled designs at k ∈ {1,2}, compiled as
// repcut does, plus the classic and genckt coverage circuits compiled
// serially. They are built once per test binary.
func goldenPrograms(t *testing.T) []namedProgram {
	t.Helper()
	ps, err := goldenOnce()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

var goldenOnce = sync.OnceValues(func() ([]namedProgram, error) {
	var ps []namedProgram
	for _, cfg := range designs.Table1(1) {
		d, err := repcut.Elaborate(designs.BuildCircuit(cfg))
		if err != nil {
			return nil, err
		}
		for _, k := range []int{1, 2} {
			c, err := d.CompileProgram(repcut.Options{Threads: k})
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", cfg.Name(), k, err)
			}
			ps = append(ps, namedProgram{fmt.Sprintf("%s/k%d", cfg.Name(), k), c.Program})
		}
	}
	serial := func(name string, g *cgraph.Graph) error {
		p, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 2})
		ps = append(ps, namedProgram{name, p})
		return err
	}
	for _, seed := range classicSeeds {
		g, err := genckt.Classic(seed, 70)
		if err == nil {
			err = serial(fmt.Sprintf("classic%d", seed), g)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, seed := range gencktSeeds {
		d, err := genckt.Generate(genckt.Config{Seed: seed, Size: 60}).Build()
		if err == nil {
			err = serial(fmt.Sprintf("genckt%d", seed), d.Graph)
		}
		if err != nil {
			return nil, err
		}
	}
	return ps, nil
})
