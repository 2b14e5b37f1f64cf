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
// Nothing is built, so the test runs on every platform.
func TestEmitGolden(t *testing.T) {
	// Recorded with EmitterVersion cg4.
	want := map[string]string{
		"LargeBOOM-1C/k1":  "6d66234d1ee1a21a6c84ccbc422556cfcbba4c13a44e613f1fff1c85095a29d9",
		"LargeBOOM-1C/k2":  "1408f9acb3137ad738eb3728be139c5bb29ee5ab11fde788de7dc0d4c16e6f43",
		"LargeBOOM-2C/k1":  "18d11a9af19991da257d6be27632b1f646509a3f179d34887808956d73e57f71",
		"LargeBOOM-2C/k2":  "20aff6f509fe413aef34550ed990c58dc688fca556fc533e6e3ea13c6e758208",
		"LargeBOOM-4C/k1":  "335c52f4d55dab3c8a381f3f7ac7f1ae0c6bf393b9374c6c8f53121139dd051e",
		"LargeBOOM-4C/k2":  "da6b29ecc69152aeba2b7e4450f183273bc0451b3fd7cc84eeb94f0f9aa04be0",
		"MegaBOOM-1C/k1":   "0d51ff6f83bd0ce95ec6998cdb05cf922162d51f2150716cf26c61dca91683d4",
		"MegaBOOM-1C/k2":   "1d359f785ed5625c6b8f9f8844e0106ae682ba24762c20e173ed8e62b2fd8c07",
		"MegaBOOM-2C/k1":   "1fa127bc86f24578cdaebba9afc4deaae0f499239507ce51c66555eb8c040e46",
		"MegaBOOM-2C/k2":   "0ad72dfbfbc6e47bb9f2340b6a55c19dbdd4f83ac6f6e47cf4292223f4aee200",
		"MegaBOOM-4C/k1":   "b855a3fb03d67ec07ff8bec40550857466b25657e7e086de7a7a9db1137f09db",
		"MegaBOOM-4C/k2":   "53feb89dc503605619727341d9d45438ac1131a9c59f4565ec50547c0bb2e6db",
		"RocketChip-1C/k1": "c9d46db316f5087b54e77fe7f1cb778a73c467d502f79c408e38a99ad90ccf7b",
		"RocketChip-1C/k2": "74d8208fa9deaae21abbf3e7ff863f9f12a80d1cc259621797943b73858fdaaa",
		"RocketChip-2C/k1": "3d66864d7d61f64064f44d341f3b0152d68b87b1465f324532303b67652665c7",
		"RocketChip-2C/k2": "d85ddf85e94744512120ec3d5c1663275ff365b90f9581a63c01628e678154c2",
		"RocketChip-4C/k1": "ae5256cbe46605d52f9405d99aa36a5d4cef13a1fdc07280167bd0586719d890",
		"RocketChip-4C/k2": "ef7e4c6be620e3db14ab4e5ff8bfce413d94e09fd6584c546c32c2da33f3400c",
		"SmallBOOM-1C/k1":  "f01b5adb0d0c0c433995ac7a2fb6cc95569a37feb1375fc682734c18efeb4a11",
		"SmallBOOM-1C/k2":  "0683d0dfc0ef29c32449c5dc446bc071042106c99f408189848f0413ed3a076e",
		"SmallBOOM-2C/k1":  "22b6b800fedb53e16c519f30c27dd80f3b05e5c02070269f854808b8b11c0a60",
		"SmallBOOM-2C/k2":  "65d371b295081c82f8b38b24173ddd661b8ad9610f4173b57419d99878224c91",
		"SmallBOOM-4C/k1":  "67b6019efb5ed49968ee3b0d98b04fba2628e52b7df9ca34842d4c32a5921e40",
		"SmallBOOM-4C/k2":  "f835b2f3ad614af6d0a1fa923ec9c2e2119fd3abf2fc15937d23c1f9dd554266",
		"classic50":        "703ff5f557725c5f963c757d69e28be1439b55181df236ea8c417e18f0d58c21",
		"classic51":        "bd1159f820e1448fd0b448417dddb31bbf3921c1909b95351b3a610fb1062fe5",
		"classic52":        "5987bcf4ea0115ca8c2a8267b1e22243ff4726bcb54c995c1f505a9527306810",
		"classic53":        "98622dfbcc60aafb73e12325b85d3f3aa104dd958ce434743fc54d9a7da0cbe6",
		"classic55":        "9b70f3b07378b7d0dd5df092bbb534207e212bdabfbdf593cc9435ee88d7a94a",
		"classic81":        "c2e05a10235442282d332af478ba6605ecf596666b87d54ccc24447bc696d85f",
		"classic95":        "f1e8011f08ddea8e59c1ea2691f357357229daac60efb0e3b67720196684a888",
		"genckt3":          "6420dc3f9a8e118a9607021bd133b5f388e5e83c34744ed43205eb60e87700f1",
		"genckt7":          "70448e5317671c8648b193631aad6bfd64cb4f783a4bcfc799a2e0d46b751997",
	}
	if codegen.EmitterVersion != "cg4" {
		t.Fatalf("EmitterVersion %s: re-record the golden hashes for it", codegen.EmitterVersion)
	}
	got := map[string]string{}
	var ran [len(optable.Table)]int
	for _, np := range goldenPrograms(t) {
		lp := np.p.Linked()
		for _, th := range lp.Threads {
			for _, in := range th.Code {
				ran[in.Op]++
			}
		}
		em, err := codegen.Emit(lp, codegen.EmitOptions{})
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
