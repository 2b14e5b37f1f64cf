package codegen_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
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
	// Recorded with EmitterVersion cg3.
	want := map[string]string{
		"LargeBOOM-1C/k1":  "b30fdd74841a27c5fb74ba556ef4fc5cc0a14197be4c0ee35f3f23289a229836",
		"LargeBOOM-1C/k2":  "c662ac4821be5d3ca36088a28cfae2b26d12ee089e1fc2e63d3cb2b56cd697f6",
		"LargeBOOM-2C/k1":  "3194b9e5b9a91ee5d863a3eb6c0c74e28469a0df3e1eb0e1c089eaea4f59f19c",
		"LargeBOOM-2C/k2":  "aac1f2e4547815f77d5dba61d2ca96ddfbae5c4f33f17d6c97fc0cd9a0ff72e7",
		"LargeBOOM-4C/k1":  "7ba21ea39224bf3fe604bf4f91475bbee3280582d3dc1b7a044ee368d82d0715",
		"LargeBOOM-4C/k2":  "0ea55b61301b8488c4539bcbb21948af0a9a8b35a8a249da53c0fab05cca8d33",
		"MegaBOOM-1C/k1":   "1342d1971b3967e9dd47b53a0cb7d8fa9a93cff562a8eeec85799127f3d8d1c1",
		"MegaBOOM-1C/k2":   "eb8571c949d88e96d40204c07244517e434fa9f25c6dafe11fdc789fca8724d3",
		"MegaBOOM-2C/k1":   "6323e644d8747958a6646d7cf2c8947ec55c233ee7c8403282ade6a796d066ba",
		"MegaBOOM-2C/k2":   "296694cc755714f6dd37cca575ccc3d5f092815b27726a57a62b3de8fdd15092",
		"MegaBOOM-4C/k1":   "bffc72755969bb5fb8721982cf9dd31628beafe3d42bd99db575d0e279bb030e",
		"MegaBOOM-4C/k2":   "8360131011b3257bb34b0480b223f7cb10ec814b4733b761d266296c10058a62",
		"RocketChip-1C/k1": "dece064521ed7954795dd014f7a3cfceed902996b3ea54976562a129d993080c",
		"RocketChip-1C/k2": "d92c6527d75e7863aa6682be1ca6e7f3bf674ff940cb9b5929f9d3586cc5eb92",
		"RocketChip-2C/k1": "4f9d4cc318b18ea951980c692e4e8af70af108f1d922554a048abc9a327a1ea6",
		"RocketChip-2C/k2": "ebc7fdc682b6c140606c8cf50422ddf5470e9aea95918ac5b8effaccd086958a",
		"RocketChip-4C/k1": "757b59730b4e5bfa5bbd5270965aac486e7c4ff4c7c0b5db298a4c0324bace92",
		"RocketChip-4C/k2": "b827c0ba958dcf09c957e92313c845460538686b5537bd112e35772dffd0ed1e",
		"SmallBOOM-1C/k1":  "0533dde5d759fc748a391175c69f227a71de54eef7f842ca0b6e3e3153d27634",
		"SmallBOOM-1C/k2":  "49d3a14bd152fa6f512f28c50301fadd562cca25347490f8ccc2f1e8d24191ec",
		"SmallBOOM-2C/k1":  "31a550722a48e9f18615869178527a0693e6a91f9b0bb8d63c95611a07527f51",
		"SmallBOOM-2C/k2":  "75ae9335b830c3307b8474b03d8b6e98fb0358275ee53aea159bb3062293a1b1",
		"SmallBOOM-4C/k1":  "f9322e62849942e5c32fb4f76c858a14f3a5a481ff0a12225e90bde584e29627",
		"SmallBOOM-4C/k2":  "56381e1f290bddf6fe5dfbc3c37bef866c39c780caeffd9b4f1106a5071becf3",
		"classic50":        "fe359331e951060c1479743b299863005fdb65bc65f07554090ae51189cd62a6",
		"classic51":        "714d850b324ce29dad37f43d5a9cf9a50ac716346ea1be717699ad63cddcaec4",
		"classic52":        "bb5390a05f6d822d1c05f12dfa1d64436bda8c99bd29cff7cd537b0dd1baf8c7",
		"classic53":        "a04440459a0634255fc82bb746e89de323a6e7dd5049b14bcca1effac67ae842",
		"classic55":        "d22e528d23e4b6bbbd9b350ec72b649d89b0c3c197076426cad1644cd2b09d21",
		"classic81":        "96d8b775151de13a88f412756346837334b7d1b9f926ee622a4eefc15e1d900d",
		"classic95":        "b71d5dffa151f738bb8a0ab3d3c6bc461203b7265b14c212b7af6ebcee09fdc2",
		"genckt3":          "c88cb485afd6009fcd765bd4d9d77c8cf45c6e40ca45b617b3b65e187456801e",
		"genckt7":          "a4239f58185b7e1a45399fdab9d0020413cb3609b4d777514c7658259b9133f8",
	}
	if codegen.EmitterVersion != "cg3" {
		t.Fatalf("EmitterVersion %s: re-record the golden hashes for it", codegen.EmitterVersion)
	}
	got := map[string]string{}
	var ran [len(optable.Table)]int
	emit := func(name string, p *sim.Program) {
		t.Helper()
		lp := p.Linked()
		for _, th := range lp.Threads {
			for _, in := range th.Code {
				ran[in.Op]++
			}
		}
		em, err := codegen.Emit(lp, codegen.EmitOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = fmt.Sprintf("%x", sha256.Sum256(em.Source))
	}
	for _, cfg := range designs.Table1(1) {
		d, err := repcut.Elaborate(designs.BuildCircuit(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2} {
			c, err := d.CompileProgram(repcut.Options{Threads: k})
			if err != nil {
				t.Fatalf("%s k=%d: %v", cfg.Name(), k, err)
			}
			emit(fmt.Sprintf("%s/k%d", cfg.Name(), k), c.Program)
		}
	}
	serial := func(name string, g *cgraph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		p, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		emit(name, p)
	}
	for _, seed := range classicSeeds {
		g, err := genckt.Classic(seed, 70)
		serial(fmt.Sprintf("classic%d", seed), g, err)
	}
	for _, seed := range gencktSeeds {
		d, err := genckt.Generate(genckt.Config{Seed: seed, Size: 60}).Build()
		if err != nil {
			t.Fatal(err)
		}
		serial(fmt.Sprintf("genckt%d", seed), d.Graph, nil)
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
