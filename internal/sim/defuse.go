package sim

import "fmt"

// RefSpace names one of the storage spaces an instruction can touch. It
// unifies the narrow regions of the linked state (LinkedLoc) with the
// wide-operand spaces and memories so static analyses (internal/verify) can
// reason about def/use sets without knowing either encoding.
type RefSpace uint8

// Storage spaces, in narrow-then-wide order.
const (
	SpaceLocal      RefSpace = iota // thread-private narrow temp
	SpaceGlobal                     // shared narrow global word
	SpaceImm                        // narrow immediate pool (read-only)
	SpaceShadow                     // thread-private narrow shadow (sink) word
	SpaceWideLocal                  // thread-private wide temp
	SpaceWideGlobal                 // shared wide-global slot
	SpaceWideImm                    // wide immediate pool (read-only)
	SpaceWideShadow                 // thread-private wide shadow slot
	SpaceMem                        // a whole memory; Idx is the memory index
	numRefSpaces
)

var refSpaceNames = [numRefSpaces]string{
	"local", "global", "imm", "shadow",
	"wide-local", "wide-global", "wide-imm", "wide-shadow", "mem",
}

func (s RefSpace) String() string {
	if int(s) < len(refSpaceNames) {
		return refSpaceNames[s]
	}
	return fmt.Sprintf("?space(%d)", uint8(s))
}

// Loc is one storage location touched by an instruction.
type Loc struct {
	Space RefSpace
	Idx   uint32
}

func (l Loc) String() string { return fmt.Sprintf("%s[%d]", l.Space, l.Idx) }

// WideLoc decodes a wide-pool operand into a Loc. A narrow operand
// (wsNarrow) carries a ref, or after linking a flat state index, instead of
// a wide-pool slot; callers decode those themselves.
func WideLoc(a WideOperand) Loc {
	switch a.Space {
	case wsWideLocal:
		return Loc{SpaceWideLocal, a.Idx}
	case wsWideGlobal:
		return Loc{SpaceWideGlobal, a.Idx}
	case wsWideImm:
		return Loc{SpaceWideImm, a.Idx}
	default:
		return Loc{SpaceWideShadow, a.Idx}
	}
}
