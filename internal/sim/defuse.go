package sim

import "fmt"

// RefSpace names one of the storage spaces an instruction can touch: the
// regions of the linked state (LinkedLoc) and the memories, so static
// analyses (internal/verify) can reason about def/use sets without knowing
// the flat encoding.
type RefSpace uint8

// Storage spaces.
const (
	SpaceLocal  RefSpace = iota // thread-private temp
	SpaceGlobal                 // shared global word
	SpaceImm                    // immediate pool (read-only)
	SpaceShadow                 // thread-private shadow (sink) word
	SpaceMem                    // a whole memory column; Idx is its index
	numRefSpaces
)

var refSpaceNames = [numRefSpaces]string{"local", "global", "imm", "shadow", "mem"}

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
