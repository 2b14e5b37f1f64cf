package verify

import "fmt"

// checkExchange proves the linked program's exchange table exact against
// the reads the stream scan recorded. A multi-threaded engine gives each
// thread a private prefix of the linked state, so a reader sees a word of
// another thread's segment only through the copy the table names: every
// such eval-phase read needs exactly one entry, from the segment's owner,
// and every entry must lie in its writer's segment and be read by its
// reader, in ascending order without duplicates (so no read is delivered
// twice). A missing entry leaves the reader a stale copy; an entry into the
// reader's own segment overwrites the word its own commit wrote.
func (v *verifier) checkExchange() {
	lp := v.p.Linked()
	k := len(lp.Threads)
	if len(lp.Exchange) != k {
		v.diag(CheckExchange, Error, -1, -1, "",
			fmt.Sprintf("exchange table has %d writers, program has %d threads", len(lp.Exchange), k))
		return
	}
	for w := range lp.Exchange {
		if len(lp.Exchange[w]) != k {
			v.diag(CheckExchange, Error, w, -1, "",
				fmt.Sprintf("exchange table of writer %d has %d readers, program has %d threads", w, len(lp.Exchange[w]), k))
			continue
		}
		for r, words := range lp.Exchange[w] {
			for i, idx := range words {
				at := fmt.Sprintf("exchange entry %d of writer %d for reader %d", i, w, r)
				switch {
				case i > 0 && idx <= words[i-1]:
					v.diag(CheckExchange, Error, r, -1, v.wordDesc(idx), at+" is out of order or duplicated")
				case int(idx) < len(v.wordSeg) && v.wordSeg[idx] == r:
					v.diag(CheckExchange, Error, r, -1, v.wordDesc(idx),
						at+" lies in the reader's own segment: its copy-in overwrites a word the reader's commit writes")
				case int(idx) >= len(v.wordSeg) || v.wordSeg[idx] != w:
					v.diag(CheckExchange, Error, r, -1, v.wordDesc(idx), at+" lies outside the writer's segment")
				default:
					if _, read := v.remoteReads[r][idx]; !read {
						v.diag(CheckExchange, Error, r, -1, v.wordDesc(idx), at+" names a word the reader never reads")
						continue
					}
					v.remoteReads[r][idx]++
				}
			}
		}
	}
	for r, reads := range v.remoteReads {
		for idx := range uint32(len(v.wordSeg)) {
			if n, read := reads[idx]; read && n == 0 {
				v.diag(CheckExchange, Error, r, -1, v.wordDesc(idx),
					fmt.Sprintf("eval-phase read of thread %d's segment with no exchange entry: the reader evaluates with a stale copy", v.wordSeg[idx]))
			}
		}
	}
}
