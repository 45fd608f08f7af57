package core

import (
	"fmt"
	"sort"

	"iatsim/internal/cache"
)

// Group is an allocation unit: the tenants sharing one class of service
// (tenants may be grouped, e.g. the two PC forwarding containers of the
// paper's Fig. 10 share three ways). Widths are in ways; RefsPerSec is the
// group's most recent LLC reference rate, the sort key of the shuffling
// step (Sec. IV-D: the BE tenant with the smallest LLC reference count is
// chosen to share ways with DDIO).
type Group struct {
	CLOS     int
	Priority Priority
	IO       bool
	Width    int
	// RefsPerSec is updated every poll.
	RefsPerSec float64
}

// PackBottomUp assigns each group a contiguous mask, packing from way 0
// upward in slice order. The total width must not exceed nWays. Groups
// whose span crosses nWays-ddioWays end up overlapping the DDIO ways —
// which is exactly how the layout expresses core/I-O sharing.
func PackBottomUp(nWays int, groups []*Group) (map[int]cache.WayMask, error) {
	masks := make(map[int]cache.WayMask, len(groups))
	pos := 0
	for _, g := range groups {
		if g.Width < 1 {
			return nil, fmt.Errorf("core: group clos=%d has width %d", g.CLOS, g.Width)
		}
		if pos+g.Width > nWays {
			return nil, fmt.Errorf("core: layout overflows %d ways (at clos=%d)", nWays, g.CLOS)
		}
		masks[g.CLOS] = cache.ContiguousMask(pos, g.Width)
		pos += g.Width
	}
	return masks, nil
}

// OrderGroups returns the bottom-up packing order implementing the paper's
// shuffling policy: the software stack lowest, then performance-critical
// groups, then best-effort groups sorted by descending LLC reference rate —
// so the least memory-intensive BE group lands on top, adjacent to (and,
// under pressure, overlapping) the DDIO ways.
//
// prevTopCLOS is the group currently sharing with DDIO (-1 if none);
// shuffleMargin applies hysteresis: the incumbent keeps the top slot unless
// the challenger's reference rate is below margin times the incumbent's.
// Within a priority class the original slice order breaks ties, so the
// result is deterministic.
func OrderGroups(groups []*Group, prevTopCLOS int, shuffleMargin float64) []*Group {
	ordered := make([]*Group, len(groups))
	copy(ordered, groups)
	rank := func(p Priority) int {
		switch p {
		case Stack:
			return 0
		case PC:
			return 1
		default:
			return 2
		}
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		ri, rj := rank(ordered[i].Priority), rank(ordered[j].Priority)
		if ri != rj {
			return ri < rj
		}
		if ri == 2 { // BE: descending refs, least-referencing last (topmost)
			return ordered[i].RefsPerSec > ordered[j].RefsPerSec
		}
		return false // keep stable order for stack/PC
	})
	// Hysteresis on the DDIO-sharing (topmost) slot.
	n := len(ordered)
	if n >= 2 && prevTopCLOS >= 0 {
		top := ordered[n-1]
		if top.Priority == BE && top.CLOS != prevTopCLOS {
			for i := n - 2; i >= 0; i-- {
				g := ordered[i]
				if g.CLOS != prevTopCLOS || g.Priority != BE {
					continue
				}
				// Challenger must beat the incumbent by the margin.
				if top.RefsPerSec >= shuffleMargin*g.RefsPerSec {
					ordered[i], ordered[n-1] = ordered[n-1], ordered[i]
				}
				break
			}
		}
	}
	return ordered
}

// TotalWidth sums group widths.
func TotalWidth(groups []*Group) int {
	t := 0
	for _, g := range groups {
		t += g.Width
	}
	return t
}
