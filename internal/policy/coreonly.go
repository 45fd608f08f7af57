package policy

import (
	"fmt"
	"slices"

	"iatsim/internal/cache"
)

// growThreshold is the relative LLC-miss growth over the previous
// interval that earns a Core-only / I/O-iso group one more way.
const growThreshold = 0.10

// CoreOnly is the Core-only comparison point of the paper's evaluation
// (Sec. VI-B): a dynamic core-side allocator with no I/O awareness. Each
// interval it grants one way to the group whose LLC misses grew the most
// (by more than growThreshold, and only while its miss rate is above
// Limits.TenantMissRateFloor), taking it from the idle ways — without
// knowing that DDIO lives there — and never shuffles tenants against
// DDIO. The paper obtains it by disabling IAT's I/O Demand state and
// shuffling (footnote 4).
//
// With isolation on it is I/O-iso instead: the DDIO ways are excluded
// from every tenant mask, as prior work proposes. When the remaining ways
// run out it takes a way from the least-missing best-effort group, and
// when the DDIO mask changes (an operator expanding DDIO) it re-packs the
// tenants below it, overlapping them once they no longer fit.
//
// Both keep their exact layout rules to themselves: every change is
// handed to the daemon as a complete Actions.Layout, packed bottom-up in
// registration order with the most recent grower moved to the top.
type CoreOnly struct {
	isolate  bool
	order    []int           // CLOS ids, bottom-up packing order
	prevMiss map[int]float64 // last interval's MissPS by CLOS; nil until the first sample
	lastDDIO cache.WayMask   // DDIO mask the current layout was packed against (I/O-iso)
}

// NewCoreOnly returns the Core-only comparator.
func NewCoreOnly() *CoreOnly { return &CoreOnly{} }

// NewIOIso returns the I/O-iso comparator.
func NewIOIso() *CoreOnly { return &CoreOnly{isolate: true} }

// Name implements Policy.
func (p *CoreOnly) Name() string {
	if p.isolate {
		return KindIOIso.String()
	}
	return KindCoreOnly.String()
}

// Reset implements Policy: the miss-growth baseline is dropped. The
// packing order and the last DDIO mask survive, as the layout history.
func (p *CoreOnly) Reset() { p.prevMiss = nil }

// Decide implements Policy.
func (p *CoreOnly) Decide(s Sample) Actions {
	p.syncOrder(s)
	repack := p.isolate && s.DDIOMask != p.lastDDIO
	p.lastDDIO = s.DDIOMask

	prev := p.prevMiss
	p.prevMiss = make(map[int]float64, len(s.Groups))
	for i := range s.Groups {
		p.prevMiss[s.Groups[i].CLOS] = s.Groups[i].MissPS
	}
	a := p.decide(s, prev, repack)
	if prev == nil && a.Stable {
		// The first sample only becomes the miss-growth baseline.
		a = Actions{Warmup: true, State: s.State, DDIOWays: s.DDIOWays}
	}
	return a
}

// decide picks the grower (none on the first sample) and returns the
// re-packed layout, or a stable decision when no mask would move or
// tenant adjustment is disabled.
func (p *CoreOnly) decide(s Sample, prev map[int]float64, repack bool) Actions {
	stable := Actions{Stable: true, State: LowKeep, DDIOWays: s.DDIOWays, Desc: "stable"}
	if s.Limits.DisableTenantAdjust {
		return stable
	}
	width := make(map[int]int, len(s.Groups))
	for i := range s.Groups {
		width[s.Groups[i].CLOS] = s.Groups[i].Width
	}
	var grow, victim *GroupView
	if prev != nil {
		best := growThreshold
		for i := range s.Groups {
			g := &s.Groups[i]
			base := prev[g.CLOS]
			if base <= 0 {
				base = 1e4 // a group idle last interval grows against 10k misses/s
			}
			if rel := (g.MissPS - base) / base; rel > best && g.MissRate > s.Limits.TenantMissRateFloor {
				grow, best = g, rel
			}
		}
	}
	if grow != nil {
		switch {
		case s.totalWidth() < p.limit(s):
		case p.isolate:
			for i := range s.Groups {
				g := &s.Groups[i]
				if g == grow || g.Width <= 1 || !g.BestEffort {
					continue
				}
				if victim == nil || g.MissRate < victim.MissRate {
					victim = g
				}
			}
			if victim == nil {
				grow = nil
			}
		default:
			grow = nil // Core-only: no idle ways left
		}
	}
	if grow == nil && !repack {
		return stable
	}
	a := Actions{State: LowKeep, DDIOWays: s.DDIOWays,
		Desc: fmt.Sprintf("%s: repack below ddio=%v", p.Name(), s.DDIOMask)}
	if grow != nil {
		width[grow.CLOS]++
		a.State, a.Grow = CoreDemand, []int{grow.CLOS}
		a.Desc = fmt.Sprintf("%s: +1 way clos %d", p.Name(), grow.CLOS)
		if victim != nil {
			width[victim.CLOS]--
			a.Shrink = []int{victim.CLOS}
			a.Desc += fmt.Sprintf(" from clos %d", victim.CLOS)
		}
		// The grower moves to the top of the packing order so its new way
		// comes from the idle region.
		i := slices.Index(p.order, grow.CLOS)
		p.order = append(slices.Delete(p.order, i, i+1), grow.CLOS)
	}
	a.Layout = p.pack(s, width)
	if grow == nil && sameLayout(s, a.Layout) {
		return stable
	}
	return a
}

// sameLayout reports whether every group's mask already equals layout's.
func sameLayout(s Sample, layout map[int]cache.WayMask) bool {
	for i := range s.Groups {
		if layout[s.Groups[i].CLOS] != s.Groups[i].Mask {
			return false
		}
	}
	return true
}

// syncOrder keeps the packing order equal to the sample's group set:
// groups gone from the sample are dropped, new ones appended in
// registration order.
func (p *CoreOnly) syncOrder(s Sample) {
	p.order = slices.DeleteFunc(p.order, func(clos int) bool { return s.group(clos) == nil })
	for i := range s.Groups {
		if !slices.Contains(p.order, s.Groups[i].CLOS) {
			p.order = append(p.order, s.Groups[i].CLOS)
		}
	}
}

// limit is the highest way index + 1 tenants may use: the whole LLC for
// Core-only (unaware that DDIO sits on top), everything below the DDIO
// ways for I/O-iso.
func (p *CoreOnly) limit(s Sample) int {
	if p.isolate {
		return s.NumWays - s.DDIOMask.Count()
	}
	return s.NumWays
}

// pack lays the groups out bottom-up in packing order, clamping overflow
// into overlap below the limit (I/O-iso's tenant sharing when space runs
// out).
func (p *CoreOnly) pack(s Sample, width map[int]int) map[int]cache.WayMask {
	limit := p.limit(s)
	layout := make(map[int]cache.WayMask, len(p.order))
	pos := 0
	for _, clos := range p.order {
		w := width[clos]
		start := pos
		if start+w > limit {
			start = max(limit-w, 0)
		}
		layout[clos] = cache.ContiguousMask(start, min(w, s.NumWays))
		pos = start + w
	}
	return layout
}
