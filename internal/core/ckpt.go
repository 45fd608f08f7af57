package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"iatsim/internal/policy"
	"iatsim/internal/rdt"
)

// Checkpoint/restore of the daemon's control-plane state. SnapshotState
// captures everything the daemon accumulated since its first Tick — FSM
// state, group layout, counter baselines, watchdog/backoff state, policy
// and shadow-evaluator state — so a killed daemon process resumed from a
// checkpoint continues byte-identically. Configuration (Params, Options,
// the System binding) and wall-clock artefacts (StepTimings) are
// deliberately excluded: the former is re-supplied by whoever constructs
// the resumed daemon, the latter is not simulation state.

// ErrStateMismatch is returned by RestoreState when a checkpoint does not
// fit the daemon it is being restored into (different policy, different
// cache geometry). Callers should treat it as "cold start instead".
var ErrStateMismatch = errors.New("core: checkpoint does not match daemon configuration")

// GroupState is one allocation group's serialised form.
type GroupState struct {
	CLOS       int      `json:"clos"`
	Priority   Priority `json:"priority"`
	IO         bool     `json:"io"`
	Width      int      `json:"width"`
	RefsPerSec float64  `json:"refs_per_sec"`
	Cores      []int    `json:"cores"`
}

// DaemonState is the daemon's serialised control-plane state. All fields
// are exported scalars, slices in registration order, or maps that are
// only marshalled through encoding/json (which sorts keys), so identical
// daemon state always serialises to identical bytes. The policy and
// shadow states nest as JSON values; a missing or null one is absent.
type DaemonState struct {
	State    policy.State `json:"state"`
	NeedInfo bool         `json:"need_info"`
	Groups   []GroupState `json:"groups"`
	NWays    int          `json:"n_ways"`
	DDIOWays int          `json:"ddio_ways"`
	TopCLOS  int          `json:"top_clos"`

	LastIterNS  float64                  `json:"last_iter_ns"`
	PrevCumTime float64                  `json:"prev_cum_time"`
	PrevCum     map[int]rdt.CoreCounters `json:"prev_cum,omitempty"`
	PrevDDIO    rdt.DDIOCounters         `json:"prev_ddio"`
	HavePrevCum bool                     `json:"have_prev_cum"`

	PolicyName  string          `json:"policy_name"`
	PolicyState json.RawMessage `json:"policy_state"`
	ShadowState json.RawMessage `json:"shadow_state,omitempty"`

	Iters    uint64      `json:"iters"`
	Unstable uint64      `json:"unstable"`
	Health   HealthStats `json:"health"`

	ConsecBad       int          `json:"consec_bad"`
	SaneStreak      int          `json:"sane_streak"`
	Degraded        bool         `json:"degraded"`
	RearmNeed       int          `json:"rearm_need"`
	CleanStreak     int          `json:"clean_streak"`
	WriteFailedIter bool         `json:"write_failed_iter"`
	TelState        policy.State `json:"tel_state"`
}

// SnapshotState captures the daemon's control-plane state between
// iterations.
func (d *Daemon) SnapshotState() (DaemonState, error) {
	ps, err := d.pol.Snapshot()
	if err != nil {
		return DaemonState{}, fmt.Errorf("core: snapshot policy %s: %w", d.pol.Name(), err)
	}
	st := DaemonState{
		State:    d.state,
		NeedInfo: d.needInfo,
		NWays:    d.nWays,
		DDIOWays: d.ddioWays,
		TopCLOS:  d.topCLOS,

		LastIterNS:  d.lastIterNS,
		PrevCumTime: d.prevCumTime,
		PrevDDIO:    d.prevDDIO,
		HavePrevCum: d.havePrevCum,

		PolicyName:  d.pol.Name(),
		PolicyState: ps,

		Iters:    d.iters,
		Unstable: d.unstable,
		Health:   d.health,

		ConsecBad:       d.consecBad,
		SaneStreak:      d.saneStreak,
		Degraded:        d.degraded,
		RearmNeed:       d.rearmNeed,
		CleanStreak:     d.cleanStreak,
		WriteFailedIter: d.writeFailedIter,
		TelState:        d.telState,
	}
	for _, g := range d.groups {
		st.Groups = append(st.Groups, GroupState{
			CLOS: g.CLOS, Priority: g.Priority, IO: g.IO, Width: g.Width,
			RefsPerSec: g.RefsPerSec, Cores: append([]int(nil), d.cores[g.CLOS]...),
		})
	}
	if d.havePrevCum {
		st.PrevCum = make(map[int]rdt.CoreCounters, len(d.prevCum))
		for clos, c := range d.prevCum {
			st.PrevCum[clos] = c
		}
	}
	if d.shadows != nil && !d.shadows.Empty() {
		ss, err := d.shadows.Snapshot()
		if err != nil {
			return DaemonState{}, err
		}
		st.ShadowState = ss
	}
	return st, nil
}

// RestoreState rewinds the daemon to a checkpointed state. The checkpoint
// must have been taken from a daemon with the same cache geometry and the
// same active policy (by Name); mismatches return ErrStateMismatch. On
// any error the caller should fall back to Restart() — the daemon (and
// its policy) may be partially restored.
func (d *Daemon) RestoreState(st DaemonState) error {
	if st.NWays != d.nWays {
		return fmt.Errorf("%w: checkpoint has %d ways, daemon has %d", ErrStateMismatch, st.NWays, d.nWays)
	}
	if st.PolicyName != d.pol.Name() {
		return fmt.Errorf("%w: checkpoint policy %q, daemon runs %q", ErrStateMismatch, st.PolicyName, d.pol.Name())
	}
	if policy.Absent(st.PolicyState) {
		return fmt.Errorf("%w: checkpoint has no policy state", ErrStateMismatch)
	}
	if err := d.pol.Restore(st.PolicyState); err != nil {
		return err
	}
	if !policy.Absent(st.ShadowState) || !d.shadows.Empty() {
		if policy.Absent(st.ShadowState) {
			return fmt.Errorf("%w: checkpoint has no shadow state, daemon has shadows attached", ErrStateMismatch)
		}
		if err := d.shadows.Restore(st.ShadowState); err != nil {
			return err
		}
	}

	d.state = st.State
	d.needInfo = st.NeedInfo
	d.nWays = st.NWays
	d.ddioWays = st.DDIOWays
	d.topCLOS = st.TopCLOS

	d.lastIterNS = st.LastIterNS
	d.prevCumTime = st.PrevCumTime
	d.prevDDIO = st.PrevDDIO
	d.havePrevCum = st.HavePrevCum
	d.prevCum = make(map[int]rdt.CoreCounters, len(st.PrevCum))
	for clos, c := range st.PrevCum {
		d.prevCum[clos] = c
	}

	d.groups = d.groups[:0]
	d.byCLOS = make(map[int]*Group, len(st.Groups))
	d.cores = make(map[int][]int, len(st.Groups))
	for _, gs := range st.Groups {
		g := &Group{CLOS: gs.CLOS, Priority: gs.Priority, IO: gs.IO, Width: gs.Width, RefsPerSec: gs.RefsPerSec}
		d.groups = append(d.groups, g)
		d.byCLOS[g.CLOS] = g
		d.cores[g.CLOS] = append([]int(nil), gs.Cores...)
	}

	d.iters = st.Iters
	d.unstable = st.Unstable
	// st.Health is the raw internal struct: its Degraded field is derived
	// (overlaid by Health() from d.degraded on read) and must round-trip
	// verbatim, or a restore-while-degraded would pin it true forever.
	d.health = st.Health

	d.consecBad = st.ConsecBad
	d.saneStreak = st.SaneStreak
	d.degraded = st.Degraded
	d.rearmNeed = st.RearmNeed
	d.cleanStreak = st.CleanStreak
	d.writeFailedIter = st.WriteFailedIter
	d.telState = st.TelState
	return nil
}

// Restart is a cold start after an unplanned daemon death without (or
// failing) a checkpoint restore: all accumulated control-plane state is
// dropped, exactly as if the process had been relaunched over the same
// platform. The hardware keeps whatever masks were programmed — the
// first Tick re-runs Get Tenant Info and adopts them, like a freshly
// booted daemon does. The policy instance survives but is Reset (its
// decision baselines are dropped); an attached shadow evaluator cold
// starts too.
func (d *Daemon) Restart() {
	d.state = policy.LowKeep
	d.needInfo = true
	d.groups = d.groups[:0]
	d.byCLOS = nil
	d.cores = nil
	d.ddioWays = 0
	d.topCLOS = -1
	d.lastIterNS = -1e18
	d.prevCumTime = 0
	d.prevCum = nil
	d.prevDDIO = rdt.DDIOCounters{}
	d.havePrevCum = false
	d.pol.Reset()
	if d.shadows != nil {
		d.shadows.Restart()
	}
	d.timings = StepTimings{}
	d.iters = 0
	d.unstable = 0
	d.health = HealthStats{}
	d.consecBad = 0
	d.saneStreak = 0
	d.degraded = false
	d.rearmNeed = 0
	d.cleanStreak = 0
	d.writeFailedIter = false
	d.telState = policy.LowKeep
}
